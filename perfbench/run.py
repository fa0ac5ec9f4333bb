"""LIGHTOR benchmark: one command, every workload, end-to-end and per layer.

Run from the repository root::

    python3 perfbench/run.py --workload soak-live --seed 7 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics listed in ``BENCHMARK.json``;
``--trace 1`` wraps each layer's classes for the run and reports the
per-layer metrics instead.  Each run repeats whole rounds of the workload's
traffic, at least three and until ``--seconds`` of drive time have passed
and every reported percentile has enough samples, checks every round against
a sequential oracle, prints the metrics one per line with unit and sample
count (end-to-end figures are medians over rounds), and ends with one JSON
line: ``correct``, ``attempted``, ``failed`` and ``metrics``.
It exits non-zero on any failed call or oracle divergence.

Inputs are generated from ``--seed``; the program receives only them.
Scratch files (SQLite databases, span export, result record) go to
``.bench_out/`` under the working directory.
"""

from __future__ import annotations

import argparse
import gc
import os
import pickle
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from percentiles import dumps_strict, percentile  # noqa: E402
from spans import NullTracer, Tracer  # noqa: E402

DEFAULT_SEED = 7
# A run that cannot gather enough samples within this much drive time fails.
MAX_DRIVE_SECONDS = 120.0
# Untraced rounds per run: the end-to-end figures are medians over rounds,
# so one round slowed by a noisy neighbour does not move them.
MIN_ROUNDS = 3
# Set-ups timed per untraced round: the one the round drives plus extra ones
# torn down at once.  Spread over the run, their median sees the same host
# as the drive instead of one burst of it.
SETUPS_PER_ROUND = 6

# name -> unit.  ``hot`` is each workload's most frequent call.  Tails and
# whole-history passes (``hot`` p99, ``cold`` p50) are printed under the
# workload's own names but not listed here: on a shared 2-CPU host their
# run-to-run spread is wider than any bound that would still catch a change.
END_TO_END = {
    "setup_s": "s",
    "events_per_s": "events/s",
    "hot_p50_ms": "ms",
    "peak_rss_mb": "MB",
}

# Per-layer metrics besides the layer time shares (``layers.LAYER_TIMES``).
COUNTS = {
    "gateway.bytes_in": "bytes",
    "gateway.bytes_out": "bytes",
    "gateway.rejected": "count",
    "state.windows_sealed": "count",
    "initializer.rescore_count": "count",
    "initializer.rescore_useful_ratio": "ratio",
    "initializer.summaries_at_close": "count",
    "extractor.plays": "count",
    "backends.snapshot_count": "count",
    "service.dots_cache_hit_ratio": "ratio",
    "loadgen.late_share": "ratio",
    "trace.residual_ratio": "ratio",
    "trace.overhead_ratio": "ratio",
}


def fail(message: str, code: int = 2):
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(code)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def git_sha(root: Path) -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split(" ", 1)[0]
    except OSError:
        pass
    return "unknown"


def environment(root: Path, workload, clients: int, seed: int, sizes: dict) -> dict:
    import numpy

    return {
        "usable_cpus": len(os.sched_getaffinity(0)),
        "clients": clients,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": git_sha(root),
        "workload": workload.name,
        "loop": workload.loop,
        "seed": seed,
        "sizes": sizes,
    }


def quantile_ms(samples, q):
    value, n, beyond = percentile(samples, q)
    return (None if value is None else value * 1000.0), n, beyond


def merge(rounds) -> dict[str, list[float]]:
    samples: dict[str, list[float]] = {}
    for result in rounds:
        for op, values in result.samples.items():
            samples.setdefault(op, []).extend(values)
    return samples


def enough_samples(workload, samples) -> bool:
    checks = [(workload.hot_op, 0.5), (workload.hot_op, 0.99), (workload.cold_op, 0.5)]
    return all(quantile_ms(samples.get(op, []), q)[0] is not None for op, q in checks)


def synthesize(name: str, seed: int, workdir: Path):
    """A workload's inputs for ``seed``, built by ``synth.py`` in a child process."""
    with tempfile.TemporaryDirectory(dir=workdir) as scratch:
        out = Path(scratch) / "traffic.pickle"
        subprocess.run(
            [sys.executable, str(HERE / "synth.py"), name, str(seed), str(out)],
            check=True,
            timeout=170,
        )
        # Written a moment ago by our own child process.
        with open(out, "rb") as handle:
            return pickle.load(handle)


def measure(workload, traffic, training, seconds: float, tracer, workdir: Path):
    """Run rounds until enough drive time and samples; trace odd rounds.

    Returns the rounds and every timed set-up.
    """
    rounds, setups = [], []
    while True:
        traced = tracer is not None and len(rounds) % 2 == 1
        if tracer is None:
            for _ in range(SETUPS_PER_ROUND - 1):
                with tempfile.TemporaryDirectory(dir=workdir) as scratch:
                    tier, setup_s = workload.setup(traffic, training, Path(scratch))
                    tier.close()
                setups.append(setup_s)
        # The inputs and earlier rounds' samples are the benchmark's own
        # long-lived objects: keep garbage collection from rescanning them
        # inside the program's calls.
        gc.collect()
        gc.freeze()
        with tempfile.TemporaryDirectory(dir=workdir) as scratch:
            rounds.append(
                workload.run_round(
                    traffic, training, Path(scratch), tracer if traced else NullTracer(), traced
                )
            )
        setups.append(rounds[-1].setup_s)
        drive = sum(r.wall_s for r in rounds)
        if tracer is not None:
            if len(rounds) >= 2 and drive >= seconds:
                return rounds, setups
        elif (
            drive >= seconds
            and len(rounds) >= MIN_ROUNDS
            and enough_samples(workload, merge(rounds))
        ):
            return rounds, setups
        if drive > MAX_DRIVE_SECONDS:
            fail(f"{workload.name}: too few samples after {drive:.0f}s of drive time", 3)


def end_to_end(workload, rounds, setups, rss) -> dict[str, tuple[float, int]]:
    """Every end-to-end metric as ``(value, sample count)``: medians over rounds."""
    hot = [quantile_ms(r.samples.get(workload.hot_op, []), 0.5)[0] for r in rounds]
    if None in hot:
        fail(f"{workload.name}: a round had too few {workload.hot_op} calls for a median", 3)
    return {
        "setup_s": (statistics.median(setups), len(setups)),
        "events_per_s": (
            statistics.median(workload.events_per_s(r) for r in rounds),
            sum(r.events for r in rounds),
        ),
        "hot_p50_ms": (
            statistics.median(hot),
            sum(len(r.samples.get(workload.hot_op, [])) for r in rounds),
        ),
        "peak_rss_mb": (rss, 1),
    }


def op_summary(samples) -> dict:
    """Per call kind: count and latency percentiles (ms), for the result record."""
    summary = {}
    for op, values in sorted(samples.items()):
        summary[op] = {"n": len(values)}
        for q in (0.5, 0.9, 0.95, 0.99):
            summary[op][f"p{round(q * 100)}_ms"] = quantile_ms(values, q)[0]
    return summary


def issue_lines(workload, rounds, failed: int, attempted: int) -> list[str]:
    """The workload's own metric names, each with unit and sample count."""
    samples = merge(rounds)
    named = list(workload.named)
    lines = []
    if workload.loop == "open":
        named.append(("loadgen.late_ms_p99", "late", 0.99))
        lines.append("  (open loop: events_per_s is requests per second of client busy time)")
    for name, op, q in named:
        value, n, beyond = quantile_ms(samples.get(op, []), q)
        shown = "n/a" if value is None else f"{value:.3f} ms"
        lines.append(f"  {name:<20} {shown:>14}   (n={n}, {beyond} beyond)")
    lines.append(f"  {'error_ratio':<20} {failed / attempted:>14.6f}   (n={attempted})")
    return lines


def layer_metrics(workload, tracer, rounds) -> tuple[dict, list[str]]:
    """Per-layer metrics of the traced rounds, and a self-time table."""
    from layers import LAYER_TIMES, share_name

    traced = [r for r in rounds if r.traced]
    plain = [r for r in rounds if not r.traced]
    totals = tracer.layer_totals()
    root = totals["root"]
    metrics: dict[str, float] = {}
    table = [f"  {'layer':<28} {'calls':>8} {'self ms':>12} {'share':>8}"]
    for name in LAYER_TIMES:
        entry = totals.get(name, {"calls": 0, "self_ms": 0.0, "share": 0.0})
        metrics[share_name(name)] = entry["share"]
        table.append(
            f"  {name:<28} {entry['calls']:>8} {entry['self_ms']:>12.1f} {entry['share']:>8.3f}"
        )
    table.append(
        f"  {'(residual: root self)':<28} {root['calls']:>8} {root['self_ms']:>12.1f} "
        f"{root['share']:>8.3f}   of {root['total_ms']:.1f} ms in root spans"
    )

    counters = tracer.counters
    for name in ("gateway.bytes_in", "gateway.bytes_out", "gateway.rejected"):
        metrics[name] = sum(r.gateway.get(name, 0) for r in traced)
    for name in (
        "state.windows_sealed",
        "initializer.rescore_count",
        "initializer.summaries_at_close",
        "extractor.plays",
    ):
        metrics[name] = counters.get(name, 0)
    evaluations = counters.get("initializer.rescore_count", 0)
    metrics["initializer.rescore_useful_ratio"] = (
        counters.get("initializer.rescore_useful", 0) / evaluations if evaluations else 0.0
    )
    metrics["backends.snapshot_count"] = totals.get("backends.snapshot_ms", {"calls": 0})["calls"]
    requests = tracer.children_named("LightorWebService.request_red_dots")
    hits = sum(1 for children in requests if "HighlightInitializer.propose" not in children)
    metrics["service.dots_cache_hit_ratio"] = hits / len(requests) if requests else 0.0
    plain_samples, traced_samples = merge(plain), merge(traced)
    late = plain_samples.get("late", [])
    metrics["loadgen.late_share"] = sum(1 for v in late if v > 0.001) / len(late) if late else 0.0
    metrics["trace.residual_ratio"] = root["share"]

    traced_rate = statistics.median(workload.events_per_s(r) for r in traced)
    plain_rate = statistics.median(workload.events_per_s(r) for r in plain)
    traced_p50 = quantile_ms(traced_samples.get(workload.hot_op, []), 0.5)[0]
    plain_p50 = quantile_ms(plain_samples.get(workload.hot_op, []), 0.5)[0]
    # A closed loop shows tracing cost as lost throughput; an open loop runs
    # at a fixed rate, so it shows as latency.
    if workload.loop == "closed":
        metrics["trace.overhead_ratio"] = plain_rate / traced_rate - 1.0
    else:
        metrics["trace.overhead_ratio"] = traced_p50 / plain_p50 - 1.0
    table.append(
        f"  tracing overhead: {traced_rate:,.0f} vs {plain_rate:,.0f} events/s traced/untraced, "
        f"{workload.hot_op} p50 {traced_p50:.3f} vs {plain_p50:.3f} ms"
    )
    return metrics, table


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "repro").is_dir():
        fail(f"no LIGHTOR sources at {root / 'src' / 'repro'}; run from the repository root")
    sys.path.insert(0, str(root / "src"))

    from layers import TARGETS, WIRE
    from workloads import CLIENTS, WORKLOADS, training_pair

    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; expected one of {sorted(WORKLOADS)}")
    cpus = len(os.sched_getaffinity(0))
    if CLIENTS > cpus:
        fail(f"{CLIENTS} client threads need {CLIENTS} usable CPUs; this host has {cpus}")
    if args.seconds <= 0:
        fail("--seconds must be positive")
    workload = WORKLOADS[args.workload]
    workdir = root / ".bench_out"
    workdir.mkdir(exist_ok=True)

    # Input synthesis is not part of set-up: the program only receives it.
    traffic = synthesize(workload.name, args.seed, workdir)
    training = training_pair()
    env = environment(root, workload, CLIENTS, args.seed, traffic.sizes)
    print(f"env {dumps_strict(env)}")

    tracer = Tracer(TARGETS, WIRE) if args.trace else None
    rounds, setups = measure(workload, traffic, training, args.seconds, tracer, workdir)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    expected = workload.oracle(traffic, training)
    diverged = [
        vid for r in rounds for vid in expected if r.fingerprints.get(vid) != expected[vid]
    ]
    failures = [f for r in rounds for f in r.failures]
    attempted = sum(r.attempted for r in rounds) + len(expected) * len(rounds)
    failed = len(failures) + len(diverged)
    print(
        f"{workload.name}: {len(rounds)} round(s), drive "
        f"{' + '.join(f'{r.wall_s:.2f}' for r in rounds)} s, {attempted} calls and "
        f"oracle checks, {len(failures)} failed calls, {len(diverged)} divergent channel(s)"
    )
    for failure in failures[:10]:
        print(f"  FAILED {failure}")
    if diverged:
        print(f"  ORACLE DIVERGENCE: {', '.join(sorted(set(diverged)))}")

    plain = [r for r in rounds if not r.traced]
    if tracer is not None:
        metrics, table = layer_metrics(workload, tracer, rounds)
        units = {**{name: "ratio" for name in metrics if name.endswith("share")}, **COUNTS}
        print("per-layer self time (traced rounds):")
        for line in table:
            print(line)
        spans_path = workdir / f"spans-{workload.name}-seed{args.seed}.jsonl"
        print(f"  {tracer.export(spans_path)} spans written to {spans_path.relative_to(root)}")
        for name, value in metrics.items():
            print(f"  {name:<34} {value:>14.6g} {units[name]}")
        reported = {name: {"value": value, "unit": units[name]} for name, value in metrics.items()}
    else:
        measured = end_to_end(workload, plain, setups, rss)
        print("end-to-end:")
        for name, (value, n) in measured.items():
            print(f"  {name:<20} {value:>14.4f} {END_TO_END[name]:<9} (n={n})")
        for line in issue_lines(workload, plain, failed, attempted):
            print(line)
        reported = {
            name: {"value": value, "unit": END_TO_END[name]} for name, (value, _) in measured.items()
        }
    record = {
        "env": env,
        "rounds": len(rounds),
        "diverged": sorted(set(diverged)),
        "failures": failures,
        "calls": op_summary(merge(plain)),
        "metrics": reported,
    }
    (workdir / f"result-{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        dumps_strict(record) + "\n"
    )
    print(dumps_strict({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": reported}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
