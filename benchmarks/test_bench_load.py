"""BENCH-LOAD — batched-ingest scaling study over the sharded service tier.

Drives one deterministic soak workload (a Zipf fleet of marathon channels:
chat firehoses, viewer-play firehoses, staggered lifecycles) through the
sharded service at every point of a batch-size × shard-count grid and
records wall-clock events/sec plus the per-stage breakdown in
``BENCH_load.json`` (under ``.bench_out/``; at the repo root with
``LIGHTOR_BENCH_RECORD=1``), so successive PRs can track the trajectory.

Two gates encode the PR's claims:

* **batched and per-event ingest both hold their ground**: at full size,
  the 1-shard memory row must reach absolute throughput floors, taken
  from three full-size runs of the code before the vectorised seal-time
  featurizer on a 2-CPU container.  Batch 512 must reach 20,549 events/s,
  the best of those runs: the featurizer is most of what a batched call
  pays, and it clears that with room.  Per-event (batch 1) must reach
  6,022 events/s, the worst of them: per-call overhead dominates
  per-event serving, so there the change sits inside the host's
  run-to-run spread, and a floor at the best run would fail about as
  often as it passed.  The ratio of the two (about 3x) is recorded, not
  gated; that the evaluation stays bounded as the
  stream ages is also pinned deterministically in
  ``tests/test_streaming_parity.py``;
* **sharded + concurrent is still correct**: the oracle spot-check (a
  sequential single-shard replay of the byte-identical batches) must report
  zero divergences.

Sizes shrink via the ``LIGHTOR_BENCH_LOAD_*`` environment variables; the CI
smoke job runs tiny sizes, where the floors give way to a sanity bound on
the batch-512 vs per-event ratio (tiny fleets say nothing about
full-size throughput).
"""

from __future__ import annotations

import json
import os
import time

import pytest

from benchmarks.conftest import results_path
from repro.core.config import LightorConfig
from repro.core.initializer.initializer import HighlightInitializer
from repro.datasets import DatasetSpec, build_dataset
from repro.loadgen import LoadWorkload, WorkloadSpec, run_load
from repro.platform import codecs, wire

CHANNELS = int(os.environ.get("LIGHTOR_BENCH_LOAD_CHANNELS", "12"))
VIEWERS = int(os.environ.get("LIGHTOR_BENCH_LOAD_VIEWERS", "1200"))
DURATION = float(os.environ.get("LIGHTOR_BENCH_LOAD_DURATION", "28800"))
WORKERS = int(os.environ.get("LIGHTOR_BENCH_LOAD_WORKERS", "8"))
SEED = int(os.environ.get("LIGHTOR_BENCH_LOAD_SEED", "7"))

BATCH_SIZES = (1, 64, 512)
SHARD_COUNTS = (1, 4)
# The floors only hold at full size; any size override swaps them for a
# sanity bound on the batch-512 vs per-event ratio.
FULL_SIZE = not any(
    f"LIGHTOR_BENCH_LOAD_{knob}" in os.environ
    for knob in ("CHANNELS", "VIEWERS", "DURATION", "WORKERS", "SEED")
)
# events/s on the 1-shard memory row, keyed by batch size (see the docstring).
THROUGHPUT_FLOORS = {512: 20_549.0, 1: 6_022.0}
SMOKE_SPEEDUP_GATE = 1.2
# Host noise only ever slows a run, so a grid point under its floor is
# re-measured and the best run counts.
FLOOR_ATTEMPTS = 3

RESULTS_PATH = results_path("BENCH_load.json")


@pytest.fixture(scope="module")
def fitted_initializer():
    dataset = build_dataset(DatasetSpec.dota2(size=1, seed=2020))
    initializer = HighlightInitializer(config=LightorConfig())
    initializer.fit([dataset[0].training_pair])
    return initializer


@pytest.fixture(scope="module")
def workload():
    """One synthesised soak fleet, re-chunked per grid point."""
    spec = WorkloadSpec(
        channels=CHANNELS,
        viewers=VIEWERS,
        duration=DURATION,
        batch_size=1,
        seed=SEED,
        stretch=True,
    )
    return LoadWorkload.from_spec(spec)


def _save(payload: dict) -> None:
    signature = (
        f"channels{CHANNELS}-viewers{VIEWERS}-duration{int(DURATION)}-workers{WORKERS}"
    )
    results = {}
    if RESULTS_PATH.exists():
        results = json.loads(RESULTS_PATH.read_text())
    section = results.setdefault("load_scaling", {})
    entry = section.get(signature)
    if not isinstance(entry, dict):
        entry = {}
    entry.update(payload)
    entry["config"] = {
        "channels": CHANNELS,
        "viewers": VIEWERS,
        "duration": DURATION,
        "workers": WORKERS,
        "batch_sizes": list(BATCH_SIZES),
        "shard_counts": list(SHARD_COUNTS),
        "seed": SEED,
    }
    section[signature] = entry
    # allow_nan=False keeps the file spec-valid JSON: a non-finite rate
    # anywhere in the report fails the bench loudly instead of writing a
    # file most parsers reject.
    RESULTS_PATH.write_text(
        json.dumps(results, indent=2, sort_keys=True, allow_nan=False) + "\n"
    )


def _run_grid_point(fitted_initializer, workload, n_shards: int, batch_size: int):
    return run_load(
        workload.spec,
        fitted_initializer,
        shards=n_shards,
        workers=WORKERS,
        backend="memory",
        oracle=False,
        workload=workload.rebatched(batch_size),
    )


def test_bench_load_scaling(fitted_initializer, workload):
    print()
    print(
        f"soak fleet: {workload.spec.channels} channels, "
        f"{workload.total_chat:,} chat + {workload.total_plays:,} play events"
    )
    grid: dict[str, dict[str, dict]] = {}
    throughput: dict[tuple[int, int], float] = {}
    for n_shards in SHARD_COUNTS:
        row: dict[str, dict] = {}
        for batch_size in BATCH_SIZES:
            report = _run_grid_point(fitted_initializer, workload, n_shards, batch_size)
            throughput[(n_shards, batch_size)] = report.events_per_sec
            row[str(batch_size)] = report.to_dict()
            print(
                f"  shards={n_shards} batch={batch_size:<4d} "
                f"{report.events_per_sec:>12,.0f} events/s"
            )
        grid[str(n_shards)] = row

    ratios = {
        n_shards: throughput[(n_shards, 512)] / throughput[(n_shards, 1)]
        for n_shards in SHARD_COUNTS
    }
    for n_shards, ratio in ratios.items():
        print(f"  shards={n_shards}: batch 512 vs per-event speedup {ratio:.2f}x")
    _save({"grid": grid, "speedups_512_vs_1": {str(k): round(v, 2) for k, v in ratios.items()}})

    if not FULL_SIZE:
        best = max(ratios.values())
        assert best >= SMOKE_SPEEDUP_GATE, (
            f"batched ingest speedup {best:.2f}x at batch 512 fell below the "
            f"{SMOKE_SPEEDUP_GATE}x sanity bound (throughput: {throughput})"
        )
        return
    for batch_size, floor in THROUGHPUT_FLOORS.items():
        rates = [throughput[(1, batch_size)]]
        while max(rates) < floor and len(rates) < FLOOR_ATTEMPTS:
            report = _run_grid_point(fitted_initializer, workload, 1, batch_size)
            rates.append(report.events_per_sec)
        assert max(rates) >= floor, (
            f"1-shard batch-{batch_size} throughput fell below its "
            f"{floor:,.0f} events/s floor in every run: "
            + ", ".join(f"{rate:,.0f}" for rate in rates)
        )


def test_bench_load_oracle_spot_check(fitted_initializer, workload):
    """The sharded concurrent run must match the sequential oracle exactly."""
    report = run_load(
        workload.spec,
        fitted_initializer,
        shards=SHARD_COUNTS[-1],
        workers=WORKERS,
        backend="memory",
        oracle=True,
        workload=workload.rebatched(64),
    )
    print()
    print(report.describe())
    _save({"oracle": {"channels": len(report.outcomes), "divergences": report.divergences}})
    assert report.oracle_checked
    assert report.divergences == [], f"oracle divergences: {report.divergences}"


# ---------------------------------------------------------------------------
# Cluster (multi-process) scaling
# ---------------------------------------------------------------------------

# The whole point of the process cluster is escaping the GIL, so the scaling
# gate is conditional on the hardware actually having cores to scale onto:
# on fewer than 4 usable CPUs a 4-worker fleet time-slices one core and the
# honest measurement is recorded without asserting a speedup it cannot show.
CPUS = len(os.sched_getaffinity(0))
CLUSTER_BATCH = 512
CLUSTER_SPEEDUP_GATE = 2.0


def test_bench_cluster_scaling(fitted_initializer, workload):
    """Shard *processes* vs one process, same workload, batch 512.

    Records the ``transport="cluster"`` grid (and the host's usable CPU
    count) in ``BENCH_load.json``.  The ≥2x gate applies at full size on
    hosts with at least 4 usable cores — exactly the configurations where
    the flat in-process shard curve was the bug being fixed.
    """
    print()
    grid: dict[str, dict] = {}
    throughput: dict[int, float] = {}
    for n_shards in SHARD_COUNTS:
        report = run_load(
            workload.spec,
            fitted_initializer,
            shards=n_shards,
            workers=WORKERS,
            backend="memory",
            oracle=False,
            workload=workload.rebatched(CLUSTER_BATCH),
            transport="cluster",
        )
        throughput[n_shards] = report.events_per_sec
        grid[str(n_shards)] = report.to_dict()
        print(
            f"  cluster shards={n_shards} batch={CLUSTER_BATCH} "
            f"{report.events_per_sec:>12,.0f} events/s"
        )
    speedup = throughput[SHARD_COUNTS[-1]] / throughput[SHARD_COUNTS[0]]
    print(
        f"  cluster {SHARD_COUNTS[-1]} vs {SHARD_COUNTS[0]} process(es): "
        f"{speedup:.2f}x on {CPUS} usable CPU(s)"
    )
    _save(
        {
            "cluster": {
                "batch_size": CLUSTER_BATCH,
                "grid": grid,
                "speedup_4_vs_1": round(speedup, 2),
                "cpus": CPUS,
                "gated": FULL_SIZE and CPUS >= 4,
            }
        }
    )
    if FULL_SIZE and CPUS >= 4:
        assert speedup >= CLUSTER_SPEEDUP_GATE, (
            f"process-shard speedup {speedup:.2f}x at batch {CLUSTER_BATCH} fell "
            f"below the {CLUSTER_SPEEDUP_GATE}x gate on {CPUS} CPUs "
            f"(throughput: {throughput})"
        )
    else:
        # Still a bug bar even unscaled: a fleet must never be pathologically
        # slower than one worker (routing overhead is per-batch, not per-event).
        assert speedup > 0.5, (
            f"cluster fleet collapsed: {speedup:.2f}x vs one worker "
            f"(throughput: {throughput})"
        )


# ---------------------------------------------------------------------------
# Wire codec axis (JSON vs binary frames)
# ---------------------------------------------------------------------------

CODEC_BATCH = 512
# Binary frames trade CPU for bytes; the size win only needs real 512-event
# batches, but the events/sec win additionally needs cores that aren't
# already saturated time-slicing the shard fleet — same honesty rule as the
# cluster gate above.
BYTES_GATE = 0.5
CODEC_SPEEDUP_GATE = 1.3


def _codec_payloads(workload: LoadWorkload) -> list[dict]:
    """The exact request bodies the wire carries at batch ``CODEC_BATCH``."""
    payloads = []
    for batch in workload.rebatched(CODEC_BATCH).batches():
        if batch.kind == "chat":
            payloads.append(
                {
                    "messages": [codecs.chat_message_to_dict(m) for m in batch.events],
                    "persist": False,
                }
            )
        else:
            payloads.append(
                {"interactions": [codecs.interaction_to_dict(i) for i in batch.events]}
            )
    return payloads


def test_bench_codec_bytes_and_cpu(workload):
    """Micro-bench both codecs over the real wire payloads: bytes/event and
    encode/decode CPU seconds, recorded per codec in ``BENCH_load.json``.

    The ≤0.5x bytes/event gate arms at full size (tiny smoke fleets produce
    under-filled batches that compress worse); any size still has to beat
    plain JSON or the codec is pointless.
    """
    payloads = _codec_payloads(workload)
    events = sum(
        len(p.get("messages") or p.get("interactions")) for p in payloads
    )
    assert events > 0
    stats: dict[str, dict] = {}
    for codec in wire.WIRE_CODECS:
        if codec == "binary":
            encode = wire.encode_frame
            decode = wire.decode_frame
        else:
            encode = lambda value: json.dumps(value).encode("utf-8")
            decode = lambda blob: json.loads(blob.decode("utf-8"))
        t0 = time.process_time()
        blobs = [encode(p) for p in payloads]
        encode_cpu = time.process_time() - t0
        t0 = time.process_time()
        decoded = [decode(b) for b in blobs]
        decode_cpu = time.process_time() - t0
        assert decoded == [json.loads(json.dumps(p)) for p in payloads]
        total = sum(len(b) for b in blobs)
        stats[codec] = {
            "bytes_total": total,
            "bytes_per_event": round(total / events, 2),
            "encode_cpu_s": round(encode_cpu, 4),
            "decode_cpu_s": round(decode_cpu, 4),
        }
    ratio = stats["binary"]["bytes_per_event"] / stats["json"]["bytes_per_event"]
    print()
    for codec, row in stats.items():
        print(
            f"  codec={codec:<6s} {row['bytes_per_event']:>8,.1f} bytes/event "
            f"(encode {row['encode_cpu_s']:.3f}s, decode {row['decode_cpu_s']:.3f}s "
            f"over {events:,} events)"
        )
    print(f"  binary/json size ratio {ratio:.3f}x (gate ≤{BYTES_GATE}x at full size)")
    _save(
        {
            "codec_micro": {
                "batch_size": CODEC_BATCH,
                "events": events,
                "per_codec": stats,
                "bytes_ratio": round(ratio, 4),
                "gated": FULL_SIZE,
            }
        }
    )
    if FULL_SIZE:
        assert ratio <= BYTES_GATE, (
            f"binary frames are {ratio:.3f}x the JSON bytes/event — "
            f"over the {BYTES_GATE}x gate ({stats})"
        )
    else:
        assert ratio < 1.0, (
            f"binary frames are no smaller than JSON ({ratio:.3f}x) even at "
            f"smoke size ({stats})"
        )


def test_bench_codec_wire_throughput(fitted_initializer, workload):
    """End-to-end events/sec over HTTP at batch 512, JSON vs binary.

    Fingerprint equality across codecs is asserted by the tier-1 suites;
    this bench records the throughput axis. The ≥1.3x gate arms at full
    size on ≥4 usable cores (below that the wire run is CPU-starved and the
    codec swap can't show its win); the honest measurement and the
    ``gated`` flag are recorded either way.
    """
    print()
    throughput: dict[str, float] = {}
    grid: dict[str, dict] = {}
    for codec in wire.WIRE_CODECS:
        report = run_load(
            workload.spec,
            fitted_initializer,
            shards=SHARD_COUNTS[-1],
            workers=WORKERS,
            backend="memory",
            oracle=False,
            workload=workload.rebatched(CODEC_BATCH),
            transport="http",
            wire_codec=codec,
        )
        throughput[codec] = report.events_per_sec
        grid[codec] = report.to_dict()
        print(
            f"  http codec={codec:<6s} batch={CODEC_BATCH} "
            f"{report.events_per_sec:>12,.0f} events/s"
        )
    speedup = throughput["binary"] / throughput["json"]
    gated = FULL_SIZE and CPUS >= 4
    print(f"  binary vs json over http: {speedup:.2f}x on {CPUS} usable CPU(s)")
    _save(
        {
            "codec_wire": {
                "batch_size": CODEC_BATCH,
                "transport": "http",
                "grid": grid,
                "speedup_binary_vs_json": round(speedup, 2),
                "cpus": CPUS,
                "gated": gated,
            }
        }
    )
    if gated:
        assert speedup >= CODEC_SPEEDUP_GATE, (
            f"binary wire speedup {speedup:.2f}x at batch {CODEC_BATCH} fell "
            f"below the {CODEC_SPEEDUP_GATE}x gate on {CPUS} CPUs "
            f"(throughput: {throughput})"
        )
    else:
        assert speedup > 0.5, (
            f"binary wire collapsed: {speedup:.2f}x vs JSON "
            f"(throughput: {throughput})"
        )


# ---------------------------------------------------------------------------
# Online reshard axis (migration pause under live load)
# ---------------------------------------------------------------------------

RESHARD_BATCH = 64
# The per-channel migration pause is a *correctness-adjacent* latency: the
# whole point of online resharding is that only the moving channel stalls,
# and only briefly.  The cap arms under the same honesty rule as the other
# wire benches — full size on ≥4 usable cores — because a starved host
# stretches the checkpoint/export/import critical section arbitrarily.
RESHARD_PAUSE_GATE_MS = 5000.0


def test_bench_reshard_pause(fitted_initializer, workload):
    """Grow and shrink the tier mid-soak, on both transports, and record the
    per-channel migration pause p99 in the ``reshard`` axis of
    ``BENCH_load.json``.

    Byte-equality against the undisturbed sequential oracle is asserted
    unconditionally (``run_load`` replays the identical workload into a
    single-shard tier and fingerprints every channel); the pause cap arms
    only where the honest measurement can mean something.
    """
    from repro.loadgen import reshard_to

    rebatched = workload.rebatched(RESHARD_BATCH)
    reshard_after = max(2, len(rebatched.batches()) // 3)
    gated = FULL_SIZE and CPUS >= 4
    print()
    grid: dict[str, dict] = {}
    for transport in ("inproc", "cluster"):
        for old_shards, new_shards in ((2, 3), (3, 2)):
            report = run_load(
                workload.spec,
                fitted_initializer,
                shards=old_shards,
                workers=WORKERS,
                backend="memory",
                transport=transport,
                workload=rebatched,
                schedule=[(reshard_after, reshard_to(new_shards))],
            )
            (fault,) = report.faults
            key = f"{transport}:{old_shards}->{new_shards}"
            grid[key] = {
                "transport": transport,
                "backend": "memory",
                "old_shards": fault.old_shards,
                "new_shards": fault.new_shards,
                "reshard_after": fault.after,
                "total_batches": report.total_batches,
                "channels": report.channels,
                "total_events": report.total_events,
                "channels_moved": fault.channels_moved,
                "epoch": fault.epoch,
                "pause_p99_ms": round(fault.pause_p99_ms, 3),
                "divergences": list(report.divergences),
            }
            print(
                f"  reshard {key:<14s} moved {fault.channels_moved}/"
                f"{report.channels} channel(s), pause p99 "
                f"{fault.pause_p99_ms:>8,.1f} ms"
            )
            assert report.ok, f"{key}: divergences {report.divergences}"
            assert fault.new_shards == new_shards and fault.epoch > 0
    worst = max(row["pause_p99_ms"] for row in grid.values())
    print(f"  worst pause p99 {worst:,.1f} ms on {CPUS} usable CPU(s)")
    _save(
        {
            "reshard": {
                "batch_size": RESHARD_BATCH,
                "reshard_after": reshard_after,
                "grid": grid,
                "pause_p99_ms_worst": round(worst, 3),
                "cpus": CPUS,
                "gated": gated,
            }
        }
    )
    if gated:
        assert worst <= RESHARD_PAUSE_GATE_MS, (
            f"migration pause p99 {worst:,.1f} ms blew the "
            f"{RESHARD_PAUSE_GATE_MS:,.0f} ms cap (grid: {grid})"
        )


def test_bench_entries_record_honest_gating():
    """PR-6 follow-on: every core-gated BENCH entry must record the CPU
    count it actually measured on and whether its gate armed — a 1-CPU CI
    box must never write ``gated: true``."""
    if not RESULTS_PATH.exists():
        pytest.skip("no BENCH_load.json yet")
    signature = (
        f"channels{CHANNELS}-viewers{VIEWERS}-duration{int(DURATION)}-workers{WORKERS}"
    )
    entry = json.loads(RESULTS_PATH.read_text())["load_scaling"].get(signature)
    if entry is None:
        pytest.skip("no entry for this size signature yet")
    core_gated = FULL_SIZE and CPUS >= 4
    for key, expect_gated in (
        ("cluster", core_gated),
        ("codec_wire", core_gated),
        ("codec_micro", FULL_SIZE),
        ("reshard", core_gated),
    ):
        section = entry.get(key)
        if section is None:
            continue
        if "cpus" in section:
            assert section["cpus"] == CPUS, (key, section["cpus"], CPUS)
        assert section["gated"] == expect_gated, (key, section["gated"], expect_gated)


def test_bench_cluster_oracle_spot_check(fitted_initializer, workload):
    """The concurrent multi-process run must match the sequential oracle —
    the same byte-equivalence bar the in-process tier is held to."""
    report = run_load(
        workload.spec,
        fitted_initializer,
        shards=SHARD_COUNTS[-1],
        workers=WORKERS,
        backend="memory",
        oracle=True,
        workload=workload.rebatched(64),
        transport="cluster",
    )
    print()
    print(report.describe())
    _save(
        {
            "cluster_oracle": {
                "channels": len(report.outcomes),
                "divergences": report.divergences,
            }
        }
    )
    assert report.oracle_checked and report.transport == "cluster"
    assert report.divergences == [], f"oracle divergences: {report.divergences}"
