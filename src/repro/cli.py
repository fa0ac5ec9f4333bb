"""Command-line interface: ``lightor`` / ``python -m repro``.

Sub-commands:

* ``lightor list`` — list the reproducible paper artifacts.
* ``lightor run fig7 --scale small`` — run one experiment and print its report.
* ``lightor run-all --scale small`` — run every experiment in sequence.
* ``lightor demo`` — train on one synthetic video and extract highlights from
  another, printing the progress bar with red dots.
* ``lightor stream`` — replay synthetic live channels through the streaming
  engine, printing provisional dot emissions/retractions and the final
  batch-parity check.
* ``lightor load`` — synthesize a multi-channel load-test workload (Zipf
  channel popularity, chat + viewer-play firehoses) and drive it through the
  sharded service tier with a worker pool, reporting throughput, latency
  percentiles and the single-shard oracle spot-check.  With
  ``--kill-after N --recover`` the run becomes a chaos test: the tier is
  killed mid-run, rebuilt from its durable checkpoints, and the finished
  run is compared byte-for-byte against an uninterrupted one.
  ``--reshard-at N --reshard-to M`` reshards the tier online; both faults
  can be scheduled in one run.
* ``lightor recover`` — rebuild the live sessions a crashed (or killed)
  ``lightor stream``/``lightor load`` run left checkpointed in its SQLite
  databases, report them, and optionally finalize them.
* ``lightor reshard`` — change the shard count of a durable deployment
  offline: channels (rows and checkpointed sessions) are migrated between
  shard files along the minimal placement plan, and the shard markers are
  rewritten so the deployment reopens at the new count.  ``lightor load
  --reshard-at N --reshard-to M`` is the *online* twin: the tier grows or
  shrinks mid-run while unmoved channels keep serving.
* ``lightor serve`` — serve the sharded tier over HTTP: a stdlib threaded
  JSON gateway exposing the full service surface with per-request
  validation, bounded admission control and a graceful SIGTERM drain that
  checkpoints every open live session (``lightor recover`` resumes a
  drained durable deployment byte-exactly).
* ``lightor cluster`` — run N shard *worker processes* (each one a
  ``serve --shards 1`` gateway on its own port and database) under a
  supervisor: boot is health-checked, a worker dying fails the deployment,
  and SIGTERM drains the whole fleet so durable shards stay recoverable.
"""

from __future__ import annotations

import argparse
import sys

from repro.utils.logging import configure_logging

__all__ = ["main", "build_parser"]


# The tier flags, declared once: ``dest -> (argparse options, help, what a
# ``None`` default means)``.  Each subcommand adds the ones it takes with
# its own defaults (:func:`_tier_flags`); their values build one
# :class:`~repro.platform.tier.TierSpec`, which refuses bad combinations.
_TIER_FLAGS = {
    "shards": (
        {"type": int},
        "shard count of the tier: channels are consistent-hashed across this "
        "many shards (worker processes on a cluster); in-process shards are a "
        "test topology, not a throughput option, see docs/performance.md",
        None,
    ),
    "backend": (
        {"choices": ("memory", "sqlite")}, "storage backend behind the service tier", None,
    ),
    "db_path": (
        {},
        "SQLite database path (sqlite backend); shard K uses base.shardK.db",
        "in-memory databases",
    ),
    "checkpoint_every": (
        {"type": int},
        "durable session-checkpoint cadence in persisted events; load applies it "
        "in chaos mode only",
        "500 on the sqlite backend, disabled on memory",
    ),
    "k": ({"type": int}, "provisional top-k per live channel", "the engine default"),
    "max_live_sessions": (
        {"type": int}, "LRU budget of concurrently open live sessions per shard", None,
    ),
    "max_pending": (
        {"type": int},
        "gateway admission budget (per worker on a cluster): requests in flight "
        "beyond this are refused with 503 instead of queued",
        None,
    ),
    "worker_threads": (
        {"type": int}, "service calls a gateway (each worker's, on a cluster) may run at once",
        None,
    ),
    "max_pending_per_channel": (
        {"type": int},
        "per-channel gateway admission budget on the wire: one channel's requests "
        "in flight beyond this are refused with 503 while the rest of the budget "
        "stays available to other channels",
        "disabled",
    ),
    "transport": (
        {"choices": ("inproc", "http", "cluster")},
        "how the drivers reach the tier: direct calls, over the wire through an "
        "in-process HTTP gateway, or through a supervised fleet of shard worker "
        "processes",
        None,
    ),
    "wire_codec": (
        {"choices": ("json", "binary")},
        "wire codec on http/cluster: what driver clients send, and what a gateway "
        "answers a client with no Accept preference; fingerprints must match the "
        "JSON run byte-for-byte",
        None,
    ),
    "workers": ({"type": int}, "driver worker threads", None),
}
_REQUIRED = object()


def _tier_flags(parser: argparse.ArgumentParser, **defaults) -> None:
    """Declare the tier flags named in ``defaults``, each with its default
    on this subcommand (``_REQUIRED`` for a flag that must be given)."""
    for dest, default in defaults.items():
        options, text, unset = _TIER_FLAGS[dest]
        flag = "--" + dest.replace("_", "-")
        if default is _REQUIRED:
            parser.add_argument(flag, required=True, help=text, **options)
        else:
            shown = unset if default is None else "%(default)s"
            parser.add_argument(flag, default=default, help=f"{text} (default: {shown})", **options)


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser for the ``lightor`` CLI."""
    parser = argparse.ArgumentParser(
        prog="lightor",
        description="LIGHTOR reproduction: implicit-crowdsourcing highlight extraction",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="enable info logging")
    subparsers = parser.add_subparsers(dest="command")

    subparsers.add_parser("list", help="list reproducible paper artifacts")

    run_parser = subparsers.add_parser("run", help="run one experiment")
    run_parser.add_argument("experiment", help="experiment id, e.g. fig7 or table1")
    run_parser.add_argument(
        "--scale", default="small", choices=("small", "medium", "paper"),
        help="evaluation scale (default: small)",
    )

    run_all_parser = subparsers.add_parser("run-all", help="run every experiment")
    run_all_parser.add_argument(
        "--scale", default="small", choices=("small", "medium", "paper"),
        help="evaluation scale (default: small)",
    )

    demo_parser = subparsers.add_parser("demo", help="end-to-end demo on synthetic videos")
    demo_parser.add_argument("--k", type=int, default=5, help="number of highlights to extract")
    demo_parser.add_argument("--seed", type=int, default=2020, help="dataset seed")

    seed_help = (
        "dataset seed the serving model is trained from (retrained "
        "deterministically on every start; default: 2020)"
    )

    stream_parser = subparsers.add_parser(
        "stream", help="run the streaming engine over simulated live channels"
    )
    stream_parser.add_argument(
        "--channels", type=int, default=2, help="number of concurrent live channels"
    )
    stream_parser.add_argument("--seed", type=int, default=2020, help="dataset seed")
    stream_parser.add_argument(
        "--emit-every-messages", type=int, default=50,
        help="re-evaluate the provisional dots after this many messages",
    )
    stream_parser.add_argument(
        "--emit-every-seconds", type=float, default=30.0,
        help="re-evaluate when stream time advanced this far",
    )
    stream_parser.add_argument(
        "--quiet", action="store_true", help="suppress per-event output"
    )
    stream_parser.add_argument(
        "--resume", action="store_true",
        help="rebuild live sessions from the checkpoints a previous killed run "
        "left in the database and continue streaming where it stopped "
        "(requires --backend sqlite --db-path)",
    )
    _tier_flags(
        stream_parser, k=5, backend="memory", db_path=None, shards=1, checkpoint_every=None
    )

    recover_parser = subparsers.add_parser(
        "recover",
        help="rebuild live sessions from the durable checkpoints in a database",
    )
    recover_parser.add_argument("--seed", type=int, default=2020, help=seed_help)
    recover_parser.add_argument(
        "--end", action="store_true",
        help="finalize every recovered session: persist its final red dots and "
        "delete its checkpoint (default: report and re-checkpoint only)",
    )
    _tier_flags(recover_parser, db_path=_REQUIRED, shards=1)

    serve_parser = subparsers.add_parser(
        "serve",
        help="serve the sharded tier over a threaded HTTP/1.1 JSON gateway",
    )
    serve_parser.add_argument(
        "--host", default="127.0.0.1", help="bind address (default: 127.0.0.1)"
    )
    serve_parser.add_argument(
        "--port", type=int, default=8765,
        help="bind port; 0 picks an ephemeral port (default: 8765)",
    )
    serve_parser.add_argument("--seed", type=int, default=2020, help=seed_help)
    serve_parser.add_argument(
        "--shard-index", type=int, default=None,
        help="this gateway's shard index in a multi-worker cluster: once the "
        "supervisor pushes a placement map, channels owned elsewhere are "
        "refused with a 409 redirect (default: standalone, no redirects)",
    )
    serving = dict(
        backend="memory", db_path=None, checkpoint_every=None, k=None,
        max_live_sessions=64, max_pending=64, worker_threads=8,
        max_pending_per_channel=None, wire_codec="json",
    )
    _tier_flags(serve_parser, shards=1, **serving)

    cluster_parser = subparsers.add_parser(
        "cluster",
        help="run N shard worker processes (one `serve --shards 1` each) "
        "under a supervisor",
    )
    cluster_parser.add_argument(
        "--host", default="127.0.0.1", help="bind address (default: 127.0.0.1)"
    )
    cluster_parser.add_argument(
        "--base-port", type=int, default=8765,
        help="worker K binds base-port + K; 0 gives every worker an "
        "ephemeral port (default: 8765)",
    )
    cluster_parser.add_argument("--seed", type=int, default=2020, help=seed_help)
    cluster_parser.add_argument(
        "--boot-timeout", type=float, default=60.0,
        help="seconds the whole cluster gets to become healthy (default: 60)",
    )
    _tier_flags(cluster_parser, shards=2, **serving)

    load_parser = subparsers.add_parser(
        "load",
        help="generate multi-channel load against the sharded service tier",
    )
    load_parser.add_argument(
        "--channels", type=int, default=8, help="live channels in the fleet (default: 8)"
    )
    load_parser.add_argument(
        "--viewers", type=int, default=400,
        help="total concurrent viewers, Zipf-split across channels (default: 400)",
    )
    load_parser.add_argument(
        "--duration", type=float, default=3600.0,
        help="per-channel stream length cap in seconds (default: 3600)",
    )
    load_parser.add_argument(
        "--batch-size", type=int, default=64,
        help="events per ingest batch; 1 reproduces per-event traffic (default: 64)",
    )
    load_parser.add_argument(
        "--zipf", type=float, default=1.0,
        help="channel-popularity skew exponent; 0 = uniform fleet (default: 1.0)",
    )
    load_parser.add_argument("--seed", type=int, default=2020, help="workload seed")
    load_parser.add_argument(
        "--stretch", action="store_true",
        help="soak mode: stretch every channel to the full --duration (marathon reruns)",
    )
    load_parser.add_argument(
        "--no-oracle", action="store_true",
        help="skip the sequential single-shard oracle spot-check (pure timing run)",
    )
    load_parser.add_argument(
        "--smoke", action="store_true",
        help="tiny fixed workload for CI: overrides the sizing flags",
    )
    load_parser.add_argument(
        "--kill-after", type=int, default=None, metavar="N",
        help="chaos mode: kill the service tier after N ingest batches "
        "(requires --recover and --backend sqlite --db-path; transports "
        "inproc and http; combines with --reshard-at)",
    )
    load_parser.add_argument(
        "--recover", action="store_true",
        help="chaos mode: rebuild the killed tier from its checkpoints, finish "
        "the run, and verify byte-equivalence with an uninterrupted run",
    )
    load_parser.add_argument(
        "--scenario", default=None, metavar="NAME",
        help="drive an adversarial scenario instead of the steady fleet: "
        "flash-crowd, chat-flood, reconnect-storm or fairness; each ships "
        "with its own oracle (non-zero exit on any divergence)",
    )
    load_parser.add_argument(
        "--scenario-surge-factor", type=int, default=None, metavar="N",
        help="flash-crowd severity: head-channel viewership multiplier "
        "(default: 20; requires --scenario)",
    )
    load_parser.add_argument(
        "--scenario-flood-factor", type=int, default=None, metavar="N",
        help="chat-flood severity: spam messages per organic chat message "
        "(default: 4; requires --scenario)",
    )
    load_parser.add_argument(
        "--scenario-outage-start", type=float, default=None, metavar="FRAC",
        help="reconnect-storm: outage window start as a fraction of the run "
        "(default: 0.35; requires --scenario)",
    )
    load_parser.add_argument(
        "--scenario-outage-length", type=float, default=None, metavar="FRAC",
        help="reconnect-storm: outage window length as a fraction of the run "
        "(default: 0.25; requires --scenario)",
    )
    load_parser.add_argument(
        "--record", default=None, metavar="PATH",
        help="record the driven workload (every batch, every event, the "
        "run's end-state fingerprints) to a versioned trace file",
    )
    load_parser.add_argument(
        "--replay", default=None, metavar="PATH",
        help="replay a recorded trace byte-exactly instead of synthesising a "
        "workload; the replayed fingerprints must equal the recording's on "
        "any transport, codec, shard and worker count (non-zero exit "
        "otherwise)",
    )
    load_parser.add_argument(
        "--reshard-at", type=int, default=None, metavar="N",
        help="chaos mode: reshard the tier online after N ingest batches "
        "(0 = before the first), while the rest of the pool keeps driving "
        "traffic (requires --reshard-to)",
    )
    load_parser.add_argument(
        "--reshard-to", type=int, default=None, metavar="M",
        help="chaos mode: target shard count of the online reshard (grow or "
        "shrink); the finished run must be byte-identical to an undisturbed "
        "run (non-zero exit otherwise)",
    )
    _tier_flags(
        load_parser, shards=2, backend="memory", db_path=None, workers=4,
        transport="inproc", wire_codec="json", checkpoint_every=256,
        max_pending_per_channel=None,
    )

    reshard_parser = subparsers.add_parser(
        "reshard",
        help="reshard a durable sqlite deployment offline "
        "(move channels between shard files)",
    )
    reshard_parser.add_argument(
        "--to", type=int, required=True,
        help="target shard count (grow or shrink)",
    )
    reshard_parser.add_argument("--seed", type=int, default=2020, help=seed_help)
    _tier_flags(reshard_parser, db_path=_REQUIRED, shards=_REQUIRED)

    lint_parser = subparsers.add_parser(
        "lint",
        help="run lintor, the repo-aware static analyzer (rules R002-R006)",
        description="Statically check the repo's concurrency, wire and "
        "error contracts: guarded-by lock discipline (R002), strict JSON "
        "(R003), typed errors (R004), resource safety (R005) and frame "
        "versioning (R006). docs/static_analysis.md documents the catalogue.",
    )
    lint_parser.add_argument(
        "paths", nargs="*", default=[],
        help="files or directories to analyze (default: src/repro)",
    )
    lint_parser.add_argument(
        "--baseline", default=None, metavar="PATH",
        help="compare against a committed baseline: any finding not in it "
        "fails the run (new violation), any entry it carries that no longer "
        "reproduces fails the run (stale baseline)",
    )
    lint_parser.add_argument(
        "--write-baseline", default=None, metavar="PATH",
        help="write the findings as the new baseline; refuses to *grow* an "
        "existing baseline (fix or pragma new findings instead)",
    )
    lint_parser.add_argument(
        "--rules", action="store_true",
        help="print the rule catalogue and exit",
    )
    return parser


def _command_list() -> int:
    from repro.experiments import EXPERIMENTS

    for experiment_id, spec in sorted(EXPERIMENTS.items()):
        print(f"{experiment_id:10s} {spec.paper_artifact:10s} {spec.description}")
    return 0


def _command_run(experiment: str, scale: str) -> int:
    from repro.experiments import run_experiment

    _, text = run_experiment(experiment, scale=scale)
    print(text)
    return 0


def _command_run_all(scale: str) -> int:
    from repro.experiments import EXPERIMENTS, run_experiment

    for experiment_id in sorted(EXPERIMENTS):
        _, text = run_experiment(experiment_id, scale=scale)
        print(text)
        print()
    return 0


def _command_demo(k: int, seed: int) -> int:
    from repro import LightorConfig, LightorPipeline
    from repro.datasets import DatasetSpec, build_dataset
    from repro.platform.extension import ProgressBarView
    from repro.simulation import CrowdSimulator
    from repro.utils.rng import SeedSequenceFactory

    dataset = build_dataset(DatasetSpec.dota2(size=3, seed=seed))
    train, target = dataset[0], dataset[1]

    pipeline = LightorPipeline(LightorConfig())
    pipeline.fit([train.training_pair])
    print(
        f"trained on {train.video.video_id} in {pipeline.training_seconds_:.2f}s; "
        f"learned chat delay c = {pipeline.initializer.model.adjustment_constant:.1f}s"
    )

    crowd = CrowdSimulator(seeds=SeedSequenceFactory(seed + 1))
    result = pipeline.run(target.chat_log, crowd.interaction_source(target.video), k=k)

    bar = ProgressBarView(
        video_id=target.video.video_id,
        duration=target.video.duration,
        dot_positions=tuple(dot.position for dot in result.red_dots),
    )
    print(f"video {target.video.video_id} ({target.video.duration:.0f}s) red dots:")
    print(bar.render())
    print("extracted highlights (start - end):")
    for highlight in result.highlights:
        print(f"  {highlight.start:8.1f}s - {highlight.end:8.1f}s")
    print("ground truth highlights:")
    for highlight in target.highlights:
        print(f"  {highlight.start:8.1f}s - {highlight.end:8.1f}s")
    return 0


def _tier_spec(args, failure: str = "", **fields):
    """The command's :class:`~repro.platform.tier.TierSpec` from its tier
    flags plus ``fields``, or ``None`` after printing why it is refused."""
    from dataclasses import fields as spec_fields

    from repro.platform.tier import TierSpec
    from repro.utils.validation import ValidationError

    given = {f.name: getattr(args, f.name) for f in spec_fields(TierSpec) if hasattr(args, f.name)}
    try:
        return TierSpec(**{**given, **fields})
    except ValidationError as error:
        print(f"{failure}{error}", flush=True)
        return None


def _open_tier(spec, model=None, *, seed: int = 2020, **options):
    """:func:`~repro.platform.tier.open_tier`, or ``None`` after printing
    why the tier cannot be built."""
    import sqlite3

    from repro.platform.tier import open_tier
    from repro.utils.validation import ValidationError

    try:
        return open_tier(spec, model, seed=seed, **options)
    except (ValidationError, sqlite3.Error) as error:
        print(f"cannot build the service tier: {error}", flush=True)
        return None


def _command_stream(args) -> int:
    import time

    from repro.datasets import DatasetSpec, build_dataset
    from repro.eval.parity import compare_red_dots
    from repro.platform.tier import serving_model
    from repro.simulation.chat import interleave_live
    from repro.streaming import DotEmitted, DotRetracted, EmitPolicy
    from repro.utils.validation import ValidationError

    if args.channels < 1:
        print("--channels must be at least 1", flush=True)
        return 1
    # Every channel must stay live until its parity check at the end, so
    # the LRU bound is sized to the run instead of the default.
    spec = _tier_spec(args, max_live_sessions=args.channels)
    if spec is None:
        return 1
    if args.resume and not spec.durable:
        print("--resume requires --backend sqlite --db-path", flush=True)
        return 1
    try:
        policy = EmitPolicy(
            eval_every_messages=args.emit_every_messages,
            eval_every_seconds=args.emit_every_seconds,
        )
    except ValidationError as error:
        print(f"invalid emit policy: {error}", flush=True)
        return 1

    dataset = build_dataset(DatasetSpec.dota2(size=args.channels + 1, seed=args.seed))
    train, targets = dataset[0], dataset[1 : args.channels + 1]
    initializer = serving_model(args.seed)  # trained on dataset[0]
    tier = _open_tier(spec, initializer, live_policy=policy)
    if tier is None:
        return 1
    service = tier.service
    where = spec.backend if spec.db_path is None else f"{spec.backend} at {spec.db_path}"
    print(
        f"trained on {train.video.video_id}; serving {len(targets)} live "
        f"channel(s) across {spec.shards} shard(s) on the {where} backend"
    )

    logs = {t.video.video_id: t.chat_log for t in targets}
    # On the sqlite backend chat is persisted and sessions are checkpointed,
    # so a killed run can be continued with --resume; a normal exit
    # (including the parity check below) finalizes every session and deletes
    # its checkpoint.  Persisted ingest is chunked so the durable path pays
    # one storage transaction per chunk, not per message (the provisional
    # emit/retract cadence coalesces to chunk boundaries; the final dots are
    # chunking-independent — see docs/performance.md).
    persist = spec.backend == "sqlite"
    chunk_size = 64 if persist else 1

    def print_events(video_id: str, events) -> None:
        for event in events:
            if args.quiet:
                continue
            if isinstance(event, DotEmitted):
                verb, dot = "emit   ", event.dot
            elif isinstance(event, DotRetracted):
                verb, dot = "retract", event.dot
            else:
                continue
            print(
                f"  t={event.stream_time:8.1f}s {video_id} {verb} "
                f"dot @ {dot.position:8.1f}s (score {dot.score:.3f})"
            )

    with tier:
        try:
            skip_remaining: dict[str, int] = {}
            if args.resume:
                recovered = service.recover_live_sessions()
                if recovered:
                    for report in recovered:
                        print(f"  resumed {report.describe()}")
                    skip_remaining = {
                        report.video_id: report.messages_ingested for report in recovered
                    }
                else:
                    print("no checkpointed sessions to resume; starting fresh")
            for target in targets:
                service.start_live(target.video)
            n_messages = 0
            pending: dict[str, list] = {}
            started = time.perf_counter()
            for video_id, message in interleave_live(list(logs.values())):
                if skip_remaining.get(video_id, 0) > 0:
                    skip_remaining[video_id] -= 1
                    continue
                n_messages += 1
                buffer = pending.setdefault(video_id, [])
                buffer.append(message)
                if len(buffer) >= chunk_size:
                    print_events(
                        video_id,
                        service.ingest_chat_batch(video_id, pending.pop(video_id), persist=persist),
                    )
            for video_id, buffer in sorted(pending.items()):
                print_events(
                    video_id, service.ingest_chat_batch(video_id, buffer, persist=persist)
                )
            elapsed = time.perf_counter() - started
            rate = n_messages / elapsed if elapsed > 0 else float("inf")
            print(f"ingested {n_messages} messages across {len(targets)} channel(s) "
                  f"in {elapsed:.2f}s ({rate:,.0f} msg/s)")

            exit_code = 0
            for video_id, chat_log in logs.items():
                streamed = service.end_live(video_id, chat_log.video.duration)
                batch = initializer.propose(chat_log, k=args.k)
                report = compare_red_dots(batch, streamed)
                shard = service.shard_index(video_id)
                persisted = len(service.get_red_dots(video_id))
                print(
                    f"{video_id} [shard {shard}]: {len(streamed)} final dots "
                    f"({persisted} persisted); batch {report.describe()}"
                )
                if not report.ok or persisted != len(streamed):
                    exit_code = 1
            stats = service.stats()
            print(
                f"store totals: {stats['videos']} videos, {stats['red_dots']} red dots, "
                f"{stats['highlight_records']} highlight records"
            )
            if spec.db_path is not None:
                print(f"results persisted durably in: {', '.join(service.db_paths())}")
        except KeyboardInterrupt:
            if not spec.durable:
                return 130
            # Treat the interrupt like a crash: leave every session's durable
            # checkpoint in place so the run can be continued.
            tier.release()
            print(
                "interrupted — live sessions left checkpointed; continue with "
                f"the same flags plus --resume (db: {spec.db_path})"
            )
            return 130
    return exit_code


def _command_recover(args) -> int:
    from repro.utils.validation import ValidationError

    spec = _tier_spec(args, backend="sqlite")
    tier = spec and _open_tier(spec, seed=args.seed)
    if tier is None:
        return 1
    service = tier.service
    finalized = False
    with tier:
        try:
            # recover_live_sessions raises the LRU budget while it runs, but
            # the recovered sessions must stay live afterwards for --end to
            # close them at the stored durations — so size the budget to the
            # fleet.
            for shard in service.shards:
                shard.max_live_sessions = max(
                    shard.max_live_sessions, len(shard.store.get_session_snapshots())
                )
            recovered = service.recover_live_sessions()
            if not recovered:
                print("no checkpointed live sessions found")
                return 0
            print(f"recovered {len(recovered)} live session(s):")
            for report in recovered:
                print(f"  {report.describe()}")
            if not args.end:
                print("sessions re-checkpointed; rerun with --end to finalize them")
                return 0
            for report in recovered:
                # Finalize at the stored video duration — the same closing
                # point a normal end_live uses — so the final window set and
                # play clamping match an uninterrupted run; fall back to the
                # last chat timestamp if the stored duration is stale
                # (shorter than the chat already observed).
                duration = service.store_for(report.video_id).get_video(
                    report.video_id
                ).duration
                try:
                    dots = service.end_live(report.video_id, duration)
                except ValidationError:
                    dots = service.end_live(report.video_id)
                print(f"  {report.video_id}: finalized with {len(dots)} red dot(s)")
            print("checkpoints deleted; final red dots persisted")
            finalized = True
        finally:
            if not finalized:
                # Without --end the sessions stay recoverable: release the
                # file handles only — a full close would finalize every
                # session and delete the checkpoints we just reported.
                tier.release()
    return 0


def _command_reshard(args) -> int:
    import sqlite3

    from repro.utils.validation import ValidationError

    if args.to < 1:
        print("--to must be at least 1", flush=True)
        return 1
    spec = _tier_spec(args, backend="sqlite")
    tier = spec and _open_tier(spec, seed=args.seed)
    if tier is None:
        return 1
    with tier:
        try:
            report = tier.service.reshard(args.to)
        except (ValidationError, sqlite3.Error) as error:
            print(f"reshard failed: {error}", flush=True)
            return 1
        finally:
            # Release only — no finalize: any checkpointed sessions moved with
            # their channels and must stay recoverable on the new layout.
            tier.release()
    print(
        f"resharded {report.old_n_shards} -> {report.new_n_shards} shard(s): "
        f"{report.moved} channel(s) moved, placement epoch {report.epoch}"
    )
    print(
        f"resume with: repro recover --db-path {args.db_path} "
        f"--shards {args.to} --seed {args.seed}"
    )
    return 0


def _command_serve(args) -> int:
    import signal
    import threading

    from repro.platform.server import LightorGateway

    if args.port < 0:
        print("--port must be non-negative", flush=True)
        return 1
    if args.shard_index is not None and args.shard_index < 0:
        print("--shard-index must be non-negative", flush=True)
        return 1
    spec = _tier_spec(args, transport="http")
    tier = spec and _open_tier(spec, seed=args.seed)
    if tier is None:
        return 1
    with tier:
        gateway = LightorGateway(
            tier.service,
            host=args.host,
            port=args.port,
            max_pending=spec.max_pending,
            worker_threads=spec.worker_threads,
            wire_codec=spec.wire_codec,
            max_pending_per_channel=spec.max_pending_per_channel,
            shard_index=args.shard_index,
        )
        try:
            gateway.start()
        except OSError as error:
            print(f"cannot bind {args.host}:{args.port}: {error}", flush=True)
            return 1
        stop = threading.Event()
        handlers = {
            signum: signal.signal(signum, lambda *_: stop.set())
            for signum in (signal.SIGTERM, signal.SIGINT)
        }
        # Machine-readable readiness line, printed after the bind (so a --port 0
        # ephemeral port is resolved) and before anything else: the cluster
        # supervisor and scripted callers parse exactly this.
        print(f"listening on {gateway.host}:{gateway.port}", flush=True)
        print(
            f"serving {spec.shards} shard(s) on {gateway.address} "
            f"({spec.backend} backend; SIGTERM drains gracefully)",
            flush=True,
        )
        try:
            stop.wait()
        finally:
            for signum, handler in handlers.items():
                signal.signal(signum, handler)
        print("drain requested; finishing in-flight requests ...", flush=True)
        gateway.drain()

        if spec.durable:
            # Checkpoint-and-release: the sessions stay recoverable, so the
            # deployment resumes byte-exactly via `repro recover`.
            checkpointed = tier.release(checkpoint=True)
            print(
                f"drained; {checkpointed} live session(s) checkpointed — resume with: "
                f"repro recover --db-path {args.db_path} --shards {args.shards} "
                f"--seed {args.seed}",
                flush=True,
            )
            return 0
    # Nothing durable to resume from: closing the tier finalized every open
    # session so the results at least persist through the eviction callbacks.
    print("drained; live sessions finalized (memory backend)", flush=True)
    return 0


def _command_cluster(args) -> int:
    import signal
    import threading

    from repro.platform.tier import open_tier
    from repro.utils.validation import ValidationError

    spec = _tier_spec(args, "invalid cluster: ", transport="cluster")
    if spec is None:
        return 1
    try:
        tier = open_tier(
            spec, seed=args.seed, host=args.host, base_port=args.base_port,
            boot_timeout=args.boot_timeout,
        )
    except (ValidationError, RuntimeError, OSError) as error:
        print(f"cluster failed to boot: {error}", flush=True)
        return 1
    supervisor = tier.supervisor

    for worker in supervisor.workers:
        # One machine-readable line per worker, mirroring `serve`'s own.
        print(f"shard {worker.index} listening on {worker.host}:{worker.port}", flush=True)
    print(
        f"cluster up: {spec.shards} shard worker(s) "
        f"({spec.backend} backend; SIGTERM stops the fleet gracefully)",
        flush=True,
    )

    stop = threading.Event()
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            signal.signal(signum, lambda *_: stop.set())
        except ValueError:  # pragma: no cover - non-main-thread embedding
            pass

    # Supervise: a worker dying underneath the front door fails the
    # deployment — stop the survivors and exit non-zero.
    while not stop.wait(0.5):
        dead = supervisor.dead_shards()
        if dead:
            print(
                "shard worker(s) died: " + ", ".join(str(index) for index in dead),
                flush=True,
            )
            for index in dead:
                print(supervisor.workers[index].log_tail(), flush=True)
            tier.close()
            return 1

    print("stopping cluster; draining shard workers ...", flush=True)
    tier.service.close()
    codes = supervisor.stop()
    if spec.durable:
        print(
            "workers drained and checkpointed — resume shard K with: "
            f"repro recover --db-path <{spec.db_path} shard-suffixed for K> --shards 1 "
            f"--seed {args.seed}",
            flush=True,
        )
    if any(code != 0 for code in codes):
        print(f"worker exit codes: {codes}", flush=True)
        return 1
    print("cluster stopped; all workers exited cleanly", flush=True)
    return 0


def _record_trace(path: str, workload, report) -> None:
    """Write the driven workload + its run's fingerprints to a trace file."""
    from repro.loadgen.trace import write_trace

    written = write_trace(
        path,
        workload,
        fingerprints={
            video_id: outcome.fingerprint
            for video_id, outcome in report.outcomes.items()
        },
        transport=report.transport,
        wire_codec=report.wire_codec,
        shards=report.shards,
    )
    print(
        f"recorded trace: {path} ({written:,} bytes, "
        f"{len(report.outcomes)} channel fingerprint(s))",
        flush=True,
    )


def _command_load(args) -> int:
    import sqlite3

    from repro.loadgen import KILL, WorkloadSpec, reshard_to, run_load
    from repro.platform.tier import serving_model
    from repro.utils.validation import ValidationError

    if (args.kill_after is not None) != args.recover:
        print("--kill-after and --recover must be used together", flush=True)
        return 1
    if (args.reshard_at is None) != (args.reshard_to is None):
        print("--reshard-at and --reshard-to must be used together", flush=True)
        return 1
    schedule = []
    if args.kill_after is not None:
        schedule.append((args.kill_after, KILL))
    if args.reshard_at is not None:
        try:
            schedule.append((args.reshard_at, reshard_to(args.reshard_to)))
        except ValidationError as error:
            print(f"--reshard-to: {error}", flush=True)
            return 1
    if schedule and (args.scenario or args.record or args.replay):
        print(
            "chaos mode cannot be combined with --scenario/--record/--replay",
            flush=True,
        )
        return 1
    if args.replay and (args.scenario or args.record):
        print(
            "--replay drives a recorded workload; --scenario and --record "
            "do not apply",
            flush=True,
        )
        return 1
    what = "kill/recover" if args.kill_after is not None else "reshard" if schedule else "load"
    tier = _tier_spec(
        args, f"{what} run failed: ",
        workers=2 if args.smoke else args.workers, kill=args.kill_after is not None,
    )
    if tier is None:
        return 1
    knob_overrides = {
        name: value
        for name, value in (
            ("surge_factor", args.scenario_surge_factor),
            ("flood_factor", args.scenario_flood_factor),
            ("outage_start_frac", args.scenario_outage_start),
            ("outage_length_frac", args.scenario_outage_length),
        )
        if value is not None
    }
    if knob_overrides and args.scenario is None:
        print("--scenario-* severity flags require --scenario", flush=True)
        return 1
    knobs = None
    if knob_overrides:
        from repro.loadgen.scenarios import ScenarioKnobs

        try:
            knobs = ScenarioKnobs(**knob_overrides)
        except ValidationError as error:
            print(f"invalid scenario knobs: {error}", flush=True)
            return 1
    if args.smoke:
        spec_kwargs = dict(
            channels=3, viewers=60, duration=1200.0, batch_size=64, seed=args.seed
        )
    else:
        spec_kwargs = dict(
            channels=args.channels,
            viewers=args.viewers,
            duration=args.duration,
            batch_size=args.batch_size,
            zipf_exponent=args.zipf,
            seed=args.seed,
            stretch=args.stretch,
        )

    if args.replay:
        from repro.loadgen.trace import TraceFormatError, read_trace, replay_trace

        try:
            trace = read_trace(args.replay)
        except (TraceFormatError, OSError) as error:
            print(f"cannot read trace {args.replay}: {error}", flush=True)
            return 1
        print(
            f"replaying {args.replay}: {len(trace.batches)} batch(es), "
            f"{trace.total_events:,} event(s) over {len(trace.plans)} channel(s) "
            f"(recorded on transport {trace.transport}, codec {trace.wire_codec})",
            flush=True,
        )
        try:
            # The recording's model is a deterministic function of its spec
            # seed — retrain from *that*, so replay fingerprints can match
            # whatever --seed this invocation carries.
            result = replay_trace(
                trace, serving_model(trace.spec.seed), tier=tier, oracle=not args.no_oracle
            )
        except (ValidationError, sqlite3.Error) as error:
            print(f"replay failed: {error}", flush=True)
            return 1
        print(result.describe())
        return 0 if result.ok and not result.report.divergences else 1

    try:
        spec = WorkloadSpec(**spec_kwargs)
    except ValidationError as error:
        print(f"invalid workload: {error}", flush=True)
        return 1

    initializer = serving_model(args.seed)

    if args.scenario is not None:
        from repro.loadgen.scenarios import SCENARIOS, run_scenario

        if args.scenario not in SCENARIOS:
            print(
                f"unknown scenario {args.scenario!r} "
                f"(expected one of {', '.join(sorted(SCENARIOS))})",
                flush=True,
            )
            return 1
        try:
            scenario_report = run_scenario(
                args.scenario, spec, initializer, tier=tier,
                oracle=not args.no_oracle, knobs=knobs,
            )
        except (ValidationError, sqlite3.Error) as error:
            print(f"scenario run failed: {error}", flush=True)
            return 1
        if args.record:
            _record_trace(args.record, scenario_report.workload, scenario_report.report)
        print(scenario_report.describe())
        return 0 if scenario_report.ok else 1

    workload = None
    if args.record:
        from repro.loadgen import LoadWorkload

        workload = LoadWorkload.from_spec(spec)
    try:
        report = run_load(
            spec,
            initializer,
            tier=tier,
            oracle=not args.no_oracle,
            workload=workload,
            schedule=schedule,
        )
    except (ValidationError, sqlite3.Error) as error:
        print(f"{what} run failed: {error}", flush=True)
        return 1
    if args.record:
        _record_trace(args.record, workload, report)
    print(report.describe())
    return 0 if report.ok else 1


def _command_lint(args) -> int:
    from pathlib import Path

    from repro.analysis import (
        RULE_DOCS,
        analyze_paths,
        compare_to_baseline,
        load_baseline,
        write_baseline,
    )
    from repro.utils.validation import ValidationError

    if args.rules:
        for code, doc in sorted(RULE_DOCS.items()):
            print(f"{code}  {doc}")
        return 0

    root = Path.cwd()
    paths = [Path(p) for p in args.paths] if args.paths else [root / "src" / "repro"]
    missing = [str(p) for p in paths if not p.exists()]
    if missing:
        print(f"no such path(s): {', '.join(missing)}", flush=True)
        return 1
    findings = analyze_paths(paths, root)

    if args.write_baseline:
        try:
            write_baseline(Path(args.write_baseline), findings)
        except ValidationError as error:
            print(f"cannot write baseline: {error}", flush=True)
            return 1
        print(f"wrote {len(findings)} finding(s) to {args.write_baseline}")
        return 0

    if args.baseline:
        try:
            baseline = load_baseline(Path(args.baseline))
        except ValidationError as error:
            print(f"cannot load baseline: {error}", flush=True)
            return 1
        delta = compare_to_baseline(findings, baseline)
        for finding in delta.new:
            print(f"NEW   {finding.render()}")
        for finding in delta.stale:
            print(f"STALE {finding.render()} (fixed but still baselined)")
        if delta.clean:
            print(
                f"lint clean: {len(findings)} finding(s), all baselined "
                f"({args.baseline})"
            )
            return 0
        print(
            f"lint failed: {len(delta.new)} new finding(s), "
            f"{len(delta.stale)} stale baseline entr(y/ies) — fix new findings "
            "(or pragma them with a reason); rewrite a stale baseline with "
            "--write-baseline"
        )
        return 1

    for finding in findings:
        print(finding.render())
    if findings:
        print(f"{len(findings)} finding(s)")
        return 1
    print("lint clean: no findings")
    return 0


def main(argv: list[str] | None = None) -> int:
    """Entry point for the ``lightor`` console script."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.verbose:
        configure_logging()
    if args.command == "list":
        return _command_list()
    if args.command == "run":
        return _command_run(args.experiment, args.scale)
    if args.command == "run-all":
        return _command_run_all(args.scale)
    if args.command == "demo":
        return _command_demo(args.k, args.seed)
    commands = {
        "stream": _command_stream,
        "recover": _command_recover,
        "reshard": _command_reshard,
        "serve": _command_serve,
        "cluster": _command_cluster,
        "load": _command_load,
        "lint": _command_lint,
    }
    if args.command in commands:
        return commands[args.command](args)
    parser.print_help()
    return 1


if __name__ == "__main__":  # pragma: no cover - exercised via the console script
    sys.exit(main())
