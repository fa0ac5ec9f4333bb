"""The load harness: drive a workload through a service tier and report.

:class:`LoadGenerator` takes a :class:`~repro.loadgen.workload.LoadWorkload`
and an open tier (:func:`~repro.platform.tier.open_tier`) and replays the
workload's ingest batches through a worker pool:

* channels are partitioned across workers (a channel's batches must stay in
  order, so one worker owns a channel for the whole run); different
  channels proceed concurrently, which is exactly the contention profile a
  sharded front door sees;
* every service call is timed into per-worker
  :class:`~repro.loadgen.metrics.LatencyRecorder` instances (merged after
  the run — the hot path takes no shared locks);
* after the drive, every channel is closed (``end_live``) and its persisted
  state — final red dots, refined-highlight history, the full interaction
  log — is fingerprinted.

The **oracle** (:func:`oracle_fingerprints`) drives the byte-identical
batch sequence with one worker into a fresh single-shard, in-memory tier:
because every engine in the stack is deterministic, any run must produce
*exactly* the oracle's fingerprints — a divergence means a routing,
locking, batching, migration or recovery bug, and the report lists it.

The tier's :class:`~repro.platform.tier.TierSpec` picks the transport.
With ``transport="http"`` the same workload is driven **over the wire**: a
:class:`~repro.platform.server.GatewayThread` serves the tier on a loopback
port and each worker owns a :class:`~repro.platform.client.LightorClient`.
With ``transport="cluster"`` the tier is a fleet of shard worker
*processes* (:mod:`repro.platform.cluster`).  The fingerprints read the
backing stores directly either way, so the oracle bar does not move.

A **fault schedule** — Jepsen's nemesis schedule, run without a network —
disturbs the tier mid-run.  It is a list of ``(after, action)`` entries;
``after`` counts ingested batches, so ``0`` runs before the first ingest
and a count past the workload runs after it, with every channel still
live.  An action is :data:`KILL` or a callable on the tier:

* a callable (:func:`reshard_to`, a test's ``migrate_channel``) runs inline
  on the worker that completes batch ``after`` while the rest of the pool
  keeps driving traffic; actions never overlap;
* :data:`KILL` is the one barrier: the pool drives exactly ``after``
  batches and joins, the stores are closed without finalizing a session
  (the gateway is aborted on ``http``), a fresh tier is built over the same
  files, ``recover_live_sessions()`` rebuilds every open session, and the
  rest of the workload is driven minus what the recovered sessions already
  hold.  A schedule with a kill persists chat: recovery can only replay
  what the store holds.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field, replace
from threading import Lock, Thread

from repro.core.initializer.initializer import HighlightInitializer
from repro.loadgen.metrics import LatencyRecorder, StageStats, merge_recorders
from repro.loadgen.workload import LoadWorkload, WorkBatch
from repro.platform import codecs
from repro.platform.placement import ReshardReport
from repro.platform.tier import DEFAULT_SEED, TierSpec, open_tier
from repro.utils.validation import ValidationError, require_positive

__all__ = [
    "KILL",
    "ChannelOutcome",
    "FaultOutcome",
    "LoadGenerator",
    "LoadReport",
    "oracle_fingerprints",
    "reshard_to",
    "run_load",
]

#: The barrier action of a fault schedule: crash the tier and recover it.
KILL = "kill"


def reshard_to(n_shards: int):
    """Schedule action: reshard the tier online to ``n_shards`` shards."""
    require_positive(n_shards, "reshard target")

    def reshard(tier) -> ReshardReport:
        return tier.reshard(n_shards)

    return reshard


@dataclass(frozen=True)
class ChannelOutcome:
    """Fingerprintable end state of one channel after a run."""

    video_id: str
    final_dots: int
    fingerprint: str


@dataclass(frozen=True)
class FaultOutcome:
    """What one fault-schedule entry did.

    ``after`` is the number of batches ingested before it ran (capped at
    the workload's batch count).  A kill fills the recovery counts; an
    action returning a :class:`~repro.platform.placement.ReshardReport`
    fills the shard counts, ``channels_moved``, ``epoch`` and the
    per-channel migration pauses.
    """

    action: str
    after: int
    old_shards: int = 0
    new_shards: int = 0
    channels_moved: int = 0
    epoch: int = 0
    pause_seconds: tuple[float, ...] = ()
    sessions_recovered: int = 0
    chat_replayed: int = 0
    plays_replayed: int = 0
    events_redriven: int = 0

    @property
    def pause_p99_ms(self) -> float:
        """p99 of the per-channel migration pause, in milliseconds."""
        if not self.pause_seconds:
            return 0.0
        ordered = sorted(self.pause_seconds)
        return ordered[max(0, math.ceil(0.99 * len(ordered)) - 1)] * 1000.0

    def describe(self, total_batches: int, total_events: int) -> str:
        """One human-readable line for the CLI."""
        when = f"after {self.after}/{total_batches} batches"
        if self.action == KILL:
            return (
                f"killed {when} ({self.old_shards} shard(s)); recovered "
                f"{self.sessions_recovered} session(s), replaying {self.chat_replayed} "
                f"chat + {self.plays_replayed} play event(s) from the store; "
                f"re-drove {self.events_redriven:,} of {total_events:,} events"
            )
        if self.new_shards:
            return (
                f"resharded {self.old_shards} -> {self.new_shards} shard(s) {when} "
                f"(placement epoch {self.epoch}); moved {self.channels_moved} "
                f"channel(s), per-channel pause p99 {self.pause_p99_ms:.1f} ms"
            )
        return f"{self.action} ran {when}"


@dataclass(frozen=True)
class LoadReport:
    """Everything a load run measured.

    ``events_per_sec`` is the headline wall-clock throughput (all stages,
    all workers); ``stages`` holds the per-stage service-side breakdown;
    ``faults`` holds one outcome per fault-schedule entry, in the order
    they ran; ``divergences`` lists channels whose final state differed
    from the oracle (must be empty on a healthy build).
    """

    shards: int
    workers: int
    batch_size: int
    channels: int
    total_events: int
    wall_seconds: float
    stages: dict[str, StageStats]
    outcomes: dict[str, ChannelOutcome]
    divergences: list[str] = field(default_factory=list)
    oracle_checked: bool = False
    transport: str = "inproc"
    wire_codec: str = "json"
    total_batches: int = 0
    faults: tuple[FaultOutcome, ...] = ()

    @property
    def ok(self) -> bool:
        """Whether every channel matched the oracle (vacuous when unchecked)."""
        return not self.divergences

    @property
    def events_per_sec(self) -> float:
        """Wall-clock events per second across the whole run.

        ``0.0`` (not ``inf``) when the wall clock recorded nothing — the
        JSON-safety rule of :meth:`StageStats.events_per_sec` applies here
        too.
        """
        return self.total_events / self.wall_seconds if self.wall_seconds > 0 else 0.0

    def to_dict(self) -> dict:
        """JSON-friendly form (what ``BENCH_load.json`` stores)."""
        return {
            "shards": self.shards,
            "workers": self.workers,
            "batch_size": self.batch_size,
            "transport": self.transport,
            "wire_codec": self.wire_codec,
            "channels": self.channels,
            "total_events": self.total_events,
            "wall_seconds": round(self.wall_seconds, 6),
            "events_per_sec": round(self.events_per_sec, 1),
            "stages": {name: stats.to_dict() for name, stats in sorted(self.stages.items())},
            "oracle_checked": self.oracle_checked,
            "divergences": list(self.divergences),
        }

    def describe(self) -> str:
        """Multi-line human-readable summary for the CLI."""
        lines = [
            f"{self.total_events:,} events over {self.channels} channel(s) "
            f"in {self.wall_seconds:.2f}s — {self.events_per_sec:,.0f} events/s "
            f"({self.shards} shard(s), {self.workers} worker(s), batch {self.batch_size}, "
            f"transport {self.transport}, codec {self.wire_codec})"
        ]
        for name, stats in sorted(self.stages.items()):
            lines.append(
                f"  {name:6s} {stats.events:>9,} events / {stats.calls:>8,} calls   "
                f"{stats.events_per_sec:>12,.0f} ev/s   "
                f"p50 {stats.p50_ms:7.3f} ms   p95 {stats.p95_ms:7.3f} ms   "
                f"p99 {stats.p99_ms:7.3f} ms"
            )
        for fault in self.faults:
            lines.append("  " + fault.describe(self.total_batches, self.total_events))
        if self.oracle_checked:
            if self.divergences:
                lines.append(
                    f"  ORACLE DIVERGENCE on {len(self.divergences)} channel(s): "
                    + ", ".join(self.divergences)
                )
            else:
                lines.append(
                    f"  oracle spot-check: {len(self.outcomes)} channel(s), 0 divergences "
                    "(byte-identical to the sequential 1-shard run)"
                )
        return "\n".join(lines)


class _InlineFaults:
    """Fire a drive segment's inline schedule entries as batches complete.

    Whichever worker thread completes batch ``after`` runs the entry's
    action inline — the other workers keep driving traffic, which is the
    property under test (channels that do not move keep serving).  Actions
    run one at a time; entries still unfired when the pool joins run then,
    with every channel still live.
    """

    def __init__(self, entries: list, tier, done: int, total: int) -> None:
        self.outcomes: list[FaultOutcome] = []  # appended under _fire_lock only
        self.entries = entries
        self._tier = tier
        self._total = total
        self._lock = Lock()
        self._fire_lock = Lock()
        self._count = done  # guarded-by: _lock
        self._next = 0  # guarded-by: _lock

    def batch_done(self) -> None:
        """Count one driven batch; run every entry now due."""
        with self._lock:
            self._count += 1
        self.fire()

    def fire(self, everything: bool = False) -> None:
        """Run the entries due at the current count (or all that are left)."""
        with self._lock:
            start = end = self._next
            while end < len(self.entries) and (
                everything or self.entries[end][0] <= self._count
            ):
                end += 1
            self._next = end
        if start == end:
            return
        with self._fire_lock:
            for after, action in self.entries[start:end]:
                result = action(self._tier)
                outcome = FaultOutcome(getattr(action, "__name__", "action"), min(after, self._total))
                if isinstance(result, ReshardReport):
                    outcome = replace(
                        outcome,
                        old_shards=result.old_n_shards,
                        new_shards=result.new_n_shards,
                        channels_moved=result.moved,
                        epoch=result.epoch,
                        pause_seconds=tuple(result.pause_seconds()),
                    )
                self.outcomes.append(outcome)


def _sorted_schedule(schedule) -> list:
    """Validate fault-schedule entries; return them ordered by batch count."""
    for after, action in schedule:
        if isinstance(after, bool) or not isinstance(after, int) or after < 0:
            raise ValidationError(f"a fault runs after >= 0 batches, got {after!r}")
        if action != KILL and not callable(action):
            raise ValidationError(f"a fault is KILL or a callable, got {action!r}")
    return sorted(schedule, key=lambda entry: entry[0])


def _left_after_recovery(batches: list[WorkBatch], recovered) -> list[tuple[int, WorkBatch]]:
    """Every ``(index, batch)`` still to drive once ``recovered`` came back:
    each recovered session's ingested chat and plays are skipped from the
    start of its channel's batches."""
    skip = {
        report.video_id: {"chat": report.messages_ingested, "plays": report.interactions_ingested}
        for report in recovered
    }
    left = []
    for index, batch in enumerate(batches):
        counts = skip.get(batch.video_id)
        held = counts[batch.kind] if counts else 0
        if held:
            taken = min(held, len(batch.events))
            counts[batch.kind] -= taken
            if taken == len(batch.events):
                continue
            batch = replace(batch, events=batch.events[taken:])
        left.append((index, batch))
    return left


class LoadGenerator:
    """Replays a workload through a service tier with a worker pool.

    Parameters
    ----------
    workload:
        The materialised traffic (see :class:`LoadWorkload`).
    workers:
        Worker threads.  Channels are assigned round-robin in channel-id
        order, so the partition — and therefore every per-channel call
        sequence — is deterministic regardless of thread scheduling.
    """

    def __init__(self, workload: LoadWorkload, workers: int = 4) -> None:
        require_positive(workers, "workers")
        self.workload = workload
        self.workers = workers

    # ------------------------------------------------------------------- drive
    def drive(self, tier, schedule=()) -> LoadReport:
        """Run the workload against ``tier``; fingerprint every channel.

        ``tier`` is an open :class:`~repro.platform.tier.Tier` (see
        :func:`~repro.platform.tier.open_tier`).  It is closed before the
        method returns; the report's ``divergences`` stay empty
        (:func:`run_load` judges them against :func:`oracle_fingerprints`).

        Each worker calls through its own surface from
        :meth:`Tier.connect <repro.platform.tier.Tier.connect>`: the service
        itself (``inproc``), a client of a loopback gateway (``http``) or a
        front-door clone (``cluster``).  The fingerprints read the backing
        stores through the tier's front door either way, and are
        transport- and codec-blind, so every run must land the same bytes.

        ``schedule`` is the fault schedule (see the module docstring).
        Inline actions run on :attr:`Tier.target
        <repro.platform.tier.Tier.target>`; a :data:`KILL` needs an
        in-process tier, which it crashes and reopens over the same files.
        """
        try:
            entries = _sorted_schedule(schedule)
            if not tier.reopenable and any(action == KILL for _, action in entries):
                raise ValidationError("a scheduled kill needs an in-process tier to reopen")
        except ValidationError:
            tier.close()  # the contract holds on every exit
            raise
        persist = any(action == KILL for _, action in entries)
        batches = self.workload.batches()
        total = len(batches)
        recorders = [LatencyRecorder() for _ in range(self.workers)]
        faults: list[FaultOutcome] = []
        left = list(enumerate(batches))
        live: set[str] = set()
        done = 0
        with tier:
            fronts = tier.connect(self.workers)
            # A channel whose events were all filtered out produces no
            # batches; open it up front so the close phase still runs its
            # lifecycle.
            self._open_idle_channels(fronts[0], batches)
            wall = 0.0
            while True:
                kill = next((i for i, (_, action) in enumerate(entries) if action == KILL), None)
                stop = total if kill is None else min(entries[kill][0], total)
                inline = _InlineFaults(entries[:kill], tier.target, done, total)
                wall += self._drive_segment(
                    fronts, [batch for index, batch in left if index < stop],
                    recorders, live, inline, persist,
                )
                faults.extend(inline.outcomes)
                if kill is None:
                    break
                entries = entries[kill + 1 :]
                done = stop
                # The simulated crash: cut the wire, release the file
                # handles, finalize nothing; then a fresh tier over the
                # same files rebuilds every open session.
                old_shards = tier.service.n_shards
                service = tier.reopen(old_shards)
                recovered = service.recover_live_sessions()
                left = _left_after_recovery(batches, recovered)
                live = {report.video_id for report in recovered}
                faults.append(
                    FaultOutcome(
                        KILL,
                        stop,
                        old_shards=old_shards,
                        new_shards=service.n_shards,
                        sessions_recovered=len(recovered),
                        chat_replayed=sum(report.chat_replayed for report in recovered),
                        plays_replayed=sum(report.plays_replayed for report in recovered),
                        events_redriven=sum(len(batch.events) for _, batch in left),
                    )
                )
                fronts = tier.connect(self.workers)
            outcomes = self._close_channels(fronts[0], tier.service, recorders[0])
            n_shards = tier.service.n_shards

        return LoadReport(
            shards=n_shards,
            workers=self.workers,
            batch_size=self.workload.spec.batch_size,
            channels=len(self.workload.plans),
            total_events=self.workload.total_events,
            wall_seconds=wall,
            stages=merge_recorders(recorders),
            outcomes=outcomes,
            transport=tier.spec.transport,
            wire_codec=tier.spec.wire_codec,
            total_batches=total,
            faults=tuple(faults),
        )

    # ---------------------------------------------------------------- internals
    def _drive_segment(self, frontends, batches, recorders, live, inline, persist) -> float:
        """Drive ``batches`` with the pool and join; fire ``inline`` entries.

        Returns the wall-clock seconds from the first worker's start to the
        last one's exit, inline faults included.
        """
        worker_of = self._assign_channels()
        queues: list[list[WorkBatch]] = [[] for _ in range(self.workers)]
        for batch in batches:
            queues[worker_of[batch.video_id]].append(batch)
        failures: list[BaseException] = []
        # Without inline entries the workers count nothing: the hot loop
        # takes no shared lock.
        counter = inline if inline.entries else None
        threads = [
            Thread(
                target=self._worker,
                args=(frontend, queue, recorder, failures, set(live), counter, persist),
                name=f"loadgen-{index}",
                daemon=True,
            )
            for index, (frontend, queue, recorder) in enumerate(
                zip(frontends, queues, recorders)
            )
        ]
        inline.fire()  # entries due before this segment's first batch
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - started
        if failures:
            # A dead worker means part of the traffic was never driven; a
            # report computed over the full planned event count would be a
            # lie, so the run fails loudly with the first worker error.
            raise failures[0]
        inline.fire(everything=True)
        return elapsed

    def _assign_channels(self) -> dict[str, int]:
        channel_ids = sorted(plan.video.video_id for plan in self.workload.plans)
        return {vid: index % self.workers for index, vid in enumerate(channel_ids)}

    def _open_idle_channels(self, frontend, batches: list[WorkBatch]) -> None:
        """Register channels that will receive no traffic this run."""
        with_traffic = {batch.video_id for batch in batches}
        for plan in self.workload.plans:
            if plan.video.video_id not in with_traffic:
                frontend.start_live(plan.video)

    def _worker(
        self,
        frontend,
        queue: list[WorkBatch],
        recorder: LatencyRecorder,
        failures: list[BaseException],
        live: set[str],
        inline: _InlineFaults | None,
        persist: bool,
    ) -> None:
        # ``frontend`` is the service itself (inproc) or this worker's own
        # LightorClient (http) — the two expose the same call surface.
        plans = {plan.video.video_id: plan for plan in self.workload.plans}
        chat_options = {"persist": True} if persist else {}
        try:
            for batch in queue:
                if batch.video_id not in live:
                    t0 = time.perf_counter()
                    frontend.start_live(plans[batch.video_id].video)
                    recorder.record("open", time.perf_counter() - t0)
                    live.add(batch.video_id)
                t0 = time.perf_counter()
                if batch.kind == "chat":
                    frontend.ingest_chat_batch(batch.video_id, list(batch.events), **chat_options)
                else:
                    frontend.ingest_plays_batch(batch.video_id, list(batch.events))
                recorder.record(batch.kind, time.perf_counter() - t0, events=len(batch.events))
                if inline is not None:
                    inline.batch_done()
        except BaseException as error:  # noqa: BLE001 - surfaced by drive()
            failures.append(error)

    def _close_channels(
        self, frontend, service, recorder: LatencyRecorder
    ) -> dict[str, ChannelOutcome]:
        outcomes: dict[str, ChannelOutcome] = {}
        for plan in sorted(self.workload.plans, key=lambda p: p.video.video_id):
            video_id = plan.video.video_id
            t0 = time.perf_counter()
            dots = frontend.end_live(video_id, plan.duration)
            recorder.record("close", time.perf_counter() - t0)
            outcomes[video_id] = ChannelOutcome(
                video_id=video_id,
                final_dots=len(dots),
                fingerprint=self._fingerprint(service, video_id, dots),
            )
        return outcomes

    @staticmethod
    def _fingerprint(service, video_id: str, dots) -> str:
        """Canonical JSON of everything the run persisted for a channel."""
        store = service.store_for(video_id)
        return json.dumps(
            {
                "dots": [codecs.red_dot_to_dict(dot) for dot in dots],
                "stored_dots": [
                    codecs.red_dot_to_dict(dot) for dot in store.get_red_dots(video_id)
                ],
                "highlights": [
                    codecs.highlight_record_to_dict(record)
                    for record in store.highlight_history(video_id)
                ],
                "interactions": [
                    codecs.interaction_to_dict(interaction)
                    for interaction in store.get_interactions(video_id)
                ],
            },
            sort_keys=True,
            allow_nan=False,
        )


def oracle_fingerprints(
    workload: LoadWorkload, initializer: HighlightInitializer, *, live_k: int | None = None
) -> dict[str, str]:
    """Fingerprint every channel of the sequential 1-shard in-memory replay.

    The one oracle of the harness: :meth:`LoadGenerator.drive` with a single
    worker into a fresh single-shard memory tier, so every channel sees the
    workload's batches in their global order, with no checkpointing and no
    fault.  Any run of the same workload — sharded, concurrent, over a
    wire, resharded, killed and recovered — must reproduce these
    fingerprints byte for byte.
    """
    tier = TierSpec(workers=1, k=live_k, max_live_sessions=max(len(workload.plans), 1))
    report = LoadGenerator(workload, workers=1).drive(open_tier(tier, initializer))
    return {video_id: outcome.fingerprint for video_id, outcome in report.outcomes.items()}


def run_load(
    spec,
    initializer: HighlightInitializer,
    *,
    tier: TierSpec = TierSpec(),
    oracle: bool = True,
    workload: LoadWorkload | None = None,
    cluster_seed: int = DEFAULT_SEED,
    schedule=(),
) -> LoadReport:
    """Build the workload, open the tier ``tier`` describes, run once.

    This is the one-call entry point the CLI (``repro load``) and the
    benchmarks share.  Pass a pre-built ``workload`` (see
    :meth:`LoadWorkload.rebatched`) to reuse one synthesised fleet across a
    parameter grid.  The tier's ``max_live_sessions`` is sized to the whole
    fleet so LRU eviction cannot interleave with the run (evictions under
    concurrency are exercised by the orchestrator's own test suite; a load
    run wants deterministic end-state fingerprints).  With ``oracle`` (the
    default) every channel's fingerprint is compared with
    :func:`oracle_fingerprints`.

    Any transport drives the identical workload, and the oracle bar does
    not move: the wire must be byte-exact too.  On ``cluster`` each worker
    process trains its serving model deterministically from
    ``cluster_seed``; for the oracle to hold, ``initializer`` must be the
    same deterministic model (the default matches how ``repro load`` builds
    it).  The fleet is SIGTERM-stopped before the report returns.

    ``schedule`` is the fault schedule (see the module docstring): inline
    actions such as ``reshard_to(3)`` run on any transport.  A :data:`KILL`
    marks the spec ``kill`` (file-backed SQLite with fresh per-shard files,
    refused on ``cluster``) and checkpoints live sessions at the spec's
    cadence; a run without a kill checkpoints nothing.
    """
    schedule = _sorted_schedule(schedule)  # refuse a malformed schedule before a fleet boots
    kill = any(action == KILL for _, action in schedule)
    tier = replace(tier, kill=tier.kill or kill, max_live_sessions=max(spec.channels, 1))
    if workload is None:
        workload = LoadWorkload.from_spec(spec)
    generator = LoadGenerator(workload, workers=tier.workers)
    report = generator.drive(
        open_tier(tier, initializer, seed=cluster_seed, crash_safe=kill), schedule
    )
    if not oracle:
        return report
    expected = oracle_fingerprints(workload, initializer, live_k=tier.k)
    return replace(
        report,
        oracle_checked=True,
        divergences=[
            video_id
            for video_id, outcome in sorted(report.outcomes.items())
            if outcome.fingerprint != expected.get(video_id)
        ],
    )
