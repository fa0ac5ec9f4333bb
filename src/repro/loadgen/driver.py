"""The load harness: drive a workload through a service tier and report.

:class:`LoadGenerator` takes a :class:`~repro.loadgen.workload.LoadWorkload`
and a :class:`~repro.platform.sharding.ShardedLightorService` and replays
the workload's ingest batches through a worker pool:

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
from pathlib import Path
from threading import Lock, Thread

from repro.core.initializer.initializer import HighlightInitializer
from repro.loadgen.metrics import LatencyRecorder, StageStats, merge_recorders
from repro.loadgen.workload import LoadWorkload, WorkBatch
from repro.platform import codecs
from repro.platform.backends import is_memory_path
from repro.platform.placement import ReshardReport
from repro.platform.sharding import ShardedLightorService, shard_db_path
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
    def drive(
        self,
        service: ShardedLightorService,
        transport: str = "inproc",
        wire_codec: str = "json",
        per_channel_pending: int | None = None,
        schedule=(),
        tier=None,
        reopen=None,
    ) -> LoadReport:
        """Run the workload against ``service``; fingerprint every channel.

        The driven service is fully closed before the method returns; the
        report's ``divergences`` stay empty (:func:`run_load` judges them
        against :func:`oracle_fingerprints`).

        ``transport="http"`` serves ``service`` through an in-process
        :class:`~repro.platform.server.GatewayThread` on a loopback port and
        gives every worker its own
        :class:`~repro.platform.client.LightorClient`, so the whole run —
        opens, ingest batches, closes — crosses a real HTTP boundary while
        the fingerprints keep reading the backing stores directly.

        ``transport="cluster"`` expects ``service`` to be a
        :class:`~repro.platform.cluster.ClusterFrontDoor` over an
        already-running :class:`~repro.platform.cluster.ShardClusterSupervisor`
        fleet; every worker gets its own clone (one kept-alive connection
        per shard per worker), and the fingerprints read the shard
        *processes*' persisted state over the same wire.  The supervisor's
        lifecycle stays with the caller — closing the front door here only
        releases its sockets.

        ``wire_codec`` picks the request/response encoding on wire
        transports (``"json"`` or ``"binary"`` — see
        :mod:`repro.platform.wire`); the fingerprints are codec-blind, so a
        binary run must land byte-identical state to a JSON run.  For
        ``transport="cluster"`` pass the same codec the front door was
        built with (``run_load`` wires both ends).  Meaningless for
        ``inproc`` (there is no wire) — anything but ``"json"`` is
        rejected there.

        ``per_channel_pending`` arms the gateway's per-channel admission
        budget on ``transport="http"`` (see
        :class:`~repro.platform.server.LightorGateway`).  The harness keeps
        at most one request in flight per channel (one worker owns a
        channel), so any budget ≥ 1 never refuses the drive itself.  On
        ``cluster`` the budgets belong to the worker gateways, which are
        configured when the fleet boots (pass it to :func:`run_load`).

        ``schedule`` is the fault schedule (see the module docstring).
        Inline actions are called with ``tier`` (default: ``service``; the
        supervisor on ``cluster``).  A :data:`KILL` needs ``reopen``: called
        with the crashed tier's shard count, it builds the fresh tier over
        the same files.
        """
        try:
            entries = self._check(transport, wire_codec, per_channel_pending, schedule, reopen)
        except ValidationError:
            service.close()  # the contract holds on every exit
            raise
        persist = any(action == KILL for _, action in entries)
        tier = service if tier is None else tier
        batches = self.workload.batches()
        total = len(batches)
        recorders = [LatencyRecorder() for _ in range(self.workers)]
        faults: list[FaultOutcome] = []
        left = list(enumerate(batches))
        live: set[str] = set()
        done = 0
        clients, gateway = [], None
        try:
            frontends, clients, gateway = self._connect(
                service, transport, wire_codec, per_channel_pending
            )
            # A channel whose events were all filtered out produces no
            # batches; open it up front so the close phase still runs its
            # lifecycle.
            self._open_idle_channels(frontends[0], batches)
            wall = 0.0
            while True:
                kill = next((i for i, (_, action) in enumerate(entries) if action == KILL), None)
                stop = total if kill is None else min(entries[kill][0], total)
                inline = _InlineFaults(entries[:kill], tier, done, total)
                wall += self._drive_segment(
                    frontends, [batch for index, batch in left if index < stop],
                    recorders, live, inline, persist,
                )
                faults.extend(inline.outcomes)
                if kill is None:
                    break
                entries = entries[kill + 1 :]
                done = stop
                # The simulated crash: cut the wire, release the file handles
                # so a fresh tier can open the databases, finalize nothing.
                for client in clients:
                    client.close()
                if gateway is not None:
                    gateway.stop(drain=False)
                clients, gateway = [], None
                crashed, service = service, None
                for shard in crashed.shards:
                    shard.store.close()
                service = tier = reopen(crashed.n_shards)
                recovered = service.recover_live_sessions()
                left = _left_after_recovery(batches, recovered)
                live = {report.video_id for report in recovered}
                faults.append(
                    FaultOutcome(
                        KILL,
                        stop,
                        old_shards=crashed.n_shards,
                        new_shards=service.n_shards,
                        sessions_recovered=len(recovered),
                        chat_replayed=sum(report.chat_replayed for report in recovered),
                        plays_replayed=sum(report.plays_replayed for report in recovered),
                        events_redriven=sum(len(batch.events) for _, batch in left),
                    )
                )
                frontends, clients, gateway = self._connect(
                    service, transport, wire_codec, per_channel_pending
                )
            outcomes = self._close_channels(frontends[0], service, recorders[0])
            n_shards = service.n_shards
        finally:
            for client in clients:
                client.close()
            if gateway is not None:
                gateway.stop()
            if service is not None:
                service.close()

        return LoadReport(
            shards=n_shards,
            workers=self.workers,
            batch_size=self.workload.spec.batch_size,
            channels=len(self.workload.plans),
            total_events=self.workload.total_events,
            wall_seconds=wall,
            stages=merge_recorders(recorders),
            outcomes=outcomes,
            transport=transport,
            wire_codec=wire_codec,
            total_batches=total,
            faults=tuple(faults),
        )

    # ---------------------------------------------------------------- internals
    def _check(self, transport, wire_codec, per_channel_pending, schedule, reopen) -> list:
        """Validate the drive's options; return the schedule sorted by count."""
        from repro.platform import wire

        if transport not in ("inproc", "http", "cluster"):
            raise ValidationError(
                f"unknown transport {transport!r} "
                "(expected 'inproc', 'http' or 'cluster')"
            )
        if wire_codec not in wire.WIRE_CODECS:
            raise ValidationError(
                f"unknown wire codec {wire_codec!r} (expected one of {wire.WIRE_CODECS})"
            )
        if transport == "inproc" and wire_codec != "json":
            raise ValidationError(
                "wire_codec applies to wire transports only; "
                "transport='inproc' has no wire to encode"
            )
        if per_channel_pending is not None and transport != "http":
            raise ValidationError(
                "per_channel_pending is a gateway admission budget: it applies "
                "to transport='http' here; cluster worker budgets are set when "
                "the fleet boots (pass per_channel_pending to run_load)"
            )
        if reopen is None and any(action == KILL for _, action in schedule):
            raise ValidationError("a scheduled kill needs reopen= to rebuild the tier")
        return _sorted_schedule(schedule)

    def _connect(self, service, transport, wire_codec, per_channel_pending):
        """Per-worker frontends for ``service``: ``(frontends, clients, gateway)``."""
        if transport == "inproc":
            return [service] * self.workers, [], None
        if transport == "cluster":
            # One front-door clone per worker: clones share the ring but own
            # their sockets, exactly like the per-worker clients below.
            clients = [service.clone() for _ in range(self.workers)]
            return clients, clients, None
        from repro.platform.client import LightorClient
        from repro.platform.server import GatewayThread

        # Every worker keeps one blocking request in flight, so the
        # admission budget must cover the whole pool — a default-sized
        # gateway would 503 the drivers past its budget.
        gateway = GatewayThread(
            service,
            max_pending=max(64, self.workers + 2),
            worker_threads=min(32, max(8, self.workers)),
            max_pending_per_channel=per_channel_pending,
        )
        host, port = gateway.start()
        clients = [LightorClient(host, port, wire_codec=wire_codec) for _ in range(self.workers)]
        return clients, clients, gateway

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
        self,
        frontend,
        service: ShardedLightorService,
        recorder: LatencyRecorder,
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
    service = ShardedLightorService.create(
        1,
        initializer,
        backend="memory",
        max_live_sessions=max(len(workload.plans), 1),
        live_k=live_k,
    )
    report = LoadGenerator(workload, workers=1).drive(service)
    return {video_id: outcome.fingerprint for video_id, outcome in report.outcomes.items()}


def _check_killable(transport: str, backend: str, db_path, shards: int, checkpoint_every) -> None:
    """Refuse a kill the harness cannot recover from, before anything runs."""
    require_positive(checkpoint_every, "checkpoint_every")
    if transport == "cluster":
        raise ValidationError(
            "a kill over transport='cluster' is not supported: the worker "
            "processes would have to restart from their files"
        )
    if backend != "sqlite" or db_path is None or is_memory_path(db_path):
        raise ValidationError(
            "kill/recover needs a file-backed SQLite store (backend='sqlite' "
            "and a db_path); an in-memory database cannot survive the simulated crash"
        )
    for shard_index in range(shards):
        stale = Path(shard_db_path(db_path, shard_index))
        if stale.exists():
            raise ValidationError(
                f"kill/recover needs fresh database files, but {stale} already "
                "exists (left by an earlier run?); remove it or pick another --db-path"
            )


def run_load(
    spec,
    initializer: HighlightInitializer,
    *,
    shards: int = 1,
    workers: int = 4,
    backend: str = "memory",
    db_path=None,
    oracle: bool = True,
    live_k: int | None = None,
    workload: LoadWorkload | None = None,
    transport: str = "inproc",
    cluster_seed: int = 2020,
    wire_codec: str = "json",
    per_channel_pending: int | None = None,
    schedule=(),
    checkpoint_every: int = 256,
) -> LoadReport:
    """Build the workload, the service tier and the harness; run once.

    This is the one-call entry point the CLI (``repro load``) and the
    benchmarks share.  Pass a pre-built ``workload`` (see
    :meth:`LoadWorkload.rebatched`) to reuse one synthesised fleet across a
    parameter grid.  The service is created with ``max_live_sessions``
    covering the whole fleet so LRU eviction cannot interleave with the run
    (evictions under concurrency are exercised by the orchestrator's own
    test suite; a load run wants deterministic end-state fingerprints).
    With ``oracle`` (the default) every channel's fingerprint is compared
    with :func:`oracle_fingerprints`.

    ``transport="http"`` drives the identical workload through an
    in-process HTTP gateway instead of direct calls — the oracle bar does
    not move: the wire must be byte-exact too.

    ``transport="cluster"`` boots a
    :class:`~repro.platform.cluster.ShardClusterSupervisor` fleet of
    ``shards`` worker *processes* for the duration of the run and drives
    their :class:`~repro.platform.cluster.ClusterFrontDoor`.  Each worker
    trains its serving model deterministically from ``cluster_seed``; for
    the oracle to hold, ``initializer`` must be the same deterministic
    model (the default ``cluster_seed=2020`` matches how ``repro load``
    builds it).  The fleet is SIGTERM-stopped before the report returns.

    ``per_channel_pending`` arms the per-channel admission budget of the
    wire gateways (the in-process one on ``http``, every worker gateway on
    ``cluster``); rejected on ``inproc``, where there is no gateway.

    ``schedule`` is the fault schedule (see the module docstring): inline
    actions such as ``reshard_to(3)`` run on any transport.  A :data:`KILL`
    needs a file-backed SQLite tier whose per-shard files do not exist yet
    (a previous run's rows would be driven into and recovered as if this
    run had written them), checkpoints live sessions every
    ``checkpoint_every`` persisted events, and is refused on ``cluster``.
    """
    _sorted_schedule(schedule)  # refuse a malformed schedule before a fleet boots
    if workload is None:
        workload = LoadWorkload.from_spec(spec)
    generator = LoadGenerator(workload, workers=workers)
    cadence = None
    if any(action == KILL for _, action in schedule):
        _check_killable(transport, backend, db_path, shards, checkpoint_every)
        cadence = checkpoint_every

    if transport == "cluster":
        from repro.platform.cluster import ShardClusterSupervisor

        supervisor = ShardClusterSupervisor(
            shards,
            backend=backend,
            db_path=db_path,
            seed=cluster_seed,
            live_k=live_k,
            max_live_sessions=max(spec.channels, 1),
            wire_codec=wire_codec,
            max_pending_per_channel=per_channel_pending,
        )
        supervisor.start()
        try:
            report = generator.drive(
                supervisor.front_door(),
                transport="cluster",
                wire_codec=wire_codec,
                schedule=schedule,
                tier=supervisor,
            )
        finally:
            supervisor.stop()
    else:

        def build(n_shards: int) -> ShardedLightorService:
            return ShardedLightorService.create(
                n_shards,
                initializer,
                backend=backend,
                db_path=db_path,
                max_live_sessions=max(spec.channels, 1),
                live_k=live_k,
                checkpoint_every=cadence,
            )

        report = generator.drive(
            build(shards),
            transport=transport,
            wire_codec=wire_codec,
            per_channel_pending=per_channel_pending,
            schedule=schedule,
            reopen=build,
        )
    if not oracle:
        return report
    expected = oracle_fingerprints(workload, initializer, live_k=live_k)
    return replace(
        report,
        oracle_checked=True,
        divergences=[
            video_id
            for video_id, outcome in sorted(report.outcomes.items())
            if outcome.fingerprint != expected.get(video_id)
        ],
    )
