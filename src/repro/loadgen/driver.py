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

The **oracle spot-check** replays the byte-identical batch sequence
sequentially into a fresh single-shard, in-memory service and compares the
fingerprints: because every engine in the stack is deterministic, a sharded
concurrent run must produce *exactly* the oracle's results — any divergence
means a routing, locking or batching bug, and the report counts it.

With ``transport="http"`` the same workload is driven **over the wire**: a
:class:`~repro.platform.server.GatewayThread` serves the tier on a loopback
port, each worker owns a :class:`~repro.platform.client.LightorClient`
(which mirrors the service surface method for method), and every ingest,
open and close crosses a real HTTP boundary.  The fingerprints still read
the backing stores directly — they are the ground truth the wire must not
perturb — so the oracle spot-check now also proves the gateway's JSON wire
format is byte-exact end to end.

With ``transport="cluster"`` the tier is a fleet of shard worker
*processes* (:mod:`repro.platform.cluster`): the front door
consistent-hash-routes every call over the wire to the owning worker, and
the oracle bar still does not move — a multi-process run must be
byte-identical to the sequential single-shard replay.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from threading import Lock, Thread

from repro.core.initializer.initializer import HighlightInitializer
from repro.loadgen.metrics import LatencyRecorder, StageStats, merge_recorders
from repro.loadgen.workload import LoadWorkload, WorkBatch
from repro.platform import codecs
from repro.platform.sharding import ShardedLightorService, shard_db_path
from repro.utils.validation import ValidationError, require_positive

__all__ = [
    "ChannelOutcome",
    "KillRecoverReport",
    "LoadReport",
    "LoadGenerator",
    "ReshardChaosReport",
    "run_kill_recover",
    "run_load",
    "run_reshard",
]


class _BatchTrigger:
    """Fire one action mid-drive, after ``after`` ingested batches.

    The chaos hook of the reshard harness: whichever worker thread crosses
    the batch threshold runs the action *inline* — the other workers keep
    driving traffic throughout, which is exactly the property under test
    (channels that do not move keep serving).  If the workload is shorter
    than the threshold, :meth:`ensure_fired` runs the action after the
    drive phase, while every channel is still live.
    """

    def __init__(self, after: int, action) -> None:
        if after < 0:
            raise ValidationError(f"trigger threshold must be >= 0, got {after}")
        self.after = after
        self.action = action
        self.result = None  # written by the single firing thread only
        self._lock = Lock()
        self._count = 0  # guarded-by: _lock
        self._fired = False  # guarded-by: _lock

    @property
    def fired(self) -> bool:
        """Whether the action has run (or is running)."""
        with self._lock:
            return self._fired

    def batch_done(self) -> None:
        """Count one driven batch; fire the action on the crossing."""
        with self._lock:
            self._count += 1
            due = self._count >= self.after and not self._fired
            if due:
                self._fired = True
        if due:
            self.result = self.action()

    def ensure_fired(self) -> None:
        """Run the action now if no batch crossing ever fired it."""
        with self._lock:
            due = not self._fired
            if due:
                self._fired = True
        if due:
            self.result = self.action()


@dataclass(frozen=True)
class ChannelOutcome:
    """Fingerprintable end state of one channel after a run."""

    video_id: str
    final_dots: int
    fingerprint: str


@dataclass(frozen=True)
class LoadReport:
    """Everything a load run measured.

    ``events_per_sec`` is the headline wall-clock throughput (all stages,
    all workers); ``stages`` holds the per-stage service-side breakdown;
    ``divergences`` counts channels whose final state differed from the
    sequential single-shard oracle (must be zero on a healthy build).
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
        if self.oracle_checked:
            if self.divergences:
                lines.append(
                    f"  ORACLE DIVERGENCE on {len(self.divergences)} channel(s): "
                    + ", ".join(self.divergences)
                )
            else:
                lines.append(
                    f"  oracle spot-check: {len(self.outcomes)} channel(s), 0 divergences"
                )
        return "\n".join(lines)


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
        oracle_factory=None,
        transport: str = "inproc",
        wire_codec: str = "json",
        per_channel_pending: int | None = None,
        trigger: _BatchTrigger | None = None,
    ) -> LoadReport:
        """Run the workload against ``service`` and (optionally) oracle-check.

        ``oracle_factory`` builds a fresh single-shard service for the
        sequential replay; pass ``None`` to skip the spot-check (e.g. for
        pure timing runs).  The driven service is fully closed before the
        method returns.

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
        channel), so any budget ≥ 1 never refuses the drive itself — the
        knob exists so fairness scenarios exercise the budget code path
        under load.  Like ``wire_codec`` it is meaningless on ``inproc``;
        on ``cluster`` the budgets belong to the worker gateways, which are
        configured when the fleet boots (pass it to :func:`run_load`).

        ``trigger`` arms a mid-run chaos action (see :class:`_BatchTrigger`
        and :func:`run_reshard`): the worker thread that drives the
        threshold-crossing batch runs it inline while the rest of the pool
        keeps serving traffic; if the workload ends first, the action runs
        after the drive phase with every channel still live.
        """
        from repro.platform import wire

        if transport not in ("inproc", "http", "cluster"):
            # The contract holds on every exit: the driven service is closed.
            service.close()
            raise ValidationError(
                f"unknown transport {transport!r} "
                "(expected 'inproc', 'http' or 'cluster')"
            )
        if wire_codec not in wire.WIRE_CODECS:
            service.close()
            raise ValidationError(
                f"unknown wire codec {wire_codec!r} (expected one of {wire.WIRE_CODECS})"
            )
        if transport == "inproc" and wire_codec != "json":
            service.close()
            raise ValidationError(
                "wire_codec applies to wire transports only; "
                "transport='inproc' has no wire to encode"
            )
        if per_channel_pending is not None and transport != "http":
            service.close()
            raise ValidationError(
                "per_channel_pending is a gateway admission budget: it applies "
                "to transport='http' here; cluster worker budgets are set when "
                "the fleet boots (pass per_channel_pending to run_load)"
            )
        gateway = None
        clients: list = []
        if transport == "http":
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
            try:
                host, port = gateway.start()
            except BaseException:
                service.close()
                raise
            clients = [
                LightorClient(host, port, wire_codec=wire_codec)
                for _ in range(self.workers)
            ]
            frontends: list = list(clients)
        elif transport == "cluster":
            # One front-door clone per worker: clones share the ring but own
            # their sockets, exactly like the per-worker clients above.
            try:
                clients = [service.clone() for _ in range(self.workers)]
            except BaseException:
                service.close()
                raise
            frontends = list(clients)
        else:
            frontends = [service] * self.workers

        batches = self.workload.batches()
        worker_of = self._assign_channels()
        queues: list[list[WorkBatch]] = [[] for _ in range(self.workers)]
        for batch in batches:
            queues[worker_of[batch.video_id]].append(batch)

        recorders = [LatencyRecorder() for _ in range(self.workers)]
        failures: list[BaseException] = []
        threads = [
            Thread(
                target=self._worker,
                args=(frontend, queue, recorder, failures, trigger),
                name=f"loadgen-{index}",
                daemon=True,
            )
            for index, (frontend, queue, recorder) in enumerate(
                zip(frontends, queues, recorders)
            )
        ]
        try:
            # A channel whose events were all filtered out produces no
            # batches; open it up front so the close phase still runs its
            # lifecycle.
            self._open_idle_channels(frontends[0], batches)
            started = time.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            wall = time.perf_counter() - started
            if failures:
                # A dead worker means part of the traffic was never driven; a
                # report computed over the full planned event count would be a
                # lie, so the run fails loudly with the first worker error.
                raise failures[0]
            if trigger is not None:
                # A threshold past the last batch still fires — after the
                # traffic, with every channel live — so the chaos action is
                # never silently skipped.
                trigger.ensure_fired()
            outcomes = self._close_channels(frontends[0], service, recorders[0])
        finally:
            for client in clients:
                client.close()
            if gateway is not None:
                gateway.stop()
            service.close()
        stages = merge_recorders(recorders)

        divergences: list[str] = []
        oracle_checked = False
        if oracle_factory is not None:
            oracle_checked = True
            divergences = self._oracle_divergences(batches, outcomes, oracle_factory)

        return LoadReport(
            shards=service.n_shards,
            workers=self.workers,
            batch_size=self.workload.spec.batch_size,
            channels=len(self.workload.plans),
            total_events=self.workload.total_events,
            wall_seconds=wall,
            stages=stages,
            outcomes=outcomes,
            divergences=divergences,
            oracle_checked=oracle_checked,
            transport=transport,
            wire_codec=wire_codec,
        )

    # ---------------------------------------------------------------- internals
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
        trigger: _BatchTrigger | None = None,
    ) -> None:
        # ``frontend`` is the service itself (inproc) or this worker's own
        # LightorClient (http) — the two expose the same call surface.
        live: set[str] = set()
        plans = {plan.video.video_id: plan for plan in self.workload.plans}
        try:
            for batch in queue:
                if batch.video_id not in live:
                    t0 = time.perf_counter()
                    frontend.start_live(plans[batch.video_id].video)
                    recorder.record("open", time.perf_counter() - t0)
                    live.add(batch.video_id)
                t0 = time.perf_counter()
                if batch.kind == "chat":
                    frontend.ingest_chat_batch(batch.video_id, list(batch.events))
                else:
                    frontend.ingest_plays_batch(batch.video_id, list(batch.events))
                recorder.record(batch.kind, time.perf_counter() - t0, events=len(batch.events))
                if trigger is not None:
                    trigger.batch_done()
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

    def _oracle_divergences(
        self,
        batches: list[WorkBatch],
        outcomes: dict[str, ChannelOutcome],
        oracle_factory,
    ) -> list[str]:
        """Sequentially replay the identical batches; list differing channels."""
        oracle: ShardedLightorService = oracle_factory()
        try:
            plans = {plan.video.video_id: plan for plan in self.workload.plans}
            self._open_idle_channels(oracle, batches)
            live: set[str] = set()
            for batch in batches:
                if batch.video_id not in live:
                    oracle.start_live(plans[batch.video_id].video)
                    live.add(batch.video_id)
                if batch.kind == "chat":
                    oracle.ingest_chat_batch(batch.video_id, list(batch.events))
                else:
                    oracle.ingest_plays_batch(batch.video_id, list(batch.events))
            divergences = []
            for video_id, outcome in sorted(outcomes.items()):
                dots = oracle.end_live(video_id, plans[video_id].duration)
                expected = self._fingerprint(oracle, video_id, dots)
                if expected != outcome.fingerprint:
                    divergences.append(video_id)
            return divergences
        finally:
            oracle.close()


@dataclass(frozen=True)
class KillRecoverReport:
    """Outcome of a kill-and-recover chaos run (``repro load --kill-after``).

    ``divergences`` lists channels whose post-recovery end state differed
    from the same workload run uninterrupted — it must be empty: the
    checkpoint/recovery subsystem promises byte-identical final red dots,
    highlight records and interaction logs (see
    :mod:`repro.platform.recovery`).
    """

    shards: int
    channels: int
    total_batches: int
    killed_after: int
    checkpoint_every: int
    sessions_recovered: int
    chat_replayed: int
    plays_replayed: int
    events_redriven: int
    total_events: int
    divergences: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Whether the recovered run matched the uninterrupted oracle."""
        return not self.divergences

    def describe(self) -> str:
        """Multi-line human-readable summary for the CLI."""
        lines = [
            f"killed after {self.killed_after}/{self.total_batches} batches "
            f"({self.shards} shard(s), checkpoint every {self.checkpoint_every} events); "
            f"recovered {self.sessions_recovered} session(s), replaying "
            f"{self.chat_replayed} chat + {self.plays_replayed} play event(s) "
            f"from the store",
            f"re-drove {self.events_redriven:,} of {self.total_events:,} events "
            f"to finish the run",
        ]
        if self.divergences:
            lines.append(
                f"RECOVERY DIVERGENCE on {len(self.divergences)} channel(s): "
                + ", ".join(self.divergences)
            )
        else:
            lines.append(
                f"recovered run is byte-identical to the uninterrupted run "
                f"on all {self.channels} channel(s)"
            )
        return "\n".join(lines)


def run_kill_recover(
    spec,
    initializer: HighlightInitializer,
    *,
    db_path,
    shards: int = 1,
    kill_after: int,
    checkpoint_every: int = 256,
    live_k: int | None = None,
    workload: LoadWorkload | None = None,
) -> KillRecoverReport:
    """Drive a workload, kill the service tier mid-run, recover, and verify.

    The chaos twin of :func:`run_load`, sequential for exactness:

    1. drive the first ``kill_after`` batches into a checkpointing SQLite
       service tier (chat persisted — recovery can only replay what the
       store holds);
    2. simulate a crash — close the backend connections without finalizing
       a single session (no ``shutdown``, no eviction callbacks);
    3. build a fresh tier over the same database files, rebuild every open
       session via ``recover_live_sessions``, and finish the run, skipping
       exactly the events the recovered sessions already ingested;
    4. close every channel and compare each channel's full persisted end
       state (final dots, stored dots, highlight records, interaction log)
       byte-for-byte against the same workload driven uninterrupted.

    Any divergence is a recovery bug and lands in the report (the CLI and
    CI fail on it).  The per-shard database files must not exist yet: a
    previous run's rows would be driven into and recovered as if this run
    had written them.
    """
    require_positive(checkpoint_every, "checkpoint_every")
    if kill_after < 0:
        raise ValidationError(f"kill_after must be >= 0, got {kill_after}")
    if db_path is None:
        raise ValidationError(
            "kill/recover needs a file-backed SQLite store (pass db_path); "
            "an in-memory database cannot survive the simulated crash"
        )
    for shard_index in range(shards):
        stale = Path(shard_db_path(db_path, shard_index))
        if stale.exists():
            raise ValidationError(
                f"kill/recover needs fresh database files, but {stale} already "
                "exists (left by an earlier run?); remove it or pick another --db-path"
            )
    if workload is None:
        workload = LoadWorkload.from_spec(spec)
    batches = workload.batches()
    plans = {plan.video.video_id: plan for plan in workload.plans}
    kill_at = min(kill_after, len(batches))
    max_sessions = max(spec.channels, 1)

    def create(backend: str, path, n_shards: int, cadence: int | None):
        return ShardedLightorService.create(
            n_shards,
            initializer,
            backend=backend,
            db_path=path,
            max_live_sessions=max_sessions,
            live_k=live_k,
            checkpoint_every=cadence,
        )

    def ingest(service: ShardedLightorService, batch: WorkBatch, events: list) -> None:
        if batch.kind == "chat":
            service.ingest_chat_batch(batch.video_id, events, persist=True)
        else:
            service.ingest_plays_batch(batch.video_id, events)

    def open_idle(service: ShardedLightorService) -> None:
        with_traffic = {batch.video_id for batch in batches}
        for plan in workload.plans:
            if plan.video.video_id not in with_traffic:
                service.start_live(plan.video)

    def close_and_fingerprint(service: ShardedLightorService) -> dict[str, str]:
        fingerprints: dict[str, str] = {}
        for plan in sorted(workload.plans, key=lambda p: p.video.video_id):
            video_id = plan.video.video_id
            dots = service.end_live(video_id, plan.duration)
            fingerprints[video_id] = LoadGenerator._fingerprint(service, video_id, dots)
        return fingerprints

    # Phase 1: drive to the kill point, then drop the tier on the floor.
    service = create("sqlite", db_path, shards, checkpoint_every)
    open_idle(service)
    live: set[str] = set()
    for batch in batches[:kill_at]:
        if batch.video_id not in live:
            service.start_live(plans[batch.video_id].video)
            live.add(batch.video_id)
        ingest(service, batch, list(batch.events))
    for shard in service.shards:
        # The simulated crash: release the file handles so a fresh tier can
        # open the databases, but finalize nothing and delete no snapshot.
        shard.store.close()

    # Phase 2: a fresh tier over the same files rebuilds the open sessions
    # and finishes the run, skipping what the recovered sessions already saw.
    service = create("sqlite", db_path, shards, checkpoint_every)
    recovered = service.recover_live_sessions()
    skip = {
        report.video_id: {
            "chat": report.messages_ingested,
            "plays": report.interactions_ingested,
        }
        for report in recovered
    }
    live = {report.video_id for report in recovered}
    redriven = 0
    for batch in batches:
        events = list(batch.events)
        counts = skip.get(batch.video_id)
        if counts is not None and counts[batch.kind] > 0:
            if counts[batch.kind] >= len(events):
                counts[batch.kind] -= len(events)
                continue
            events = events[counts[batch.kind] :]
            counts[batch.kind] = 0
        if batch.video_id not in live:
            service.start_live(plans[batch.video_id].video)
            live.add(batch.video_id)
        ingest(service, batch, events)
        redriven += len(events)
    outcomes = close_and_fingerprint(service)
    service.close()

    # The uninterrupted reference: identical call sequence, one shard, no
    # checkpointing — which doubles as proof that checkpointing itself never
    # perturbs results.
    oracle = create("memory", None, 1, None)
    open_idle(oracle)
    live = set()
    for batch in batches:
        if batch.video_id not in live:
            oracle.start_live(plans[batch.video_id].video)
            live.add(batch.video_id)
        ingest(oracle, batch, list(batch.events))
    expected = close_and_fingerprint(oracle)
    oracle.close()

    divergences = [
        video_id
        for video_id in sorted(expected)
        if expected[video_id] != outcomes.get(video_id)
    ]
    return KillRecoverReport(
        shards=shards,
        channels=len(workload.plans),
        total_batches=len(batches),
        killed_after=kill_at,
        checkpoint_every=checkpoint_every,
        sessions_recovered=len(recovered),
        chat_replayed=sum(report.chat_replayed for report in recovered),
        plays_replayed=sum(report.plays_replayed for report in recovered),
        events_redriven=redriven,
        total_events=workload.total_events,
        divergences=divergences,
    )


@dataclass(frozen=True)
class ReshardChaosReport:
    """Outcome of an online-reshard chaos run (``repro load --reshard-at``).

    The tier is resharded **while the workload is being driven**: whichever
    driver thread crosses the batch threshold runs the reshard inline, the
    other threads keep pushing traffic, and every 409-redirected request is
    retried against the new owner by the routing layer.  ``divergences``
    lists channels whose final persisted state differed from the same
    workload driven sequentially into an undisturbed single-shard tier — it
    must be empty: moving a channel's rows and live session between shards
    (or worker processes) may never change a byte of what the run produces.

    ``pause_seconds`` holds the per-channel unavailability windows the
    migrations measured; :attr:`pause_p99_ms` is the headline the bench
    records.
    """

    transport: str
    backend: str
    old_shards: int
    new_shards: int
    reshard_after: int
    total_batches: int
    channels: int
    total_events: int
    channels_moved: int
    epoch: int
    pause_seconds: tuple[float, ...] = ()
    divergences: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Whether the resharded run matched the undisturbed oracle."""
        return not self.divergences

    @property
    def pause_p99_ms(self) -> float:
        """p99 of the per-channel migration pause, in milliseconds."""
        if not self.pause_seconds:
            return 0.0
        ordered = sorted(self.pause_seconds)
        index = max(0, math.ceil(0.99 * len(ordered)) - 1)
        return ordered[index] * 1000.0

    def to_dict(self) -> dict:
        """JSON-friendly form (what ``BENCH_load.json`` stores)."""
        return {
            "transport": self.transport,
            "backend": self.backend,
            "old_shards": self.old_shards,
            "new_shards": self.new_shards,
            "reshard_after": self.reshard_after,
            "total_batches": self.total_batches,
            "channels": self.channels,
            "total_events": self.total_events,
            "channels_moved": self.channels_moved,
            "epoch": self.epoch,
            "pause_p99_ms": round(self.pause_p99_ms, 3),
            "divergences": list(self.divergences),
        }

    def describe(self) -> str:
        """Multi-line human-readable summary for the CLI."""
        lines = [
            f"resharded {self.old_shards} -> {self.new_shards} shard(s) after "
            f"{self.reshard_after}/{self.total_batches} batches "
            f"(transport {self.transport}, {self.backend} backend, "
            f"placement epoch {self.epoch})",
            f"moved {self.channels_moved} of {self.channels} channel(s); "
            f"per-channel pause p99 {self.pause_p99_ms:.1f} ms",
        ]
        if self.divergences:
            lines.append(
                f"RESHARD DIVERGENCE on {len(self.divergences)} channel(s): "
                + ", ".join(self.divergences)
            )
        else:
            lines.append(
                f"resharded run is byte-identical to the undisturbed run "
                f"on all {self.channels} channel(s)"
            )
        return "\n".join(lines)


def run_reshard(
    spec,
    initializer: HighlightInitializer,
    *,
    shards: int,
    to_shards: int,
    reshard_after: int,
    workers: int = 4,
    backend: str = "memory",
    db_path=None,
    transport: str = "inproc",
    wire_codec: str = "json",
    live_k: int | None = None,
    workload: LoadWorkload | None = None,
    cluster_seed: int = 2020,
) -> ReshardChaosReport:
    """Drive a workload, reshard the tier mid-run, and verify byte-equality.

    The reshard twin of :func:`run_kill_recover`, concurrent on purpose:
    the workload keeps being driven by the worker pool while the tier grows
    or shrinks underneath it.  ``transport="inproc"`` reshards a
    :class:`~repro.platform.sharding.ShardedLightorService` in place;
    ``transport="cluster"`` boots a worker-process fleet and has its
    supervisor spawn/drain whole processes mid-run, with every moved
    channel crossing the wire as a migration bundle.  Either way the final
    fingerprints must match the sequential single-shard oracle byte for
    byte — an online reshard may not change a single result.
    """
    require_positive(shards, "shards")
    require_positive(to_shards, "to_shards")
    if transport not in ("inproc", "cluster"):
        raise ValidationError(
            "reshard chaos supports transports 'inproc' and 'cluster' "
            "(an http gateway serves one fixed tier; reshard it in place "
            "via ShardedLightorService.reshard)"
        )
    if workload is None:
        workload = LoadWorkload.from_spec(spec)
    generator = LoadGenerator(workload, workers=workers)

    def oracle_factory() -> ShardedLightorService:
        return ShardedLightorService.create(
            1, initializer, backend="memory",
            max_live_sessions=max(spec.channels, 1), live_k=live_k,
        )

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
        )
        trigger = _BatchTrigger(reshard_after, lambda: supervisor.reshard(to_shards))
        supervisor.start()
        try:
            load = generator.drive(
                supervisor.front_door(),
                oracle_factory=oracle_factory,
                transport="cluster",
                wire_codec=wire_codec,
                trigger=trigger,
            )
        finally:
            supervisor.stop()
    else:
        service = ShardedLightorService.create(
            shards,
            initializer,
            backend=backend,
            db_path=db_path,
            max_live_sessions=max(spec.channels, 1),
            live_k=live_k,
        )
        trigger = _BatchTrigger(reshard_after, lambda: service.reshard(to_shards))
        load = generator.drive(
            service,
            oracle_factory=oracle_factory,
            transport="inproc",
            wire_codec=wire_codec,
            trigger=trigger,
        )

    reshard_report = trigger.result
    return ReshardChaosReport(
        transport=transport,
        backend=backend,
        old_shards=shards,
        new_shards=to_shards,
        reshard_after=min(reshard_after, len(workload.batches())),
        total_batches=len(workload.batches()),
        channels=len(workload.plans),
        total_events=workload.total_events,
        channels_moved=reshard_report.moved,
        epoch=reshard_report.epoch,
        pause_seconds=tuple(reshard_report.pause_seconds()),
        divergences=load.divergences,
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
) -> LoadReport:
    """Build the workload, the service tier and the harness; run once.

    This is the one-call entry point the CLI (``repro load``) and the
    scaling benchmark share.  Pass a pre-built ``workload`` (see
    :meth:`LoadWorkload.rebatched`) to reuse one synthesised fleet across a
    parameter grid.  The service is created with ``max_live_sessions``
    covering the whole fleet so LRU eviction cannot interleave with the run
    (evictions under concurrency are exercised by the orchestrator's own
    test suite; a load run wants deterministic end-state fingerprints).

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
    """
    if workload is None:
        workload = LoadWorkload.from_spec(spec)
    generator = LoadGenerator(workload, workers=workers)

    def oracle_factory() -> ShardedLightorService:
        return ShardedLightorService.create(
            1, initializer, backend="memory",
            max_live_sessions=max(spec.channels, 1), live_k=live_k,
        )

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
            return generator.drive(
                supervisor.front_door(),
                oracle_factory=oracle_factory if oracle else None,
                transport="cluster",
                wire_codec=wire_codec,
            )
        finally:
            supervisor.stop()

    service = ShardedLightorService.create(
        shards,
        initializer,
        backend=backend,
        db_path=db_path,
        max_live_sessions=max(spec.channels, 1),
        live_k=live_k,
    )
    return generator.drive(
        service,
        oracle_factory=oracle_factory if oracle else None,
        transport=transport,
        wire_codec=wire_codec,
        per_channel_pending=per_channel_pending,
    )
