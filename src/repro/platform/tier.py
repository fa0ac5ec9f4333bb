"""One description of a service tier, validated once, and one way to open it.

The CLI's tier commands (``stream``, ``recover``, ``reshard``, ``serve``,
``cluster``, ``load``) and the load driver's entry points (``run_load``,
``run_scenario``, ``replay_trace``) describe their tier with one
:class:`TierSpec`, which refuses every combination the tier cannot run
before a model is trained, a file opened or a worker spawned.
:func:`open_tier` builds it: the in-process sharded tier, or a supervised
fleet of shard worker processes on ``transport="cluster"``.  The library
constructors behind it keep their own input checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from repro.core.initializer.initializer import HighlightInitializer
from repro.platform import wire
from repro.platform.backends import BACKEND_KINDS, is_memory_path
from repro.platform.sharding import ShardedLightorService, shard_db_path
from repro.utils.validation import ValidationError

__all__ = [
    "DEFAULT_SEED", "SQLITE_CADENCE", "TRANSPORTS", "Tier", "TierSpec", "open_tier",
    "serving_model",
]

#: How callers reach the tier: direct calls, an HTTP gateway, or a fleet of
#: shard worker processes.
TRANSPORTS = ("inproc", "http", "cluster")
#: Session-checkpoint cadence (persisted events) of a SQLite tier when none
#: is given: a durable backend is crash-safe by default.
SQLITE_CADENCE = 500
#: The dataset seed the serving model is trained from unless told otherwise.
DEFAULT_SEED = 2020


def serving_model(seed: int = DEFAULT_SEED) -> HighlightInitializer:
    """The serving model, trained deterministically from ``seed``.

    Session checkpoints do not embed this shared, read-only model: every
    process that serves, recovers or reshards a deployment retrains it.
    """
    from repro.core.config import LightorConfig
    from repro.datasets import DatasetSpec, build_dataset

    initializer = HighlightInitializer(config=LightorConfig())
    initializer.fit([build_dataset(DatasetSpec.dota2(size=1, seed=seed))[0].training_pair])
    return initializer


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


@dataclass(frozen=True)
class TierSpec:
    """What tier to run: storage, shards, transport and serving budgets.

    Fields are named, and refusals worded, after the CLI flags
    (``db_path`` is ``--db-path``).  ``None`` means unset: the cadence
    rule of :attr:`cadence`, the engine's default ``k``, no per-channel
    admission budget.  ``workers`` sizes the load driver's pool;
    ``max_pending``/``worker_threads``/``max_pending_per_channel`` are the
    wire gateways' budgets; ``kill`` says the tier will be crashed and
    recovered mid-run.
    """

    backend: str = "memory"
    db_path: str | Path | None = None
    shards: int = 1
    checkpoint_every: int | None = None
    transport: str = "inproc"
    wire_codec: str = "json"
    workers: int = 4
    k: int | None = None
    max_live_sessions: int = 64
    max_pending: int = 64
    worker_threads: int = 8
    max_pending_per_channel: int | None = None
    kill: bool = False

    def __post_init__(self) -> None:
        for name in ("shards", "workers", "max_live_sessions", "max_pending", "worker_threads",
                     "checkpoint_every", "k", "max_pending_per_channel"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ValidationError(f"{_flag(name)} must be at least 1, got {value}")
        if self.backend not in BACKEND_KINDS:
            raise ValidationError(
                f"unknown backend {self.backend!r} (expected one of {BACKEND_KINDS})"
            )
        if self.db_path is not None and self.backend != "sqlite":
            raise ValidationError("--db-path requires --backend sqlite")
        if self.transport not in TRANSPORTS:
            raise ValidationError(
                f"unknown transport {self.transport!r} (expected one of {TRANSPORTS})"
            )
        if self.wire_codec not in wire.WIRE_CODECS:
            raise ValidationError(
                f"unknown wire codec {self.wire_codec!r} (expected one of {wire.WIRE_CODECS})"
            )
        wire_only = [
            _flag(name)
            for name, unset in (("wire_codec", "json"), ("max_pending_per_channel", None))
            if getattr(self, name) != unset
        ]
        if self.transport == "inproc" and wire_only:
            raise ValidationError(
                f"{wire_only[0]} applies to wire transports only (http/cluster)"
            )
        if self.kill and self.transport == "cluster":
            raise ValidationError(
                "a kill over transport='cluster' is not supported: the worker "
                "processes would have to restart from their files"
            )
        if self.kill and not self.durable:
            raise ValidationError(
                "kill/recover needs a file-backed SQLite store (--backend sqlite "
                "and a --db-path); an in-memory database cannot survive the "
                "simulated crash"
            )

    @property
    def durable(self) -> bool:
        """Whether the stores are files that outlive the process."""
        return self.db_path is not None and not is_memory_path(self.db_path)

    @property
    def cadence(self) -> int | None:
        """``checkpoint_every`` if set; else :data:`SQLITE_CADENCE` on
        sqlite and no checkpointing on memory."""
        if self.checkpoint_every is not None:
            return self.checkpoint_every
        return SQLITE_CADENCE if self.backend == "sqlite" else None


class Tier:
    """An open tier; a context manager whose :meth:`close` finalizes.

    ``service`` is the front door that fingerprints and recovery read
    through: the in-process ``ShardedLightorService``, or a
    ``ClusterFrontDoor`` over ``supervisor``'s fleet.  ``target`` is what a
    fault-schedule action runs on: the supervisor, else the service.
    """

    def __init__(self, spec: TierSpec, service, *, supervisor=None, rebuild=None) -> None:
        self.spec = spec
        self.service = service
        self.supervisor = supervisor
        self.reopenable = rebuild is not None
        self._rebuild = rebuild
        self._gateway = None
        self._clients: list = []

    @property
    def target(self):
        return self.supervisor if self.supervisor is not None else self.service

    def connect(self, n: int) -> list:
        """``n`` call surfaces, one per driver worker.

        ``inproc`` shares the service; ``cluster`` clones the front door
        (own sockets, shared placement); ``http`` serves the tier on a
        loopback gateway, its budgets raised to cover the pool's one
        blocking request per worker, and gives each worker a client.
        """
        if self.spec.transport == "inproc":
            return [self.service] * n
        if self.spec.transport == "cluster":
            self._clients = [self.service.clone() for _ in range(n)]
            return list(self._clients)
        from repro.platform.client import LightorClient
        from repro.platform.server import GatewayThread

        self._gateway = GatewayThread(
            self.service,
            max_pending=max(self.spec.max_pending, n + 2),
            worker_threads=max(self.spec.worker_threads, min(32, n)),
            max_pending_per_channel=self.spec.max_pending_per_channel,
        )
        host, port = self._gateway.start()
        self._clients = [
            LightorClient(host, port, wire_codec=self.spec.wire_codec) for _ in range(n)
        ]
        return list(self._clients)

    def release(self, checkpoint: bool = False) -> int:
        """Let go of the tier without finalizing a session.

        The wire is cut, not drained.  With ``checkpoint`` every open
        session is checkpointed first (a graceful drain); without, the
        stores close as they stand (a crash).  Returns the sessions
        checkpointed.
        """
        self._disconnect(drain=False)
        service, self.service = self.service, None
        if checkpoint:
            return service.suspend()
        for shard in service.shards:
            shard.store.close()
        return 0

    def reopen(self, n_shards: int):
        """Crash the in-process tier; build a fresh ``n_shards`` tier over
        its files (sessions not yet recovered) and return its front door."""
        self.release()
        self.service = self._rebuild(n_shards)
        return self.service

    def close(self) -> None:
        """Drain the wire, finalize every open session, stop the fleet."""
        self._disconnect(drain=True)
        service, self.service = self.service, None
        supervisor, self.supervisor = self.supervisor, None
        try:
            if service is not None:
                service.close()
        finally:
            if supervisor is not None:
                supervisor.stop()

    def _disconnect(self, drain: bool) -> None:
        clients, self._clients = self._clients, []
        gateway, self._gateway = self._gateway, None
        for client in clients:
            client.close()
        if gateway is not None:
            gateway.stop(drain=drain)

    def __enter__(self) -> "Tier":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def open_tier(
    spec: TierSpec,
    model: HighlightInitializer | None = None,
    *,
    seed: int = DEFAULT_SEED,
    crash_safe: bool = True,
    **options,
) -> Tier:
    """Build the tier ``spec`` describes and return it open.

    ``model`` serves an in-process tier (default: :func:`serving_model` of
    ``seed``); cluster workers each train theirs from ``seed``.
    ``crash_safe=False`` turns session checkpoints off whatever
    :attr:`TierSpec.cadence` says (a load run with no kill).  ``options``
    go to the constructor: ``live_policy`` in process; ``host``,
    ``base_port`` and ``boot_timeout`` on ``cluster``.  A ``kill`` spec
    needs fresh files: an earlier run's rows would be recovered as this
    run's.
    """
    cadence = spec.cadence if crash_safe else None
    for shard_index in range(spec.shards if spec.kill else 0):
        stale = Path(shard_db_path(spec.db_path, shard_index))
        if stale.exists():
            raise ValidationError(
                f"kill/recover needs fresh database files, but {stale} already "
                "exists (left by an earlier run?); remove it or pick another --db-path"
            )
    if spec.transport == "cluster":
        from repro.platform.cluster import ShardClusterSupervisor

        supervisor = ShardClusterSupervisor(
            spec.shards,
            backend=spec.backend,
            db_path=spec.db_path,
            seed=seed,
            live_k=spec.k,
            max_live_sessions=spec.max_live_sessions,
            checkpoint_every=cadence,
            max_pending=spec.max_pending,
            worker_threads=spec.worker_threads,
            max_pending_per_channel=spec.max_pending_per_channel,
            wire_codec=spec.wire_codec,
            **options,
        )
        supervisor.start()
        return Tier(spec, supervisor.front_door(), supervisor=supervisor)

    model = model if model is not None else serving_model(seed)

    def build(n_shards: int) -> ShardedLightorService:
        return ShardedLightorService.create(
            n_shards,
            model,
            backend=spec.backend,
            db_path=spec.db_path,
            live_k=spec.k,
            max_live_sessions=spec.max_live_sessions,
            checkpoint_every=cadence,
            **options,
        )

    return Tier(spec, build(spec.shards), rebuild=build)
