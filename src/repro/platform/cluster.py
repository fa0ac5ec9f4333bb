"""Multi-process shard cluster: a supervisor and a wire-routing front door.

:class:`~repro.platform.sharding.ShardedLightorService` buys per-channel
isolation, but its shards share one Python process — per-shard worker
threads serialize on the GIL, so adding shards adds no throughput (the flat
curve in ``BENCH_load.json``).  This module runs each shard as its **own OS
process**:

* :class:`ShardClusterSupervisor` spawns ``N`` child workers — each one a
  ``repro serve --shards 1`` gateway bound to its own port over its own
  database file — supervises their boot (a child that dies while the
  cluster is coming up tears the rest down), reports children that die
  mid-run, and stops them with SIGTERM so durable deployments drain,
  checkpoint and stay resumable via ``repro recover``.
* :class:`ClusterFrontDoor` routes every service-surface call to the owning
  shard over :class:`~repro.platform.client.LightorClient`.  Its methods
  are bound from the same :mod:`repro.platform.surface` table as the
  in-process front door's, and it routes through the *same*
  :class:`~repro.platform.placement.PlacementMap` (same digest, same ring at
  epoch 0), so a video id lands on shard ``k`` of the cluster exactly when
  it lands on shard ``k`` in process — which is what lets the load harness
  drive either one and compare fingerprints byte for byte.

The placement map is the cluster's **control plane**.  The supervisor owns
the authoritative copy and pushes it to every worker over
``POST /placement``; a worker that is pushed a map starts refusing channels
it does not own with ``409 Conflict``, and the front door reacts to a 409
by refreshing its map (``GET /placement`` — which also re-learns the
worker address list after a reshard) and retrying against the new owner.
:meth:`ShardClusterSupervisor.migrate_channel` and
:meth:`~ShardClusterSupervisor.reshard` run the one choreography of
:mod:`repro.platform.placement` over a :class:`RemoteShard` handle per
worker (``migrate-out`` → ``migrate-in`` → ``forget`` behind
``/admin/fence``), spawning workers on grow and draining emptied workers on
shrink, while channels that do not move keep serving throughout.

The child protocol is deliberately thin: the worker prints one
machine-readable ``listening on host:port`` line on stdout *before* the
human-readable banner (so ``--port 0`` ephemeral binds are race-free), and
``/healthz`` answering 200 is the readiness barrier.  Every line a child
writes is retained in a bounded per-worker log so a boot failure can show
the culprit's last words.

Lifecycle calls that only make sense next to the database files —
``suspend``, ``recover_live_sessions`` — stay with the *worker processes*:
SIGTERM (``stop()``) makes each child drain and checkpoint its own shard,
and ``repro recover --db-path <base>.shardK.db --shards 1`` resumes it.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
import threading
import time
from collections import deque
from contextlib import contextmanager
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

from repro.platform import codecs, surface, wire
from repro.platform.backends import is_memory_path
from repro.platform.client import GatewayError, LightorClient
from repro.platform.placement import PlacementMap, WrongShardError, migrate, reshard
from repro.platform.sharding import shard_db_path
from repro.utils.logging import get_logger
from repro.utils.validation import ValidationError, require_positive

__all__ = ["ClusterFrontDoor", "RemoteShard", "ShardClusterSupervisor", "ShardWorker"]

_LOGGER = get_logger("platform.cluster")

# The machine-readable readiness line `repro serve` prints before accepting
# traffic.  Anchored and strict: the human-readable banner must never match.
_LISTENING = re.compile(r"^listening on (\S+):(\d+)\s*$")

# Lines of child output retained per worker for failure forensics.
_LOG_LINES = 100


class ShardWorker:
    """One supervised shard subprocess and what the supervisor knows of it."""

    def __init__(self, index: int, command: list[str], db_path: str | None) -> None:
        self.index = index
        self.command = command
        self.db_path = db_path
        self.process: subprocess.Popen | None = None
        self.host: str | None = None
        self.port: int | None = None
        self.log: deque[str] = deque(maxlen=_LOG_LINES)
        self.ready = threading.Event()
        # The supervisor's kept-alive control-plane client, once it listens.
        self.admin: LightorClient | None = None
        self._pump: threading.Thread | None = None

    # ------------------------------------------------------------- lifecycle
    def spawn(self, env: dict[str, str]) -> None:
        """Start the subprocess and the stdout pump thread."""
        self.process = subprocess.Popen(
            self.command,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        self._pump = threading.Thread(
            target=self._pump_stdout, name=f"shard-{self.index}-stdout", daemon=True
        )
        self._pump.start()

    def _pump_stdout(self) -> None:
        """Drain child stdout forever: parse readiness, retain the tail.

        The pipe must be drained for the child's whole life (a full pipe
        buffer would wedge its prints); EOF doubles as the death signal, so
        ``ready`` is always set eventually and boot never waits on a corpse.
        """
        stream = self.process.stdout
        try:
            for line in stream:
                line = line.rstrip("\n")
                self.log.append(line)
                if not self.ready.is_set():
                    match = _LISTENING.match(line)
                    if match:
                        self.host = match.group(1)
                        self.port = int(match.group(2))
                        self.ready.set()
        finally:
            self.ready.set()
            stream.close()

    @property
    def alive(self) -> bool:
        """Whether the subprocess is currently running."""
        return self.process is not None and self.process.poll() is None

    def log_tail(self, lines: int = 10) -> str:
        """The child's last few output lines, indented for error messages."""
        tail = list(self.log)[-lines:]
        return "\n".join(f"    [shard {self.index}] {line}" for line in tail) or (
            f"    [shard {self.index}] (no output)"
        )

    def join_pump(self, timeout: float = 5.0) -> None:
        """Wait for the stdout pump to observe EOF (call after the child died)."""
        if self._pump is not None:
            self._pump.join(timeout=timeout)


def _stop_workers(workers: Sequence[ShardWorker], timeout: float) -> list[int]:
    """SIGTERM every live worker and wait; returns their exit codes.

    A worker still running ``timeout`` seconds after its SIGTERM is killed
    (exit code < 0); one that was never spawned contributes ``-1``.
    """
    for worker in workers:
        if worker.admin is not None:
            worker.admin.close()
        if worker.alive:
            worker.process.terminate()
    codes: list[int] = []
    for worker in workers:
        if worker.process is None:
            codes.append(-1)
            continue
        try:
            worker.process.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            _LOGGER.warning("shard %d ignored SIGTERM for %gs; killing", worker.index, timeout)
            worker.process.kill()
            worker.process.wait()
        worker.join_pump()
        codes.append(worker.process.returncode)
    return codes


class RemoteShard(NamedTuple):
    """A worker gateway as a migration handle.

    Each step is one call on the supervisor's admin client for the worker.
    The fence posts ``/admin/fence`` on entry, which returns once every
    request the worker admitted before it has finished; the placement
    published before it keeps later requests for a moving channel out, so
    exiting it releases nothing.
    """

    client: LightorClient

    list_channels = property(lambda self: self.client.list_channels)
    migrate_out = property(lambda self: self.client.migrate_out)
    migrate_in = property(lambda self: self.client.migrate_in)
    forget_channel = property(lambda self: self.client.forget_channel)

    @contextmanager
    def fence(self):
        self.client.fence()
        yield


class ShardClusterSupervisor:
    """Spawn, watch and stop ``N`` single-shard ``repro serve`` workers.

    Parameters
    ----------
    n_shards:
        Worker processes.  Worker ``k`` owns ring bucket ``k`` — the same
        bucket the in-process front door would route to.
    backend / db_path:
        Storage behind each worker.  With ``backend="sqlite"`` and a file
        path, worker ``k`` is pointed at ``shard_db_path(db_path, k)``
        (``base.db`` → ``base.shardK.db``); the worker's own single-shard
        service suffixes once more, so its file on disk is
        ``base.shardK.shard0.db`` and ``repro recover --db-path
        base.shardK.db --shards 1`` finds it.
    host / base_port:
        Bind address per worker.  ``base_port=0`` (default) gives every
        worker an ephemeral port — the readiness line reports the real one;
        otherwise worker ``k`` binds ``base_port + k``.
    seed / live_k / max_live_sessions / checkpoint_every:
        Forwarded to each worker's ``repro serve`` so the cluster's engine
        state is parameter-identical to an in-process tier built with the
        same values (``seed`` trains the same model deterministically in
        every child).
    max_pending / worker_threads:
        Per-worker gateway admission budget and service thread pool.
    max_pending_per_channel:
        Optional per-channel admission budget forwarded to every worker
        gateway (``serve --max-pending-per-channel``) — one hot channel
        cannot starve a worker's whole global budget.
    boot_timeout:
        Deadline for *all* workers to print readiness and answer
        ``/healthz``.
    client_timeout:
        Socket timeout for the supervisor's own health probes and for
        front doors built via :meth:`front_door`.
    """

    def __init__(
        self,
        n_shards: int,
        *,
        backend: str = "memory",
        db_path: str | Path | None = None,
        host: str = "127.0.0.1",
        base_port: int = 0,
        seed: int = 2020,
        live_k: int | None = None,
        max_live_sessions: int = 64,
        checkpoint_every: int | None = None,
        max_pending: int = 64,
        worker_threads: int = 8,
        max_pending_per_channel: int | None = None,
        boot_timeout: float = 60.0,
        client_timeout: float = 60.0,
        replicas: int = 64,
        wire_codec: str = "json",
    ) -> None:
        require_positive(n_shards, "n_shards")
        require_positive(max_live_sessions, "max_live_sessions")
        if wire_codec not in wire.WIRE_CODECS:
            raise ValidationError(
                f"unknown wire codec {wire_codec!r} (expected one of {wire.WIRE_CODECS})"
            )
        if db_path is not None and backend != "sqlite":
            raise ValidationError("db_path requires the sqlite backend")
        if backend == "sqlite" and db_path is not None and is_memory_path(db_path):
            raise ValidationError(
                "a cluster cannot share ':memory:' databases across processes; "
                "pass a file path or use backend='memory'"
            )
        if base_port < 0:
            raise ValidationError("base_port must be >= 0")
        self.n_shards = n_shards
        self.backend = backend
        self.db_path = None if db_path is None else str(db_path)
        self.host = host
        self.base_port = base_port
        self.seed = seed
        self.live_k = live_k
        self.max_live_sessions = max_live_sessions
        self.checkpoint_every = checkpoint_every
        self.max_pending = max_pending
        self.worker_threads = worker_threads
        self.max_pending_per_channel = max_pending_per_channel
        self.boot_timeout = boot_timeout
        self.client_timeout = client_timeout
        self.replicas = replicas
        self.wire_codec = wire_codec
        # The authoritative placement map: epoch 0 is the legacy ring, every
        # migration and reshard bumps it, and every bump is pushed to every
        # worker before the data moves (the push is the workers' license to
        # 409 traffic for the moving channel).
        self.placement = PlacementMap(n_shards, replicas=replicas)
        self.workers: list[ShardWorker] = []
        self._exit_codes: list[int] | None = None
        self._started = False

    # ----------------------------------------------------------- construction
    def _worker_command(self, index: int) -> tuple[list[str], str | None]:
        port = 0 if self.base_port == 0 else self.base_port + index
        command = [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--host",
            self.host,
            "--port",
            str(port),
            "--shards",
            "1",
            "--backend",
            self.backend,
            "--seed",
            str(self.seed),
            "--max-live-sessions",
            str(self.max_live_sessions),
            "--max-pending",
            str(self.max_pending),
            "--worker-threads",
            str(self.worker_threads),
            "--wire-codec",
            self.wire_codec,
            "--shard-index",
            str(index),
        ]
        db_path: str | None = None
        if self.db_path is not None:
            db_path = shard_db_path(self.db_path, index)
            command += ["--db-path", db_path]
        if self.max_pending_per_channel is not None:
            command += ["--max-pending-per-channel", str(self.max_pending_per_channel)]
        if self.checkpoint_every is not None:
            command += ["--checkpoint-every", str(self.checkpoint_every)]
        if self.live_k is not None:
            command += ["--k", str(self.live_k)]
        return command, db_path

    # -------------------------------------------------------------- lifecycle
    def start(self) -> "ShardClusterSupervisor":
        """Spawn every worker and wait for the whole cluster to be ready.

        Readiness is two barriers per worker: the ``listening on host:port``
        stdout line (which resolves ephemeral ports), then ``/healthz``
        answering over the wire.  Any worker dying — or the
        ``boot_timeout`` expiring — before both barriers tears the whole
        cluster down and raises with the failing worker's output tail.
        """
        if self._started:
            raise ValidationError("cluster already started")
        self._started = True
        try:
            self.workers = self._boot(range(self.n_shards))
            self.publish()
        except BaseException:
            _stop_workers(self.workers, 5.0)
            raise
        _LOGGER.info(
            "cluster up: %d shard worker(s) at %s",
            self.n_shards,
            ", ".join(f"{w.host}:{w.port}" for w in self.workers),
        )
        return self

    def _boot(self, indices: Iterable[int]) -> list[ShardWorker]:
        """Spawn one worker per shard index and wait until each serves.

        Any worker dying, or ``boot_timeout`` expiring, before both
        readiness barriers stops every worker this call spawned and raises
        with the culprit's output tail.
        """
        # The child environment, with ``repro`` guaranteed importable.
        env = dict(os.environ)
        src_dir = str(Path(__file__).resolve().parents[2])
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = src_dir if not existing else os.pathsep.join([src_dir, existing])
        deadline = time.monotonic() + self.boot_timeout
        fresh: list[ShardWorker] = []
        try:
            for index in indices:
                command, db_path = self._worker_command(index)
                worker = ShardWorker(index, command, db_path)
                worker.spawn(env)
                fresh.append(worker)
            for worker in fresh:
                remaining = deadline - time.monotonic()
                if remaining <= 0 or not worker.ready.wait(timeout=remaining):
                    raise RuntimeError(
                        f"shard {worker.index} did not report readiness within "
                        f"{self.boot_timeout:g}s; its output was:\n{worker.log_tail()}"
                    )
                if worker.port is None:
                    # The pump hit EOF before a listening line: the child died
                    # during boot (bad flags, bound port taken, poisoned db).
                    worker.process.wait()
                    raise RuntimeError(
                        f"shard {worker.index} exited with code "
                        f"{worker.process.returncode} during boot; its output "
                        f"was:\n{worker.log_tail()}"
                    )
                worker.admin = LightorClient(
                    worker.host, worker.port, timeout=self.client_timeout,
                    wire_codec=self.wire_codec,
                )
            for worker in fresh:
                while True:
                    if not worker.alive:
                        worker.process.wait()
                        raise RuntimeError(
                            f"shard {worker.index} exited with code "
                            f"{worker.process.returncode} before /healthz answered; "
                            f"its output was:\n{worker.log_tail()}"
                        )
                    try:
                        if worker.admin.healthz().get("status") == "ok":
                            break
                    except OSError:
                        pass
                    if time.monotonic() >= deadline:
                        raise RuntimeError(
                            f"shard {worker.index} at {worker.host}:{worker.port} "
                            f"did not answer /healthz within {self.boot_timeout:g}s"
                        )
                    time.sleep(0.05)
        except BaseException:
            _stop_workers(fresh, 5.0)
            raise
        return fresh

    def dead_shards(self) -> list[int]:
        """Indices of workers that have exited (empty on a healthy cluster).

        The mid-run supervision hook: ``repro cluster`` polls it and fails
        the deployment when a worker dies underneath the front door.
        """
        if self._exit_codes is not None:
            return []
        return [worker.index for worker in self.workers if not worker.alive]

    def stop(self, timeout: float = 30.0) -> list[int]:
        """SIGTERM every worker and wait; returns their exit codes.

        SIGTERM is the graceful path: each worker drains its gateway and —
        on a durable backend — suspends its sessions (checkpoint and
        release), so the cluster's databases resume byte-exactly via
        ``repro recover``.  A worker that ignores the deadline is killed
        (exit code < 0).  Idempotent: the first result is cached, and a
        worker that already exited just contributes its code.
        """
        if self._exit_codes is not None:
            return self._exit_codes
        self._exit_codes = _stop_workers(self.workers, timeout)
        return self._exit_codes

    # --------------------------------------------------------- placement plane
    # The one choreography of repro.platform.placement, run over this fleet's
    # RemoteShard handles and the fleet hooks below: grow spawns workers,
    # retire SIGTERMs drained ones, and unmoved channels keep serving.
    migrate_channel = migrate
    reshard = reshard

    @property
    def handles(self) -> list[RemoteShard]:
        """One migration handle per worker, in shard order."""
        if not self._started or self._exit_codes is not None:
            raise ValidationError("migration needs a started, running cluster")
        return [RemoteShard(worker.admin) for worker in self.workers]

    def grow(self, n_shards: int) -> None:
        """Spawn workers up to ``n_shards``, boot-checked like :meth:`start`."""
        self.workers.extend(self._boot(range(len(self.workers), n_shards)))
        self.n_shards = n_shards

    def retire(self, n_shards: int) -> None:
        """SIGTERM the drained workers from ``n_shards`` on and wait."""
        drained = self.workers[n_shards:]
        del self.workers[n_shards:]
        _stop_workers(drained, 30.0)
        self.n_shards = n_shards

    def publish(self) -> None:
        """Install the supervisor's placement map on every worker.  A worker
        that has answered the push 409s traffic for channels the map takes
        away from it, so the front door's refresh-and-retry is lossless."""
        payload = codecs.placement_map_to_dict(self.placement)
        for worker in self.workers:
            worker.admin.put_placement(payload, self.addresses)

    # ---------------------------------------------------------------- routing
    @property
    def addresses(self) -> list[tuple[str, int]]:
        """``(host, port)`` per worker, in shard order (after :meth:`start`)."""
        return [(worker.host, worker.port) for worker in self.workers]

    def front_door(self) -> "ClusterFrontDoor":
        """A new :class:`ClusterFrontDoor` over this cluster's workers.

        Each call builds an independent front door (own sockets) — hand one
        to each thread that needs the cluster.  All of them share the
        supervisor's live placement map, so an in-process reshard re-routes
        every front door the instant it commits; address changes (grown or
        drained workers) are still learned per front door via the 409
        refresh protocol.
        """
        return ClusterFrontDoor(
            self.addresses,
            replicas=self.replicas,
            timeout=self.client_timeout,
            wire_codec=self.wire_codec,
            placement=self.placement,
        )

    def __enter__(self) -> "ShardClusterSupervisor":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()


class ClusterFrontDoor:
    """Route the service surface to shard processes through a placement map.

    The wire twin of :class:`~repro.platform.sharding.ShardedLightorService`:
    same placement map, same method surface — callers written against the
    in-process front door (the load generator above all) drive a process
    cluster unchanged.  At epoch 0 the map *is* the legacy consistent-hash
    ring, so routing is byte-identical to every earlier deployment; once the
    cluster resharding control plane starts bumping epochs, a 409 from a
    worker makes the front door refresh its map (and, after a reshard, its
    worker address list) and retry transparently — callers never see the
    redirect.

    One kept-alive :class:`~repro.platform.client.LightorClient` per shard;
    like the client itself, a front door is **not** thread-safe — build one
    per thread via :meth:`clone` (or
    :meth:`ShardClusterSupervisor.front_door`).  Clones *share* the placement
    map object, so one clone's refresh re-routes them all.
    """

    def __init__(
        self,
        addresses: Sequence[tuple[str, int]],
        *,
        replicas: int = 64,
        timeout: float = 60.0,
        wire_codec: str = "json",
        placement: PlacementMap | None = None,
    ) -> None:
        if not addresses:
            raise ValidationError("a cluster front door needs at least one shard address")
        self.addresses = [(str(host), int(port)) for host, port in addresses]
        self._replicas = replicas
        self._timeout = timeout
        self.wire_codec = wire_codec
        if placement is None:
            placement = PlacementMap(len(self.addresses), replicas=replicas)
        self.placement = placement
        self._clients = [
            LightorClient(host, port, timeout=timeout, wire_codec=wire_codec)
            for host, port in self.addresses
        ]

    # ----------------------------------------------------------------- routing
    @property
    def n_shards(self) -> int:
        """Number of shard processes behind the front door."""
        return len(self._clients)

    @property
    def epoch(self) -> int:
        """The placement epoch this front door is routing with."""
        return self.placement.epoch

    def shard_index(self, video_id: str) -> int:
        """The shard that owns ``video_id`` (identical to the in-process map)."""
        return self.placement.shard_for(video_id)

    def client_for(self, video_id: str) -> LightorClient:
        """The wire client of the shard owning ``video_id``."""
        index = self.shard_index(video_id)
        if index >= len(self._clients):
            # The shared map already routes to a shard this front door has
            # not met (a mid-reshard grow): learn the new address list.
            self._refresh_placement()
            index = self.shard_index(video_id)
            if index >= len(self._clients):
                raise ValidationError(
                    f"placement routes {video_id!r} to shard {index} but the "
                    f"front door only knows {len(self._clients)} worker(s)"
                )
        return self._clients[index]

    def _refresh_placement(self) -> None:
        """Pull the freshest placement (and worker addresses) from the fleet.

        Every reachable worker is asked; every answer is installed (the map
        keeps the newest epoch), and the best answer's address list replaces
        this front door's clients when it differs — that is how a front door
        built before a reshard learns about grown or drained workers without
        talking to the supervisor.
        """
        best: dict | None = None
        for client in list(self._clients):
            try:
                payload = client.get_placement()
            except (ValidationError, GatewayError, OSError):
                # Unreachable, drained, or placement-less worker: any other
                # worker's answer is as authoritative (the supervisor pushes
                # to all of them in lockstep).
                continue
            self.placement.install(codecs.placement_map_from_dict(payload["placement"]))
            if best is None or payload["placement"]["epoch"] > best["placement"]["epoch"]:
                best = payload
        if best is None:
            return
        addresses = [(str(host), int(port)) for host, port in best.get("addresses", [])]
        if addresses and addresses != self.addresses:
            stale = self._clients
            self.addresses = addresses
            self._clients = [
                LightorClient(host, port, timeout=self._timeout, wire_codec=self.wire_codec)
                for host, port in addresses
            ]
            for client in stale:
                client.close()

    def _call(self, video_id: str, call):
        """Run one client call against the channel's owner, riding out 409s.

        The retry loop of the placement protocol: a ``409 Conflict`` means
        the worker disowns the channel (moved, or mid-migration), so the
        front door refreshes its map and retries — immediately when the
        route changed, after a short sleep when it did not (the channel is
        in flight and the commit push has not landed yet).  Bounded by the
        client timeout so a wedged control plane surfaces as the 409 rather
        than spinning forever.
        """
        deadline = time.monotonic() + self._timeout
        while True:
            index = self.shard_index(video_id)
            try:
                return call(self.client_for(video_id))
            except WrongShardError:
                if time.monotonic() >= deadline:
                    raise
                self._refresh_placement()
                if self.shard_index(video_id) == index:
                    time.sleep(0.02)

    def store_for(self, video_id: str) -> "ClusterFrontDoor":
        """What the load harness reads persisted state through: this front door.

        Its stored-state reads (``get_red_dots``, ``latest_highlights``,
        ``highlight_history``, ``get_interactions``) have the backend's
        signatures and cross the wire to the owning shard, so parity checks
        see exactly what the shard *process* persisted.
        """
        return self

    def clone(self) -> "ClusterFrontDoor":
        """An independent front door over the same shards (for another thread).

        Shares this front door's placement map — sockets are per-clone, the
        control plane is common.
        """
        return ClusterFrontDoor(
            self.addresses,
            replicas=self._replicas,
            timeout=self._timeout,
            wire_codec=self.wire_codec,
            placement=self.placement,
        )

    # The service surface is bound from repro.platform.surface below this
    # class: each method forwards to the owning shard's client through _call.

    # ----------------------------------------------------------- observability
    def healthz(self) -> list[dict]:
        """Every shard's health payload, in shard order."""
        return [client.healthz() for client in self._clients]

    # -------------------------------------------------------------- lifecycle
    def close(self) -> None:
        """Release every kept-alive connection.

        Closes only the front door's sockets — the shard *processes* belong
        to the supervisor (``stop()`` drains and checkpoints them).  Safe to
        call more than once, matching the in-process front door's contract
        that the load harness may close the service it drove.
        """
        for client in self._clients:
            client.close()

    def __enter__(self) -> "ClusterFrontDoor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


surface.bind(
    ClusterFrontDoor,
    surface.ROUTED,
    "return self._call({key}, lambda client: client.{name}({args}))",
)
