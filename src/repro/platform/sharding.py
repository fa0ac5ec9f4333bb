"""Sharded front door for the LIGHTOR service tier.

One :class:`~repro.platform.service.LightorWebService` worker serves one
store with one streaming orchestrator.  Production traffic — many concurrent
Twitch channels, batch red-dot requests and live ingest interleaved — needs
more than one worker, so :class:`ShardedLightorService` routes video/channel
ids across ``N`` workers, each owning its own storage backend, chat crawler
and :class:`~repro.streaming.session.StreamOrchestrator`.

Routing goes through a shared :class:`~repro.platform.placement.PlacementMap`
— the versioned control plane that replaced the static hash ring of earlier
revisions.  At epoch 0 the map delegates to the same
:class:`~repro.platform.placement.ConsistentHashRing` (virtual nodes over a
stable digest), so placement is deterministic across processes and
byte-identical to the pre-placement front door; epoch bumps — a completed
:meth:`~ShardedLightorService.migrate_channel`, a
:meth:`~ShardedLightorService.reshard` — invalidate every router's placement
memo at once.

Every call for a video id is routed to its home shard and executed under
that shard's re-entrant lock, which makes interleaved batch requests and
live ingest thread-safe per shard while leaving the other shards fully
concurrent.  Because placement can now *change* while calls are in flight,
the router re-checks the placement after acquiring the shard lock and
re-routes if a migration moved the channel in between (a migration fences
both shards by holding their locks, so a call that owns the lock can never
observe a half-moved channel).  The batched ingest surface
(``ingest_chat_batch`` / ``ingest_plays_batch``) holds the lock once per
batch instead of once per event — under load that is the difference
between convoying on the shard lock per message and contending once per
hundreds of messages.

Because every worker runs the same deterministic engines, a sharded service
fed a given workload produces byte-identical red dots and highlight records
to a single worker fed the same workload — even when channels are migrated
or the whole deployment is resharded mid-run.  ``tests/test_sharding.py``
and ``tests/test_resharding.py`` hold it to that.
"""

from __future__ import annotations

import json
import threading
from contextlib import contextmanager
from itertools import chain
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

from repro.core.config import LightorConfig
from repro.core.initializer.initializer import HighlightInitializer
from repro.platform import surface
from repro.platform.api import SimulatedStreamingAPI
from repro.platform.backends import (
    MEMORY_DB_PATH,
    SQLiteStore,
    StorageBackend,
    create_backend,
    is_memory_path,
)
from repro.platform.crawler import ChatCrawler
from repro.platform.placement import ConsistentHashRing, PlacementMap, migrate, reshard
from repro.platform.service import LightorWebService
from repro.utils.rng import SeedSequenceFactory
from repro.utils.validation import ValidationError, require_positive

__all__ = [
    "ConsistentHashRing",
    "LocalShard",
    "ShardedLightorService",
    "shard_db_path",
]

#: The meta key under which a durable shard file records the committed
#: placement (:meth:`PlacementMap.describe`).
PLACEMENT_META = "placement"


def shard_db_path(path: str | Path, shard_index: int) -> str:
    """The per-shard database path derived from a base path.

    ``highlights.db`` becomes ``highlights.shard0.db``, ``highlights.shard1.db``
    … so each shard's SQLite backend owns its own file (one writer per file).
    Suffix-less paths gain only the shard part (``highlights`` →
    ``highlights.shard0``), and ``":memory:"`` — as a ``str`` or a ``Path`` —
    is passed through untouched: suffixing it would silently turn the
    in-process database into a stray file literally named ``:memory:.shard0``.
    """
    if is_memory_path(path):
        return MEMORY_DB_PATH
    base = Path(path)
    return str(base.with_name(f"{base.stem}.shard{shard_index}{base.suffix}"))


def _durable(store: StorageBackend) -> bool:
    """Whether ``store`` is a SQLite file (it carries markers and placement)."""
    return isinstance(store, SQLiteStore) and not is_memory_path(store.path)


class LocalShard(NamedTuple):
    """One in-process shard as a migration handle.

    The steps are the worker's own methods; the fence is the shard lock,
    held until the fence exits, so no routed call runs on the shard while
    a step does.
    """

    service: LightorWebService
    lock: threading.RLock

    list_channels = property(lambda self: self.service.list_channels)
    migrate_out = property(lambda self: self.service.migrate_out)
    migrate_in = property(lambda self: self.service.migrate_in)
    forget_channel = property(lambda self: self.service.forget_channel)

    def fence(self) -> threading.RLock:
        return self.lock


class ShardedLightorService:
    """Placement-routed front door over ``N`` independent service workers.

    Parameters
    ----------
    shards:
        The worker services.  Each must own its *own* store and orchestrator;
        sharing a backend between workers would break the one-writer-per-
        shard locking discipline.
    replicas:
        Virtual nodes per shard on the placement map's hash ring (ignored
        when ``placement`` is given).
    placement:
        An existing :class:`~repro.platform.placement.PlacementMap` to route
        through — the cluster supervisor shares one map between the sharded
        service and the front door.  Built fresh (epoch 0) when omitted.
    """

    def __init__(
        self,
        shards: Sequence[LightorWebService],
        replicas: int = 64,
        placement: PlacementMap | None = None,
    ) -> None:
        if not shards:
            raise ValidationError("a sharded service needs at least one shard")
        self.shards: list[LightorWebService] = list(shards)
        if placement is None:
            placement = PlacementMap(len(self.shards), replicas=replicas)
        elif placement.n_shards != len(self.shards):
            raise ValidationError(
                f"placement map covers {placement.n_shards} shards but "
                f"{len(self.shards)} workers were given"
            )
        self.placement = placement
        self._locks = [threading.RLock() for _ in self.shards]
        # Set by create(): rebuilds a worker for a given (shard_index,
        # n_shards) — the grow path of reshard() needs it to stamp out new
        # shards mid-run with the marker check run against the *new* count.
        self._shard_builder: Callable[[int, int], LightorWebService] | None = None

    # ------------------------------------------------------------- construction
    @classmethod
    def create(
        cls,
        n_shards: int,
        initializer: HighlightInitializer,
        *,
        api: SimulatedStreamingAPI | None = None,
        backend: str = "memory",
        db_path: str | Path | None = None,
        config: LightorConfig | None = None,
        replicas: int = 64,
        backend_factory: Callable[[int], StorageBackend] | None = None,
        **service_kwargs,
    ) -> "ShardedLightorService":
        """Stamp out ``n_shards`` workers over fresh per-shard backends.

        ``backend``/``db_path`` route through
        :func:`~repro.platform.backends.create_backend`; for a file-backed
        SQLite deployment each shard gets its own database file (see
        :func:`shard_db_path`).  ``backend_factory`` overrides both for
        custom wiring.  Extra keyword arguments (``max_live_sessions``,
        ``live_k``, ``live_policy``, …) are forwarded to every
        :class:`LightorWebService`.  The returned service remembers how to
        build a worker, so :meth:`reshard` can grow the deployment later.
        """
        require_positive(n_shards, "n_shards")
        if api is None:
            api = SimulatedStreamingAPI(seeds=SeedSequenceFactory(2020))
        if config is None:
            config = initializer.config

        def default_factory(shard_index: int) -> StorageBackend:
            # Always shard-suffix file paths (even for one shard) so the ring
            # marker is checked on every reuse — switching between 1 and N
            # shards must not silently leave history behind in another file.
            # ``:memory:`` (str or Path) is not a file path: each shard gets
            # its own private in-memory database without any suffixing.
            if backend == "sqlite" and db_path is not None and not is_memory_path(db_path):
                return create_backend(backend, shard_db_path(db_path, shard_index))
            return create_backend(backend, db_path)

        factory = backend_factory if backend_factory is not None else default_factory
        check_marker = (
            backend_factory is None
            and backend == "sqlite"
            and db_path is not None
            and not is_memory_path(db_path)
        )

        def build_shard(shard_index: int, n_shards_now: int) -> LightorWebService:
            # n_shards_now is the deployment size *at build time* — the
            # original count during create(), the grown count when reshard()
            # stamps out a new shard mid-run — so a freshly created shard's
            # marker always records the ring it actually joins.
            store = factory(shard_index)
            try:
                if check_marker:
                    cls._check_shard_marker(store, shard_index, n_shards_now)
                return LightorWebService(
                    store=store,
                    crawler=ChatCrawler(api=api, store=store),
                    initializer=initializer,
                    config=config,
                    **service_kwargs,
                )
            except BaseException:
                store.close()
                raise

        shards: list[LightorWebService] = []
        try:
            for shard_index in range(n_shards):
                shards.append(build_shard(shard_index, n_shards))
            service = cls(shards, replicas=replicas, placement=cls._stored_placement(shards))
        except BaseException:
            for built in shards:
                built.store.close()
            raise
        service._shard_builder = build_shard
        return service

    @staticmethod
    def _stored_placement(shards: Sequence[LightorWebService]) -> PlacementMap | None:
        """The highest-epoch placement :meth:`publish` recorded in the shard
        files, so a migrated channel routes to the shard holding its rows
        (``None``, epoch 0, when no file has one)."""
        rows = [shard.store.get_meta(PLACEMENT_META) for shard in shards if _durable(shard.store)]
        states = [json.loads(row) for row in rows if row is not None]
        if not states:
            return None
        latest = max(states, key=lambda state: state["epoch"])
        return PlacementMap(
            latest["n_shards"], replicas=latest["replicas"], epoch=latest["epoch"],
            pins=latest["pins"],
        )

    @staticmethod
    def _check_shard_marker(store: StorageBackend, shard_index: int, n_shards: int) -> None:
        """Refuse to reuse database files created for a different ring.

        Re-homing video ids without migrating the rows would silently split
        each video's history across files, so a shard-count mismatch is an
        error rather than a corruption — :meth:`reshard` is the sanctioned
        way to change the count, and it rewrites these markers after moving
        the rows.
        """
        if not isinstance(store, SQLiteStore):
            return
        recorded = store.get_meta("n_shards")
        if recorded is not None and int(recorded) != n_shards:
            raise ValidationError(
                f"database {store.path!r} belongs to a {recorded}-shard deployment; "
                f"rerun with that shard count, reshard it, or use a fresh path"
            )
        store.set_meta("n_shards", str(n_shards))
        store.set_meta("shard_index", str(shard_index))

    # ----------------------------------------------------------------- routing
    @property
    def n_shards(self) -> int:
        """Number of workers behind the front door."""
        return len(self.shards)

    @property
    def epoch(self) -> int:
        """The placement epoch this front door is routing at."""
        return self.placement.epoch

    def shard_index(self, video_id: str) -> int:
        """The shard that owns ``video_id`` (this instant's placement)."""
        return self.placement.shard_for(video_id)

    def shard_for(self, video_id: str) -> LightorWebService:
        """The worker service that owns ``video_id``."""
        return self.shards[self.placement.shard_for(video_id)]

    def store_for(self, video_id: str) -> StorageBackend:
        """The storage backend that owns ``video_id``."""
        return self.shard_for(video_id).store

    @contextmanager
    def _routed(self, video_id: str):
        """The owning worker, locked, placement-stable for the block.

        Acquire-then-recheck: placement is read, the shard lock taken, and
        placement read *again* — a migration that moved the channel between
        the two reads (it commits the new epoch while holding both shard
        locks, which we did not hold yet) sends the call around the loop to
        the new home.  Once the re-check passes, the channel cannot move for
        the duration of the block because any migration needs this lock.
        """
        while True:
            index = self.placement.shard_for(video_id)
            lock = self._locks[index]
            lock.acquire()
            if self.placement.shard_for(video_id) == index:
                try:
                    yield self.shards[index]
                finally:
                    lock.release()
                return
            lock.release()

    # The service surface (register_video, request_red_dots, … end_live) is
    # bound from repro.platform.surface below this class: each method runs
    # its target on the owning worker inside _routed.

    def recover_live_sessions(self) -> list:
        """Rebuild every shard's open sessions from their durable checkpoints.

        The sharded twin of
        :meth:`~repro.platform.service.LightorWebService.recover_live_sessions`:
        each shard recovers from its *own* backend under its own lock, and
        because the placement map routes byte-identically across processes at
        a given epoch, a channel recovers on exactly the shard that
        checkpointed it.  Returns the merged
        :class:`~repro.platform.recovery.RecoveredSession` reports, ordered
        by video id.
        """
        recovered = self._on_every_shard(lambda shard: shard.recover_live_sessions())
        return sorted(chain.from_iterable(recovered), key=lambda report: report.video_id)

    # --------------------------------------------------------------- migration
    # The one choreography of repro.platform.placement, run over this tier's
    # LocalShard handles and the fleet hooks below; callers keep calling
    # through this front door the whole time.
    migrate_channel = migrate
    reshard = reshard

    @property
    def handles(self) -> list[LocalShard]:
        """One migration handle per shard: the worker and its lock."""
        return [LocalShard(shard, lock) for shard, lock in zip(self.shards, self._locks)]

    def grow(self, n_shards: int) -> None:
        """Stamp out workers up to ``n_shards`` with the builder ``create()``
        retained; each new file's marker is checked against the new count."""
        if self._shard_builder is None:
            raise ValidationError(
                "this sharded service was built from pre-made workers; "
                "growing needs the shard builder create() retains"
            )
        for index in range(len(self.shards), n_shards):
            self.shards.append(self._shard_builder(index, n_shards))
            self._locks.append(threading.RLock())

    def retire(self, n_shards: int) -> None:
        """Shut down the drained workers from ``n_shards`` on, clearing their
        files' markers and placement so a later grow can adopt them."""
        drained = self.shards[n_shards:]
        del self.shards[n_shards:]
        del self._locks[n_shards:]
        for shard in drained:
            if _durable(shard.store):
                for key in ("n_shards", "shard_index", PLACEMENT_META):
                    shard.store.delete_meta(key)
            shard.shutdown()

    def publish(self) -> None:
        """Stamp every durable shard file with the deployment size (the
        marker ``create()`` checks) and, when no move is in flight, the
        committed placement (the map ``create()`` routes by)."""
        state = self.placement.describe()
        committed = not state["in_flight"] and not state["frozen"]
        for index, shard in enumerate(self.shards):
            store = shard.store
            if _durable(store):
                store.set_meta("n_shards", str(len(self.shards)))
                store.set_meta("shard_index", str(index))
                if committed:
                    store.set_meta(PLACEMENT_META, json.dumps(state, allow_nan=False))

    # The gateway's admin verbs run each step on the channel's home shard.
    def list_channels(self) -> list[str]:
        """Every stored channel id across all shards, sorted."""
        return sorted(set().union(*self._on_every_shard(lambda shard: shard.list_channels())))

    def migrate_out(self, video_id: str) -> dict:
        """:meth:`LightorWebService.migrate_out` on the channel's home shard."""
        with self._routed(video_id) as shard:
            return shard.migrate_out(video_id)

    def migrate_in(self, bundle: dict, was_live: bool = False) -> str:
        """:meth:`LightorWebService.migrate_in` on the channel's home shard."""
        with self._routed(bundle["video"]["video_id"]) as shard:
            return shard.migrate_in(bundle, was_live)

    def forget_channel(self, video_id: str) -> bool:
        """:meth:`LightorWebService.forget_channel` on the channel's home shard."""
        with self._routed(video_id) as shard:
            return shard.forget_channel(video_id)

    # ----------------------------------------------------------------- summary
    def db_paths(self) -> list[str]:
        """Database files behind the shards (empty for non-durable backends)."""
        return [shard.store.path for shard in self.shards if _durable(shard.store)]

    def stats(self) -> dict[str, int]:
        """Store row counts summed across shards (plus shard count and epoch)."""
        totals: dict[str, int] = {
            "shards": self.n_shards,
            "placement_epoch": self.placement.epoch,
        }
        for counts in self._on_every_shard(lambda shard: shard.store.stats()):
            for key, value in counts.items():
                totals[key] = totals.get(key, 0) + value
        return totals

    def suspend(self) -> int:
        """Checkpoint every shard's open sessions and release the backends.

        The sharded twin of
        :meth:`~repro.platform.service.LightorWebService.suspend` — the
        graceful-drain counterpart of :meth:`close`: nothing is finalized, so
        a durable deployment can be resumed byte-exactly with
        :meth:`recover_live_sessions` (``repro recover``).  Returns the total
        number of sessions checkpointed.  Like :meth:`close`, every shard is
        suspended even when one raises.
        """
        return sum(self._on_every_shard(lambda shard: shard.suspend()))

    def close(self) -> None:
        """Shut down every shard: open live sessions are finalized (their
        results persist through the eviction callbacks) before the backends
        are released."""
        self._on_every_shard(lambda shard: shard.shutdown())

    def _on_every_shard(self, step: Callable[[LightorWebService], object]) -> list:
        """``step(shard)`` on every shard under its lock; the results.

        A shard whose step raises must not abort the loop: the remaining
        shards still own live sessions and open backends, and skipping them
        would leak their stores and silently drop their sessions.  The
        first error is re-raised once every shard has had its turn.
        """
        first_error: BaseException | None = None
        results = []
        for shard, lock in zip(self.shards, self._locks):
            with lock:
                try:
                    results.append(step(shard))
                except BaseException as error:  # noqa: BLE001 - re-raised below
                    if first_error is None:
                        first_error = error
        if first_error is not None:
            raise first_error
        return results

surface.bind(
    ShardedLightorService,
    surface.ROUTED,
    "with self._routed({key}) as shard:\n        return shard.{target}({args})",
)
