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
re-routes if a migration moved the channel in between (migrations hold both
shard locks, so a call that owns the lock can never observe a half-moved
channel).  The batched ingest surface (``ingest_chat_batch`` /
``ingest_plays_batch``) holds the lock once per batch instead of once per
event — under load that is the difference between convoying on the shard
lock per message and contending once per hundreds of messages.

Because every worker runs the same deterministic engines, a sharded service
fed a given workload produces byte-identical red dots and highlight records
to a single worker fed the same workload — even when channels are migrated
or the whole deployment is resharded mid-run.  ``tests/test_sharding.py``
and ``tests/test_resharding.py`` hold it to that.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

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
from repro.platform.placement import ConsistentHashRing, PlacementMap
from repro.platform.service import LightorWebService
from repro.utils.rng import SeedSequenceFactory
from repro.utils.validation import ValidationError, require_positive

__all__ = [
    "ChannelMigration",
    "ConsistentHashRing",
    "ReshardReport",
    "ShardedLightorService",
    "shard_db_path",
]


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


@dataclass(frozen=True)
class ChannelMigration:
    """The outcome of one :meth:`ShardedLightorService.migrate_channel`.

    ``seconds`` is the channel's unavailability window: the wall-clock time
    both shard locks were held while the channel's rows and live session
    moved.  ``moved`` is False when the channel already lived on the
    destination and nothing happened.
    """

    video_id: str
    src: int
    dst: int
    was_live: bool
    seconds: float
    moved: bool = True


@dataclass(frozen=True)
class ReshardReport:
    """The outcome of one :meth:`ShardedLightorService.reshard`."""

    old_n_shards: int
    new_n_shards: int
    epoch: int
    migrations: list[ChannelMigration] = field(default_factory=list)

    @property
    def moved(self) -> int:
        """Number of channels that actually changed shards."""
        return sum(1 for m in self.migrations if m.moved)

    def pause_seconds(self) -> list[float]:
        """Per-channel unavailability windows, one per completed move."""
        return [m.seconds for m in self.migrations if m.moved]


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
        except BaseException:
            for built in shards:
                built.store.close()
            raise
        service = cls(shards, replicas=replicas)
        service._shard_builder = build_shard
        return service

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

    def _rewrite_shard_markers(self) -> None:
        """Stamp every surviving durable shard with the current ring size.

        The satellite of a completed reshard: without this, the next
        ``create()`` over the same files would reject them as belonging to
        the pre-reshard deployment (stale-marker-after-shrink).
        """
        for index, shard in enumerate(self.shards):
            store = shard.store
            if isinstance(store, SQLiteStore) and not is_memory_path(store.path):
                store.set_meta("n_shards", str(len(self.shards)))
                store.set_meta("shard_index", str(index))

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
        recovered = []
        for shard, lock in zip(self.shards, self._locks):
            with lock:
                recovered.extend(shard.recover_live_sessions())
        return sorted(recovered, key=lambda report: report.video_id)

    # --------------------------------------------------------------- migration
    def list_channels(self) -> list[str]:
        """Every stored channel id across all shards, sorted."""
        ids: set[str] = set()
        for shard, lock in zip(self.shards, self._locks):
            with lock:
                ids.update(video.video_id for video in shard.store.list_videos())
        return sorted(ids)

    def migrate_out(self, video_id: str) -> dict:
        """Detach and export one channel for a cross-process migration.

        Step one of the cluster's three-step choreography (out → in →
        forget): the live session (if any) is checkpointed and dropped, and
        the channel's complete stored state is returned as a strict-JSON
        bundle.  The rows stay on this worker until :meth:`forget_channel` —
        a crash between the steps loses nothing.
        """
        with self._routed(video_id) as shard:
            was_live = shard.detach_channel(video_id)
            return {"bundle": shard.store.export_channel(video_id), "was_live": was_live}

    def import_channel(self, bundle: dict, was_live: bool = False) -> str:
        """Import a :meth:`migrate_out` bundle onto this deployment.

        Step two of the choreography, run on the destination worker: the
        rows are recreated through the ordinary write primitives and — when
        the source reported the channel live — its session is resumed from
        the bundled checkpoint via the recovery path.
        """
        video_id = bundle["video"]["video_id"]
        with self._routed(video_id) as shard:
            shard.store.import_channel(bundle)
            if was_live:
                shard.attach_channel(video_id)
        return video_id

    def forget_channel(self, video_id: str) -> bool:
        """Drop every stored row for a channel (migration source cleanup).

        Step three of the choreography: only called after the destination
        confirmed the import, so deleting here cannot lose data.  Returns
        whether the channel existed.
        """
        with self._routed(video_id) as shard:
            existed = shard.store.delete_channel(video_id)
            shard._drop_checkpoint_state(video_id)
            return existed

    def migrate_channel(self, video_id: str, dst_shard: int) -> ChannelMigration:
        """Move one channel — rows and live session — to another shard.

        The in-process data plane: suspend-checkpoint on the source (no
        finalize, so stored dots survive), bundle export, import + snapshot
        resume on the destination (exactly the ``repro recover`` path), then
        source cleanup and a placement epoch bump.  Both shard locks are held
        for the duration, ordered by index to stay deadlock-free against
        concurrent migrations; traffic for *other* channels on either shard
        waits only for this channel's move (the measured ``seconds`` window),
        and traffic for this channel re-routes via :meth:`_routed`'s
        re-check when the locks release.
        """
        if not 0 <= dst_shard < len(self.shards):
            raise ValidationError(
                f"dst_shard must name one of {len(self.shards)} shards, got {dst_shard!r}"
            )
        while True:
            src = self.placement.shard_for(video_id)
            if src == dst_shard:
                return ChannelMigration(
                    video_id=video_id, src=src, dst=dst_shard,
                    was_live=False, seconds=0.0, moved=False,
                )
            first, second = sorted((src, dst_shard))
            with self._locks[first], self._locks[second]:
                if self.placement.shard_for(video_id) != src:
                    continue  # moved underneath us; re-route and retry
                started = time.perf_counter()
                self.placement.begin_migration(video_id)
                source, destination = self.shards[src], self.shards[dst_shard]
                try:
                    if not source.store.has_video(video_id):
                        raise ValidationError(
                            f"channel {video_id!r} has no stored rows on shard {src}; "
                            "register or start it before migrating"
                        )
                    was_live = source.detach_channel(video_id)
                    destination.store.import_channel(source.store.export_channel(video_id))
                    if was_live:
                        destination.attach_channel(video_id)
                    source.store.delete_channel(video_id)
                    source._drop_checkpoint_state(video_id)
                except BaseException:
                    self.placement.abort_migration(video_id)
                    raise
                self.placement.complete_migration(video_id, dst_shard)
                return ChannelMigration(
                    video_id=video_id, src=src, dst=dst_shard,
                    was_live=was_live, seconds=time.perf_counter() - started,
                )

    def reshard(self, new_n_shards: int) -> ReshardReport:
        """Online reshard: move to a ``new_n_shards``-worker deployment.

        A planned sequence of :meth:`migrate_channel` calls: on a grow, the
        new workers are stamped out first (via the builder ``create()``
        retained, with the marker check run against the *new* count); the
        placement map plans the minimal move set; each moved channel drains
        through the ordinary migration path while unmoved channels keep
        serving; then the ring is swapped (:meth:`PlacementMap.commit_reshard`),
        drained workers are shut down on a shrink, and surviving durable
        shards get their markers rewritten.  Callers keep calling through
        this front door the whole time.
        """
        require_positive(new_n_shards, "new_n_shards")
        old_n_shards = len(self.shards)
        if new_n_shards == old_n_shards:
            return ReshardReport(
                old_n_shards=old_n_shards,
                new_n_shards=new_n_shards,
                epoch=self.placement.epoch,
            )
        if new_n_shards > old_n_shards:
            if self._shard_builder is None:
                raise ValidationError(
                    "this sharded service was built from pre-made workers; "
                    "growing needs the shard builder create() retains"
                )
            for index in range(old_n_shards, new_n_shards):
                self.shards.append(self._shard_builder(index, new_n_shards))
                self._locks.append(threading.RLock())
        # Bulk phase: drain the planned channel set with no global barrier —
        # unmoved channels keep serving, only the channel in flight pauses.
        plan = self.placement.plan_reshard(self.list_channels(), new_n_shards)
        migrations = [self.migrate_channel(move.video_id, move.dst) for move in plan]
        # Commit barrier: a channel created *during* the bulk phase was
        # placed by the old ring and would be stranded by the ring swap
        # (its traffic re-routes, its rows do not).  Holding every shard
        # lock excludes all channel creation — start_live runs under
        # _routed — so a census taken here is complete; sweep the
        # stragglers (the locks are re-entrant) and swap the ring before
        # anything else can run.  The barrier lasts one sweep, not the
        # bulk migrations.
        locks = list(self._locks)
        for lock in locks:
            lock.acquire()
        try:
            follow_up = self.placement.plan_reshard(self.list_channels(), new_n_shards)
            migrations.extend(
                self.migrate_channel(move.video_id, move.dst) for move in follow_up
            )
            epoch = self.placement.commit_reshard(new_n_shards)
        finally:
            for lock in reversed(locks):
                lock.release()
        if new_n_shards < old_n_shards:
            drained = self.shards[new_n_shards:]
            del self.shards[new_n_shards:]
            del self._locks[new_n_shards:]
            for shard in drained:
                store = shard.store
                if isinstance(store, SQLiteStore) and not is_memory_path(store.path):
                    # The drained file belongs to no deployment any more;
                    # clearing its marker lets a later grow adopt the (now
                    # channel-empty) file instead of refusing it as stale.
                    store.delete_meta("n_shards")
                    store.delete_meta("shard_index")
                shard.shutdown()
        self._rewrite_shard_markers()
        return ReshardReport(
            old_n_shards=old_n_shards,
            new_n_shards=new_n_shards,
            epoch=epoch,
            migrations=migrations,
        )

    # ----------------------------------------------------------------- summary
    def db_paths(self) -> list[str]:
        """Database files behind the shards (empty for non-durable backends)."""
        return [
            shard.store.path
            for shard in self.shards
            if isinstance(shard.store, SQLiteStore) and not is_memory_path(shard.store.path)
        ]

    def stats(self) -> dict[str, int]:
        """Store row counts summed across shards (plus shard count and epoch)."""
        totals: dict[str, int] = {
            "shards": self.n_shards,
            "placement_epoch": self.placement.epoch,
        }
        for shard, lock in zip(self.shards, self._locks):
            with lock:
                for key, value in shard.store.stats().items():
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
        suspended even when one raises; the first error is re-raised at the
        end.
        """
        first_error: BaseException | None = None
        checkpointed = 0
        for shard, lock in zip(self.shards, self._locks):
            with lock:
                try:
                    checkpointed += shard.suspend()
                except BaseException as error:  # noqa: BLE001 - re-raised below
                    if first_error is None:
                        first_error = error
        if first_error is not None:
            raise first_error
        return checkpointed

    def close(self) -> None:
        """Shut down every shard: open live sessions are finalized (their
        results persist through the eviction callbacks) before the backends
        are released.

        A shard whose ``shutdown()`` raises must not abort the loop: the
        remaining shards still own live sessions and open backends, and
        skipping them would leak every one of their stores and silently drop
        their session finalization.  Every shard is therefore closed
        best-effort and the first error is re-raised once all of them have
        been given the chance.
        """
        first_error: BaseException | None = None
        for shard, lock in zip(self.shards, self._locks):
            with lock:
                try:
                    shard.shutdown()
                except BaseException as error:  # noqa: BLE001 - re-raised below
                    if first_error is None:
                        first_error = error
        if first_error is not None:
            raise first_error


surface.bind(
    ShardedLightorService,
    surface.ROUTED,
    "with self._routed({key}) as shard:\n        return shard.{target}({args})",
)
