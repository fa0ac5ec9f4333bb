"""Placement as a first-class control plane.

Before this module, shard ownership was frozen at construction time:
``ConsistentHashRing(n_shards)`` was instantiated independently inside the
sharded service, the cluster front door and the bench oracle, and each
layer memoized placements under its own private lock.  Nothing could ever
*move* a channel, because no layer owned a mutable notion of "who serves
what".

:class:`PlacementMap` makes that notion explicit: a versioned
``{channel → shard}`` assignment with a monotonically increasing ``epoch``.
At epoch 0 it delegates to the same :class:`ConsistentHashRing` the layers
used before, so routing is byte-identical for existing deployments — no
migration needed, ``repro recover`` still resumes pre-refactor checkpoints
(pinned by ``tests/test_placement.py``).  Every mutation — pinning a channel
to a new shard after a migration, swapping the ring during a reshard — bumps
the epoch and invalidates the built-in placement memo, which is the
``_placements``/``_placements_lock`` pattern that previously lived
per-layer, now shared by every router consulting the same map.

The control-plane/data-plane split:

* **control plane** (:class:`PlacementMap`): who owns which channel, at
  which epoch.  Pure bookkeeping, serializable through
  :mod:`repro.platform.codecs` strict-JSON, pushed to cluster workers over
  ``POST /placement``.
* **data plane** (:func:`migrate` and :func:`reshard`, also here): the one
  choreography that moves a channel's rows and live-session checkpoint
  between shards and commits the new ownership on the map.  It is written
  against a :class:`ShardHandle` per shard, so the in-process tier
  (:class:`~repro.platform.sharding.ShardedLightorService`, whose handle's
  fence is the shard lock) and the process cluster
  (:class:`~repro.platform.cluster.ShardClusterSupervisor`, whose handle's
  fence is ``POST /admin/fence``) run the same steps.

A router holding a stale map learns about it through
:class:`WrongShardError` — the ``409`` wire error a worker returns for a
channel it no longer (or does not yet) own — refreshes its map and retries.
See ``docs/resharding.md`` for the full protocol.
"""

from __future__ import annotations

import bisect
import hashlib
import threading
import time
from contextlib import AbstractContextManager, ExitStack, contextmanager
from dataclasses import dataclass
from typing import Iterable, Protocol

from repro.utils.validation import ValidationError, require_positive

__all__ = [
    "ChannelMigration",
    "ChannelMove",
    "ConsistentHashRing",
    "PlacementMap",
    "ReshardReport",
    "ShardHandle",
    "WrongShardError",
    "migrate",
    "reshard",
]


def _point(key: str) -> int:
    """A stable 64-bit ring coordinate for ``key`` (process-independent)."""
    digest = hashlib.md5(key.encode("utf-8"), usedforsecurity=False).digest()
    return int.from_bytes(digest[:8], "big")


class ConsistentHashRing:
    """Maps string keys onto ``n_shards`` buckets via consistent hashing.

    Each shard contributes ``replicas`` virtual nodes; a key belongs to the
    first virtual node clockwise from its own ring coordinate.  The ring is
    immutable — elasticity lives in :class:`PlacementMap`, which swaps whole
    rings and pins individual channels on top.
    """

    def __init__(self, n_shards: int, replicas: int = 64) -> None:
        require_positive(n_shards, "n_shards")
        require_positive(replicas, "replicas")
        self.n_shards = n_shards
        self.replicas = replicas
        points = [
            (_point(f"shard-{shard}#{replica}"), shard)
            for shard in range(n_shards)
            for replica in range(replicas)
        ]
        points.sort()
        self._points = [point for point, _ in points]
        self._shards = [shard for _, shard in points]

    def shard_for(self, key: str) -> int:
        """The shard index owning ``key``."""
        index = bisect.bisect_right(self._points, _point(key))
        if index == len(self._points):
            index = 0
        return self._shards[index]


class WrongShardError(ValidationError):
    """A request reached a shard that does not own the channel.

    The wire form is a ``409 Conflict``: the worker answers with its current
    placement ``epoch`` so the caller knows whether its map is stale (refresh
    and retry) or the channel is mid-migration (``in_flight`` — retry after
    the migration commits a new epoch).  The bounded retry loop lives in
    :meth:`repro.platform.cluster.ClusterFrontDoor._call`.
    """

    def __init__(
        self,
        video_id: str,
        *,
        owner: int | None = None,
        epoch: int = 0,
        in_flight: bool = False,
    ) -> None:
        self.video_id = video_id
        self.owner = owner
        self.epoch = epoch
        self.in_flight = in_flight
        if in_flight:
            detail = "is mid-migration"
        elif owner is not None:
            detail = f"belongs to shard {owner}"
        else:
            detail = "is not owned here"
        super().__init__(
            f"channel {video_id!r} {detail} at placement epoch {epoch}; "
            "refresh the placement map and retry"
        )


@dataclass(frozen=True)
class ChannelMove:
    """One planned migration: ``video_id`` goes from shard ``src`` to ``dst``."""

    video_id: str
    src: int
    dst: int


class PlacementMap:
    """Versioned, mutable ``{channel → shard}`` assignment shared by routers.

    Default placement is the consistent-hash ring — at epoch 0 the map
    routes byte-identically to a bare :class:`ConsistentHashRing` of the
    same size, which is what keeps existing databases valid without any
    migration.  On top of the ring sit *pins*: per-channel overrides written
    by completed migrations.  ``in_flight`` marks channels currently being
    moved — cluster workers answer ``409`` for them until the migration
    commits.

    Every mutation bumps ``epoch`` (strictly monotonic) and clears the
    built-in placement memo, so all routers sharing this object — the
    sharded service, every front-door clone, the gateway — observe the new
    assignment on their next lookup.  All state is guarded by one internal
    lock; the lock is only ever held for dict/ring lookups, never for
    storage calls, so routing never queues behind shard work.
    """

    def __init__(
        self,
        n_shards: int,
        replicas: int = 64,
        *,
        epoch: int = 0,
        pins: dict[str, int] | None = None,
        in_flight: Iterable[str] | None = None,
        frozen: bool = False,
    ) -> None:
        if epoch < 0:
            raise ValidationError(f"epoch must be >= 0, got {epoch!r}")
        for video_id, shard in (pins or {}).items():
            if int(shard) < 0:
                raise ValidationError(
                    f"pin for channel {video_id!r} names invalid shard {shard!r}"
                )
        self._lock = threading.Lock()
        self._ring = ConsistentHashRing(n_shards, replicas=replicas)  # guarded-by: _lock
        self._epoch = int(epoch)  # guarded-by: _lock
        self._pins = {k: int(v) for k, v in (pins or {}).items()}  # guarded-by: _lock
        self._in_flight = set(in_flight or ())  # guarded-by: _lock
        self._frozen = bool(frozen)  # guarded-by: _lock
        # Memoized placements (the per-layer ``_placements`` cache of PR 9,
        # now owned by the shared map so epoch bumps invalidate every
        # router at once).  Pure recomputation: a full cache is dropped
        # rather than LRU-tracked to keep the hot path allocation-free.
        self._placements: dict[str, int] = {}  # guarded-by: _lock
        self._placements_max = 4096

    # ------------------------------------------------------------------ reads
    @property
    def epoch(self) -> int:
        """The current placement version (bumped by every mutation)."""
        with self._lock:
            return self._epoch

    @property
    def n_shards(self) -> int:
        """Number of shards on the current ring."""
        with self._lock:
            return self._ring.n_shards

    @property
    def replicas(self) -> int:
        """Virtual nodes per shard on the ring."""
        with self._lock:
            return self._ring.replicas

    def shard_for(self, video_id: str) -> int:
        """The shard that owns ``video_id`` (pin override, else ring)."""
        with self._lock:
            index = self._placements.get(video_id)
            if index is None:
                index = self._pins.get(video_id)
                if index is None:
                    index = self._ring.shard_for(video_id)
                if len(self._placements) >= self._placements_max:
                    self._placements.clear()
                self._placements[video_id] = index
            return index

    def is_in_flight(self, video_id: str) -> bool:
        """Whether ``video_id`` is currently being migrated."""
        with self._lock:
            return video_id in self._in_flight

    @property
    def frozen(self) -> bool:
        """Whether the map is in its reshard commit barrier.

        While frozen, cluster workers answer ``409`` for *every*
        channel-addressed request, so no channel can appear on (or be
        written to) any shard between the supervisor's final channel
        census and :meth:`commit_reshard`.  Callers just retry; the
        barrier lasts for one listing sweep plus any straggler
        migrations — milliseconds, not the bulk migration phase.
        """
        with self._lock:
            return self._frozen

    def describe(self) -> dict:
        """One atomic plain-JSON view of the whole assignment.

        The body of the strict-JSON codec pair
        (:func:`repro.platform.codecs.placement_map_to_dict`).
        """
        with self._lock:
            return {
                "epoch": self._epoch,
                "n_shards": self._ring.n_shards,
                "replicas": self._ring.replicas,
                "pins": dict(sorted(self._pins.items())),
                "in_flight": sorted(self._in_flight),
                "frozen": self._frozen,
            }

    # -------------------------------------------------------------- mutations
    def _bump(self) -> int:
        """Advance the epoch and drop every memoized placement (lock held)."""
        self._epoch += 1  # lintor: disable=R002 reason=every caller holds _lock
        self._placements.clear()  # lintor: disable=R002 reason=every caller holds _lock
        return self._epoch  # lintor: disable=R002 reason=every caller holds _lock

    def begin_migration(self, video_id: str) -> int:
        """Mark ``video_id`` as mid-migration; returns the new epoch.

        While in flight, cluster workers answer ``409`` for the channel on
        both the old and the new shard — the per-channel unavailability
        window the reshard report measures.
        """
        with self._lock:
            if video_id in self._in_flight:
                raise ValidationError(f"channel {video_id!r} is already mid-migration")
            self._in_flight.add(video_id)
            return self._bump()

    def complete_migration(self, video_id: str, dst_shard: int) -> int:
        """Commit ``video_id``'s new home; returns the new epoch.

        The pin is dropped when it agrees with the ring (so a reshard that
        moved every changed channel ends with an empty pin set), kept as an
        override otherwise.  ``dst_shard`` may exceed the ring size during a
        grow — the ring is swapped only at :meth:`commit_reshard`.
        """
        if dst_shard < 0:
            raise ValidationError(f"dst_shard must be >= 0, got {dst_shard!r}")
        with self._lock:
            self._in_flight.discard(video_id)
            if (
                dst_shard < self._ring.n_shards
                and self._ring.shard_for(video_id) == dst_shard
            ):
                self._pins.pop(video_id, None)
            else:
                self._pins[video_id] = dst_shard
            return self._bump()

    def abort_migration(self, video_id: str) -> int:
        """Clear the in-flight mark without moving the channel."""
        with self._lock:
            self._in_flight.discard(video_id)
            return self._bump()

    def freeze(self) -> int:
        """Enter the reshard commit barrier; returns the new epoch.

        Pushed to every worker *before* the supervisor's final channel
        census: once a worker installs a frozen map, no channel-addressed
        request can create or mutate state on it, so the census is
        complete — a channel either finished creation before the freeze
        (and is listed) or its creation is answered ``409`` and retried by
        the front door after :meth:`commit_reshard` thaws the map.
        """
        with self._lock:
            if self._frozen:
                raise ValidationError("placement map is already frozen")
            self._frozen = True
            return self._bump()

    def thaw(self) -> int:
        """Leave the commit barrier without committing (abort path)."""
        with self._lock:
            if not self._frozen:
                raise ValidationError("placement map is not frozen")
            self._frozen = False
            return self._bump()

    def plan_reshard(
        self, channels: Iterable[str], new_n_shards: int
    ) -> list[ChannelMove]:
        """The minimal move set taking ``channels`` onto a ``new_n_shards`` ring.

        Only channels whose owner differs between the current assignment
        (pins included) and a fresh ring of the new size appear in the plan
        — consistent hashing keeps that to ~``1/N`` of the keys on a grow.
        The plan is sorted by video id so reshards are deterministic.
        """
        require_positive(new_n_shards, "new_n_shards")
        with self._lock:
            new_ring = ConsistentHashRing(new_n_shards, replicas=self._ring.replicas)
            moves = []
            for video_id in sorted(set(channels)):
                src = self._pins.get(video_id)
                if src is None:
                    src = self._ring.shard_for(video_id)
                dst = new_ring.shard_for(video_id)
                if src != dst:
                    moves.append(ChannelMove(video_id=video_id, src=src, dst=dst))
            return moves

    def commit_reshard(self, new_n_shards: int) -> int:
        """Swap the ring to ``new_n_shards`` after the plan's moves completed.

        Pins that now agree with the new ring evaporate (the normal end
        state of a full reshard); a leftover pin naming a shard beyond the
        new ring is a data-plane bug — it would route a channel to a worker
        that no longer exists — and is rejected.
        """
        require_positive(new_n_shards, "new_n_shards")
        with self._lock:
            new_ring = ConsistentHashRing(new_n_shards, replicas=self._ring.replicas)
            for video_id, shard in list(self._pins.items()):
                if shard >= new_n_shards:
                    raise ValidationError(
                        f"channel {video_id!r} is pinned to shard {shard}, beyond the "
                        f"new {new_n_shards}-shard ring — its migration never completed"
                    )
                if new_ring.shard_for(video_id) == shard:
                    del self._pins[video_id]
            self._ring = new_ring
            self._frozen = False
            return self._bump()

    def install(self, other: "PlacementMap") -> bool:
        """Adopt ``other``'s assignment in place if it is newer.

        The cross-process refresh path: a front door or worker holding this
        map swaps in the state pushed/fetched over the wire.  In-place so
        every clone sharing the object sees the update; returns whether
        anything changed (``other`` at the same or an older epoch is a
        no-op, which makes refresh races harmless).
        """
        state = other.describe()
        with self._lock:
            if state["epoch"] <= self._epoch:
                return False
            if (
                state["n_shards"] != self._ring.n_shards
                or state["replicas"] != self._ring.replicas
            ):
                self._ring = ConsistentHashRing(
                    state["n_shards"], replicas=state["replicas"]
                )
            self._epoch = state["epoch"]
            self._pins = {k: int(v) for k, v in state["pins"].items()}
            self._in_flight = set(state["in_flight"])
            self._frozen = bool(state.get("frozen", False))
            self._placements.clear()
            return True


# ---------------------------------------------------------------- data plane
@dataclass(frozen=True)
class ChannelMigration:
    """The outcome of one :func:`migrate`.

    ``seconds`` is the channel's unavailability window: from marking it in
    flight to publishing its new home.  ``moved`` is False when the channel
    already lived on the destination and nothing happened.
    """

    video_id: str
    src: int
    dst: int
    was_live: bool
    seconds: float
    moved: bool = True


@dataclass(frozen=True)
class ReshardReport:
    """The outcome of one :func:`reshard`."""

    old_n_shards: int
    new_n_shards: int
    epoch: int
    migrations: tuple[ChannelMigration, ...] = ()

    @property
    def moved(self) -> int:
        """Number of channels that actually changed shards."""
        return sum(1 for m in self.migrations if m.moved)

    def pause_seconds(self) -> list[float]:
        """Per-channel unavailability windows, one per completed move."""
        return [m.seconds for m in self.migrations if m.moved]


class ShardHandle(Protocol):
    """One shard as the choreography sees it: its channel census, the three
    steps of a move, and a fence.  Steps run only inside the fence: once it
    is entered no request that started before it is still running on the
    shard, and none that could touch a moving channel starts until it
    exits."""

    def list_channels(self) -> list[str]: ...
    def migrate_out(self, video_id: str) -> dict: ...
    def migrate_in(self, bundle: dict, was_live: bool = False) -> str: ...
    def forget_channel(self, video_id: str) -> bool: ...
    def fence(self) -> AbstractContextManager: ...


@contextmanager
def _fenced(handles: Iterable[ShardHandle]):
    """Hold every handle's fence, entered in the order given."""
    with ExitStack() as stack:
        for handle in handles:
            stack.enter_context(handle.fence())
        yield


def migrate(fleet, video_id: str, dst_shard: int) -> ChannelMigration:
    """Move one channel, rows and live session, to shard ``dst_shard``.

    ``fleet`` is the deployment: its ``placement``, one
    :class:`ShardHandle` per shard in ``handles``, ``grow(n)`` and
    ``retire(n)`` to add shards up to ``n`` or shut down the drained ones
    from ``n`` on, and ``publish()``, which makes the current placement
    what every shard routes by.

    Mark the channel in flight and publish (cluster workers now answer
    ``409`` for it), fence the source and the destination (in shard order,
    so concurrent moves cannot deadlock), export it from the source, import
    it on the destination, make the source forget it and commit its new
    home, all inside the fences; then release them and publish.  A request
    that passed a worker's placement check before the publish finishes
    before the export, and one that waited on a shard lock re-routes to the
    new home.  Any failure aborts the move: the source still holds every
    row.
    """
    handles, placement = fleet.handles, fleet.placement
    if not 0 <= dst_shard < len(handles):
        raise ValidationError(
            f"dst_shard must name one of {len(handles)} shards, got {dst_shard!r}"
        )
    src = placement.shard_for(video_id)
    if src == dst_shard:
        return ChannelMigration(video_id, src, dst_shard, was_live=False, seconds=0.0, moved=False)
    started = time.perf_counter()
    placement.begin_migration(video_id)
    try:
        fleet.publish()
        with _fenced(handles[index] for index in sorted((src, dst_shard))):
            out = handles[src].migrate_out(video_id)
            handles[dst_shard].migrate_in(out["bundle"], out["was_live"])
            handles[src].forget_channel(video_id)
            placement.complete_migration(video_id, dst_shard)
    except BaseException:
        placement.abort_migration(video_id)
        fleet.publish()
        raise
    fleet.publish()
    return ChannelMigration(
        video_id, src, dst_shard, was_live=out["was_live"],
        seconds=time.perf_counter() - started,
    )


def reshard(fleet, new_n_shards: int) -> ReshardReport:
    """Online reshard: move ``fleet`` to ``new_n_shards`` shards.

    Grow first, then plan the minimal move set from a census and run it
    one :func:`migrate` at a time while unmoved channels keep serving.  A
    channel created during those moves was placed by the old ring and
    would be stranded by the ring swap, so the commit barrier freezes the
    map, publishes it (workers answer ``409`` for every channel), fences
    every shard, takes a census that is now complete, moves the
    stragglers and swaps the ring before releasing.  The barrier lasts one
    census sweep, not the bulk moves.  Then drained shards retire and the
    committed map is published.
    """
    require_positive(new_n_shards, "new_n_shards")
    placement = fleet.placement
    old_n_shards = len(fleet.handles)
    if new_n_shards == old_n_shards:
        return ReshardReport(old_n_shards, new_n_shards, placement.epoch)
    if new_n_shards > old_n_shards:
        fleet.grow(new_n_shards)

    def moves() -> list[ChannelMigration]:
        census = []
        for handle in fleet.handles:
            with handle.fence():
                census += handle.list_channels()
        plan = placement.plan_reshard(census, new_n_shards)
        return [migrate(fleet, move.video_id, move.dst) for move in plan]

    migrations = moves()
    placement.freeze()
    try:
        fleet.publish()
        with _fenced(fleet.handles):
            migrations += moves()
            epoch = placement.commit_reshard(new_n_shards)
    except BaseException:
        placement.thaw()
        fleet.publish()
        raise
    if new_n_shards < old_n_shards:
        fleet.retire(new_n_shards)
    fleet.publish()
    return ReshardReport(old_n_shards, new_n_shards, epoch, tuple(migrations))
