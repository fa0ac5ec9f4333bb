"""Tests for live channel migration and online resharding.

Three properties matter:

* **losslessness** — migrating a live channel between shards (in process or
  across worker processes) and resharding the whole tier mid-run must leave
  every channel's persisted state byte-identical to an undisturbed run: the
  oracle of :func:`repro.loadgen.oracle_fingerprints`;
* **protocol** — a worker answers ``409`` for channels its placement map
  disowns (stale router, mid-migration, reshard commit barrier) and the
  client surfaces it as :class:`WrongShardError`, which is what lets a
  stale front door refresh and retry instead of corrupting state;
* **durability bookkeeping** — shard-marker metadata on SQLite files
  follows the deployment through grows and shrinks, so a drained file can
  be re-adopted and ``repro recover`` keeps resuming checkpoints across
  a reshard.
"""

from __future__ import annotations

import inspect
import threading
from contextlib import contextmanager
from itertools import product
from types import SimpleNamespace

import pytest

from repro.cli import main
from repro.core.types import Video, VideoChatLog
from repro.loadgen import LoadWorkload, WorkloadSpec, reshard_to, run_load
from repro.platform import codecs, surface
from repro.platform.backends import SQLiteStore
from repro.platform.client import LightorClient
from repro.platform.cluster import ClusterFrontDoor, RemoteShard
from repro.platform.placement import PlacementMap, WrongShardError, migrate
from repro.platform.server import GatewayThread
from repro.platform.service import LightorWebService
from repro.platform.sharding import ShardedLightorService, shard_db_path
from repro.platform.tier import TierSpec
from repro.utils.validation import ValidationError

K = 5
SPEC = WorkloadSpec(channels=3, viewers=30, duration=60.0, batch_size=50, seed=7)


def _sharded(fitted_initializer, n_shards=2, **kwargs):
    return ShardedLightorService.create(
        n_shards, fitted_initializer, live_k=K, **kwargs
    )


@pytest.fixture(scope="module")
def channel_log(dota2_dataset):
    target = dota2_dataset[1]
    return VideoChatLog(video=target.video, messages=target.chat_log.messages[:300])


class _GatewayFleet:
    """Worker gateways over 1-shard tiers, moved by the same ``migrate`` the
    cluster supervisor runs (a :class:`RemoteShard` handle per gateway);
    ``front`` is a cluster front door sharing the fleet's placement map."""

    def __init__(self, fitted_initializer, n_shards=2):
        self.tiers = [_sharded(fitted_initializer, 1) for _ in range(n_shards)]
        self.gateways = [GatewayThread(t, shard_index=i) for i, t in enumerate(self.tiers)]
        self.addresses = [gateway.start() for gateway in self.gateways]
        self.placement = PlacementMap(n_shards)
        self.handles = [RemoteShard(LightorClient(*address)) for address in self.addresses]
        self.publish()
        self.front = ClusterFrontDoor(self.addresses, placement=self.placement)

    def publish(self):
        for handle in self.handles:
            handle.client.put_placement(
                codecs.placement_map_to_dict(self.placement), self.addresses
            )

    def migrate_channel(self, video_id, dst_shard):
        return migrate(self, video_id, dst_shard)

    def store(self, index):
        return self.tiers[index].shards[0].store

    def close(self):
        self.front.close()
        for handle in self.handles:
            handle.client.close()
        for gateway in self.gateways:
            gateway.stop()
        for tier in self.tiers:
            tier.close()


class TestChannelMigration:
    """Migration on the in-process tier; the subclass below runs the same
    tests, through the same choreography, on worker gateways."""

    @pytest.fixture()
    def fleet(self, fitted_initializer):
        tier = _sharded(fitted_initializer)
        yield SimpleNamespace(
            migrate_channel=tier.migrate_channel,
            placement=tier.placement,
            front=tier,
            store=lambda index: tier.shards[index].store,
        )
        tier.close()

    def test_live_channel_migrates_byte_exactly(self, fleet, fitted_initializer, channel_log):
        """Mid-stream migration is invisible in the persisted end state."""
        video_id = channel_log.video.video_id
        control = _sharded(fitted_initializer)
        subject = fleet.front
        for service in (control, subject):
            service.start_live(channel_log.video)
            service.ingest_chat_batch(video_id, channel_log.messages[:150])
        dst = (fleet.placement.shard_for(video_id) + 1) % 2
        epoch_before = fleet.placement.epoch
        migration = fleet.migrate_channel(video_id, dst)
        assert migration.moved and migration.was_live
        assert migration.seconds > 0.0
        assert fleet.placement.shard_for(video_id) == dst
        assert fleet.placement.epoch > epoch_before
        for service in (control, subject):
            service.ingest_chat_batch(video_id, channel_log.messages[150:])
        control_dots = control.end_live(video_id, channel_log.video.duration)
        subject_dots = subject.end_live(video_id, channel_log.video.duration)
        assert [codecs.red_dot_to_dict(d) for d in subject_dots] == [
            codecs.red_dot_to_dict(d) for d in control_dots
        ]
        assert [
            codecs.highlight_record_to_dict(r)
            for r in subject.highlight_history(video_id)
        ] == [
            codecs.highlight_record_to_dict(r)
            for r in control.highlight_history(video_id)
        ]
        control.close()
        # The rows live only on the destination shard.
        src = (dst + 1) % 2
        assert fleet.store(dst).has_video(video_id)
        assert not fleet.store(src).has_video(video_id)

    def test_migrating_home_is_a_noop(self, fleet, channel_log):
        fleet.front.register_video(channel_log.video)
        home = fleet.placement.shard_for(channel_log.video.video_id)
        epoch = fleet.placement.epoch
        migration = fleet.migrate_channel(channel_log.video.video_id, home)
        assert not migration.moved
        assert migration.seconds == 0.0
        assert fleet.placement.epoch == epoch

    def test_bad_destinations_and_unknown_channels_rejected(self, fleet):
        with pytest.raises(ValidationError, match="dst_shard"):
            fleet.migrate_channel("anything", 7)
        ghost = "never-registered"
        with pytest.raises(ValidationError, match="no stored rows"):
            fleet.migrate_channel(ghost, (fleet.placement.shard_for(ghost) + 1) % 2)
        # A failed migration leaves the placement unchanged (abort path).
        assert not fleet.placement.is_in_flight(ghost)


class TestChannelMigrationOverGateways(TestChannelMigration):
    @pytest.fixture()
    def fleet(self, fitted_initializer):
        fleet = _GatewayFleet(fitted_initializer)
        yield fleet
        fleet.close()

    def test_request_admitted_before_the_move_finishes_before_the_export(
        self, fleet, channel_log
    ):
        """A request that passed the source worker's placement check before
        the in-flight push must not land after the move: the fence waits it
        out, so the row it wrote moves with the channel instead of staying
        behind as a stray on the source."""
        video = channel_log.video
        fleet.front.register_video(video)
        src = fleet.placement.shard_for(video.video_id)
        entered, release = threading.Event(), threading.Event()
        register = fleet.tiers[src].register_video

        def held_register(held):
            entered.set()
            release.wait(timeout=30)
            return register(held)

        fleet.tiers[src].register_video = held_register
        moves = []
        with LightorClient(*fleet.addresses[src]) as client:
            request = threading.Thread(target=client.register_video, args=(video,))
            request.start()
            assert entered.wait(timeout=30)
            move = threading.Thread(
                target=lambda: moves.append(fleet.migrate_channel(video.video_id, 1 - src))
            )
            move.start()
            # Unfenced, the move completes around the held request here.
            move.join(timeout=1.0)
            release.set()
            request.join(timeout=30)
            move.join(timeout=30)
        assert not request.is_alive() and not move.is_alive()
        assert [migration.moved for migration in moves] == [True]
        assert fleet.store(1 - src).has_video(video.video_id)
        assert fleet.tiers[src].list_channels() == []


class TestOnlineReshardInproc:
    @pytest.mark.parametrize("shards,to_shards", [(2, 3), (3, 2)])
    def test_mid_run_reshard_is_byte_identical(
        self, fitted_initializer, shards, to_shards
    ):
        report = run_load(
            SPEC, fitted_initializer,
            tier=TierSpec(shards=shards, workers=2, transport="inproc"),
            schedule=[(2, reshard_to(to_shards))],
        )
        (fault,) = report.faults
        assert report.ok, report.describe()
        assert report.divergences == []
        assert (fault.old_shards, fault.new_shards) == (shards, to_shards)
        assert fault.epoch > 0
        assert all(pause >= 0.0 for pause in fault.pause_seconds)

    def test_reshard_at_zero_runs_before_the_first_ingest(self, fitted_initializer):
        """"After N batches" means the same for every action: 0 is before
        any ingest, so the reshard finds no channel with traffic to move."""
        with_traffic = {batch.video_id for batch in LoadWorkload.from_spec(SPEC).batches()}
        grow = reshard_to(3)
        seen = []

        def reshard(tier):
            seen.append(with_traffic & set(tier.list_channels()))
            return grow(tier)

        report = run_load(
            SPEC, fitted_initializer, tier=TierSpec(shards=2, workers=2),
            schedule=[(0, reshard)],
        )
        (fault,) = report.faults
        assert report.ok, report.describe()
        assert seen == [set()]
        assert (fault.after, fault.channels_moved) == (0, 0)

    def test_reshard_over_http(self, fitted_initializer):
        report = run_load(
            SPEC, fitted_initializer,
            tier=TierSpec(shards=2, workers=2, transport="http"),
            schedule=[(2, reshard_to(3))],
        )
        (fault,) = report.faults
        assert report.ok, report.describe()
        assert (report.transport, fault.new_shards, report.shards) == ("http", 3, 3)


class TestOnlineReshardCluster:
    @pytest.mark.parametrize("shards,to_shards", [(2, 3), (3, 2)])
    def test_mid_run_reshard_is_byte_identical(
        self, fitted_initializer, shards, to_shards
    ):
        """Grow spawns a worker process mid-run, shrink drains and SIGTERMs
        one; either way every fingerprint matches the undisturbed run."""
        report = run_load(
            SPEC, fitted_initializer,
            tier=TierSpec(shards=shards, workers=2, transport="cluster"),
            schedule=[(2, reshard_to(to_shards))],
        )
        (fault,) = report.faults
        assert report.ok, report.describe()
        assert report.divergences == []
        assert (fault.old_shards, fault.new_shards) == (shards, to_shards)


class TestWrongShardProtocol:
    @pytest.fixture()
    def worker(self, fitted_initializer):
        """A gateway posing as cluster shard 1 with a pushed placement."""
        service = _sharded(fitted_initializer, n_shards=1)
        gateway = GatewayThread(service, shard_index=1, worker_threads=2)
        host, port = gateway.start()
        client = LightorClient(host, port)
        yield client, service
        client.close()
        gateway.stop()
        service.close()

    def _push(self, client, placement):
        return client.put_placement(codecs.placement_map_to_dict(placement))

    def test_disowned_channel_answers_409(self, worker, channel_log):
        client, _ = worker
        placement = PlacementMap(2)
        video_id = channel_log.video.video_id
        owner = placement.shard_for(video_id)
        # Make sure this worker (shard 1) is NOT the owner.
        if owner == 1:
            placement.begin_migration(video_id)
            placement.complete_migration(video_id, 0)
            owner = 0
        self._push(client, placement)
        with pytest.raises(WrongShardError) as excinfo:
            client.live_red_dots(video_id)
        assert excinfo.value.owner == owner
        assert excinfo.value.epoch == placement.epoch
        assert not excinfo.value.in_flight

    def test_in_flight_channel_answers_409_even_for_the_owner(
        self, worker, channel_log
    ):
        client, _ = worker
        placement = PlacementMap(2)
        video_id = channel_log.video.video_id
        if placement.shard_for(video_id) != 1:
            placement.begin_migration(video_id)
            placement.complete_migration(video_id, 1)
        placement.begin_migration(video_id)
        self._push(client, placement)
        with pytest.raises(WrongShardError) as excinfo:
            client.live_red_dots(video_id)
        assert excinfo.value.in_flight

    def test_frozen_map_refuses_every_channel(self, worker, channel_log):
        """The reshard commit barrier: owned or not, channel traffic waits."""
        client, _ = worker
        placement = PlacementMap(2)
        placement.freeze()
        self._push(client, placement)
        with pytest.raises(WrongShardError) as excinfo:
            client.live_red_dots(channel_log.video.video_id)
        assert excinfo.value.in_flight
        # Channel-less routes keep working under the freeze: the admin
        # choreography and the census fence must pass through it.
        assert client.fence() is True
        assert client.list_channels() == []

    def test_healthz_and_metrics_expose_the_epoch(self, worker):
        client, _ = worker
        placement = PlacementMap(2)
        placement.begin_migration("ch")
        placement.complete_migration("ch", 0)
        self._push(client, placement)
        payload = client.healthz()
        assert payload["placement_epoch"] == placement.epoch
        text = client.metrics()
        assert f"lightor_gateway_placement_epoch {placement.epoch}" in text
        assert "lightor_gateway_wrong_shard_total" in text

    def test_stale_push_is_not_installed(self, worker):
        client, _ = worker
        fresh = PlacementMap(2)
        fresh.begin_migration("ch")
        fresh.complete_migration("ch", 0)
        assert self._push(client, fresh)["installed"]
        stale = PlacementMap(2)
        result = self._push(client, stale)
        assert not result["installed"]
        assert result["epoch"] == fresh.epoch


class TestShardMarkers:
    def test_shrink_clears_markers_so_a_later_grow_adopts_the_file(
        self, fitted_initializer, channel_log, tmp_path
    ):
        """Regression: a drained shard file used to keep its old ``n_shards``
        marker, so growing back refused the (empty) file as stale."""
        base = tmp_path / "fleet.db"
        service = _sharded(fitted_initializer, 3, backend="sqlite", db_path=base)
        service.start_live(channel_log.video)
        service.ingest_chat_batch(
            channel_log.video.video_id, channel_log.messages[:100], persist=True
        )
        service.reshard(2)
        drained = SQLiteStore(shard_db_path(base, 2))
        try:
            assert drained.get_meta("n_shards") is None
            assert drained.get_meta("shard_index") is None
            assert drained.list_videos() == []
        finally:
            drained.close()
        for index in range(2):
            survivor = SQLiteStore(shard_db_path(base, index))
            try:
                assert survivor.get_meta("n_shards") == "2"
                assert survivor.get_meta("shard_index") == str(index)
            finally:
                survivor.close()
        # Growing back re-adopts the drained file and restamps every marker.
        service.reshard(3)
        assert service.n_shards == 3
        dots = service.end_live(channel_log.video.video_id, channel_log.video.duration)
        assert dots
        service.close()
        for index in range(3):
            store = SQLiteStore(shard_db_path(base, index))
            try:
                assert store.get_meta("n_shards") == "3"
            finally:
                store.close()

    def test_stale_marker_still_refused_on_grow(self, fitted_initializer, tmp_path):
        """The marker check itself stays strict: a file stamped for another
        deployment shape (and never drained by a reshard) is not adopted."""
        base = tmp_path / "stale.db"
        poisoned = SQLiteStore(shard_db_path(base, 2))
        poisoned.set_meta("n_shards", "7")
        poisoned.close()
        service = _sharded(fitted_initializer, 2, backend="sqlite", db_path=base)
        with pytest.raises(ValidationError):
            service.reshard(3)
        service.close()


class TestInterruptedReshard:
    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason=(
            "ROADMAP item 4: a durable reshard needs a write-ahead intent record "
            "that a reopen rolls forward or back; today every bulk-phase publish "
            "stamps the grown n_shards marker while the committed placement row "
            "still holds the old ring"
        ),
    )
    def test_grow_interrupted_at_the_second_move_reopens(
        self, fitted_initializer, tmp_path, monkeypatch
    ):
        base = tmp_path / "grow.db"
        service = _sharded(fitted_initializer, 2, backend="sqlite", db_path=base)
        channels = [f"channel-{index:02d}" for index in range(30)]
        for video_id in channels:
            service.register_video(Video(video_id=video_id, duration=600.0))
        migrate_in = LightorWebService.migrate_in
        moves: list[str] = []

        def failing_migrate_in(self, bundle, was_live=False):
            moves.append(bundle["video"]["video_id"])
            if len(moves) == 2:
                raise RuntimeError("crash at the second move")
            return migrate_in(self, bundle, was_live)

        monkeypatch.setattr(LightorWebService, "migrate_in", failing_migrate_in)
        with pytest.raises(RuntimeError, match="second move"):
            service.reshard(3)
        monkeypatch.undo()
        service.close()

        opened = []
        for n_shards in (2, 3):
            try:
                reopened = _sharded(fitted_initializer, n_shards, backend="sqlite", db_path=base)
            except ValidationError:
                continue
            try:
                opened.append((n_shards, reopened.list_channels()))
            finally:
                reopened.close()
        assert any(listed == channels for _, listed in opened), opened


class TestReshardCLIAndRecovery:
    def test_offline_reshard_preserves_checkpoints(
        self, fitted_initializer, channel_log, tmp_path, capsys
    ):
        """``repro reshard`` then ``repro recover``: a live session
        checkpointed before the reshard resumes on its new home shard."""
        base = tmp_path / "live.db"
        video_id = channel_log.video.video_id
        service = _sharded(
            fitted_initializer, 2, backend="sqlite", db_path=base,
            checkpoint_every=50,
        )
        service.start_live(channel_log.video)
        service.ingest_chat_batch(video_id, channel_log.messages[:200], persist=True)
        assert service.suspend() == 1  # checkpointed, not finalized
        assert main(["reshard", "--db-path", str(base), "--shards", "2", "--to", "3"]) == 0
        out = capsys.readouterr().out
        assert "2 -> 3" in out
        resumed = _sharded(
            fitted_initializer, 3, backend="sqlite", db_path=base,
            checkpoint_every=50,
        )
        recovered = resumed.recover_live_sessions()
        assert [r.video_id for r in recovered] == [video_id]
        # The session keeps serving after recovery, wherever it landed.
        resumed.ingest_chat_batch(video_id, channel_log.messages[200:260], persist=True)
        assert resumed.end_live(video_id, channel_log.video.duration)
        resumed.close()

    def test_cli_rejects_growing_to_the_same_size(self, tmp_path, capsys):
        assert main(
            ["reshard", "--db-path", str(tmp_path / "x.db"), "--shards", "2", "--to", "0"]
        ) == 1


# ------------------------------------------------------------ surface contract
# One table (repro.platform.surface) binds every front door; these tests hold
# each transport to the in-process tier's answers, call for call.  A case
# runs its family's script up to and including its verb, so every verb is
# called with meaningful state behind it.
_RECORDED = [
    "register_video", "request_red_dots", "log_interactions", "get_interactions",
    "refine_video", "get_red_dots", "highlight_history", "latest_highlights",
]
_LIVE = ["start_live", "ingest_chat_batch", "ingest_plays_batch", "live_red_dots", "end_live"]
_ADMIN = ["list_channels", "migrate_out", "migrate_in", "forget_channel"]
_GATEWAY = ["put_placement", "get_placement", "fence", "healthz", "metrics"]
_TRANSPORTS = ["inproc", "gateway", "cluster"]


@contextmanager
def _transport(kind, fitted_initializer):
    """``(front door, store_for)`` for one transport, torn down on exit.

    ``store_for`` reaches the owning backend directly, to seed chat the way
    a pre-crawled recorded video has it.
    """
    if kind == "inproc":
        tier = _sharded(fitted_initializer)
        try:
            yield tier, tier.store_for
        finally:
            tier.close()
    elif kind == "gateway":
        tier = _sharded(fitted_initializer)
        try:
            with GatewayThread(tier) as gateway:
                with LightorClient(gateway.host, gateway.port) as client:
                    yield client, tier.store_for
        finally:
            tier.close()
    else:
        tiers = [_sharded(fitted_initializer, 1) for _ in range(2)]
        gateways = [GatewayThread(t, shard_index=i) for i, t in enumerate(tiers)]
        try:
            addresses = [gateway.start() for gateway in gateways]
            placement = PlacementMap(2)
            for address in addresses:
                with LightorClient(*address) as admin:
                    admin.put_placement(codecs.placement_map_to_dict(placement), addresses)
            with ClusterFrontDoor(addresses) as front:
                yield front, lambda vid: tiers[placement.shard_for(vid)].store_for(vid)
        finally:
            for gateway in gateways:
                gateway.stop()
            for tier in tiers:
                tier.close()


@pytest.fixture(scope="module")
def recorded(dota2_dataset):
    return dota2_dataset[4]


@pytest.fixture(scope="module")
def recorded_plays(fitted_initializer, recorded, crowd):
    """Three play rounds around the recorded video's first red dot."""
    with _transport("inproc", fitted_initializer) as (tier, store_for):
        tier.register_video(recorded.video)
        store_for(recorded.video.video_id).put_chat(
            recorded.video.video_id, list(recorded.chat_log.messages)
        )
        dot = tier.request_red_dots(recorded.video.video_id, k=3)[0]
    return [play for r in range(3) for play in crowd.collect_round(recorded.video, dot, r)]


def _script(verb, front, store_for, recorded, plays, live):
    """Every call of ``verb``'s family up to and including it, with results."""
    results = []
    if verb in _RECORDED:
        video, steps = recorded.video, _RECORDED[: _RECORDED.index(verb) + 1]
        args = {
            "register_video": (video,),
            "request_red_dots": (video.video_id, 3),
            "log_interactions": (video.video_id, plays),
        }
    else:
        video, steps = live.video, _LIVE[: _LIVE.index(verb) + 1]
        args = {
            "start_live": (video,),
            "ingest_chat_batch": (video.video_id, live.messages[:200], True),
            "ingest_plays_batch": (video.video_id, plays[:40]),
            "end_live": (video.video_id, video.duration),
        }
    for step in steps:
        results.append(getattr(front, step)(*args.get(step, (video.video_id,))))
        if step == "register_video":
            store_for(video.video_id).put_chat(
                video.video_id, list(recorded.chat_log.messages)
            )
    return results


class TestSurfaceContract:
    @pytest.mark.parametrize(
        "transport, verb", list(product(_TRANSPORTS, _RECORDED + _LIVE))
    )
    def test_routed_verb_answers_like_the_inproc_tier(
        self, transport, verb, fitted_initializer, recorded, recorded_plays, channel_log
    ):
        with _transport("inproc", fitted_initializer) as reference:
            expected = _script(verb, *reference, recorded, recorded_plays, channel_log)
        with _transport(transport, fitted_initializer) as subject:
            actual = _script(verb, *subject, recorded, recorded_plays, channel_log)
        assert actual == expected
        assert any(result for result in actual) or verb in ("register_video", "start_live")

    @pytest.mark.parametrize("verb", _ADMIN)
    def test_admin_verb_answers_like_the_service_it_calls(
        self, verb, fitted_initializer, channel_log
    ):
        """The migration choreography over the wire (source gateway out,
        destination gateway in, source forget) answers what the in-process
        service methods the gateway calls answer."""
        video = channel_log.video
        steps = _ADMIN[: _ADMIN.index(verb) + 1]

        def run(source, destination, name_of):
            source.start_live(video)
            source.ingest_chat_batch(video.video_id, channel_log.messages[:120], True)
            results = []
            for step in steps:
                side = destination if step == "migrate_in" else source
                if step == "list_channels":
                    results.append(getattr(side, name_of(step))())
                elif step == "migrate_in":
                    out = results[1]
                    results.append(getattr(side, name_of(step))(out["bundle"], out["was_live"]))
                else:
                    results.append(getattr(side, name_of(step))(video.video_id))
            return results

        callee = {entry.name: entry.calls.rpartition(".")[2] for entry in surface.VERBS}
        src, dst = _sharded(fitted_initializer, 1), _sharded(fitted_initializer, 1)
        expected = run(src, dst, callee.get)
        for tier in (src, dst):
            tier.close()
        with _transport("gateway", fitted_initializer) as (source, _), _transport(
            "gateway", fitted_initializer
        ) as (destination, _):
            assert run(source, destination, str) == expected

    def test_gateway_verbs_round_trip(self, fitted_initializer, channel_log):
        placement = codecs.placement_map_to_dict(PlacementMap(2))
        tier = _sharded(fitted_initializer, 1)
        try:
            with GatewayThread(tier, shard_index=0) as gateway, LightorClient(
                gateway.host, gateway.port
            ) as client:
                addresses = [[gateway.host, gateway.port], ["127.0.0.1", 1]]
                assert client.put_placement(placement, addresses) == {
                    "installed": True, "epoch": 0,
                }
                assert client.get_placement() == {
                    "placement": placement, "addresses": addresses, "shard_index": 0,
                }
                assert client.fence() is True
                assert client.healthz()["placement_epoch"] == 0
                text = client.metrics()
        finally:
            tier.close()
        routes = {verb.name: verb.route for verb in surface.VERBS}
        for name in _GATEWAY[:-1]:
            assert f'lightor_gateway_requests_total{{route="{routes[name]}"}} 1' in text

    def test_every_verb_has_a_contract_case(self):
        assert sorted(_RECORDED + _LIVE + _ADMIN + _GATEWAY) == sorted(
            verb.name for verb in surface.VERBS
        )
        assert sorted(_RECORDED + _LIVE) == sorted(verb.name for verb in surface.ROUTED)

    def test_bound_methods_are_plain_class_attributes(self):
        """Layer tracing wraps these by name in each class's own namespace;
        the cluster front door routes and never migrates."""
        for cls, verbs in (
            (LightorClient, surface.VERBS),
            (ShardedLightorService, surface.ROUTED),
            (ClusterFrontDoor, surface.ROUTED),
        ):
            for verb in verbs:
                assert inspect.isfunction(vars(cls)[verb.name]), (cls, verb.name)
        for name in _ADMIN:
            assert not hasattr(ClusterFrontDoor, name), name
