"""Checkpoint/recovery subsystem tests.

Four layers, matching the subsystem's own structure:

1. **Snapshot codecs** — hypothesis round-trips for every streaming class
   that gained ``snapshot()``/``restore()``: the payload must survive a
   strict JSON encode/decode bit-exactly (re-snapshot equality) *and* the
   restored object must behave identically from that point on (continuation
   equality: same events, same finalized dots).
2. **Service checkpointing** — the snapshot registry semantics (written at
   ``start_live``, replaced on cadence, kept on eviction, deleted on clean
   close) and the ``after_chat`` stamps on persisted play batches that
   order a mixed chat/plays recovery suffix without a checkpoint per flip.
3. **Crash recovery** — kill a SQLite-backed service mid-stream, rebuild it
   in a fresh service, finish the run, and require byte-identical final red
   dots and highlight records to an uninterrupted run: at enumerated kill
   points of a play-heavy fleet (the replay-order oracle), across the
   storage-format upgrade from unstamped v2 files, and after a stamped
   channel migrates between tiers.
4. **Service-tier correctness fixes** that rode along with the hardening:
   cache-hit ``k`` handling, fold-first/persist-second store purity on both
   backends, the unregistered-video persist error, and JSON-safe zero-
   duration stage stats.
"""

from __future__ import annotations

import json
import sqlite3

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.types import ChatMessage, Interaction, InteractionKind, RedDot, Video
from repro.loadgen import KILL, LoadGenerator, LoadWorkload, WorkloadSpec, reshard_to, run_load
from repro.loadgen.metrics import LatencyRecorder, StageStats, merge_recorders
from repro.platform import wire
from repro.platform.api import SimulatedStreamingAPI
from repro.platform.backends import InMemoryStore, SQLiteStore
from repro.platform.crawler import ChatCrawler
from repro.platform.recovery import SNAPSHOT_VERSION
from repro.platform.service import LightorWebService
from repro.platform.sharding import ShardedLightorService
from repro.platform.tier import TierSpec
from repro.streaming import (
    IncrementalWindowState,
    StreamSession,
    StreamingExtractor,
    StreamingInitializer,
)
from repro.utils.rng import SeedSequenceFactory
from repro.utils.validation import ValidationError

# ``fitted_initializer``, ``labelled_video`` and ``crowd`` come from the
# session-scoped fixtures in conftest.py.


def _roundtrip(payload: dict) -> dict:
    """A snapshot as recovery will see it: through strict JSON and back."""
    return json.loads(json.dumps(payload, sort_keys=True, allow_nan=False))


def _messages(timestamps, texts=None):
    return [
        ChatMessage(
            timestamp=t,
            user=f"user_{i % 5}",
            text="" if texts is None and i % 7 == 3 else f"msg {i} gg wp kill",
        )
        for i, t in enumerate(timestamps)
    ]


_timestamps = st.lists(
    st.floats(min_value=0.0, max_value=480.0, allow_nan=False, allow_infinity=False),
    min_size=0,
    max_size=60,
).map(sorted)


# ---------------------------------------------------------------------------
# 1. snapshot-codec round trips
# ---------------------------------------------------------------------------
class TestSnapshotRoundTrips:
    @settings(deadline=None, max_examples=40)
    @given(timestamps=_timestamps, split_salt=st.integers(0, 1_000))
    def test_window_state_roundtrip_and_continuation(self, timestamps, split_salt):
        messages = _messages(timestamps)
        split = split_salt % (len(messages) + 1)
        state = IncrementalWindowState(window_size=25.0, stride=10.0)
        for message in messages[:split]:
            state.add(message)

        snap = state.snapshot()
        restored = IncrementalWindowState.restore(_roundtrip(snap))
        assert restored.snapshot() == snap

        original_sealed = [s for m in messages[split:] for s in state.add(m)]
        restored_sealed = [s for m in messages[split:] for s in restored.add(m)]
        assert restored_sealed == original_sealed
        assert restored.finalize(600.0) == state.finalize(600.0)

    @settings(deadline=None, max_examples=25)
    @given(timestamps=_timestamps, split_salt=st.integers(0, 1_000))
    def test_initializer_roundtrip_and_continuation(
        self, fitted_initializer, timestamps, split_salt
    ):
        messages = _messages(timestamps)
        split = split_salt % (len(messages) + 1)
        engine = StreamingInitializer.from_initializer(
            fitted_initializer, k=4, video_id="hypo"
        )
        engine.ingest_batch(messages[:split])

        snap = engine.snapshot()
        restored = StreamingInitializer.restore(
            _roundtrip(snap),
            model=fitted_initializer.model,
            config=fitted_initializer.config,
            feature_set=fitted_initializer.feature_set,
        )
        assert restored.snapshot() == snap
        assert restored.current_dots() == engine.current_dots()

        assert restored.ingest_batch(messages[split:]) == engine.ingest_batch(
            messages[split:]
        )
        assert restored.finalize(600.0) == engine.finalize(600.0)
        # A finalized engine snapshots and restores too (final dots kept).
        closed = StreamingInitializer.restore(
            _roundtrip(engine.snapshot()), model=fitted_initializer.model
        )
        assert closed.current_dots() == engine.current_dots()

    @settings(deadline=None, max_examples=40)
    @given(
        events=st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=400.0, allow_nan=False),
                st.sampled_from(list(InteractionKind)),
                st.integers(0, 3),
                st.one_of(
                    st.none(),
                    st.floats(min_value=0.0, max_value=400.0, allow_nan=False),
                ),
            ),
            max_size=50,
        ).map(lambda raw: sorted(raw, key=lambda e: e[0])),
        split_salt=st.integers(0, 1_000),
    )
    def test_extractor_roundtrip_and_continuation(self, events, split_salt):
        interactions = [
            Interaction(
                timestamp=t,
                kind=kind,
                user=f"viewer_{u}",
                # Seek interactions require a target; land on the timestamp
                # when the strategy drew none.
                target=(
                    t
                    if target is None
                    and kind
                    in (InteractionKind.SEEK_FORWARD, InteractionKind.SEEK_BACKWARD)
                    else target
                ),
            )
            for t, kind, u, target in events
        ]
        split = split_salt % (len(interactions) + 1)
        extractor = StreamingExtractor(min_plays_for_refinement=3, max_plays_per_dot=8)
        extractor.sync_dots(
            [RedDot(position=100.0, window=(75.0, 100.0)), RedDot(position=250.0)]
        )
        extractor.ingest_batch(interactions[:split])

        snap = extractor.snapshot()
        restored = StreamingExtractor.restore(_roundtrip(snap))
        assert restored.snapshot() == snap
        assert restored.tracked_dots() == extractor.tracked_dots()

        assert restored.ingest_batch(interactions[split:]) == extractor.ingest_batch(
            interactions[split:]
        )
        assert restored.flush() == extractor.flush()
        assert restored.refined_highlights() == extractor.refined_highlights()

    def test_session_roundtrip_with_live_traffic(
        self, fitted_initializer, labelled_video, crowd
    ):
        messages = list(labelled_video.chat_log.messages)
        half = len(messages) // 2
        session = StreamSession(
            video_id=labelled_video.video.video_id,
            initializer=StreamingInitializer.from_initializer(
                fitted_initializer, k=5, video_id=labelled_video.video.video_id
            ),
            extractor=StreamingExtractor(
                config=fitted_initializer.config, min_plays_for_refinement=5
            ),
        )
        session.ingest_messages(messages[:half])
        for round_index, dot in enumerate(session.current_dots()[:2]):
            session.ingest_interactions(
                crowd.collect_round(labelled_video.video, dot, round_index)
            )

        snap = session.snapshot()
        restored = StreamSession.restore(
            _roundtrip(snap),
            model=fitted_initializer.model,
            config=fitted_initializer.config,
            feature_set=fitted_initializer.feature_set,
        )
        assert restored.snapshot() == snap

        assert restored.ingest_messages(messages[half:]) == session.ingest_messages(
            messages[half:]
        )
        duration = labelled_video.video.duration
        assert restored.finalize(duration) == session.finalize(duration)
        assert restored.refined_highlights() == session.refined_highlights()


# ---------------------------------------------------------------------------
# 2 + 3. service checkpointing and crash recovery
# ---------------------------------------------------------------------------
def _service(store, initializer, checkpoint_every=None):
    api = SimulatedStreamingAPI(seeds=SeedSequenceFactory(2020))
    return LightorWebService(
        store=store,
        crawler=ChatCrawler(api=api, store=store),
        initializer=initializer,
        checkpoint_every=checkpoint_every,
        live_k=5,
    )


class TestServiceCheckpointing:
    def test_snapshots_are_the_open_session_registry(
        self, fitted_initializer, labelled_video
    ):
        service = _service(InMemoryStore(), fitted_initializer, checkpoint_every=50)
        video_id = labelled_video.video.video_id
        service.start_live(labelled_video.video)
        assert set(service.store.get_session_snapshots()) == {video_id}

        service.ingest_chat_batch(
            video_id, list(labelled_video.chat_log.messages[:200]), persist=True
        )
        snapshot = service.store.get_session_snapshots()[video_id]
        assert snapshot["version"] == SNAPSHOT_VERSION
        assert snapshot["chat_persisted"] == 200
        assert snapshot["session"]["messages_ingested"] == 200

        service.end_live(video_id, labelled_video.video.duration)
        assert service.store.get_session_snapshots() == {}

    def test_plays_are_stamped_not_checkpointed(
        self, fitted_initializer, labelled_video, fix_store
    ):
        # Cadence far above the traffic: only start_live may write a
        # snapshot, so a flip-triggered one would be observable.
        service = _service(fix_store, fitted_initializer, checkpoint_every=10_000)
        video_id = labelled_video.video.video_id
        service.start_live(labelled_video.video)
        service.ingest_chat_batch(
            video_id, list(labelled_video.chat_log.messages[:120]), persist=True
        )
        service.ingest_plays_batch(
            video_id,
            [
                Interaction(50.0, InteractionKind.PLAY, "viewer_0"),
                Interaction(80.0, InteractionKind.PAUSE, "viewer_0"),
            ],
        )
        # Still the start_live snapshot: the flip wrote no checkpoint …
        snapshot = service.store.get_session_snapshots()[video_id]
        assert snapshot["chat_persisted"] == 0
        assert snapshot["interactions_persisted"] == 0
        # … because the play rows carry their position in the chat log.
        assert service.store.get_interaction_stamps_since(video_id, 0) == [(120, 2)]
        service.ingest_chat_batch(
            video_id, list(labelled_video.chat_log.messages[120:150]), persist=True
        )
        service.ingest_plays_batch(
            video_id, [Interaction(90.0, InteractionKind.PLAY, "viewer_1")]
        )
        assert service.store.get_interaction_stamps_since(video_id, 1) == [
            (120, 1),
            (150, 1),
        ]
        assert service.store.get_session_snapshots()[video_id] == snapshot

    def test_shutdown_is_a_clean_close(self, fitted_initializer, labelled_video):
        service = _service(InMemoryStore(), fitted_initializer, checkpoint_every=50)
        service.start_live(labelled_video.video)
        service.shutdown()
        assert service.store.get_session_snapshots() == {}

    def test_eviction_checkpoints_the_still_open_state(
        self, fitted_initializer, dota2_dataset
    ):
        service = _service(InMemoryStore(), fitted_initializer, checkpoint_every=50)
        service.max_live_sessions = 1
        first, second = dota2_dataset[1], dota2_dataset[2]
        service.start_live(first.video)
        service.ingest_chat_batch(
            first.video.video_id, list(first.chat_log.messages[:150]), persist=True
        )
        service.start_live(second.video)  # LRU-evicts the first channel

        assert not service.streaming.has_session(first.video.video_id)
        snapshot = service.store.get_session_snapshots()[first.video.video_id]
        assert snapshot["session"]["closed"] is False
        assert snapshot["session"]["messages_ingested"] == 150
        # The evicted channel's provisional results were persisted as before …
        assert service.store.has_red_dots(first.video.video_id)
        # … and once the budget frees up, recovery resurrects the live session.
        service.end_live(second.video.video_id, second.video.duration)
        recovered = service.recover_live_sessions()
        assert [r.video_id for r in recovered] == [first.video.video_id]
        assert service.streaming.has_session(first.video.video_id)

    def test_start_live_resumes_an_evicted_channel_from_its_checkpoint(
        self, fitted_initializer, dota2_dataset
    ):
        service = _service(InMemoryStore(), fitted_initializer, checkpoint_every=50)
        service.max_live_sessions = 1
        first, second = dota2_dataset[1], dota2_dataset[2]
        service.start_live(first.video)
        service.ingest_chat_batch(
            first.video.video_id, list(first.chat_log.messages[:150]), persist=True
        )
        service.start_live(second.video)  # evicts the first channel
        service.end_live(second.video.video_id, second.video.duration)

        # Going live again must continue from the eviction checkpoint, not
        # open an empty session that would overwrite it.
        service.start_live(first.video)
        session = service.streaming.session(first.video.video_id)
        assert session.messages_ingested == 150
        snapshot = service.store.get_session_snapshots()[first.video.video_id]
        assert snapshot["session"]["messages_ingested"] == 150

    def test_out_of_band_interaction_log_is_counted_by_the_next_checkpoint(
        self, fitted_initializer, labelled_video
    ):
        service = _service(InMemoryStore(), fitted_initializer, checkpoint_every=10_000)
        video_id = labelled_video.video.video_id
        service.start_live(labelled_video.video)
        service.ingest_plays_batch(
            video_id, [Interaction(10.0, InteractionKind.PLAY, "viewer_0")]
        )
        # A front-end VOD callback logs rows the live session never folds.
        service.log_interactions(
            video_id, [Interaction(20.0, InteractionKind.STOP, "vod_user")]
        )
        service.checkpoint_live_session(video_id)
        snapshot = service.store.get_session_snapshots()[video_id]
        # The snapshot counts the out-of-band row as covered, so recovery
        # will not replay it into a session that never ingested it.
        assert snapshot["interactions_persisted"] == 2
        assert snapshot["session"]["interactions_ingested"] == 1

    def test_out_of_band_interaction_log_survives_an_immediate_crash(
        self, fitted_initializer, labelled_video, tmp_path
    ):
        # The durable snapshot itself must cover the out-of-band rows: a
        # crash right after log_interactions (no cadence checkpoint in
        # between) must not replay them into the recovered session.
        video = labelled_video.video
        path = tmp_path / "oob.db"
        service = _service(SQLiteStore(path), fitted_initializer, checkpoint_every=10_000)
        service.start_live(video)
        service.ingest_chat_batch(
            video.video_id, list(labelled_video.chat_log.messages[:100]), persist=True
        )
        service.log_interactions(
            video.video_id, [Interaction(20.0, InteractionKind.STOP, "vod_user")]
        )
        service.store.close()  # crash

        survivor = _service(SQLiteStore(path), fitted_initializer, checkpoint_every=10_000)
        recovered = survivor.recover_live_sessions()
        assert recovered[0].plays_replayed == 0
        session = survivor.streaming.session(video.video_id)
        assert session.interactions_ingested == 0
        assert session.extractor.interactions_seen == 0
        survivor.shutdown()

    def test_recover_skips_sessions_that_are_already_live(
        self, fitted_initializer, labelled_video
    ):
        service = _service(InMemoryStore(), fitted_initializer, checkpoint_every=50)
        service.start_live(labelled_video.video)
        assert service.recover_live_sessions() == []

    def test_unknown_snapshot_version_is_an_error(
        self, fitted_initializer, labelled_video
    ):
        store = InMemoryStore()
        service = _service(store, fitted_initializer, checkpoint_every=50)
        store.put_video(labelled_video.video)
        store.put_session_snapshot(
            labelled_video.video.video_id, {"version": 99, "session": {}}
        )
        with pytest.raises(ValidationError):
            service.recover_live_sessions()


class TestCrashRecovery:
    @staticmethod
    def _drive(service, video, messages, start, upto):
        """Chat in persisted batches of 40, a play burst every 200 messages."""
        index = start
        while index < upto:
            batch = messages[index : index + 40]
            service.ingest_chat_batch(video.video_id, batch, persist=True)
            index += len(batch)
            if index % 200 == 0 and batch:
                t = batch[-1].timestamp
                user = f"viewer_{index % 5}"
                service.ingest_plays_batch(
                    video.video_id,
                    [
                        Interaction(max(0.0, t - 40.0), InteractionKind.PLAY, user),
                        Interaction(t, InteractionKind.PAUSE, user),
                    ],
                )

    @staticmethod
    def _end_state(service, video):
        dots = service.end_live(video.video_id, video.duration)
        store = service.store
        return (
            dots,
            store.get_red_dots(video.video_id),
            [
                (r.highlight, r.version, r.source)
                for r in store.highlight_history(video.video_id)
            ],
            store.get_interactions(video.video_id),
        )

    def test_kill_and_recover_matches_uninterrupted_run(
        self, fitted_initializer, labelled_video, tmp_path
    ):
        video = labelled_video.video
        messages = list(labelled_video.chat_log.messages)
        path = tmp_path / "crash.db"

        service = _service(SQLiteStore(path), fitted_initializer, checkpoint_every=150)
        service.start_live(video)
        self._drive(service, video, messages, 0, len(messages) // 2)
        killed_at = service.streaming.session(video.video_id).messages_ingested
        service.store.close()  # the crash: no shutdown, no finalize

        survivor = _service(SQLiteStore(path), fitted_initializer, checkpoint_every=150)
        recovered = survivor.recover_live_sessions()
        assert [r.video_id for r in recovered] == [video.video_id]
        assert recovered[0].messages_ingested == killed_at
        self._drive(survivor, video, messages, killed_at, len(messages))
        recovered_state = self._end_state(survivor, video)
        assert survivor.store.get_session_snapshots() == {}
        survivor.shutdown()

        reference = _service(InMemoryStore(), fitted_initializer)
        reference.start_live(video)
        self._drive(reference, video, messages, 0, len(messages))
        assert self._end_state(reference, video) == recovered_state

    @pytest.mark.parametrize("kill_after", [0, 9])
    def test_loadgen_chaos_oracle(self, fitted_initializer, tmp_path, kill_after):
        spec = WorkloadSpec(
            channels=2, viewers=30, duration=900.0, batch_size=48, seed=7
        )
        report = _kill_run(
            spec, fitted_initializer, tmp_path / "chaos.db", [(kill_after, KILL)],
            checkpoint_every=64,
        )
        (kill,) = report.faults
        assert report.ok, f"divergent channels: {report.divergences}"
        assert kill.after == min(kill_after, report.total_batches)
        if kill_after > 0:
            # Channels that opened before the kill must all come back.
            assert kill.sessions_recovered >= 1
        else:
            # Nothing was live yet; recovery has nothing to rebuild and the
            # whole workload is simply re-driven.
            assert kill.sessions_recovered == 0
            assert kill.events_redriven == report.total_events


# The play-heavy fleet of ``repro load --channels 3 --viewers 900 --duration
# 1800 --batch-size 16`` (411 batches): enough plays per channel for the
# extractor to refine mid-run, so a replay that orders chat against plays
# differently from the original run changes the persisted highlights.
# Replaying a mixed suffix chat-first (ignoring the after_chat stamps)
# diverges at every kill point of TestReplayOrder.
PLAY_HEAVY = WorkloadSpec(channels=3, viewers=900, duration=1800.0, batch_size=16)


def _kill_run(
    spec, initializer, db_path, schedule, *, shards=2, workers=2, checkpoint_every=256, **kwargs
):
    """One oracle-checked load run with a fault schedule on a SQLite tier."""
    return run_load(
        spec,
        initializer,
        tier=TierSpec(
            backend="sqlite",
            db_path=db_path,
            shards=shards,
            workers=workers,
            checkpoint_every=checkpoint_every,
            **kwargs,
        ),
        schedule=schedule,
    )


def _tier(initializer, backend="sqlite", db_path=None, checkpoint_every=100_000):
    return ShardedLightorService.create(
        1,
        initializer,
        backend=backend,
        db_path=db_path,
        max_live_sessions=PLAY_HEAVY.channels,
        checkpoint_every=checkpoint_every,
    )


def _drive_batches(service, workload, batches, live):
    plans = {plan.video.video_id: plan for plan in workload.plans}
    for batch in batches:
        if batch.video_id not in live:
            service.start_live(plans[batch.video_id].video)
            live.add(batch.video_id)
        if batch.kind == "chat":
            service.ingest_chat_batch(batch.video_id, list(batch.events), persist=True)
        else:
            service.ingest_plays_batch(batch.video_id, list(batch.events))


def _crash(service):
    for shard in service.shards:
        shard.store.close()


def _fingerprints(service, workload):
    fingerprints = {}
    for plan in sorted(workload.plans, key=lambda p: p.video.video_id):
        video_id = plan.video.video_id
        dots = service.end_live(video_id, plan.duration)
        fingerprints[video_id] = LoadGenerator._fingerprint(service, video_id, dots)
    service.close()
    return fingerprints


class TestReplayOrder:
    @pytest.mark.parametrize("kill_after", [40, 80, 120, 200, 300])
    def test_play_heavy_kill_points_replay_in_original_order(
        self, fitted_initializer, tmp_path, kill_after
    ):
        # No cadence checkpoint fires: each session recovers from its
        # start_live snapshot plus a long mixed chat/plays suffix.
        report = _kill_run(
            PLAY_HEAVY, fitted_initializer, tmp_path / "heavy.db",
            [(kill_after, KILL)], workers=1, checkpoint_every=100_000,
        )
        (kill,) = report.faults
        assert report.ok, f"divergent channels: {report.divergences}"
        assert kill.chat_replayed > 0 and kill.plays_replayed > 0

    @pytest.mark.parametrize("kill_after", [40, 80, 120, 200, 300])
    def test_play_heavy_kill_points_on_the_worker_pool(
        self, fitted_initializer, tmp_path, kill_after
    ):
        # Three workers drive the three channels concurrently up to the
        # barrier and after the recovery; the fingerprints must still be
        # the sequential ones.
        report = _kill_run(
            PLAY_HEAVY, fitted_initializer, tmp_path / "heavy.db",
            [(kill_after, KILL)], workers=3, checkpoint_every=100_000,
        )
        (kill,) = report.faults
        assert report.ok, f"divergent channels: {report.divergences}"
        assert kill.chat_replayed > 0 and kill.plays_replayed > 0

    def test_stamped_channel_survives_migration_then_crash(
        self, fitted_initializer, tmp_path
    ):
        workload = LoadWorkload.from_spec(PLAY_HEAVY)
        batches = workload.batches()
        kill_at = 120

        # A source tier crashes with mixed suffixes past every snapshot …
        source = _tier(fitted_initializer, db_path=tmp_path / "source.db")
        live: set[str] = set()
        _drive_batches(source, workload, batches[:kill_at], live)
        _crash(source)
        # … and a fresh tier over its files migrates every channel out.
        source = _tier(fitted_initializer, db_path=tmp_path / "source.db")
        target = _tier(fitted_initializer, db_path=tmp_path / "target.db")
        for video_id in sorted(live):
            moved = source.migrate_out(video_id)
            stamps = moved["bundle"]["interaction_stamps"]
            assert len(stamps) > 1 and all(stamp is not None for stamp, _ in stamps)
            target.migrate_in(moved["bundle"], was_live=moved["was_live"])
            source.forget_channel(video_id)
            assert target.store_for(video_id).get_interaction_stamps_since(
                video_id, 0
            ) == [tuple(run) for run in stamps]
        source.close()
        _crash(target)

        target = _tier(fitted_initializer, db_path=tmp_path / "target.db")
        recovered = target.recover_live_sessions()
        assert {report.video_id for report in recovered} == live
        assert sum(report.chat_replayed for report in recovered) > 0
        assert sum(report.plays_replayed for report in recovered) > 0
        _drive_batches(target, workload, batches[kill_at:], live)

        oracle = _tier(fitted_initializer, backend="memory", checkpoint_every=None)
        _drive_batches(oracle, workload, batches, set())
        assert _fingerprints(target, workload) == _fingerprints(oracle, workload)

    def test_stale_shard_files_are_refused(self, fitted_initializer, tmp_path):
        stale = tmp_path / "chaos.shard1.db"
        stale.write_bytes(b"")
        with pytest.raises(ValidationError, match="chaos.shard1.db"):
            _kill_run(PLAY_HEAVY, fitted_initializer, tmp_path / "chaos.db", [(1, KILL)])


# The smoke fleet of ``repro load --smoke`` (49 batches of 64 events).
SMOKE = WorkloadSpec(channels=3, viewers=60, duration=1200.0, batch_size=64)


class TestFaultSchedule:
    """Kills combined with other faults and transports on one drive loop."""

    def test_kill_after_a_reshard(self, fitted_initializer, tmp_path):
        report = _kill_run(
            SMOKE, fitted_initializer, tmp_path / "grown.db",
            [(4, reshard_to(3)), (20, KILL)], checkpoint_every=64,
        )
        reshard, kill = report.faults
        assert report.ok, report.describe()
        assert (reshard.old_shards, reshard.new_shards, reshard.after) == (2, 3, 4)
        # The fresh tier reopens all three files the reshard left behind.
        assert (kill.action, kill.after, kill.new_shards) == (KILL, 20, 3)
        assert kill.sessions_recovered == SMOKE.channels
        assert report.shards == 3

    def test_kill_over_http(self, fitted_initializer, tmp_path):
        report = _kill_run(
            PLAY_HEAVY, fitted_initializer, tmp_path / "wire.db",
            [(80, KILL)], transport="http", checkpoint_every=100_000,
        )
        (kill,) = report.faults
        assert report.ok, report.describe()
        assert report.transport == "http"
        assert kill.chat_replayed > 0 and kill.plays_replayed > 0

    def test_kill_over_cluster_is_refused(self, fitted_initializer, tmp_path):
        with pytest.raises(ValidationError, match="cluster"):
            _kill_run(
                SMOKE, fitted_initializer, tmp_path / "fleet.db", [(5, KILL)],
                transport="cluster",
            )

    def test_standalone_migration_then_kill(self, fitted_initializer, tmp_path):
        """The fresh tier routes by the placement the shard files recorded,
        so the moved channel recovers and keeps serving on its new shard."""
        moving = LoadWorkload.from_spec(SMOKE).batches()[0].video_id

        def migrate_channel(tier):
            return tier.migrate_channel(moving, (tier.shard_index(moving) + 1) % tier.n_shards)

        report = _kill_run(
            SMOKE, fitted_initializer, tmp_path / "pinned.db",
            [(5, migrate_channel), (20, KILL)], checkpoint_every=64,
        )
        assert report.ok, report.describe()


# Storage format v2, frozen: the DDL of a file written before the
# ``after_chat`` stamp (v3) and the framed play batches (v4).
_V2_SCHEMA = """
CREATE TABLE videos (
    video_id TEXT PRIMARY KEY,
    payload  TEXT NOT NULL
);
CREATE TABLE chat_messages (
    video_id TEXT NOT NULL,
    seq      INTEGER NOT NULL,
    payload  TEXT NOT NULL,
    PRIMARY KEY (video_id, seq)
);
CREATE TABLE chat_batches (
    video_id  TEXT NOT NULL,
    first_seq INTEGER NOT NULL,
    n         INTEGER NOT NULL,
    payload   BLOB NOT NULL,
    PRIMARY KEY (video_id, first_seq)
);
CREATE TABLE interactions (
    rowid    INTEGER PRIMARY KEY AUTOINCREMENT,
    video_id TEXT NOT NULL,
    payload  TEXT NOT NULL
);
CREATE INDEX idx_interactions_video ON interactions (video_id);
CREATE TABLE interaction_counts (
    video_id TEXT PRIMARY KEY,
    n        INTEGER NOT NULL
);
CREATE TABLE red_dots (
    video_id TEXT NOT NULL,
    seq      INTEGER NOT NULL,
    payload  TEXT NOT NULL,
    PRIMARY KEY (video_id, seq)
);
CREATE TABLE red_dot_sets (
    video_id TEXT PRIMARY KEY,
    n        INTEGER NOT NULL
);
CREATE TABLE highlight_records (
    video_id TEXT NOT NULL,
    version  INTEGER NOT NULL,
    payload  TEXT NOT NULL,
    PRIMARY KEY (video_id, version)
);
CREATE TABLE session_snapshots (
    video_id TEXT PRIMARY KEY,
    payload  TEXT NOT NULL
);
CREATE TABLE meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
"""


class TestStorageFormatUpgrade:
    def test_v2_database_gains_the_stamp_column_and_recovers(
        self, fitted_initializer, labelled_video, tmp_path
    ):
        video = labelled_video.video
        messages = list(labelled_video.chat_log.messages)
        drive = TestCrashRecovery._drive
        # A run as a v2 build leaves it: plays in the prefix, and a suffix
        # past the last checkpoint that is homogeneous in kind (chat only).
        service = _service(SQLiteStore(tmp_path / "current.db"), fitted_initializer, 10_000)
        service.start_live(video)
        drive(service, video, messages, 0, 600)
        service.checkpoint_live_session(video.video_id)
        drive(service, video, messages, 600, 760)
        service.store.close()  # crash

        # Rebuild that file with the v2 DDL: the same chat batches,
        # snapshots and derived rows, but one unstamped JSON row per play.
        legacy = tmp_path / "v2.db"
        connection = sqlite3.connect(legacy)
        connection.executescript(_V2_SCHEMA)
        connection.execute("ATTACH DATABASE ? AS current", (str(tmp_path / "current.db"),))
        for table in (
            "videos",
            "chat_batches",
            "red_dots",
            "red_dot_sets",
            "highlight_records",
            "session_snapshots",
            "meta",
        ):
            connection.execute(f"INSERT INTO {table} SELECT * FROM current.{table}")
        batches = connection.execute(
            "SELECT video_id, payload FROM current.play_batches ORDER BY video_id, first_seq"
        ).fetchall()
        for video_id, payload in batches:
            for item in wire.decode_frame(payload):
                connection.execute(
                    "INSERT INTO interactions (video_id, payload) VALUES (?, ?)",
                    (video_id, json.dumps(item)),
                )
        connection.execute(
            "INSERT INTO interaction_counts SELECT video_id, COUNT(*) FROM interactions "
            "GROUP BY video_id"
        )
        connection.execute(
            "UPDATE meta SET value = '2' WHERE key = ?", (SQLiteStore.STORAGE_FORMAT_KEY,)
        )
        connection.commit()
        connection.close()

        store = SQLiteStore(legacy)
        reader = sqlite3.connect(legacy)
        tables = {row[0] for row in reader.execute("SELECT name FROM sqlite_master")}
        reader.close()
        assert "interactions" not in tables and "play_batches" in tables
        assert store.get_meta(SQLiteStore.STORAGE_FORMAT_KEY) == (
            SQLiteStore.STORAGE_FORMAT_VERSION
        )
        assert store.get_interaction_stamps_since(video.video_id, 0) == [(None, 6)]

        survivor = _service(store, fitted_initializer, 10_000)
        recovered = survivor.recover_live_sessions()
        assert recovered[0].messages_ingested == 760
        assert recovered[0].chat_replayed == 160 and recovered[0].plays_replayed == 0
        drive(survivor, video, messages, 760, len(messages))
        upgraded = TestCrashRecovery._end_state(survivor, video)
        survivor.shutdown()

        reference = _service(InMemoryStore(), fitted_initializer)
        reference.start_live(video)
        drive(reference, video, messages, 0, len(messages))
        assert TestCrashRecovery._end_state(reference, video) == upgraded

    def test_newer_build_file_is_refused(self, tmp_path):
        newer = str(int(SQLiteStore.STORAGE_FORMAT_VERSION) + 1)
        store = SQLiteStore(tmp_path / "future.db")
        store.set_meta(SQLiteStore.STORAGE_FORMAT_KEY, newer)
        store.close()
        with pytest.raises(ValidationError, match=f"storage format v{newer}"):
            SQLiteStore(tmp_path / "future.db")


# ---------------------------------------------------------------------------
# 4. service-tier correctness fixes
# ---------------------------------------------------------------------------
@pytest.fixture(params=["memory", "sqlite"])
def fix_store(request):
    store = InMemoryStore() if request.param == "memory" else SQLiteStore()
    yield store
    store.close()


class TestServiceCorrectnessFixes:
    def test_cache_hit_honours_smaller_k(self, fitted_initializer):
        service = _service(InMemoryStore(), fitted_initializer)
        video_id = service.crawler.api.recent_videos("dota2_channel_0", 1)[0].video_id
        full = service.request_red_dots(video_id, k=5)
        assert len(full) == 5
        truncated = service.request_red_dots(video_id, k=3)
        # Exactly a fresh k=3 request, without recomputation …
        assert truncated == fitted_initializer.propose(
            service.store.get_chat_log(video_id), k=3
        )
        # … and the stored superset is untouched for future requests.
        assert service.store.get_red_dots(video_id) == full
        assert service.request_red_dots(video_id, k=5) == full

    def test_cache_hit_recomputes_for_larger_k(self, fitted_initializer):
        service = _service(InMemoryStore(), fitted_initializer)
        video_id = service.crawler.api.recent_videos("dota2_channel_0", 1)[0].video_id
        small = service.request_red_dots(video_id, k=2)
        assert len(small) == 2
        grown = service.request_red_dots(video_id, k=6)
        assert grown == fitted_initializer.propose(
            service.store.get_chat_log(video_id), k=6
        )
        assert len(grown) == 6
        assert service.store.get_red_dots(video_id) == grown

    def test_larger_k_below_threshold_chat_keeps_the_cached_set(
        self, fitted_initializer, labelled_video, monkeypatch
    ):
        # Dots persisted by the live path (which never gates on chat rate)
        # must survive a larger-k request whose recompute fails the
        # applicability check — replacing them with [] would destroy them.
        service = _service(InMemoryStore(), fitted_initializer)
        video_id = labelled_video.video.video_id
        service.start_live(labelled_video.video)
        service.ingest_chat_batch(
            video_id, list(labelled_video.chat_log.messages), persist=True
        )
        dots = service.end_live(video_id, labelled_video.video.duration)
        assert dots
        monkeypatch.setattr(service.initializer, "is_applicable", lambda log: False)
        assert service.request_red_dots(video_id, k=len(dots) + 3) == dots
        assert service.store.get_red_dots(video_id) == dots

    def test_unattainable_larger_k_keeps_the_cached_set(self, fitted_initializer):
        service = _service(InMemoryStore(), fitted_initializer)
        video_id = service.crawler.api.recent_videos("dota2_channel_0", 1)[0].video_id
        # The full attainable selection for this video.
        everything = service.request_red_dots(video_id, k=1_000)
        attainable = len(everything)
        # Refinement-style adjustment: move a stored dot and re-store.
        moved = [everything[0].moved_to(everything[0].position + 1.0)] + everything[1:]
        service.store.put_red_dots(video_id, moved)
        # Asking beyond the attainable count must not clobber the adjusted
        # positions with a fresh recompute of the identical selection.
        again = service.request_red_dots(video_id, k=attainable + 5)
        assert again == service.store.get_red_dots(video_id)
        assert [d.position for d in service.store.get_red_dots(video_id)] == sorted(
            d.position for d in moved
        )

    def test_rejected_chat_batch_leaves_no_rows(
        self, fitted_initializer, labelled_video, fix_store
    ):
        service = _service(fix_store, fitted_initializer)
        video_id = labelled_video.video.video_id
        service.start_live(labelled_video.video)
        unsorted = [ChatMessage(50.0, "a", "late"), ChatMessage(10.0, "b", "early")]
        with pytest.raises(ValidationError):
            service.ingest_chat_batch(video_id, unsorted, persist=True)
        assert service.store.get_chat(video_id) == []
        assert service.streaming.session(video_id).messages_ingested == 0

    def test_rejected_plays_batch_leaves_no_rows(
        self, fitted_initializer, labelled_video, fix_store, monkeypatch
    ):
        service = _service(fix_store, fitted_initializer)
        video_id = labelled_video.video.video_id
        service.start_live(labelled_video.video)
        session = service.streaming.session(video_id)

        def reject(interactions):
            raise ValidationError("batch rejected by the session")

        monkeypatch.setattr(session, "ingest_interactions", reject)
        with pytest.raises(ValidationError):
            service.ingest_plays_batch(
                video_id, [Interaction(1.0, InteractionKind.PLAY, "a")]
            )
        # Fold-first, persist-second: the store never saw the rejected batch.
        assert service.store.get_interactions(video_id) == []

    def test_persist_for_unregistered_video_raises(self, fitted_initializer):
        service = _service(InMemoryStore(), fitted_initializer)
        # A session opened below the service (no start_live → no metadata).
        service.streaming.open_session("orphan")
        messages = [ChatMessage(1.0, "a", "hello")]
        with pytest.raises(ValidationError):
            service.ingest_chat_batch("orphan", messages, persist=True)
        # The non-persisting path still works for the same channel.
        service.streaming.open_session("orphan2")
        assert service.ingest_chat_batch("orphan2", messages) == []

    def test_zero_duration_stage_stats_are_json_safe(self):
        recorder = LatencyRecorder()
        recorder.record("chat", 0.0, events=5)
        stats = merge_recorders([recorder])["chat"]
        assert stats.seconds == 0.0
        assert stats.events_per_sec == 0.0
        text = json.dumps(stats.to_dict(), allow_nan=False)
        assert json.loads(text)["events_per_sec"] == 0.0

    def test_stage_stats_rate_unchanged_for_real_durations(self):
        stats = StageStats(
            calls=2, events=100, seconds=0.5, p50_ms=1.0, p95_ms=2.0, p99_ms=3.0, max_ms=4.0
        )
        assert stats.events_per_sec == 200.0
