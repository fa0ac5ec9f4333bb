"""Unit tests for the streaming subsystem (events, extractor, sessions)."""

from __future__ import annotations

import hashlib
import json
import time

import pytest

from repro.core.config import LightorConfig
from repro.core.types import (
    ChatMessage,
    Interaction,
    InteractionKind,
    PlayRecord,
    RedDot,
    Video,
    VideoChatLog,
)
from repro.platform.crawler import ChatCrawler
from repro.platform.api import SimulatedStreamingAPI
from repro.platform.service import LightorWebService
from repro.platform.backends import InMemoryStore
from repro.simulation.chat import interleave_live
from repro.streaming import (
    DotEmitted,
    DotRetracted,
    EmitPolicy,
    HighlightRefined,
    StreamOrchestrator,
    StreamingExtractor,
    StreamingInitializer,
)
from repro.streaming.state import IncrementalWindowState
from repro.utils.rng import SeedSequenceFactory
from repro.utils.validation import ValidationError


class TestEmitPolicy:
    def test_rejects_bad_values(self):
        with pytest.raises(ValidationError):
            EmitPolicy(eval_every_messages=0)
        with pytest.raises(ValidationError):
            EmitPolicy(min_score=1.5)


class TestStreamingInitializer:
    def test_requires_fitted_model(self, config):
        from repro.core.initializer.initializer import HighlightInitializer

        with pytest.raises(ValidationError):
            StreamingInitializer.from_initializer(HighlightInitializer(config=config))

    def test_emits_then_retracts(self, fitted_initializer, dota2_dataset):
        chat_log = dota2_dataset[2].chat_log
        streaming = StreamingInitializer.from_initializer(
            fitted_initializer,
            k=3,
            policy=EmitPolicy(eval_every_messages=25, eval_every_seconds=15.0),
        )
        emitted, retracted = 0, 0
        for message in chat_log.messages:
            for event in streaming.ingest(message):
                if isinstance(event, DotEmitted):
                    emitted += 1
                elif isinstance(event, DotRetracted):
                    retracted += 1
        assert emitted > 0
        # k is small and the video has many bursts, so churn must occur.
        assert retracted > 0
        assert emitted - retracted == len(streaming.current_dots())

    def test_ingest_after_finalize_rejected(self, fitted_initializer, dota2_dataset):
        chat_log = dota2_dataset[2].chat_log
        streaming = StreamingInitializer.from_initializer(fitted_initializer, k=3)
        for message in chat_log.messages[:100]:
            streaming.ingest(message)
        streaming.finalize(chat_log.video.duration)
        with pytest.raises(ValidationError):
            streaming.ingest(chat_log.messages[100])

    def test_finalize_before_observed_chat_rejected(
        self, fitted_initializer, dota2_dataset
    ):
        """Closing a stream at a duration the chat already passed must fail
        loudly — the batch engine rejects such logs, and scoring sealed
        windows past the declared end would serve dots beyond the video."""
        chat_log = dota2_dataset[2].chat_log
        streaming = StreamingInitializer.from_initializer(fitted_initializer, k=5)
        for message in chat_log.messages:
            streaming.ingest(message)
        with pytest.raises(ValidationError, match="already observed"):
            streaming.finalize(chat_log.video.duration / 2)

    def test_finalize_is_idempotent(self, fitted_initializer, dota2_dataset):
        chat_log = dota2_dataset[2].chat_log
        streaming = StreamingInitializer.from_initializer(fitted_initializer, k=5)
        for message in chat_log.messages:
            streaming.ingest(message)
        first = streaming.finalize(chat_log.video.duration)
        second = streaming.finalize(chat_log.video.duration)
        assert first == second

    def test_min_score_gates_provisional_not_final(
        self, fitted_initializer, dota2_dataset
    ):
        chat_log = dota2_dataset[2].chat_log
        gated = StreamingInitializer.from_initializer(
            fitted_initializer,
            k=5,
            policy=EmitPolicy(min_score=0.9),
            video_id=chat_log.video.video_id,
        )
        for message in chat_log.messages:
            gated.ingest(message)
        assert all(dot.score >= 0.9 for dot in gated.current_dots())
        final = gated.finalize(chat_log.video.duration)
        assert final == fitted_initializer.propose(chat_log, k=5)

    def test_memory_cap_bounds_summaries(self, fitted_initializer, dota2_dataset):
        chat_log = dota2_dataset[2].chat_log
        bounded = StreamingInitializer.from_initializer(
            fitted_initializer, k=3, max_window_summaries=10
        )
        for message in chat_log.messages:
            bounded.ingest(message)
        assert bounded.window_summary_count <= 10

    def test_token_cache_stays_near_live_edge(self, fitted_initializer, dota2_dataset):
        chat_log = dota2_dataset[2].chat_log
        streaming = StreamingInitializer.from_initializer(fitted_initializer, k=3)
        peak_cache = 0
        for message in chat_log.messages:
            streaming.ingest(message)
            peak_cache = max(peak_cache, len(streaming._state._token_cache))
        # The cache only spans messages the seal frontier hasn't passed —
        # roughly one window of chat, never the whole stream.
        burst_bound = max(
            len(chat_log.messages_between(t, t + 50.0))
            for t in range(0, int(chat_log.video.duration), 25)
        )
        assert peak_cache <= max(burst_bound * 2, 50)
        assert peak_cache < len(chat_log.messages) / 4


def _viewer_round(dot_position: float, n_viewers: int, watch: float = 30.0):
    """Simple engaged viewers: click the dot, watch ``watch`` seconds, stop."""
    interactions = []
    for index in range(n_viewers):
        user = f"viewer_{index}"
        start = dot_position + 0.5 * index
        interactions.append(
            Interaction(timestamp=start, kind=InteractionKind.PLAY, user=user)
        )
        interactions.append(
            Interaction(timestamp=start + watch, kind=InteractionKind.STOP, user=user)
        )
    return interactions


class TestStreamingExtractor:
    def test_play_reconstruction_matches_batch(self):
        from repro.core.extractor.plays import interactions_to_plays

        interactions = [
            Interaction(timestamp=10.0, kind=InteractionKind.PLAY, user="a"),
            Interaction(timestamp=25.0, kind=InteractionKind.SEEK_BACKWARD, user="a", target=5.0),
            Interaction(timestamp=18.0, kind=InteractionKind.STOP, user="a"),
            Interaction(timestamp=40.0, kind=InteractionKind.PLAY, user="b"),
            Interaction(timestamp=55.0, kind=InteractionKind.PAUSE, user="b"),
        ]
        extractor = StreamingExtractor(config=LightorConfig())
        extractor.track(RedDot(position=15.0))
        for interaction in interactions:
            extractor.ingest(interaction)
        extractor.flush()
        batch_plays = interactions_to_plays(interactions)
        accumulator = next(iter(extractor._dots.values()))
        assert sorted(accumulator.plays, key=lambda p: (p.start, p.end)) == [
            play
            for play in batch_plays
            if play.start <= 15.0 + 60.0 and play.end >= 15.0 - 60.0
        ]

    def test_refinement_fires_after_enough_plays(self):
        config = LightorConfig()
        extractor = StreamingExtractor(config=config, min_plays_for_refinement=8)
        dot = RedDot(position=130.0, window=(120.0, 145.0))
        extractor.track(dot)
        events = []
        for interaction in _viewer_round(125.0, n_viewers=12):
            events.extend(extractor.ingest(interaction))
        refinements = [e for e in events if isinstance(e, HighlightRefined)]
        assert refinements, "enough consistent plays must trigger a refinement"
        refined = refinements[-1]
        assert refined.highlight is not None or refined.moved_to is not None
        assert extractor.tracked_dots()[0].position <= dot.position

    def test_ring_buffer_bounds_plays(self):
        extractor = StreamingExtractor(
            config=LightorConfig(),
            min_plays_for_refinement=1000,
            max_plays_per_dot=16,
        )
        extractor.track(RedDot(position=100.0))
        for play_index in range(100):
            extractor.ingest_play(
                PlayRecord(user=f"u{play_index}", start=95.0, end=120.0)
            )
        accumulator = next(iter(extractor._dots.values()))
        assert accumulator.play_count == 16

    def test_untracked_dot_receives_nothing(self):
        extractor = StreamingExtractor(config=LightorConfig())
        dot = RedDot(position=100.0, window=(90.0, 115.0))
        extractor.track(dot)
        extractor.untrack(dot)
        events = extractor.ingest_play(PlayRecord(user="u", start=95.0, end=120.0))
        assert events == []
        assert extractor.tracked_dots() == []


class TestInterleaveLive:
    def test_duplicate_logs_with_equal_timestamps_merge_cleanly(self):
        video = Video(video_id="twin", duration=100.0)
        log = VideoChatLog(
            video=video,
            messages=[ChatMessage(timestamp=10.0, text="gg"),
                      ChatMessage(timestamp=10.0, text="wp")],
        )
        # Identical ids and tied timestamps previously fell through to
        # comparing ChatMessage/iterator heap entries and raised TypeError.
        merged = list(interleave_live([log, log]))
        assert len(merged) == 4
        assert [t for _, m in merged for t in [m.timestamp]] == sorted(
            m.timestamp for _, m in merged
        )


class TestOrchestrator:
    def test_requires_fitted_initializer(self, config):
        from repro.core.initializer.initializer import HighlightInitializer

        with pytest.raises(ValidationError):
            StreamOrchestrator(initializer=HighlightInitializer(config=config))

    def test_multiplexes_channels_with_final_parity(
        self, fitted_initializer, dota2_dataset
    ):
        targets = dota2_dataset[1:4]
        orchestrator = StreamOrchestrator(initializer=fitted_initializer, k=5)
        logs = {t.video.video_id: t.chat_log for t in targets}
        for video_id, message in interleave_live(list(logs.values())):
            orchestrator.ingest_message(video_id, message)
        assert orchestrator.stats()["sessions_live"] == len(targets)
        for video_id, chat_log in logs.items():
            final = orchestrator.close_session(video_id, chat_log.video.duration)
            assert final == fitted_initializer.propose(chat_log, k=5)
        assert orchestrator.stats()["sessions_live"] == 0

    def test_lru_eviction_bounds_sessions(self, fitted_initializer):
        evicted: list[str] = []
        orchestrator = StreamOrchestrator(
            initializer=fitted_initializer,
            max_sessions=3,
            on_evict=lambda video_id, dots: evicted.append(video_id),
        )
        for index in range(6):
            orchestrator.open_session(f"live-{index}")
        assert orchestrator.stats()["sessions_live"] == 3
        assert evicted == ["live-0", "live-1", "live-2"]
        assert orchestrator.sessions_evicted == 3
        # Touching keeps a session alive through further opens.
        orchestrator.open_session("live-3")
        orchestrator.open_session("live-6")
        assert orchestrator.has_session("live-3")
        assert not orchestrator.has_session("live-4")

    def test_close_unknown_session_raises(self, fitted_initializer):
        orchestrator = StreamOrchestrator(initializer=fitted_initializer)
        with pytest.raises(ValidationError):
            orchestrator.close_session("nope")

    def test_session_wires_dots_into_extractor(self, fitted_initializer, dota2_dataset):
        chat_log = dota2_dataset[2].chat_log
        orchestrator = StreamOrchestrator(
            initializer=fitted_initializer,
            k=3,
            policy=EmitPolicy(eval_every_messages=25),
            min_plays_for_refinement=6,
        )
        video_id = chat_log.video.video_id
        refinements = []
        for message in chat_log.messages:
            orchestrator.ingest_message(video_id, message)
            dots = orchestrator.current_dots(video_id)
            if dots and message.timestamp > chat_log.video.duration / 2:
                refinements.extend(
                    orchestrator.ingest_interactions(
                        video_id, _viewer_round(dots[0].position, n_viewers=8)
                    )
                )
                break
        assert any(isinstance(e, HighlightRefined) for e in refinements)
        session = orchestrator.session(video_id)
        assert session.interactions_ingested > 0

    def test_finalize_hands_duration_to_extractor(
        self, fitted_initializer, dota2_dataset
    ):
        chat_log = dota2_dataset[2].chat_log
        orchestrator = StreamOrchestrator(initializer=fitted_initializer, k=3)
        video_id = chat_log.video.video_id
        for message in chat_log.messages:
            orchestrator.ingest_message(video_id, message)
        session = orchestrator.session(video_id)
        # A viewer still playing when the stream ends: their dangling play
        # must be clamped to the final duration, like the batch path does.
        session.ingest_interaction(
            Interaction(
                timestamp=chat_log.video.duration - 5.0,
                kind=InteractionKind.PLAY,
                user="dangler",
            )
        )
        orchestrator.close_session(video_id, chat_log.video.duration)
        assert session.extractor.video_duration == chat_log.video.duration


class TestServiceLiveIngest:
    @pytest.fixture()
    def service(self, fitted_initializer):
        seeds = SeedSequenceFactory(5)
        api = SimulatedStreamingAPI(seeds=seeds)
        store = InMemoryStore()
        crawler = ChatCrawler(api=api, store=store)
        return LightorWebService(
            store=store, crawler=crawler, initializer=fitted_initializer
        )

    def test_live_lifecycle_persists_final_dots(self, service, dota2_dataset):
        labelled = dota2_dataset[2]
        chat_log = labelled.chat_log
        service.start_live(labelled.video)
        events = service.ingest_chat_batch(chat_log.video.video_id, chat_log.messages)
        assert any(isinstance(e, DotEmitted) for e in events)
        assert service.live_red_dots(chat_log.video.video_id)
        final = service.end_live(chat_log.video.video_id, chat_log.video.duration)
        assert final == service.initializer.propose(chat_log, k=None)
        # Persisted through the eviction callback:
        assert service.store.get_red_dots(chat_log.video.video_id) == final

    def test_live_interactions_are_also_logged(self, service, dota2_dataset):
        labelled = dota2_dataset[2]
        service.start_live(labelled.video)
        service.ingest_chat_batch(
            labelled.video.video_id, labelled.chat_log.messages[:500]
        )
        interactions = _viewer_round(100.0, n_viewers=3)
        service.ingest_plays_batch(labelled.video.video_id, interactions)
        assert len(service.store.get_interactions(labelled.video.video_id)) == len(
            interactions
        )

    def test_ingest_without_start_live_rejected(self, service, dota2_dataset):
        """Unknown channels must not silently open sessions at the service
        surface — an evicted channel reborn with only its chat tail would
        later overwrite the correct stored dots."""
        labelled = dota2_dataset[2]
        with pytest.raises(ValidationError, match="start_live"):
            service.ingest_chat_batch(
                labelled.video.video_id, labelled.chat_log.messages[:10]
            )
        with pytest.raises(ValidationError, match="start_live"):
            service.ingest_plays_batch(
                labelled.video.video_id, _viewer_round(100.0, n_viewers=1)
            )

    def test_end_live_is_idempotent_after_close_or_eviction(
        self, service, dota2_dataset
    ):
        labelled = dota2_dataset[2]
        chat_log = labelled.chat_log
        service.start_live(labelled.video)
        service.ingest_chat_batch(chat_log.video.video_id, chat_log.messages)
        first = service.end_live(chat_log.video.video_id, chat_log.video.duration)
        # Ending again returns the persisted dots instead of raising, and the
        # channel's provisional view keeps serving them.
        assert service.end_live(chat_log.video.video_id) == first
        assert service.live_red_dots(chat_log.video.video_id) == first
        with pytest.raises(ValidationError):
            service.end_live("never-seen")

    def test_far_future_message_and_close_return_at_once(self, service, dota2_dataset):
        """A chat gap costs one step, however long: one timestamp must not
        hold a shard for hours walking empty window indices."""
        video = dota2_dataset[2].video
        service.start_live(video)
        started = time.perf_counter()
        service.ingest_chat_batch(video.video_id, [ChatMessage(3.0, "a", "gg")])
        service.ingest_chat_batch(video.video_id, [ChatMessage(1e12, "b", "gg")])
        assert time.perf_counter() - started < 1.0
        started = time.perf_counter()
        service.end_live(video.video_id, 2e12)
        assert time.perf_counter() - started < 1.0


class TestSparseStreams:
    """Gaps in the chat are skipped in one step, changing no window."""

    def test_a_gap_spanning_one_batch_folds_at_once(self):
        state = IncrementalWindowState(window_size=25.0, stride=10.0)
        started = time.perf_counter()
        state.add_batch([ChatMessage(5.0, "a", "gg"), ChatMessage(1e12, "b", "wp")])
        state.finalize(2e12)
        assert time.perf_counter() - started < 1.0

    def test_skipping_a_gap_changes_no_window(self):
        """Sealed windows and the snapshot, pinned from the per-index walk."""
        state = IncrementalWindowState(window_size=25.0, stride=10.0)
        words = ["gg", "wp", "nice", "lol", "wow"]
        sealed = []
        for i, t in enumerate([1.0, 2.5, 14.0, 30.0]):
            sealed += state.add(ChatMessage(t, f"u{i}", words[i]))
        sealed += state.add_batch(
            [ChatMessage(t, f"v{i}", words[i]) for i, t in enumerate([999_990.0, 999_995.0, 1e6])]
        )
        assert [(s.start, s.end, s.message_count) for s in sealed] == [
            (0.0, 25.0, 3), (10.0, 35.0, 2), (20.0, 45.0, 1), (30.0, 55.0, 1),
            (999_970.0, 999_995.0, 1),
        ]
        digest = hashlib.sha256(json.dumps(state.snapshot(), sort_keys=True).encode())
        assert digest.hexdigest() == (
            "cd8f4168efac91891c04f27e01b822441d85e2ca687f9450c118e9ee833476a7"
        )

    @pytest.mark.parametrize("timestamp", [float("inf"), float("nan")])
    def test_non_finite_timestamps_are_rejected(self, timestamp):
        with pytest.raises(ValidationError):
            ChatMessage(timestamp, "a", "gg")
