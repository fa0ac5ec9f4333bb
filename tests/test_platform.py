"""Tests for the platform substrate (storage, API, crawler, service, extension)."""

from __future__ import annotations

import pytest

from repro.core.types import ChatMessage, Highlight, Interaction, InteractionKind, RedDot, Video
from repro.platform.api import SimulatedStreamingAPI
from repro.platform.crawler import ChatCrawler
from repro.platform.extension import BrowserExtension, ProgressBarView
from repro.platform.service import LightorWebService
from repro.platform.backends import InMemoryStore
from repro.utils.rng import SeedSequenceFactory
from repro.utils.validation import ValidationError


def _video(video_id="v1", duration=600.0):
    return Video(video_id=video_id, duration=duration)


class TestInMemoryStore:
    def test_video_roundtrip(self):
        store = InMemoryStore()
        store.put_video(_video())
        assert store.has_video("v1")
        assert store.get_video("v1").duration == 600.0
        assert not store.has_video("nope")
        with pytest.raises(ValidationError):
            store.get_video("nope")

    def test_chat_requires_known_video(self):
        store = InMemoryStore()
        with pytest.raises(ValidationError):
            store.put_chat("ghost", [ChatMessage(1.0)])

    def test_chat_roundtrip_sorted(self):
        store = InMemoryStore()
        store.put_video(_video())
        count = store.put_chat("v1", [ChatMessage(30.0), ChatMessage(5.0)])
        assert count == 2
        assert store.has_chat("v1")
        assert [m.timestamp for m in store.get_chat("v1")] == [5.0, 30.0]
        assert len(store.get_chat_log("v1")) == 2

    def test_interaction_log_appends(self):
        store = InMemoryStore()
        store.put_video(_video())
        store.log_interactions("v1", [Interaction(1.0, InteractionKind.PLAY, "a")])
        total = store.log_interactions("v1", [Interaction(2.0, InteractionKind.STOP, "a")])
        assert total == 2
        assert len(store.get_interactions("v1")) == 2

    def test_red_dots_replace(self):
        store = InMemoryStore()
        store.put_video(_video())
        store.put_red_dots("v1", [RedDot(position=50.0)])
        store.put_red_dots("v1", [RedDot(position=70.0), RedDot(position=20.0)])
        assert [d.position for d in store.get_red_dots("v1")] == [20.0, 70.0]

    def test_highlight_versions_increase(self):
        store = InMemoryStore()
        store.put_video(_video())
        first = store.put_highlight("v1", Highlight(10.0, 20.0))
        second = store.put_highlight("v1", Highlight(11.0, 21.0))
        assert (first.version, second.version) == (1, 2)
        assert len(store.highlight_history("v1")) == 2
        # Both refer to the same area, so only the latest is reported.
        assert store.latest_highlights("v1") == [Highlight(11.0, 21.0)]

    def test_stats(self):
        store = InMemoryStore()
        store.put_video(_video())
        store.put_chat("v1", [ChatMessage(1.0)])
        stats = store.stats()
        assert stats["videos"] == 1 and stats["chat_messages"] == 1


class TestSimulatedAPI:
    def test_catalog_is_stable(self):
        api = SimulatedStreamingAPI(seeds=SeedSequenceFactory(3), videos_per_channel=3)
        first = api.recent_videos("dota2_channel_0")
        second = api.recent_videos("dota2_channel_0")
        assert [v.video_id for v in first] == [v.video_id for v in second]

    def test_channels_do_not_share_videos(self):
        api = SimulatedStreamingAPI(seeds=SeedSequenceFactory(3), videos_per_channel=3)
        a = {v.video_id for v in api.recent_videos("dota2_channel_0")}
        b = {v.video_id for v in api.recent_videos("dota2_channel_1")}
        assert not a & b

    def test_chat_replay_cached(self):
        api = SimulatedStreamingAPI(seeds=SeedSequenceFactory(3), videos_per_channel=2)
        video = api.recent_videos("lol_channel_0", 1)[0]
        first = api.get_chat_replay(video.video_id)
        second = api.get_chat_replay(video.video_id)
        assert first == second
        assert api.chat_requests_served_ == 2

    def test_unknown_identifiers_rejected(self):
        api = SimulatedStreamingAPI(seeds=SeedSequenceFactory(3))
        with pytest.raises(ValidationError):
            api.get_video("chess-0001")
        with pytest.raises(ValidationError):
            api.recent_videos("unknown_channel_x")


class TestChatCrawler:
    def _crawler(self):
        api = SimulatedStreamingAPI(seeds=SeedSequenceFactory(4), videos_per_channel=2)
        store = InMemoryStore()
        return ChatCrawler(api=api, store=store), api, store

    def test_online_crawl_is_idempotent(self):
        crawler, api, store = self._crawler()
        video = api.recent_videos("dota2_channel_0", 1)[0]
        first = crawler.crawl_video(video.video_id)
        second = crawler.crawl_video(video.video_id)
        assert first == second
        assert store.has_chat(video.video_id)

    def test_offline_pass_crawls_watched_channels(self):
        crawler, _, store = self._crawler()
        crawler.watch_top_channels("dota2", count=2)
        report = crawler.offline_pass()
        assert report.channels_visited == 2
        assert report.videos_crawled == report.videos_seen == 4
        assert store.stats()["videos_with_chat"] == 4
        # A second pass crawls nothing new.
        assert crawler.offline_pass().videos_crawled == 0


class TestWebServiceAndExtension:
    @pytest.fixture()
    def service(self, fitted_initializer):
        api = SimulatedStreamingAPI(seeds=SeedSequenceFactory(2020), videos_per_channel=2)
        store = InMemoryStore()
        crawler = ChatCrawler(api=api, store=store)
        return LightorWebService(store=store, crawler=crawler, initializer=fitted_initializer)

    def test_request_red_dots_crawls_and_caches(self, service):
        video_id = service.crawler.api.recent_videos("dota2_channel_0", 1)[0].video_id
        dots = service.request_red_dots(video_id, k=5)
        assert service.store.has_chat(video_id)
        assert service.store.get_red_dots(video_id) == dots
        assert service.request_red_dots(video_id, k=5) == dots

    def test_empty_red_dot_result_is_cached(self, service, monkeypatch):
        # A below-threshold video stores an empty dot set; later requests
        # must serve it from the store instead of recomputing.
        video_id = service.crawler.api.recent_videos("dota2_channel_1", 1)[0].video_id
        monkeypatch.setattr(service.initializer, "is_applicable", lambda log: False)
        assert service.request_red_dots(video_id, k=3) == []
        assert service.store.has_red_dots(video_id)

        def explode(log):
            raise AssertionError("empty cached result was recomputed")

        monkeypatch.setattr(service.initializer, "is_applicable", explode)
        assert service.request_red_dots(video_id, k=3) == []

    def test_log_interactions_requires_known_video(self, service):
        with pytest.raises(ValidationError):
            service.log_interactions("ghost", [])

    def test_refinement_updates_highlights(self, service, crowd):
        video_id = service.crawler.api.recent_videos("dota2_channel_0", 1)[0].video_id
        dots = service.request_red_dots(video_id, k=3)
        if not dots:
            pytest.skip("no red dots served for this synthetic video")
        video = service.store.get_video(video_id)
        for dot in dots:
            for round_index in range(3):
                service.log_interactions(
                    video_id, crowd.collect_round(video, dot, round_index)
                )
        updated = service.refine_video(video_id)
        assert updated >= 1
        assert service.store.latest_highlights(video_id)

    def test_extension_activation_and_rendering(self, service):
        extension = BrowserExtension(service=service, k=3)
        assert extension.open_page("https://example.tv/directory") is None
        video_id = service.crawler.api.recent_videos("dota2_channel_0", 1)[0].video_id
        view = extension.open_page(f"https://example.tv/videos/{video_id}")
        assert view is not None
        rendered = view.render()
        assert rendered.count("*") >= 1
        assert len(rendered) == view.width + 2

    def test_extension_forwards_interactions(self, service):
        extension = BrowserExtension(service=service, k=3)
        video_id = service.crawler.api.recent_videos("dota2_channel_0", 1)[0].video_id
        extension.open_page(f"https://example.tv/videos/{video_id}")
        dot = extension.click_dot(0)
        count = extension.forward_interactions(
            [
                Interaction(dot.position, InteractionKind.PLAY, "me"),
                Interaction(dot.position + 20.0, InteractionKind.STOP, "me"),
            ]
        )
        assert count == 2

    def test_extension_errors_without_active_page(self, service):
        extension = BrowserExtension(service=service)
        with pytest.raises(ValidationError):
            extension.forward_interactions([])
        with pytest.raises(ValidationError):
            extension.click_dot(0)

    def test_progress_bar_bounds(self):
        view = ProgressBarView(video_id="v", duration=100.0, dot_positions=(0.0, 99.9), width=20)
        rendered = view.render()
        assert rendered[1] == "*" and rendered[-2] == "*"
        assert view.n_dots == 2

    def test_url_parsing(self):
        assert BrowserExtension.extract_video_id("https://t.tv/videos/dota2-0001") == "dota2-0001"
        assert BrowserExtension.extract_video_id("https://t.tv/channels/foo") is None


class TestServiceShutdown:
    @pytest.fixture()
    def live_service(self, fitted_initializer, dota2_dataset):
        api = SimulatedStreamingAPI(seeds=SeedSequenceFactory(2020), videos_per_channel=2)
        store = InMemoryStore()
        crawler = ChatCrawler(api=api, store=store)
        service = LightorWebService(
            store=store, crawler=crawler, initializer=fitted_initializer, live_k=3
        )
        targets = list(dota2_dataset[2:4])
        for target in targets:
            service.start_live(target.video)
            service.ingest_chat_batch(
                target.video.video_id, list(target.chat_log.messages[:200])
            )
        return service, [target.video.video_id for target in targets]

    def test_shutdown_finalizes_every_session_and_closes_the_store(self, live_service):
        service, video_ids = live_service
        closed = []
        original_close = service.store.close
        service.store.close = lambda: (closed.append(True), original_close())
        service.shutdown()
        assert closed == [True]
        for video_id in video_ids:
            assert service.store.has_red_dots(video_id)
        assert not service.streaming.open_video_ids()

    def test_failing_end_live_still_closes_store_and_other_sessions(self, live_service):
        """Regression: ``shutdown()`` used to abort on the first ``end_live``
        error — never reaching ``store.close()`` and skipping the remaining
        sessions' finalization."""
        service, video_ids = live_service
        doomed = video_ids[0]
        closed = []
        original_close = service.store.close
        service.store.close = lambda: (closed.append(True), original_close())
        original_end = service.end_live

        def end_live(video_id, duration=None):
            if video_id == doomed:
                raise RuntimeError(f"finalize failed for {video_id}")
            return original_end(video_id, duration)

        service.end_live = end_live
        with pytest.raises(RuntimeError, match=doomed):
            service.shutdown()
        # The store was closed anyway, and the healthy session persisted.
        assert closed == [True]
        assert service.store.has_red_dots(video_ids[1])
