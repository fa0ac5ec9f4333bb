"""A stateful model test of the routed service surface.

Hypothesis generates call sequences from the routed verbs of
``repro.platform.surface.VERBS`` (live start/chat/plays/dots/end, recorded
red dots, interaction logging and reads, refinement) plus
``migrate_channel``.  Each call goes to a 2-shard in-process tier, either
directly or through a ``GatewayThread``/``LightorClient`` in front of the
same tier, and its answer — a value or a refusal — must equal what a
1-shard model tier answers for the same call.  After every step no shard
lock may still be held.  Shrinking reports the shortest failing sequence.
"""

from __future__ import annotations

from threading import Thread

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
    run_state_machine_as_test,
)

from repro.platform import surface
from repro.platform.client import LightorClient
from repro.platform.server import GatewayThread
from repro.platform.sharding import ShardedLightorService
from repro.utils.validation import ValidationError

K = 5
FRONTS = st.sampled_from(["inproc", "wire"])
READS = ["get_interactions", "get_red_dots", "highlight_history", "latest_highlights"]


def _answer(call):
    """A call's value, or the class of its refusal."""
    try:
        return "ok", call()
    except ValidationError as error:
        return "refused", type(error).__name__


def _lock_is_free(lock) -> bool:
    """Probe ``lock`` with a non-blocking acquire from another thread."""
    acquired: list[bool] = []

    def probe() -> None:
        acquired.append(lock.acquire(blocking=False))
        if acquired[0]:
            lock.release()

    thread = Thread(target=probe)
    thread.start()
    thread.join()
    return acquired[0]


@pytest.fixture(scope="module")
def fleet(dota2_dataset, fitted_initializer, crowd):
    """Two live channels and one recorded video, each with viewer plays
    around one of its red dots."""
    scratch = ShardedLightorService.create(1, fitted_initializer)
    try:
        entries = []
        for labelled in (dota2_dataset[1], dota2_dataset[2], dota2_dataset[4]):
            video, messages = labelled.video, list(labelled.chat_log.messages)
            scratch.register_video(video)
            scratch.store_for(video.video_id).put_chat(video.video_id, messages)
            dot = scratch.request_red_dots(video.video_id, k=1)[0]
            plays = [p for r in range(3) for p in crowd.collect_round(video, dot, r)]
            entries.append((video, messages[:400], plays))
    finally:
        scratch.close()
    return entries


def test_routed_verbs_plus_migration_match_a_one_shard_model(fitted_initializer, fleet):
    (*live_channels, (recorded, recorded_chat, recorded_plays)) = fleet
    channels = {video.video_id: (video, messages, plays) for video, messages, plays in live_channels}
    live_ids = st.sampled_from(sorted(channels))
    stored_ids = st.sampled_from(sorted(channels) + [recorded.video_id])

    def build(n_shards: int) -> ShardedLightorService:
        return ShardedLightorService.create(
            n_shards, fitted_initializer, live_k=K, max_live_sessions=len(channels)
        )

    class SurfaceMachine(RuleBasedStateMachine):
        def __init__(self) -> None:
            super().__init__()
            self.model = build(1)
            self.tier = build(2)
            self.gateway = GatewayThread(self.tier, worker_threads=2)
            self.client = LightorClient(*self.gateway.start())
            self.chat_at = dict.fromkeys(channels, 0)
            self.plays_at = dict.fromkeys(channels, 0)
            self.logged = 0

        def teardown(self) -> None:
            self.client.close()
            self.gateway.stop()
            self.tier.close()
            self.model.close()

        def same(self, front: str, verb: str, *args):
            """Call ``verb`` on the model and on the subject; answers must match."""
            subject = self.tier if front == "inproc" else self.client
            expected = _answer(lambda: getattr(self.model, verb)(*args))
            actual = _answer(lambda: getattr(subject, verb)(*args))
            assert actual == expected, (verb, front, args)
            return actual

        @initialize(front=FRONTS)
        def open_fleet(self, front) -> None:
            for tier in (self.model, self.tier):
                tier.register_video(recorded)
                tier.store_for(recorded.video_id).put_chat(recorded.video_id, recorded_chat)
            for video_id in sorted(channels):
                self.start_live(front, video_id)

        @rule(front=FRONTS, video_id=live_ids)
        def start_live(self, front, video_id) -> None:
            self.same(front, "start_live", channels[video_id][0])

        @rule(front=FRONTS, video_id=live_ids, n=st.integers(1, 80), persist=st.booleans())
        def ingest_chat_batch(self, front, video_id, n, persist) -> None:
            messages = channels[video_id][1]
            start = self.chat_at[video_id]
            batch = messages[start : start + n]
            if self.same(front, "ingest_chat_batch", video_id, batch, persist)[0] == "ok":
                self.chat_at[video_id] = start + len(batch)

        @rule(front=FRONTS, video_id=live_ids, n=st.integers(1, 40))
        def ingest_plays_batch(self, front, video_id, n) -> None:
            plays = channels[video_id][2]
            start = self.plays_at[video_id]
            batch = plays[start : start + n]
            if self.same(front, "ingest_plays_batch", video_id, batch)[0] == "ok":
                self.plays_at[video_id] = start + len(batch)

        @rule(front=FRONTS, video_id=live_ids)
        def live_red_dots(self, front, video_id) -> None:
            self.same(front, "live_red_dots", video_id)

        @rule(front=FRONTS, video_id=live_ids)
        def end_live(self, front, video_id) -> None:
            self.same(front, "end_live", video_id, channels[video_id][0].duration)

        @rule(front=FRONTS, k=st.integers(1, 6))
        def request_red_dots(self, front, k) -> None:
            self.same(front, "request_red_dots", recorded.video_id, k)

        @rule(front=FRONTS, n=st.integers(1, 60))
        def log_interactions(self, front, n) -> None:
            batch = recorded_plays[self.logged : self.logged + n]
            if self.same(front, "log_interactions", recorded.video_id, batch)[0] == "ok":
                self.logged += len(batch)

        @rule(front=FRONTS)
        def refine_video(self, front) -> None:
            self.same(front, "refine_video", recorded.video_id)

        @rule(
            front=FRONTS,
            video_id=stored_ids,
            verb=st.sampled_from(READS),
        )
        def read(self, front, video_id, verb) -> None:
            self.same(front, verb, video_id)

        @rule(video_id=stored_ids)
        def migrate_channel(self, video_id) -> None:
            dst = (self.tier.shard_index(video_id) + 1) % self.tier.n_shards
            assert self.tier.migrate_channel(video_id, dst).moved
            assert self.tier.shard_index(video_id) == dst

        @invariant()
        def no_shard_lock_is_held(self) -> None:
            assert all(_lock_is_free(lock) for lock in self.tier._locks)

    # Every routed verb is called: by a rule of its own name, by the read
    # rule, or (register_video) once up front.
    called = set(vars(SurfaceMachine)) | set(READS) | {"register_video"}
    assert {verb.name for verb in surface.ROUTED} <= called
    run_state_machine_as_test(
        SurfaceMachine,
        settings=settings(
            max_examples=30,
            stateful_step_count=40,
            deadline=None,
            derandomize=True,
            database=None,
            suppress_health_check=[HealthCheck.too_slow],
        ),
    )
