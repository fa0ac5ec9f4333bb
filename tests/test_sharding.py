"""Tests for the sharded service tier.

Two properties matter:

* **equivalence** — because every worker runs the same deterministic
  engines, a 4-shard service fed a workload returns byte-identical red dots
  and highlight records to a single-worker service fed the same workload
  (the acceptance bar of the refactor);
* **thread-safety** — interleaved live ingest and red-dot requests from a
  thread pool must not lose writes or corrupt per-channel state, because the
  per-shard locks serialize access to each worker.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from repro.core.types import VideoChatLog
from repro.platform import codecs
from repro.platform.api import SimulatedStreamingAPI
from repro.platform.backends import InMemoryStore, SQLiteStore
from repro.platform.crawler import ChatCrawler
from repro.platform.service import LightorWebService
from repro.platform.sharding import ConsistentHashRing, ShardedLightorService, shard_db_path
from repro.simulation.chat import interleave_live
from repro.simulation.crowd import CrowdSimulator
from repro.utils.rng import SeedSequenceFactory
from repro.utils.validation import ValidationError

K = 5
N_CHANNELS = 4
MESSAGES_PER_CHANNEL = 600
INTERACTION_CHUNK_EVERY = 200  # ingest one interaction chunk per this many messages


class TestConsistentHashRing:
    def test_deterministic_across_instances(self):
        first = ConsistentHashRing(4)
        second = ConsistentHashRing(4)
        keys = [f"video-{i}" for i in range(100)]
        assert [first.shard_for(k) for k in keys] == [second.shard_for(k) for k in keys]

    def test_spreads_keys_over_all_shards(self):
        ring = ConsistentHashRing(4)
        owners = {ring.shard_for(f"dota2-{i:04d}") for i in range(200)}
        assert owners == {0, 1, 2, 3}

    def test_adding_a_shard_moves_few_keys(self):
        keys = [f"video-{i}" for i in range(400)]
        four, five = ConsistentHashRing(4), ConsistentHashRing(5)
        moved = sum(1 for k in keys if four.shard_for(k) != five.shard_for(k))
        # Consistent hashing moves ~1/5 of the keys; rehashing would move ~4/5.
        assert moved < len(keys) // 2

    def test_invalid_sizes_rejected(self):
        with pytest.raises(ValidationError):
            ConsistentHashRing(0)
        with pytest.raises(ValidationError):
            ShardedLightorService([])

    def test_shard_db_path(self):
        assert shard_db_path("highlights.db", 2) == "highlights.shard2.db"
        assert shard_db_path("/tmp/x/h.db", 0) == "/tmp/x/h.shard0.db"


# --------------------------------------------------------------------- workload
def _workload(dataset):
    """Per-channel chat logs (truncated for speed) from the shared dataset."""
    logs = {}
    for target in dataset[1 : 1 + N_CHANNELS]:
        logs[target.video.video_id] = VideoChatLog(
            video=target.video,
            messages=target.chat_log.messages[:MESSAGES_PER_CHANNEL],
        )
    return logs


def _interaction_chunks(fitted_initializer, logs):
    """Deterministic viewer-interaction chunks per channel.

    Built once from the batch dots of each (truncated) log, so every service
    under test receives the identical sequence.
    """
    crowd = CrowdSimulator(seeds=SeedSequenceFactory(7))
    chunks = {}
    for video_id, log in logs.items():
        dots = fitted_initializer.propose(log, k=K)
        per_dot = [
            crowd.collect_round(log.video, dot, round_index)
            for dot in dots
            for round_index in range(3)
        ]
        chunks[video_id] = per_dot
    return chunks


def _drive_channel(service, log, chunks, poll=None):
    """One channel's scripted session: chat with interaction chunks woven in.

    The per-channel operation order is fixed, so any two services driving the
    same script must land in the same state regardless of how channels
    interleave across shards/threads.
    """
    video_id = log.video.video_id
    pending = list(chunks)
    for index, message in enumerate(log.messages, start=1):
        service.ingest_chat_batch(video_id, [message])
        if index % INTERACTION_CHUNK_EVERY == 0 and pending:
            service.ingest_plays_batch(video_id, pending.pop(0))
            if poll is not None:
                poll(video_id)
    for chunk in pending:
        service.ingest_plays_batch(video_id, chunk)
    return service.end_live(video_id, log.video.duration)


def _single_worker(fitted_initializer):
    store = InMemoryStore()
    api = SimulatedStreamingAPI(seeds=SeedSequenceFactory(2020))
    return LightorWebService(
        store=store,
        crawler=ChatCrawler(api=api, store=store),
        initializer=fitted_initializer,
        live_k=K,
    )


@pytest.fixture(scope="module")
def workload(dota2_dataset, fitted_initializer):
    logs = _workload(dota2_dataset)
    return logs, _interaction_chunks(fitted_initializer, logs)


@pytest.fixture(scope="module")
def single_worker_results(fitted_initializer, workload):
    """The reference: every channel driven sequentially on one worker."""
    logs, chunks = workload
    service = _single_worker(fitted_initializer)
    for log in logs.values():
        service.start_live(log.video)
    dots = {
        video_id: _drive_channel(service, log, chunks[video_id])
        for video_id, log in logs.items()
    }
    records = {vid: service.store.highlight_history(vid) for vid in logs}
    interactions = {vid: len(service.store.get_interactions(vid)) for vid in logs}
    return dots, records, interactions


def _fingerprint(objects):
    return [codecs.dumps(obj) for obj in objects]


class TestShardedParity:
    def test_four_shards_byte_identical_to_single_worker(
        self, fitted_initializer, workload, single_worker_results
    ):
        logs, chunks = workload
        expected_dots, expected_records, _ = single_worker_results

        service = ShardedLightorService.create(4, fitted_initializer, live_k=K)
        for log in logs.values():
            service.start_live(log.video)
        for video_id, log in logs.items():
            sharded_dots = _drive_channel(service, log, chunks[video_id])
            assert _fingerprint(sharded_dots) == _fingerprint(expected_dots[video_id])
            assert _fingerprint(service.highlight_history(video_id)) == _fingerprint(
                expected_records[video_id]
            )
            assert _fingerprint(service.get_red_dots(video_id)) == _fingerprint(
                expected_dots[video_id]
            )

    def test_workload_produces_highlight_records(self, single_worker_results):
        # The parity assertion above must not be vacuous: the simulated crowd
        # has to drive at least one refinement to an exact boundary.
        _, records, _ = single_worker_results
        assert any(records.values())

    def test_sqlite_backed_shards_match_memory(
        self, fitted_initializer, workload, single_worker_results, tmp_path
    ):
        logs, chunks = workload
        expected_dots, expected_records, _ = single_worker_results

        service = ShardedLightorService.create(
            4,
            fitted_initializer,
            backend="sqlite",
            db_path=tmp_path / "shards.db",
            live_k=K,
        )
        for log in logs.values():
            service.start_live(log.video)
        for video_id, log in logs.items():
            dots = _drive_channel(service, log, chunks[video_id])
            assert _fingerprint(dots) == _fingerprint(expected_dots[video_id])
        service.close()

        # The results survive the service: reopen each shard file directly.
        for video_id in logs:
            reopened = SQLiteStore(
                shard_db_path(tmp_path / "shards.db", ConsistentHashRing(4).shard_for(video_id))
            )
            assert _fingerprint(reopened.get_red_dots(video_id)) == _fingerprint(
                expected_dots[video_id]
            )
            assert _fingerprint(reopened.highlight_history(video_id)) == _fingerprint(
                expected_records[video_id]
            )
            reopened.close()


class TestShardedShutdown:
    def test_close_finalizes_open_live_sessions(
        self, fitted_initializer, workload, tmp_path
    ):
        # Shutting down mid-stream must persist every open session's results
        # through the eviction path — nothing silently dropped.
        logs, _ = workload
        service = ShardedLightorService.create(
            4, fitted_initializer, backend="sqlite", db_path=tmp_path / "down.db", live_k=K
        )
        for log in logs.values():
            service.start_live(log.video)
            for message in log.messages:
                service.ingest_chat_batch(log.video.video_id, [message])
        service.close()  # no end_live calls — shutdown finalizes the sessions

        for video_id in logs:
            reopened = SQLiteStore(
                shard_db_path(tmp_path / "down.db", ConsistentHashRing(4).shard_for(video_id))
            )
            assert reopened.has_red_dots(video_id)
            assert reopened.get_red_dots(video_id)
            reopened.close()


class TestShardedCloseBestEffort:
    def test_one_failing_shard_does_not_leak_the_rest(self, fitted_initializer, workload):
        """Regression: ``close()`` used to stop at the first shard whose
        ``shutdown()`` raised, leaking every remaining shard's store and
        skipping their session finalization."""
        logs, _ = workload
        service = ShardedLightorService.create(3, fitted_initializer, live_k=K)
        for log in logs.values():
            service.start_live(log.video)
        shut_down: list[int] = []
        boom = RuntimeError("shard 0 exploded")

        def wrap(index: int, original):
            def wrapped():
                shut_down.append(index)
                if index == 0:
                    raise boom
                return original()

            return wrapped

        for index, shard in enumerate(service.shards):
            shard.shutdown = wrap(index, shard.shutdown)

        with pytest.raises(RuntimeError, match="shard 0 exploded"):
            service.close()
        # Every shard was still asked to shut down — the healthy ones
        # finalized their sessions and persisted the results.
        assert shut_down == [0, 1, 2]
        for log in logs.values():
            video_id = log.video.video_id
            if service.shard_index(video_id) != 0:
                assert service.store_for(video_id).has_red_dots(video_id)

    def test_first_of_several_errors_wins(self, fitted_initializer):
        service = ShardedLightorService.create(3, fitted_initializer)
        for index, shard in enumerate(service.shards):
            shard.shutdown = (
                lambda index=index: (_ for _ in ()).throw(RuntimeError(f"shard {index}"))
            )
        with pytest.raises(RuntimeError, match="shard 0"):
            service.close()


class TestDbPathHandling:
    """``str`` and ``Path`` database paths must behave identically."""

    def test_shard_suffixing_identical_for_str_and_path(self):
        assert shard_db_path("x/data.db", 1) == shard_db_path(Path("x/data.db"), 1)
        assert shard_db_path("data.db", 0) == "data.shard0.db"

    def test_suffixless_path_gains_only_the_shard_part(self):
        assert shard_db_path("highlights", 0) == "highlights.shard0"
        assert shard_db_path(Path("highlights"), 2) == "highlights.shard2"

    def test_memory_path_is_never_suffixed(self):
        # Suffixing ``:memory:`` would silently create a stray *file*
        # literally named ``:memory:.shard0``.
        assert shard_db_path(":memory:", 0) == ":memory:"
        assert shard_db_path(Path(":memory:"), 3) == ":memory:"

    def test_memory_db_path_tier_leaves_no_files(
        self, fitted_initializer, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        for path in (":memory:", Path(":memory:")):
            service = ShardedLightorService.create(
                2, fitted_initializer, backend="sqlite", db_path=path
            )
            assert service.db_paths() == []
            service.close()
            assert list(tmp_path.iterdir()) == []

    def test_db_paths_filters_memory_for_str_and_path(self, fitted_initializer, tmp_path):
        service = ShardedLightorService.create(
            2, fitted_initializer, backend="sqlite", db_path=tmp_path / "real.db"
        )
        assert len(service.db_paths()) == 2
        assert all(".shard" in path for path in service.db_paths())
        service.close()


class TestShardMarker:
    def test_reusing_db_path_with_other_shard_count_rejected(
        self, fitted_initializer, tmp_path
    ):
        path = tmp_path / "ring.db"
        first = ShardedLightorService.create(
            2, fitted_initializer, backend="sqlite", db_path=path
        )
        first.close()
        with pytest.raises(ValidationError, match="2-shard"):
            ShardedLightorService.create(
                4, fitted_initializer, backend="sqlite", db_path=path
            )
        # The matching shard count reopens cleanly.
        again = ShardedLightorService.create(
            2, fitted_initializer, backend="sqlite", db_path=path
        )
        again.close()


class TestShardedConcurrency:
    def test_threaded_ingest_matches_sequential_and_loses_no_writes(
        self, fitted_initializer, workload, single_worker_results
    ):
        logs, chunks = workload
        expected_dots, expected_records, expected_interactions = single_worker_results

        service = ShardedLightorService.create(4, fitted_initializer, live_k=K)
        for log in logs.values():
            service.start_live(log.video)

        def poll(video_id):
            # Red-dot requests race the ingest of every other channel.
            service.live_red_dots(video_id)

        final_dots = {}
        with ThreadPoolExecutor(max_workers=len(logs)) as pool:
            futures = {
                video_id: pool.submit(
                    _drive_channel, service, log, chunks[video_id], poll
                )
                for video_id, log in logs.items()
            }
            for video_id, future in futures.items():
                final_dots[video_id] = future.result(timeout=120)

        for video_id in logs:
            sent = sum(len(chunk) for chunk in chunks[video_id])
            stored = len(service.store_for(video_id).get_interactions(video_id))
            assert stored == sent, f"lost interaction writes for {video_id}"
            assert stored == expected_interactions[video_id]
            assert _fingerprint(final_dots[video_id]) == _fingerprint(
                expected_dots[video_id]
            )
            assert _fingerprint(service.highlight_history(video_id)) == _fingerprint(
                expected_records[video_id]
            )

        stats = service.stats()
        assert stats["shards"] == 4
        assert stats["videos"] == len(logs)
        assert stats["interactions"] == sum(expected_interactions.values())
