"""BENCH-STORAGE — backend write/read throughput and shard scaling.

The storage refactor introduced pluggable backends (memory, SQLite) and a
sharded service tier; this bench starts their performance trajectory.  It
measures, per backend, the write and read throughput of the four row
families (chat, interactions, red dots, highlight records), then measures
how concurrent interaction logging scales with the shard count through the
sharded front door.

Results are printed and appended to ``BENCH_storage.json`` (under
``.bench_out/``; at the repo root with ``LIGHTOR_BENCH_RECORD=1``) so
successive PRs can track the trajectory.  Sizes shrink via the
``LIGHTOR_BENCH_STORAGE_*`` environment variables (the CI smoke job runs
tiny sizes to keep the bench from rotting).
"""

from __future__ import annotations

import json
import os
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from benchmarks.conftest import results_path
from repro.core.initializer.initializer import HighlightInitializer
from repro.core.types import ChatMessage, Highlight, Interaction, InteractionKind, RedDot, Video
from repro.platform.backends import SQLiteStore, create_backend
from repro.platform.sharding import ShardedLightorService

N_VIDEOS = int(os.environ.get("LIGHTOR_BENCH_STORAGE_VIDEOS", "8"))
MESSAGES_PER_VIDEO = int(os.environ.get("LIGHTOR_BENCH_STORAGE_MESSAGES", "2000"))
INTERACTIONS_PER_VIDEO = int(os.environ.get("LIGHTOR_BENCH_STORAGE_INTERACTIONS", "2000"))
INTERACTION_BATCH = 50
SHARD_COUNTS = (1, 2, 4)
WRITER_THREADS = int(os.environ.get("LIGHTOR_BENCH_STORAGE_WRITERS", "4"))

RESULTS_PATH = results_path("BENCH_storage.json")

VIDEO_DURATION = 7200.0


def _videos():
    return [Video(video_id=f"bench-{i:04d}", duration=VIDEO_DURATION) for i in range(N_VIDEOS)]


def _chat(video_id: str):
    step = VIDEO_DURATION / (MESSAGES_PER_VIDEO + 1)
    return [
        ChatMessage(timestamp=i * step, user=f"u{i % 100}", text="PogChamp gg")
        for i in range(MESSAGES_PER_VIDEO)
    ]


def _interactions():
    step = VIDEO_DURATION / (INTERACTIONS_PER_VIDEO + 1)
    return [
        Interaction(i * step, InteractionKind.PLAY, user=f"u{i % 100}")
        for i in range(INTERACTIONS_PER_VIDEO)
    ]


def _save(section: str, payload) -> None:
    config = {
        "videos": N_VIDEOS,
        "messages_per_video": MESSAGES_PER_VIDEO,
        "interactions_per_video": INTERACTIONS_PER_VIDEO,
        "writer_threads": WRITER_THREADS,
    }
    # Sections are keyed by the run's sizes, so a tiny CI-smoke run records
    # its own entry instead of clobbering the tracked full-size trajectory.
    signature = (
        f"videos{N_VIDEOS}-msgs{MESSAGES_PER_VIDEO}"
        f"-ints{INTERACTIONS_PER_VIDEO}-writers{WRITER_THREADS}"
    )
    results = {}
    if RESULTS_PATH.exists():
        results = json.loads(RESULTS_PATH.read_text())
    section_data = results.setdefault(section, {})
    entry = section_data.get(signature)
    if not isinstance(entry, dict):
        entry = {}
    entry.update(payload)
    entry["config"] = config
    section_data[signature] = entry
    # allow_nan=False keeps the file spec-valid JSON, like the other BENCH
    # writers: a non-finite rate fails the bench instead of writing a file
    # most parsers reject.
    RESULTS_PATH.write_text(
        json.dumps(results, indent=2, sort_keys=True, allow_nan=False) + "\n"
    )


def _timed(operation) -> tuple[float, int]:
    started = time.perf_counter()
    count = operation()
    return time.perf_counter() - started, count


@pytest.mark.parametrize("kind", ["memory", "sqlite-memory", "sqlite-file"])
def test_bench_backend_throughput(benchmark, kind, tmp_path):
    videos = _videos()
    interactions = _interactions()
    chats = {video.video_id: _chat(video.video_id) for video in videos}

    def build_store():
        if kind == "memory":
            return create_backend("memory")
        if kind == "sqlite-memory":
            return create_backend("sqlite")
        return SQLiteStore(tmp_path / "bench.db")

    def run_matrix():
        store = build_store()
        rows = {}

        def write_chat():
            total = 0
            for video in videos:
                store.put_video(video)
                total += store.put_chat(video.video_id, chats[video.video_id])
            return total

        def read_chat():
            return sum(len(store.get_chat(v.video_id)) for v in videos)

        def write_interactions():
            total = 0
            for video in videos:
                for start in range(0, len(interactions), INTERACTION_BATCH):
                    batch = interactions[start : start + INTERACTION_BATCH]
                    store.log_interactions(video.video_id, batch)
                    total += len(batch)
            return total

        def read_interactions():
            return sum(len(store.get_interactions(v.video_id)) for v in videos)

        def write_dots_and_highlights():
            total = 0
            for video in videos:
                dots = [RedDot(position=p * 600.0, score=p, window=(p * 600.0, p * 600.0 + 30.0))
                        for p in range(10)]
                store.put_red_dots(video.video_id, dots)
                store.put_highlight(video.video_id, Highlight(10.0, 40.0))
                total += len(dots) + 1
            return total

        for name, op in (
            ("chat_write", write_chat),
            ("chat_read", read_chat),
            ("interaction_write", write_interactions),
            ("interaction_read", read_interactions),
            ("dots_highlights_write", write_dots_and_highlights),
        ):
            seconds, count = _timed(op)
            rows[name] = {
                "rows": count,
                "seconds": round(seconds, 6),
                "rows_per_sec": round(count / seconds, 1) if seconds > 0 else float("inf"),
            }
        stats = store.stats()
        store.close()
        return rows, stats

    rows, stats = benchmark.pedantic(run_matrix, rounds=1, iterations=1)

    print()
    print(f"backend {kind}: {stats['chat_messages']:,} chat rows, "
          f"{stats['interactions']:,} interaction rows")
    for name, row in rows.items():
        print(f"  {name:22s} {row['rows']:>9,} rows in {row['seconds']:8.3f}s "
              f"({row['rows_per_sec']:>12,.0f} rows/s)")
    _save("backends", {kind: rows})

    assert stats["chat_messages"] == N_VIDEOS * MESSAGES_PER_VIDEO
    assert stats["interactions"] == N_VIDEOS * INTERACTIONS_PER_VIDEO


def test_bench_shard_scaling():
    videos = _videos()
    interactions = _interactions()
    batches = [
        interactions[start : start + INTERACTION_BATCH]
        for start in range(0, len(interactions), INTERACTION_BATCH)
    ]
    scaling = {}

    for n_shards in SHARD_COUNTS:
        # The interaction-log path never touches the models, so an unfitted
        # initializer keeps the bench about storage, not inference.
        service = ShardedLightorService.create(n_shards, HighlightInitializer())
        for video in videos:
            service.register_video(video)

        def log_all(video):
            for batch in batches:
                service.log_interactions(video.video_id, batch)
            return len(interactions)

        started = time.perf_counter()
        with ThreadPoolExecutor(max_workers=WRITER_THREADS) as pool:
            total = sum(pool.map(log_all, videos))
        seconds = time.perf_counter() - started
        service.close()

        scaling[str(n_shards)] = {
            "interactions": total,
            "seconds": round(seconds, 6),
            "rows_per_sec": round(total / seconds, 1) if seconds > 0 else float("inf"),
        }

    print()
    print(f"shard scaling ({WRITER_THREADS} writer threads, memory backend):")
    for n_shards, row in scaling.items():
        print(f"  {n_shards} shard(s): {row['interactions']:>9,} interactions in "
              f"{row['seconds']:8.3f}s ({row['rows_per_sec']:>12,.0f} rows/s)")
    _save("shard_scaling", scaling)

    assert all(row["interactions"] == N_VIDEOS * INTERACTIONS_PER_VIDEO for row in scaling.values())
