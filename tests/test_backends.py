"""Contract test suite every storage backend must pass.

The suite is parametrized over the in-memory reference store and the SQLite
backend (both ``:memory:`` and file-backed), so all implementations are held
to the exact same semantics: idempotent chat ingest, append-only interaction
logs, replace-style red dots, monotonically versioned highlight results and
unknown-id errors.  Backend-specific behaviour (durability across reopen,
WAL mode) is tested separately below.
"""

from __future__ import annotations

import json
import sqlite3

import pytest

from repro.core.types import ChatMessage, Highlight, Interaction, InteractionKind, RedDot, Video
from repro.platform import codecs, wire
from repro.platform.backends import (
    InMemoryStore,
    SQLiteBusyError,
    SQLiteStore,
    StorageBackend,
    create_backend,
)
from repro.utils.validation import ValidationError


def _video(video_id="v1", duration=600.0):
    return Video(video_id=video_id, duration=duration)


@pytest.fixture(params=["memory", "sqlite", "sqlite-file"])
def store(request, tmp_path):
    """One instance of every backend implementation."""
    if request.param == "memory":
        backend = InMemoryStore()
    elif request.param == "sqlite":
        backend = SQLiteStore()
    else:
        backend = SQLiteStore(tmp_path / "contract.db")
    yield backend
    backend.close()


class TestBackendContract:
    def test_implements_contract(self, store):
        assert isinstance(store, StorageBackend)

    # ---------------------------------------------------------------- videos
    def test_video_roundtrip(self, store):
        store.put_video(_video())
        assert store.has_video("v1")
        assert store.get_video("v1").duration == 600.0
        assert not store.has_video("nope")
        with pytest.raises(ValidationError):
            store.get_video("nope")

    def test_put_video_replaces(self, store):
        store.put_video(_video(duration=600.0))
        store.put_video(_video(duration=900.0))
        assert store.get_video("v1").duration == 900.0
        assert store.stats()["videos"] == 1

    def test_video_metadata_preserved(self, store):
        video = Video(
            video_id="rich",
            duration=500.0,
            game="lol",
            channel="chan_3",
            viewer_count=1234,
            highlights=(Highlight(10.0, 40.0, label="teamfight"),),
        )
        store.put_video(video)
        assert store.get_video("rich") == video

    def test_list_videos_sorted_by_id(self, store):
        store.put_video(_video("b"))
        store.put_video(_video("a"))
        store.put_video(_video("c"))
        assert [v.video_id for v in store.list_videos()] == ["a", "b", "c"]

    # ------------------------------------------------------------------ chat
    def test_chat_requires_known_video(self, store):
        with pytest.raises(ValidationError):
            store.put_chat("ghost", [ChatMessage(1.0)])

    def test_chat_roundtrip_sorted(self, store):
        store.put_video(_video())
        count = store.put_chat("v1", [ChatMessage(30.0), ChatMessage(5.0)])
        assert count == 2
        assert store.has_chat("v1")
        assert [m.timestamp for m in store.get_chat("v1")] == [5.0, 30.0]
        assert len(store.get_chat_log("v1")) == 2

    def test_chat_ingest_idempotent(self, store):
        store.put_video(_video())
        store.put_chat("v1", [ChatMessage(1.0, "a", "first crawl")])
        store.put_chat("v1", [ChatMessage(2.0, "b", "second crawl")])
        messages = store.get_chat("v1")
        assert [m.text for m in messages] == ["second crawl"]
        assert store.stats()["chat_messages"] == 1

    def test_chat_preserves_user_and_text(self, store):
        store.put_video(_video())
        message = ChatMessage(12.5, user="gl", text="what a play 🎉")
        store.put_chat("v1", [message])
        (stored,) = store.get_chat("v1")
        assert (stored.timestamp, stored.user, stored.text) == (12.5, "gl", "what a play 🎉")

    def test_empty_chat_is_not_crawled(self, store):
        store.put_video(_video())
        assert store.put_chat("v1", []) == 0
        assert not store.has_chat("v1")
        assert store.get_chat("v1") == []

    def test_append_chat_requires_known_video(self, store):
        with pytest.raises(ValidationError):
            store.append_chat("ghost", [ChatMessage(1.0)])

    def test_append_chat_accumulates_in_arrival_order(self, store):
        store.put_video(_video())
        assert store.append_chat("v1", [ChatMessage(1.0, "a", "one")]) == 1
        assert store.append_chat(
            "v1", [ChatMessage(2.0, "b", "two"), ChatMessage(3.0, "c", "three")]
        ) == 3
        assert [m.text for m in store.get_chat("v1")] == ["one", "two", "three"]
        assert store.has_chat("v1")
        assert store.stats()["chat_messages"] == 3

    def test_append_chat_extends_a_previous_crawl(self, store):
        store.put_video(_video())
        store.put_chat("v1", [ChatMessage(1.0, "a", "crawled")])
        assert store.append_chat("v1", [ChatMessage(2.0, "b", "live")]) == 2
        assert [m.text for m in store.get_chat("v1")] == ["crawled", "live"]
        # put_chat stays idempotent: a re-crawl replaces everything appended.
        store.put_chat("v1", [ChatMessage(5.0, "c", "recrawled")])
        assert [m.text for m in store.get_chat("v1")] == ["recrawled"]

    def test_append_chat_empty_batch_is_a_noop(self, store):
        store.put_video(_video())
        assert store.append_chat("v1", []) == 0
        assert not store.has_chat("v1")

    # ---------------------------------------------------------- interactions
    def test_interactions_require_known_video(self, store):
        with pytest.raises(ValidationError):
            store.log_interactions("ghost", [Interaction(1.0, InteractionKind.PLAY)])

    def test_interaction_log_appends_in_arrival_order(self, store):
        store.put_video(_video())
        store.log_interactions("v1", [Interaction(9.0, InteractionKind.PLAY, "a")])
        total = store.log_interactions(
            "v1",
            [
                Interaction(2.0, InteractionKind.SEEK_BACKWARD, "a", target=1.0),
                Interaction(5.0, InteractionKind.STOP, "a"),
            ],
        )
        assert total == 3
        logged = store.get_interactions("v1")
        # Arrival order, not timestamp order: backward seeks must survive.
        assert [i.timestamp for i in logged] == [9.0, 2.0, 5.0]
        assert logged[1].target == 1.0

    # -------------------------------------------------------------- red dots
    def test_red_dots_require_known_video(self, store):
        with pytest.raises(ValidationError):
            store.put_red_dots("ghost", [RedDot(position=1.0)])

    def test_red_dots_replace_and_sort(self, store):
        store.put_video(_video())
        store.put_red_dots("v1", [RedDot(position=50.0)])
        store.put_red_dots("v1", [RedDot(position=70.0), RedDot(position=20.0)])
        assert [d.position for d in store.get_red_dots("v1")] == [20.0, 70.0]

    def test_red_dot_fields_preserved(self, store):
        store.put_video(_video())
        dot = RedDot(position=33.0, score=0.875, window=(30.0, 60.0), video_id="v1")
        store.put_red_dots("v1", [dot])
        assert store.get_red_dots("v1") == [dot]

    def test_red_dots_empty_when_not_computed(self, store):
        store.put_video(_video())
        assert store.get_red_dots("v1") == []
        assert not store.has_red_dots("v1")

    def test_computed_empty_dots_remembered(self, store):
        # "computed: nothing to show" must not look like "never computed".
        store.put_video(_video())
        store.put_red_dots("v1", [])
        assert store.has_red_dots("v1")
        assert store.get_red_dots("v1") == []
        store.put_red_dots("v1", [RedDot(position=5.0)])
        assert store.has_red_dots("v1")

    # ------------------------------------------------------------ highlights
    def test_highlights_require_known_video(self, store):
        with pytest.raises(ValidationError):
            store.put_highlight("ghost", Highlight(1.0, 2.0))

    def test_highlight_versions_increase(self, store):
        store.put_video(_video())
        first = store.put_highlight("v1", Highlight(10.0, 20.0))
        second = store.put_highlight("v1", Highlight(11.0, 21.0))
        assert (first.version, second.version) == (1, 2)
        assert len(store.highlight_history("v1")) == 2
        # Both refer to the same area, so only the latest is reported.
        assert store.latest_highlights("v1") == [Highlight(11.0, 21.0)]

    def test_highlight_versions_independent_per_video(self, store):
        store.put_video(_video("a"))
        store.put_video(_video("b"))
        store.put_highlight("a", Highlight(10.0, 20.0))
        record = store.put_highlight("b", Highlight(10.0, 20.0))
        assert record.version == 1

    def test_highlight_source_preserved(self, store):
        store.put_video(_video())
        record = store.put_highlight("v1", Highlight(1.0, 2.0), source="streaming")
        assert store.highlight_history("v1")[0] == record
        assert record.source == "streaming"

    # --------------------------------------------------------------- summary
    def test_row_counts_match_materialised_logs(self, store):
        store.put_video(_video())
        assert store.count_chat("v1") == 0
        assert store.count_interactions("v1") == 0
        store.append_chat("v1", [ChatMessage(1.0), ChatMessage(2.0)])
        store.log_interactions(
            "v1",
            [
                Interaction(1.0, InteractionKind.PLAY, "a"),
                Interaction(2.0, InteractionKind.STOP, "a"),
                Interaction(3.0, InteractionKind.PLAY, "b"),
            ],
        )
        assert store.count_chat("v1") == len(store.get_chat("v1")) == 2
        assert store.count_interactions("v1") == len(store.get_interactions("v1")) == 3
        assert store.count_chat("never-seen") == 0

    def test_suffix_reads_match_materialised_slices(self, store):
        store.put_video(_video())
        store.append_chat("v1", [ChatMessage(1.0, "a", "x"), ChatMessage(2.0, "b", "y")])
        interactions = [
            Interaction(1.0, InteractionKind.PLAY, "a"),
            Interaction(2.0, InteractionKind.STOP, "a"),
            Interaction(3.0, InteractionKind.PLAY, "b"),
        ]
        store.log_interactions("v1", interactions)
        for offset in range(4):
            assert store.get_chat_since("v1", offset) == store.get_chat("v1")[offset:]
            assert (
                store.get_interactions_since("v1", offset)
                == store.get_interactions("v1")[offset:]
            )
        assert store.get_chat_since("never-seen", 0) == []

    def test_interaction_stamps_cover_the_suffix_in_runs(self, store):
        store.put_video(_video())
        play = Interaction(1.0, InteractionKind.PLAY, "a")
        store.log_interactions("v1", [play])
        store.log_interactions("v1", [play, play], after_chat=2)
        store.log_interactions("v1", [play], after_chat=2)
        store.log_interactions("v1", [], after_chat=4)
        store.log_interactions("v1", [play], after_chat=5)
        # Equal adjacent stamps form one run; an empty batch adds none.
        assert store.get_interaction_stamps_since("v1", 0) == [(None, 1), (2, 3), (5, 1)]
        assert store.get_interaction_stamps_since("v1", 2) == [(2, 2), (5, 1)]
        assert store.get_interaction_stamps_since("v1", 4) == [(5, 1)]
        assert store.get_interaction_stamps_since("v1", 5) == []
        assert store.get_interaction_stamps_since("never-seen", 0) == []

    def test_migration_bundle_carries_interaction_stamps(self, store):
        store.put_video(_video())
        store.append_chat("v1", [ChatMessage(1.0, "a", "x")])
        plays = [Interaction(float(t), InteractionKind.PLAY, "a") for t in range(3)]
        store.log_interactions("v1", plays[:1], after_chat=0)
        store.log_interactions("v1", plays[1:], after_chat=1)
        bundle = store.export_channel("v1")
        assert bundle["interaction_stamps"] == [[0, 1], [1, 2]]
        for destination in (InMemoryStore(), SQLiteStore()):
            destination.import_channel(bundle)
            assert destination.get_interactions("v1") == plays
            assert destination.get_interaction_stamps_since("v1", 0) == [(0, 1), (1, 2)]
            destination.close()

    def test_bundle_without_stamps_imports_unstamped(self, store):
        source = InMemoryStore()
        source.put_video(_video())
        plays = [Interaction(float(t), InteractionKind.PLAY, "a") for t in range(3)]
        source.log_interactions("v1", plays, after_chat=7)
        bundle = source.export_channel("v1")
        del bundle["interaction_stamps"]  # what a build without stamps exports
        store.import_channel(bundle)
        assert store.get_interactions("v1") == plays
        assert store.get_interaction_stamps_since("v1", 0) == [(None, 3)]

    def test_bundle_stamps_must_cover_the_interactions(self, store):
        source = InMemoryStore()
        source.put_video(_video())
        source.log_interactions("v1", [Interaction(1.0, InteractionKind.PLAY, "a")])
        bundle = source.export_channel("v1")
        bundle["interaction_stamps"] = [[0, 2]]
        with pytest.raises(ValidationError, match="do not cover"):
            store.import_channel(bundle)
        assert not store.has_video("v1")  # rejected before any row is written

    # ----------------------------------------------------- session snapshots
    def test_session_snapshot_roundtrip_and_replace(self, store):
        store.put_video(_video())
        store.put_session_snapshot("v1", {"version": 1, "chat_persisted": 3})
        assert store.get_session_snapshots() == {"v1": {"version": 1, "chat_persisted": 3}}
        store.put_session_snapshot("v1", {"version": 1, "chat_persisted": 9})
        assert store.get_session_snapshots()["v1"]["chat_persisted"] == 9
        assert store.stats()["session_snapshots"] == 1

    def test_session_snapshot_requires_known_video(self, store):
        with pytest.raises(ValidationError):
            store.put_session_snapshot("ghost", {"version": 1})

    def test_session_snapshot_single_lookup(self, store):
        store.put_video(_video())
        assert store.get_session_snapshot("v1") is None
        store.put_session_snapshot("v1", {"version": 1, "chat_persisted": 4})
        assert store.get_session_snapshot("v1") == {"version": 1, "chat_persisted": 4}

    def test_session_snapshot_delete_is_idempotent(self, store):
        store.put_video(_video())
        store.put_session_snapshot("v1", {"version": 1})
        assert store.delete_session_snapshot("v1") is True
        assert store.delete_session_snapshot("v1") is False
        assert store.delete_session_snapshot("never-checkpointed") is False
        assert store.get_session_snapshots() == {}

    def test_session_snapshot_rejects_non_json_payloads(self, store):
        # The contract requires strict JSON: a snapshot recovery cannot parse
        # must fail at write time, not at recovery time.
        store.put_video(_video())
        with pytest.raises(ValueError):
            store.put_session_snapshot("v1", {"version": 1, "rate": float("inf")})
        with pytest.raises(TypeError):
            store.put_session_snapshot("v1", {"version": 1, "video": _video()})
        assert store.get_session_snapshots() == {}

    def test_session_snapshot_returns_decoupled_copies(self, store):
        store.put_video(_video())
        payload = {"version": 1, "counters": [1, 2]}
        store.put_session_snapshot("v1", payload)
        payload["counters"].append(3)
        fetched = store.get_session_snapshots()["v1"]
        assert fetched["counters"] == [1, 2]
        fetched["counters"].append(4)
        assert store.get_session_snapshots()["v1"]["counters"] == [1, 2]

    def test_stats(self, store):
        store.put_video(_video())
        store.put_chat("v1", [ChatMessage(1.0)])
        stats = store.stats()
        assert stats["videos"] == 1 and stats["chat_messages"] == 1
        assert stats["videos_with_chat"] == 1
        assert stats["interactions"] == stats["red_dots"] == 0
        assert stats["highlight_records"] == 0
        assert stats["session_snapshots"] == 0


# Calls whose cost must not grow with a video's history, given the number
# of chat and play batches already logged.
_HISTORY_OPERATIONS = {
    "append_chat": lambda store, n: store.append_chat(
        "v1", [ChatMessage(float(n), "u", "gg")]
    ),
    "log_interactions": lambda store, n: store.log_interactions(
        "v1", [Interaction(float(n), InteractionKind.PLAY, "u")], after_chat=n
    ),
    "count_chat": lambda store, n: store.count_chat("v1"),
    "count_interactions": lambda store, n: store.count_interactions("v1"),
    "get_interaction_stamps_since": lambda store, n: store.get_interaction_stamps_since(
        "v1", n - 1
    ),
}


class TestSQLiteSpecifics:
    def test_two_handles_on_one_file_version_monotonically(self, tmp_path):
        path = tmp_path / "versions-shared.db"
        a, b = SQLiteStore(path), SQLiteStore(path)
        a.put_video(_video())
        versions = [
            a.put_highlight("v1", Highlight(1.0, 2.0)).version,
            b.put_highlight("v1", Highlight(3.0, 4.0)).version,
            a.put_highlight("v1", Highlight(5.0, 6.0)).version,
        ]
        assert versions == [1, 2, 3]
        assert len(b.highlight_history("v1")) == 3
        a.close(), b.close()

    def test_two_handles_append_chat_without_seq_collisions(self, tmp_path):
        path = tmp_path / "append-shared.db"
        a, b = SQLiteStore(path), SQLiteStore(path)
        a.put_video(_video())
        assert a.append_chat("v1", [ChatMessage(1.0, "a", "x")]) == 1
        assert b.append_chat("v1", [ChatMessage(2.0, "b", "y")]) == 2
        assert a.append_chat("v1", [ChatMessage(3.0, "c", "z")]) == 3
        assert [m.text for m in b.get_chat("v1")] == ["x", "y", "z"]
        a.close(), b.close()

    @pytest.mark.parametrize("operation", sorted(_HISTORY_OPERATIONS))
    def test_append_chat_cost_does_not_grow_with_history(self, operation):
        # SQLite VM steps are a count, not a timing: a call after 1,000
        # batches of chat and of plays may cost only a constant more than
        # one after 10.  The reference store checks what each call returns.
        store, reference = SQLiteStore(), InMemoryStore()
        call = _HISTORY_OPERATIONS[operation]
        steps = [0]

        def count_step():
            steps[0] += 1
            return 0

        def grow(start, stop):
            for backend in (store, reference):
                for seq in range(start, stop):
                    backend.append_chat("v1", [ChatMessage(float(seq), "u", "gg")])
                    backend.log_interactions(
                        "v1", [Interaction(float(seq), InteractionKind.PLAY, "u")], after_chat=seq
                    )

        def steps_of_call(history):
            expected = call(reference, history)
            steps[0] = 0
            store._connection.set_progress_handler(count_step, 1)
            try:
                assert call(store, history) == expected
            finally:
                store._connection.set_progress_handler(None, 1)
            return steps[0]

        for backend in (store, reference):
            backend.put_video(_video())
        grow(0, 10)
        after_ten = steps_of_call(10)
        grow(10, 1000)
        after_thousand = steps_of_call(1000)
        assert after_thousand <= after_ten + 20, (after_ten, after_thousand)
        store.close()

    @pytest.mark.parametrize("batch_size", [1, 8, 64])
    def test_plays_and_chat_batches_run_the_same_statements(self, tmp_path, batch_size):
        store = SQLiteStore(tmp_path / "statements.db")
        store.put_video(_video())
        statements = {"chat": [], "plays": []}
        store._connection.set_trace_callback(statements["chat"].append)
        store.append_chat("v1", [ChatMessage(float(i), "u", "gg") for i in range(batch_size)])
        store._connection.set_trace_callback(statements["plays"].append)
        store.log_interactions(
            "v1",
            [Interaction(float(i), InteractionKind.PLAY, "u") for i in range(batch_size)],
            after_chat=batch_size,
        )
        store._connection.set_trace_callback(None)
        assert len(statements["plays"]) == len(statements["chat"]), statements
        store.close()

    def test_two_handles_on_one_file_agree_on_log_size(self, tmp_path):
        path = tmp_path / "shared.db"
        a, b = SQLiteStore(path), SQLiteStore(path)
        a.put_video(_video())
        assert a.log_interactions("v1", [Interaction(1.0, InteractionKind.PLAY)] * 10) == 10
        assert b.log_interactions("v1", [Interaction(2.0, InteractionKind.PLAY)] * 5) == 15
        assert a.log_interactions("v1", [Interaction(3.0, InteractionKind.PLAY)]) == 16
        assert len(b.get_interactions("v1")) == 16
        a.close(), b.close()

    def test_durable_across_reopen(self, tmp_path):
        path = tmp_path / "durable.db"
        first = SQLiteStore(path)
        first.put_video(_video())
        first.put_chat("v1", [ChatMessage(5.0, "a", "hello")])
        first.put_red_dots("v1", [RedDot(position=10.0, window=(0.0, 30.0))])
        first.put_highlight("v1", Highlight(8.0, 25.0), source="streaming")
        first.close()

        reopened = SQLiteStore(path)
        assert reopened.get_video("v1").duration == 600.0
        assert reopened.get_chat("v1") == [ChatMessage(5.0, "a", "hello")]
        assert reopened.get_red_dots("v1") == [RedDot(position=10.0, window=(0.0, 30.0))]
        record = reopened.highlight_history("v1")[0]
        assert (record.highlight, record.version, record.source) == (
            Highlight(8.0, 25.0),
            1,
            "streaming",
        )
        reopened.close()

    def test_session_snapshots_survive_reopen(self, tmp_path):
        path = tmp_path / "snapshots.db"
        first = SQLiteStore(path)
        first.put_video(_video())
        first.put_session_snapshot("v1", {"version": 1, "chat_persisted": 7})
        first.close()
        reopened = SQLiteStore(path)
        assert reopened.get_session_snapshots() == {
            "v1": {"version": 1, "chat_persisted": 7}
        }
        reopened.close()

    def test_file_backed_runs_in_wal_mode(self, tmp_path):
        store = SQLiteStore(tmp_path / "wal.db")
        assert store.journal_mode() == "wal"
        store.close()

    def test_highlight_versions_survive_reopen(self, tmp_path):
        path = tmp_path / "versions.db"
        first = SQLiteStore(path)
        first.put_video(_video())
        first.put_highlight("v1", Highlight(1.0, 2.0))
        first.close()
        reopened = SQLiteStore(path)
        assert reopened.put_highlight("v1", Highlight(3.0, 4.0)).version == 2
        reopened.close()


class TestBackendFactory:
    def test_create_memory(self):
        assert isinstance(create_backend("memory"), InMemoryStore)

    def test_create_sqlite(self, tmp_path):
        backend = create_backend("sqlite", tmp_path / "factory.db")
        assert isinstance(backend, SQLiteStore)
        backend.close()

    def test_memory_rejects_path(self, tmp_path):
        with pytest.raises(ValidationError):
            create_backend("memory", tmp_path / "nope.db")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValidationError):
            create_backend("cassandra")


class TestBusyContention:
    """Cross-process lock contention surfaces as a typed, named error."""

    def test_busy_writer_raises_typed_error_naming_the_path(self, tmp_path):
        db = tmp_path / "contended.db"
        victim = SQLiteStore(db, busy_timeout_ms=100)
        blocker = sqlite3.connect(db)
        try:
            # A second connection holding the write lock is exactly what two
            # shard workers misconfigured onto one database file look like.
            blocker.execute("BEGIN IMMEDIATE")
            with pytest.raises(SQLiteBusyError) as excinfo:
                victim.put_video(_video())
            error = excinfo.value
            assert str(db) in str(error)
            assert "100" in str(error)
            assert error.path == str(db)
            assert error.timeout_ms == 100
            # Still a sqlite3.OperationalError: existing handlers keep working.
            assert isinstance(error, sqlite3.OperationalError)
        finally:
            blocker.rollback()
            blocker.close()
            victim.close()

    def test_writes_succeed_once_the_lock_clears(self, tmp_path):
        db = tmp_path / "contended.db"
        victim = SQLiteStore(db, busy_timeout_ms=5000)
        blocker = sqlite3.connect(db)
        try:
            blocker.execute("BEGIN IMMEDIATE")
            blocker.rollback()  # release before the victim's timeout
            victim.put_video(_video())
            assert victim.has_video("v1")
        finally:
            blocker.close()
            victim.close()

    def test_negative_busy_timeout_rejected(self):
        with pytest.raises(ValidationError):
            SQLiteStore(busy_timeout_ms=-1)

    def test_every_connection_sets_busy_timeout(self, tmp_path):
        store = SQLiteStore(tmp_path / "t.db")
        try:
            (value,) = store._connection.execute("PRAGMA busy_timeout").fetchone()
            assert value == store.busy_timeout_ms == 5000
        finally:
            store.close()


# Storage format v3, frozen: the DDL of a file written before format v4.
_V3_SCHEMA = """
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
    rowid      INTEGER PRIMARY KEY AUTOINCREMENT,
    video_id   TEXT NOT NULL,
    payload    TEXT NOT NULL,
    after_chat INTEGER
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

_LEGACY_TABLES = {"chat_messages", "interactions", "interaction_counts"}


def _write_v3_file(path, *, legacy_chat=(), chat_batches=(), plays=(), snapshots=None):
    """Build a database file with the rows a v3 build writes.

    ``legacy_chat``: ``(video_id, messages)``, one JSON row per message
    from seq 0.  ``chat_batches``: ``(video_id, first_seq, messages,
    as_text)``.  ``plays``: ``(video_id, interaction, after_chat)``, one
    row each, in rowid order.  ``snapshots``: video id to ``(payload,
    as_text)``.
    """
    snapshots = snapshots or {}
    video_ids = {row[0] for rows in (legacy_chat, chat_batches, plays) for row in rows}
    connection = sqlite3.connect(path)
    connection.executescript(_V3_SCHEMA)
    with connection:
        connection.execute(
            "INSERT INTO meta VALUES (?, '3')", (SQLiteStore.STORAGE_FORMAT_KEY,)
        )
        for video_id in sorted(video_ids | set(snapshots)):
            connection.execute(
                "INSERT INTO videos VALUES (?, ?)",
                (video_id, json.dumps(codecs.video_to_dict(_video(video_id)))),
            )
        for video_id, messages in legacy_chat:
            connection.executemany(
                "INSERT INTO chat_messages VALUES (?, ?, ?)",
                [
                    (video_id, seq, json.dumps(codecs.chat_message_to_dict(message)))
                    for seq, message in enumerate(messages)
                ],
            )
        for video_id, first_seq, messages, as_text in chat_batches:
            items = [codecs.chat_message_to_dict(message) for message in messages]
            connection.execute(
                "INSERT INTO chat_batches VALUES (?, ?, ?, ?)",
                (
                    video_id,
                    first_seq,
                    len(items),
                    json.dumps(items) if as_text else wire.encode_frame(items),
                ),
            )
        for video_id, interaction, after_chat in plays:
            connection.execute(
                "INSERT INTO interactions (video_id, payload, after_chat) VALUES (?, ?, ?)",
                (video_id, json.dumps(codecs.interaction_to_dict(interaction)), after_chat),
            )
            connection.execute(
                "INSERT INTO interaction_counts VALUES (?, 1) "
                "ON CONFLICT(video_id) DO UPDATE SET n = n + 1",
                (video_id,),
            )
        for video_id, (payload, as_text) in snapshots.items():
            connection.execute(
                "INSERT INTO session_snapshots VALUES (?, ?)",
                (video_id, json.dumps(payload) if as_text else wire.encode_frame(payload)),
            )
    connection.close()


def _dump(path):
    """The file's schema and rows as SQL text, read on a fresh connection."""
    connection = sqlite3.connect(path)
    try:
        return list(connection.iterdump())
    finally:
        connection.close()


def _play(timestamp, user="a"):
    return Interaction(float(timestamp), InteractionKind.PLAY, user)


class TestStorageCodec:
    """The batch row format: framed blobs, the v4 conversion, corruption."""

    def test_append_chat_writes_one_blob_row_per_batch(self, tmp_path):
        store = SQLiteStore(tmp_path / "blob.db")
        store.put_video(_video())
        batch = [ChatMessage(float(i), f"u{i % 3}", f"msg {i}") for i in range(100)]
        assert store.append_chat("v1", batch) == 100
        assert store.append_chat("v1", batch[:7]) == 107
        rows = store._connection.execute(
            "SELECT first_seq, n, payload FROM chat_batches ORDER BY first_seq"
        ).fetchall()
        assert [(r[0], r[1]) for r in rows] == [(0, 100), (100, 7)]
        assert all(isinstance(r[2], bytes) for r in rows)
        tables = {
            row[0]
            for row in store._connection.execute("SELECT name FROM sqlite_master")
        }
        assert not tables & _LEGACY_TABLES
        assert store.get_chat("v1") == batch + batch[:7]
        assert store.count_chat("v1") == 107
        assert store.get_chat_since("v1", 98) == batch[98:] + batch[:7]
        store.close()

    def test_log_interactions_writes_one_blob_row_per_batch(self, tmp_path):
        store = SQLiteStore(tmp_path / "plays.db")
        store.put_video(_video())
        plays = [_play(i, f"u{i % 3}") for i in range(40)]
        assert store.log_interactions("v1", plays, after_chat=3) == 40
        assert store.log_interactions("v1", [], after_chat=4) == 40
        assert store.log_interactions("v1", plays[:5]) == 45
        rows = store._connection.execute(
            "SELECT first_seq, n, after_chat, payload FROM play_batches ORDER BY first_seq"
        ).fetchall()
        assert [row[:3] for row in rows] == [(0, 40, 3), (40, 5, None)]
        assert all(isinstance(row[3], bytes) for row in rows)
        assert store.get_interactions_since("v1", 38) == plays[38:] + plays[:5]
        store.close()

    def test_legacy_text_rows_interoperate_with_blob_batches(self, tmp_path):
        # A v3 file can hold every older row shape at once: per-message chat
        # rows continued by JSON-text and blob batches, and per-row plays
        # with mixed stamps.  The first open converts them to v4 batch rows
        # that read back exactly as a v3 build read the old rows.
        path = tmp_path / "v3.db"
        legacy = [ChatMessage(float(i), "old", f"legacy {i}") for i in range(5)]
        text_batch = [ChatMessage(5.0 + i, "mid", f"text {i}") for i in range(2)]
        blob_batch = [ChatMessage(7.0, "new", "blob")]
        other_chat = [ChatMessage(1.5, "w", "other")]
        # v1 logged [p0] unstamped, [p1, p2] and [p3] at 2, an empty batch at
        # 4 and [p4] at 5; v2's plays interleave with them in rowid order.
        plays = [
            ("v1", _play(0), None),
            ("v2", _play(0, "b"), 3),
            ("v1", _play(1), 2),
            ("v1", _play(2), 2),
            ("v2", _play(1, "b"), 3),
            ("v1", _play(3), 2),
            ("v1", _play(4), 5),
        ]
        v1_plays = [interaction for video_id, interaction, _ in plays if video_id == "v1"]
        _write_v3_file(
            path,
            legacy_chat=[("v1", legacy), ("v2", other_chat)],
            chat_batches=[("v1", 5, text_batch, True), ("v1", 7, blob_batch, False)],
            plays=plays,
        )
        SQLiteStore(path).close()
        converted = _dump(path)
        store = SQLiteStore(path)
        assert _dump(path) == converted  # a reopen converts nothing again

        tables = {row[0] for row in store._connection.execute("SELECT name FROM sqlite_master")}
        assert not tables & _LEGACY_TABLES
        assert store.get_meta(SQLiteStore.STORAGE_FORMAT_KEY) == "4"
        payload_types = store._connection.execute(
            "SELECT typeof(payload) FROM chat_batches UNION SELECT typeof(payload) "
            "FROM play_batches"
        ).fetchall()
        assert payload_types == [("blob",)]

        assert store.get_chat("v1") == legacy + text_batch + blob_batch
        assert store.get_chat("v2") == other_chat
        assert store.count_chat("v1") == 8
        assert store.get_chat_since("v1", 4) == legacy[4:] + text_batch + blob_batch
        assert store.has_chat("v1") and store.has_chat("v2")
        assert store.get_interactions("v1") == v1_plays
        assert store.count_interactions("v1") == 5
        assert store.get_interactions_since("v1", 2) == v1_plays[2:]
        assert store.get_interaction_stamps_since("v1", 0) == [(None, 1), (2, 3), (5, 1)]
        assert store.get_interaction_stamps_since("v1", 2) == [(2, 2), (5, 1)]
        assert store.get_interaction_stamps_since("v2", 0) == [(3, 2)]
        stats = store.stats()
        assert (stats["chat_messages"], stats["videos_with_chat"], stats["interactions"]) == (
            9,
            2,
            7,
        )
        # New batches continue both seq spaces.
        fresh = [ChatMessage(10.0 + i, "new", f"fresh {i}") for i in range(3)]
        assert store.append_chat("v1", fresh) == 11
        assert store.get_chat_since("v1", 7) == blob_batch + fresh
        assert store.log_interactions("v1", [_play(9)], after_chat=11) == 6
        assert store.get_interaction_stamps_since("v1", 4) == [(5, 1), (11, 1)]
        store.close()

    def test_legacy_json_snapshot_reads_back(self, tmp_path):
        path = tmp_path / "legacysnap.db"
        snapshot = {"version": 1, "chat_persisted": 7, "rate": 0.5}
        _write_v3_file(
            path, snapshots={"v1": (snapshot, True), "v2": ({"version": 1}, False)}
        )
        store = SQLiteStore(path)
        assert store.get_session_snapshot("v1") == snapshot
        assert store.get_session_snapshots() == {"v1": snapshot, "v2": {"version": 1}}
        assert store._connection.execute(
            "SELECT DISTINCT typeof(payload) FROM session_snapshots"
        ).fetchall() == [("blob",)]
        store.close()

    def test_failed_conversion_leaves_a_readable_v3_file(self, tmp_path):
        path = tmp_path / "corrupt-v3.db"
        legacy = [ChatMessage(float(i), "old", f"legacy {i}") for i in range(3)]
        _write_v3_file(
            path,
            legacy_chat=[("v1", legacy)],
            chat_batches=[("v1", 3, legacy[:1], True)],
            plays=[("v1", _play(0), None), ("v1", _play(1), 2)],
            snapshots={"v1": ({"version": 1}, True)},
        )
        connection = sqlite3.connect(path)
        with connection:  # chat converts first; the second play row fails
            connection.execute("UPDATE interactions SET payload = '{not json' WHERE rowid = 2")
        before = list(connection.iterdump())
        connection.close()
        with pytest.raises(ValueError):
            SQLiteStore(path)
        assert _dump(path) == before
        assert any("'storage_format_version','3'" in line for line in before)

        # Mended, the same file converts.
        connection = sqlite3.connect(path)
        with connection:
            connection.execute(
                "UPDATE interactions SET payload = ? WHERE rowid = 2",
                (json.dumps(codecs.interaction_to_dict(_play(1))),),
            )
        connection.close()
        store = SQLiteStore(path)
        assert store.get_chat("v1") == legacy + legacy[:1]
        assert store.get_interaction_stamps_since("v1", 0) == [(None, 1), (2, 1)]
        store.close()

    def test_corrupt_blob_raises_typed_error_not_garbage(self, tmp_path):
        from repro.platform import wire

        store = SQLiteStore(tmp_path / "corrupt.db")
        store.put_video(_video())
        store.append_chat("v1", [ChatMessage(1.0, "a", "x"), ChatMessage(2.0, "b", "y")])
        with store._connection:
            row = store._connection.execute(
                "SELECT payload FROM chat_batches WHERE video_id = 'v1'"
            ).fetchone()
            damaged = bytearray(row[0])
            damaged[len(damaged) // 2] ^= 0xFF
            store._connection.execute(
                "UPDATE chat_batches SET payload = ? WHERE video_id = 'v1'",
                (bytes(damaged),),
            )
        with pytest.raises(wire.CodecError):
            store.get_chat("v1")
        store.close()

    def test_put_chat_replaces_both_row_shapes(self, tmp_path):
        store = SQLiteStore(tmp_path / "replace.db")
        store.put_video(_video())
        store.append_chat("v1", [ChatMessage(1.0, "a", "old")])
        replacement = [ChatMessage(2.0, "b", "new"), ChatMessage(3.0, "c", "er")]
        assert store.put_chat("v1", replacement) == 2
        assert store.get_chat("v1") == replacement
        assert store.count_chat("v1") == 2
        # And appends continue cleanly after the replace.
        assert store.append_chat("v1", [ChatMessage(4.0, "d", "more")]) == 3
        store.close()

    def test_snapshot_rejects_non_finite_on_both_codecs(self, tmp_path):
        store = SQLiteStore(tmp_path / "nan.db")
        store.put_video(_video())
        with pytest.raises(ValueError):
            store.put_session_snapshot("v1", {"x": float("nan")})
        # The rejected write stored nothing.
        assert store.get_session_snapshot("v1") is None
        store.close()

    def test_storage_format_version_stamped(self, tmp_path):
        store = SQLiteStore(tmp_path / "meta.db")
        assert store.get_meta(SQLiteStore.STORAGE_FORMAT_KEY) == (
            SQLiteStore.STORAGE_FORMAT_VERSION
        )
        store.close()
