"""SQLite storage backend (stdlib ``sqlite3``, WAL mode, dependency-free).

The first durable backend behind the
:class:`~repro.platform.backends.base.StorageBackend` contract.  Videos, red
dots and highlight records are JSON text rows in the codec forms of
:mod:`repro.platform.codecs`, so everything that goes in comes back out
round-trip exact.  File-backed stores survive process restarts; the default
``:memory:`` path gives a throwaway store with identical semantics for tests.

The two firehose logs are stored one way.  Each ``append_chat`` or
``log_interactions`` batch lands as **one** row of ``chat_batches`` or
``play_batches`` whose payload is a framed blob of
:mod:`repro.platform.wire`; a play row also carries the batch's
``after_chat`` stamp.  Session snapshots are frames too.  One helper
appends a batch and one reads a log from an offset, so an append or a
count costs the same few statements at any history length, and a suffix
read touches only the batches that overlap it.

That layout is storage format v4.  Opening a file of an older format
converts it once, in one transaction: legacy per-message chat rows,
per-row plays and JSON-text payloads become framed batch rows, and the
legacy tables are dropped.  A file of a newer format is refused.

Concurrency: one connection guarded by an ``RLock`` (created with
``check_same_thread=False`` so the sharded service tier can call in from
worker threads).  File-backed databases run in WAL mode so an eventual
multi-process reader does not block the writer.
"""

from __future__ import annotations

import itertools
import json
import sqlite3
import threading
from contextlib import contextmanager
from operator import itemgetter
from pathlib import Path
from typing import Iterable

from repro.core.types import ChatMessage, Highlight, Interaction, RedDot, Video
from repro.platform import codecs, wire
from repro.platform.backends.base import HighlightRecord, StorageBackend
from repro.utils.validation import ValidationError

__all__ = ["SQLiteBusyError", "SQLiteStore"]


class SQLiteBusyError(sqlite3.OperationalError):
    """A write lost the cross-process race even after the busy timeout.

    Raw ``sqlite3.OperationalError: database is locked`` says nothing about
    *which* database, which is useless the moment several shard processes
    each own several files.  This subclass names the path and the timeout
    that was exhausted; being an ``OperationalError`` subclass, existing
    ``except sqlite3.OperationalError`` handlers keep working.
    """

    def __init__(self, path: str, timeout_ms: int, cause: Exception) -> None:
        super().__init__(
            f"database {path!r} is still locked after the {timeout_ms}ms busy "
            f"timeout ({cause}); another process is holding a long write — "
            "check that two shard workers were not pointed at the same db path"
        )
        self.path = path
        self.timeout_ms = timeout_ms

_SCHEMA = """
CREATE TABLE IF NOT EXISTS videos (
    video_id TEXT PRIMARY KEY,
    payload  TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS chat_batches (
    video_id  TEXT NOT NULL,
    first_seq INTEGER NOT NULL,
    n         INTEGER NOT NULL,
    payload   BLOB NOT NULL,
    PRIMARY KEY (video_id, first_seq)
);
CREATE TABLE IF NOT EXISTS play_batches (
    video_id   TEXT NOT NULL,
    first_seq  INTEGER NOT NULL,
    n          INTEGER NOT NULL,
    after_chat INTEGER,
    payload    BLOB NOT NULL,
    PRIMARY KEY (video_id, first_seq)
);
CREATE TABLE IF NOT EXISTS red_dots (
    video_id TEXT NOT NULL,
    seq      INTEGER NOT NULL,
    payload  TEXT NOT NULL,
    PRIMARY KEY (video_id, seq)
);
CREATE TABLE IF NOT EXISTS red_dot_sets (
    video_id TEXT PRIMARY KEY,
    n        INTEGER NOT NULL
);
CREATE TABLE IF NOT EXISTS highlight_records (
    video_id TEXT NOT NULL,
    version  INTEGER NOT NULL,
    payload  TEXT NOT NULL,
    PRIMARY KEY (video_id, version)
);
CREATE TABLE IF NOT EXISTS session_snapshots (
    video_id TEXT PRIMARY KEY,
    payload  TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
"""


def _convert_legacy_rows(connection: sqlite3.Connection) -> None:
    """Rewrite an older file's firehose rows in the v4 layout.

    Legacy per-message ``chat_messages`` become one chat batch per video at
    seq 0.  Per-row ``interactions`` become play batches, one per maximal
    run of equal ``after_chat`` stamps in rowid order (v2 rows have no
    stamp and convert unstamped).  JSON-text chat batches and snapshots
    become frames.  Then the legacy tables are dropped.  The caller's
    transaction makes the conversion all-or-nothing: a corrupt legacy row
    raises and leaves the file as it was.
    """
    tables = {
        name
        for (name,) in connection.execute(
            "SELECT name FROM sqlite_master WHERE type = 'table'"
        )
    }
    if "chat_messages" in tables:
        rows = connection.execute(
            "SELECT video_id, payload FROM chat_messages ORDER BY video_id, seq"
        )
        for video_id, video_rows in itertools.groupby(rows, key=itemgetter(0)):
            items = [json.loads(payload) for _video_id, payload in video_rows]
            connection.execute(
                "INSERT INTO chat_batches (video_id, first_seq, n, payload) "
                "VALUES (?, 0, ?, ?)",
                (video_id, len(items), wire.encode_frame(items)),
            )
    if "interactions" in tables:
        columns = {row[1] for row in connection.execute("PRAGMA table_info(interactions)")}
        stamp = "after_chat" if "after_chat" in columns else "NULL"
        rows = connection.execute(
            f"SELECT video_id, {stamp}, payload FROM interactions "
            "ORDER BY video_id, rowid"
        )
        for video_id, video_rows in itertools.groupby(rows, key=itemgetter(0)):
            first_seq = 0
            for after_chat, run in itertools.groupby(video_rows, key=itemgetter(1)):
                items = [json.loads(payload) for _video_id, _stamp, payload in run]
                connection.execute(
                    "INSERT INTO play_batches "
                    "(video_id, first_seq, n, after_chat, payload) VALUES (?, ?, ?, ?, ?)",
                    (video_id, first_seq, len(items), after_chat, wire.encode_frame(items)),
                )
                first_seq += len(items)
    for table in ("chat_batches", "session_snapshots"):
        text_rows = connection.execute(
            f"SELECT rowid, payload FROM {table} WHERE typeof(payload) = 'text'"
        ).fetchall()
        for rowid, payload in text_rows:
            connection.execute(
                f"UPDATE {table} SET payload = ? WHERE rowid = ?",
                (wire.encode_frame(json.loads(payload)), rowid),
            )
    for table in ("chat_messages", "interactions", "interaction_counts"):
        connection.execute(f"DROP TABLE IF EXISTS {table}")


class SQLiteStore(StorageBackend):
    """A :class:`StorageBackend` persisted in a SQLite database.

    Parameters
    ----------
    path:
        Database file path, or ``":memory:"`` (the default) for an
        in-process throwaway store with the same semantics.
    busy_timeout_ms:
        How long a connection spins waiting for a cross-process write lock
        before giving up.  Every connection gets the pragma — in-process
        callers never see it (the ``RLock`` serializes them), but a second
        *process* on the same file contends for real.  When the timeout is
        still exhausted the failure surfaces as :class:`SQLiteBusyError`
        naming the db path.
    """

    # Bumped when the *write* format grows a shape old readers cannot parse.
    # v2 = chat_batches blob rows + binary snapshot frames.
    # v3 = the ``interactions.after_chat`` stamp column: the suffix past a
    # session checkpoint may now mix chat and plays, which only a reader
    # that orders them by the stamps can replay.
    # v4 = ``play_batches``: one framed row per logged play batch, stamp
    # included, and every chat and snapshot payload a frame.  Opening an
    # older file converts it (:func:`_convert_legacy_rows`).
    STORAGE_FORMAT_KEY = "storage_format_version"
    STORAGE_FORMAT_VERSION = "4"

    def __init__(self, path: str | Path = ":memory:", *, busy_timeout_ms: int = 5000) -> None:
        if busy_timeout_ms < 0:
            raise ValidationError("busy_timeout_ms must be >= 0")
        self.path = str(path)
        self.busy_timeout_ms = int(busy_timeout_ms)
        self._lock = threading.RLock()
        self._connection = sqlite3.connect(self.path, check_same_thread=False)  # guarded-by: _lock
        with self._lock, self._guard():
            self._connection.execute("PRAGMA journal_mode=WAL")
            self._connection.execute("PRAGMA synchronous=NORMAL")
            self._connection.execute(f"PRAGMA busy_timeout={self.busy_timeout_ms}")
        # Schema, format check and any conversion share one write
        # transaction, so a failed or concurrent open leaves the file as it
        # was.  A failed open also closes its connection: no caller holds
        # the store to close it.
        try:
            with self._write() as connection:
                self._open_format(connection)
        except BaseException:
            self._connection.close()
            raise

    def _open_format(self, connection: sqlite3.Connection) -> None:
        """Create the schema, refuse a newer format and convert an older one.

        Each statement goes through ``execute``: ``executescript`` would
        commit the caller's open transaction first.
        """
        for statement in _SCHEMA.split(";"):
            if statement.strip():
                connection.execute(statement)
        row = connection.execute(
            "SELECT value FROM meta WHERE key = ?", (self.STORAGE_FORMAT_KEY,)
        ).fetchone()
        stored = None if row is None else row[0]
        # A file of a newer format is refused before any row is read:
        # half-parsing shapes this build does not know would corrupt, not fail.
        if stored is not None and int(stored) > int(self.STORAGE_FORMAT_VERSION):
            raise ValidationError(
                f"{self.path} was written by storage format v{stored}; "
                f"this build reads at most v{self.STORAGE_FORMAT_VERSION} — "
                "upgrade the code, not the file"
            )
        if stored != self.STORAGE_FORMAT_VERSION:
            _convert_legacy_rows(connection)
            connection.execute(
                "INSERT OR REPLACE INTO meta (key, value) VALUES (?, ?)",
                (self.STORAGE_FORMAT_KEY, self.STORAGE_FORMAT_VERSION),
            )

    @contextmanager
    def _guard(self):
        """Map a post-timeout ``database is locked`` to :class:`SQLiteBusyError`."""
        try:
            yield
        except sqlite3.OperationalError as error:
            message = str(error).lower()
            if "locked" in message or "busy" in message:
                raise SQLiteBusyError(self.path, self.busy_timeout_ms, error) from error
            raise

    @contextmanager
    def _write(self):
        """One ``BEGIN IMMEDIATE`` transaction, yielding the connection.

        The write lock is taken *before* the body reads anything, so a seq
        or version the body reads cannot be read by another handle on the
        same file until this transaction commits.
        """
        with self._lock, self._guard():
            self._connection.execute("BEGIN IMMEDIATE")
            try:
                yield self._connection
            except BaseException:
                self._connection.execute("ROLLBACK")
                raise
            self._connection.execute("COMMIT")

    # ---------------------------------------------------------------- videos
    def put_video(self, video: Video) -> None:
        """Insert or replace video metadata."""
        payload = json.dumps(codecs.video_to_dict(video), allow_nan=False)
        with self._lock, self._guard(), self._connection:
            self._connection.execute(
                "INSERT OR REPLACE INTO videos (video_id, payload) VALUES (?, ?)",
                (video.video_id, payload),
            )

    def get_video(self, video_id: str) -> Video:
        """Return the stored video or raise if unknown."""
        with self._lock:
            row = self._connection.execute(
                "SELECT payload FROM videos WHERE video_id = ?", (video_id,)
            ).fetchone()
        if row is None:
            raise ValidationError(f"unknown video id {video_id!r}")
        return codecs.video_from_dict(json.loads(row[0]))

    def has_video(self, video_id: str) -> bool:
        """Whether the video is known to the store."""
        with self._lock:
            row = self._connection.execute(
                "SELECT 1 FROM videos WHERE video_id = ?", (video_id,)
            ).fetchone()
        return row is not None

    def list_videos(self) -> list[Video]:
        """All stored videos, ordered by id."""
        with self._lock:
            rows = self._connection.execute(
                "SELECT payload FROM videos ORDER BY video_id"
            ).fetchall()
        return [codecs.video_from_dict(json.loads(row[0])) for row in rows]

    # ------------------------------------------------------------ batch logs
    # Chat and plays are both logs of framed batch rows: a row of
    # ``chat_batches`` or ``play_batches`` holds one ingest batch, covering
    # seqs [first_seq, first_seq + n) of its video, and the rows tile the
    # seq space from 0.  So the row with the highest first_seq ends the log
    # and the row with the highest first_seq <= offset starts a suffix; each
    # is one step down the (video_id, first_seq) key at any history length.
    def _next_seq(self, table: str, video_id: str) -> int:
        """The size of one video's log: where its last batch ends."""
        with self._lock:
            row = self._connection.execute(
                f"SELECT first_seq + n FROM {table} WHERE video_id = ? "
                "ORDER BY first_seq DESC LIMIT 1",
                (video_id,),
            ).fetchone()
        return 0 if row is None else int(row[0])

    def _append_batch(self, table: str, video_id: str, items: list, **stamp) -> int:
        """Append ``items`` as one framed row; returns the new log size.

        One ``BEGIN IMMEDIATE`` transaction with one insert, whatever the
        batch size, and the next seq is read under the write lock so two
        handles on one file cannot allocate colliding ranges.  ``stamp``
        fills the table's extra columns.  An empty batch writes no row.
        """
        payload = wire.encode_frame(items)
        columns = ("video_id", "first_seq", "n", *stamp, "payload")
        insert = (
            f"INSERT INTO {table} ({', '.join(columns)}) "
            f"VALUES ({', '.join('?' * len(columns))})"
        )
        with self._write() as connection:
            first_seq = self._next_seq(table, video_id)
            if items:
                connection.execute(
                    insert, (video_id, first_seq, len(items), *stamp.values(), payload)
                )
        return first_seq + len(items)

    def _batches_since(
        self, table: str, columns: str, video_id: str, offset: int
    ) -> list[tuple]:
        """``(first_seq, n, *columns)`` of the batches holding seqs ``>= offset``."""
        with self._lock:
            return self._connection.execute(
                f"SELECT first_seq, n, {columns} FROM {table} "
                "WHERE video_id = ? AND first_seq + n > ? AND first_seq >= COALESCE("
                f" (SELECT first_seq FROM {table} WHERE video_id = ? AND first_seq <= ?"
                "  ORDER BY first_seq DESC LIMIT 1), 0) "
                "ORDER BY first_seq",
                (video_id, offset, video_id, offset),
            ).fetchall()

    def _items_since(self, table: str, video_id: str, offset: int) -> list[dict]:
        """The decoded items of one video's log from seq ``offset`` on."""
        items: list[dict] = []
        for first_seq, _n, payload in self._batches_since(
            table, "payload", video_id, offset
        ):
            items.extend(wire.decode_frame(payload)[max(offset - first_seq, 0) :])
        return items

    # ------------------------------------------------------------------ chat
    def put_chat(self, video_id: str, messages: Iterable[ChatMessage]) -> int:
        """Store chat for a video (idempotent: replaces any previous crawl)."""
        self._require_known_video(video_id, "store chat")
        stored = sorted(messages, key=lambda m: m.timestamp)
        payload = wire.encode_frame(
            [codecs.chat_message_to_dict(message) for message in stored]
        )
        with self._lock, self._guard(), self._connection:
            self._connection.execute(
                "DELETE FROM chat_batches WHERE video_id = ?", (video_id,)
            )
            if stored:
                self._connection.execute(
                    "INSERT INTO chat_batches (video_id, first_seq, n, payload) "
                    "VALUES (?, 0, ?, ?)",
                    (video_id, len(stored), payload),
                )
        return len(stored)

    def append_chat(self, video_id: str, messages: Iterable[ChatMessage]) -> int:
        """Append live-ingested chat in arrival order; returns the new size.

        The whole batch commits as one row in one transaction — one insert
        and one fsync per batch whatever the batch size, which is what makes
        the per-message cost of a chat firehose amortisable.
        """
        self._require_known_video(video_id, "append chat")
        rows = [codecs.chat_message_to_dict(message) for message in messages]
        return self._append_batch("chat_batches", video_id, rows)

    def has_chat(self, video_id: str) -> bool:
        """Whether chat has been crawled for the video."""
        with self._lock:
            row = self._connection.execute(
                "SELECT 1 FROM chat_batches WHERE video_id = ? LIMIT 1", (video_id,)
            ).fetchone()
        return row is not None

    def get_chat(self, video_id: str) -> list[ChatMessage]:
        """Return the crawled chat messages (empty list when not crawled)."""
        return [
            codecs.chat_message_from_dict(item)
            for item in self._items_since("chat_batches", video_id, 0)
        ]

    def count_chat(self, video_id: str) -> int:
        """Number of stored chat messages (one key step, no payload decode)."""
        return self._next_seq("chat_batches", video_id)

    def get_chat_since(self, video_id: str, offset: int) -> list[ChatMessage]:
        """Chat from ``offset`` on — O(suffix) rows read and decoded."""
        return [
            codecs.chat_message_from_dict(item)
            for item in self._items_since("chat_batches", video_id, offset)
        ]

    # ---------------------------------------------------------- interactions
    def log_interactions(
        self,
        video_id: str,
        interactions: Iterable[Interaction],
        *,
        after_chat: int | None = None,
    ) -> int:
        """Append viewer interactions for a video; returns the new log size.

        The batch is one row carrying its ``after_chat`` stamp, written in
        one transaction like a chat batch.
        """
        self._require_known_video(video_id, "log interactions")
        rows = [codecs.interaction_to_dict(interaction) for interaction in interactions]
        return self._append_batch("play_batches", video_id, rows, after_chat=after_chat)

    def get_interactions(self, video_id: str) -> list[Interaction]:
        """All logged interactions for the video, in arrival (log) order."""
        return [
            codecs.interaction_from_dict(item)
            for item in self._items_since("play_batches", video_id, 0)
        ]

    def count_interactions(self, video_id: str) -> int:
        """Number of logged interactions (one key step, no payload decode)."""
        return self._next_seq("play_batches", video_id)

    def get_interactions_since(self, video_id: str, offset: int) -> list[Interaction]:
        """Interactions from ``offset`` on — O(suffix) rows read and decoded."""
        return [
            codecs.interaction_from_dict(item)
            for item in self._items_since("play_batches", video_id, offset)
        ]

    def get_interaction_stamps_since(
        self, video_id: str, offset: int
    ) -> list[tuple[int | None, int]]:
        """``(after_chat, n_rows)`` runs of the rows from ``offset`` on (no payloads).

        Adjacent batches with equal stamps merge into one maximal run.
        """
        batches = self._batches_since("play_batches", "after_chat", video_id, offset)
        return [
            (after_chat, sum(n - max(offset - first_seq, 0) for first_seq, n, _ in run))
            for after_chat, run in itertools.groupby(batches, key=itemgetter(2))
        ]

    # -------------------------------------------------------------- red dots
    def put_red_dots(self, video_id: str, dots: Iterable[RedDot]) -> None:
        """Store the current red dots for a video (replaces previous dots)."""
        self._require_known_video(video_id, "store red dots")
        stored = sorted(dots, key=lambda d: d.position)
        rows = [
            (video_id, seq, json.dumps(codecs.red_dot_to_dict(dot), allow_nan=False))
            for seq, dot in enumerate(stored)
        ]
        with self._lock, self._guard(), self._connection:
            self._connection.execute("DELETE FROM red_dots WHERE video_id = ?", (video_id,))
            self._connection.executemany(
                "INSERT INTO red_dots (video_id, seq, payload) VALUES (?, ?, ?)", rows
            )
            # Mark the set as computed even when empty, so a below-threshold
            # video is distinguishable from one never looked at.
            self._connection.execute(
                "INSERT OR REPLACE INTO red_dot_sets (video_id, n) VALUES (?, ?)",
                (video_id, len(rows)),
            )

    def has_red_dots(self, video_id: str) -> bool:
        """Whether red dots were ever computed for the video (even zero)."""
        with self._lock:
            row = self._connection.execute(
                "SELECT 1 FROM red_dot_sets WHERE video_id = ?", (video_id,)
            ).fetchone()
        return row is not None

    def get_red_dots(self, video_id: str) -> list[RedDot]:
        """The current red dots for the video (empty when none computed)."""
        with self._lock:
            rows = self._connection.execute(
                "SELECT payload FROM red_dots WHERE video_id = ? ORDER BY seq",
                (video_id,),
            ).fetchall()
        return [codecs.red_dot_from_dict(json.loads(row[0])) for row in rows]

    # ------------------------------------------------------------ highlights
    def put_highlight(
        self, video_id: str, highlight: Highlight, source: str = "extractor"
    ) -> HighlightRecord:
        """Append a refined highlight result; versions increase monotonically."""
        self._require_known_video(video_id, "store highlights")
        # The write lock is taken *before* MAX(version) is read: a deferred
        # transaction would let another handle on the same file read the
        # same version and collide on the primary key.
        with self._write() as connection:
            version = (
                connection.execute(
                    "SELECT COALESCE(MAX(version), 0) FROM highlight_records "
                    "WHERE video_id = ?",
                    (video_id,),
                ).fetchone()[0]
                + 1
            )
            record = HighlightRecord(
                video_id=video_id, highlight=highlight, version=version, source=source
            )
            connection.execute(
                "INSERT INTO highlight_records (video_id, version, payload) "
                "VALUES (?, ?, ?)",
                (video_id, version, json.dumps(codecs.highlight_record_to_dict(record), allow_nan=False)),
            )
        return record

    def highlight_history(self, video_id: str) -> list[HighlightRecord]:
        """Every stored highlight record for the video, in version order."""
        with self._lock:
            rows = self._connection.execute(
                "SELECT payload FROM highlight_records WHERE video_id = ? "
                "ORDER BY version",
                (video_id,),
            ).fetchall()
        return [codecs.highlight_record_from_dict(json.loads(row[0])) for row in rows]

    # ----------------------------------------------------- session snapshots
    def put_session_snapshot(self, video_id: str, payload: dict) -> None:
        """Store (replacing) the checkpoint of a live session.

        One ``INSERT OR REPLACE`` in one implicit transaction: a crash during
        the write leaves the previous checkpoint intact, never a torn one.
        The frame codec rejects any payload that would not survive a strict
        JSON parse at recovery time (a non-finite float raises), and encoding
        happens *before* the write so a rejected payload stores nothing.
        """
        self._require_known_video(video_id, "store a session snapshot")
        encoded = wire.encode_frame(payload)
        with self._lock, self._guard(), self._connection:
            self._connection.execute(
                "INSERT OR REPLACE INTO session_snapshots (video_id, payload) "
                "VALUES (?, ?)",
                (video_id, encoded),
            )

    def get_session_snapshots(self) -> dict[str, dict]:
        """Every stored session checkpoint, keyed by video id."""
        with self._lock:
            rows = self._connection.execute(
                "SELECT video_id, payload FROM session_snapshots ORDER BY video_id"
            ).fetchall()
        return {row[0]: wire.decode_frame(row[1]) for row in rows}

    def delete_session_snapshot(self, video_id: str) -> bool:
        """Drop a session checkpoint; returns whether one existed."""
        with self._lock, self._guard(), self._connection:
            cursor = self._connection.execute(
                "DELETE FROM session_snapshots WHERE video_id = ?", (video_id,)
            )
        return cursor.rowcount > 0

    def get_session_snapshot(self, video_id: str) -> dict | None:
        """The stored checkpoint for one video (single-row read)."""
        with self._lock:
            row = self._connection.execute(
                "SELECT payload FROM session_snapshots WHERE video_id = ?",
                (video_id,),
            ).fetchone()
        return None if row is None else wire.decode_frame(row[0])

    # ------------------------------------------------------ channel migration
    def delete_channel(self, video_id: str) -> bool:
        """Remove every stored row for one channel in one transaction.

        The migration source-cleanup primitive: either the channel's video,
        chat, interactions, red dots, highlight records
        and snapshot are all gone, or — on a crash mid-delete — none are.
        """
        with self._lock, self._guard(), self._connection:
            cursor = self._connection.execute(
                "DELETE FROM videos WHERE video_id = ?", (video_id,)
            )
            existed = cursor.rowcount > 0
            for table in (
                "chat_batches",
                "play_batches",
                "red_dots",
                "red_dot_sets",
                "highlight_records",
                "session_snapshots",
            ):
                self._connection.execute(
                    f"DELETE FROM {table} WHERE video_id = ?", (video_id,)
                )
        return existed

    # --------------------------------------------------------------- summary
    def stats(self) -> dict[str, int]:
        """Coarse row counts, useful for monitoring and tests."""
        with self._lock:
            counts = {
                "videos": "SELECT COUNT(*) FROM videos",
                "videos_with_chat": "SELECT COUNT(DISTINCT video_id) FROM chat_batches",
                "chat_messages": "SELECT COALESCE(SUM(n), 0) FROM chat_batches",
                "interactions": "SELECT COALESCE(SUM(n), 0) FROM play_batches",
                "red_dots": "SELECT COUNT(*) FROM red_dots",
                "highlight_records": "SELECT COUNT(*) FROM highlight_records",
                "session_snapshots": "SELECT COUNT(*) FROM session_snapshots",
            }
            return {
                key: int(self._connection.execute(query).fetchone()[0])
                for key, query in counts.items()
            }

    # ------------------------------------------------------------------ meta
    def get_meta(self, key: str) -> str | None:
        """Read a database-level metadata value (``None`` when unset)."""
        with self._lock:
            row = self._connection.execute(
                "SELECT value FROM meta WHERE key = ?", (key,)
            ).fetchone()
        return row[0] if row is not None else None

    def set_meta(self, key: str, value: str) -> None:
        """Write a database-level metadata value (insert-or-replace)."""
        with self._lock, self._guard(), self._connection:
            self._connection.execute(
                "INSERT OR REPLACE INTO meta (key, value) VALUES (?, ?)", (key, value)
            )

    def delete_meta(self, key: str) -> None:
        """Remove a database-level metadata value (no-op when unset)."""
        with self._lock, self._guard(), self._connection:
            self._connection.execute("DELETE FROM meta WHERE key = ?", (key,))

    # ------------------------------------------------------------- lifecycle
    def close(self) -> None:
        """Close the underlying connection (further calls will fail)."""
        with self._lock:
            self._connection.close()

    def journal_mode(self) -> str:
        """The active journal mode (``wal`` for file-backed stores)."""
        with self._lock:
            return str(
                self._connection.execute("PRAGMA journal_mode").fetchone()[0]
            ).lower()
