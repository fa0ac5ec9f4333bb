"""SQLite storage backend (stdlib ``sqlite3``, WAL mode, dependency-free).

The first durable backend behind the
:class:`~repro.platform.backends.base.StorageBackend` contract: rows are the
JSON codec forms of the core types (:mod:`repro.platform.codecs`), so
everything that goes in comes back out round-trip exact.  File-backed stores
survive process restarts; the default ``:memory:`` path gives a throwaway
store with identical semantics for tests.

Chat and session snapshots — the firehose tables — additionally support the
framed binary codec of :mod:`repro.platform.wire` (``storage_codec``, the
default): a chat batch lands as **one** compressed blob row in
``chat_batches`` instead of N JSON text rows, cutting both bytes/event and
per-batch transaction work.  The format is migration-free by construction:
new writes use the configured codec, reads dispatch on the stored value's
type (``bytes`` → binary frame, ``str`` → JSON text), so a database written
by any earlier version keeps reading — and both row shapes may coexist for
one video (legacy per-message rows followed by batch rows share a single
dense ``seq`` space).  The one schema change so far, format v3's nullable
``interactions.after_chat`` stamp column, is added in place when an older
file is opened; the rows already there read back unstamped.

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
CREATE TABLE IF NOT EXISTS chat_messages (
    video_id TEXT NOT NULL,
    seq      INTEGER NOT NULL,
    payload  TEXT NOT NULL,
    PRIMARY KEY (video_id, seq)
);
CREATE TABLE IF NOT EXISTS chat_batches (
    video_id  TEXT NOT NULL,
    first_seq INTEGER NOT NULL,
    n         INTEGER NOT NULL,
    payload   BLOB NOT NULL,
    PRIMARY KEY (video_id, first_seq)
);
CREATE TABLE IF NOT EXISTS interactions (
    rowid      INTEGER PRIMARY KEY AUTOINCREMENT,
    video_id   TEXT NOT NULL,
    payload    TEXT NOT NULL,
    after_chat INTEGER
);
CREATE INDEX IF NOT EXISTS idx_interactions_video ON interactions (video_id);
CREATE TABLE IF NOT EXISTS interaction_counts (
    video_id TEXT PRIMARY KEY,
    n        INTEGER NOT NULL
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
    storage_codec:
        Row format for *new* chat-batch and snapshot writes: ``"binary"``
        (the default — framed, compressed blobs) or ``"json"`` (the
        pre-codec text rows).  Reads are codec-blind either way — they
        dispatch on the stored value's type, so the knob never strands
        existing data.
    """

    # Bumped when the *write* format grows a shape old readers cannot parse.
    # v2 = chat_batches blob rows + binary snapshot frames (reads of every
    # older shape keep working, so there is no migration step to run).
    # v3 = the ``interactions.after_chat`` stamp column: the suffix past a
    # session checkpoint may now mix chat and plays, which only a reader
    # that orders them by the stamps can replay.  Opening an older file
    # adds the (nullable) column; its rows stay unstamped.
    STORAGE_FORMAT_KEY = "storage_format_version"
    STORAGE_FORMAT_VERSION = "3"

    def __init__(
        self,
        path: str | Path = ":memory:",
        *,
        busy_timeout_ms: int = 5000,
        storage_codec: str = "binary",
    ) -> None:
        if busy_timeout_ms < 0:
            raise ValidationError("busy_timeout_ms must be >= 0")
        if storage_codec not in wire.WIRE_CODECS:
            raise ValidationError(
                f"unknown storage codec {storage_codec!r} "
                f"(expected one of {wire.WIRE_CODECS})"
            )
        self.path = str(path)
        self.busy_timeout_ms = int(busy_timeout_ms)
        self.storage_codec = storage_codec
        self._lock = threading.RLock()
        self._connection = sqlite3.connect(self.path, check_same_thread=False)  # guarded-by: _lock
        with self._lock, self._guard(), self._connection:
            self._connection.execute("PRAGMA journal_mode=WAL")
            self._connection.execute("PRAGMA synchronous=NORMAL")
            self._connection.execute(f"PRAGMA busy_timeout={self.busy_timeout_ms}")
            self._connection.executescript(_SCHEMA)
            # Reject files written by a *newer* format before touching any
            # row: a v2 reader has no idea what shapes v3 persisted, and
            # half-parsing them would corrupt, not fail.  Older formats
            # keep opening — the read paths are codec-blind by design.
            stored = self._connection.execute(
                "SELECT value FROM meta WHERE key = ?", (self.STORAGE_FORMAT_KEY,)
            ).fetchone()
            if stored is not None and int(stored[0]) > int(self.STORAGE_FORMAT_VERSION):
                raise ValidationError(
                    f"{self.path} was written by storage format v{stored[0]}; "
                    f"this build reads at most v{self.STORAGE_FORMAT_VERSION} — "
                    "upgrade the code, not the file"
                )
            columns = {
                row[1]
                for row in self._connection.execute("PRAGMA table_info(interactions)")
            }
            if "after_chat" not in columns:
                self._connection.execute(
                    "ALTER TABLE interactions ADD COLUMN after_chat INTEGER"
                )
            self._connection.execute(
                "INSERT OR REPLACE INTO meta (key, value) VALUES (?, ?)",
                (self.STORAGE_FORMAT_KEY, self.STORAGE_FORMAT_VERSION),
            )

    # ------------------------------------------------------- codec dispatch
    def _encode_payload(self, value) -> bytes | str:
        """Encode a value tree in the configured storage codec.

        Both branches enforce the same strictness (``allow_nan=False`` /
        the frame codec's non-finite rejection) and the binary frame decodes
        to exactly what a strict JSON round-trip would give — so what codec
        a row was *written* with is unobservable to readers.
        """
        if self.storage_codec == "binary":
            return wire.encode_frame(value)
        return json.dumps(value, allow_nan=False)

    @staticmethod
    def _decode_payload(payload: bytes | str):
        """Decode a stored value by its type — blobs are frames, text is JSON."""
        if isinstance(payload, bytes):
            return wire.decode_frame(payload)
        return json.loads(payload)

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

    # ------------------------------------------------------------------ chat
    # Chat lives in two tables sharing one dense seq space: legacy
    # ``chat_messages`` (one JSON text row per message, what pre-codec
    # versions wrote) and ``chat_batches`` (one blob row per ingest batch,
    # covering seqs [first_seq, first_seq + n)).  Writers only add batches;
    # readers merge both so any mix of generations reads back in order.
    # Batches tile the seq space, so the one with the highest first_seq ends
    # it; finding that batch is one step down the (video_id, first_seq) key,
    # where MAX(first_seq + n) would read every batch of the channel.
    _NEXT_SEQ_SQL = (
        "SELECT MAX("
        " (SELECT COALESCE(MAX(seq), -1) FROM chat_messages WHERE video_id = ?),"
        " COALESCE((SELECT first_seq + n FROM chat_batches WHERE video_id = ?"
        "  ORDER BY first_seq DESC LIMIT 1), 0) - 1"
        ") + 1"
    )

    def put_chat(self, video_id: str, messages: Iterable[ChatMessage]) -> int:
        """Store chat for a video (idempotent: replaces any previous crawl)."""
        self._require_known_video(video_id, "store chat")
        stored = sorted(messages, key=lambda m: m.timestamp)
        payload = self._encode_payload(
            [codecs.chat_message_to_dict(message) for message in stored]
        )
        with self._lock, self._guard(), self._connection:
            self._connection.execute(
                "DELETE FROM chat_messages WHERE video_id = ?", (video_id,)
            )
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

        The whole batch commits as **one** blob row in **one** ``BEGIN
        IMMEDIATE`` transaction — one insert and one fsync per batch
        whatever the batch size, which is what makes the per-message cost
        of a chat firehose amortisable.  The write lock is taken before
        reading the next sequence number so two handles on the same file
        cannot allocate colliding ranges.
        """
        self._require_known_video(video_id, "append chat")
        rows = [codecs.chat_message_to_dict(message) for message in messages]
        payload = self._encode_payload(rows)
        with self._lock, self._guard():
            self._connection.execute("BEGIN IMMEDIATE")
            try:
                first_seq = self._connection.execute(
                    self._NEXT_SEQ_SQL, (video_id, video_id)
                ).fetchone()[0]
                if rows:
                    self._connection.execute(
                        "INSERT INTO chat_batches (video_id, first_seq, n, payload) "
                        "VALUES (?, ?, ?, ?)",
                        (video_id, first_seq, len(rows), payload),
                    )
            except BaseException:
                self._connection.execute("ROLLBACK")
                raise
            self._connection.execute("COMMIT")
        return int(first_seq) + len(rows)

    def has_chat(self, video_id: str) -> bool:
        """Whether chat has been crawled for the video."""
        with self._lock:
            row = self._connection.execute(
                "SELECT 1 FROM chat_messages WHERE video_id = ? "
                "UNION ALL SELECT 1 FROM chat_batches WHERE video_id = ? LIMIT 1",
                (video_id, video_id),
            ).fetchone()
        return row is not None

    def _chat_dicts_since(self, video_id: str, offset: int) -> list[dict]:
        """Codec dicts for seqs ``>= offset``, merged across both row shapes.

        Seqs are dense from 0 (``put_chat`` restarts them, ``append_chat``
        continues them), so a count offset *is* a seq bound — legacy rows
        filter in SQL, and only batches overlapping the suffix are decoded.
        """
        with self._lock:
            legacy = self._connection.execute(
                "SELECT seq, payload FROM chat_messages "
                "WHERE video_id = ? AND seq >= ? ORDER BY seq",
                (video_id, offset),
            ).fetchall()
            batches = self._connection.execute(
                "SELECT first_seq, payload FROM chat_batches "
                "WHERE video_id = ? AND first_seq + n > ? ORDER BY first_seq",
                (video_id, offset),
            ).fetchall()
        entries = [(seq, json.loads(payload)) for seq, payload in legacy]
        for first_seq, payload in batches:
            for index, item in enumerate(self._decode_payload(payload)):
                seq = first_seq + index
                if seq >= offset:
                    entries.append((seq, item))
        entries.sort(key=lambda entry: entry[0])
        return [item for _seq, item in entries]

    def get_chat(self, video_id: str) -> list[ChatMessage]:
        """Return the crawled chat messages (empty list when not crawled)."""
        return [
            codecs.chat_message_from_dict(item)
            for item in self._chat_dicts_since(video_id, 0)
        ]

    def count_chat(self, video_id: str) -> int:
        """Number of stored chat messages (row counts only, no payload decode)."""
        with self._lock:
            row = self._connection.execute(
                "SELECT (SELECT COUNT(*) FROM chat_messages WHERE video_id = ?) + "
                "(SELECT COALESCE(SUM(n), 0) FROM chat_batches WHERE video_id = ?)",
                (video_id, video_id),
            ).fetchone()
        return int(row[0])

    def get_chat_since(self, video_id: str, offset: int) -> list[ChatMessage]:
        """Chat from ``offset`` on — O(suffix) rows read and decoded."""
        return [
            codecs.chat_message_from_dict(item)
            for item in self._chat_dicts_since(video_id, offset)
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

        Every row of the batch carries the batch's ``after_chat`` stamp,
        written in the same transaction as the rows themselves.
        """
        self._require_known_video(video_id, "log interactions")
        rows = [
            (
                video_id,
                json.dumps(codecs.interaction_to_dict(interaction), allow_nan=False),
                after_chat,
            )
            for interaction in interactions
        ]
        with self._lock, self._guard(), self._connection:
            self._connection.executemany(
                "INSERT INTO interactions (video_id, payload, after_chat) "
                "VALUES (?, ?, ?)",
                rows,
            )
            # A transactional running total keeps the append O(batch) without
            # going stale when several handles share one database file.
            self._connection.execute(
                "INSERT INTO interaction_counts (video_id, n) VALUES (?, ?) "
                "ON CONFLICT(video_id) DO UPDATE SET n = n + excluded.n",
                (video_id, len(rows)),
            )
            count = self._connection.execute(
                "SELECT n FROM interaction_counts WHERE video_id = ?", (video_id,)
            ).fetchone()[0]
        return int(count)

    def get_interactions(self, video_id: str) -> list[Interaction]:
        """All logged interactions for the video, in arrival (log) order."""
        with self._lock:
            rows = self._connection.execute(
                "SELECT payload FROM interactions WHERE video_id = ? ORDER BY rowid",
                (video_id,),
            ).fetchall()
        return [codecs.interaction_from_dict(json.loads(row[0])) for row in rows]

    def count_interactions(self, video_id: str) -> int:
        """Number of logged interactions (COUNT(*), no payload decode)."""
        with self._lock:
            row = self._connection.execute(
                "SELECT COUNT(*) FROM interactions WHERE video_id = ?", (video_id,)
            ).fetchone()
        return int(row[0])

    def get_interactions_since(self, video_id: str, offset: int) -> list[Interaction]:
        """Interaction rows from ``offset`` on — O(suffix) rows read."""
        with self._lock:
            rows = self._connection.execute(
                "SELECT payload FROM interactions WHERE video_id = ? "
                "ORDER BY rowid LIMIT -1 OFFSET ?",
                (video_id, offset),
            ).fetchall()
        return [codecs.interaction_from_dict(json.loads(row[0])) for row in rows]

    def get_interaction_stamps_since(
        self, video_id: str, offset: int
    ) -> list[tuple[int | None, int]]:
        """``(after_chat, n_rows)`` runs of the rows from ``offset`` on (no payloads)."""
        with self._lock:
            rows = self._connection.execute(
                "SELECT after_chat FROM interactions WHERE video_id = ? "
                "ORDER BY rowid LIMIT -1 OFFSET ?",
                (video_id, offset),
            ).fetchall()
        return [
            (after_chat, sum(1 for _ in run))
            for (after_chat,), run in itertools.groupby(rows)
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
        with self._lock, self._guard():
            # Take the write lock *before* reading MAX(version): a deferred
            # transaction would let another handle on the same file read the
            # same version and collide on the primary key.
            self._connection.execute("BEGIN IMMEDIATE")
            try:
                version = (
                    self._connection.execute(
                        "SELECT COALESCE(MAX(version), 0) FROM highlight_records "
                        "WHERE video_id = ?",
                        (video_id,),
                    ).fetchone()[0]
                    + 1
                )
                record = HighlightRecord(
                    video_id=video_id, highlight=highlight, version=version, source=source
                )
                self._connection.execute(
                    "INSERT INTO highlight_records (video_id, version, payload) "
                    "VALUES (?, ?, ?)",
                    (video_id, version, json.dumps(codecs.highlight_record_to_dict(record), allow_nan=False)),
                )
            except BaseException:
                self._connection.execute("ROLLBACK")
                raise
            self._connection.execute("COMMIT")
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
        Both codecs reject any payload that would not survive a strict JSON
        parse at recovery time (``allow_nan=False`` / the frame codec's
        non-finite rejection), and encoding happens *before* the write so a
        rejected payload stores nothing.
        """
        self._require_known_video(video_id, "store a session snapshot")
        encoded = self._encode_payload(payload)
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
        return {row[0]: self._decode_payload(row[1]) for row in rows}

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
        return None if row is None else self._decode_payload(row[0])

    # ------------------------------------------------------ channel migration
    def delete_channel(self, video_id: str) -> bool:
        """Remove every stored row for one channel in one transaction.

        The migration source-cleanup primitive: either the channel's video,
        chat (both row formats), interactions, red dots, highlight records
        and snapshot are all gone, or — on a crash mid-delete — none are.
        """
        with self._lock, self._guard(), self._connection:
            cursor = self._connection.execute(
                "DELETE FROM videos WHERE video_id = ?", (video_id,)
            )
            existed = cursor.rowcount > 0
            for table in (
                "chat_messages",
                "chat_batches",
                "interactions",
                "interaction_counts",
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
                "videos_with_chat": (
                    "SELECT COUNT(*) FROM (SELECT video_id FROM chat_messages "
                    "UNION SELECT video_id FROM chat_batches)"
                ),
                "chat_messages": (
                    "SELECT (SELECT COUNT(*) FROM chat_messages) + "
                    "(SELECT COALESCE(SUM(n), 0) FROM chat_batches)"
                ),
                "interactions": "SELECT COUNT(*) FROM interactions",
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
