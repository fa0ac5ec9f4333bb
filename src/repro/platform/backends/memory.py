"""In-memory reference implementation of the storage-backend contract.

This is the store the seed platform shipped with, now expressed as a
:class:`~repro.platform.backends.base.StorageBackend`.  It remains the
default backend: dependency-free, fast, and the semantic reference the
contract test suite holds every other backend to.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable

from repro.core.types import ChatMessage, Highlight, Interaction, RedDot, Video
from repro.platform.backends.base import HighlightRecord, StorageBackend
from repro.utils.validation import ValidationError

__all__ = ["InMemoryStore"]


@dataclass
class InMemoryStore(StorageBackend):
    """Stores videos, chat, interactions, red dots and highlight results."""

    _videos: dict[str, Video] = field(default_factory=dict, repr=False)
    _chat: dict[str, list[ChatMessage]] = field(default_factory=dict, repr=False)
    _interactions: dict[str, list[Interaction]] = field(default_factory=dict, repr=False)
    # ``after_chat`` stamp runs per video: ``(first_row, after_chat)``, one
    # entry per change of stamp rather than one per row or per batch.
    _interaction_stamps: dict[str, list[tuple[int, int | None]]] = field(
        default_factory=dict, repr=False
    )
    _red_dots: dict[str, list[RedDot]] = field(default_factory=dict, repr=False)
    _highlights: dict[str, list[HighlightRecord]] = field(default_factory=dict, repr=False)
    _session_snapshots: dict[str, str] = field(default_factory=dict, repr=False)

    # ---------------------------------------------------------------- videos
    def put_video(self, video: Video) -> None:
        """Insert or replace video metadata."""
        self._videos[video.video_id] = video

    def get_video(self, video_id: str) -> Video:
        """Return the stored video or raise if unknown."""
        try:
            return self._videos[video_id]
        except KeyError as error:
            raise ValidationError(f"unknown video id {video_id!r}") from error

    def has_video(self, video_id: str) -> bool:
        """Whether the video is known to the store."""
        return video_id in self._videos

    def list_videos(self) -> list[Video]:
        """All stored videos, ordered by id."""
        return [self._videos[key] for key in sorted(self._videos)]

    # ------------------------------------------------------------------ chat
    def put_chat(self, video_id: str, messages: Iterable[ChatMessage]) -> int:
        """Store chat for a video (idempotent: replaces any previous crawl).

        Returns the number of messages stored.
        """
        self._require_known_video(video_id, "store chat")
        stored = sorted(messages, key=lambda m: m.timestamp)
        self._chat[video_id] = stored
        return len(stored)

    def append_chat(self, video_id: str, messages: Iterable[ChatMessage]) -> int:
        """Append live-ingested chat in arrival order; returns the new size."""
        self._require_known_video(video_id, "append chat")
        log = self._chat.setdefault(video_id, [])
        log.extend(messages)
        return len(log)

    def has_chat(self, video_id: str) -> bool:
        """Whether chat has been crawled for the video."""
        return video_id in self._chat and len(self._chat[video_id]) > 0

    def get_chat(self, video_id: str) -> list[ChatMessage]:
        """Return the crawled chat messages (empty list when not crawled)."""
        return list(self._chat.get(video_id, []))

    def count_chat(self, video_id: str) -> int:
        """Number of stored chat messages for the video (no copy)."""
        return len(self._chat.get(video_id, ()))

    # ---------------------------------------------------------- interactions
    def log_interactions(
        self,
        video_id: str,
        interactions: Iterable[Interaction],
        *,
        after_chat: int | None = None,
    ) -> int:
        """Append viewer interactions for a video; returns the new log size."""
        self._require_known_video(video_id, "log interactions")
        log = self._interactions.setdefault(video_id, [])
        first_row = len(log)
        log.extend(interactions)
        runs = self._interaction_stamps.setdefault(video_id, [])
        if len(log) > first_row and (not runs or runs[-1][1] != after_chat):
            runs.append((first_row, after_chat))
        return len(log)

    def get_interactions(self, video_id: str) -> list[Interaction]:
        """All logged interactions for the video, in arrival (log) order.

        Arrival order is preserved rather than sorting by video position so
        that per-user causality survives backward seeks (re-watches).
        """
        return list(self._interactions.get(video_id, []))

    def count_interactions(self, video_id: str) -> int:
        """Number of logged interactions for the video (no copy)."""
        return len(self._interactions.get(video_id, ()))

    # -------------------------------------------------------------- red dots
    def put_red_dots(self, video_id: str, dots: Iterable[RedDot]) -> None:
        """Store the current red dots for a video (replaces previous dots)."""
        self._require_known_video(video_id, "store red dots")
        self._red_dots[video_id] = sorted(dots, key=lambda d: d.position)

    def get_red_dots(self, video_id: str) -> list[RedDot]:
        """The current red dots for the video (empty when none computed)."""
        return list(self._red_dots.get(video_id, []))

    def has_red_dots(self, video_id: str) -> bool:
        """Whether red dots were ever computed for the video (even zero)."""
        return video_id in self._red_dots

    # ------------------------------------------------------------ highlights
    def put_highlight(
        self, video_id: str, highlight: Highlight, source: str = "extractor"
    ) -> HighlightRecord:
        """Append a refined highlight result; versions increase monotonically."""
        self._require_known_video(video_id, "store highlights")
        records = self._highlights.setdefault(video_id, [])
        record = HighlightRecord(
            video_id=video_id, highlight=highlight, version=len(records) + 1, source=source
        )
        records.append(record)
        return record

    def highlight_history(self, video_id: str) -> list[HighlightRecord]:
        """Every stored highlight record for the video, in version order."""
        return list(self._highlights.get(video_id, []))

    # ----------------------------------------------------- session snapshots
    def put_session_snapshot(self, video_id: str, payload: dict) -> None:
        """Store (replacing) the checkpoint of a live session.

        The payload is stored as its strict-JSON encoding — the exact bytes
        a durable backend would write — which both enforces the contract's
        JSON-safety requirement and decouples the stored checkpoint from
        later mutation of the caller's dict.
        """
        self._require_known_video(video_id, "store a session snapshot")
        self._session_snapshots[video_id] = json.dumps(payload, allow_nan=False)

    def get_session_snapshots(self) -> dict[str, dict]:
        """Every stored session checkpoint, keyed by video id."""
        return {
            video_id: json.loads(text)
            for video_id, text in sorted(self._session_snapshots.items())
        }

    def delete_session_snapshot(self, video_id: str) -> bool:
        """Drop a session checkpoint; returns whether one existed."""
        return self._session_snapshots.pop(video_id, None) is not None

    def get_session_snapshot(self, video_id: str) -> dict | None:
        """The stored checkpoint for one video (single lookup)."""
        text = self._session_snapshots.get(video_id)
        return None if text is None else json.loads(text)

    def get_chat_since(self, video_id: str, offset: int) -> list[ChatMessage]:
        """Chat rows from ``offset`` on (slices without copying the prefix)."""
        return self._chat.get(video_id, [])[offset:]

    def get_interactions_since(self, video_id: str, offset: int) -> list[Interaction]:
        """Interaction rows from ``offset`` on."""
        return self._interactions.get(video_id, [])[offset:]

    def get_interaction_stamps_since(
        self, video_id: str, offset: int
    ) -> list[tuple[int | None, int]]:
        """``(after_chat, n_rows)`` runs of the interaction rows from ``offset`` on."""
        runs = self._interaction_stamps.get(video_id, [])
        ends = [first_row for first_row, _ in runs[1:]]
        ends.append(len(self._interactions.get(video_id, ())))
        return [
            (after_chat, end - max(first_row, offset))
            for (first_row, after_chat), end in zip(runs, ends)
            if end > offset
        ]

    # ------------------------------------------------------ channel migration
    def delete_channel(self, video_id: str) -> bool:
        """Remove every stored row for one channel (migration source cleanup)."""
        existed = video_id in self._videos
        for table in (
            self._videos,
            self._chat,
            self._interactions,
            self._interaction_stamps,
            self._red_dots,
            self._highlights,
            self._session_snapshots,
        ):
            table.pop(video_id, None)
        return existed

    # --------------------------------------------------------------- summary
    def stats(self) -> dict[str, int]:
        """Coarse row counts, useful for monitoring and tests."""
        return {
            "videos": len(self._videos),
            "videos_with_chat": sum(1 for v in self._videos if self.has_chat(v)),
            "chat_messages": sum(len(m) for m in self._chat.values()),
            "interactions": sum(len(i) for i in self._interactions.values()),
            "red_dots": sum(len(d) for d in self._red_dots.values()),
            "highlight_records": sum(len(h) for h in self._highlights.values()),
            "session_snapshots": len(self._session_snapshots),
        }
