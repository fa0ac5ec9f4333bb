"""The storage-backend contract of the LIGHTOR platform tier.

The paper's deployment (Figure 5) puts a database behind the web service.
:class:`StorageBackend` is that database's contract: videos, crawled chat,
viewer-interaction logs, red dots and versioned highlight results.  Every
backend — the in-memory reference implementation, the SQLite store, or a
future DBMS adapter — implements the same primitives and therefore passes
the same contract test suite (``tests/test_backends.py``).

Semantics every backend must honour:

* **chat ingest is idempotent** — ``put_chat`` replaces any previous crawl
  and stores messages sorted by timestamp; ``append_chat`` is the
  *incremental* variant for live ingest (append in arrival order, one
  transaction per batch);
* **interaction logs are append-only** and preserve arrival order (per-user
  causality survives backward seeks); each logged batch may carry an
  ``after_chat`` stamp — how many chat rows the video had persisted when
  the batch was logged — which is what lets recovery interleave a replayed
  chat/plays suffix in its original order;
* **red dots replace** and are stored sorted by position; an empty computed
  set is remembered (``has_red_dots``) so it is not confused with
  "never computed";
* **highlight results are versioned** — ``put_highlight`` appends with a
  monotonically increasing version per video;
* **session snapshots are the open-session registry** — one strict-JSON
  checkpoint per live session, replaced atomically (one transaction per
  checkpoint on durable backends) and deleted on clean close, so
  ``get_session_snapshots`` after a crash is exactly the set of sessions
  recovery must rebuild;
* **unknown video ids are errors** for every write and for ``get_video``.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Iterable

from repro.core.types import ChatMessage, Highlight, Interaction, RedDot, Video, VideoChatLog
from repro.utils.validation import ValidationError

__all__ = ["HighlightRecord", "StorageBackend"]


@dataclass(frozen=True)
class HighlightRecord:
    """A stored highlight result for a video, versioned by refinement round."""

    video_id: str
    highlight: Highlight
    version: int
    source: str = "extractor"


class StorageBackend(abc.ABC):
    """Abstract back-end store behind the LIGHTOR web service."""

    # ---------------------------------------------------------------- videos
    @abc.abstractmethod
    def put_video(self, video: Video) -> None:
        """Insert or replace video metadata."""

    @abc.abstractmethod
    def get_video(self, video_id: str) -> Video:
        """Return the stored video or raise :class:`ValidationError`."""

    @abc.abstractmethod
    def has_video(self, video_id: str) -> bool:
        """Whether the video is known to the store."""

    @abc.abstractmethod
    def list_videos(self) -> list[Video]:
        """All stored videos, ordered by id."""

    # ------------------------------------------------------------------ chat
    @abc.abstractmethod
    def put_chat(self, video_id: str, messages: Iterable[ChatMessage]) -> int:
        """Store chat for a video (idempotent: replaces any previous crawl).

        Returns the number of messages stored.
        """

    @abc.abstractmethod
    def append_chat(self, video_id: str, messages: Iterable[ChatMessage]) -> int:
        """Append live-ingested chat for a video; returns the new chat size.

        This is the batched live-ingest primitive: unlike :meth:`put_chat`
        (idempotent replace of a whole crawl), ``append_chat`` extends the
        stored log in arrival order — callers feed timestamp-ordered live
        chat, so the stored log stays sorted.  Durable backends must commit
        each call as **one transaction** (one fsync per batch, not per
        message); that is what makes a chat firehose survivable.  Unknown
        video ids are errors, as for every write.
        """

    @abc.abstractmethod
    def has_chat(self, video_id: str) -> bool:
        """Whether chat has been crawled for the video."""

    @abc.abstractmethod
    def get_chat(self, video_id: str) -> list[ChatMessage]:
        """Return the crawled chat messages (empty list when not crawled)."""

    def count_chat(self, video_id: str) -> int:
        """Number of stored chat messages for the video.

        The default materialises the log; backends override with an O(1)
        count — the checkpoint path reads this on every snapshot.
        """
        return len(self.get_chat(video_id))

    # ---------------------------------------------------------- interactions
    @abc.abstractmethod
    def log_interactions(
        self,
        video_id: str,
        interactions: Iterable[Interaction],
        *,
        after_chat: int | None = None,
    ) -> int:
        """Append viewer interactions for a video; returns the new log size.

        ``after_chat`` stamps the batch with the video's *committed* chat
        row count at logging time (``None`` = unstamped); durable backends
        write the stamp in the same transaction as the rows.
        """

    @abc.abstractmethod
    def get_interactions(self, video_id: str) -> list[Interaction]:
        """All logged interactions for the video, in arrival (log) order."""

    def count_interactions(self, video_id: str) -> int:
        """Number of logged interactions for the video (override for O(1))."""
        return len(self.get_interactions(video_id))

    # -------------------------------------------------------------- red dots
    @abc.abstractmethod
    def put_red_dots(self, video_id: str, dots: Iterable[RedDot]) -> None:
        """Store the current red dots for a video (replaces previous dots)."""

    @abc.abstractmethod
    def get_red_dots(self, video_id: str) -> list[RedDot]:
        """The current red dots for the video (empty when none computed)."""

    @abc.abstractmethod
    def has_red_dots(self, video_id: str) -> bool:
        """Whether red dots were ever computed for the video.

        True even when the computed set is empty (a below-threshold video),
        so serving layers can distinguish "computed: nothing to show" from
        "never looked at" and skip recomputation.
        """

    # ------------------------------------------------------------ highlights
    @abc.abstractmethod
    def put_highlight(
        self, video_id: str, highlight: Highlight, source: str = "extractor"
    ) -> HighlightRecord:
        """Append a refined highlight result; versions increase monotonically."""

    @abc.abstractmethod
    def highlight_history(self, video_id: str) -> list[HighlightRecord]:
        """Every stored highlight record for the video, in version order."""

    # ----------------------------------------------------- session snapshots
    @abc.abstractmethod
    def put_session_snapshot(self, video_id: str, payload: dict) -> None:
        """Store (replacing) the checkpoint of a live session.

        ``payload`` must be strict-JSON-serializable (``allow_nan=False`` —
        the codecs map the streaming engine's non-finite sentinels to
        ``None``); backends reject anything else rather than store a
        checkpoint recovery cannot parse.  Durable backends commit each
        checkpoint as **one transaction**, so a crash leaves either the
        previous snapshot or the new one, never a torn mix.  Unknown video
        ids are errors, as for every write.
        """

    @abc.abstractmethod
    def get_session_snapshots(self) -> dict[str, dict]:
        """Every stored session checkpoint, keyed by video id.

        This is the open-session registry: after a crash, recovery rebuilds
        exactly these sessions (each from its snapshot plus the chat and
        interactions persisted since it — see
        :mod:`repro.platform.recovery`).
        """

    @abc.abstractmethod
    def delete_session_snapshot(self, video_id: str) -> bool:
        """Drop a session checkpoint (clean close); returns whether one existed.

        Idempotent, and intentionally not an error for unknown video ids —
        closing a channel that never checkpointed is a no-op.
        """

    def get_session_snapshot(self, video_id: str) -> dict | None:
        """The stored checkpoint for one video (``None`` when absent).

        The default goes through :meth:`get_session_snapshots`; backends
        override with a single-row read — ``start_live`` consults this on
        every channel registration when checkpointing is enabled.
        """
        return self.get_session_snapshots().get(video_id)

    def get_chat_since(self, video_id: str, offset: int) -> list[ChatMessage]:
        """Chat rows from ``offset`` on — the recovery replay suffix.

        The default materialises the whole log; backends override so
        recovery costs O(suffix), not O(history).
        """
        return self.get_chat(video_id)[offset:]

    def get_interactions_since(self, video_id: str, offset: int) -> list[Interaction]:
        """Interaction rows from ``offset`` on (override for O(suffix))."""
        return self.get_interactions(video_id)[offset:]

    @abc.abstractmethod
    def get_interaction_stamps_since(
        self, video_id: str, offset: int
    ) -> list[tuple[int | None, int]]:
        """The ``after_chat`` stamps of the interaction rows from ``offset`` on.

        Maximal runs of ``(after_chat, n_rows)`` in log order, covering
        exactly the rows :meth:`get_interactions_since` returns (adjacent
        batches with equal stamps share one run).  Recovery orders a mixed
        chat/plays replay suffix by them.
        """

    # --------------------------------------------------------------- summary
    @abc.abstractmethod
    def stats(self) -> dict[str, int]:
        """Coarse row counts, useful for monitoring and tests."""

    # ------------------------------------------------------ channel migration
    @abc.abstractmethod
    def delete_channel(self, video_id: str) -> bool:
        """Remove every stored row for one channel; returns whether it existed.

        The data-plane primitive behind channel migration: after a channel's
        bundle has been imported on its destination shard, the source drops
        the video, chat, interactions, red dots, highlight records and any
        session snapshot in **one transaction** on durable backends — a
        crash mid-delete must never leave a half-forgotten channel.
        Idempotent: deleting an unknown channel is a no-op returning False.
        """

    def export_channel(self, video_id: str) -> dict:
        """One channel's complete stored state as a strict-JSON bundle.

        The migration payload: everything :meth:`import_channel` needs to
        reproduce the channel byte-exactly on another shard — video
        metadata, the chat log in stored order, the interaction log in
        arrival order with its ``after_chat`` stamp runs, red dots
        (``None`` when never computed, preserving the "computed: empty" vs
        "never computed" distinction), every highlight record with its
        version and source, and the session snapshot when one is
        checkpointed.  Unknown video ids are errors.
        """
        from repro.platform import codecs

        video = self.get_video(video_id)
        return {
            "video": codecs.video_to_dict(video),
            "chat": [codecs.chat_message_to_dict(m) for m in self.get_chat(video_id)],
            "interactions": [
                codecs.interaction_to_dict(i) for i in self.get_interactions(video_id)
            ],
            "interaction_stamps": [
                list(run) for run in self.get_interaction_stamps_since(video_id, 0)
            ],
            "red_dots": (
                [codecs.red_dot_to_dict(d) for d in self.get_red_dots(video_id)]
                if self.has_red_dots(video_id)
                else None
            ),
            "highlights": [
                codecs.highlight_record_to_dict(r)
                for r in self.highlight_history(video_id)
            ],
            "snapshot": self.get_session_snapshot(video_id),
        }

    def import_channel(self, bundle: dict) -> str:
        """Recreate a channel from an :meth:`export_channel` bundle.

        Replays the bundle through the ordinary write primitives so every
        backend-specific invariant (dense chat sequence space, monotone
        highlight versions, snapshot JSON-safety) is re-established rather
        than trusted: highlight versions are checked against the exported
        ones and any drift is an error.  The destination must not already
        know the video — migrating onto rows left behind by a previous
        resident would silently interleave two histories.
        """
        from repro.platform import codecs

        video = codecs.video_from_dict(bundle["video"])
        video_id = video.video_id
        if self.has_video(video_id):
            raise ValidationError(
                f"cannot import channel {video_id!r}: this shard already has rows for it"
            )
        interactions = [
            codecs.interaction_from_dict(i) for i in bundle.get("interactions") or []
        ]
        # A bundle from a build without stamps imports as one unstamped run.
        stamps = bundle.get("interaction_stamps")
        if stamps is None:
            stamps = [(None, len(interactions))] if interactions else []
        if sum(n_rows for _after_chat, n_rows in stamps) != len(interactions):
            raise ValidationError(
                f"interaction stamps of channel {video_id!r} do not cover its "
                f"{len(interactions)} interaction rows"
            )
        self.put_video(video)
        messages = [codecs.chat_message_from_dict(m) for m in bundle.get("chat") or []]
        if messages:
            self.append_chat(video_id, messages)
        start = 0
        for after_chat, n_rows in stamps:
            self.log_interactions(
                video_id, interactions[start : start + n_rows], after_chat=after_chat
            )
            start += n_rows
        dots = bundle.get("red_dots")
        if dots is not None:
            self.put_red_dots(video_id, [codecs.red_dot_from_dict(d) for d in dots])
        for payload in bundle.get("highlights") or []:
            record = codecs.highlight_record_from_dict(payload)
            stored = self.put_highlight(video_id, record.highlight, source=record.source)
            if stored.version != record.version:
                raise ValidationError(
                    f"highlight version drift importing channel {video_id!r}: "
                    f"source version {record.version} stored as {stored.version}"
                )
        snapshot = bundle.get("snapshot")
        if snapshot is not None:
            self.put_session_snapshot(video_id, snapshot)
        return video_id

    # ------------------------------------------------------ shared behaviour
    def get_chat_log(self, video_id: str) -> VideoChatLog:
        """Return the video and its chat as a :class:`VideoChatLog`."""
        return VideoChatLog(video=self.get_video(video_id), messages=self.get_chat(video_id))

    def latest_highlights(self, video_id: str) -> list[Highlight]:
        """The most recent highlight per distinct (rounded) start position."""
        latest: dict[int, HighlightRecord] = {}
        for record in self.highlight_history(video_id):
            key = int(round(record.highlight.start / 30.0))
            existing = latest.get(key)
            if existing is None or record.version > existing.version:
                latest[key] = record
        return [latest[key].highlight for key in sorted(latest)]

    def close(self) -> None:
        """Release backend resources (connections, file handles); idempotent."""

    # -------------------------------------------------------------- internals
    def _require_known_video(self, video_id: str, action: str) -> None:
        """Raise the contract's unknown-video error for a write ``action``."""
        if not self.has_video(video_id):
            raise ValidationError(f"cannot {action} for unknown video {video_id!r}")
