"""Per-channel stream sessions and the multi-channel orchestrator.

A :class:`StreamSession` owns one live channel's engines — the incremental
Initializer and the play-accumulating Extractor — and keeps them in sync:
when the Initializer emits or retracts provisional dots, the Extractor's
tracked set is reconciled so viewer plays accumulate against the dots that
are actually on screen.

:class:`StreamOrchestrator` multiplexes many concurrent channels under a
bounded memory budget: at most ``max_sessions`` live sessions are kept, in
LRU order; opening one more finalizes and evicts the least recently active
channel (its final dots are handed to ``on_evict`` so a back end can persist
them).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from repro.core.config import LightorConfig
from repro.core.initializer.initializer import HighlightInitializer, InitializerModel
from repro.core.types import ChatMessage, Highlight, Interaction, RedDot
from repro.streaming.events import StreamEvent
from repro.streaming.extractor import StreamingExtractor
from repro.streaming.initializer import EmitPolicy, StreamingInitializer
from repro.utils.logging import get_logger
from repro.utils.validation import ValidationError, require_positive

__all__ = ["StreamSession", "StreamOrchestrator"]

_LOGGER = get_logger("streaming.session")


@dataclass
class StreamSession:
    """One live channel: chat in, provisional dots and refinements out."""

    video_id: str
    initializer: StreamingInitializer
    extractor: StreamingExtractor
    messages_ingested: int = 0
    interactions_ingested: int = 0
    events_produced: int = 0
    closed: bool = False

    def ingest_message(self, message: ChatMessage) -> list[StreamEvent]:
        """Feed one chat message; returns emit/retract events."""
        self._require_open()
        events = self.initializer.ingest(message)
        self.messages_ingested += 1
        if events:
            # The provisional top-k changed — point the extractor's play
            # accumulators at the dots now on screen.
            self.extractor.sync_dots(self.initializer.current_dots())
        self.events_produced += len(events)
        return events

    def ingest_messages(self, messages: Sequence[ChatMessage]) -> list[StreamEvent]:
        """Feed a timestamp-ordered chat batch; returns emit/retract events.

        Equivalent to feeding the messages through :meth:`ingest_message`
        one at a time except that the emit-policy checkpoint is evaluated
        once per batch instead of once per message (see
        :meth:`~repro.streaming.initializer.StreamingInitializer.ingest_batch`);
        the finalized dots and the extractor's play attribution are
        byte-identical either way.
        """
        self._require_open()
        events = self.initializer.ingest_batch(messages)
        self.messages_ingested += len(messages)
        if events:
            self.extractor.sync_dots(self.initializer.current_dots())
        self.events_produced += len(events)
        return events

    def ingest_interaction(self, interaction: Interaction) -> list[StreamEvent]:
        """Feed one viewer interaction; returns refinement events.

        A stale provisional set is refreshed first (emitting any resulting
        emit/retract events ahead of the refinements), so the play is
        attributed against the dots implied by *all* chat seen so far — see
        :meth:`ingest_interactions` for why.
        """
        self._require_open()
        events = self._refresh_dots()
        events.extend(self.extractor.ingest(interaction))
        self.interactions_ingested += 1
        self.events_produced += len(events)
        return events

    def ingest_interactions(self, interactions: Sequence[Interaction]) -> list[StreamEvent]:
        """Feed a batch of viewer interactions; returns refinement events.

        Like :meth:`ingest_interaction`, the provisional dots are refreshed
        before any play is attributed.  The refresh makes interaction
        handling independent of how chat was chunked: the tracked-dot set at
        every interaction is a pure function of the events ingested so far,
        which is what makes batched ingest byte-equivalent to per-event
        ingest all the way down to the persisted highlight records.
        """
        self._require_open()
        events = self._refresh_dots()
        events.extend(self.extractor.ingest_batch(interactions))
        self.interactions_ingested += len(interactions)
        self.events_produced += len(events)
        return events

    def _refresh_dots(self) -> list[StreamEvent]:
        """Bring the provisional dots current; sync the extractor if they moved."""
        events = self.initializer.refresh()
        if events:
            self.extractor.sync_dots(self.initializer.current_dots())
        return events

    def finalize(self, duration: float | None = None) -> list[RedDot]:
        """Close the stream: final batch-parity dots + last refinements."""
        if self.closed:
            return self.initializer.current_dots()
        dots = self.initializer.finalize(duration)
        self.events_produced += len(self.initializer.final_events)
        # The video length is only known for sure once the stream ends; hand
        # it to the extractor so dangling plays are clamped to it, exactly
        # like the batch path's interactions_to_plays(..., video_duration).
        self.extractor.video_duration = (
            duration if duration is not None else self.initializer.last_stream_time
        )
        self.extractor.sync_dots(dots)
        self.events_produced += len(self.extractor.flush())
        self.closed = True
        return dots

    # ------------------------------------------------------------- durability
    def snapshot(self) -> dict:
        """A JSON-safe dict of the whole session, round-trip exact.

        Bundles both engines' snapshots with the session counters.  The
        trained model and workflow config are shared serving state and are
        supplied again at :meth:`restore` (normally by
        :meth:`StreamOrchestrator.restore_session`).
        """
        return {
            "video_id": self.video_id,
            "messages_ingested": self.messages_ingested,
            "interactions_ingested": self.interactions_ingested,
            "events_produced": self.events_produced,
            "closed": self.closed,
            "initializer": self.initializer.snapshot(),
            "extractor": self.extractor.snapshot(),
        }

    @classmethod
    def restore(
        cls,
        payload: dict,
        *,
        model: InitializerModel,
        config: LightorConfig | None = None,
        feature_set=None,
    ) -> "StreamSession":
        """Rebuild a session from :meth:`snapshot` around shared serving state."""
        return cls(
            video_id=payload["video_id"],
            initializer=StreamingInitializer.restore(
                payload["initializer"],
                model=model,
                config=config,
                feature_set=feature_set,
            ),
            extractor=StreamingExtractor.restore(payload["extractor"], config=config),
            messages_ingested=payload["messages_ingested"],
            interactions_ingested=payload["interactions_ingested"],
            events_produced=payload["events_produced"],
            closed=payload["closed"],
        )

    def current_dots(self) -> list[RedDot]:
        """The dots currently on screen (refined positions when available)."""
        refined = self.extractor.tracked_dots()
        return refined if refined else self.initializer.current_dots()

    def refined_highlights(self) -> list[Highlight]:
        """Exact boundaries the extractor has produced so far."""
        return self.extractor.refined_highlights()

    def _require_open(self) -> None:
        if self.closed:
            raise ValidationError(
                f"stream session for {self.video_id!r} is already finalized"
            )


@dataclass
class StreamOrchestrator:
    """Routes live traffic for many channels into bounded per-channel state.

    Parameters
    ----------
    initializer:
        A *fitted* batch Initializer whose model every session shares (the
        model is read-only at serve time, so sharing is safe and keeps the
        per-channel footprint to window state only).
    config:
        Workflow configuration; defaults to the initializer's.
    policy:
        Emit/retract policy for every session.
    k:
        Provisional top-k per channel (defaults to ``config.top_k``).
    max_sessions:
        LRU bound on concurrently tracked channels.
    max_window_summaries:
        Optional per-channel window summary cap (see
        :class:`~repro.streaming.state.IncrementalWindowState`).
    on_evict:
        Callback ``(video_id, final_dots)`` invoked when a session is
        LRU-evicted or closed, so results can be persisted.
    on_evict_highlights:
        Callback ``(video_id, refined_highlights)`` invoked alongside
        ``on_evict`` when the finalized session produced exact boundaries —
        without it an LRU eviction would silently drop the extractor's
        refinement work.
    on_evict_snapshot:
        Callback ``(video_id, session)`` invoked on LRU eviction **before**
        the session is finalized, with the session still open.  A durable
        tier checkpoints the live state here, so an evicted channel — which
        is still live, eviction is a memory decision — can later be rebuilt
        via :meth:`restore_session` and continue where it left off.
    """

    initializer: HighlightInitializer
    config: LightorConfig | None = None
    policy: EmitPolicy = field(default_factory=EmitPolicy)
    k: int | None = None
    max_sessions: int = 64
    max_window_summaries: int | None = None
    min_plays_for_refinement: int = 10
    on_evict: Callable[[str, list[RedDot]], None] | None = None
    on_evict_highlights: Callable[[str, list[Highlight]], None] | None = None
    on_evict_snapshot: Callable[[str, StreamSession], None] | None = None
    _sessions: "OrderedDict[str, StreamSession]" = field(
        default_factory=OrderedDict, repr=False
    )
    sessions_opened: int = 0
    sessions_evicted: int = 0
    sessions_restored: int = 0

    def __post_init__(self) -> None:
        require_positive(self.max_sessions, "max_sessions")
        if self.initializer.model is None:
            raise ValidationError(
                "orchestrator needs a fitted initializer; call fit() first"
            )
        if self.config is None:
            self.config = self.initializer.config

    @property
    def model(self) -> InitializerModel:
        """The shared trained model."""
        return self.initializer.model

    # -------------------------------------------------------------- sessions
    def open_session(self, video_id: str) -> StreamSession:
        """Open (or touch) the live session for ``video_id``."""
        session = self._sessions.get(video_id)
        if session is not None:
            self._sessions.move_to_end(video_id)
            return session
        session = StreamSession(
            video_id=video_id,
            initializer=StreamingInitializer(
                model=self.initializer.model,
                config=self.config,
                feature_set=self.initializer.feature_set,
                k=self.k,
                policy=self.policy,
                video_id=video_id,
                max_window_summaries=self.max_window_summaries,
            ),
            extractor=StreamingExtractor(
                config=self.config,
                min_plays_for_refinement=self.min_plays_for_refinement,
            ),
        )
        self._sessions[video_id] = session
        self.sessions_opened += 1
        self._evict_over_budget()
        return session

    def restore_session(self, payload: dict) -> StreamSession:
        """Rebuild a checkpointed session around the shared trained model.

        The inverse of :meth:`StreamSession.snapshot` at the orchestrator
        level: engine geometry, policy and counters come from the payload;
        the model, config and feature set are this orchestrator's own (they
        are deterministic retraining products, not per-session state).  The
        restored session joins the LRU like a freshly opened one.  Restoring
        over an already-live session is an error — it would silently discard
        the newer in-memory state.
        """
        video_id = payload["video_id"]
        if video_id in self._sessions:
            raise ValidationError(
                f"video {video_id!r} already has a live session; refuse to "
                "overwrite it with a snapshot"
            )
        session = StreamSession.restore(
            payload,
            model=self.initializer.model,
            config=self.config,
            feature_set=self.initializer.feature_set,
        )
        self._sessions[video_id] = session
        self.sessions_restored += 1
        self._evict_over_budget()
        return session

    def session(self, video_id: str) -> StreamSession:
        """The session for ``video_id``, opened on first use."""
        return self.open_session(video_id)

    def has_session(self, video_id: str) -> bool:
        """Whether a live session is currently tracked for ``video_id``."""
        return video_id in self._sessions

    def open_video_ids(self) -> list[str]:
        """Ids of the currently tracked sessions, least recently used first."""
        return list(self._sessions)

    # ------------------------------------------------------------------ feed
    def ingest_message(self, video_id: str, message: ChatMessage) -> list[StreamEvent]:
        """Route one chat message to its channel's session."""
        return self.session(video_id).ingest_message(message)

    def ingest_messages(
        self, video_id: str, messages: Sequence[ChatMessage]
    ) -> list[StreamEvent]:
        """Route a timestamp-ordered chat batch to its channel's session."""
        return self.session(video_id).ingest_messages(messages)

    def ingest_interactions(
        self, video_id: str, interactions: Iterable[Interaction] | Sequence[Interaction]
    ) -> list[StreamEvent]:
        """Route a batch of viewer interactions to their channel's session."""
        return self.session(video_id).ingest_interactions(list(interactions))

    def close_session(
        self, video_id: str, duration: float | None = None
    ) -> list[RedDot]:
        """Finalize and drop a channel; returns its final red dots.

        The session is removed only after a successful finalize: a rejected
        ``duration`` (earlier than chat already observed) leaves the channel
        live, so the caller can retry with a valid closing point.
        """
        session = self._sessions.get(video_id)
        if session is None:
            raise ValidationError(f"no live session for video {video_id!r}")
        dots = session.finalize(duration)
        del self._sessions[video_id]
        self._notify_evicted(video_id, session, dots)
        return dots

    def drop_session(self, video_id: str) -> None:
        """Remove a session without finalizing it (migration detach).

        No eviction callbacks fire and no closing red dots are computed: the
        caller has already checkpointed the session's full state and will
        rebuild it elsewhere (the destination shard of a channel migration).
        Unknown sessions are errors — silently dropping nothing would mask a
        routing bug in the caller.
        """
        if video_id not in self._sessions:
            raise ValidationError(f"no live session for video {video_id!r}")
        del self._sessions[video_id]

    def current_dots(self, video_id: str) -> list[RedDot]:
        """The dots currently live for ``video_id`` (empty when untracked)."""
        session = self._sessions.get(video_id)
        return session.current_dots() if session is not None else []

    # ----------------------------------------------------------------- stats
    def stats(self) -> dict[str, int]:
        """Coarse gauges for monitoring and tests."""
        return {
            "sessions_live": len(self._sessions),
            "sessions_opened": self.sessions_opened,
            "sessions_evicted": self.sessions_evicted,
            "messages_ingested": sum(
                s.messages_ingested for s in self._sessions.values()
            ),
            "interactions_ingested": sum(
                s.interactions_ingested for s in self._sessions.values()
            ),
            "window_summaries": sum(
                s.initializer.window_summary_count for s in self._sessions.values()
            ),
        }

    # -------------------------------------------------------------- internals
    def _evict_over_budget(self) -> None:
        while len(self._sessions) > self.max_sessions:
            video_id, session = self._sessions.popitem(last=False)
            if self.on_evict_snapshot is not None:
                # Checkpoint the still-open state first: eviction reclaims
                # memory from a channel that is *still live*, and finalize
                # below is irreversible.
                self.on_evict_snapshot(video_id, session)
            dots = session.finalize()
            self.sessions_evicted += 1
            _LOGGER.info(
                "evicted LRU stream session %s (%d messages, %d dots)",
                video_id,
                session.messages_ingested,
                len(dots),
            )
            self._notify_evicted(video_id, session, dots)

    def _notify_evicted(
        self, video_id: str, session: StreamSession, dots: list[RedDot]
    ) -> None:
        """Hand a finalized session's results to the persistence callbacks."""
        if self.on_evict is not None:
            self.on_evict(video_id, dots)
        if self.on_evict_highlights is not None:
            highlights = session.refined_highlights()
            if highlights:
                self.on_evict_highlights(video_id, highlights)
