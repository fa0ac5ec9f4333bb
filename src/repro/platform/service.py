"""LIGHTOR back-end web service (Figure 5's "Web Service" box).

The service ties the platform substrate to the LIGHTOR core:

1. the front end (browser extension) opens a recorded video and asks for red
   dots by video id;
2. the service crawls the chat on demand, runs the Highlight Initializer and
   returns (and stores) the top-k red dots;
3. the front end logs viewer interactions back to the service;
4. when enough interactions have accumulated around a dot, the service runs
   one Highlight Extractor refinement round and updates the stored dots and
   highlight results.

For channels that are *still live* the service exposes a second ingest
surface backed by :mod:`repro.streaming`: chat messages and viewer
interactions are pushed as they happen, provisional red dots are served
mid-stream, and ending the live session persists the final (batch-parity)
dots in the store.

The live surface comes in two granularities: per event
(:meth:`~LightorWebService.ingest_live_chat` /
:meth:`~LightorWebService.ingest_live_interactions`) and batched
(:meth:`~LightorWebService.ingest_chat_batch` /
:meth:`~LightorWebService.ingest_plays_batch`) — one boundary crossing,
one storage transaction and one provisional re-score per batch.  Whatever
the chunking, the persisted state is byte-identical
(``tests/test_batch_ingest.py``); ``docs/performance.md`` covers what
batching buys and why.

With ``checkpoint_every`` set, live sessions are also *crash-safe*: the
service writes a durable session checkpoint on that event cadence and on
LRU eviction, stamps every persisted play batch with the channel's
persisted chat count (the stamp is what makes recovery byte-exact — see
:mod:`repro.platform.recovery`), and
:meth:`~LightorWebService.recover_live_sessions` rebuilds every open
session from its latest checkpoint plus the rows persisted since it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.core.config import LightorConfig
from repro.core.extractor.extractor import HighlightExtractor
from repro.core.extractor.plays import interactions_to_plays, plays_near_dot
from repro.core.initializer.initializer import HighlightInitializer
from repro.core.types import ChatMessage, Highlight, Interaction, RedDot, Video, VideoChatLog
from repro.platform.backends import StorageBackend
from repro.platform.crawler import ChatCrawler
from repro.streaming.events import StreamEvent
from repro.streaming.initializer import EmitPolicy
from repro.streaming.session import StreamOrchestrator
from repro.utils.logging import get_logger
from repro.utils.validation import ValidationError, require_positive

__all__ = ["LightorWebService"]

_LOGGER = get_logger("platform.service")


@dataclass
class LightorWebService:
    """Serves red dots, logs interactions and refines highlights.

    Parameters
    ----------
    store / crawler:
        The back-end store (any :class:`StorageBackend`) and chat crawler.
        The service keeps no video state of its own, so many workers can be
        stamped out over different backends — see
        :class:`~repro.platform.sharding.ShardedLightorService`.
    initializer:
        A *fitted* Highlight Initializer (train it on a labelled video before
        wiring it into the service).
    extractor:
        The Highlight Extractor used for refinement rounds.
    min_interactions_for_refinement:
        A refinement round runs only when at least this many interaction
        events have been logged near a dot since the last refinement.
    live_k / live_policy:
        Provisional top-k and emit/retract policy for live sessions (``None``
        uses the orchestrator defaults).
    checkpoint_every:
        Durable-checkpoint cadence for live sessions, in persisted events.
        ``None`` (default) disables checkpointing.  When set, a session is
        checkpointed at ``start_live``, after every ``checkpoint_every``
        persisted events, and on LRU eviction — see
        :mod:`repro.platform.recovery` for why each trigger exists and how
        the ``after_chat`` stamps on play rows order a mixed replay suffix.
    """

    store: StorageBackend
    crawler: ChatCrawler
    initializer: HighlightInitializer
    extractor: HighlightExtractor = field(default_factory=HighlightExtractor)
    config: LightorConfig = field(default_factory=LightorConfig)
    min_interactions_for_refinement: int = 20
    max_live_sessions: int = 64
    live_k: int | None = None
    live_policy: EmitPolicy | None = None
    checkpoint_every: int | None = None
    refinement_rounds_: dict[str, int] = field(default_factory=dict, repr=False)
    _orchestrator: StreamOrchestrator | None = field(default=None, repr=False)
    # Checkpoint bookkeeping per live channel: committed store row counts
    # (the chat count also stamps each persisted play batch) and events
    # persisted since the last snapshot.
    _persisted_chat: dict[str, int] = field(default_factory=dict, repr=False)
    _persisted_plays: dict[str, int] = field(default_factory=dict, repr=False)
    _events_since_checkpoint: dict[str, int] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        require_positive(self.min_interactions_for_refinement, "min_interactions_for_refinement")
        if self.checkpoint_every is not None:
            require_positive(self.checkpoint_every, "checkpoint_every")

    # -------------------------------------------------------------- red dots
    def request_red_dots(self, video_id: str, k: int | None = None) -> list[RedDot]:
        """Front-end request: return the red dots to render for a video.

        Chat is crawled on demand; computed dots are cached in the store and
        reused on subsequent requests (until refinement updates them).  A
        cache hit still honours ``k``: a *smaller* ``k`` than the cached set
        re-truncates it (greedy spaced selection is prefix-stable, so the
        truncation equals a fresh top-``k`` — the stored superset is left
        untouched for future requests); a *larger* ``k`` recomputes from the
        stored chat and, when the video can actually yield more dots,
        replaces the cached set (which resets any refinement-adjusted
        positions — refinement reruns as interactions accumulate).  When it
        cannot (sparse chat under-delivers against the spacing constraint),
        the cached — possibly refined — set is kept.
        """
        cached: list[RedDot] | None = None
        if self.store.has_red_dots(video_id):
            cached = self.store.get_red_dots(video_id)
            if not cached:
                # "Computed: nothing to show" (below-threshold video) holds
                # for every k; recomputing would just re-derive the empty set.
                return cached
            if k is None or k == len(cached):
                return cached
            if k < len(cached):
                return self._truncate_dots(cached, k)
            # k exceeds the cached set: fall through and recompute with the
            # requested k against the already-stored chat.
        if not self.store.has_chat(video_id):
            self.crawler.crawl_video(video_id)
        chat_log = self.store.get_chat_log(video_id)
        if not self.initializer.is_applicable(chat_log):
            if cached:
                # A larger-k fall-through on a video whose *stored chat* is
                # below the threshold (e.g. dots persisted by the live path,
                # which never gates on applicability): keep the cached set —
                # replacing real results with [] would destroy them for
                # every future request.
                return cached
            _LOGGER.info(
                "video %s below the chat-rate threshold (%.0f msgs/hour); serving no dots",
                video_id,
                chat_log.messages_per_hour,
            )
            self.store.put_red_dots(video_id, [])
            return []
        dots = self.initializer.propose(chat_log, k=k)
        if cached is not None and len(dots) <= len(cached):
            # The video cannot yield more dots than already cached (the
            # spacing constraint under-delivers on sparse chat): keep the
            # cached set — it is the same selection, possibly with
            # refinement-adjusted positions that a rewrite would erase.
            return cached
        self.store.put_red_dots(video_id, dots)
        return dots

    @staticmethod
    def _truncate_dots(dots: Sequence[RedDot], k: int) -> list[RedDot]:
        """The exact top-``k`` of a cached spaced selection.

        ``select_spaced_top_k`` accepts candidates in ``(-score, window
        start)`` order, and each acceptance depends only on the already
        accepted prefix — so the first ``k`` accepted dots of a larger
        selection *are* the ``k``-selection.  Re-ranking the cached dots by
        the same key and keeping the first ``k`` therefore reproduces a
        fresh ``k``-request without recomputation.
        """
        def rank(dot: RedDot) -> tuple[float, float]:
            start = dot.window[0] if dot.window is not None else dot.position
            return (-(dot.score or 0.0), start)

        best = sorted(dots, key=rank)[:k]
        return sorted(best, key=lambda dot: dot.position)

    # ---------------------------------------------------------- interactions
    def log_interactions(self, video_id: str, interactions: Sequence[Interaction]) -> int:
        """Front-end callback: persist viewer interactions for a video.

        Rows logged here bypass the live fold, so for a checkpointed channel
        the *durable* snapshot must immediately count them as covered —
        otherwise a crash before the next cadence checkpoint would make
        recovery replay into the session interactions it never ingested.  A
        live session gets a fresh checkpoint; an evicted-but-checkpointed
        one gets its snapshot's count patched (its session state is
        unchanged — it never saw these rows either).  Rows logged for a live
        channel carry its persisted chat count as their ``after_chat`` stamp,
        like the live plays around them.
        """
        if not self.store.has_video(video_id):
            raise ValidationError(f"interactions logged for unknown video {video_id!r}")
        live = self._orchestrator is not None and self._orchestrator.has_session(video_id)
        total = self.store.log_interactions(
            video_id,
            interactions,
            after_chat=self._persisted_chat_count(video_id) if live else None,
        )
        if self.checkpointing:
            self._persisted_plays[video_id] = total
            if live:
                self.checkpoint_live_session(video_id)
            else:
                from repro.platform.recovery import SNAPSHOT_VERSION

                payload = self.store.get_session_snapshot(video_id)
                if payload is not None and payload.get("version") == SNAPSHOT_VERSION:
                    payload["interactions_persisted"] = total
                    self.store.put_session_snapshot(video_id, payload)
        return total

    # ------------------------------------------------------------ refinement
    def refine_video(self, video_id: str) -> int:
        """Run one Extractor refinement pass over the video's logged data.

        For every stored red dot with enough nearby plays, the Extractor's
        filtering → classification → aggregation dataflow runs on the logged
        interactions; refined boundaries are stored and the dot is moved to
        the refined start (or backwards for Type I dots).  Returns the number
        of dots that were updated.
        """
        dots = self.store.get_red_dots(video_id)
        if not dots:
            return 0
        video = self.store.get_video(video_id)
        logged = self.store.get_interactions(video_id)
        plays = interactions_to_plays(logged, video_duration=video.duration)

        updated = 0
        new_dots: list[RedDot] = []
        for dot in dots:
            local = plays_near_dot(plays, dot, radius=self.config.play_radius)
            if len(local) * 2 < self.min_interactions_for_refinement:
                new_dots.append(dot)
                continue

            def replay_source(current_dot: RedDot, round_index: int) -> list:
                # Refinement over logged data is a single-round extraction:
                # later rounds re-use the same logged plays.
                return plays_near_dot(plays, current_dot, radius=self.config.play_radius)

            result = self.extractor.extract(dot, replay_source, video_duration=video.duration)
            if result.highlight is not None:
                self.store.put_highlight(video_id, result.highlight)
                new_dots.append(dot.moved_to(result.highlight.start))
                updated += 1
            else:
                new_dots.append(result.dot)
        self.store.put_red_dots(video_id, new_dots)
        self.refinement_rounds_[video_id] = self.refinement_rounds_.get(video_id, 0) + 1
        return updated

    # ------------------------------------------------------------ live ingest
    @property
    def streaming(self) -> StreamOrchestrator:
        """The live-channel orchestrator (created on first live request)."""
        if self._orchestrator is None:
            kwargs = {}
            if self.live_policy is not None:
                kwargs["policy"] = self.live_policy
            self._orchestrator = StreamOrchestrator(
                initializer=self.initializer,
                config=self.config,
                k=self.live_k,
                max_sessions=self.max_live_sessions,
                on_evict=self._persist_live_result,
                on_evict_highlights=self._persist_live_highlights,
                on_evict_snapshot=(
                    self._checkpoint_on_evict if self.checkpointing else None
                ),
                **kwargs,
            )
        return self._orchestrator

    @property
    def checkpointing(self) -> bool:
        """Whether durable session checkpointing is enabled."""
        return self.checkpoint_every is not None

    def start_live(self, video: Video) -> None:
        """Register a channel that is currently live and open its session.

        The video metadata (its id, and the duration so far if known) is
        stored so interactions and final results have somewhere to land.
        With checkpointing enabled an initial snapshot is written
        immediately: the stored snapshots are the open-session registry, so
        a channel that crashes before its first cadence checkpoint is still
        rebuilt by recovery instead of silently lost.

        A channel that was LRU-evicted while still live left a checkpoint
        behind; going live again *resumes from it* rather than opening an
        empty session — which would both lose the evicted state in memory
        and overwrite its only durable copy with an empty snapshot.
        """
        self.store.put_video(video)
        video_id = video.video_id
        if self.checkpointing and not self.streaming.has_session(video_id):
            payload = self.store.get_session_snapshot(video_id)
            if payload is not None:
                from repro.platform.recovery import (
                    check_snapshot_version,
                    recover_session,
                )

                check_snapshot_version(video_id, payload)
                if not payload["session"]["closed"]:
                    recover_session(self, video_id, payload)
                    return
        self.streaming.open_session(video_id)
        if self.checkpointing:
            self.checkpoint_live_session(video_id)

    def ingest_live_chat(
        self, video_id: str, messages: Sequence[ChatMessage]
    ) -> list[StreamEvent]:
        """Push chat messages from a live channel; returns emit/retract events.

        The channel must have been opened with :meth:`start_live` and still
        be live.  Rejecting unknown channels here (instead of silently
        opening a fresh session, as the low-level orchestrator would) keeps
        an LRU-evicted or already-ended channel from being reborn with only
        the tail of its chat — whose finalize would then overwrite the
        correct stored dots.
        """
        session = self._require_live(video_id)
        events: list[StreamEvent] = []
        for message in messages:
            events.extend(session.ingest_message(message))
        return events

    def ingest_chat_batch(
        self, video_id: str, messages: Sequence[ChatMessage], persist: bool = False
    ) -> list[StreamEvent]:
        """Push a timestamp-ordered chat batch for a live channel.

        The batched twin of :meth:`ingest_live_chat`: the whole batch crosses
        the service boundary once and folds into the window state in one
        NumPy pass, with the emit-policy checkpoint evaluated once at the
        batch boundary instead of once per message.  The final (and
        persisted) red dots are byte-identical to per-message ingest — only
        the provisional re-score cadence coarsens, which is where batched
        ingest gets its throughput (see ``docs/performance.md``).

        With ``persist=True`` the batch is also appended to the store's chat
        log (one transaction via
        :meth:`~repro.platform.backends.base.StorageBackend.append_chat`),
        so a post-stream batch pass can re-read the full live chat — and so
        crash recovery can replay it (checkpointed sessions only recover
        chat that was persisted; see :mod:`repro.platform.recovery`).
        Requesting persistence for a channel whose video metadata was never
        stored is an error, exactly like :meth:`log_interactions` — silently
        skipping the append would leave the "full live chat" promise quietly
        broken.
        """
        session = self._require_live(video_id)
        if persist and not self.store.has_video(video_id):
            raise ValidationError(
                f"cannot persist chat for unknown video {video_id!r}; "
                "store its metadata first (start_live does)"
            )
        # Fold first, persist second: ingest validates batch ordering, and a
        # rejected batch must not leave rows in the store that the stream
        # never saw (that would break both the sorted-log invariant and the
        # byte-equivalence of persisted state with per-event ingest).
        events = session.ingest_messages(list(messages))
        if persist:
            self._persisted_chat[video_id] = self.store.append_chat(video_id, messages)
            self._after_persisted_ingest(video_id, len(messages))
        return events

    def ingest_live_interactions(
        self, video_id: str, interactions: Sequence[Interaction]
    ) -> list[StreamEvent]:
        """Push viewer interactions from a live channel; returns refinements.

        Interactions are also persisted in the store so a post-stream batch
        refinement pass (:meth:`refine_video`) can reuse them.  Alias of
        :meth:`ingest_plays_batch` (one event is just a batch of one).
        """
        return self.ingest_plays_batch(video_id, interactions)

    def ingest_plays_batch(
        self, video_id: str, interactions: Sequence[Interaction]
    ) -> list[StreamEvent]:
        """Push a batch of viewer interactions for a live channel.

        The whole batch is persisted in **one** store append (a single
        transaction on durable backends) and folded into the streaming
        extractor in arrival order.  Before any play is attributed, a stale
        provisional dot set is refreshed — any emit/retract events that
        forces are returned ahead of the refinement events — so play
        attribution depends only on the events ingested so far, never on how
        chat was chunked into calls (the batch-equivalence suite holds the
        service to this).

        Fold first, persist second — the same invariant as
        :meth:`ingest_chat_batch`: the session validates the batch by
        ingesting it, and a rejected batch must not leave interaction rows
        in the store that the stream never saw.  The persisted rows are
        stamped with the channel's persisted chat count, which is what lets
        recovery replay a mixed chat/plays suffix in its original order.
        """
        session = self._require_live(video_id)
        persist = self.store.has_video(video_id)
        events = session.ingest_interactions(list(interactions))
        if persist:
            self._persisted_plays[video_id] = self.store.log_interactions(
                video_id, interactions, after_chat=self._persisted_chat_count(video_id)
            )
            self._after_persisted_ingest(video_id, len(interactions))
        return events

    def live_red_dots(self, video_id: str) -> list[RedDot]:
        """The red dots to render right now for a channel.

        Falls back to the stored dots when the channel is no longer live
        (ended or LRU-evicted) — the front end keeps rendering seamlessly.
        """
        if self.streaming.has_session(video_id):
            return self.streaming.current_dots(video_id)
        return self.store.get_red_dots(video_id)

    def end_live(self, video_id: str, duration: float | None = None) -> list[RedDot]:
        """Close a live channel: final batch-parity dots, persisted.

        Persistence happens through the orchestrator's eviction callback, so
        an LRU-evicted channel and an explicitly ended one land in the store
        the same way — which also makes ``end_live`` idempotent: ending a
        channel that was already closed or evicted returns the dots
        persisted at that time.

        Ending a channel is the clean close: any session checkpoint is
        deleted (there is nothing left to recover), including the lingering
        checkpoint of an LRU-evicted channel that is only now truly over.
        """
        if not self.streaming.has_session(video_id):
            if self.store.has_video(video_id):
                self._forget_checkpoint(video_id)
                return self.store.get_red_dots(video_id)
            raise ValidationError(f"no live session for video {video_id!r}")
        dots = self.streaming.close_session(video_id, duration)
        self._forget_checkpoint(video_id)
        return dots

    def shutdown(self) -> None:
        """Finalize any open live sessions (persisting results), close the store.

        A graceful shutdown routes every open session through
        :meth:`end_live`, so final dots persist through the usual eviction
        callbacks **and** the session checkpoints are deleted — after a
        clean shutdown there is nothing for recovery to rebuild (a killed
        process, by contrast, leaves its checkpoints behind).

        The open-id list is snapshotted up front (``end_live`` mutates the
        orchestrator's session table as it goes) and the store is closed in a
        ``finally``: one session whose finalization raises must not leak the
        backend's connection, nor stop the remaining sessions from being
        finalized — they are all ended best-effort and the first error is
        re-raised after the store is closed.
        """
        first_error: BaseException | None = None
        try:
            if self._orchestrator is not None:
                for video_id in list(self._orchestrator.open_video_ids()):
                    try:
                        self.end_live(video_id)
                    except BaseException as error:  # noqa: BLE001 - re-raised below
                        if first_error is None:
                            first_error = error
        finally:
            self.store.close()
        if first_error is not None:
            raise first_error

    def suspend(self) -> int:
        """Checkpoint every open live session, then release the store handle.

        The graceful-*drain* counterpart of :meth:`shutdown`: nothing is
        finalized and no checkpoint is deleted, so on a durable backend the
        whole deployment can be rebuilt byte-exactly with
        :meth:`recover_live_sessions` (or ``repro recover``) — exactly what a
        draining network gateway wants on SIGTERM.  Sessions whose video
        metadata was never stored cannot be checkpointed and are skipped
        (there is nowhere durable to put them).  Returns the number of
        sessions checkpointed; the store handle is released even when a
        checkpoint write raises (first error re-raised, like
        :meth:`shutdown`).
        """
        first_error: BaseException | None = None
        checkpointed = 0
        try:
            if self._orchestrator is not None:
                for video_id in list(self._orchestrator.open_video_ids()):
                    if not self.store.has_video(video_id):
                        _LOGGER.info(
                            "live session %s has no stored video metadata; "
                            "suspend cannot checkpoint it",
                            video_id,
                        )
                        continue
                    try:
                        self._write_checkpoint(
                            video_id, self._orchestrator.session(video_id)
                        )
                        checkpointed += 1
                    except BaseException as error:  # noqa: BLE001 - re-raised below
                        if first_error is None:
                            first_error = error
        finally:
            self.store.close()
        if first_error is not None:
            raise first_error
        return checkpointed

    # ---------------------------------------------------- checkpoint/recovery
    def checkpoint_live_session(self, video_id: str) -> dict:
        """Write a durable checkpoint of a live session right now.

        The snapshot bundles the session state with the store row counts it
        covers, committed in one transaction.  Returns the stored payload.
        """
        if not self.streaming.has_session(video_id):
            raise ValidationError(f"no live session for video {video_id!r}")
        payload = self._write_checkpoint(video_id, self.streaming.session(video_id))
        self._events_since_checkpoint[video_id] = 0
        return payload

    def detach_channel(self, video_id: str) -> bool:
        """Suspend one channel's live session for migration off this shard.

        The per-channel analogue of :meth:`suspend`: the session's complete
        in-memory state is written as a durable snapshot — migration always
        checkpoints, whatever the configured cadence — then the session is
        dropped *without* finalization, so no eviction callback fires and the
        stored red dots are not overwritten with a premature closing result.
        Returns whether a live session was detached (``False`` when the
        channel is closed, evicted, or was never live here); in either case
        the stored rows stay put for :meth:`StorageBackend.export_channel`
        to bundle, the fresh snapshot riding along when one was written.
        """
        if self._orchestrator is None or not self._orchestrator.has_session(video_id):
            return False
        if not self.store.has_video(video_id):
            raise ValidationError(
                f"live session {video_id!r} has no stored video metadata; "
                "it cannot be checkpointed for migration"
            )
        self._write_checkpoint(video_id, self._orchestrator.session(video_id))
        self._orchestrator.drop_session(video_id)
        self._drop_checkpoint_state(video_id)
        return True

    def attach_channel(self, video_id: str) -> bool:
        """Resume a migrated-in channel's live session from its snapshot.

        Runs exactly the recovery path — snapshot restore plus replay of any
        chat/interaction rows persisted after it (an empty suffix when the
        source detached cleanly).  Only call this for channels the source
        reported live: a channel that was merely *checkpointed-then-evicted*
        keeps its imported snapshot for a later ``start_live`` resume but
        must not be resurrected into memory by the move itself.  Returns
        whether a session was opened; a missing or closed snapshot is a
        no-op.  On a non-checkpointing tier the snapshot was pure transport,
        so it is deleted once consumed — leaving the destination's stored
        state byte-identical to a channel that was never moved.
        """
        from repro.platform.recovery import check_snapshot_version, recover_session

        payload = self.store.get_session_snapshot(video_id)
        if payload is None:
            return False
        check_snapshot_version(video_id, payload)
        if payload["session"]["closed"]:
            return False
        recover_session(self, video_id, payload)
        if not self.checkpointing:
            self.store.delete_session_snapshot(video_id)
        return True

    def recover_live_sessions(self) -> list:
        """Rebuild every open session from its latest durable checkpoint.

        Call this on a freshly constructed service over a store that a
        crashed (or killed) process left behind: each stored snapshot is
        restored around this service's trained model and the chat and
        interactions persisted after the snapshot are replayed into it.
        Returns the :class:`~repro.platform.recovery.RecoveredSession`
        reports.  See :mod:`repro.platform.recovery` for the guarantees.
        """
        from repro.platform import recovery

        return recovery.recover_live_sessions(self)

    def _write_checkpoint(self, video_id: str, session) -> dict:
        """Build and durably store the checkpoint envelope for ``session``."""
        from repro.platform.recovery import build_checkpoint

        payload = build_checkpoint(
            session,
            chat_persisted=self._persisted_chat_count(video_id),
            interactions_persisted=self._persisted_count(
                video_id, self._persisted_plays, self.store.count_interactions
            ),
        )
        self.store.put_session_snapshot(video_id, payload)
        return payload

    def _persisted_count(self, video_id: str, cache: dict[str, int], counter) -> int:
        """Store row count for a video, tracked incrementally once known."""
        count = cache.get(video_id)
        if count is None:
            count = cache[video_id] = counter(video_id)
        return count

    def _persisted_chat_count(self, video_id: str) -> int:
        """Committed chat rows of a video: checkpoint counts and play stamps."""
        return self._persisted_count(video_id, self._persisted_chat, self.store.count_chat)

    def _after_persisted_ingest(self, video_id: str, n_events: int) -> None:
        """Cadence bookkeeping after a persisted batch folded successfully."""
        if not self.checkpointing:
            return
        count = self._events_since_checkpoint.get(video_id, 0) + n_events
        self._events_since_checkpoint[video_id] = count
        if count >= self.checkpoint_every:
            self.checkpoint_live_session(video_id)

    def _checkpoint_on_evict(self, video_id: str, session) -> None:
        """Orchestrator eviction hook: snapshot the still-open session state.

        LRU eviction reclaims memory from a channel that is still live; the
        checkpoint lets ``recover_live_sessions`` (or ``repro recover``)
        continue it later instead of losing everything past the final dots.
        """
        if not self.store.has_video(video_id):
            return
        self._write_checkpoint(video_id, session)
        self._drop_checkpoint_state(video_id)

    def _note_recovered(self, video_id: str, chat_rows: int, interaction_rows: int) -> None:
        """Post-recovery bookkeeping: counts are current; write a fresh snapshot."""
        self._persisted_chat[video_id] = chat_rows
        self._persisted_plays[video_id] = interaction_rows
        self._events_since_checkpoint[video_id] = 0
        if self.checkpointing:
            self.checkpoint_live_session(video_id)

    def _forget_checkpoint(self, video_id: str) -> None:
        """Clean close: delete the stored snapshot and the local bookkeeping."""
        self.store.delete_session_snapshot(video_id)
        self._drop_checkpoint_state(video_id)

    def _drop_checkpoint_state(self, video_id: str) -> None:
        self._persisted_chat.pop(video_id, None)
        self._persisted_plays.pop(video_id, None)
        self._events_since_checkpoint.pop(video_id, None)

    def _require_live(self, video_id: str):
        if not self.streaming.has_session(video_id):
            raise ValidationError(
                f"video {video_id!r} has no live session; call start_live first"
            )
        return self.streaming.session(video_id)

    def _persist_live_result(self, video_id: str, dots: list[RedDot]) -> None:
        if self.store.has_video(video_id):
            self.store.put_red_dots(video_id, dots)
        else:
            _LOGGER.info(
                "live session %s ended with %d dots but no stored video metadata",
                video_id,
                len(dots),
            )

    def _persist_live_highlights(self, video_id: str, highlights: list[Highlight]) -> None:
        if not self.store.has_video(video_id):
            _LOGGER.info(
                "live session %s refined %d highlights but no stored video metadata",
                video_id,
                len(highlights),
            )
            return
        for highlight in highlights:
            self.store.put_highlight(video_id, highlight, source="streaming")
