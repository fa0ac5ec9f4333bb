"""Durable checkpoint/recovery for live stream sessions.

Everything a :class:`~repro.streaming.session.StreamSession` knows — window
state, play accumulators, emitted provisional dots — lives in process
memory; before this subsystem a shard crash lost hours of live state.  The
moving parts:

* the streaming classes serialize themselves round-trip exactly
  (``snapshot()`` / ``restore()`` on
  :class:`~repro.streaming.state.IncrementalWindowState`,
  :class:`~repro.streaming.initializer.StreamingInitializer`,
  :class:`~repro.streaming.extractor.StreamingExtractor` and
  :class:`~repro.streaming.session.StreamSession`, over the codecs in
  :mod:`repro.platform.codecs`);
* every :class:`~repro.platform.backends.base.StorageBackend` stores one
  checkpoint per live session (``put_session_snapshot`` /
  ``get_session_snapshots`` / ``delete_session_snapshot``), written in one
  transaction and deleted on clean close — the stored snapshots **are** the
  open-session registry;
* :class:`~repro.platform.service.LightorWebService` checkpoints on a
  configurable event cadence (``checkpoint_every``), at ``start_live``,
  when a session is LRU-evicted or detached for migration, and after an
  out-of-band interaction log on a live channel;
* every persisted play batch is stamped with ``after_chat`` — how many chat
  rows the channel had persisted when the batch was logged (see below);
* :func:`recover_live_sessions` rebuilds every open session from its latest
  snapshot plus the chat and interactions persisted since it.

Why play rows carry a chat stamp
--------------------------------

A checkpoint records how many chat rows and interaction rows the store held
when it was taken, and recovery replays the rows past those counts.  The
store orders rows only *within* each kind, yet play attribution depends on
the chat ingested before each play, so a suffix mixing chat and play
batches must be replayed in the order the original run executed it.  The
``after_chat`` stamp on each play batch (a committed chat count, written in
the same transaction as the rows) is that order — the log-sequence idea of
ARIES (Mohan et al., TODS 1992).  Recovery ingests, for each run of play
rows stamped ``s``, the chat up to row ``s`` and then the run, and finally
the remaining chat; the rebuilt session is byte-identical to one that never
crashed (the loadgen chaos mode ``repro load --kill-after N --recover`` and
``tests/test_recovery.py`` assert this end to end, including an enumerated
play-heavy kill-point matrix).

Unstamped play rows (written before the stamp existed, or imported from a
migration bundle without stamps) replay after all remaining chat.  That order is exact for
the rows older builds wrote: those builds forced a checkpoint at every
chat↔plays flip, so the suffix past their snapshots is homogeneous in kind
— and every recovery writes a fresh checkpoint, so new stamped rows never
follow unstamped ones in a suffix.

Crash-safety requires the chat to actually be in the store: live chat must
flow through ``ingest_chat_batch(..., persist=True)`` (interactions are
always persisted).  Chat ingested without ``persist`` is covered by
checkpoints taken after it but cannot be replayed past the last one.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.utils.logging import get_logger
from repro.utils.validation import ValidationError

__all__ = [
    "SNAPSHOT_VERSION",
    "RecoveredSession",
    "build_checkpoint",
    "check_snapshot_version",
    "recover_live_sessions",
    "recover_session",
]

_LOGGER = get_logger("platform.recovery")

SNAPSHOT_VERSION = 1


def build_checkpoint(session, *, chat_persisted: int, interactions_persisted: int) -> dict:
    """The strict-JSON checkpoint envelope for one live session.

    ``chat_persisted`` / ``interactions_persisted`` are the store's row
    counts for the video at snapshot time; recovery replays everything past
    them.  They must be read *after* the rows they count are committed —
    the service snapshots after persisting, so a crash between the two
    leaves the snapshot behind the store (replayable), never ahead of it
    (unrecoverable).
    """
    return {
        "version": SNAPSHOT_VERSION,
        "video_id": session.video_id,
        "chat_persisted": chat_persisted,
        "interactions_persisted": interactions_persisted,
        "session": session.snapshot(),
    }


@dataclass(frozen=True)
class RecoveredSession:
    """What :func:`recover_live_sessions` rebuilt for one channel."""

    video_id: str
    messages_restored: int
    interactions_restored: int
    chat_replayed: int
    plays_replayed: int
    provisional_dots: int

    @property
    def messages_ingested(self) -> int:
        """Chat messages in the rebuilt session (snapshot + replay)."""
        return self.messages_restored + self.chat_replayed

    @property
    def interactions_ingested(self) -> int:
        """Interactions in the rebuilt session (snapshot + replay)."""
        return self.interactions_restored + self.plays_replayed

    def describe(self) -> str:
        """One human-readable line for the CLI."""
        return (
            f"{self.video_id}: {self.messages_ingested} messages "
            f"({self.chat_replayed} replayed), {self.interactions_ingested} "
            f"interactions ({self.plays_replayed} replayed), "
            f"{self.provisional_dots} provisional dot(s)"
        )


def check_snapshot_version(video_id: str, payload: dict) -> None:
    """Reject snapshots this build cannot parse, before touching their body."""
    version = payload.get("version")
    if version != SNAPSHOT_VERSION:
        raise ValidationError(
            f"session snapshot for {video_id!r} has version {version!r}; "
            f"this build reads version {SNAPSHOT_VERSION}"
        )


def recover_session(service, video_id: str, payload: dict) -> RecoveredSession:
    """Rebuild one checkpointed session of ``service`` and replay its suffix.

    Restores the session around the service's trained model, then replays
    only the rows the store accumulated *after* the snapshot (an O(suffix)
    read — the full history stays on disk), interleaving chat and plays by
    the plays' ``after_chat`` stamps, so the rebuilt state is byte-identical
    to the uninterrupted run's at the same point.
    """
    check_snapshot_version(video_id, payload)
    store = service.store
    session_payload = payload["session"]
    session = service.streaming.restore_session(session_payload)
    chat_base = payload["chat_persisted"]
    plays_base = payload["interactions_persisted"]
    chat_suffix = store.get_chat_since(video_id, chat_base)
    play_suffix = store.get_interactions_since(video_id, plays_base)
    chat_done = play_done = 0
    for after_chat, n_rows in store.get_interaction_stamps_since(video_id, plays_base):
        # Unstamped (legacy) plays replay after all the remaining chat.
        upto = len(chat_suffix) if after_chat is None else after_chat - chat_base
        if upto > chat_done:
            session.ingest_messages(chat_suffix[chat_done:upto])
            chat_done = upto
        session.ingest_interactions(play_suffix[play_done : play_done + n_rows])
        play_done += n_rows
    if chat_done < len(chat_suffix):
        session.ingest_messages(chat_suffix[chat_done:])
    service._note_recovered(
        video_id, chat_base + len(chat_suffix), plays_base + len(play_suffix)
    )
    report = RecoveredSession(
        video_id=video_id,
        messages_restored=session_payload["messages_ingested"],
        interactions_restored=session_payload["interactions_ingested"],
        chat_replayed=len(chat_suffix),
        plays_replayed=len(play_suffix),
        provisional_dots=len(session.current_dots()),
    )
    _LOGGER.info("recovered live session %s", report.describe())
    return report


def recover_live_sessions(service) -> list[RecoveredSession]:
    """Rebuild every open session of ``service`` from its stored checkpoints.

    Iterates the stored snapshots in video-id order (so recovery is
    deterministic) and :func:`recover_session`-s each.  Channels that
    already have a live session are left untouched (their in-memory state is
    newer than any snapshot).  Snapshots of sessions that were already
    closed are deleted rather than resurrected.  Returns one
    :class:`RecoveredSession` per rebuilt channel.

    The orchestrator's LRU budget is raised for the duration of the loop so
    an undersized ``max_live_sessions`` cannot finalize the earliest
    recovered sessions mid-recovery; the configured budget is restored
    afterwards and normal eviction (which checkpoints first) resumes at the
    next session open.
    """
    store = service.store
    orchestrator = service.streaming
    snapshots = sorted(store.get_session_snapshots().items())
    recovered: list[RecoveredSession] = []
    configured_budget = orchestrator.max_sessions
    orchestrator.max_sessions = max(
        configured_budget, len(orchestrator.open_video_ids()) + len(snapshots)
    )
    try:
        for video_id, payload in snapshots:
            if orchestrator.has_session(video_id):
                continue
            check_snapshot_version(video_id, payload)
            if payload["session"]["closed"]:
                store.delete_session_snapshot(video_id)
                continue
            recovered.append(recover_session(service, video_id, payload))
    finally:
        orchestrator.max_sessions = configured_budget
    return recovered
