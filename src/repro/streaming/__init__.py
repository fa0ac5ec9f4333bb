"""Streaming highlight detection: the LIGHTOR workflow over live channels.

The batch pipeline answers "where are the highlights in this *recorded*
video?".  This package answers the deployment question — "where are the
highlights in the stream that is running *right now*?" — with three layers:

1. :mod:`initializer <repro.streaming.initializer>` — an incremental
   prediction + adjustment engine that folds chat messages in one at a time
   (``ingest``) or as a batch in one pass (``ingest_batch``) and
   maintains a provisional top-k of red dots under an emit/retract policy.
   Finalizing a stream reproduces the batch
   ``HighlightInitializer.propose`` output exactly regardless of how the
   chat was chunked (the parity and batch-equivalence suites pin this
   down).
2. :mod:`extractor <repro.streaming.extractor>` — folds live viewer
   interactions into bounded per-dot play buffers and runs a refinement
   round whenever a dot has gathered enough evidence.
3. :mod:`session <repro.streaming.session>` — per-channel sessions and an
   LRU-bounded orchestrator multiplexing many concurrent channels.

Every stateful class in the stack serializes itself round-trip exactly
(``snapshot()`` / ``restore()``), which is what makes live sessions
crash-safe at the platform tier — see :mod:`repro.platform.recovery`.

Typical usage::

    from repro.streaming import StreamOrchestrator

    orchestrator = StreamOrchestrator(initializer=fitted_initializer)
    for message in live_chat:                      # any number of channels
        events = orchestrator.ingest_message(channel_id, message)
        for event in events:
            render(event)                          # DotEmitted / DotRetracted
    final_dots = orchestrator.close_session(channel_id, duration)
"""

from repro.streaming.events import (
    DotEmitted,
    DotRetracted,
    HighlightRefined,
    StreamEvent,
)
from repro.streaming.extractor import DotAccumulator, StreamingExtractor
from repro.streaming.initializer import EmitPolicy, StreamingInitializer
from repro.streaming.session import StreamOrchestrator, StreamSession
from repro.streaming.state import IncrementalWindowState, WindowSummary

__all__ = [
    "DotAccumulator",
    "DotEmitted",
    "DotRetracted",
    "EmitPolicy",
    "HighlightRefined",
    "IncrementalWindowState",
    "StreamEvent",
    "StreamOrchestrator",
    "StreamSession",
    "StreamingExtractor",
    "StreamingInitializer",
    "WindowSummary",
]
