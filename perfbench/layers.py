"""The closed set of layers a traced run wraps, named after their modules.

Each entry is ``(class, methods, metric, hook)``.  The metric is the
per-layer time the span's self time adds to; hooks count work a span cannot
see (evaluations run, windows sealed, plays folded).  A method missing from
its class fails the traced run loudly instead of silently measuring less.
"""

from __future__ import annotations

from repro.core.extractor.extractor import HighlightExtractor
from repro.core.initializer.initializer import HighlightInitializer
from repro.platform.backends import InMemoryStore, SQLiteStore, StorageBackend
from repro.platform.client import LightorClient
from repro.platform.service import LightorWebService
from repro.platform.sharding import ShardedLightorService
from repro.streaming.extractor import StreamingExtractor
from repro.streaming.initializer import StreamingInitializer
from repro.streaming.state import IncrementalWindowState

WIRE = "wire.self_ms"

# The service calls the benchmark's clients make, on every front door.
SURFACE = (
    "start_live",
    "ingest_chat_batch",
    "ingest_plays_batch",
    "end_live",
    "request_red_dots",
    "log_interactions",
    "refine_video",
)
BACKEND_WRITES = ("append_chat", "log_interactions", "put_red_dots", "put_highlight")
BACKEND_READS = (
    "has_video",
    "has_red_dots",
    "get_red_dots",
    "get_interactions",
    "get_chat",
    "get_video",
    "has_chat",
)


def _evaluations(tracer, engine, args, result, before) -> None:
    """Provisional re-scores run by the call, and whether they changed dots."""
    ran = engine.evaluations_run - before
    if ran:
        tracer.count("initializer.rescore_count", ran)
        if result:
            tracer.count("initializer.rescore_useful", ran)


_evaluations.before = lambda engine: engine.evaluations_run


def _sealed(tracer, state, args, result, before) -> None:
    tracer.count("state.windows_sealed", len(result))


def _summaries_at_close(tracer, engine, args, result, before) -> None:
    tracer.count("initializer.summaries_at_close", engine.window_summary_count)


def _plays(tracer, extractor, args, result, before) -> None:
    tracer.count("extractor.plays", len(args[1]))


TARGETS = [
    (LightorClient, SURFACE, WIRE, None),
    (ShardedLightorService, SURFACE, "sharding.self_ms", None),
    (LightorWebService, SURFACE, "service.self_ms", None),
    (IncrementalWindowState, ("add_batch",), "state.fold_ms", _sealed),
    (IncrementalWindowState, ("scorable_summaries",), "state.scorable_ms", None),
    (StreamingInitializer, ("ingest_batch", "refresh"), "initializer.rescore_ms", _evaluations),
    (StreamingInitializer, ("finalize",), "initializer.finalize_ms", _summaries_at_close),
    (StreamingExtractor, ("ingest_batch",), "extractor.ms", _plays),
    (StreamingExtractor, ("sync_dots",), "extractor.ms", None),
    (InMemoryStore, BACKEND_WRITES, "backends.write_ms", None),
    (SQLiteStore, BACKEND_WRITES, "backends.write_ms", None),
    (InMemoryStore, ("put_session_snapshot",), "backends.snapshot_ms", None),
    (SQLiteStore, ("put_session_snapshot",), "backends.snapshot_ms", None),
    (InMemoryStore, BACKEND_READS, "backends.read_ms", None),
    (SQLiteStore, BACKEND_READS, "backends.read_ms", None),
    (StorageBackend, ("get_chat_log",), "backends.read_ms", None),
    (HighlightInitializer, ("propose",), "core_initializer.propose_ms", None),
    (HighlightExtractor, ("extract",), "core_extractor.extract_ms", None),
]

# Every layer time the traced run reports, in table order.
LAYER_TIMES = [
    WIRE,
    "sharding.self_ms",
    "service.self_ms",
    "state.fold_ms",
    "state.scorable_ms",
    "initializer.rescore_ms",
    "initializer.finalize_ms",
    "extractor.ms",
    "backends.write_ms",
    "backends.snapshot_ms",
    "backends.read_ms",
    "core_initializer.propose_ms",
    "core_extractor.extract_ms",
]


def share_name(time_metric: str) -> str:
    """``wire.self_ms`` -> ``wire.self_share``; ``extractor.ms`` -> ``extractor.share``."""
    return time_metric[: -len("ms")] + "share"
