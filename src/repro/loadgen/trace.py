"""Versioned trace record/replay for load runs.

A *trace* captures everything a loadgen run drives — every channel plan,
every ingest batch in its exact global order, every event inside each
batch — plus the end-state fingerprints the recording run produced.  Since
the whole stack is deterministic, replaying the recorded batch stream
through **any** transport (inproc/http/cluster) and **any** wire codec must
land byte-identical fingerprints; a replay that diverges from its own
recording is a regression, full stop.  That makes recorded traces the
natural substrate for regression corpora: ``tests/traces/`` checks in tiny
recordings whose golden fingerprints every future build must reproduce.

File layout (all integers big-endian)::

    offset  size  field
    0       4     magic  b"LTRC"
    4       1     trace version (1)
    5       ...   records, each: u32 frame length + one binary wire frame

Each record is a :func:`repro.platform.wire.encode_frame` blob (so traces
inherit the wire codec's CRC check, string interning, columnar batches and
bounded decompression) decoding to a dict tagged by ``"record"``:

* ``header`` — the :class:`~repro.loadgen.workload.WorkloadSpec` fields and
  the batch/event totals (used to cross-check the body);
* ``channel`` — one per channel plan: the synthetic
  :class:`~repro.core.types.Video`, start offset, duration and viewer
  count (event streams are *not* duplicated here — they are reconstructed
  from the batches, whose per-kind order is exactly the plan order);
* ``batches`` — chunks of the globally ordered ingest batches, events in
  their codec dict forms (:mod:`repro.platform.codecs`);
* ``fingerprints`` — optional trailer: the per-channel end-state
  fingerprints of the recording run plus how it was driven.

Versioning rule (same as ``docs/wire_format.md``): a reader rejects any
magic, trace version or record kind it does not know with a typed
:class:`TraceFormatError`.  Compatible extensions must use a new record
kind (old readers then fail loudly instead of silently dropping data — a
trace is a correctness oracle, not telemetry); incompatible layout changes
must bump ``TRACE_VERSION`` **and** regenerate ``tests/traces/`` via
``tools/make_trace_corpus.py`` (the golden corpus test fails until both
happen).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from pathlib import Path

from repro.loadgen.workload import ChannelPlan, LoadWorkload, WorkBatch, WorkloadSpec
from repro.platform import codecs, wire
from repro.platform.tier import DEFAULT_SEED, TierSpec
from repro.utils.validation import ValidationError

__all__ = [
    "TRACE_MAGIC",
    "TRACE_VERSION",
    "LoadTrace",
    "ReplayReport",
    "ReplayWorkload",
    "TraceFormatError",
    "read_trace",
    "replay_trace",
    "write_trace",
]

TRACE_MAGIC = b"LTRC"
TRACE_VERSION = 1

# Batches per "batches" record: large enough that the string table and
# columnar encoding amortize, small enough that one frame stays far under
# the read cap even at soak batch sizes.
_BATCHES_PER_FRAME = 512

# Decoded-entity cap per frame, mirroring the gateway's body cap: a trace
# frame is the same kind of payload a wire request is.
_MAX_FRAME_BYTES = 64 * 1024 * 1024

_U32 = struct.Struct("!I")

_SPEC_FIELDS = (
    "channels",
    "viewers",
    "duration",
    "batch_size",
    "zipf_exponent",
    "seed",
    "game",
    "stagger",
    "stretch",
)


class TraceFormatError(ValidationError):
    """A trace file this reader must refuse (unknown, corrupt or truncated)."""


class ReplayWorkload(LoadWorkload):
    """A workload whose batch stream is a recording, not a synthesis.

    The channel plans are *reconstructed* from the recorded batches (the
    per-kind event order inside a channel's batch sequence **is** the plan
    order — ``tests/test_loadgen.py`` pins that invariant), so the driver
    sees a fully ordinary workload: plans for open/close lifecycle, batches
    for traffic.  What it can never do is re-chunk: the batch boundaries
    are part of what the trace promises to replay byte-exactly, so
    :meth:`rebatched` is refused.
    """

    def __init__(
        self,
        spec: WorkloadSpec,
        plans: list[ChannelPlan],
        batches: list[WorkBatch],
    ) -> None:
        super().__init__(spec=spec, plans=plans)
        self._recorded = list(batches)

    def batches(self) -> list[WorkBatch]:
        """The recorded ingest calls, verbatim."""
        return list(self._recorded)

    def rebatched(self, batch_size: int) -> "LoadWorkload":
        raise ValidationError(
            "a replayed trace cannot be re-chunked: its batch boundaries are "
            "part of the recording (rebuild from the spec for a fresh workload)"
        )


@dataclass(frozen=True)
class LoadTrace:
    """A fully decoded trace file.

    ``fingerprints`` is the recording run's per-channel end state (empty
    when the trace was written without a report); ``transport`` /
    ``wire_codec`` / ``shards`` describe how the recording run was driven —
    informational only, since a replay must match on *every* transport and
    codec.
    """

    spec: WorkloadSpec
    plans: tuple[ChannelPlan, ...]
    batches: tuple[WorkBatch, ...]
    fingerprints: dict[str, str] = field(default_factory=dict)
    transport: str = "inproc"
    wire_codec: str = "json"
    shards: int = 1

    @property
    def total_events(self) -> int:
        """Events across every recorded batch."""
        return sum(len(batch.events) for batch in self.batches)

    def workload(self) -> ReplayWorkload:
        """The trace as a drivable workload (fresh plan/batch lists)."""
        return ReplayWorkload(self.spec, list(self.plans), list(self.batches))


@dataclass(frozen=True)
class ReplayReport:
    """Outcome of replaying a trace against its recorded fingerprints.

    ``mismatches`` lists channels whose replayed end state differed from
    the recording (byte inequality of the canonical-JSON fingerprints);
    ``missing`` lists recorded channels the replay never closed.  Both must
    be empty — the whole point of a trace is that they are.
    """

    report: object
    mismatches: list[str] = field(default_factory=list)
    missing: list[str] = field(default_factory=list)
    checked: int = 0

    @property
    def ok(self) -> bool:
        """Whether the replay reproduced the recording byte-for-byte."""
        return not self.mismatches and not self.missing

    def describe(self) -> str:
        """Multi-line human-readable summary for the CLI."""
        lines = [self.report.describe()]
        if self.ok:
            lines.append(
                f"  replay fingerprints: {self.checked} channel(s) "
                "byte-identical to the recording"
            )
        else:
            broken = self.mismatches + [f"{vid} (never closed)" for vid in self.missing]
            lines.append(
                f"  REPLAY DIVERGENCE on {len(broken)} channel(s): " + ", ".join(broken)
            )
        return "\n".join(lines)


# --------------------------------------------------------------------- writing
def _batch_to_dict(batch: WorkBatch) -> dict:
    if batch.kind == "chat":
        events = [codecs.chat_message_to_dict(event) for event in batch.events]
    elif batch.kind == "plays":
        events = [codecs.interaction_to_dict(event) for event in batch.events]
    else:  # pragma: no cover - workload only emits the two kinds
        raise ValidationError(f"unknown batch kind {batch.kind!r}")
    return {
        "kind": batch.kind,
        "video_id": batch.video_id,
        "arrival": batch.arrival,
        "sequence": batch.sequence,
        "events": events,
    }


def _frame(payload: dict) -> bytes:
    blob = wire.encode_frame(payload)
    return _U32.pack(len(blob)) + blob


def write_trace(
    path,
    workload: LoadWorkload,
    *,
    fingerprints: dict[str, str] | None = None,
    transport: str = "inproc",
    wire_codec: str = "json",
    shards: int = 1,
) -> int:
    """Record ``workload`` (and optionally its run's fingerprints) to ``path``.

    Returns the number of bytes written.  Pass the driving run's
    ``fingerprints`` (``{video_id: fingerprint}`` — e.g. from
    :attr:`LoadReport.outcomes <repro.loadgen.driver.LoadReport>`) to arm
    the replay gate; a trace written without them can still be replayed,
    but only against a sequential oracle.
    """
    batches = workload.batches()
    spec = workload.spec
    chunks: list[bytes] = [TRACE_MAGIC + bytes([TRACE_VERSION])]
    chunks.append(
        _frame(
            {
                "record": "header",
                "trace_version": TRACE_VERSION,
                "spec": {name: getattr(spec, name) for name in _SPEC_FIELDS},
                "channels": len(workload.plans),
                "total_batches": len(batches),
                "total_events": sum(len(batch.events) for batch in batches),
            }
        )
    )
    for plan in workload.plans:
        chunks.append(
            _frame(
                {
                    "record": "channel",
                    "video": codecs.video_to_dict(plan.video),
                    "start_offset": plan.start_offset,
                    "duration": plan.duration,
                    "viewers": plan.viewers,
                }
            )
        )
    for start in range(0, len(batches), _BATCHES_PER_FRAME):
        chunk = batches[start : start + _BATCHES_PER_FRAME]
        chunks.append(
            _frame({"record": "batches", "batches": [_batch_to_dict(b) for b in chunk]})
        )
    if fingerprints is not None:
        chunks.append(
            _frame(
                {
                    "record": "fingerprints",
                    "fingerprints": dict(sorted(fingerprints.items())),
                    "transport": transport,
                    "wire_codec": wire_codec,
                    "shards": shards,
                }
            )
        )
    blob = b"".join(chunks)
    Path(path).write_bytes(blob)
    return len(blob)


# --------------------------------------------------------------------- reading
def _read_frames(blob: bytes):
    offset = len(TRACE_MAGIC) + 1
    while offset < len(blob):
        if offset + _U32.size > len(blob):
            raise TraceFormatError("truncated trace: frame length cut short")
        (length,) = _U32.unpack_from(blob, offset)
        offset += _U32.size
        if offset + length > len(blob):
            raise TraceFormatError(
                f"truncated trace: frame declares {length} bytes, "
                f"{len(blob) - offset} remain"
            )
        frame = blob[offset : offset + length]
        offset += length
        try:
            payload = wire.decode_frame(frame, max_raw_bytes=_MAX_FRAME_BYTES)
        except wire.CodecError as error:
            raise TraceFormatError(f"corrupt trace frame: {error}") from error
        if not isinstance(payload, dict) or "record" not in payload:
            raise TraceFormatError("trace frame is not a tagged record")
        yield payload


def _events_from_dicts(kind: str, events: list) -> tuple:
    if kind == "chat":
        return tuple(codecs.chat_message_from_dict(item) for item in events)
    if kind == "plays":
        return tuple(codecs.interaction_from_dict(item) for item in events)
    raise TraceFormatError(f"unknown batch kind {kind!r} in trace")


def _rebuild_plans(
    channels: list[dict], batches: list[WorkBatch]
) -> list[ChannelPlan]:
    """Reconstruct channel plans from the recorded batch streams.

    Within one channel the batch sequence preserves per-kind event order
    exactly (that is how the workload chunker cuts batches), so
    concatenating a channel's chat batches — and separately its play
    batches — in recorded order yields the original plan streams.
    """
    by_channel: dict[str, dict[str, list]] = {}
    for batch in batches:
        streams = by_channel.setdefault(batch.video_id, {"chat": [], "plays": []})
        streams[batch.kind].extend(batch.events)
    plans: list[ChannelPlan] = []
    for channel in channels:
        video = codecs.video_from_dict(channel["video"])
        streams = by_channel.get(video.video_id, {"chat": [], "plays": []})
        plans.append(
            ChannelPlan(
                video=video,
                start_offset=channel["start_offset"],
                duration=channel["duration"],
                chat=tuple(streams["chat"]),
                plays=tuple(streams["plays"]),
                viewers=channel["viewers"],
            )
        )
    return plans


def read_trace(path) -> LoadTrace:
    """Decode a trace file, refusing anything this version does not know."""
    blob = Path(path).read_bytes()
    if len(blob) < len(TRACE_MAGIC) + 1:
        raise TraceFormatError(f"not a trace file: {len(blob)} bytes")
    if blob[: len(TRACE_MAGIC)] != TRACE_MAGIC:
        raise TraceFormatError(
            f"bad trace magic {blob[:len(TRACE_MAGIC)]!r} (expected {TRACE_MAGIC!r})"
        )
    version = blob[len(TRACE_MAGIC)]
    if version != TRACE_VERSION:
        raise TraceFormatError(
            f"unsupported trace version {version} (this reader knows {TRACE_VERSION}); "
            "regenerate the trace or upgrade"
        )

    header: dict | None = None
    channels: list[dict] = []
    batches: list[WorkBatch] = []
    trailer: dict | None = None
    for payload in _read_frames(blob):
        record = payload["record"]
        if record == "header":
            if header is not None:
                raise TraceFormatError("trace carries more than one header record")
            header = payload
        elif record == "channel":
            channels.append(payload)
        elif record == "batches":
            for item in payload["batches"]:
                batches.append(
                    WorkBatch(
                        kind=item["kind"],
                        video_id=item["video_id"],
                        arrival=item["arrival"],
                        sequence=item["sequence"],
                        events=_events_from_dicts(item["kind"], item["events"]),
                    )
                )
        elif record == "fingerprints":
            trailer = payload
        else:
            raise TraceFormatError(
                f"unknown trace record kind {record!r} "
                "(a newer writer? this reader refuses what it cannot replay)"
            )
    if header is None:
        raise TraceFormatError("trace has no header record")
    try:
        spec = WorkloadSpec(**{name: header["spec"][name] for name in _SPEC_FIELDS})
    except (KeyError, TypeError) as error:
        raise TraceFormatError(f"trace header spec is malformed: {error!r}") from error
    if len(channels) != header["channels"]:
        raise TraceFormatError(
            f"trace declares {header['channels']} channel(s) but carries {len(channels)}"
        )
    if len(batches) != header["total_batches"]:
        raise TraceFormatError(
            f"trace declares {header['total_batches']} batch(es) but carries {len(batches)}"
        )
    total_events = sum(len(batch.events) for batch in batches)
    if total_events != header["total_events"]:
        raise TraceFormatError(
            f"trace declares {header['total_events']} event(s) but carries {total_events}"
        )
    plans = _rebuild_plans(channels, batches)
    kwargs: dict = {}
    if trailer is not None:
        kwargs = {
            "fingerprints": dict(trailer["fingerprints"]),
            "transport": trailer["transport"],
            "wire_codec": trailer["wire_codec"],
            "shards": trailer["shards"],
        }
    return LoadTrace(spec=spec, plans=tuple(plans), batches=tuple(batches), **kwargs)


# --------------------------------------------------------------------- replay
def replay_trace(
    trace: LoadTrace,
    initializer,
    *,
    tier: TierSpec = TierSpec(),
    oracle: bool = True,
    cluster_seed: int = DEFAULT_SEED,
) -> ReplayReport:
    """Drive a trace's recorded batches on ``tier``; gate on fingerprint equality.

    The replay may use any transport, codec, shard or worker count — the
    recorded fingerprints are transport- and codec-blind, so every
    combination must reproduce them byte-for-byte.  When the trace carries
    no fingerprints (recorded without a report) the gate falls back to the
    sequential oracle alone.
    """
    from repro.loadgen.driver import run_load

    report = run_load(
        trace.spec,
        initializer,
        tier=tier,
        oracle=oracle,
        workload=trace.workload(),
        cluster_seed=cluster_seed,
    )
    mismatches = [
        video_id
        for video_id, recorded in sorted(trace.fingerprints.items())
        if video_id in report.outcomes
        and report.outcomes[video_id].fingerprint != recorded
    ]
    missing = [
        video_id
        for video_id in sorted(trace.fingerprints)
        if video_id not in report.outcomes
    ]
    return ReplayReport(
        report=report,
        mismatches=mismatches,
        missing=missing,
        checked=len(trace.fingerprints),
    )
