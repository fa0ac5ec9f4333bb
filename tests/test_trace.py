"""Tests for the versioned trace record/replay format (``loadgen/trace.py``).

Three properties matter:

* **round-trip exactness** — writing a workload and reading it back must
  reproduce every batch, every event and every reconstructed channel plan
  byte-for-byte (the trace *is* the workload, not a summary of it);
* **loud refusal** — any trace this reader does not fully understand (bad
  magic, unknown version, truncation, corruption, unknown record kinds)
  must raise a typed :class:`TraceFormatError`, never decode partially;
* **the replay gate** — replaying a recorded trace through any transport,
  codec, shard or worker count must land fingerprints byte-identical to
  the recording, and a tampered fingerprint must be caught.
"""

from __future__ import annotations

import dataclasses
import pathlib

import pytest

from repro.loadgen import (
    LoadWorkload,
    ReplayWorkload,
    TraceFormatError,
    WorkloadSpec,
    read_trace,
    replay_trace,
    run_load,
    write_trace,
)
from repro.loadgen.trace import TRACE_MAGIC, TRACE_VERSION, _frame
from repro.platform.tier import TierSpec
from repro.utils.validation import ValidationError

TINY = WorkloadSpec(channels=2, viewers=10, duration=300.0, batch_size=16, seed=7)


def _batch_key(batch):
    return (batch.kind, batch.video_id, batch.arrival, batch.sequence, batch.events)


@pytest.fixture(scope="module")
def tiny_workload():
    return LoadWorkload.from_spec(TINY)


@pytest.fixture(scope="module")
def recorded(tmp_path_factory, fitted_initializer, tiny_workload):
    """A trace of a real run, fingerprints armed — plus the run's report."""
    report = run_load(
        TINY, fitted_initializer, tier=TierSpec(shards=2, workers=2),
        workload=tiny_workload,
    )
    assert report.divergences == []
    path = tmp_path_factory.mktemp("traces") / "tiny.trace"
    written = write_trace(
        path,
        tiny_workload,
        fingerprints={v: o.fingerprint for v, o in report.outcomes.items()},
        transport=report.transport,
        wire_codec=report.wire_codec,
        shards=report.shards,
    )
    assert written == path.stat().st_size
    return path, report


class TestRoundTrip:
    def test_batches_and_spec_survive_byte_for_byte(self, recorded, tiny_workload):
        path, _ = recorded
        trace = read_trace(path)
        assert trace.spec == TINY
        original = tiny_workload.batches()
        assert [_batch_key(b) for b in trace.batches] == [
            _batch_key(b) for b in original
        ]
        assert trace.total_events == tiny_workload.total_events

    def test_plans_reconstructed_exactly_from_batches(self, recorded, tiny_workload):
        """The trace stores no plan event streams — they must come back
        identical from the recorded batch order alone."""
        path, _ = recorded
        trace = read_trace(path)
        assert len(trace.plans) == len(tiny_workload.plans)
        for rebuilt, original in zip(trace.plans, tiny_workload.plans):
            assert rebuilt.video == original.video
            assert rebuilt.start_offset == original.start_offset
            assert rebuilt.duration == original.duration
            assert rebuilt.viewers == original.viewers
            assert rebuilt.chat == original.chat
            assert rebuilt.plays == original.plays

    def test_fingerprint_trailer_survives(self, recorded):
        path, report = recorded
        trace = read_trace(path)
        assert trace.fingerprints == {
            v: o.fingerprint for v, o in report.outcomes.items()
        }
        assert trace.transport == report.transport
        assert trace.wire_codec == report.wire_codec
        assert trace.shards == report.shards

    def test_trace_without_fingerprints_reads_with_defaults(
        self, tmp_path, tiny_workload
    ):
        path = tmp_path / "bare.trace"
        write_trace(path, tiny_workload)
        trace = read_trace(path)
        assert trace.fingerprints == {}
        assert (trace.transport, trace.wire_codec, trace.shards) == ("inproc", "json", 1)

    def test_replay_workload_refuses_rechunking(self, recorded):
        path, _ = recorded
        workload = read_trace(path).workload()
        assert isinstance(workload, ReplayWorkload)
        assert [_batch_key(b) for b in workload.batches()] == [
            _batch_key(b) for b in read_trace(path).batches
        ]
        with pytest.raises(ValidationError, match="re-chunked"):
            workload.rebatched(8)


class TestFormatRejection:
    def test_empty_and_short_files_refused(self, tmp_path):
        path = tmp_path / "x.trace"
        path.write_bytes(b"")
        with pytest.raises(TraceFormatError, match="not a trace file"):
            read_trace(path)
        path.write_bytes(b"LT")
        with pytest.raises(TraceFormatError, match="not a trace file"):
            read_trace(path)

    def test_bad_magic_refused(self, recorded, tmp_path):
        source, _ = recorded
        blob = source.read_bytes()
        path = tmp_path / "bad_magic.trace"
        path.write_bytes(b"NOPE" + blob[len(TRACE_MAGIC):])
        with pytest.raises(TraceFormatError, match="bad trace magic"):
            read_trace(path)

    def test_unknown_version_refused(self, recorded, tmp_path):
        source, _ = recorded
        blob = bytearray(source.read_bytes())
        blob[len(TRACE_MAGIC)] = TRACE_VERSION + 1
        path = tmp_path / "future.trace"
        path.write_bytes(bytes(blob))
        with pytest.raises(TraceFormatError, match="unsupported trace version"):
            read_trace(path)

    def test_truncation_refused(self, recorded, tmp_path):
        source, _ = recorded
        blob = source.read_bytes()
        path = tmp_path / "cut.trace"
        # Cut mid-frame: the declared length outruns the file.
        path.write_bytes(blob[: len(blob) - 10])
        with pytest.raises(TraceFormatError, match="truncated trace"):
            read_trace(path)
        # Cut mid-length-prefix.
        path.write_bytes(blob + b"\x00\x00")
        with pytest.raises(TraceFormatError, match="truncated trace"):
            read_trace(path)

    def test_corrupt_frame_body_refused(self, recorded, tmp_path):
        """A flipped byte inside a frame must trip the wire codec's CRC."""
        source, _ = recorded
        blob = bytearray(source.read_bytes())
        blob[-5] ^= 0xFF
        path = tmp_path / "flip.trace"
        path.write_bytes(bytes(blob))
        with pytest.raises(TraceFormatError, match="corrupt trace frame"):
            read_trace(path)

    def test_unknown_record_kind_refused(self, recorded, tmp_path):
        """The versioning rule: a reader refuses what it cannot replay."""
        source, _ = recorded
        path = tmp_path / "future_record.trace"
        path.write_bytes(source.read_bytes() + _frame({"record": "telemetry-v9"}))
        with pytest.raises(TraceFormatError, match="unknown trace record kind"):
            read_trace(path)

    def test_untagged_frame_refused(self, recorded, tmp_path):
        source, _ = recorded
        path = tmp_path / "untagged.trace"
        path.write_bytes(source.read_bytes() + _frame({"hello": "world"}))
        with pytest.raises(TraceFormatError, match="not a tagged record"):
            read_trace(path)

    def test_missing_header_refused(self, tmp_path):
        path = tmp_path / "headless.trace"
        path.write_bytes(
            TRACE_MAGIC + bytes([TRACE_VERSION]) + _frame({"record": "fingerprints",
            "fingerprints": {}, "transport": "inproc", "wire_codec": "json",
            "shards": 1})
        )
        with pytest.raises(TraceFormatError, match="no header record"):
            read_trace(path)


class TestGoldenCorpus:
    """Replay the committed trace corpus against its recorded fingerprints.

    This is the format's compatibility contract in executable form: a
    change to the trace layout, to workload synthesis or to scoring makes
    these replays diverge — at which point either the change is a bug, or
    it is intentional and ``TRACE_VERSION`` must be bumped and the corpus
    regenerated via ``tools/make_trace_corpus.py`` (see the versioning
    rule in ``loadgen/trace.py``).
    """

    CORPUS_DIR = pathlib.Path(__file__).parent / "traces"

    @pytest.fixture(scope="class")
    def cli_initializer(self):
        """The model exactly as ``repro load`` trains it (the corpus
        recorder mirrors this — conftest's fixture uses a different
        config, so it cannot reproduce the committed fingerprints)."""
        from repro import LightorConfig
        from repro.core.initializer.initializer import HighlightInitializer
        from repro.datasets import DatasetSpec, build_dataset

        dataset = build_dataset(DatasetSpec.dota2(size=1, seed=2020))
        initializer = HighlightInitializer(config=LightorConfig())
        initializer.fit([dataset[0].training_pair])
        return initializer

    def test_corpus_is_present_and_armed(self):
        traces = sorted(self.CORPUS_DIR.glob("*.trace"))
        assert [p.name for p in traces] == ["flash-crowd.trace", "steady.trace"]
        for path in traces:
            trace = read_trace(path)
            assert trace.fingerprints, f"{path.name} recorded without fingerprints"
            assert trace.spec.seed == 2020, "corpus must use the CLI's model seed"

    @pytest.mark.parametrize("stem", ["steady", "flash-crowd"])
    def test_golden_replay_reproduces_committed_fingerprints(
        self, stem, cli_initializer
    ):
        trace = read_trace(self.CORPUS_DIR / f"{stem}.trace")
        result = replay_trace(
            trace, cli_initializer, tier=TierSpec(shards=2, workers=2), oracle=False,
        )
        assert result.ok, (
            f"golden corpus replay diverged on {result.mismatches or result.missing} "
            "— if this change to trace layout / workload synthesis / scoring is "
            "intentional, bump TRACE_VERSION (layout) and regenerate the corpus "
            "with tools/make_trace_corpus.py"
        )
        assert result.checked == trace.spec.channels


class TestReplayGate:
    def test_replay_reproduces_recording_across_shards_and_workers(
        self, recorded, fitted_initializer
    ):
        """The recording ran on 2 shards / 2 workers; replaying on a
        different topology must still land the same bytes."""
        path, _ = recorded
        result = replay_trace(
            read_trace(path), fitted_initializer, tier=TierSpec(shards=1, workers=3),
        )
        assert result.ok
        assert result.checked == TINY.channels
        assert result.mismatches == [] and result.missing == []
        assert result.report.divergences == []
        assert "byte-identical to the recording" in result.describe()

    def test_replay_over_http_binary_codec(self, recorded, fitted_initializer):
        """Fingerprints are transport- and codec-blind: the wire path with
        the binary codec must reproduce an inproc recording."""
        path, _ = recorded
        result = replay_trace(
            read_trace(path), fitted_initializer,
            tier=TierSpec(shards=2, workers=2, transport="http", wire_codec="binary"),
        )
        assert result.ok
        assert result.report.transport == "http"
        assert result.report.wire_codec == "binary"

    def test_tampered_fingerprint_is_caught(self, recorded, fitted_initializer):
        path, _ = recorded
        trace = read_trace(path)
        victim = sorted(trace.fingerprints)[0]
        forged = dict(trace.fingerprints)
        forged[victim] = "0" * len(forged[victim])
        forged["channel-9999"] = "deadbeef"
        tampered = dataclasses.replace(trace, fingerprints=forged)
        result = replay_trace(
            tampered, fitted_initializer, tier=TierSpec(shards=1, workers=2),
        )
        assert not result.ok
        assert result.mismatches == [victim]
        assert result.missing == ["channel-9999"]
        assert "REPLAY DIVERGENCE" in result.describe()
