"""Tests for the load-generation subsystem (workload, driver, metrics)."""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.loadgen import (
    LatencyRecorder,
    LoadGenerator,
    LoadWorkload,
    WorkloadSpec,
    merge_recorders,
    run_load,
    zipf_weights,
)
from repro.loadgen.metrics import LadderEntry
from repro.platform.tier import TierSpec, open_tier
from repro.utils.validation import ValidationError

SMALL = WorkloadSpec(channels=3, viewers=45, duration=900.0, batch_size=32, seed=11)

# ``fitted_initializer`` comes from the session-scoped fixture in conftest.py.


@pytest.fixture(scope="module")
def small_workload():
    return LoadWorkload.from_spec(SMALL)


class TestZipfWeights:
    def test_normalised_and_monotone(self):
        weights = zipf_weights(8, 1.0)
        assert weights.sum() == pytest.approx(1.0)
        assert all(a >= b for a, b in zip(weights, weights[1:]))

    def test_zero_exponent_is_uniform(self):
        assert np.allclose(zipf_weights(5, 0.0), 0.2)

    def test_rejects_negative_exponent(self):
        with pytest.raises(ValidationError):
            zipf_weights(3, -1.0)


class TestWorkloadSynthesis:
    def test_deterministic_per_spec(self, small_workload):
        again = LoadWorkload.from_spec(SMALL)
        assert [p.video.video_id for p in again.plans] == [
            p.video.video_id for p in small_workload.plans
        ]
        assert again.total_chat == small_workload.total_chat
        assert again.total_plays == small_workload.total_plays
        first = small_workload.batches()
        second = again.batches()
        assert [(b.kind, b.video_id, len(b.events)) for b in first] == [
            (b.kind, b.video_id, len(b.events)) for b in second
        ]

    def test_channel_ids_do_not_collide_with_datasets(self, small_workload):
        for plan in small_workload.plans:
            assert int(plan.video.video_id.split("-")[1]) >= 1000

    def test_zipf_skews_viewers_to_head_channels(self):
        workload = LoadWorkload.from_spec(
            WorkloadSpec(channels=4, viewers=400, duration=900.0, zipf_exponent=1.5, seed=3)
        )
        viewers = [plan.viewers for plan in workload.plans]
        assert viewers[0] > viewers[-1]

    def test_stretch_extends_short_videos(self):
        stretched = LoadWorkload.from_spec(
            WorkloadSpec(channels=2, viewers=20, duration=30000.0, stretch=True, seed=5)
        )
        assert all(plan.duration == 30000.0 for plan in stretched.plans)

    def test_duration_caps_chat_and_plays(self, small_workload):
        for plan in small_workload.plans:
            assert plan.duration <= SMALL.duration
            assert all(m.timestamp < plan.duration for m in plan.chat)
            assert all(e.timestamp < plan.duration for e in plan.plays)


class TestBatchChunking:
    def test_batches_respect_size_and_kind(self, small_workload):
        for batch in small_workload.batches():
            assert batch.kind in ("chat", "plays")
            assert 1 <= len(batch.events) <= SMALL.batch_size

    def test_per_kind_order_preserved_within_channel(self, small_workload):
        for plan in small_workload.plans:
            vid = plan.video.video_id
            chat = [
                event
                for batch in small_workload.batches()
                if batch.video_id == vid and batch.kind == "chat"
                for event in batch.events
            ]
            assert chat == list(plan.chat)
            plays = [
                event
                for batch in small_workload.batches()
                if batch.video_id == vid and batch.kind == "plays"
                for event in batch.events
            ]
            assert plays == list(plan.plays)

    def test_batch_size_one_is_per_event_traffic(self):
        workload = LoadWorkload.from_spec(SMALL).rebatched(1)
        assert all(len(batch.events) == 1 for batch in workload.batches())
        assert sum(len(b.events) for b in workload.batches()) == workload.total_events

    def test_rebatched_shares_plans(self, small_workload):
        rebatched = small_workload.rebatched(128)
        assert rebatched.plans is small_workload.plans
        assert rebatched.spec.batch_size == 128
        assert small_workload.spec.batch_size == SMALL.batch_size

    def test_global_order_is_by_arrival(self, small_workload):
        arrivals = [batch.arrival for batch in small_workload.batches()]
        assert arrivals == sorted(arrivals)


class TestDriver:
    def test_run_load_reports_and_oracle_passes(self, fitted_initializer, small_workload):
        report = run_load(
            SMALL, fitted_initializer, tier=TierSpec(shards=2, workers=2),
            workload=small_workload,
        )
        assert report.total_events == small_workload.total_events
        assert report.oracle_checked
        assert report.divergences == []
        assert set(report.stages) >= {"chat", "open", "close"}
        assert report.events_per_sec > 0
        payload = report.to_dict()
        assert payload["shards"] == 2 and payload["divergences"] == []
        assert "0 divergences" in report.describe()

    def test_outcomes_identical_across_worker_counts(self, fitted_initializer, small_workload):
        """Thread scheduling must never leak into the persisted results."""
        fingerprints = []
        for workers in (1, 3):
            tier = open_tier(
                TierSpec(shards=2, max_live_sessions=SMALL.channels), fitted_initializer
            )
            report = LoadGenerator(small_workload, workers=workers).drive(tier)
            fingerprints.append(
                {vid: outcome.fingerprint for vid, outcome in report.outcomes.items()}
            )
        assert fingerprints[0] == fingerprints[1]

    def test_worker_failure_fails_the_run(self, fitted_initializer, small_workload):
        """A dead worker must not produce a success report over partial traffic."""
        tier = open_tier(TierSpec(max_live_sessions=SMALL.channels), fitted_initializer)
        boom = RuntimeError("backend went away")

        def exploding(video_id, messages, persist=False):
            raise boom

        tier.service.ingest_chat_batch = exploding
        with pytest.raises(RuntimeError, match="backend went away"):
            LoadGenerator(small_workload, workers=2).drive(tier)

    def test_channels_without_traffic_still_close(self, fitted_initializer):
        """A channel whose events were all filtered out must still open/close."""
        from dataclasses import replace

        workload = LoadWorkload.from_spec(
            WorkloadSpec(channels=2, viewers=4, duration=600.0, batch_size=8, seed=9)
        )
        # Strip every event from one channel: zero batches for it.
        idle, busy = workload.plans[0], workload.plans[1]
        workload.plans[0] = replace(idle, chat=(), plays=())
        assert workload.plans[0].total_events == 0 and busy.total_events > 0
        report = run_load(
            workload.spec, fitted_initializer, tier=TierSpec(shards=1, workers=2),
            workload=workload,
        )
        assert report.divergences == []
        assert len(report.outcomes) == 2
        assert report.outcomes[idle.video.video_id].final_dots == 0

    def test_http_transport_is_byte_identical_to_inproc(
        self, fitted_initializer, small_workload
    ):
        """The tentpole acceptance bar: the same workload driven over the
        wire must persist byte-identical red dots and highlight records."""
        inproc = run_load(
            SMALL, fitted_initializer, tier=TierSpec(shards=2, workers=2),
            workload=small_workload,
        )
        wire = run_load(
            SMALL, fitted_initializer,
            tier=TierSpec(shards=2, workers=2, transport="http"),
            workload=small_workload,
        )
        assert wire.transport == "http" and inproc.transport == "inproc"
        assert wire.oracle_checked and wire.divergences == []
        assert {v: o.fingerprint for v, o in wire.outcomes.items()} == {
            v: o.fingerprint for v, o in inproc.outcomes.items()
        }
        assert "transport http" in wire.describe()
        assert wire.to_dict()["transport"] == "http"

    def test_binary_wire_codec_is_byte_identical_to_json(
        self, fitted_initializer, small_workload
    ):
        """The codec acceptance bar: switching the wire encoding must not
        change a single persisted byte — fingerprints are the oracle."""
        json_run = run_load(
            SMALL, fitted_initializer,
            tier=TierSpec(shards=2, workers=2, transport="http"),
            workload=small_workload,
        )
        binary = run_load(
            SMALL, fitted_initializer,
            tier=TierSpec(shards=2, workers=2, transport="http", wire_codec="binary"),
            workload=small_workload,
        )
        assert binary.wire_codec == "binary" and json_run.wire_codec == "json"
        assert binary.oracle_checked and binary.divergences == []
        assert {v: o.fingerprint for v, o in binary.outcomes.items()} == {
            v: o.fingerprint for v, o in json_run.outcomes.items()
        }
        assert "codec binary" in binary.describe()
        assert binary.to_dict()["wire_codec"] == "binary"

    def test_unknown_transport_rejected(self):
        with pytest.raises(ValidationError, match="transport"):
            TierSpec(transport="telnet")

    def test_wire_codec_rejected_on_inproc_transport(self):
        with pytest.raises(ValidationError, match="wire"):
            TierSpec(wire_codec="binary")
        with pytest.raises(ValidationError, match="wire codec"):
            TierSpec(transport="http", wire_codec="msgpack")

    def test_sqlite_backend_run(self, fitted_initializer, small_workload, tmp_path):
        report = run_load(
            SMALL, fitted_initializer,
            tier=TierSpec(shards=2, workers=2, backend="sqlite", db_path=tmp_path / "load.db"),
            workload=small_workload,
        )
        assert report.divergences == []
        assert (tmp_path / "load.shard0.db").exists()


class TestWorkloadDeterminismProperty:
    """Property-based pin on the repo's foundational loadgen invariant:
    the *event stream* a seed produces is a pure function of the spec's
    traffic knobs — batch size chunks it and workers drive it, but neither
    may change a single byte of any channel's ordered events."""

    @staticmethod
    def _streams(workload):
        return {
            (plan.video.video_id, kind): tuple(
                event
                for batch in workload.batches()
                if batch.video_id == plan.video.video_id and batch.kind == kind
                for event in batch.events
            )
            for plan in workload.plans
            for kind in ("chat", "plays")
        }

    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        channels=st.integers(min_value=1, max_value=3),
        viewers=st.integers(min_value=2, max_value=12),
        batch_sizes=st.tuples(
            st.integers(min_value=1, max_value=64),
            st.integers(min_value=1, max_value=64),
        ),
    )
    def test_same_seed_same_stream_regardless_of_chunking(
        self, seed, channels, viewers, batch_sizes
    ):
        spec = WorkloadSpec(
            channels=channels,
            viewers=viewers,
            duration=300.0,
            batch_size=batch_sizes[0],
            seed=seed,
        )
        workload = LoadWorkload.from_spec(spec)
        again = LoadWorkload.from_spec(spec)
        # Same spec ⇒ byte-identical plans *and* batch stream.
        assert self._streams(again) == self._streams(workload)
        assert [
            (b.kind, b.video_id, b.arrival, b.sequence, b.events)
            for b in again.batches()
        ] == [
            (b.kind, b.video_id, b.arrival, b.sequence, b.events)
            for b in workload.batches()
        ]
        # Re-chunking moves batch boundaries, never events or their order.
        rebatched = workload.rebatched(batch_sizes[1])
        assert self._streams(rebatched) == self._streams(workload)
        # And the streams are exactly the plans, whatever the chunking.
        for plan in workload.plans:
            vid = plan.video.video_id
            assert self._streams(rebatched)[(vid, "chat")] == plan.chat
            assert self._streams(rebatched)[(vid, "plays")] == plan.plays


class TestMetrics:
    def test_merge_recorders_percentiles(self):
        first, second = LatencyRecorder(), LatencyRecorder()
        for value in (0.001, 0.002, 0.003):
            first.record("chat", value, events=10)
        second.record("chat", 0.004, events=10)
        second.record("plays", 0.005, events=2)
        stats = merge_recorders([first, second])
        assert stats["chat"].calls == 4
        assert stats["chat"].events == 40
        assert stats["chat"].seconds == pytest.approx(0.010)
        assert stats["chat"].events_per_sec == pytest.approx(4000.0)
        assert stats["plays"].p50_ms == pytest.approx(5.0)
        assert stats["chat"].max_ms == pytest.approx(4.0)

    def test_merge_of_nothing_is_empty(self):
        assert merge_recorders([]) == {}
        assert merge_recorders([LatencyRecorder(), LatencyRecorder()]) == {}

    def test_empty_stage_reports_zeros_not_nan(self):
        """A stage entry with zero recorded calls (a worker died before its
        first call) must stay JSON-safe — ``BENCH_load.json`` is written
        with ``allow_nan=False``, so a NaN percentile would reject the
        whole report."""
        recorder = LatencyRecorder()
        recorder.stages()["dead"] = LadderEntry(latencies=[], events=7)
        stats = merge_recorders([recorder])
        entry = stats["dead"]
        assert entry.calls == 0 and entry.events == 7
        assert (entry.p50_ms, entry.p95_ms, entry.p99_ms, entry.max_ms) == (
            0.0, 0.0, 0.0, 0.0,
        )
        assert entry.events_per_sec == 0.0
        json.dumps(entry.to_dict(), allow_nan=False)

    def test_single_event_stage_is_degenerate_but_sane(self):
        recorder = LatencyRecorder()
        recorder.record("open", 0.002, events=1)
        entry = merge_recorders([recorder])["open"]
        assert entry.calls == 1
        assert entry.p50_ms == entry.p95_ms == entry.p99_ms == entry.max_ms
        assert entry.p50_ms == pytest.approx(2.0)
        json.dumps(entry.to_dict(), allow_nan=False)

    def test_zero_duration_stage_reports_zero_rate_not_inf(self):
        """Calls under the clock's resolution: rate must be 0.0, not inf
        (inf is not valid JSON either)."""
        recorder = LatencyRecorder()
        recorder.record("close", 0.0, events=5)
        recorder.record("close", 0.0, events=5)
        entry = merge_recorders([recorder])["close"]
        assert entry.seconds == 0.0
        assert entry.events_per_sec == 0.0
        json.dumps(entry.to_dict(), allow_nan=False)

    @settings(max_examples=25, deadline=None)
    @given(
        samples=st.lists(
            st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
            min_size=1,
            max_size=50,
        )
    )
    def test_percentiles_are_monotone(self, samples):
        recorder = LatencyRecorder()
        for value in samples:
            recorder.record("chat", value)
        entry = merge_recorders([recorder])["chat"]
        assert entry.p50_ms <= entry.p95_ms <= entry.p99_ms <= entry.max_ms
        json.dumps(entry.to_dict(), allow_nan=False)
