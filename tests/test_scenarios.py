"""Tests for the adversarial scenario library (``loadgen/scenarios.py``).

Every scenario must be (a) deterministic — two builds from the same spec
are byte-identical, like every other workload in the repo — and (b) judged
by its declared oracle: the sequential spot-check for all of them, plus
fingerprint equality with the unperturbed base run for the
arrival-reshaping ``reconnect-storm``.
"""

from __future__ import annotations

import pytest

from repro.loadgen import (
    DEFAULT_KNOBS,
    SCENARIOS,
    LoadWorkload,
    ScenarioKnobs,
    WorkloadSpec,
    build_scenario_workload,
    run_scenario,
)
from repro.platform.tier import TierSpec
from repro.utils.validation import ValidationError

TINY = WorkloadSpec(channels=2, viewers=10, duration=300.0, batch_size=16, seed=7)


def _batch_keys(workload):
    return [
        (b.kind, b.video_id, b.arrival, b.sequence, b.events)
        for b in workload.batches()
    ]


class TestScenarioBuilders:
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_build_is_deterministic(self, name):
        first = build_scenario_workload(name, TINY)
        second = build_scenario_workload(name, TINY)
        assert _batch_keys(first) == _batch_keys(second)
        assert first.total_events == second.total_events
        assert first.total_events > 0

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_batches_stay_globally_ordered_by_arrival(self, name):
        arrivals = [b.arrival for b in build_scenario_workload(name, TINY).batches()]
        assert arrivals == sorted(arrivals)

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValidationError, match="unknown scenario"):
            build_scenario_workload("meteor-strike", TINY)

    def test_flash_crowd_multiplies_head_viewership(self):
        base = LoadWorkload.from_spec(TINY)
        surged = build_scenario_workload("flash-crowd", TINY)
        head_base, head_surged = base.plans[0], surged.plans[0]
        assert head_surged.viewers == head_base.viewers * 20
        assert len(head_surged.plays) > len(head_base.plays)
        # The surge stays inside the channel's stream and only the head
        # channel is perturbed.
        assert all(e.timestamp < head_surged.duration for e in head_surged.plays)
        assert surged.plans[1:] == base.plans[1:]

    def test_chat_flood_spams_the_head_channel(self):
        base = LoadWorkload.from_spec(TINY)
        flooded = build_scenario_workload("chat-flood", TINY)
        organic = len(base.plans[0].chat)
        spam = [m for m in flooded.plans[0].chat if m.user.startswith("flood-bot-")]
        assert len(spam) == max(64, 4 * organic)
        assert len(flooded.plans[0].chat) == organic + len(spam)
        # Organic messages survive untouched among the spam.
        organic_survivors = [
            m for m in flooded.plans[0].chat if not m.user.startswith("flood-bot-")
        ]
        assert sorted(organic_survivors, key=lambda m: m.timestamp) == sorted(
            base.plans[0].chat, key=lambda m: m.timestamp
        )
        assert flooded.plans[1:] == base.plans[1:]

    def test_reconnect_storm_moves_arrivals_not_contents(self):
        base = LoadWorkload.from_spec(TINY)
        storm = build_scenario_workload("reconnect-storm", TINY)
        base_batches, storm_batches = base.batches(), storm.batches()
        assert len(storm_batches) == len(base_batches)
        # Contents are a permutation: same multiset of (kind, channel, events).
        key = lambda b: (b.kind, b.video_id, b.events)
        assert sorted(map(key, storm_batches)) == sorted(map(key, base_batches))
        # Per-channel per-kind order is preserved — the invariant the
        # baseline oracle rests on.
        for plan in base.plans:
            vid = plan.video.video_id
            for kind in ("chat", "plays"):
                original = [
                    b.events for b in base_batches
                    if b.video_id == vid and b.kind == kind
                ]
                reordered = [
                    b.events for b in storm_batches
                    if b.video_id == vid and b.kind == kind
                ]
                assert reordered == original
        # The outage window is actually empty: nothing arrives inside it.
        horizon = max(b.arrival for b in base_batches)
        outage_start, outage_end = horizon * 0.35, horizon * (0.35 + 0.25)
        assert any(
            outage_start <= b.arrival < outage_end for b in base_batches
        ), "spec too small to exercise the storm"
        assert not any(
            outage_start <= b.arrival < outage_end for b in storm_batches
        )

    def test_fairness_builds_an_extreme_skew_fleet(self):
        spec = WorkloadSpec(
            channels=4, viewers=80, duration=300.0, batch_size=16, seed=7
        )
        fleet = build_scenario_workload("fairness", spec)
        viewers = [plan.viewers for plan in fleet.plans]
        # One whale, a starving tail: the head dwarfs the rest combined.
        assert viewers[0] > sum(viewers[1:])
        # The caller's spec is not mutated — the skew lives in the build.
        assert spec.zipf_exponent != 3.0


class TestScenarioOracles:
    @pytest.mark.parametrize("name", ["flash-crowd", "chat-flood", "fairness"])
    def test_sequential_oracle_holds(self, name, fitted_initializer):
        result = run_scenario(
            name, TINY, fitted_initializer, tier=TierSpec(shards=2, workers=2),
        )
        assert result.ok
        assert result.oracle == "sequential"
        assert result.report.divergences == []
        assert result.baseline_divergences == []
        assert f"scenario {name}" in result.describe()

    def test_reconnect_storm_matches_unperturbed_baseline(self, fitted_initializer):
        """The storm's whole promise: only *when* changes, never *what* —
        so its end state equals the unperturbed run, byte for byte."""
        result = run_scenario(
            "reconnect-storm", TINY, fitted_initializer,
            tier=TierSpec(shards=2, workers=2),
        )
        assert result.ok
        assert result.oracle == "baseline"
        assert result.baseline_divergences == []
        assert "byte-identical to the unperturbed run" in result.describe()

    def test_fairness_under_per_channel_budget_over_http(self, fitted_initializer):
        """The budget refuses *concurrent* excess per channel; the harness
        keeps one worker per channel, so a budget of 1 must never refuse
        the drive itself — the run completes clean under the tightest cap."""
        result = run_scenario(
            "fairness", TINY, fitted_initializer,
            tier=TierSpec(shards=2, workers=2, transport="http", max_pending_per_channel=1),
        )
        assert result.ok
        assert result.report.divergences == []

    def test_unknown_scenario_rejected(self, fitted_initializer):
        with pytest.raises(ValidationError, match="unknown scenario"):
            run_scenario("meteor-strike", TINY, fitted_initializer)


class TestScenarioKnobs:
    """The CLI-exposed severity knobs actually steer the builders."""

    def test_defaults_reproduce_the_fixed_constants(self):
        assert (
            DEFAULT_KNOBS.surge_factor,
            DEFAULT_KNOBS.flood_factor,
            DEFAULT_KNOBS.outage_start_frac,
            DEFAULT_KNOBS.outage_length_frac,
        ) == (20, 4, 0.35, 0.25)
        # knobs=None, explicit defaults and DEFAULT_KNOBS are all the same
        # build — the benchmarks' recorded shapes stay byte-identical.
        for name in sorted(SCENARIOS):
            plain = build_scenario_workload(name, TINY)
            explicit = build_scenario_workload(name, TINY, ScenarioKnobs())
            assert _batch_keys(plain) == _batch_keys(explicit)

    def test_surge_factor_scales_head_viewership(self):
        base = LoadWorkload.from_spec(TINY)
        surged = build_scenario_workload(
            "flash-crowd", TINY, ScenarioKnobs(surge_factor=5)
        )
        assert surged.plans[0].viewers == base.plans[0].viewers * 5
        assert len(surged.plans[0].plays) > len(base.plans[0].plays)
        # Milder surge, fewer extra sessions than the default shape.
        default = build_scenario_workload("flash-crowd", TINY)
        assert len(surged.plans[0].plays) < len(default.plans[0].plays)

    def test_flood_factor_scales_spam(self):
        base = LoadWorkload.from_spec(TINY)
        organic = len(base.plans[0].chat)
        flooded = build_scenario_workload(
            "chat-flood", TINY, ScenarioKnobs(flood_factor=9)
        )
        spam = [
            m for m in flooded.plans[0].chat if m.user.startswith("flood-bot-")
        ]
        assert len(spam) == max(64, 9 * organic)

    def test_outage_window_follows_the_knobs(self):
        knobs = ScenarioKnobs(outage_start_frac=0.1, outage_length_frac=0.5)
        storm = build_scenario_workload("reconnect-storm", TINY, knobs)
        base_batches = LoadWorkload.from_spec(TINY).batches()
        horizon = max(b.arrival for b in base_batches)
        start, end = horizon * 0.1, horizon * (0.1 + 0.5)
        assert any(
            start <= b.arrival < end for b in base_batches
        ), "spec too small to exercise the custom window"
        assert not any(start <= b.arrival < end for b in storm.batches())

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            (dict(surge_factor=0), "surge_factor"),
            (dict(surge_factor=2.5), "surge_factor"),
            (dict(flood_factor=0), "flood_factor"),
            (dict(outage_start_frac=1.0), "outage_start_frac"),
            (dict(outage_length_frac=0.0), "outage_length_frac"),
            (dict(outage_start_frac=0.6, outage_length_frac=0.6), "must end"),
        ],
    )
    def test_invalid_knobs_rejected(self, kwargs, match):
        with pytest.raises(ValidationError, match=match):
            ScenarioKnobs(**kwargs)

    def test_run_scenario_accepts_knobs(self, fitted_initializer):
        result = run_scenario(
            "flash-crowd", TINY, fitted_initializer, tier=TierSpec(shards=2, workers=2),
            knobs=ScenarioKnobs(surge_factor=3),
        )
        assert result.ok
        head_base = LoadWorkload.from_spec(TINY).plans[0].viewers
        assert result.workload.plans[0].viewers == head_base * 3
