"""BENCH-SCENARIOS — adversarial traffic shapes under the load harness.

Runs every scenario in :data:`repro.loadgen.scenarios.SCENARIOS` (flash
crowd, chat flood, reconnect storm, multi-tenant fairness) through the
sharded tier, asserts each scenario's declared oracle, and records the
per-scenario throughput and verdicts under ``scenarios`` in
``BENCH_load.json`` (under ``.bench_out/``; at the repo root with
``LIGHTOR_BENCH_RECORD=1``) so successive PRs can track how the adversarial
shapes move relative to the steady fleet.

The ``fairness`` scenario additionally runs over HTTP with the tightest
per-channel admission budget (``--max-pending-per-channel 1``): the
harness keeps one driver worker per channel, so a budget of 1 must never
refuse the drive itself — the run completing clean *is* the assertion
that per-channel accounting refuses only concurrent excess.

Sizes shrink via the ``LIGHTOR_BENCH_SCENARIO_*`` environment variables
(the CI smoke job runs tiny sizes); ``cpus`` and ``gated`` are recorded
honestly either way — the oracle gates here are correctness bars and arm
at every size.
"""

from __future__ import annotations

import json
import os

import pytest

from benchmarks.conftest import results_path
from repro.core.config import LightorConfig
from repro.core.initializer.initializer import HighlightInitializer
from repro.datasets import DatasetSpec, build_dataset
from repro.loadgen import SCENARIOS, WorkloadSpec, run_scenario
from repro.platform.tier import TierSpec

CHANNELS = int(os.environ.get("LIGHTOR_BENCH_SCENARIO_CHANNELS", "6"))
VIEWERS = int(os.environ.get("LIGHTOR_BENCH_SCENARIO_VIEWERS", "240"))
DURATION = float(os.environ.get("LIGHTOR_BENCH_SCENARIO_DURATION", "3600"))
WORKERS = int(os.environ.get("LIGHTOR_BENCH_SCENARIO_WORKERS", "4"))
SEED = int(os.environ.get("LIGHTOR_BENCH_SCENARIO_SEED", "7"))

SHARDS = 2
FULL_SIZE = not any(
    f"LIGHTOR_BENCH_SCENARIO_{knob}" in os.environ
    for knob in ("CHANNELS", "VIEWERS", "DURATION", "WORKERS", "SEED")
)
CPUS = len(os.sched_getaffinity(0))

RESULTS_PATH = results_path("BENCH_load.json")
SPEC = WorkloadSpec(
    channels=CHANNELS,
    viewers=VIEWERS,
    duration=DURATION,
    batch_size=64,
    seed=SEED,
)


@pytest.fixture(scope="module")
def fitted_initializer():
    dataset = build_dataset(DatasetSpec.dota2(size=1, seed=2020))
    initializer = HighlightInitializer(config=LightorConfig())
    initializer.fit([dataset[0].training_pair])
    return initializer


def _save(name: str, payload: dict) -> None:
    signature = (
        f"channels{CHANNELS}-viewers{VIEWERS}-duration{int(DURATION)}-workers{WORKERS}"
    )
    results = {}
    if RESULTS_PATH.exists():
        results = json.loads(RESULTS_PATH.read_text())
    section = results.setdefault("scenarios", {})
    entry = section.setdefault(signature, {})
    entry[name] = payload
    entry["config"] = {
        "channels": CHANNELS,
        "viewers": VIEWERS,
        "duration": DURATION,
        "workers": WORKERS,
        "shards": SHARDS,
        "seed": SEED,
        "cpus": CPUS,
        # Oracle gates are correctness bars: they arm at every size, so a
        # tiny smoke entry is exactly as "gated" as a full-size one.
        "gated": True,
        "full_size": FULL_SIZE,
    }
    RESULTS_PATH.write_text(
        json.dumps(results, indent=2, sort_keys=True, allow_nan=False) + "\n"
    )


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_bench_scenario_oracles(name, fitted_initializer):
    """Every scenario, inproc: drive it and assert its declared oracle."""
    result = run_scenario(
        name, SPEC, fitted_initializer, tier=TierSpec(shards=SHARDS, workers=WORKERS),
    )
    print()
    print(result.describe())
    report = result.report
    _save(
        name,
        {
            "oracle": result.oracle,
            "events": report.total_events,
            "events_per_sec": round(report.events_per_sec, 1),
            "divergences": report.divergences,
            "baseline_divergences": result.baseline_divergences,
        },
    )
    assert report.events_per_sec > 0
    assert result.ok, (
        f"scenario {name} oracle failed: divergences={report.divergences} "
        f"baseline={result.baseline_divergences}"
    )


def test_bench_fairness_under_per_channel_budget(fitted_initializer):
    """The fairness scenario over HTTP at the tightest per-channel budget."""
    result = run_scenario(
        "fairness", SPEC, fitted_initializer,
        tier=TierSpec(shards=SHARDS, workers=WORKERS, transport="http", max_pending_per_channel=1),
    )
    print()
    print(result.describe())
    report = result.report
    _save(
        "fairness-budgeted",
        {
            "oracle": result.oracle,
            "transport": "http",
            "per_channel_pending": 1,
            "events": report.total_events,
            "events_per_sec": round(report.events_per_sec, 1),
            "divergences": report.divergences,
        },
    )
    assert report.events_per_sec > 0
    assert result.ok, f"budgeted fairness run diverged: {report.divergences}"
