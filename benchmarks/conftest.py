"""Shared helpers for the benchmark harness.

Every benchmark reproduces one table or figure of the paper: it runs the
corresponding experiment (at the ``small`` scale unless the
``LIGHTOR_BENCH_SCALE`` environment variable says otherwise), prints the
rows/series the paper reports, and records the wall-clock through
pytest-benchmark (one round — these are experiment harnesses, not
micro-benchmarks).

The infrastructure benches record their results in ``BENCH_*.json`` files.
A plain run writes them under ``.bench_out/``, so running the suite leaves
the committed records alone; set ``LIGHTOR_BENCH_RECORD=1`` to update the
committed files at the repo root.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

BENCH_SCALE = os.environ.get("LIGHTOR_BENCH_SCALE", "small")

_BENCH_DIR = Path(__file__).parent.resolve()
_REPO_ROOT = _BENCH_DIR.parent


def results_path(filename: str) -> Path:
    """Where a bench records ``filename`` (see the module docstring)."""
    if os.environ.get("LIGHTOR_BENCH_RECORD") == "1":
        return _REPO_ROOT / filename
    out = _REPO_ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    return out / filename


def pytest_collection_modifyitems(items):
    """Mark everything under benchmarks/ as ``bench``.

    The tier-1 gate runs ``-m "not bench"`` so the (slower) experiment
    harnesses stay out of it while remaining one plain ``pytest`` away.
    """
    for item in items:
        try:
            in_bench_dir = Path(str(item.fspath)).resolve().is_relative_to(_BENCH_DIR)
        except AttributeError:  # pragma: no cover - Python < 3.9 fallback
            in_bench_dir = str(_BENCH_DIR) in str(item.fspath)
        if in_bench_dir:
            item.add_marker(pytest.mark.bench)


@pytest.fixture(scope="session")
def bench_scale() -> str:
    """Evaluation scale used by all benchmarks (small | medium | paper)."""
    return BENCH_SCALE


def run_and_report(benchmark, experiment_id: str, scale: str, **kwargs):
    """Run ``experiment_id`` once under pytest-benchmark and print its report."""
    from repro.experiments import run_experiment

    def once():
        return run_experiment(experiment_id, scale=scale, **kwargs)

    results, report = benchmark.pedantic(once, rounds=1, iterations=1)
    print()
    print(report)
    return results
