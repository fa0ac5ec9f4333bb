"""Measure the chat-rate band each workload's fleet is drawn across.

Run from the repository root::

    python3 perfbench/rate_band.py

For every workload it synthesizes the channel pool that
:func:`workloads.balanced_fleet` draws from, for each of the reference
seeds, and prints the 15th and 85th percentiles of the pooled per-channel
chat rates (messages per hour).  Those two figures are the ``rates`` of the
workload in ``workloads.py``: a fleet then spans the central 70% of the chat
rates the simulator gives channels of that length.  Rerun this after
changing a workload's spec or the chat simulator, and copy the figures over.
"""

from __future__ import annotations

import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from repro.loadgen import LoadWorkload  # noqa: E402
from workloads import POOL_FACTOR, WORKLOADS, chat_rate  # noqa: E402

REFERENCE_SEEDS = range(1, 9)
PERCENTILES = (15, 85)


def band(spec) -> tuple[float, float, int]:
    rates = []
    for seed in REFERENCE_SEEDS:
        channels = spec.channels * POOL_FACTOR
        pool = LoadWorkload.from_spec(replace(spec, seed=seed, channels=channels, viewers=channels))
        rates.extend(chat_rate(plan) for plan in pool.plans)
    low, high = np.percentile(rates, PERCENTILES)
    return float(low), float(high), len(rates)


def main() -> None:
    for name, workload in WORKLOADS.items():
        low, high, n = band(workload.spec)
        print(f"{name}: rates=({low:.0f}.0, {high:.0f}.0)  from {n} channels", flush=True)


if __name__ == "__main__":
    main()
