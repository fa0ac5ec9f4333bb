"""Regenerate the golden trace corpus in ``tests/traces/``.

The corpus pins the trace file format *and* the end-to-end determinism of
the whole stack: each committed trace carries the fingerprints its
recording run produced, and ``tests/test_trace.py::TestGoldenCorpus``
replays them on every build — a format break, a workload-synthesis change
or a scoring change all fail that test loudly.

Run from the repo root after any intentional change to the trace layout
(which must also bump ``TRACE_VERSION``) or to workload synthesis::

    PYTHONPATH=src python tools/make_trace_corpus.py

The recordings are deterministic: the same repo state always regenerates
byte-identical files, so a dirty ``git diff`` after running this script is
itself a signal that behaviour changed.

The serving model is trained exactly as the ``repro load`` CLI trains it
(``DatasetSpec.dota2(size=1, seed=<spec seed>)`` + default config) so the
committed fingerprints are reproducible from the trace file alone.
"""

from __future__ import annotations

import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "src"))

from repro import LightorConfig  # noqa: E402
from repro.core.initializer.initializer import HighlightInitializer  # noqa: E402
from repro.datasets import DatasetSpec, build_dataset  # noqa: E402
from repro.loadgen import (  # noqa: E402
    LoadWorkload,
    WorkloadSpec,
    build_scenario_workload,
    run_load,
    write_trace,
)
from repro.platform.tier import TierSpec  # noqa: E402

CORPUS_DIR = REPO / "tests" / "traces"

# Tiny on purpose: the corpus rides along in git and replays inside tier-1.
SPEC = WorkloadSpec(channels=2, viewers=10, duration=300.0, batch_size=16, seed=2020)

# (file stem, workload builder) — one steady fleet, one scenario shape, so
# the corpus covers both the plain and the perturbed batch streams.
CORPUS = (
    ("steady", lambda: LoadWorkload.from_spec(SPEC)),
    ("flash-crowd", lambda: build_scenario_workload("flash-crowd", SPEC)),
)


def main() -> int:
    dataset = build_dataset(DatasetSpec.dota2(size=1, seed=SPEC.seed))
    initializer = HighlightInitializer(config=LightorConfig())
    initializer.fit([dataset[0].training_pair])
    CORPUS_DIR.mkdir(parents=True, exist_ok=True)
    for stem, build in CORPUS:
        workload = build()
        report = run_load(
            SPEC, initializer, tier=TierSpec(shards=2, workers=2), workload=workload,
        )
        assert report.divergences == [], (stem, report.divergences)
        path = CORPUS_DIR / f"{stem}.trace"
        written = write_trace(
            path,
            workload,
            fingerprints={
                video_id: outcome.fingerprint
                for video_id, outcome in report.outcomes.items()
            },
            transport=report.transport,
            wire_codec=report.wire_codec,
            shards=report.shards,
        )
        print(
            f"{path.relative_to(REPO)}: {written:,} bytes, "
            f"{workload.total_events:,} events over {len(workload.plans)} channel(s)"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
