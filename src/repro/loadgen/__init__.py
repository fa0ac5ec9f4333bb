"""Load generation and soak testing for the LIGHTOR service tier.

The platform's premise is implicit crowdsourcing at scale — thousands of
concurrent channels, each with a chat firehose and a viewer-play firehose.
This package generates that traffic deterministically and drives it through
the sharded service so throughput, latency and correctness can be measured
instead of assumed:

* :mod:`workload <repro.loadgen.workload>` — seedable multi-channel traffic
  synthesis from the :mod:`repro.simulation` primitives: Zipf-skewed channel
  popularity, channel lifecycle churn, per-channel chat and viewer-play
  streams chunked into ingest batches.
* :mod:`driver <repro.loadgen.driver>` — the harness: a worker pool replays
  the batches through a :class:`~repro.platform.sharding.ShardedLightorService`
  (in process, over HTTP or across shard processes), times every call, and
  compares every channel's end state with one oracle,
  :func:`~repro.loadgen.driver.oracle_fingerprints` (a sequential
  single-shard replay; zero divergences or the run fails).  A fault
  schedule of ``(after, action)`` entries disturbs the tier mid-run:
  :func:`~repro.loadgen.driver.reshard_to` and other inline actions run
  on the worker that completes batch ``after`` while traffic continues,
  and :data:`~repro.loadgen.driver.KILL` crashes the tier, rebuilds it
  from its durable checkpoints and finishes the run.
* :mod:`metrics <repro.loadgen.metrics>` — per-stage throughput and latency
  percentile accounting.
* :mod:`trace <repro.loadgen.trace>` — versioned record/replay: any run can
  be recorded to a framed binary trace and replayed byte-exactly through
  any transport and codec, gated by fingerprint equality with the
  recording (``tests/traces/`` keeps a golden corpus).
* :mod:`scenarios <repro.loadgen.scenarios>` — adversarial traffic shapes
  (flash crowds, chat floods, reconnect storms, multi-tenant fairness),
  each with an explicit oracle and a ``BENCH_load.json`` entry.

Entry points: ``repro load`` on the command line,
:func:`~repro.loadgen.driver.run_load` from code, and
``benchmarks/test_bench_load.py`` for the batch-size × shard-count scaling
study (``BENCH_load.json``).  ``docs/load_testing.md`` documents the design
and how to read the results.
"""

from repro.loadgen.driver import (
    KILL,
    ChannelOutcome,
    FaultOutcome,
    LoadGenerator,
    LoadReport,
    oracle_fingerprints,
    reshard_to,
    run_load,
)
from repro.loadgen.metrics import LatencyRecorder, StageStats, merge_recorders
from repro.loadgen.scenarios import (
    DEFAULT_KNOBS,
    SCENARIOS,
    Scenario,
    ScenarioKnobs,
    ScenarioReport,
    build_scenario_workload,
    run_scenario,
)
from repro.loadgen.trace import (
    LoadTrace,
    ReplayReport,
    ReplayWorkload,
    TraceFormatError,
    read_trace,
    replay_trace,
    write_trace,
)
from repro.loadgen.workload import (
    ChannelPlan,
    LoadWorkload,
    WorkBatch,
    WorkloadSpec,
    zipf_weights,
)

__all__ = [
    "DEFAULT_KNOBS",
    "KILL",
    "SCENARIOS",
    "ChannelOutcome",
    "ChannelPlan",
    "FaultOutcome",
    "LatencyRecorder",
    "LoadGenerator",
    "LoadReport",
    "LoadTrace",
    "LoadWorkload",
    "ReplayReport",
    "ReplayWorkload",
    "Scenario",
    "ScenarioKnobs",
    "ScenarioReport",
    "StageStats",
    "TraceFormatError",
    "WorkBatch",
    "WorkloadSpec",
    "build_scenario_workload",
    "merge_recorders",
    "oracle_fingerprints",
    "read_trace",
    "replay_trace",
    "reshard_to",
    "run_load",
    "run_scenario",
    "write_trace",
    "zipf_weights",
]
