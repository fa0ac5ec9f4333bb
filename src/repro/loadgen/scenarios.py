"""Adversarial load scenarios: the traffic shapes that break live systems.

The base workload is a *steady* Zipf fleet — useful for scaling studies,
useless for the failure modes that actually page people.  Each scenario
here perturbs a :class:`~repro.loadgen.workload.WorkloadSpec`'s fleet into
one of those shapes, deterministically (same spec ⇒ byte-identical
traffic, like everything in :mod:`repro.loadgen`), and ships with an
explicit oracle:

* ``flash-crowd`` — the head channel's viewership multiplies within a
  short surge window (a raid / frontpage moment): extra viewer sessions
  are generated past the base rounds and their timestamps compressed into
  the window.  Oracle: the sequential single-shard spot-check (the surge
  must not perturb a single byte of any channel's end state).
* ``chat-flood`` — one channel is spammed with a deterministic bot flood
  several times its organic chat volume.  Oracle: sequential spot-check.
* ``reconnect-storm`` — every batch that would have arrived during a
  simulated outage window arrives *at once* when the outage lifts (the
  thundering herd of reconnecting clients).  Only batch *arrivals* move —
  contents and per-channel order are untouched — so the oracle is
  fingerprint equality with the unperturbed base run **plus** the
  sequential spot-check.
* ``fairness`` — an extreme-skew fleet (one whale channel, a long tail)
  driven against per-channel admission budgets
  (``--max-pending-per-channel``): the gateway must refuse the whale's
  excess instead of letting it starve the tail out of the global budget.
  Oracle: sequential spot-check here; the 503-the-whale/serve-the-tail
  property itself is pinned at the gateway level in
  ``tests/test_server.py``.

``run_scenario`` is the one-call entry point (``repro load --scenario``);
``benchmarks/test_bench_scenarios.py`` records every scenario's throughput
and oracle verdict in ``BENCH_load.json``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable

from repro.core.types import ChatMessage, RedDot
from repro.loadgen.workload import (
    ChannelPlan,
    LoadWorkload,
    WorkBatch,
    WorkloadSpec,
)
from repro.simulation.viewers import ViewerBehaviorModel, ViewerPopulation
from repro.utils.rng import SeedSequenceFactory
from repro.utils.validation import ValidationError

__all__ = [
    "DEFAULT_KNOBS",
    "SCENARIOS",
    "Scenario",
    "ScenarioKnobs",
    "ScenarioReport",
    "build_scenario_workload",
    "run_scenario",
]

# Shape parameters that stay fixed: the *when* of each perturbation.  The
# severity parameters (how big the surge/flood/outage is) are CLI-tunable
# via ScenarioKnobs below.
_SURGE_START_FRAC = 0.25
_SURGE_WINDOW_SECONDS = 60.0
_VIEWERS_PER_ROUND = 10
_FLOOD_START_FRAC = 0.3
_FLOOD_WINDOW_SECONDS = 120.0

# Fairness: the whale-and-tail skew exponent.
_FAIRNESS_ZIPF = 3.0


@dataclass(frozen=True)
class ScenarioKnobs:
    """Severity knobs for the adversarial scenarios.

    The defaults reproduce the shapes the benchmarks record
    (``BENCH_load.json``); ``repro load --scenario-*`` flags override them
    per run.  Every field is validated on construction so a bad CLI value
    fails before any traffic is synthesised.

    surge_factor:
        ``flash-crowd`` — the head channel's viewership multiplier.
    flood_factor:
        ``chat-flood`` — spam messages per organic chat message (with a
        floor of 64 spam messages so tiny fleets still flood).
    outage_start_frac / outage_length_frac:
        ``reconnect-storm`` — where the outage window starts and how long
        it lasts, both as fractions of the latest batch arrival.
    """

    surge_factor: int = 20
    flood_factor: int = 4
    outage_start_frac: float = 0.35
    outage_length_frac: float = 0.25

    def __post_init__(self) -> None:
        if not isinstance(self.surge_factor, int) or self.surge_factor < 1:
            raise ValidationError(
                f"surge_factor must be an integer >= 1, got {self.surge_factor!r}"
            )
        if not isinstance(self.flood_factor, int) or self.flood_factor < 1:
            raise ValidationError(
                f"flood_factor must be an integer >= 1, got {self.flood_factor!r}"
            )
        if not 0.0 <= self.outage_start_frac < 1.0:
            raise ValidationError(
                f"outage_start_frac must be in [0, 1), got {self.outage_start_frac!r}"
            )
        if not 0.0 < self.outage_length_frac <= 1.0:
            raise ValidationError(
                f"outage_length_frac must be in (0, 1], got {self.outage_length_frac!r}"
            )
        if self.outage_start_frac + self.outage_length_frac > 1.0:
            raise ValidationError(
                "the outage window must end within the run: "
                f"start {self.outage_start_frac} + length {self.outage_length_frac} > 1"
            )


DEFAULT_KNOBS = ScenarioKnobs()


def _surge_anchors(plan: ChannelPlan) -> list[RedDot]:
    """The anchor dots viewer sessions orbit — same rule as the workload."""
    video, duration = plan.video, plan.duration
    anchors = [
        RedDot(position=min(h.start + 25.0, duration - 1.0), video_id=video.video_id)
        for h in video.highlights
        if h.start < duration - 30.0
    ]
    return anchors or [RedDot(position=duration / 2.0, video_id=video.video_id)]


def _flash_crowd(spec: WorkloadSpec, knobs: ScenarioKnobs) -> LoadWorkload:
    """The head channel's viewership ``surge_factor``-xes inside the window."""
    workload = LoadWorkload.from_spec(spec)
    head = workload.plans[0]
    anchors = _surge_anchors(head)
    behavior = ViewerBehaviorModel(seeds=SeedSequenceFactory(spec.seed))
    population = ViewerPopulation()

    # Continue the deterministic round sequence past where the base plan
    # stopped: the behaviour model keys its randomness on (video, dot,
    # round index), so rounds the base never ran are fresh sessions and the
    # base plan's own sessions are untouched.
    base_rounds = -(-head.viewers // _VIEWERS_PER_ROUND)
    extra_viewers = head.viewers * (knobs.surge_factor - 1)
    surge_start = head.duration * _SURGE_START_FRAC
    window = min(_SURGE_WINDOW_SECONDS, max(1.0, head.duration - surge_start - 1.0))

    surge = []
    remaining = extra_viewers
    round_index = base_rounds
    while remaining > 0:
        anchor = anchors[round_index % len(anchors)]
        batch = min(_VIEWERS_PER_ROUND, remaining)
        for event in behavior.simulate_round(
            head.video, anchor, n_viewers=batch,
            round_index=round_index, population=population,
        ):
            # Compress the session into the surge window: the whole crowd
            # arrives within seconds, not spread over the stream.
            position = surge_start + (event.timestamp / head.duration) * window
            if position < head.duration:
                surge.append(replace(event, timestamp=position))
        remaining -= batch
        round_index += 1

    merged = sorted(head.plays + tuple(surge), key=lambda event: event.timestamp)
    plans = list(workload.plans)
    plans[0] = replace(
        head, plays=tuple(merged), viewers=head.viewers * knobs.surge_factor
    )
    return LoadWorkload(spec=spec, plans=plans)


def _chat_flood(spec: WorkloadSpec, knobs: ScenarioKnobs) -> LoadWorkload:
    """One channel is spammed with a deterministic bot flood."""
    workload = LoadWorkload.from_spec(spec)
    head = workload.plans[0]
    flood_start = head.duration * _FLOOD_START_FRAC
    window = min(_FLOOD_WINDOW_SECONDS, max(1.0, head.duration - flood_start - 1.0))
    count = max(64, knobs.flood_factor * len(head.chat))
    flood = tuple(
        ChatMessage(
            timestamp=min(flood_start + (index * window) / count, head.duration - 1e-6),
            user=f"flood-bot-{index % 97}",
            text="SPAM SPAM SPAM raid raid raid",
        )
        for index in range(count)
    )
    merged = sorted(head.chat + flood, key=lambda message: message.timestamp)
    plans = list(workload.plans)
    plans[0] = replace(head, chat=tuple(merged))
    return LoadWorkload(spec=spec, plans=plans)


@dataclass
class _ReconnectStormWorkload(LoadWorkload):
    """A workload whose batch arrivals collapse onto the outage end.

    Every batch whose arrival falls inside the outage window is remapped to
    arrive exactly when the outage lifts — the thundering herd.  Contents
    and per-channel relative order are untouched (the global re-sort keys
    on ``(arrival, video_id, sequence)`` and the original global sequence
    preserves per-channel order), so the end state must be byte-identical
    to the unperturbed run — which is exactly the scenario's oracle.
    """

    outage_start_frac: float = DEFAULT_KNOBS.outage_start_frac
    outage_length_frac: float = DEFAULT_KNOBS.outage_length_frac

    def batches(self) -> list[WorkBatch]:
        base = super().batches()
        if not base:
            return base
        horizon = max(batch.arrival for batch in base)
        outage_start = horizon * self.outage_start_frac
        outage_end = outage_start + horizon * self.outage_length_frac
        remapped = [
            replace(batch, arrival=outage_end)
            if outage_start <= batch.arrival < outage_end
            else batch
            for batch in base
        ]
        remapped.sort(key=lambda batch: (batch.arrival, batch.video_id, batch.sequence))
        return [
            replace(batch, sequence=sequence)
            for sequence, batch in enumerate(remapped)
        ]


def _reconnect_storm(spec: WorkloadSpec, knobs: ScenarioKnobs) -> LoadWorkload:
    workload = LoadWorkload.from_spec(spec)
    return _ReconnectStormWorkload(
        spec=spec,
        plans=workload.plans,
        outage_start_frac=knobs.outage_start_frac,
        outage_length_frac=knobs.outage_length_frac,
    )


def _fairness(spec: WorkloadSpec, knobs: ScenarioKnobs) -> LoadWorkload:
    """One whale channel and a starving tail: extreme Zipf skew."""
    return LoadWorkload.from_spec(replace(spec, zipf_exponent=_FAIRNESS_ZIPF))


@dataclass(frozen=True)
class Scenario:
    """One adversarial traffic shape and how to judge a run of it.

    ``oracle`` is ``"sequential"`` (the single-shard spot-check must report
    zero divergences) or ``"baseline"`` (additionally, fingerprints must
    equal the *unperturbed* base workload's sequential run byte-for-byte).
    """

    name: str
    description: str
    build: Callable[[WorkloadSpec, ScenarioKnobs], LoadWorkload]
    oracle: str = "sequential"


SCENARIOS: dict[str, Scenario] = {
    scenario.name: scenario
    for scenario in (
        Scenario(
            name="flash-crowd",
            description=(
                f"head channel viewership {DEFAULT_KNOBS.surge_factor}x-es "
                f"(default) inside a {_SURGE_WINDOW_SECONDS:.0f}s surge window"
            ),
            build=_flash_crowd,
        ),
        Scenario(
            name="chat-flood",
            description=(
                f"head channel spammed with {DEFAULT_KNOBS.flood_factor}x "
                "(default) its organic chat volume of bot messages"
            ),
            build=_chat_flood,
        ),
        Scenario(
            name="reconnect-storm",
            description=(
                "every batch due during a simulated outage arrives at once "
                "when it lifts"
            ),
            build=_reconnect_storm,
            oracle="baseline",
        ),
        Scenario(
            name="fairness",
            description=(
                f"extreme-skew fleet (zipf {_FAIRNESS_ZIPF}) against "
                "per-channel admission budgets"
            ),
            build=_fairness,
        ),
    )
}


def build_scenario_workload(
    name: str, spec: WorkloadSpec, knobs: ScenarioKnobs | None = None
) -> LoadWorkload:
    """The named scenario's perturbed workload for ``spec``."""
    scenario = SCENARIOS.get(name)
    if scenario is None:
        raise ValidationError(
            f"unknown scenario {name!r} (expected one of {sorted(SCENARIOS)})"
        )
    return scenario.build(spec, knobs or DEFAULT_KNOBS)


@dataclass(frozen=True)
class ScenarioReport:
    """A scenario run, its load report and every oracle verdict."""

    name: str
    oracle: str
    report: object
    workload: LoadWorkload
    baseline_divergences: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Whether every oracle the scenario declares held."""
        return not self.report.divergences and not self.baseline_divergences

    def describe(self) -> str:
        """Multi-line human-readable summary for the CLI."""
        scenario = SCENARIOS[self.name]
        lines = [f"scenario {self.name}: {scenario.description}", self.report.describe()]
        if self.oracle == "baseline":
            if self.baseline_divergences:
                lines.append(
                    "  BASELINE DIVERGENCE on "
                    f"{len(self.baseline_divergences)} channel(s): "
                    + ", ".join(self.baseline_divergences)
                )
            else:
                lines.append(
                    "  baseline check: fingerprints byte-identical to the "
                    "unperturbed run"
                )
        return "\n".join(lines)


def run_scenario(
    name: str,
    spec: WorkloadSpec,
    initializer,
    *,
    shards: int = 1,
    workers: int = 4,
    backend: str = "memory",
    db_path=None,
    oracle: bool = True,
    transport: str = "inproc",
    wire_codec: str = "json",
    cluster_seed: int = 2020,
    per_channel_pending: int | None = None,
    knobs: ScenarioKnobs | None = None,
) -> ScenarioReport:
    """Build the named scenario's workload, drive it, judge it.

    ``per_channel_pending`` arms the gateway's per-channel admission budget
    on wire transports (the ``fairness`` scenario's subject); the harness
    gives each channel a single driver worker — at most one request in
    flight per channel — so any budget ≥ 1 never refuses the drive itself.
    """
    from repro.loadgen.driver import oracle_fingerprints, run_load

    scenario = SCENARIOS.get(name)
    if scenario is None:
        raise ValidationError(
            f"unknown scenario {name!r} (expected one of {sorted(SCENARIOS)})"
        )
    workload = scenario.build(spec, knobs or DEFAULT_KNOBS)
    report = run_load(
        spec,
        initializer,
        shards=shards,
        workers=workers,
        backend=backend,
        db_path=db_path,
        oracle=oracle,
        workload=workload,
        transport=transport,
        wire_codec=wire_codec,
        cluster_seed=cluster_seed,
        per_channel_pending=per_channel_pending,
    )

    baseline_divergences: list[str] = []
    if scenario.oracle == "baseline" and oracle:
        # The perturbation promises to change *when* batches arrive, never
        # what they contain — so the scenario's end state must equal the
        # unperturbed workload's, byte for byte.
        base = oracle_fingerprints(LoadWorkload.from_spec(spec), initializer)
        baseline_divergences = [
            video_id
            for video_id, fingerprint in sorted(base.items())
            if report.outcomes.get(video_id) is None
            or report.outcomes[video_id].fingerprint != fingerprint
        ]

    return ScenarioReport(
        name=name,
        oracle=scenario.oracle,
        report=report,
        workload=workload,
        baseline_divergences=baseline_divergences,
    )
