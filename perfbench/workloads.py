"""The three LIGHTOR workloads: traffic, set-up, drive and sequential oracle.

Traffic comes from :class:`repro.loadgen.LoadWorkload`: the channels of a
run are picked from a pool that ``LoadWorkload.from_spec`` synthesizes from
the seed, and given Zipf audiences (see :func:`balanced_fleet`).  Two
clients run in one process and each owns a fixed half of the channels or
videos, so no channel ever has two calls in flight.  A workload runs in
*rounds*: each round sets up a fresh tier, drives the whole traffic through
it and fingerprints what the tier persisted.  Every round replays identical
traffic, so one sequential replay into a 1-shard in-memory tier is the
oracle for all of them.
"""

from __future__ import annotations

import json
import math
import time
from collections import defaultdict
from dataclasses import dataclass, field, replace
from pathlib import Path
from threading import Thread

import numpy as np

from repro.core.config import LightorConfig
from repro.core.initializer.initializer import HighlightInitializer
from repro.datasets import DatasetSpec, build_dataset
from repro.loadgen import LoadWorkload, WorkloadSpec
from repro.loadgen.workload import zipf_weights
from repro.platform import codecs
from repro.platform.client import LightorClient
from repro.platform.server import GatewayThread
from repro.platform.sharding import ShardedLightorService
from repro.simulation.viewers import ViewerBehaviorModel, ViewerPopulation
from repro.utils.rng import SeedSequenceFactory

CLIENTS = 2
POOL_FACTOR = 2
FAILED = object()


def training_pair():
    """The labelled video every set-up fits the Initializer on."""
    return build_dataset(DatasetSpec.dota2(size=1, seed=2020))[0].training_pair


def chat_rate(plan) -> float:
    """A channel's chat messages per hour of stream."""
    return max(len(plan.chat), 1) / plan.duration * 3600.0


def balanced_fleet(spec: WorkloadSpec, seed: int, rates: tuple[float, float]) -> LoadWorkload:
    """``spec.channels`` channels from the seed, with a fixed spread of chat rates.

    Synthetic channels draw their chat activity from a wide log-normal, so
    two seeds' fleets of a dozen channels can differ twofold in chat volume
    and in cost.  A pool of :data:`POOL_FACTOR` times the channels is
    synthesized from the seed instead, and for each of ``spec.channels``
    target rates spaced evenly on a log scale across ``rates`` (messages per
    hour, measured by ``rate_band.py``) the closest unused channel is kept.
    Viewers are then split over the kept channels by the spec's Zipf
    exponent, the busiest chat drawing the largest audience, and their
    plays are drawn the way ``LoadWorkload.from_spec`` draws them.  Seeds
    still change every event; they no longer change how much work a run is.
    The fleet is therefore not the one ``repro load`` builds for the spec.
    """
    channels = spec.channels * POOL_FACTOR
    # One viewer per pool channel: the kept channels' plays are drawn below.
    pool = LoadWorkload.from_spec(replace(spec, seed=seed, channels=channels, viewers=channels))
    rate = [chat_rate(plan) for plan in pool.plans]
    free = list(range(len(pool.plans)))
    chosen = []
    for target in np.geomspace(rates[0], rates[1], spec.channels):
        best = min(free, key=lambda index: abs(math.log(rate[index] / target)))
        free.remove(best)
        chosen.append(best)
    by_rate = sorted(chosen, key=lambda index: (-rate[index], index))
    weights = zipf_weights(spec.channels, spec.zipf_exponent)
    audience = {
        index: max(1, int(round(spec.viewers * float(weight))))
        for index, weight in zip(by_rate, weights)
    }
    behavior = ViewerBehaviorModel(seeds=SeedSequenceFactory(seed))
    population = ViewerPopulation()
    plans = []
    for order, index in enumerate(sorted(chosen)):
        plan = pool.plans[index]
        plays = LoadWorkload._viewer_plays(
            behavior, population, plan.video, plan.duration, audience[index]
        )
        plans.append(
            replace(
                plan, start_offset=order * spec.stagger, plays=plays, viewers=audience[index]
            )
        )
    return LoadWorkload(spec=replace(spec, seed=seed), plans=plans)


def fingerprint(store, video_id: str, returned=None) -> str:
    """Canonical JSON of what a tier persisted for one channel or video."""
    payload = {
        "stored_dots": [codecs.red_dot_to_dict(dot) for dot in store.get_red_dots(video_id)],
        "highlights": [
            codecs.highlight_record_to_dict(record)
            for record in store.highlight_history(video_id)
        ],
        "interactions": [
            codecs.interaction_to_dict(interaction)
            for interaction in store.get_interactions(video_id)
        ],
    }
    if returned is not None:
        payload["dots"] = [codecs.red_dot_to_dict(dot) for dot in returned]
    return json.dumps(payload, sort_keys=True, allow_nan=False)


class Recorder:
    """One client's samples; merged after the drive, so no lock is shared."""

    def __init__(self, tracer) -> None:
        self.tracer = tracer
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.attempted = 0
        self.events = 0
        self.busy_s = 0.0  # time spent inside calls, from send to reply
        self.failures: list[str] = []

    def call(self, op: str, fn, *args, due: float | None = None, **kwargs):
        """Time one call (from ``due`` when given); ``FAILED`` if it raised."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            with self.tracer.root(op):
                result = fn(*args, **kwargs)
        except Exception as error:  # noqa: BLE001 - counted, reported, run fails
            self.failures.append(f"{op} {args[:1]!r}: {error!r}")
            return FAILED
        end = time.perf_counter()
        self.busy_s += end - start
        self.samples[op].append(end - (start if due is None else due))
        return result


def run_clients(body, recorders: list[Recorder]) -> float:
    """Run ``body(index, recorder)`` on one thread per client; wall seconds."""

    def guarded(index: int) -> None:
        try:
            body(index, recorders[index])
        except Exception as error:  # noqa: BLE001 - a dead client fails the run
            recorders[index].failures.append(f"client {index} stopped: {error!r}")

    threads = [
        Thread(target=guarded, args=(index,), name=f"bench-client-{index}", daemon=True)
        for index in range(len(recorders))
    ]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return time.perf_counter() - started


def balanced_owners(plans: dict) -> dict[str, int]:
    """Each channel's client: heaviest first, to the client with less work.

    Both clients then finish their halves together, so the drive does not
    end with one client running alone for a seed-dependent while.
    """
    load = [0] * CLIENTS
    owner = {}
    for vid, plan in sorted(plans.items(), key=lambda item: (-item[1].total_events, item[0])):
        client = load.index(min(load))
        owner[vid] = client
        load[client] += plan.total_events
    return owner


class Tier:
    """A service tier for one round, in process or behind an HTTP gateway."""

    def __init__(self, service: ShardedLightorService) -> None:
        self.service = service
        self.gateway: GatewayThread | None = None
        self.frontends: list = [service] * CLIENTS

    def serve(self) -> None:
        """Put the JSON gateway in front; each client gets its own connection."""
        self.gateway = GatewayThread(self.service, max_pending=64, worker_threads=CLIENTS)
        host, port = self.gateway.start()
        self.frontends = [LightorClient(host, port) for _ in range(CLIENTS)]

    def gateway_counters(self) -> dict[str, int]:
        """Byte and refusal counters from the gateway's ``/metrics``."""
        if self.gateway is None:
            return {}
        wanted = {
            "lightor_gateway_bytes_in_total": "gateway.bytes_in",
            "lightor_gateway_bytes_out_total": "gateway.bytes_out",
            "lightor_gateway_rejected_total": "gateway.rejected",
        }
        counters = {}
        for line in self.frontends[0].metrics().splitlines():
            name, _, value = line.partition(" ")
            if name in wanted:
                counters[wanted[name]] = int(value)
        return counters

    def close(self) -> None:
        try:
            for frontend in self.frontends:
                if isinstance(frontend, LightorClient):
                    frontend.close()
            if self.gateway is not None:
                self.gateway.stop()
        finally:
            self.service.close()


@dataclass
class Traffic:
    """One seed's generated inputs, reused by every round of a run."""

    plans: dict
    batches: list = field(default_factory=list)
    schedule: list = field(default_factory=list)
    sizes: dict = field(default_factory=dict)


@dataclass
class RoundResult:
    """What one round measured and what its tier persisted."""

    traced: bool
    setup_s: float
    wall_s: float
    busy_s: float
    events: int
    samples: dict
    attempted: int
    failures: list
    fingerprints: dict
    gateway: dict


class Workload:
    """Shared round mechanics; subclasses supply traffic, set-up and drive."""

    name: str
    why: str
    loop: str
    hot_op: str
    cold_op: str
    named: list  # (issue metric name, op, quantile)

    def synthesize(self, seed: int) -> Traffic:
        raise NotImplementedError

    def _tier(self, traffic: Traffic, initializer, workdir: Path) -> Tier:
        raise NotImplementedError

    def _drive(self, tier: Tier, traffic: Traffic, recorders: list[Recorder]) -> float:
        raise NotImplementedError

    def _close(self, tier: Tier, traffic: Traffic, recorder: Recorder) -> dict:
        return {vid: None for vid in traffic.plans}

    def oracle(self, traffic: Traffic, training) -> dict[str, str]:
        raise NotImplementedError

    def events_per_s(self, result: RoundResult) -> float:
        """A closed loop keeps every client busy: events over the drive's wall time."""
        return result.events / result.wall_s

    def setup(self, traffic: Traffic, training, workdir: Path) -> tuple[Tier, float]:
        """Fit the Initializer and build the tier; the timed set-up."""
        started = time.perf_counter()
        initializer = HighlightInitializer(config=LightorConfig()).fit([training])
        tier = self._tier(traffic, initializer, workdir)
        return tier, time.perf_counter() - started

    def run_round(self, traffic: Traffic, training, workdir: Path, tracer, traced: bool) -> RoundResult:
        tier, setup_s = self.setup(traffic, training, workdir)
        try:
            recorders = [Recorder(tracer) for _ in range(CLIENTS)]
            closing = Recorder(tracer)
            with tracer.installed():
                wall = self._drive(tier, traffic, recorders)
                returned = self._close(tier, traffic, closing)
            fingerprints = {
                vid: fingerprint(tier.service.store_for(vid), vid, dots)
                for vid, dots in returned.items()
                if dots is not FAILED
            }
            gateway = tier.gateway_counters()
        finally:
            tier.close()
        samples: dict[str, list[float]] = defaultdict(list)
        for recorder in recorders + [closing]:
            for op, values in recorder.samples.items():
                samples[op].extend(values)
        return RoundResult(
            traced=traced,
            setup_s=setup_s,
            wall_s=wall,
            busy_s=sum(r.busy_s for r in recorders),
            events=sum(r.events for r in recorders),
            samples=dict(samples),
            attempted=sum(r.attempted for r in recorders) + closing.attempted,
            failures=[f for r in recorders + [closing] for f in r.failures],
            fingerprints=fingerprints,
            gateway=gateway,
        )


class LiveWorkload(Workload):
    """Live channels: chat and play batches, then ``end_live`` per channel."""

    loop = "closed"
    hot_op, cold_op = "chat", "close"
    named = [
        ("chat_p50_ms", "chat", 0.5),
        ("chat_p99_ms", "chat", 0.99),
        ("plays_p50_ms", "plays", 0.5),
        ("plays_p99_ms", "plays", 0.99),
        ("close_p50_ms", "close", 0.5),
    ]

    def __init__(
        self,
        name: str,
        why: str,
        spec: WorkloadSpec,
        rates: tuple[float, float],
        *,
        wire: bool,
        shards: int,
        backend: str,
        persist: bool,
        checkpoint_every: int | None,
    ) -> None:
        self.name = name
        self.why = why
        self.spec = spec
        self.rates = rates
        self.wire = wire
        self.shards = shards
        self.backend = backend
        self.persist = persist
        self.checkpoint_every = checkpoint_every

    def synthesize(self, seed: int) -> Traffic:
        workload = balanced_fleet(self.spec, seed, self.rates)
        batches = workload.batches()
        return Traffic(
            plans={plan.video.video_id: plan for plan in workload.plans},
            batches=batches,
            sizes={
                "channels": len(workload.plans),
                "chat_events": workload.total_chat,
                "play_events": workload.total_plays,
                "batches": len(batches),
                "batch_size": self.spec.batch_size,
                "stream_seconds_cap": self.spec.duration,
                "chat_rate_band_per_hour": list(self.rates),
            },
        )

    def _tier(self, traffic: Traffic, initializer, workdir: Path) -> Tier:
        service = ShardedLightorService.create(
            self.shards,
            initializer,
            backend=self.backend,
            db_path=workdir / "live.db" if self.backend == "sqlite" else None,
            max_live_sessions=len(traffic.plans),
            checkpoint_every=self.checkpoint_every,
        )
        tier = Tier(service)
        if self.wire:
            try:
                tier.serve()
            except BaseException:
                tier.close()
                raise
        return tier

    def _drive(self, tier: Tier, traffic: Traffic, recorders: list[Recorder]) -> float:
        owner = balanced_owners(traffic.plans)
        queues: list[list] = [[] for _ in range(CLIENTS)]
        for batch in traffic.batches:
            queues[owner[batch.video_id]].append(batch)
        with_traffic = {batch.video_id for batch in traffic.batches}
        for vid, plan in sorted(traffic.plans.items()):
            if vid not in with_traffic:
                tier.frontends[0].start_live(plan.video)

        def client(index: int, recorder: Recorder) -> None:
            frontend = tier.frontends[index]
            opened: set[str] = set()
            for batch in queues[index]:
                vid = batch.video_id
                if vid not in opened:
                    recorder.call("open", frontend.start_live, traffic.plans[vid].video)
                    opened.add(vid)
                events = list(batch.events)
                if batch.kind == "chat":
                    result = recorder.call(
                        "chat", frontend.ingest_chat_batch, vid, events, persist=self.persist
                    )
                else:
                    result = recorder.call("plays", frontend.ingest_plays_batch, vid, events)
                if result is not FAILED:
                    recorder.events += len(events)
                # A remote collector's next call arrives a turnaround later;
                # yield so a client that just released the shard lock does not
                # take it straight back from the other client waiting on it.
                time.sleep(0)

        return run_clients(client, recorders)

    def _close(self, tier: Tier, traffic: Traffic, recorder: Recorder) -> dict:
        frontend = tier.frontends[0]
        return {
            vid: recorder.call("close", frontend.end_live, vid, plan.duration)
            for vid, plan in sorted(traffic.plans.items())
        }

    def oracle(self, traffic: Traffic, training) -> dict[str, str]:
        """Replay the batches in global order into one in-memory shard."""
        initializer = HighlightInitializer(config=LightorConfig()).fit([training])
        service = ShardedLightorService.create(
            1, initializer, backend="memory", max_live_sessions=len(traffic.plans)
        )
        try:
            opened: set[str] = set()
            for batch in traffic.batches:
                vid = batch.video_id
                if vid not in opened:
                    service.start_live(traffic.plans[vid].video)
                    opened.add(vid)
                if batch.kind == "chat":
                    service.ingest_chat_batch(vid, list(batch.events), persist=self.persist)
                else:
                    service.ingest_plays_batch(vid, list(batch.events))
            for vid, plan in sorted(traffic.plans.items()):
                if vid not in opened:
                    service.start_live(plan.video)
            return {
                vid: fingerprint(service.store_for(vid), vid, service.end_live(vid, plan.duration))
                for vid, plan in sorted(traffic.plans.items())
            }
        finally:
            service.close()


@dataclass(frozen=True)
class Request:
    """One scheduled viewer request of the recorded-reads loop."""

    due: float
    video_id: str
    kind: str  # first_dots | read | log | refine
    interactions: tuple = ()


class RecordedWorkload(Workload):
    """Recorded videos served over HTTP on an open-loop request schedule."""

    loop = "open"
    hot_op, cold_op = "read", "first_dots"
    named = [
        ("read_p50_ms", "read", 0.5),
        ("read_p99_ms", "read", 0.99),
        ("first_dots_p50_ms", "first_dots", 0.5),
        ("log_p50_ms", "log", 0.5),
        ("refine_p50_ms", "refine", 0.5),
    ]

    def __init__(
        self,
        name: str,
        why: str,
        spec: WorkloadSpec,
        rates: tuple[float, float],
        *,
        rate: float,
        requests: int,
        reads_per_log: int,
        logs_per_refine: int,
        log_size: int,
        shards: int,
    ) -> None:
        self.name = name
        self.why = why
        self.spec = spec
        self.rates = rates
        self.rate = rate
        self.requests = requests
        self.reads_per_log = reads_per_log
        self.logs_per_refine = logs_per_refine
        self.log_size = log_size
        self.shards = shards

    def synthesize(self, seed: int) -> Traffic:
        workload = balanced_fleet(self.spec, seed, self.rates)
        schedule = self._schedule(workload.plans, seed)
        kinds = defaultdict(int)
        for request in schedule:
            kinds[request.kind] += 1
        return Traffic(
            plans={plan.video.video_id: plan for plan in workload.plans},
            schedule=schedule,
            sizes={
                "videos": len(workload.plans),
                "stored_chat": workload.total_chat,
                "mean_video_seconds": round(
                    sum(plan.duration for plan in workload.plans) / len(workload.plans), 1
                ),
                "chat_rate_band_per_hour": list(self.rates),
                "requests": len(schedule),
                "rate_per_s": self.rate,
                **{f"requests_{kind}": count for kind, count in sorted(kinds.items())},
            },
        )

    def _schedule(self, plans, seed: int) -> list[Request]:
        """Poisson arrivals, Zipf video popularity, logs and refines mixed in.

        Videos become recorded one after another, most popular first, at
        even steps over the first three quarters of the round, the way live
        streams end; the first request for each video, which runs the
        Initializer, is due the moment it is released.  Spreading those
        first requests keeps them from stacking into one backlog at the
        start, and consecutive videos belong to different clients.
        """
        rng = np.random.default_rng([seed, len(plans), self.requests])
        span = self.requests / self.rate
        # A Poisson process conditioned on its count: sorted uniform times.
        due = np.sort(rng.uniform(0.0, span, size=self.requests))
        release_gap = 0.75 * span / len(plans)
        weights = zipf_weights(len(plans), 1.0)
        uniforms = rng.random(self.requests)
        coins = rng.random(self.requests)
        cursor: dict[str, int] = defaultdict(int)
        logs: dict[str, int] = defaultdict(int)
        refine_due: set[str] = set()
        schedule = [
            Request(rank * release_gap, plan.video.video_id, "first_dots")
            for rank, plan in enumerate(plans)
        ]
        for when, uniform, coin in zip(due, uniforms, coins):
            released = min(len(plans), int(when / release_gap) + 1)
            cumulative = np.cumsum(weights[:released])
            pick = int(np.searchsorted(cumulative, uniform * cumulative[-1], side="right"))
            plan = plans[min(pick, released - 1)]
            vid = plan.video.video_id
            interactions: tuple = ()
            if vid in refine_due:
                kind = "refine"
                refine_due.discard(vid)
            elif coin < 1.0 / (self.reads_per_log + 1) and cursor[vid] < len(plan.plays):
                kind = "log"
                interactions = plan.plays[cursor[vid] : cursor[vid] + self.log_size]
                cursor[vid] += self.log_size
                logs[vid] += 1
                if logs[vid] % self.logs_per_refine == 0:
                    refine_due.add(vid)
            else:
                kind = "read"
            schedule.append(Request(float(when), vid, kind, interactions))
        return sorted(schedule, key=lambda request: request.due)

    def events_per_s(self, result: RoundResult) -> float:
        """Requests per second of client busy time: the capacity the drive used.

        An open loop completes requests at the schedule's rate whatever the
        tier does, so wall time would only measure the generator.  Dividing
        by the time the clients spent inside calls instead gives the rate
        the clients could sustain back to back.
        """
        return result.events / (result.busy_s / CLIENTS)

    def _load(self, service: ShardedLightorService, traffic: Traffic) -> None:
        for vid, plan in sorted(traffic.plans.items()):
            service.register_video(plan.video)
            service.store_for(vid).put_chat(vid, plan.chat)

    def _tier(self, traffic: Traffic, initializer, workdir: Path) -> Tier:
        service = ShardedLightorService.create(
            self.shards, initializer, backend="sqlite", db_path=workdir / "recorded.db"
        )
        tier = Tier(service)
        try:
            self._load(service, traffic)
            tier.serve()
        except BaseException:
            tier.close()
            raise
        return tier

    @staticmethod
    def _send(recorder: Recorder, frontend, request: Request, due: float) -> None:
        if request.kind in ("first_dots", "read"):
            recorder.call(request.kind, frontend.request_red_dots, request.video_id, due=due)
        elif request.kind == "log":
            recorder.call(
                "log", frontend.log_interactions, request.video_id, list(request.interactions), due=due
            )
        else:
            recorder.call("refine", frontend.refine_video, request.video_id, due=due)

    def _drive(self, tier: Tier, traffic: Traffic, recorders: list[Recorder]) -> float:
        # Videos alternate between the clients in release order.
        owner = {vid: rank % CLIENTS for rank, vid in enumerate(traffic.plans)}
        queues: list[list[Request]] = [[] for _ in range(CLIENTS)]
        for request in traffic.schedule:
            queues[owner[request.video_id]].append(request)
        origin = time.perf_counter() + 0.005

        def client(index: int, recorder: Recorder) -> None:
            frontend = tier.frontends[index]
            for request in queues[index]:
                due = origin + request.due
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                recorder.samples["late"].append(time.perf_counter() - due)
                failures = len(recorder.failures)
                self._send(recorder, frontend, request, due)
                if len(recorder.failures) == failures:
                    recorder.events += 1

        return run_clients(client, recorders)

    def oracle(self, traffic: Traffic, training) -> dict[str, str]:
        """Replay each video's requests in order on one in-memory shard."""
        initializer = HighlightInitializer(config=LightorConfig()).fit([training])
        service = ShardedLightorService.create(1, initializer, backend="memory")
        try:
            self._load(service, traffic)
            for request in traffic.schedule:
                vid = request.video_id
                if request.kind in ("first_dots", "read"):
                    service.request_red_dots(vid)
                elif request.kind == "log":
                    service.log_interactions(vid, list(request.interactions))
                else:
                    service.refine_video(vid)
            return {vid: fingerprint(service.store_for(vid), vid) for vid in sorted(traffic.plans)}
        finally:
            service.close()


# Each workload's ``rates`` are the 15th and 85th percentiles of the chat
# rates of its channel pools over eight reference seeds, as printed by
# ``python3 perfbench/rate_band.py``.
WORKLOADS = {
    workload.name: workload
    for workload in (
        LiveWorkload(
            "soak-live",
            "6-hour live histories in process: the window fold and provisional re-score "
            "do the work, with no wire and no durable storage",
            WorkloadSpec(
                channels=8,
                viewers=1200,
                duration=21600.0,
                batch_size=64,
                zipf_exponent=1.0,
                stretch=True,
            ),
            (562.0, 2556.0),
            wire=False,
            shards=1,
            backend="memory",
            persist=False,
            checkpoint_every=None,
        ),
        LiveWorkload(
            "durable-wire",
            "short live histories over HTTP/JSON on 2 SQLite shards with checkpoints: "
            "per-call wire, routing and storage cost dominate",
            WorkloadSpec(
                channels=24, viewers=3600, duration=1800.0, batch_size=8, zipf_exponent=1.0
            ),
            (653.0, 3259.0),
            wire=True,
            shards=2,
            backend="sqlite",
            persist=True,
            checkpoint_every=256,
        ),
        RecordedWorkload(
            "recorded-reads",
            "open-loop Zipf red-dot reads of recorded videos over HTTP/JSON with "
            "interaction logs and refinement: cached reads and the recorded-video path",
            WorkloadSpec(
                channels=12, viewers=2400, duration=3600.0, zipf_exponent=1.0, stretch=True
            ),
            (619.0, 3236.0),
            rate=200.0,
            requests=1600,
            reads_per_log=20,
            logs_per_refine=10,
            log_size=8,
            shards=2,
        ),
    )
}
