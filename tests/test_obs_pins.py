"""Pinned observability output: the event trail and metrics, byte for byte.

Each stream drives a real entry point with an observer attached and
hashes two outputs:

- the canonical trace JSONL (:func:`repro.obs.tracing.render_trace_jsonl`,
  which already drops wall-clock fields);
- the metrics snapshot, minus the wall-clock histogram families.

A refactor of how events are built, stamped or counted must leave every
digest unchanged. Together the streams cover every registered event kind,
so no kind's fields, span ids or metric effects can drift unnoticed.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path
from typing import Callable

import pytest

from repro.capacity import make_capacity_scenario
from repro.capacity.engine import ClusterEngine
from repro.core.config import CaasperConfig
from repro.core.recommender import CaasperRecommender
from repro.engine import BatchEngine, EngineJob
from repro.faults.scenarios import make_scenario
from repro.fleet import FleetRunner
from repro.fleet.jobs import FleetPlan, ProbeJob
from repro.fleet.plans import sweep_plan
from repro.obs import Observer
from repro.obs.events import ObsEvent, _EVENT_TYPES
from repro.obs.tracing import render_trace_jsonl
from repro.serve.drill import drill_config
from repro.serve.harness import ServeHarness
from repro.sim.live import LiveSystemConfig, simulate_live
from repro.sim.simulator import SimulatorConfig, simulate_trace
from repro.store.cas import ResultStore
from repro.trace import CpuTrace
from repro.workloads.base import TraceWorkload
from repro.workloads.synthetic import cyclical_days, noisy, square_wave

pytestmark = pytest.mark.usefixtures("hard_timeout")

#: Families that measure wall clock; they differ run to run.
WALL_CLOCK_FAMILIES = frozenset(
    {"recommender_seconds", "sim_step_seconds", "fleet_job_seconds"}
)

Stream = tuple[Observer, list[ObsEvent]]


def _observer() -> Stream:
    events: list[ObsEvent] = []
    return Observer(sinks=[events.append], buffer_events=False), events


def _digests(stream: Stream) -> tuple[str, str]:
    observer, events = stream
    jsonl = render_trace_jsonl(events)
    snapshot = {
        name: value
        for name, value in observer.metrics.snapshot().items()
        if name not in WALL_CLOCK_FAMILIES
    }
    metrics = json.dumps(snapshot, sort_keys=True, separators=(",", ":"))
    return (
        hashlib.sha256(jsonl.encode("utf-8")).hexdigest(),
        hashlib.sha256(metrics.encode("utf-8")).hexdigest(),
    )


def simulate_stream(tmp_path: Path) -> Stream:
    """Observed offline simulation of a square wave."""
    observer, events = _observer()
    recommender = CaasperRecommender(
        CaasperConfig(max_cores=16, c_min=2), keep_decisions=False
    )
    simulate_trace(
        square_wave(total_hours=10.0),
        recommender,
        SimulatorConfig(initial_cores=4, max_cores=16),
        observer=observer,
    )
    return observer, events


def chaos_stream(tmp_path: Path) -> Stream:
    """The kitchen-sink chaos scenario against the hardened live loop."""
    observer, events = _observer()
    trace = cyclical_days(days=1, name="chaos-cyclical").window(0, 720)
    workload = TraceWorkload(trace)
    simulate_live(
        workload,
        CaasperRecommender(
            CaasperConfig(c_min=2, max_cores=16), keep_decisions=False
        ),
        LiveSystemConfig(),
        observer=observer,
        faults=make_scenario(
            "kitchen-sink", seed=0, horizon_minutes=workload.minutes
        ),
    )
    return observer, events


class _WideCeilingEngine(ClusterEngine):
    """The first tenant's recommender may ask past its pod's ``max_cores``."""

    def _build(self) -> None:
        super()._build()
        state = self.tenants[0]
        state.recommender = CaasperRecommender(
            CaasperConfig(c_min=state.spec.min_cores, max_cores=32),
            keep_decisions=False,
        )


def capacity_stream(tmp_path: Path) -> Stream:
    """Capacity chaos from a one-node pool: pending pods, scale-out/in,
    drains, contention and node faults, with one guardrail-clamped
    tenant."""
    observer, events = _observer()
    scenario = make_capacity_scenario("capacity-chaos", seed=3)
    first, *rest = scenario.tenants
    scenario = dataclasses.replace(
        scenario,
        tenants=(dataclasses.replace(first, max_cores=3), *rest),
        config=dataclasses.replace(
            scenario.config, initial_nodes=1, min_nodes=1
        ),
    )
    engine = _WideCeilingEngine(scenario, observer=observer)
    with observer.trace(f"capacity:{scenario.name}", seed=scenario.seed):
        engine.run()
    return observer, events


def serve_stream(tmp_path: Path) -> Stream:
    """Serve plane under a tight drill config: restarts, quarantines,
    shedding, a crash and recovery, a rejection and a drain."""
    observer, events = _observer()
    harness = ServeHarness(
        8,
        config=drill_config(8),
        state_dir=str(tmp_path / "serve"),
        observer=observer,
        scenario="kitchen-sink",
        scenario_minutes=240,
        crash_rate=0.02,
        crash_horizon_ticks=240,
    )
    harness.run(120)
    harness.crash()
    harness.reopen()
    harness.run(120)
    harness.plane.ingest("unknown-tenant", [1.0])
    harness.plane.drain("pin")
    return observer, events


def fleet_stream(tmp_path: Path) -> Stream:
    """Fleet sweeps through a result store (miss, then hit), the batch
    engine through the same store, a failing job and a store GC."""
    observer, events = _observer()
    traces = [
        noisy(
            CpuTrace.constant(1.5 + index, 200, f"trace-{index}"),
            sigma=0.15,
            seed=11 + index,
        )
        for index in range(3)
    ]
    store = ResultStore(tmp_path / "cas")
    plan = sweep_plan(traces, name="pins")
    FleetRunner(observer=observer, store=store).run(plan)
    FleetRunner(observer=observer, store=store).run(plan)
    jobs = [
        EngineJob(
            demand=trace,
            config=CaasperConfig(),
            simulator=SimulatorConfig(initial_cores=4),
        )
        for trace in traces
    ]
    with observer.trace("simulate:engine-pins"):
        BatchEngine(observer=observer).run(jobs, store=store)
        BatchEngine(observer=observer).run(jobs, store=store)
    failing = FleetPlan(
        jobs=(ProbeJob(job_id="boom", behaviour="raise"),), name="pins-fail"
    )
    FleetRunner(observer=observer).run(failing)
    with observer.trace("fleet:pins-gc"):
        store.gc(max_bytes=0, observer=observer)
    return observer, events


STREAMS: dict[str, Callable[[Path], Stream]] = {
    "simulate": simulate_stream,
    "chaos": chaos_stream,
    "capacity": capacity_stream,
    "serve": serve_stream,
    "fleet": fleet_stream,
}

#: stream → (trace JSONL sha256, metrics snapshot sha256).
PINS: dict[str, tuple[str, str]] = {
    "capacity": (
        "54eb250a5f3f144ddadd3ab9e42e47c3b17cf7ba90f94e7d3a83f71070c4aedc",
        "69e9c80b6f33780f3071c65443b1def56bdb5389da346524595d95ab7159df53",
    ),
    "chaos": (
        "c94ed008b041604144571b4ada86745520745054efd7f38161fce63928b4f156",
        "182fedb664db992b992b30a83745bfc990336de23a15cc102506f5e175c2bf08",
    ),
    "fleet": (
        "8d906c60af408b8b19a5462d2264ab8e2418d03c542c6b6961cfa739f1e1a33d",
        "7a8fd07287982a416ffc737b9c627e1c5076ff463d9b9f26aebce2fccc79df86",
    ),
    "serve": (
        "9981cf2f945c99ee51a3a8fc7b503d8d500788d46edad60996e5c247639dc33f",
        "35ca40b7ea66cf9d1ef2132502bd3667980e18d77087cdb7d1d05dd08217772c",
    ),
    "simulate": (
        "8efd97357c5a4bf7edde8ec400050d79139130b3d91307ce50c47ef90362d99c",
        "2887379be8f568ff3e552561c91ce9dbdd8bd8b1839415a5538512ed8c46ba9e",
    ),
}


@pytest.fixture(scope="module")
def streams(tmp_path_factory) -> dict[str, Stream]:
    root = tmp_path_factory.mktemp("pins")
    built: dict[str, Stream] = {}
    for name, build in STREAMS.items():
        (root / name).mkdir()
        built[name] = build(root / name)
    return built


@pytest.mark.parametrize("name", sorted(STREAMS))
def test_stream_digests_are_pinned(streams, name):
    assert _digests(streams[name]) == PINS[name]


def test_pinned_streams_cover_every_event_kind(streams):
    seen = {
        event.kind
        for _, events in streams.values()
        for event in events
        if event.trace_id
    }
    assert set(_EVENT_TYPES) <= seen, sorted(set(_EVENT_TYPES) - seen)
