"""Which public calls of which ``repro`` layer the traced run times.

Each entry names a span after the layer module and the call, e.g.
``core.pvp.from_trace``; several methods can share one span name (all
public methods of ``PlacementEngine`` count as ``capacity.placement``).
``repro.fleet`` and ``repro.store`` are not on the measured paths and
stay unwrapped.

:data:`SPANS` lists every span name the traced run reports, so a
workload that never enters a layer still prints that layer's
``*.self_s`` and ``*.calls`` as zeros.
"""

from __future__ import annotations

import os
from typing import Any

from tracer import Tracer

__all__ = ["SPANS", "install"]

SPANS = (
    "tuning.space.sample_many",
    "tuning.search.run",
    "sim.simulate_trace",
    "engine.batch.run",
    "engine.kernel.decide_batch",
    "engine.kernel.decide_lane",
    "core.recommender.observe",
    "core.recommender.recommend",
    "core.proactive.build",
    "core.pvp.from_trace",
    "core.reactive.decide",
    "forecast.predict",
    "capacity.engine.run",
    "capacity.placement",
    "capacity.index",
    "cluster.node.requested_millicores",
    "capacity.autoscaler",
    "capacity.water_fill",
    "obs.observer",
    "obs.bus.emit",
    "obs.sink.accept",
    "serve.harness.push_tick",
    "serve.plane.ingest_batch",
    "serve.plane.step_tick",
    "serve.admission.offer",
    "serve.admission.pop",
    "serve.supervisor.poll",
    "serve.tenant.step",
    "cluster.control_loop.step",
    "db.service.step",
    "serve.plane.ledger_digest",
    "serve.state.append",
    "serve.state.snapshot",
)


def _subclasses(cls: type) -> list[type]:
    found = []
    for sub in cls.__subclasses__():
        found.append(sub)
        found.extend(_subclasses(sub))
    return found


def install(tracer: Tracer) -> None:
    """Wrap every measured call; the caller later runs ``tracer.unpatch()``."""
    from repro.capacity import contention
    from repro.capacity.autoscaler import NodePoolAutoscaler
    from repro.capacity.engine import ClusterEngine
    from repro.capacity.index import FreeCapacityIndex
    from repro.capacity.placement import PlacementEngine
    from repro.cluster.controller import ControlLoop
    from repro.cluster.node import Node
    from repro.cluster.resilience import ResilientControlLoop
    from repro.core.proactive import ProactiveWindowBuilder
    from repro.core.pvp import PvPCurve
    from repro.core.reactive import ReactivePolicy
    from repro.core.recommender import CaasperRecommender
    from repro.db.service import DBaaSService
    from repro.engine import kernel
    from repro.engine.batch import BatchEngine
    from repro.forecast import ar, fourier, holt_winters, linear, moving_average, naive
    from repro.forecast.base import Forecaster
    from repro.obs.events import EventBus, RingBufferSink
    from repro.obs.observer import Observer
    from repro.obs.trace_log import JsonlSink
    from repro.serve.admission import AdmissionController
    from repro.serve.harness import ServeHarness
    from repro.serve.plane import ControlPlane
    from repro.serve.state import ServeState
    from repro.serve.supervisor import Supervisor
    from repro.serve.tenant import TenantRuntime
    from repro.sim import simulator
    from repro.tuning.search import RandomSearch
    from repro.tuning.space import ParameterSpace

    del ar, fourier, holt_winters, linear, moving_average, naive  # registered subclasses
    count = tracer.count

    # repro.tuning
    tracer.patch_method(ParameterSpace, "sample_many", "tuning.space.sample_many")
    tracer.patch_method(RandomSearch, "run", "tuning.search.run")

    # repro.sim
    tracer.patch_function(simulator.simulate_trace, "sim.simulate_trace")

    # repro.engine
    tracer.patch_method(
        BatchEngine,
        "run",
        "engine.batch.run",
        on_call=lambda engine, jobs, *a, **k: count("engine.batch.lanes", len(jobs)),
    )
    tracer.patch_function(
        kernel.decide_batch,
        "engine.kernel.decide_batch",
        on_call=lambda windows, *a, **k: count(
            "engine.kernel.decide_batch.lanes", windows.shape[0]
        ),
    )
    tracer.patch_function(kernel.decide_lane, "engine.kernel.decide_lane")

    # repro.core
    tracer.patch_method(CaasperRecommender, "observe", "core.recommender.observe")
    tracer.patch_method(CaasperRecommender, "recommend", "core.recommender.recommend")
    tracer.patch_method(ProactiveWindowBuilder, "build", "core.proactive.build")
    tracer.patch_method(PvPCurve, "from_trace", "core.pvp.from_trace")
    tracer.patch_method(ReactivePolicy, "decide", "core.reactive.decide")

    # repro.forecast: every forecaster class's own predict entry points.
    for cls in [Forecaster, *_subclasses(Forecaster)]:
        for attr in ("forecast", "forecast_interval"):
            raw = cls.__dict__.get(attr)
            if raw is not None and not getattr(raw, "__isabstractmethod__", False):
                tracer.patch_method(cls, attr, "forecast.predict")

    # repro.capacity and the node accounting it leans on (repro.cluster)
    tracer.patch_method(ClusterEngine, "run", "capacity.engine.run")
    tracer.patch_public(PlacementEngine, "capacity.placement")
    tracer.patch_public(FreeCapacityIndex, "capacity.index")
    tracer.patch_method(
        Node, "requested_millicores", "cluster.node.requested_millicores"
    )
    tracer.patch_public(NodePoolAutoscaler, "capacity.autoscaler")
    tracer.patch_function(contention.water_fill, "capacity.water_fill")

    # repro.obs: sinks are bound when an Observer subscribes them, so
    # these must be wrapped before any workload input is built.
    tracer.patch_public(Observer, "obs.observer")
    tracer.patch_method(
        EventBus, "emit", "obs.bus.emit", on_call=lambda *a, **k: count("obs.events")
    )
    for sink in (JsonlSink, RingBufferSink):
        tracer.patch_method(sink, "accept", "obs.sink.accept")

    # repro.serve, with the cluster control loop and db service under it
    tracer.patch_method(ServeHarness, "push_tick", "serve.harness.push_tick")
    tracer.patch_method(ControlPlane, "ingest_batch", "serve.plane.ingest_batch")
    tracer.patch_method(ControlPlane, "step_tick", "serve.plane.step_tick")
    tracer.patch_method(ControlPlane, "ledger_digest", "serve.plane.ledger_digest")
    tracer.patch_method(AdmissionController, "offer", "serve.admission.offer")
    tracer.patch_method(AdmissionController, "pop", "serve.admission.pop")
    tracer.patch_method(Supervisor, "poll", "serve.supervisor.poll")
    tracer.patch_method(TenantRuntime, "step", "serve.tenant.step")
    tracer.patch_method(ControlLoop, "step", "cluster.control_loop.step")
    tracer.patch_method(ResilientControlLoop, "step", "cluster.control_loop.step")
    tracer.patch_method(DBaaSService, "step", "db.service.step")
    _patch_journal(tracer, ServeState)


def _patch_journal(tracer: Tracer, state_cls: type) -> None:
    """Time journal appends and snapshots and count the bytes they write."""
    append = state_cls.append
    snapshot = state_cls.snapshot

    def size(path: Any) -> int:
        try:
            return os.path.getsize(path)
        except OSError:
            return 0

    timed_append = tracer.wrap("serve.state.append", append)
    timed_snapshot = tracer.wrap("serve.state.snapshot", snapshot)

    def measured_append(state: Any, record: dict[str, Any]) -> int:
        before = size(state.journal_path)
        seq = timed_append(state, record)
        tracer.count("serve.journal.bytes", size(state.journal_path) - before)
        return seq

    def measured_snapshot(state: Any, *args: Any, **kwargs: Any) -> None:
        timed_snapshot(state, *args, **kwargs)
        tracer.count("serve.snapshot.bytes", size(state.snapshot_path))

    tracer.replace(state_cls, "append", measured_append)
    tracer.replace(state_cls, "snapshot", measured_snapshot)
