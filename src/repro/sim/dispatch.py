"""The one place that picks scalar or vector execution for trace runs.

:func:`simulate_many` is what every batch entry point — the tuning
searches, ``run_sweep`` and the serial fleet runner — calls to replay
``(demand, recommender, simulator)`` jobs. Jobs the vector engine can
reproduce byte-identically (a fresh, configuration-only
:class:`~repro.core.recommender.CaasperRecommender`, see
:func:`~repro.engine.jobs.engine_job_for`) run as lanes of one
:class:`~repro.engine.batch.BatchEngine` batch; everything else, and
every observed run (the per-minute audit trail only exists on the
scalar loop), goes through the scalar oracle
:func:`~repro.sim.simulator.simulate_trace`.

Setting ``CAASPER_ENGINE=scalar`` sends every job to the oracle — the
switch differential checks and ``caasper sweep --engine scalar`` use.
:func:`engine_enabled` is the only reader of that switch; the capacity
engine's per-tenant decisions follow it too.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Sequence

from ..baselines.base import Recommender
from ..errors import ConfigError
from ..trace import CpuTrace
from .results import SimulationResult
from .simulator import SimulatorConfig, simulate_trace

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..engine.jobs import EngineJob
    from ..obs.observer import Observer
    from ..store.cas import ResultStore

__all__ = ["ENGINE_ENV", "TraceJob", "engine_enabled", "simulate_many"]

#: Environment switch: ``scalar`` forces the oracle, ``vector`` (or
#: unset) lets eligible jobs run on the engine.
ENGINE_ENV = "CAASPER_ENGINE"

#: One trace simulation: the arguments of ``simulate_trace``.
TraceJob = tuple[CpuTrace, Recommender, SimulatorConfig]


def engine_enabled() -> bool:
    """False when ``CAASPER_ENGINE=scalar`` forces the scalar oracle."""
    choice = os.environ.get(ENGINE_ENV, "vector")
    if choice not in ("scalar", "vector"):
        raise ConfigError(
            f"{ENGINE_ENV} must be 'scalar' or 'vector', got {choice!r}"
        )
    return choice == "vector"


def simulate_many(
    jobs: Sequence[TraceJob],
    store: "ResultStore | None" = None,
    observer: "Observer | None" = None,
) -> list[SimulationResult]:
    """Simulate every job; results are in job order.

    Each result is canonical-JSON byte-identical to
    ``simulate_trace(demand, recommender, simulator)``. Pass fresh
    recommenders: the engine never feeds the caller's instance, the
    scalar path does. ``store`` memoises every job under its
    ``simulate`` key on either path, so entries written by one hit the
    other. ``observer`` keeps the whole batch on the scalar path.

    The engine is imported on first use, so a process that never
    simulates a trace does not pay for its import-time certification.
    """
    jobs = list(jobs)
    results: list[SimulationResult | None] = [None] * len(jobs)
    if observer is None and engine_enabled():
        from ..engine import BatchEngine, engine_job_for

        slots: list[int] = []
        lanes: list[EngineJob] = []
        for index, (demand, recommender, simulator) in enumerate(jobs):
            lane = engine_job_for(demand, recommender, simulator)
            if lane is not None:
                slots.append(index)
                lanes.append(lane)
        for index, result in zip(slots, BatchEngine().run(lanes, store)):
            results[index] = result
    return [
        result
        if result is not None
        else simulate_trace(*jobs[index], observer, store=store)
        for index, result in enumerate(results)
    ]
