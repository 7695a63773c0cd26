"""Shared factories for the differential suites.

Each suite drives one seeded workload through two entry points that must
agree exactly — a production path and the oracle it claims to follow —
and compares their outputs with no tolerance. The builders here derive
both sides from one set of parameters, so a suite states only what it
compares and how the oracle's series are summed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from hypothesis import strategies as st

from repro.capacity import CapacityConfig, CapacityScenario, NodeTemplate
from repro.capacity import TenantSpec as CapacityTenantSpec
from repro.cluster.cluster import Cluster
from repro.cluster.controller import ControlLoopConfig
from repro.cluster.resilience import ResilienceConfig
from repro.cluster.scaler import ScalerConfig
from repro.core.config import CaasperConfig
from repro.core.recommender import CaasperRecommender
from repro.db.service import DbServiceConfig
from repro.serve.config import TenantSpec as ServeTenantSpec
from repro.sim.live import LiveSystemConfig
from repro.sim.results import SimulationResult
from repro.sim.simulator import SimulatorConfig
from repro.trace import CpuTrace
from repro.workloads.synthetic import noisy

#: The one tenant of a capacity scenario built here.
TENANT = "tenant"


@dataclass(frozen=True)
class Guardrails:
    """One tenant's core bounds and starting allocation."""

    min_cores: int
    initial_cores: int
    max_cores: int


@st.composite
def guardrails(draw, max_cores: int = 16) -> Guardrails:
    """Any valid ``min <= initial <= max`` triple up to ``max_cores``."""
    low = draw(st.integers(1, 4))
    high = draw(st.integers(low, max_cores))
    return Guardrails(low, draw(st.integers(low, high)), high)


def seeded_trace(seed: int, minutes: int) -> CpuTrace:
    """Regime-switching demand: a level between 0.5 and 12 cores held
    for 20-120 minutes at a time, with 10% multiplicative noise."""
    rng = np.random.default_rng(seed)
    levels: list[float] = []
    while len(levels) < minutes:
        levels.extend([float(rng.uniform(0.5, 12.0))] * int(rng.integers(20, 121)))
    return noisy(
        CpuTrace(np.array(levels[:minutes]), f"seed-{seed}"), sigma=0.1, seed=seed
    )


def caasper(guard: Guardrails) -> CaasperRecommender:
    """The recommender both capacity and serve build for a tenant."""
    return CaasperRecommender(
        CaasperConfig(c_min=guard.min_cores, max_cores=guard.max_cores),
        keep_decisions=False,
    )


# -- capacity vs simulate_trace -------------------------------------------------


def one_pod_scenario(
    trace: CpuTrace, guard: Guardrails, interval: int, delay: int
) -> CapacityScenario:
    """One pod alone on one node that fits its ``max_cores``: no
    contention, no migration, no pool scaling."""
    return CapacityScenario(
        name="differential",
        seed=0,
        minutes=trace.minutes,
        config=CapacityConfig(
            node_template=NodeTemplate(cpu_cores=guard.max_cores + 1),
            initial_nodes=1,
            min_nodes=1,
            max_nodes=1,
            decision_interval_minutes=interval,
            resize_delay_minutes=delay,
        ),
        tenants=(
            CapacityTenantSpec(
                name=TENANT,
                trace=trace,
                initial_cores=guard.initial_cores,
                min_cores=guard.min_cores,
                max_cores=guard.max_cores,
            ),
        ),
    )


def simulator_for(guard: Guardrails, interval: int, delay: int) -> SimulatorConfig:
    """The ``simulate_trace`` deployment matching :func:`one_pod_scenario`."""
    return SimulatorConfig(
        initial_cores=guard.initial_cores,
        min_cores=guard.min_cores,
        max_cores=guard.max_cores,
        decision_interval_minutes=interval,
        resize_delay_minutes=delay,
        # Capacity has no post-resize cooldown (docs/CAPACITY.md): a
        # tenant is due again on its next grid minute after a resize lands.
        cooldown_minutes=0,
    )


def capacity_sums(result: SimulationResult) -> tuple[float, float]:
    """K and C of a trace run, summed minute by minute in order — the
    arithmetic the capacity engine accumulates its ledger with."""
    slack = insufficient = 0.0
    for demand, usage, limit in zip(
        result.demand.tolist(), result.usage.tolist(), result.limits.tolist()
    ):
        slack += max(limit - usage, 0.0)
        insufficient += max(demand - usage, 0.0)
    return slack, insufficient


# -- serve TenantRuntime vs simulate_live ---------------------------------------


def serve_guardrails() -> st.SearchStrategy[Guardrails]:
    """Guardrails a serve tenant can start with: its nodes have
    ``max(max_cores, 8)`` cores less a system reservation, so the first
    pod must ask for fewer."""
    return guardrails(max_cores=12).filter(
        lambda guard: guard.initial_cores < max(guard.max_cores, 8)
    )


def serve_spec(seed: int, guard: Guardrails, interval: int) -> ServeTenantSpec:
    """A fault-free tenant: no chaos scenario, no crash schedule."""
    return ServeTenantSpec(
        tenant=TENANT,
        seed=seed,
        min_cores=guard.min_cores,
        initial_cores=guard.initial_cores,
        max_cores=guard.max_cores,
        decision_interval_minutes=interval,
    )


def live_config_for(spec: ServeTenantSpec) -> LiveSystemConfig:
    """The ``simulate_live`` deployment a serve tenant runs on: the same
    cluster, service, control cadence and resilience tunables."""
    return LiveSystemConfig(
        cluster=Cluster.uniform(
            f"serve-{spec.tenant}", spec.replicas + 1, max(spec.max_cores, 8), 32
        ),
        service=DbServiceConfig(
            name=spec.tenant,
            replicas=spec.replicas,
            initial_cores=spec.initial_cores,
        ),
        control=ControlLoopConfig(
            decision_interval_minutes=spec.decision_interval_minutes,
            scaler=ScalerConfig(min_cores=spec.min_cores, max_cores=spec.max_cores),
        ),
        resilience=ResilienceConfig(seed=spec.seed),
    )


def serve_sums(result: SimulationResult) -> dict[str, float | int]:
    """K/C/N of a live run, accumulated minute by minute in the order
    and arithmetic a serve tenant keeps its ledger with."""
    slack = insufficient = 0.0
    resizes = 0
    last: int | None = None
    for demand, usage, limit in zip(
        result.demand.tolist(), result.usage.tolist(), result.limits.tolist()
    ):
        slack += max(limit - usage, 0.0)
        insufficient += max(demand - limit, 0.0)
        rounded = int(round(limit))
        if last is not None and rounded != last:
            resizes += 1
        last = rounded
    return {"K": slack, "C": insufficient, "N": resizes}
