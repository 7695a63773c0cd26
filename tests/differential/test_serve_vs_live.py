"""A fault-free serve tenant is exactly ``simulate_live``.

With no chaos scenario, no crash schedule and one telemetry sample per
tick, a headless :class:`~repro.serve.tenant.TenantRuntime` steps the
same cluster, service, control loop and resilience tunables the §6.2
live simulation builds, so its K/C/N ledger must equal the live run's
series accumulated the same way, minute by minute, with no tolerance.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve.config import ServeConfig
from repro.serve.tenant import TenantRuntime
from repro.sim.live import simulate_live
from repro.workloads.base import TraceWorkload

from .conftest import (
    Guardrails,
    caasper,
    live_config_for,
    seeded_trace,
    serve_guardrails,
    serve_spec,
    serve_sums,
)


def serve_and_live(
    seed: int, minutes: int, guard: Guardrails, interval: int
) -> tuple[dict[str, float | int], dict[str, float | int]]:
    spec = serve_spec(seed, guard, interval)
    workload = TraceWorkload(seeded_trace(seed, minutes))
    runtime = TenantRuntime(spec, ServeConfig())
    for tick in range(workload.minutes):
        runtime.step(tick, workload.demand(tick))
    oracle = simulate_live(workload, caasper(guard), live_config_for(spec))
    return runtime.kcn(), serve_sums(oracle)


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    minutes=st.integers(30, 240),
    guard=serve_guardrails(),
    interval=st.integers(1, 15),
)
def test_fault_free_tenant_matches_simulate_live(seed, minutes, guard, interval):
    served, live = serve_and_live(seed, minutes, guard, interval)
    assert served == live


def test_resizing_tenant_matches_simulate_live():
    served, live = serve_and_live(0, 240, Guardrails(2, 4, 12), 10)
    assert served["N"] > 0
    assert served == live
