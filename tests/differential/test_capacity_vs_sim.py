"""A lone, uncontended capacity tenant is exactly ``simulate_trace``.

One pod on a one-node pool that always fits it never migrates, defers
or throttles, so the capacity engine's per-tenant loop must reduce to
the §5 simulator: the same resizes (decided, enacted, from, to) and the
same K/C/N, compared exactly. The simulator's K and C are re-summed
minute by minute in order, the arithmetic the capacity ledger uses, so
no tolerance is needed.
"""

from __future__ import annotations

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.capacity import run_capacity
from repro.obs import Observer
from repro.obs.events import ResizeEvent
from repro.sim.simulator import simulate_trace
from repro.trace import CpuTrace
from repro.workloads.synthetic import square_wave

from .conftest import (
    TENANT,
    Guardrails,
    caasper,
    capacity_sums,
    guardrails,
    one_pod_scenario,
    seeded_trace,
    simulator_for,
)

#: Four hours of the Figure 3 square wave in 30-minute phases.
SQUARE_WAVE = square_wave(phase_hours=0.5, total_hours=4.0, seed=3)


def assert_capacity_matches_sim(
    trace: CpuTrace, guard: Guardrails, interval: int, delay: int
) -> None:
    events: list = []
    observer = Observer(sinks=[events.append], buffer_events=False)
    result = run_capacity(
        one_pod_scenario(trace, guard, interval, delay), observer=observer
    )
    resizes = [
        (event.decided_minute, event.minute, event.from_cores, event.to_cores)
        for event in events
        if isinstance(event, ResizeEvent)
    ]
    oracle = simulate_trace(
        trace, caasper(guard), simulator_for(guard, interval, delay)
    )
    assert resizes == [dataclasses.astuple(event) for event in oracle.events]
    kcn = result.per_tenant[TENANT]
    assert (kcn.total_slack, kcn.total_insufficient_cpu, kcn.num_scalings) == (
        *capacity_sums(oracle),
        len(oracle.events),
    )


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    minutes=st.integers(10, 300),
    guard=guardrails(),
    interval=st.integers(1, 15),
    delay=st.integers(1, 15),
)
def test_one_pod_matches_simulate_trace(seed, minutes, guard, interval, delay):
    assert_capacity_matches_sim(
        seeded_trace(seed, minutes), guard, interval, delay
    )


def test_square_wave_from_eight_cores():
    assert_capacity_matches_sim(SQUARE_WAVE, Guardrails(1, 8, 16), 10, 5)
