"""The CaaSPER simulator (§5) and the live-system simulation (§6.2).

- :mod:`repro.sim.simulator` — trace-driven, open-loop replay of the
  Figure 1 control loop: recommender decisions, resize delays, and the
  three tuning metrics ``K`` / ``C`` / ``N``.
- :mod:`repro.sim.dispatch` — ``simulate_many``, the one place that runs
  a batch of trace simulations on the vector engine or the scalar oracle.
- :mod:`repro.sim.live` — closed-loop simulation on the full cluster +
  DBaaS substrate: rolling updates, backlog, transaction accounting.
- :mod:`repro.sim.billing` — the pay-as-you-go billing model (R1).
- :mod:`repro.sim.metrics` — metric extraction shared by both paths.
- :mod:`repro.sim.results` — result containers and comparisons.
"""

from .billing import BillingModel
from .dispatch import simulate_many
from .metrics import SimulationMetrics
from .results import SimulationResult
from .simulator import SimulatorConfig, simulate_trace
from .sweep import SweepConfig, SweepOutcome, run_sweep

__all__ = [
    "BillingModel",
    "SimulationMetrics",
    "SimulationResult",
    "SimulatorConfig",
    "simulate_many",
    "simulate_trace",
    "SweepConfig",
    "SweepOutcome",
    "run_sweep",
]
