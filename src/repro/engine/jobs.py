"""Engine job descriptions and eligibility checks.

An :class:`EngineJob` is everything the batch engine needs to replay one
trace from scratch: the demand trace, the CaaSPER configuration, and the
simulator environment. :func:`engine_job_for` is the eligibility check
:func:`~repro.sim.dispatch.simulate_many` uses to decide whether an
existing ``(trace, recommender, simulator)`` triple can be handed to the
engine at all — only a *fresh*, configuration-reproducible
:class:`~repro.core.recommender.CaasperRecommender` qualifies, because
the engine rebuilds the recommender's entire observation history itself
and never mutates the caller's instance.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..baselines.base import Recommender
from ..core.config import CaasperConfig
from ..core.recommender import CaasperRecommender
from ..sim.simulator import SimulatorConfig
from ..trace import CpuTrace

__all__ = ["EngineJob", "engine_job_for"]


@dataclass(frozen=True)
class EngineJob:
    """One lane of a batch run.

    Attributes
    ----------
    demand:
        The CPU demand trace to replay.
    config:
        Algorithm configuration; the engine constructs the equivalent of
        a fresh ``CaasperRecommender(config)`` lane from it.
    simulator:
        Environment parameters (initial cores, guardrails, decision
        interval, resize delay, cooldown, billing).
    name:
        Result label; must match the recommender name the scalar oracle
        would stamp (``caasper`` / ``caasper-proactive``).
    """

    demand: CpuTrace
    config: CaasperConfig
    simulator: SimulatorConfig
    name: str = "caasper"

    @classmethod
    def from_config(
        cls,
        demand: CpuTrace,
        config: CaasperConfig,
        simulator: SimulatorConfig,
    ) -> "EngineJob":
        """Build a job with the name a fresh recommender would carry."""
        name = "caasper-proactive" if config.proactive else "caasper"
        return cls(demand=demand, config=config, simulator=simulator, name=name)


def engine_job_for(
    demand: CpuTrace,
    recommender: Recommender,
    simulator: SimulatorConfig,
) -> EngineJob | None:
    """An :class:`EngineJob` equivalent to scalar simulation, or ``None``.

    Eligibility is strict on purpose — anything the engine cannot prove
    byte-identical stays on the scalar path:

    - the recommender must be exactly :class:`CaasperRecommender` (a
      subclass may override any hook the engine replicates);
    - it must be reproducible from configuration alone
      (:meth:`~repro.core.recommender.CaasperRecommender.batchable_snapshot`):
      no injected forecaster instance, no already-observed history.
    """
    if type(recommender) is not CaasperRecommender:
        return None
    snapshot = recommender.batchable_snapshot()
    if snapshot is None:
        return None
    return EngineJob(
        demand=demand,
        config=snapshot,
        simulator=simulator,
        name=recommender.name,
    )
