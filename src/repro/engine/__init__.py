"""repro.engine — vectorized structure-of-arrays batch simulation.

Public surface:

- :class:`~repro.engine.batch.BatchEngine` — run many traces through the
  Algorithm 1 control loop at once, byte-identical to N scalar
  ``simulate_trace`` calls;
- :class:`~repro.engine.jobs.EngineJob` / :func:`~repro.engine.jobs.engine_job_for`
  — job descriptions and the eligibility check
  :func:`~repro.sim.dispatch.simulate_many` routes by;
- :func:`~repro.engine.batch.vectorizable` — whether a config runs on
  the kernels or falls back to the scalar oracle;
- :func:`~repro.engine.kernel.certify` and the ``*_certified`` probes —
  the import-time bit-equality certification of the fast paths.

See ``docs/ENGINE.md`` for the SoA layout, lane masking, and the oracle
guarantee.
"""

from __future__ import annotations

from ..errors import EngineError

#: Oldest numpy the engine is tested against. The kernels lean on
#: behaviour certified at import time, but the certification itself uses
#: APIs (method-of-quantile defaults, stable reduction pairings) only
#: guaranteed from this floor on.
NUMPY_FLOOR = (1, 24)


def _check_numpy() -> None:
    import numpy

    version = tuple(int(part) for part in numpy.__version__.split(".")[:2])
    if version < NUMPY_FLOOR:
        floor = ".".join(str(part) for part in NUMPY_FLOOR)
        raise EngineError(
            f"repro.engine requires numpy >= {floor} (found "
            f"{numpy.__version__}); the vectorized kernels depend on the "
            "linear-interpolation quantile default and reduction behaviour "
            "certified against that floor. Upgrade numpy or use the scalar "
            "repro.sim path, which has no floor beyond the package minimum."
        )


_check_numpy()

from .batch import BatchEngine, vectorizable  # noqa: E402
from .jobs import EngineJob, engine_job_for  # noqa: E402
from .kernel import (  # noqa: E402
    axis_reductions_certified,
    certify,
    replications_certified,
)

__all__ = [
    "BatchEngine",
    "EngineJob",
    "EngineError",
    "NUMPY_FLOOR",
    "axis_reductions_certified",
    "certify",
    "engine_job_for",
    "replications_certified",
    "vectorizable",
]
