"""Registered span and trace names.

Lint rule OBS002 (mirroring OBS001 for events) enforces that every
name passed to a timing-span helper (``span(...)``, ``@timed(...)``)
or a trace opener (``observer.trace(...)``) is declared here — either
verbatim in :data:`SPAN_NAMES` / :data:`TRACE_NAMES`, or as an
f-string whose literal head matches a prefix in
:data:`SPAN_NAME_PREFIXES` / :data:`TRACE_NAME_PREFIXES`. A central
registry keeps the vocabulary greppable and stops near-duplicate names
(``sim.simulate`` vs ``sim.simulate_trace``) from fragmenting span
statistics and trace analyses.

The rule reads this module *statically* (AST), so entries must be
plain string literals inside the tuples below.
"""

from __future__ import annotations

__all__ = [
    "SPAN_NAMES",
    "SPAN_NAME_PREFIXES",
    "TRACE_NAMES",
    "TRACE_NAME_PREFIXES",
]

#: Exact span names usable as literals in ``span(...)``/``@timed(...)``.
SPAN_NAMES = (
    "sim.simulate_trace",
    "sim.simulate_live",
    "core.reactive.decide",
    "core.pvp.from_trace",
)

#: Allowed literal heads for dynamically-suffixed span names
#: (``span(f"sweep.trace.{trace.name}")`` and friends).
SPAN_NAME_PREFIXES = (
    "sweep.trace.",
    "forecast.",
    "serve.",
    "capacity.",
)

#: Exact trace names usable as literals in ``observer.trace(...)``.
TRACE_NAMES = ()

#: Allowed literal heads for run trace names (the canonical helpers in
#: :mod:`repro.obs.tracing` build these).
TRACE_NAME_PREFIXES = (
    "simulate:",
    "live:",
    "fleet:",
    "serve:",
    "capacity:",
)
