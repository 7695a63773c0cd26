"""Deterministic causal tracing for autoscaling runs.

Every run (a :func:`~repro.sim.simulator.simulate_trace` call, a live
:func:`~repro.sim.live.simulate_live` loop, a fleet plan) opens one
*trace*; every event emitted during the run is stamped with that trace's
id plus a *span id* and a *parent span id* forming a causal graph:

    run root
    └── decision @ m
        ├── resize_deferred @ m+10   (blocked by the in-flight update)
        ├── retry @ m+3              (actuation rejected, backing off)
        └── resize @ m+15            (rolling update finished)

Identity is the whole point: ids are derived with sha256 from
``seed + trace name + minute`` (plus a kind discriminator), never from
wall clock, ``hash()`` or object identity. The same seed and config
therefore stamp byte-identical ids whether the run executes serially or
inside a fleet worker — the relay replays worker events verbatim, so a
fleet run reassembles the exact trace a serial run would have produced.

Two exporters serialise stamped events:

- :func:`render_trace_jsonl` / :func:`export_trace_jsonl` — canonical
  JSON lines, one stamped event per line;
- :func:`render_chrome_trace` / :func:`export_chrome_trace` — Chrome
  ``chrome://tracing`` / Perfetto "Trace Event Format" JSON, with
  simulated minutes as the microsecond timebase.

Both exclude wall-clock measurement fields (``elapsed_seconds``), so
exported bytes are a pure function of seed + config: the acceptance
byte-identity checks diff them directly.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Sequence

from .events import ObsEvent, RetryEvent

__all__ = [
    "derive_trace_id",
    "span_id_for",
    "Tracer",
    "simulate_trace_name",
    "live_trace_name",
    "fleet_trace_name",
    "TraceSpan",
    "TraceGraph",
    "build_trace_graph",
    "render_trace_jsonl",
    "export_trace_jsonl",
    "render_chrome_trace",
    "export_chrome_trace",
    "trace_ids_of",
]

#: Fields that measure wall clock rather than simulated behaviour; they
#: legitimately differ run to run, so exporters drop them.
_VOLATILE_FIELDS = ("elapsed_seconds",)

#: Microseconds per simulated minute in the Chrome-trace timebase.
_US_PER_MINUTE = 60_000_000


def derive_trace_id(seed: int, name: str) -> str:
    """16-hex-char trace id from ``(seed, name)``; no wall clock anywhere."""
    body = f"caasper-trace:{int(seed)}:{name}".encode("utf-8")
    return hashlib.sha256(body).hexdigest()[:16]


def span_id_for(
    trace_id: str, kind: str, minute: int, discriminator: str = ""
) -> str:
    """16-hex-char span id, a pure function of its causal coordinates.

    Purity is what lets causal *links* be computed without shared state:
    an enacted resize knows its causing decision's minute, so it derives
    the parent span id directly — no registry of live spans to thread
    through simulator, cluster and fleet layers.
    """
    body = f"{trace_id}:{kind}:{int(minute)}:{discriminator}".encode("utf-8")
    return hashlib.sha256(body).hexdigest()[:16]


def simulate_trace_name(demand_name: str, recommender_name: str) -> str:
    """Canonical trace name for one offline simulation run."""
    return f"simulate:{demand_name}:{recommender_name}"


def live_trace_name(workload_name: str, recommender_name: str) -> str:
    """Canonical trace name for one live control-loop run."""
    return f"live:{workload_name}:{recommender_name}"


def fleet_trace_name(plan_name: str) -> str:
    """Canonical trace name for one fleet plan execution."""
    return f"fleet:{plan_name}"


class Tracer:
    """Identity context for one trace: derives span ids on demand.

    Observers hold at most one active tracer and stamp events through
    it. Equality of ``(seed, name)`` implies equality of every id the
    tracer will ever derive; the only mutable state is
    :attr:`retry_success_minutes`, itself a pure function of the run's
    (deterministic) event stream.
    """

    def __init__(self, name: str, seed: int = 0) -> None:
        self.name = name
        self.seed = int(seed)
        self.trace_id = derive_trace_id(self.seed, name)
        #: Root span: the run itself. Events with no more specific
        #: causal parent link here. Minute -1 keeps it distinct from
        #: any real event span.
        self.root_span_id = span_id_for(self.trace_id, "run", -1)
        #: Minutes at which an actuation retry succeeded — an enactment
        #: decided at such a minute descends from the retry span (which
        #: links onward to the original decision), not from a decision.
        self.retry_success_minutes: set[int] = set()

    def span_id(self, kind: str, minute: int, discriminator: str = "") -> str:
        """Span id for an event of ``kind`` at ``minute`` in this trace."""
        return span_id_for(self.trace_id, kind, minute, discriminator)

    def link(
        self, event: ObsEvent, cause_minute: int | None = None
    ) -> tuple[str, str]:
        """``(span_id, parent_span_id)`` for ``event`` in this trace.

        The span is keyed by the event's kind, minute and
        :attr:`~repro.obs.events.ObsEvent.span_key` fields. The parent
        is the decision at ``cause_minute`` (default: the event's
        :attr:`~repro.obs.events.ObsEvent.caused_by` field), or the
        successful retry that enacted it; without a cause it is the run
        root. A retry always answers to its decision directly, and a
        successful one is remembered as the cause of its enactment.
        """
        discriminator = ":".join(
            [str(getattr(event, name)) for name in event.span_key]
        )
        span_id = self.span_id(event.kind, event.minute, discriminator)
        if cause_minute is None and event.caused_by is not None:
            cause_minute = getattr(event, event.caused_by)
        if cause_minute is None:
            return span_id, self.root_span_id
        if isinstance(event, RetryEvent):
            if event.outcome == "succeeded":
                self.retry_success_minutes.add(event.minute)
            return span_id, self.span_id("decision", cause_minute)
        if cause_minute in self.retry_success_minutes:
            return span_id, self.span_id("retry", cause_minute, "succeeded")
        return span_id, self.span_id("decision", cause_minute)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Tracer(name={self.name!r}, seed={self.seed}, id={self.trace_id})"


# ---------------------------------------------------------------------------
# Trace graph


@dataclass
class TraceSpan:
    """One node of the causal graph: a stamped event plus its links."""

    span_id: str
    parent_span_id: str
    trace_id: str
    kind: str
    minute: int
    payload: dict[str, Any]
    children: list["TraceSpan"] = field(default_factory=list)


class TraceGraph:
    """Causal graph reassembled from a stream of stamped events.

    Spans are keyed by span id; two events deriving the same span id
    (same kind, minute and discriminator) collapse into one node with
    the later payload — by construction that only happens when they
    describe the same logical act.
    """

    def __init__(self) -> None:
        self.spans: dict[str, TraceSpan] = {}
        self.trace_ids: list[str] = []
        self._roots: dict[str, TraceSpan] = {}

    def add(self, event: ObsEvent) -> TraceSpan | None:
        if not event.trace_id or not event.span_id:
            return None
        if event.trace_id not in self.trace_ids:
            self.trace_ids.append(event.trace_id)
        span = self.spans.get(event.span_id)
        if span is None:
            span = TraceSpan(
                span_id=event.span_id,
                parent_span_id=event.parent_span_id,
                trace_id=event.trace_id,
                kind=event.kind,
                minute=event.minute,
                payload=event.to_dict(),
            )
            self.spans[event.span_id] = span
            parent = self.spans.get(event.parent_span_id)
            if parent is not None:
                parent.children.append(span)
            if event.kind == "trace_started":
                self._roots[event.trace_id] = span
        else:
            span.payload = event.to_dict()
        return span

    def root(self, trace_id: str) -> TraceSpan | None:
        """The run-root span of ``trace_id``, when its start was seen."""
        return self._roots.get(trace_id)

    def chain(self, span_id: str) -> list[TraceSpan]:
        """The causal chain from ``span_id`` up to its trace root.

        Ordered leaf-first. Stops at the first unknown parent (e.g. a
        truncated log), so the result is always the longest provable
        chain rather than an error.
        """
        chain: list[TraceSpan] = []
        seen: set[str] = set()
        current = self.spans.get(span_id)
        while current is not None and current.span_id not in seen:
            chain.append(current)
            seen.add(current.span_id)
            current = self.spans.get(current.parent_span_id)
        return chain


def build_trace_graph(events: Iterable[ObsEvent]) -> TraceGraph:
    """Assemble the causal graph from any event stream (stamped only)."""
    graph = TraceGraph()
    for event in events:
        graph.add(event)
    return graph


# ---------------------------------------------------------------------------
# Exporters


def _stamped(
    events: Iterable[ObsEvent], trace_id: str | None
) -> list[dict[str, Any]]:
    payloads: list[dict[str, Any]] = []
    for event in events:
        if not event.trace_id:
            continue
        if trace_id is not None and event.trace_id != trace_id:
            continue
        payload = event.to_dict()
        for volatile in _VOLATILE_FIELDS:
            payload.pop(volatile, None)
        payloads.append(payload)
    return payloads


def render_trace_jsonl(
    events: Iterable[ObsEvent], trace_id: str | None = None
) -> str:
    """Canonical JSONL of stamped events (sorted keys, compact).

    Deterministic byte-for-byte: wall-clock fields are dropped and the
    serialisation discipline matches ``repro.fleet.codec``. Pass
    ``trace_id=`` to export one run out of a multi-run stream.
    """
    lines = [
        json.dumps(payload, sort_keys=True, separators=(",", ":"))
        for payload in _stamped(events, trace_id)
    ]
    return "".join(line + "\n" for line in lines)


def export_trace_jsonl(
    events: Iterable[ObsEvent],
    path: str | Path,
    trace_id: str | None = None,
) -> Path:
    """Write :func:`render_trace_jsonl` output to ``path``."""
    target = Path(path)
    target.write_text(render_trace_jsonl(events, trace_id), encoding="utf-8")
    return target


def _chrome_duration_minutes(payload: dict[str, Any]) -> int:
    kind = payload["kind"]
    if kind == "resize":
        return max(int(payload["minute"]) - int(payload["decided_minute"]), 1)
    if kind == "rollback":
        return max(int(payload.get("stuck_minutes", 0)), 1)
    return 1


def render_chrome_trace(
    events: Iterable[ObsEvent], trace_id: str | None = None
) -> str:
    """Chrome ``chrome://tracing`` / Perfetto JSON for stamped events.

    The timebase is *simulated* minutes mapped to microseconds (1 min =
    60 s of trace time), so the export is deterministic and the timeline
    reads in run minutes. Each trace becomes one process (named after
    the run); each event kind gets its own thread lane. Causal links are
    preserved in ``args`` (``span_id``/``parent_span_id``).
    """
    payloads = _stamped(events, trace_id)
    trace_order: list[str] = []
    names: dict[str, str] = {}
    for payload in payloads:
        tid_ = payload["trace_id"]
        if tid_ not in trace_order:
            trace_order.append(tid_)
        if payload["kind"] == "trace_started":
            names[tid_] = str(payload.get("name", ""))
    kind_lanes: dict[str, int] = {}
    trace_events: list[dict[str, Any]] = []
    for index, tid_ in enumerate(trace_order):
        trace_events.append(
            {
                "ph": "M",
                "pid": index,
                "tid": 0,
                "name": "process_name",
                "args": {"name": names.get(tid_, tid_)},
            }
        )
    for payload in payloads:
        kind = payload["kind"]
        lane = kind_lanes.setdefault(kind, len(kind_lanes) + 1)
        duration = _chrome_duration_minutes(payload)
        if kind == "resize":
            start_minute = int(payload["decided_minute"])
        elif kind == "rollback":
            start_minute = int(payload["minute"]) - duration
        else:
            start_minute = int(payload["minute"])
        trace_events.append(
            {
                "ph": "X",
                "pid": trace_order.index(payload["trace_id"]),
                "tid": lane,
                "name": kind,
                "cat": kind,
                "ts": start_minute * _US_PER_MINUTE,
                "dur": duration * _US_PER_MINUTE,
                "args": payload,
            }
        )
    document = {"displayTimeUnit": "ms", "traceEvents": trace_events}
    return json.dumps(document, sort_keys=True, separators=(",", ":")) + "\n"


def export_chrome_trace(
    events: Iterable[ObsEvent],
    path: str | Path,
    trace_id: str | None = None,
) -> Path:
    """Write :func:`render_chrome_trace` output to ``path``."""
    target = Path(path)
    target.write_text(render_chrome_trace(events, trace_id), encoding="utf-8")
    return target


def trace_ids_of(events: Sequence[ObsEvent]) -> list[str]:
    """Distinct trace ids in first-seen order (stamped events only)."""
    order: list[str] = []
    for event in events:
        if event.trace_id and event.trace_id not in order:
            order.append(event.trace_id)
    return order
