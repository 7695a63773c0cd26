"""The Observer: one handle bundling events, metrics and spans.

The simulator (:func:`~repro.sim.simulator.simulate_trace`), sweep
runner, live-system loop and cluster control loop all accept an optional
``observer=``. Passing one records the full autoscaling audit trail;
passing ``None`` (the default) costs nothing — instrumented call sites
guard every emission with an ``observer is not None`` check, so the
default path constructs no events and reads no clocks.

Instrumentation points build a typed event and hand it to
:meth:`Observer.emit`, which stamps its causal ids, fans it out to every
sink and applies the metric effects its class declares
(:attr:`~repro.obs.events.ObsEvent.effects`), so one call keeps the
event trail and the metric families consistent.
"""

from __future__ import annotations

from contextlib import AbstractContextManager, contextmanager
from typing import Any, Callable, Iterator, TypeVar

from .events import (
    DecisionEvent,
    EventBus,
    MetricEffect,
    ObsEvent,
    RingBufferSink,
    ThrottledMinuteEvent,
    TraceStartedEvent,
)
from .metrics import MetricsRegistry
from .spans import SpanCollector, SpanStats, activate
from .tracing import Tracer

__all__ = ["Observer"]

E = TypeVar("E", bound=ObsEvent)

#: The update method each metric type's effects call.
_UPDATES = {"counter": "inc", "gauge": "set", "histogram": "observe"}

#: The families the metric-only methods maintain (no event behind them).
_SLACK = MetricEffect(
    "slack_core_minutes_total",
    "counter",
    "Running total of slack core-minutes (metric K numerator)",
)
_STEP_SECONDS = MetricEffect(
    "sim_step_seconds", "histogram", "Wall-clock seconds per simulated minute"
)
_STORE_BYTES = MetricEffect(
    "store_bytes", "gauge", "On-disk size of the result store in bytes"
)


class Observer:
    """Bundles an event bus, a metrics registry and a span collector.

    Events enter through :meth:`emit`, which stamps, fans out and counts
    them as their classes declare. :meth:`sample`, :meth:`step_seconds`
    and :meth:`store_bytes` update metric families that have no event
    behind them.

    Parameters
    ----------
    sinks:
        Event sinks to subscribe at construction. When ``buffer_events``
        is True (default) a :class:`~repro.obs.events.RingBufferSink` is
        always attached and exposed as :attr:`ring`, so recent events
        are queryable without configuring anything.
    metrics, spans:
        Pre-built registry/collector to share across observers
        (e.g. one registry for a whole fleet sweep).
    """

    def __init__(
        self,
        sinks: tuple[Any, ...] | list[Any] = (),
        metrics: MetricsRegistry | None = None,
        spans: SpanCollector | None = None,
        buffer_events: bool = True,
        ring_capacity: int = 4096,
    ) -> None:
        self.bus = EventBus()
        self.ring: RingBufferSink | None = None
        if buffer_events:
            self.ring = RingBufferSink(capacity=ring_capacity)
            self.bus.subscribe(self.ring)
        for sink in sinks:
            self.bus.subscribe(sink)
        self.metrics = metrics or MetricsRegistry()
        self.spans = spans or SpanCollector()
        #: Active causal tracer; when set, :meth:`emit` stamps every
        #: event with deterministic trace/span/parent ids.
        self.tracer: Tracer | None = None
        #: Metric family → bound update method (see :meth:`_handle`).
        self._handles: dict[str, Callable[..., None]] = {}

    # -- causal tracing --------------------------------------------------------

    def start_trace(self, name: str, seed: int = 0) -> Tracer:
        """Open a causal trace and emit its :class:`TraceStartedEvent`.

        Prefer the scoped :meth:`trace` context manager; this method is
        the primitive for callers that manage scope themselves.
        """
        tracer = Tracer(name, seed=seed)
        self.tracer = tracer
        self.bus.emit(
            TraceStartedEvent(
                minute=0,
                trace_id=tracer.trace_id,
                span_id=tracer.root_span_id,
                name=name,
                seed=tracer.seed,
            )
        )
        return tracer

    @contextmanager
    def trace(self, name: str, seed: int = 0) -> Iterator[Tracer]:
        """Scope one run's causal trace; restores the previous tracer.

        Run entry points (:func:`~repro.sim.simulator.simulate_trace`,
        :func:`~repro.sim.live.simulate_live`, the fleet runner) open a
        trace here when none is active, so a shared observer sweeping
        many traces partitions its event stream into one trace per run.
        """
        previous = self.tracer
        tracer = self.start_trace(name, seed=seed)
        try:
            yield tracer
        finally:
            self.tracer = previous

    # -- event emission --------------------------------------------------------

    def emit(self, event: E, cause_minute: int | None = None) -> E:
        """Record one event: stamp it, fan it out, apply its metrics.

        With a trace open, the event is stamped with its trace, span and
        causal-parent ids (:meth:`~repro.obs.tracing.Tracer.link`);
        ``cause_minute`` names the decision it answers to when that is
        not one of its own fields (a deferral blocked by an in-flight
        decision). Then every sink receives it and each of its class's
        :attr:`~repro.obs.events.ObsEvent.effects` updates its metric
        family. Returns the (stamped) event.
        """
        tracer = self.tracer
        if tracer is not None:
            span_id, parent_span_id = tracer.link(event, cause_minute)
            # Stamped in place: the event is the caller's fresh record,
            # and rebuilding a frozen dataclass would double its cost.
            object.__setattr__(event, "trace_id", tracer.trace_id)
            object.__setattr__(event, "span_id", span_id)
            object.__setattr__(event, "parent_span_id", parent_span_id)
        self.bus.emit(event)
        for effect in event.effects:
            value = 1.0 if effect.value is None else getattr(event, effect.value)
            if value is not None:
                labels = {name: getattr(event, attr) for name, attr in effect.labels}
                self._handle(effect)(value, **labels)
        return event

    def _handle(self, effect: MetricEffect) -> Callable[..., None]:
        """The update method of ``effect``'s family, bound on first use.

        Families register only once something updates them, so the
        exposition never lists a family that never fired.
        """
        handle = self._handles.get(effect.family)
        if handle is not None:
            return handle
        options = {} if effect.buckets is None else {"buckets": effect.buckets}
        metric = getattr(self.metrics, effect.type)(
            effect.family,
            effect.help,
            tuple(name for name, _ in effect.labels),
            **options,
        )
        bound: Callable[..., None] = getattr(metric, _UPDATES[effect.type])
        self._handles[effect.family] = bound
        return bound

    # -- metric-only accounting --------------------------------------------------

    def sample(
        self, minute: int, demand_cores: float, usage_cores: float, limit_cores: float
    ) -> None:
        """Record one simulated minute's slack/insufficient accounting.

        Emits a :class:`~repro.obs.events.ThrottledMinuteEvent` only for
        minutes in which demand exceeded the limit, keeping JSONL traces
        proportional to interesting behaviour rather than trace length.
        """
        self._handle(_SLACK)(max(limit_cores - usage_cores, 0.0))
        if demand_cores - limit_cores > 0.0:
            self.emit(
                ThrottledMinuteEvent(
                    minute=minute,
                    demand_cores=demand_cores,
                    limit_cores=limit_cores,
                )
            )

    def step_seconds(self, seconds: float) -> None:
        """Record the wall-clock cost of one simulated minute."""
        self._handle(_STEP_SECONDS)(seconds)

    def store_bytes(self, nbytes: int) -> None:
        """Record the store's current on-disk size (gauge)."""
        self._handle(_STORE_BYTES)(nbytes)

    # -- spans -----------------------------------------------------------------

    @contextmanager
    def active(self) -> Iterator["Observer"]:
        """Install this observer's span collector as the ambient one.

        The simulator wraps its main loop in this so ``@timed`` hot
        paths (PvP-curve construction, forecaster predict) attribute
        their time here without threading the observer through every
        call layer.
        """
        with activate(self.spans):
            yield self

    def span(self, name: str) -> AbstractContextManager[None]:
        """Time one region against this observer's collector."""
        return self.spans.span(name)

    def top_spans(self, n: int = 5) -> list[SpanStats]:
        """The ``n`` most expensive span names (by total time)."""
        return self.spans.top(n)

    def close(self) -> None:
        """Close every sink that supports it (flushes JSONL traces)."""
        for sink in self.bus.sinks:
            closer = getattr(sink, "close", None)
            if callable(closer):
                closer()

    # -- convenience queries ---------------------------------------------------

    def decisions(self) -> list[DecisionEvent]:
        """Buffered decision events (requires the default ring buffer)."""
        if self.ring is None:
            return []
        return [e for e in self.ring if isinstance(e, DecisionEvent)]

    def events_of_kind(self, kind: str) -> list[ObsEvent]:
        """Buffered events of one kind (requires the default ring buffer)."""
        if self.ring is None:
            return []
        return self.ring.of_kind(kind)
