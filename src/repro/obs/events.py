"""Typed observability events and the sink fan-out bus.

Four event kinds cover the autoscaling audit trail the paper's operators
rely on (§4.2, §6):

- :class:`DecisionEvent` — one recommender consultation with its full
  Algorithm 1 derivation (slope, skew, scaling factor, branch, reason,
  guardrail clamps, window stats);
- :class:`ResizeEvent` — one *enacted* resize, with its decide→enact
  latency;
- :class:`ResizeDeferredEvent` — a resize that was requested but not
  enacted (cooldown, in-flight rolling update, capacity, budget);
- :class:`ThrottledMinuteEvent` — one minute in which demand exceeded
  the limit (the paper's insufficient-CPU signal, metric ``C``).

Five more cover chaos runs (:mod:`repro.faults`) and the hardened
control plane's degradation ladder:

- :class:`FaultInjectedEvent` — one injected fault firing;
- :class:`SafeModeEvent` — the loop entering/leaving telemetry
  safe-mode (missing/NaN/stale samples);
- :class:`RetryEvent` — an actuation retry scheduled, succeeding, or
  abandoned at its deadline;
- :class:`RollbackEvent` — the rollout watchdog rolling a stuck
  update back to the last healthy spec;
- :class:`QuarantineEvent` — a component exception degraded instead
  of crashing the run.

Three more cover fleet-scale parallel runs (:mod:`repro.fleet`); for
these the ``minute`` field carries the job's *plan index* (fleet events
are not tied to a simulated minute):

- :class:`FleetJobStartedEvent` — one job dispatched to a worker;
- :class:`FleetJobFinishedEvent` — one job completed (or restored from
  a checkpoint journal, ``journaled=True``);
- :class:`FleetJobFailedEvent` — one job captured as a typed failure
  (exception, timeout, or broken worker pool).

Three more cover the content-addressed result store (:mod:`repro.store`);
store events are not tied to a simulated minute, so ``minute`` is 0:

- :class:`CacheHitEvent` — a stored result served instead of recomputed;
- :class:`CacheMissEvent` — a key absent from (or corrupt in) the store;
- :class:`CacheEvictedEvent` — a blob removed by size-budgeted GC.

Five more cover the cluster-capacity layer (:mod:`repro.capacity`):

- :class:`PodScheduledEvent` — a pod bound to a node (fresh placement
  or preemption-free migration);
- :class:`PodPendingEvent` — a pod (or capacity-blocked resize) that
  found no node this minute and queued as pressure;
- :class:`NodePoolEvent` — the node pool changing shape (scale-out
  requested, VM provisioned, scale-in chosen, node removed);
- :class:`NodeDrainEvent` — cordon-and-drain lifecycle on one node;
- :class:`NodeContentionEvent` — one node-minute in which co-located
  demand exceeded effective allocatable CPU and was water-filled.

One more covers the vectorized batch engine (:mod:`repro.engine`):

- :class:`EngineBatchEvent` — one batch run completed, with its lane
  split (vector kernels / scalar fallback / store hits) and cohort
  count.

One more anchors causal traces (:mod:`repro.obs.tracing`):

- :class:`TraceStartedEvent` — a run-scoped trace opened; every event
  stamped with the same ``trace_id`` belongs to that run.

Eight more cover the multi-tenant control plane (:mod:`repro.serve`);
for these the ``minute`` field carries the daemon's global *tick* and
every event names its tenant (daemon-scoped events use ``tenant=""``):

- :class:`TenantRegisteredEvent` — a tenant admitted to the plane
  (``source="recovery"`` when replayed from the state journal);
- :class:`TelemetryShedEvent` — a bounded tenant queue dropped its
  oldest samples to admit newer ones (load shedding);
- :class:`AdmissionRejectedEvent` — an ingest refused outright
  (global saturation, drain, unknown tenant) — the 429 path;
- :class:`BreakerTransitionEvent` — a per-tenant circuit breaker
  moving between closed/open/half-open;
- :class:`TenantRestartEvent` — the supervisor scheduling
  (``action="scheduled"``) or completing (``action="completed"``) a
  crashed tenant's restart;
- :class:`TenantQuarantineEvent` — a flapping tenant entering or
  leaving supervisor quarantine;
- :class:`DrainEvent` — graceful drain beginning/completing;
- :class:`StateRecoveredEvent` — crash-safe state replayed from the
  journal/snapshot on startup (the ``recovered_tenants`` audit).

Events are frozen dataclasses with a flat :meth:`ObsEvent.to_dict`
serialisation so any sink — ring buffer, JSONL file, ``logging`` — can
consume them without knowing the concrete type. Every event carries
three optional trace fields (``trace_id``, ``span_id``,
``parent_span_id``) stamped by the observer when a tracer is active;
they are empty strings otherwise, so untraced runs serialise exactly as
before plus three constant keys.

Each class also declares what emitting it means beyond the event
itself, read by :meth:`~repro.obs.observer.Observer.emit`:
:attr:`ObsEvent.effects` (the metric families it updates),
:attr:`ObsEvent.span_key` (the fields that tell two same-minute spans
apart) and :attr:`ObsEvent.caused_by` (the field naming the minute of
the decision it answers to). This module depends on nothing else in
``repro`` (the rest of the system depends on *it*).
"""

from __future__ import annotations

import logging
from collections import deque
from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING, Any, Callable, ClassVar, Iterator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.reactive import ReactiveDecision

__all__ = [
    "MetricEffect",
    "ObsEvent",
    "TraceStartedEvent",
    "DecisionEvent",
    "ResizeEvent",
    "ResizeDeferredEvent",
    "ThrottledMinuteEvent",
    "FaultInjectedEvent",
    "SafeModeEvent",
    "RetryEvent",
    "RollbackEvent",
    "QuarantineEvent",
    "FleetJobStartedEvent",
    "FleetJobFinishedEvent",
    "FleetJobFailedEvent",
    "CacheHitEvent",
    "CacheMissEvent",
    "CacheEvictedEvent",
    "TenantRegisteredEvent",
    "TelemetryShedEvent",
    "AdmissionRejectedEvent",
    "BreakerTransitionEvent",
    "TenantRestartEvent",
    "TenantQuarantineEvent",
    "DrainEvent",
    "StateRecoveredEvent",
    "PodScheduledEvent",
    "PodPendingEvent",
    "NodePoolEvent",
    "NodeDrainEvent",
    "NodeContentionEvent",
    "EngineBatchEvent",
    "EventBus",
    "RingBufferSink",
    "LoggingSink",
    "event_from_dict",
]


@dataclass(frozen=True)
class MetricEffect:
    """One metric update an event applies when an observer emits it.

    ``type`` is ``counter`` (add the value), ``gauge`` (set it) or
    ``histogram`` (observe it). ``labels`` pairs each label name with
    the event attribute holding its value. ``value`` names the attribute
    holding the amount, or is ``None`` for a count of one; an attribute
    that reads ``None`` skips the effect for that event.
    """

    family: str
    type: str
    help: str
    labels: tuple[tuple[str, str], ...] = ()
    value: str | None = None
    buckets: tuple[float, ...] | None = None


def _counter(
    family: str, help: str, value: str | None = None, **labels: str
) -> MetricEffect:
    return MetricEffect(family, "counter", help, tuple(labels.items()), value)


def _gauge(family: str, help: str, value: str) -> MetricEffect:
    return MetricEffect(family, "gauge", help, (), value)


def _histogram(
    family: str,
    help: str,
    value: str,
    buckets: tuple[float, ...] | None = None,
    **labels: str,
) -> MetricEffect:
    labelled = tuple(labels.items())
    return MetricEffect(family, "histogram", help, labelled, value, buckets)


#: Resize-latency histogram buckets, in minutes (paper: 5–15 min window).
_LATENCY_BUCKETS = (0.0, 1.0, 2.0, 5.0, 10.0, 15.0, 30.0, 60.0)


@dataclass(frozen=True)
class ObsEvent:
    """Base observability event: a timestamped, flat-serialisable record.

    The three trace fields are stamped by the observer when a
    :class:`~repro.obs.tracing.Tracer` is active. They are derived from
    seed + trace name + minute (never wall clock), so equal runs stamp
    byte-equal ids. Empty strings mean "untraced".
    """

    #: Discriminator used in serialised form; unique per concrete class.
    kind: ClassVar[str] = "event"
    #: Metric updates applied each time the event is emitted.
    effects: ClassVar[tuple[MetricEffect, ...]] = ()
    #: Fields joined with ``:`` into the span-id discriminator, so two
    #: events of one kind in one minute get distinct spans.
    span_key: ClassVar[tuple[str, ...]] = ()
    #: Field holding the minute of the decision this event answers to;
    #: that decision's span (or the retry that enacted it) becomes the
    #: causal parent. ``None`` links the event to the run root.
    caused_by: ClassVar[str | None] = None

    minute: int
    trace_id: str = ""
    span_id: str = ""
    parent_span_id: str = ""

    def to_dict(self) -> dict[str, Any]:
        """Flat dict form: ``{"kind": ..., <all fields>}``."""
        payload = asdict(self)
        payload["kind"] = self.kind
        return payload


@dataclass(frozen=True)
class TraceStartedEvent(ObsEvent):
    """A run-scoped causal trace opened (:mod:`repro.obs.tracing`).

    ``span_id`` carries the trace's root span; events without a more
    specific causal parent link to it. ``seed`` and ``name`` are the
    inputs the ``trace_id`` was derived from, recorded so an exported
    trace is self-describing.
    """

    kind: ClassVar[str] = "trace_started"

    name: str = ""
    seed: int = 0


@dataclass(frozen=True)
class DecisionEvent(ObsEvent):
    """One recommender consultation, with full derivation when available.

    Opaque recommenders (the baselines) populate only the allocation
    fields and leave the Algorithm 1 derivation (``slope``, ``skew``,
    ``scaling_factor``, ``usage_quantile``) as ``None``; CaaSPER
    recommenders carry the complete §4.2 trail via their
    ``last_decision`` provenance.

    Attributes
    ----------
    recommender:
        Name of the consulted recommender.
    current_cores:
        Allocation in force at consultation time.
    raw_target_cores:
        The recommendation before service guardrails.
    target_cores:
        The recommendation after guardrail clamping.
    branch:
        Algorithm 1 branch (``scale_up``/``scale_down``/``walk_down``/
        ``hold``) or ``"opaque"`` for non-introspectable recommenders.
    clamped:
        True when guardrails changed the recommendation.
    window_stats:
        Optional summary of the observation window the decision saw
        (sample count, mean/max/quantile usage).
    elapsed_seconds:
        Wall-clock cost of the consultation (None when not timed).
    """

    kind: ClassVar[str] = "decision"
    effects = (
        _counter(
            "decisions_total",
            "Recommender consultations by Algorithm 1 branch",
            branch="branch",
        ),
        _histogram(
            "recommender_seconds",
            "Wall-clock seconds per recommender consultation",
            "elapsed_seconds",
            recommender="recommender",
        ),
    )

    recommender: str = ""
    current_cores: int = 0
    raw_target_cores: int = 0
    target_cores: int = 0
    branch: str = ""
    reason: str = ""
    slope: float | None = None
    skew: float | None = None
    scaling_factor: float | None = None
    usage_quantile: float | None = None
    clamped: bool = False
    window_stats: dict[str, float] | None = None
    elapsed_seconds: float | None = None

    @classmethod
    def from_derivation(
        cls,
        minute: int,
        recommender: str,
        current_cores: int,
        raw_target_cores: int,
        target_cores: int,
        derivation: "ReactiveDecision | None" = None,
        window_stats: dict[str, float] | None = None,
        elapsed_seconds: float | None = None,
    ) -> "DecisionEvent":
        """One consultation, unpacking the recommender's provenance.

        ``derivation`` is the recommender's
        :class:`~repro.core.reactive.ReactiveDecision` when it exposes
        one (the ``last_decision`` protocol of
        :class:`~repro.baselines.base.Recommender`); opaque recommenders
        pass ``None`` and get a ``branch="opaque"`` event.
        """
        if derivation is None:
            derived: dict[str, Any] = {
                "branch": "opaque",
                "reason": f"{recommender} recommended {raw_target_cores} cores",
            }
        else:
            derived = {
                "branch": derivation.branch,
                "reason": derivation.reason,
                "slope": derivation.slope,
                "skew": derivation.skew,
                "scaling_factor": derivation.raw_scaling_factor,
                "usage_quantile": derivation.usage_quantile,
            }
        return cls(
            minute=minute,
            recommender=recommender,
            current_cores=current_cores,
            raw_target_cores=raw_target_cores,
            target_cores=target_cores,
            clamped=target_cores != raw_target_cores,
            window_stats=window_stats,
            elapsed_seconds=elapsed_seconds,
            **derived,
        )


@dataclass(frozen=True)
class ResizeEvent(ObsEvent):
    """One enacted resize (``minute`` is the enactment minute)."""

    kind: ClassVar[str] = "resize"
    effects = (
        _counter("resizes_total", "Enacted resizes (metric N)"),
        _histogram(
            "resize_latency_minutes",
            "Minutes between a resize decision and its enactment",
            "latency_minutes",
            buckets=_LATENCY_BUCKETS,
        ),
    )
    caused_by = "decided_minute"

    decided_minute: int = 0
    from_cores: int = 0
    to_cores: int = 0

    @property
    def latency_minutes(self) -> int:
        """Decide→enact latency (rolling update + failover window)."""
        return self.minute - self.decided_minute

    @property
    def is_scale_up(self) -> bool:
        return self.to_cores > self.from_cores


@dataclass(frozen=True)
class ResizeDeferredEvent(ObsEvent):
    """A resize decision that could not be enacted this minute."""

    kind: ClassVar[str] = "resize_deferred"
    effects = (
        _counter(
            "resizes_deferred_total",
            "Resizes deferred or rejected by safety checks",
            reason="reason",
        ),
    )
    span_key = ("reason",)

    reason: str = ""
    target_cores: int | None = None


@dataclass(frozen=True)
class ThrottledMinuteEvent(ObsEvent):
    """One minute of demand exceeding the enacted limit."""

    kind: ClassVar[str] = "throttled"
    effects = (
        _counter(
            "insufficient_core_minutes_total",
            "Running total of unserved core-minutes (metric C numerator)",
            "insufficient_cores",
        ),
        _counter(
            "throttled_minutes_total",
            "Minutes in which demand exceeded the enacted limit",
        ),
    )

    demand_cores: float = 0.0
    limit_cores: float = 0.0

    @property
    def insufficient_cores(self) -> float:
        """Unserved demand during this minute (metric ``C`` contribution)."""
        return max(self.demand_cores - self.limit_cores, 0.0)


@dataclass(frozen=True)
class FaultInjectedEvent(ObsEvent):
    """One injected fault firing (:mod:`repro.faults`).

    Attributes
    ----------
    fault:
        Fault kind label (``telemetry_drop``, ``actuation_reject``,
        ``node_pressure``, ``component_recommender``, ...).
    target:
        What the fault hit (pod/set/component name), when meaningful.
    detail:
        Free-form description of the concrete effect.
    """

    kind: ClassVar[str] = "fault_injected"
    effects = (
        _counter("faults_injected_total", "Injected faults by kind", kind="fault"),
    )
    span_key = ("fault", "target")

    fault: str = ""
    target: str = ""
    detail: str = ""


@dataclass(frozen=True)
class SafeModeEvent(ObsEvent):
    """Telemetry safe-mode transition (enter/exit).

    While in safe-mode the loop holds the last allocation and feeds the
    recommender nothing — corrupt samples never reach Algorithm 1. The
    ``safe_mode_minutes`` counter totals the corrupted-telemetry dwell
    time: entry counts the first minute, and each further held minute
    is counted by the loop without an event (a hold is no transition).
    """

    kind: ClassVar[str] = "safe_mode"
    effects = (
        _counter(
            "safe_mode_minutes",
            "Minutes spent in telemetry safe-mode",
            "entered_minutes",
        ),
    )
    span_key = ("action",)

    action: str = "enter"  # "enter" | "exit"
    reason: str = ""
    minutes_in_safe_mode: int = 0

    @property
    def entered_minutes(self) -> int | None:
        """The one dwell minute an entry starts (``None`` on exit)."""
        return 1 if self.action == "enter" else None


@dataclass(frozen=True)
class RetryEvent(ObsEvent):
    """One actuation-retry state change.

    ``outcome`` is ``scheduled`` (a failed enactment queued a backoff
    retry), ``succeeded`` (a retry enacted the decision) or
    ``abandoned`` (the per-decision deadline expired).
    """

    kind: ClassVar[str] = "retry"
    effects = (
        _counter("retries_total", "Actuation retries by outcome", outcome="outcome"),
    )
    span_key = ("outcome",)
    caused_by = "decided_minute"

    target_cores: int = 0
    attempt: int = 0
    outcome: str = "scheduled"
    delay_minutes: float = 0.0
    decided_minute: int = 0


@dataclass(frozen=True)
class RollbackEvent(ObsEvent):
    """The rollout watchdog rolled a stuck update back.

    ``stuck_minutes`` is how long the rolling update had been in flight
    when the watchdog fired; ``to_cores`` is the restored healthy spec.
    """

    kind: ClassVar[str] = "rollback"
    effects = (
        _counter("rollbacks_total", "Watchdog rollbacks of stuck rolling updates"),
    )
    caused_by = "started_minute"

    update_id: int = 0
    from_cores: int = 0
    to_cores: int = 0
    stuck_minutes: int = 0

    @property
    def started_minute(self) -> int:
        """Minute the stuck rolling update was enacted."""
        return self.minute - self.stuck_minutes


@dataclass(frozen=True)
class QuarantineEvent(ObsEvent):
    """A component exception was degraded instead of crashing the run."""

    kind: ClassVar[str] = "quarantine"
    effects = (
        _counter(
            "quarantines_total",
            "Component exceptions degraded by the control plane",
            component="component",
        ),
    )
    span_key = ("component",)

    component: str = ""
    error: str = ""
    degraded_to: str = "hold"  # "hold" | "reactive"


@dataclass(frozen=True)
class FleetJobStartedEvent(ObsEvent):
    """One fleet job dispatched (``minute`` is the job's plan index).

    Attributes
    ----------
    job_id:
        Stable job identifier within its :class:`~repro.fleet.jobs.FleetPlan`.
    workers:
        Worker-pool size of the dispatching runner.
    """

    kind: ClassVar[str] = "fleet_job_started"
    span_key = ("job_id",)

    job_id: str = ""
    workers: int = 1


@dataclass(frozen=True)
class FleetJobFinishedEvent(ObsEvent):
    """One fleet job completed successfully.

    ``journaled`` is True when the result was restored from a checkpoint
    journal (``resume=``) instead of being recomputed; ``elapsed_seconds``
    then reports the *original* run's cost.
    """

    kind: ClassVar[str] = "fleet_job_finished"
    effects = (
        _counter("fleet_jobs_total", "Fleet jobs by terminal status", status="status"),
        _histogram(
            "fleet_job_seconds",
            "Wall-clock seconds per fleet job (worker-side)",
            "job_seconds",
        ),
    )
    span_key = ("job_id",)

    job_id: str = ""
    elapsed_seconds: float = 0.0
    journaled: bool = False

    @property
    def status(self) -> str:
        return "journaled" if self.journaled else "ok"

    @property
    def job_seconds(self) -> float | None:
        """This run's cost of the job (``None`` when restored)."""
        return None if self.journaled else self.elapsed_seconds


@dataclass(frozen=True)
class FleetJobFailedEvent(ObsEvent):
    """One fleet job captured as a typed failure.

    ``failure_kind`` is ``exception`` (the job raised in its worker),
    ``timeout`` (the per-job deadline expired) or ``broken-pool`` (the
    worker process died without returning).
    """

    kind: ClassVar[str] = "fleet_job_failed"
    effects = (
        _counter("fleet_jobs_total", "Fleet jobs by terminal status", status="status"),
    )
    span_key = ("job_id",)

    job_id: str = ""
    error: str = ""
    failure_kind: str = "exception"

    @property
    def status(self) -> str:
        return "failed"


@dataclass(frozen=True)
class CacheHitEvent(ObsEvent):
    """One stored result served instead of recomputed (:mod:`repro.store`).

    Attributes
    ----------
    key:
        Full content-addressed store key (``<kind>-<sha256>``).
    result_kind:
        Key namespace (``simulate``, ``trial``, ``chaos``) — the label
        on ``store_hits_total{kind=}``.
    source:
        ``"memory"`` (in-process LRU front) or ``"disk"``.
    producer_trace_id:
        Trace id of the run that originally computed the blob (empty
        when the blob predates provenance stamping).
    producer_epoch:
        :data:`~repro.store.keys.STORE_EPOCH` the blob was written
        under (0 when the blob predates provenance stamping).
    """

    kind: ClassVar[str] = "cache_hit"
    effects = (
        _counter(
            "store_hits_total", "Result-store hits by key namespace", kind="result_kind"
        ),
    )
    span_key = ("key",)

    key: str = ""
    result_kind: str = ""
    source: str = "disk"
    producer_trace_id: str = ""
    producer_epoch: int = 0


@dataclass(frozen=True)
class CacheMissEvent(ObsEvent):
    """One store lookup that found nothing servable.

    ``reason`` is ``"absent"`` (no blob for the key) or ``"corrupt"``
    (a blob existed but failed its checksum/shape validation and was
    quarantined — the store recomputes rather than trusting it).
    """

    kind: ClassVar[str] = "cache_miss"
    effects = (
        _counter(
            "store_misses_total",
            "Result-store misses by key namespace",
            kind="result_kind",
        ),
    )
    span_key = ("key",)

    key: str = ""
    result_kind: str = ""
    reason: str = "absent"


@dataclass(frozen=True)
class CacheEvictedEvent(ObsEvent):
    """One blob removed from the store by size-budgeted GC."""

    kind: ClassVar[str] = "cache_evicted"
    effects = (
        _counter(
            "store_evictions_total", "Result-store blobs removed by size-budgeted GC"
        ),
    )
    span_key = ("key",)

    key: str = ""
    result_kind: str = ""
    bytes: int = 0
    reason: str = "gc"


@dataclass(frozen=True)
class TenantRegisteredEvent(ObsEvent):
    """A tenant admitted to the serve control plane.

    ``source`` is ``"api"`` for a live registration and ``"recovery"``
    when the registration was replayed from the state journal during
    crash recovery.
    """

    kind: ClassVar[str] = "tenant_registered"
    effects = (
        _counter(
            "serve_tenants_total",
            "Tenants registered with the serve plane",
            source="source",
        ),
    )
    span_key = ("tenant",)

    tenant: str = ""
    seed: int = 0
    source: str = "api"


@dataclass(frozen=True)
class TelemetryShedEvent(ObsEvent):
    """A bounded tenant queue dropped its oldest samples (load shedding).

    Backpressure policy: the queue admits the new samples and sheds from
    the *front*, so under overload the plane keeps the freshest
    telemetry rather than the oldest.
    """

    kind: ClassVar[str] = "telemetry_shed"
    effects = (
        _counter(
            "serve_shed_samples_total",
            "Telemetry samples dropped by queue load shedding",
            "dropped",
        ),
    )
    span_key = ("tenant",)

    tenant: str = ""
    dropped: int = 0
    queue_capacity: int = 0


@dataclass(frozen=True)
class AdmissionRejectedEvent(ObsEvent):
    """An ingest refused outright — the HTTP 429/503 path.

    ``reason`` is ``"saturated"`` (global in-flight sample cap hit),
    ``"draining"`` (graceful shutdown in progress) or
    ``"unknown-tenant"``.
    """

    kind: ClassVar[str] = "admission_rejected"
    effects = (
        _counter(
            "serve_rejections_total",
            "Ingests refused by admission control",
            reason="reason",
        ),
    )
    span_key = ("tenant", "reason")

    tenant: str = ""
    reason: str = "saturated"


@dataclass(frozen=True)
class BreakerTransitionEvent(ObsEvent):
    """A per-tenant circuit breaker changed state.

    States are ``closed`` (consults flow), ``open`` (consults skipped,
    allocation held) and ``half_open`` (one probe consult allowed).
    ``failures`` is the consecutive-failure count that drove the
    transition.
    """

    kind: ClassVar[str] = "breaker_transition"
    effects = (
        _counter(
            "serve_breaker_transitions_total",
            "Circuit-breaker transitions by target state",
            to_state="to_state",
        ),
    )
    span_key = ("tenant", "to_state")

    tenant: str = ""
    from_state: str = "closed"
    to_state: str = "open"
    failures: int = 0


@dataclass(frozen=True)
class TenantRestartEvent(ObsEvent):
    """The supervisor restarting a crashed tenant task.

    ``action="scheduled"`` records the crash and the backoff chosen for
    it; ``action="completed"`` records the tenant resuming after the
    backoff elapsed (its loop reset via
    :meth:`~repro.cluster.resilience.ResilientControlLoop.reset`).
    """

    kind: ClassVar[str] = "tenant_restart"
    effects = (
        _counter(
            "serve_restarts_total",
            "Supervisor tenant restarts by phase",
            action="action",
        ),
    )
    span_key = ("tenant", "action", "attempt")

    tenant: str = ""
    attempt: int = 0
    backoff_ticks: int = 0
    action: str = "scheduled"
    error: str = ""


@dataclass(frozen=True)
class TenantQuarantineEvent(ObsEvent):
    """A flapping tenant entering/leaving supervisor quarantine.

    ``restarts`` is the restart count inside the flap-detection window
    that triggered the quarantine (0 on release).
    """

    kind: ClassVar[str] = "tenant_quarantine"
    effects = (
        _counter(
            "serve_quarantines_total", "Tenant quarantine transitions", action="action"
        ),
    )
    span_key = ("tenant", "action")

    tenant: str = ""
    action: str = "enter"  # "enter" | "exit"
    restarts: int = 0


@dataclass(frozen=True)
class DrainEvent(ObsEvent):
    """Graceful drain lifecycle (``action``: ``begin``/``complete``).

    Between the two events the plane stops admitting telemetry,
    finishes in-flight decisions and snapshots its state.
    """

    kind: ClassVar[str] = "drain"
    effects = (
        _counter("serve_drains_total", "Graceful drains by phase", action="action"),
    )
    span_key = ("action",)

    action: str = "begin"
    reason: str = ""
    pending: int = 0


@dataclass(frozen=True)
class StateRecoveredEvent(ObsEvent):
    """Crash-safe state replayed on startup (``minute`` is the recovered tick).

    ``recovered_tenants`` is the number of tenants rebuilt from the
    journal/snapshot; ``records`` the input records replayed;
    ``snapshot_tick`` the tick of the compacted snapshot the replay
    started from (0 when recovery used the journal alone).
    """

    kind: ClassVar[str] = "state_recovered"
    effects = (
        _gauge(
            "serve_recovered_tenants",
            "Tenants rebuilt by the most recent state recovery",
            "recovered_tenants",
        ),
    )

    recovered_tenants: int = 0
    records: int = 0
    snapshot_tick: int = 0


@dataclass(frozen=True)
class PodScheduledEvent(ObsEvent):
    """A pod bound to a node by the capacity placement engine.

    ``outcome`` is ``"placed"`` (fresh placement off the pending queue)
    or ``"migrated"`` (preemption-free move — drain or a resize that no
    longer fit its node).
    """

    kind: ClassVar[str] = "pod_scheduled"
    effects = (
        _counter(
            "capacity_placements_total",
            "Pods bound by the capacity placement engine",
            outcome="outcome",
        ),
    )
    span_key = ("pod", "outcome")

    pod: str = ""
    node: str = ""
    outcome: str = "placed"
    requested_millicores: int = 0
    reason: str = ""


@dataclass(frozen=True)
class PodPendingEvent(ObsEvent):
    """A pod found no node this minute and queued as pending pressure.

    ``reason`` is ``"no-fit"`` for an unplaceable pod. Sustained
    pending pressure is what drives the node-pool autoscaler's
    scale-out decision.
    """

    kind: ClassVar[str] = "pod_pending"
    effects = (
        _counter(
            "capacity_pending_pod_minutes_total",
            "Pod-minutes spent waiting for capacity",
        ),
    )
    span_key = ("pod",)

    pod: str = ""
    requested_millicores: int = 0
    reason: str = "no-fit"


@dataclass(frozen=True)
class NodePoolEvent(ObsEvent):
    """The node pool changed shape.

    ``action`` is ``"scale_out"`` (a VM was requested), ``"provisioned"``
    (its boot completed and it joined the pool), ``"scale_in"`` (a node
    was chosen for drain by low utilization) or ``"removed"`` (a drained
    node released). ``node_count`` is the ready-pool size after the
    action.
    """

    kind: ClassVar[str] = "node_pool"
    effects = (
        _counter(
            "capacity_node_pool_total",
            "Node-pool shape changes by action",
            action="action",
        ),
        _gauge("capacity_nodes", "Ready nodes in the capacity pool", "node_count"),
    )
    span_key = ("node", "action")

    action: str = "scale_out"
    node: str = ""
    node_count: int = 0
    reason: str = ""


@dataclass(frozen=True)
class NodeDrainEvent(ObsEvent):
    """Cordon-and-drain lifecycle on one node.

    ``action`` is ``"cordon"`` (drain requested; no new pods admitted),
    ``"waiting"`` (pods still aboard — mid-rollout tenants and pods
    without a destination are never evicted) or ``"complete"``.
    """

    kind: ClassVar[str] = "node_drain"
    effects = (
        _counter(
            "capacity_drains_total",
            "Node cordon/drain lifecycle steps",
            action="action",
        ),
    )
    span_key = ("node", "action")

    node: str = ""
    action: str = "cordon"
    remaining_pods: int = 0
    reason: str = ""


@dataclass(frozen=True)
class NodeContentionEvent(ObsEvent):
    """One node-minute of co-located demand above allocatable CPU.

    ``throttled_cores`` is the overage water-filled away across the
    node's ``pods`` serving pods — CPU each affected tenant demanded
    but did not receive, which its recommender then mis-reads as slack.
    """

    kind: ClassVar[str] = "node_contention"
    effects = (
        _counter(
            "capacity_contention_core_minutes_total",
            "CPU core-minutes water-filled away by node contention",
            "throttled_cores",
        ),
    )
    span_key = ("node",)

    node: str = ""
    demand_cores: float = 0.0
    capacity_cores: float = 0.0
    throttled_cores: float = 0.0
    pods: int = 0


@dataclass(frozen=True)
class EngineBatchEvent(ObsEvent):
    """One :class:`~repro.engine.batch.BatchEngine` batch completed.

    Not tied to a simulated minute (``minute`` is 0). ``vector_lanes``
    ran on the SoA kernels, ``scalar_lanes`` fell back to the scalar
    oracle (non-vectorizable configs), and ``cache_hits`` were served
    from the result store without simulating at all; the three sum to
    ``lanes``. ``cohorts`` is how many kernel groups the vector lanes
    split into (lanes sharing curve geometry step together).
    """

    kind: ClassVar[str] = "engine_batch"
    effects = (
        _counter(
            "engine_lanes_total",
            "Traces simulated by the batch engine (any path)",
            "lanes",
        ),
        _counter(
            "engine_vector_lanes_total",
            "Traces simulated on the vectorized SoA kernels",
            "vector_lanes",
        ),
        _counter(
            "engine_scalar_fallback_lanes_total",
            "Batch lanes that fell back to the scalar oracle",
            "scalar_lanes",
        ),
    )
    span_key = ("lanes",)

    lanes: int = 0
    vector_lanes: int = 0
    scalar_lanes: int = 0
    cache_hits: int = 0
    cohorts: int = 0
    elapsed_seconds: float = 0.0


_EVENT_TYPES: dict[str, type[ObsEvent]] = {
    cls.kind: cls
    for cls in (
        TraceStartedEvent,
        DecisionEvent,
        ResizeEvent,
        ResizeDeferredEvent,
        ThrottledMinuteEvent,
        FaultInjectedEvent,
        SafeModeEvent,
        RetryEvent,
        RollbackEvent,
        QuarantineEvent,
        FleetJobStartedEvent,
        FleetJobFinishedEvent,
        FleetJobFailedEvent,
        CacheHitEvent,
        CacheMissEvent,
        CacheEvictedEvent,
        TenantRegisteredEvent,
        TelemetryShedEvent,
        AdmissionRejectedEvent,
        BreakerTransitionEvent,
        TenantRestartEvent,
        TenantQuarantineEvent,
        DrainEvent,
        StateRecoveredEvent,
        PodScheduledEvent,
        PodPendingEvent,
        NodePoolEvent,
        NodeDrainEvent,
        NodeContentionEvent,
        EngineBatchEvent,
    )
}


def event_from_dict(payload: dict[str, Any]) -> ObsEvent:
    """Reconstruct a typed event from its :meth:`ObsEvent.to_dict` form.

    Unknown ``kind`` values raise ``KeyError`` — a trace produced by a
    newer schema should fail loudly rather than be silently dropped.
    """
    data = dict(payload)
    kind = data.pop("kind")
    cls = _EVENT_TYPES[kind]
    return cls(**data)


#: A sink is anything callable with one event, or exposing ``accept``.
Sink = Callable[[ObsEvent], None]


class EventBus:
    """Fans each emitted event out to every subscribed sink, in order.

    Sinks are either plain callables or objects with an
    ``accept(event)`` method (duck-typed so sinks need not import this
    module). A sink that raises propagates — telemetry bugs should fail
    tests, not vanish.
    """

    def __init__(self, sinks: tuple[Sink, ...] | list[Sink] = ()) -> None:
        self.sinks: list[Any] = []
        self._sinks: list[Sink] = []
        for sink in sinks:
            self.subscribe(sink)

    @staticmethod
    def _as_callable(sink: Any) -> Sink:
        accept = getattr(sink, "accept", None)
        return accept if callable(accept) else sink

    def subscribe(self, sink: Any) -> None:
        """Add a sink; it receives every subsequent event."""
        self.sinks.append(sink)
        self._sinks.append(self._as_callable(sink))

    def emit(self, event: ObsEvent) -> None:
        """Deliver one event to every sink."""
        for sink in self._sinks:
            sink(event)

    def __len__(self) -> int:
        return len(self._sinks)


@dataclass
class RingBufferSink:
    """Bounded in-memory sink: keeps the most recent ``capacity`` events."""

    capacity: int = 4096
    _events: deque[ObsEvent] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {self.capacity}")
        self._events = deque(maxlen=self.capacity)

    def accept(self, event: ObsEvent) -> None:
        self._events.append(event)

    @property
    def events(self) -> list[ObsEvent]:
        """Retained events, oldest first."""
        return list(self._events)

    def of_kind(self, kind: str) -> list[ObsEvent]:
        """Retained events of one kind, oldest first."""
        return [event for event in self._events if event.kind == kind]

    def clear(self) -> None:
        self._events.clear()

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[ObsEvent]:
        return iter(self._events)


class LoggingSink:
    """Bridge events onto a stdlib :mod:`logging` logger.

    Lets deployments that already aggregate python logs pick up the
    decision trail with zero new plumbing.
    """

    def __init__(
        self,
        logger: logging.Logger | None = None,
        level: int = logging.INFO,
    ) -> None:
        self.logger = logger or logging.getLogger("repro.obs")
        self.level = level

    def accept(self, event: ObsEvent) -> None:
        self.logger.log(
            self.level,
            "[minute %d] %s %s",
            event.minute,
            event.kind,
            event.to_dict(),
        )
