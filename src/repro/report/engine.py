"""The attribution engine: stamped events in, causal answers out.

Everything here is a pure function of the recorded event stream — the
engine never re-runs a simulation, so reports are reproducible from a
trace log alone and identical for serial and fleet executions of the
same plan (the relay guarantees the streams match).

Attribution model
-----------------
A *throttling episode* is a maximal run of consecutive
``throttled`` minutes. Its root cause is the nearest preceding (or
in-episode) event that can explain starved CPU, chosen from:

- an enacted scale-*down* (``resize``) — capacity was removed,
- a ``rollback`` — the watchdog restored a smaller healthy spec,
- an abandoned actuation ``retry`` — a needed scale-up never landed,
- a ``resize_deferred`` — a needed resize was blocked (cooldown,
  in-flight update, capacity, budget),
- a ``quarantine`` / ``safe_mode`` entry — the loop stopped acting,
- a ``fault_injected`` — chaos hit the substrate directly,
- a scale-*down* ``decision`` that has not (yet) been enacted.

Candidates further back than :data:`ATTRIBUTION_WINDOW_MINUTES` before
the episode are rejected: a stale cause is worse than an honest
``unattributed`` marker, which the reports surface explicitly.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence

from ..obs.events import ObsEvent
from ..obs.tracing import TraceGraph, build_trace_graph

__all__ = [
    "ATTRIBUTION_WINDOW_MINUTES",
    "CausalLink",
    "ThrottleEpisode",
    "DecisionRecord",
    "BranchBreakdown",
    "RunReport",
    "FleetReport",
    "split_runs",
    "build_run_report",
    "build_fleet_report",
]

#: How far back (simulated minutes) a candidate cause may precede the
#: episode it is blamed for.
ATTRIBUTION_WINDOW_MINUTES = 60

#: Tie-break priority when several candidate causes share a minute:
#: the most *direct* explanation of missing CPU wins.
_CAUSE_PRIORITY = {
    "rollback": 0,
    "retry": 1,
    "resize": 2,
    "quarantine": 3,
    "safe_mode": 4,
    "fault_injected": 5,
    "node_contention": 6,
    "resize_deferred": 7,
    "pod_pending": 8,
    "node_drain": 9,
    "decision": 10,
}

#: Branch label for minutes governed by no decision yet (run warm-up).
_INITIAL_BRANCH = "initial"


@dataclass(frozen=True)
class CausalLink:
    """One hop of a causal chain, condensed for reporting."""

    kind: str
    minute: int
    span_id: str
    detail: str = ""

    def label(self) -> str:
        """``kind@minute`` with the discriminating detail when present."""
        base = f"{self.kind}@{self.minute}"
        return f"{base}[{self.detail}]" if self.detail else base

    def to_dict(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "minute": self.minute,
            "span_id": self.span_id,
            "detail": self.detail,
        }


@dataclass
class ThrottleEpisode:
    """A maximal run of consecutive insufficient-CPU minutes."""

    start_minute: int
    end_minute: int
    total_insufficient_cores: float
    peak_insufficient_cores: float
    cause: CausalLink | None = None
    #: Causal chain of the cause, leaf-first up to the run root.
    chain: tuple[CausalLink, ...] = ()
    #: Why the episode is unattributed, when it is.
    note: str = ""

    @property
    def minutes(self) -> int:
        return self.end_minute - self.start_minute + 1

    @property
    def attributed(self) -> bool:
        return self.cause is not None

    def to_dict(self) -> dict[str, Any]:
        return {
            "start_minute": self.start_minute,
            "end_minute": self.end_minute,
            "minutes": self.minutes,
            "total_insufficient_cores": self.total_insufficient_cores,
            "peak_insufficient_cores": self.peak_insufficient_cores,
            "attributed": self.attributed,
            "cause": self.cause.to_dict() if self.cause else None,
            "chain": [link.to_dict() for link in self.chain],
            "note": self.note,
        }


@dataclass
class DecisionRecord:
    """One consultation and everything causally downstream of it.

    ``slope``, ``skew``, ``scaling_factor`` and ``usage_quantile`` are
    the Algorithm 1 derivation copied from the decision event; they are
    ``None`` for opaque recommenders.
    """

    minute: int
    recommender: str
    branch: str
    reason: str
    current_cores: int
    target_cores: int
    slope: float | None = None
    skew: float | None = None
    scaling_factor: float | None = None
    usage_quantile: float | None = None
    enacted_minute: int | None = None
    deferrals: int = 0
    retries: int = 0
    rolled_back: bool = False

    @property
    def latency_minutes(self) -> int | None:
        if self.enacted_minute is None:
            return None
        return self.enacted_minute - self.minute

    def to_dict(self) -> dict[str, Any]:
        return {
            "minute": self.minute,
            "recommender": self.recommender,
            "branch": self.branch,
            "reason": self.reason,
            "current_cores": self.current_cores,
            "target_cores": self.target_cores,
            "slope": self.slope,
            "skew": self.skew,
            "scaling_factor": self.scaling_factor,
            "usage_quantile": self.usage_quantile,
            "enacted_minute": self.enacted_minute,
            "latency_minutes": self.latency_minutes,
            "deferrals": self.deferrals,
            "retries": self.retries,
            "rolled_back": self.rolled_back,
        }


@dataclass
class BranchBreakdown:
    """K/C/N contributions of the minutes one branch governed.

    ``slack_estimate_core_minutes`` (the K share) is estimated from each
    decision's observation-window mean — the event stream does not carry
    per-minute usage for unthrottled minutes — and is ``None`` when no
    decision in the branch reported window stats.
    """

    branch: str
    decisions: int = 0
    resizes: int = 0
    governed_minutes: int = 0
    insufficient_core_minutes: float = 0.0
    slack_estimate_core_minutes: float | None = None

    def to_dict(self) -> dict[str, Any]:
        return {
            "branch": self.branch,
            "decisions": self.decisions,
            "resizes": self.resizes,
            "governed_minutes": self.governed_minutes,
            "insufficient_core_minutes": self.insufficient_core_minutes,
            "slack_estimate_core_minutes": self.slack_estimate_core_minutes,
        }


@dataclass
class RunReport:
    """Everything the engine distilled from one run trace."""

    trace_id: str
    name: str = ""
    seed: int = 0
    decisions: list[DecisionRecord] = field(default_factory=list)
    episodes: list[ThrottleEpisode] = field(default_factory=list)
    branches: list[BranchBreakdown] = field(default_factory=list)
    event_counts: Counter[str] = field(default_factory=Counter)

    @property
    def attributed_count(self) -> int:
        return sum(1 for episode in self.episodes if episode.attributed)

    @property
    def unattributed_count(self) -> int:
        return len(self.episodes) - self.attributed_count

    def to_dict(self) -> dict[str, Any]:
        return {
            "trace_id": self.trace_id,
            "name": self.name,
            "seed": self.seed,
            "decisions": [record.to_dict() for record in self.decisions],
            "episodes": [episode.to_dict() for episode in self.episodes],
            "branches": [branch.to_dict() for branch in self.branches],
            "event_counts": dict(sorted(self.event_counts.items())),
            "episodes_attributed": self.attributed_count,
            "episodes_unattributed": self.unattributed_count,
        }


@dataclass
class FleetReport:
    """Rollup over every trace in one event stream.

    ``runs`` holds one :class:`RunReport` per run-level trace
    (``simulate:``/``live:``) in first-seen order; ``fleet_traces``
    lists the fleet-level traces themselves; ``cache_provenance``
    records, per cache hit, which run originally produced the reused
    blob.
    """

    runs: list[RunReport] = field(default_factory=list)
    fleet_traces: list[dict[str, Any]] = field(default_factory=list)
    cache_provenance: list[dict[str, Any]] = field(default_factory=list)
    jobs_ok: int = 0
    jobs_failed: int = 0

    @property
    def total_episodes(self) -> int:
        return sum(len(run.episodes) for run in self.runs)

    @property
    def total_unattributed(self) -> int:
        return sum(run.unattributed_count for run in self.runs)

    def to_dict(self) -> dict[str, Any]:
        return {
            "runs": [run.to_dict() for run in self.runs],
            "fleet_traces": self.fleet_traces,
            "cache_provenance": self.cache_provenance,
            "jobs_ok": self.jobs_ok,
            "jobs_failed": self.jobs_failed,
            "total_episodes": self.total_episodes,
            "total_unattributed": self.total_unattributed,
        }


# ---------------------------------------------------------------------------
# Building


def split_runs(events: Iterable[ObsEvent]) -> dict[str, list[ObsEvent]]:
    """Stamped events grouped by trace id, first-seen order preserved.

    Unstamped events (pre-tracing logs, observer without a tracer) are
    dropped — they carry no causal identity to report on.
    """
    runs: dict[str, list[ObsEvent]] = {}
    for event in events:
        if not event.trace_id:
            continue
        runs.setdefault(event.trace_id, []).append(event)
    return runs


def _payload_detail(event: ObsEvent) -> str:
    """The most discriminating single field of an event, for labels."""
    payload = event.to_dict()
    for key in ("branch", "reason", "outcome", "fault", "component", "action"):
        value = payload.get(key)
        if value:
            return str(value)
    return ""


def _link_for(event: ObsEvent) -> CausalLink:
    return CausalLink(
        kind=event.kind,
        minute=event.minute,
        span_id=event.span_id,
        detail=_payload_detail(event),
    )


def _chain_links(graph: TraceGraph, span_id: str) -> tuple[CausalLink, ...]:
    links = []
    for span in graph.chain(span_id):
        detail = ""
        for key in ("branch", "reason", "outcome", "fault", "component", "name"):
            value = span.payload.get(key)
            if value:
                detail = str(value)
                break
        links.append(
            CausalLink(
                kind=span.kind,
                minute=span.minute,
                span_id=span.span_id,
                detail=detail,
            )
        )
    return tuple(links)


def _is_candidate_cause(event: ObsEvent) -> bool:
    payload = event.to_dict()
    kind = event.kind
    if kind in ("rollback", "quarantine", "fault_injected", "resize_deferred"):
        return True
    # Capacity-layer causes: a contended node or unschedulable pod is a
    # direct explanation for cluster-level throttling minutes.
    if kind in ("node_contention", "pod_pending"):
        return True
    if kind == "node_drain":
        return payload.get("action") == "cordon"
    if kind == "retry":
        return payload.get("outcome") == "abandoned"
    if kind == "safe_mode":
        return payload.get("action") == "enter"
    if kind == "resize":
        return int(payload.get("to_cores", 0)) < int(payload.get("from_cores", 0))
    if kind == "decision":
        return int(payload.get("target_cores", 0)) < int(
            payload.get("current_cores", 0)
        )
    return False


def _episodes_of(events: Sequence[ObsEvent]) -> list[ThrottleEpisode]:
    throttled = sorted(
        (event for event in events if event.kind == "throttled"),
        key=lambda event: event.minute,
    )
    episodes: list[ThrottleEpisode] = []
    for event in throttled:
        payload = event.to_dict()
        insufficient = max(
            float(payload.get("demand_cores", 0.0))
            - float(payload.get("limit_cores", 0.0)),
            0.0,
        )
        if episodes and event.minute == episodes[-1].end_minute + 1:
            episode = episodes[-1]
            episode.end_minute = event.minute
            episode.total_insufficient_cores += insufficient
            episode.peak_insufficient_cores = max(
                episode.peak_insufficient_cores, insufficient
            )
        else:
            episodes.append(
                ThrottleEpisode(
                    start_minute=event.minute,
                    end_minute=event.minute,
                    total_insufficient_cores=insufficient,
                    peak_insufficient_cores=insufficient,
                )
            )
    return episodes


def _attribute_episodes(
    episodes: list[ThrottleEpisode],
    events: Sequence[ObsEvent],
    graph: TraceGraph,
    window_minutes: int,
) -> None:
    candidates = sorted(
        (event for event in events if _is_candidate_cause(event)),
        key=lambda event: (event.minute, _CAUSE_PRIORITY.get(event.kind, 99)),
    )
    first_decision = min(
        (event.minute for event in events if event.kind == "decision"),
        default=None,
    )
    for episode in episodes:
        best: ObsEvent | None = None
        for event in candidates:
            if event.minute > episode.end_minute:
                break
            if event.minute < episode.start_minute - window_minutes:
                continue
            if (
                best is None
                or event.minute > best.minute
                or (
                    event.minute == best.minute
                    and _CAUSE_PRIORITY.get(event.kind, 99)
                    < _CAUSE_PRIORITY.get(best.kind, 99)
                )
            ):
                best = event
        if best is not None:
            episode.cause = _link_for(best)
            episode.chain = _chain_links(graph, best.span_id)
            continue
        if first_decision is None or episode.end_minute < first_decision:
            episode.note = (
                "precedes the first decision (initial allocation too small)"
            )
        else:
            episode.note = (
                f"no causal event within {window_minutes} minutes"
            )


def _decision_records(
    events: Sequence[ObsEvent], graph: TraceGraph
) -> list[DecisionRecord]:
    records: list[DecisionRecord] = []
    rollback_decision_spans: set[str] = set()
    for event in events:
        if event.kind != "rollback":
            continue
        for link in _chain_links(graph, event.span_id):
            if link.kind == "decision":
                rollback_decision_spans.add(link.span_id)
    for event in sorted(
        (event for event in events if event.kind == "decision"),
        key=lambda event: event.minute,
    ):
        payload = event.to_dict()
        record = DecisionRecord(
            minute=event.minute,
            recommender=str(payload.get("recommender", "")),
            branch=str(payload.get("branch", "")),
            reason=str(payload.get("reason", "")),
            current_cores=int(payload.get("current_cores", 0)),
            target_cores=int(payload.get("target_cores", 0)),
            slope=payload.get("slope"),
            skew=payload.get("skew"),
            scaling_factor=payload.get("scaling_factor"),
            usage_quantile=payload.get("usage_quantile"),
            rolled_back=event.span_id in rollback_decision_spans,
        )
        span = graph.spans.get(event.span_id)
        if span is not None:
            for child in span.children:
                if child.kind == "resize" and record.enacted_minute is None:
                    record.enacted_minute = child.minute
                elif child.kind == "resize_deferred":
                    record.deferrals += 1
                elif child.kind == "retry":
                    record.retries += 1
                    # A retry that finally enacted the decision parents
                    # the resize span itself.
                    for grandchild in child.children:
                        if (
                            grandchild.kind == "resize"
                            and record.enacted_minute is None
                        ):
                            record.enacted_minute = grandchild.minute
        records.append(record)
    return records


def _governing_branch(
    decisions: Sequence[DecisionRecord], minute: int
) -> str:
    branch = _INITIAL_BRANCH
    for decision in decisions:
        if decision.minute > minute:
            break
        branch = decision.branch or "opaque"
    return branch


def _branch_breakdowns(
    events: Sequence[ObsEvent],
    decisions: Sequence[DecisionRecord],
    graph: TraceGraph,
) -> list[BranchBreakdown]:
    breakdowns: dict[str, BranchBreakdown] = {}

    def bucket(branch: str) -> BranchBreakdown:
        return breakdowns.setdefault(branch, BranchBreakdown(branch=branch))

    max_minute = max((event.minute for event in events), default=0)
    ordered = sorted(decisions, key=lambda record: record.minute)
    for index, decision in enumerate(ordered):
        branch = decision.branch or "opaque"
        end = (
            ordered[index + 1].minute
            if index + 1 < len(ordered)
            else max_minute + 1
        )
        governed = max(end - decision.minute, 0)
        entry = bucket(branch)
        entry.decisions += 1
        entry.governed_minutes += governed
    if ordered and ordered[0].minute > 0:
        bucket(_INITIAL_BRANCH).governed_minutes += ordered[0].minute
    elif not ordered and max_minute:
        bucket(_INITIAL_BRANCH).governed_minutes += max_minute + 1

    # C: each throttled minute charges the branch governing it.
    for event in events:
        if event.kind != "throttled":
            continue
        payload = event.to_dict()
        insufficient = max(
            float(payload.get("demand_cores", 0.0))
            - float(payload.get("limit_cores", 0.0)),
            0.0,
        )
        entry = bucket(_governing_branch(ordered, event.minute))
        entry.insufficient_core_minutes += insufficient

    # N: each enacted resize charges its *causing* decision's branch
    # (via the causal chain), falling back to the decision governing
    # its decided minute.
    for event in events:
        if event.kind != "resize":
            continue
        branch = None
        for link in _chain_links(graph, event.span_id):
            if link.kind == "decision":
                branch = link.detail or "opaque"
                break
        if branch is None:
            decided = int(event.to_dict().get("decided_minute", event.minute))
            branch = _governing_branch(ordered, decided)
        bucket(branch).resizes += 1

    # K estimate: window-mean slack times the governed interval.
    slack_by_branch: dict[str, float] = {}
    decision_events = sorted(
        (event for event in events if event.kind == "decision"),
        key=lambda event: event.minute,
    )
    for index, event in enumerate(decision_events):
        payload = event.to_dict()
        stats = payload.get("window_stats") or {}
        mean = stats.get("mean_cores")
        if mean is None:
            continue
        end = (
            decision_events[index + 1].minute
            if index + 1 < len(decision_events)
            else max_minute + 1
        )
        governed = max(end - event.minute, 0)
        slack = max(float(payload.get("current_cores", 0)) - float(mean), 0.0)
        branch = str(payload.get("branch", "")) or "opaque"
        slack_by_branch[branch] = (
            slack_by_branch.get(branch, 0.0) + slack * governed
        )
    for branch, slack in slack_by_branch.items():
        bucket(branch).slack_estimate_core_minutes = slack

    return [breakdowns[branch] for branch in sorted(breakdowns)]


def build_run_report(
    events: Iterable[ObsEvent],
    trace_id: str,
    window_minutes: int = ATTRIBUTION_WINDOW_MINUTES,
) -> RunReport:
    """Distil one run trace out of an event stream."""
    run_events = [
        event for event in events if event.trace_id == trace_id
    ]
    graph = build_trace_graph(run_events)
    report = RunReport(trace_id=trace_id)
    for event in run_events:
        report.event_counts[event.kind] += 1
        if event.kind == "trace_started":
            payload = event.to_dict()
            report.name = str(payload.get("name", ""))
            report.seed = int(payload.get("seed", 0))
    report.decisions = _decision_records(run_events, graph)
    report.episodes = _episodes_of(run_events)
    _attribute_episodes(report.episodes, run_events, graph, window_minutes)
    report.branches = _branch_breakdowns(run_events, report.decisions, graph)
    return report


def build_fleet_report(
    events: Iterable[ObsEvent],
    window_minutes: int = ATTRIBUTION_WINDOW_MINUTES,
) -> FleetReport:
    """Distil every trace in an event stream; fleet rollup on top."""
    materialised = list(events)
    runs = split_runs(materialised)
    report = FleetReport()
    for trace_id, run_events in runs.items():
        name = ""
        for event in run_events:
            if event.kind == "trace_started":
                payload = event.to_dict()
                name = str(payload.get("name", ""))
                break
        if name.startswith("fleet:"):
            report.fleet_traces.append(
                {
                    "trace_id": trace_id,
                    "name": name,
                    "seed": next(
                        (
                            int(event.to_dict().get("seed", 0))
                            for event in run_events
                            if event.kind == "trace_started"
                        ),
                        0,
                    ),
                }
            )
        else:
            report.runs.append(
                build_run_report(materialised, trace_id, window_minutes)
            )
    for event in materialised:
        if event.kind == "fleet_job_finished":
            report.jobs_ok += 1
        elif event.kind == "fleet_job_failed":
            report.jobs_failed += 1
        elif event.kind == "cache_hit":
            payload = event.to_dict()
            report.cache_provenance.append(
                {
                    "key": str(payload.get("key", "")),
                    "result_kind": str(payload.get("result_kind", "")),
                    "source": str(payload.get("source", "")),
                    "producer_trace_id": str(
                        payload.get("producer_trace_id", "")
                    ),
                    "producer_epoch": int(payload.get("producer_epoch", 0)),
                }
            )
    return report
