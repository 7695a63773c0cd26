"""Event declarations: metric effects, span keys and their documentation.

Each event class in :mod:`repro.obs.events` declares the metric families
it updates and the fields that key its span; :meth:`Observer.emit`
applies them generically. These tests hold the declarations consistent
with the classes, with each other, and with the metrics table in
``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

import dataclasses
import re
from pathlib import Path

import pytest

from repro.fleet import FleetRunner
from repro.fleet.plans import sweep_plan
from repro.obs import Observer
from repro.obs.events import (
    _EVENT_TYPES,
    FleetJobFinishedEvent,
    RetryEvent,
    ResizeDeferredEvent,
    ResizeEvent,
)
from repro.trace import CpuTrace
from repro.workloads.synthetic import noisy

DOCS = Path(__file__).resolve().parents[1] / "docs" / "OBSERVABILITY.md"


def _attributes(cls: type) -> set[str]:
    return {field.name for field in dataclasses.fields(cls)} | set(dir(cls))


def _declared_families() -> dict[str, tuple[str, ...]]:
    """Family → label names, from the event classes."""
    return {
        effect.family: tuple(name for name, _ in effect.labels)
        for cls in _EVENT_TYPES.values()
        for effect in cls.effects
    }


def _metric_only_families() -> dict[str, tuple[str, ...]]:
    """Family → label names, from the observer's metric-only methods."""
    observer = Observer()
    observer.sample(0, demand_cores=1.0, usage_cores=1.0, limit_cores=2.0)
    observer.step_seconds(0.001)
    observer.store_bytes(1)
    return {
        name: observer.metrics.get(name).labelnames
        for name in observer.metrics.snapshot()
    }


def _documented_families() -> dict[str, tuple[str, ...]]:
    """Family → label names, from the docs' metrics table."""
    section = DOCS.read_text(encoding="utf-8").split("## Metrics", 1)[1]
    section = section.split("\n## ", 1)[0]
    families: dict[str, tuple[str, ...]] = {}
    for match in re.finditer(r"^\| `([a-z_]+)(\{[^}]*\})?` \|", section, re.M):
        labels = re.findall(r"([a-z_]+)=", match.group(2) or "")
        families[match.group(1)] = tuple(labels)
    return families


@pytest.mark.parametrize("kind", sorted(_EVENT_TYPES))
def test_declarations_name_real_attributes(kind):
    cls = _EVENT_TYPES[kind]
    attributes = _attributes(cls)
    for name in cls.span_key:
        assert name in attributes, f"{kind}: span_key field {name!r}"
    if cls.caused_by is not None:
        assert cls.caused_by in attributes, f"{kind}: caused_by {cls.caused_by!r}"
    for effect in cls.effects:
        assert effect.type in ("counter", "gauge", "histogram"), effect
        for _, attribute in effect.labels:
            assert attribute in attributes, f"{kind}: label {attribute!r}"
        if effect.value is not None:
            assert effect.value in attributes, f"{kind}: value {effect.value!r}"


def test_shared_families_are_declared_identically():
    seen: dict[str, tuple] = {}
    for kind, cls in sorted(_EVENT_TYPES.items()):
        for effect in cls.effects:
            shape = (
                effect.type,
                tuple(name for name, _ in effect.labels),
                effect.help,
                effect.buckets,
            )
            previous = seen.setdefault(effect.family, shape)
            assert previous == shape, f"{kind} redeclares {effect.family}"


def test_docs_table_lists_exactly_the_declared_families():
    declared = {**_declared_families(), **_metric_only_families()}
    assert _documented_families() == declared


def test_emit_stamps_links_and_counts():
    observer = Observer()
    observer.start_trace("simulate:effects", seed=1)
    tracer = observer.tracer
    assert tracer is not None
    retry = observer.emit(
        RetryEvent(minute=7, outcome="succeeded", decided_minute=3)
    )
    assert retry.trace_id == tracer.trace_id
    assert retry.span_id == tracer.span_id("retry", 7, "succeeded")
    assert retry.parent_span_id == tracer.span_id("decision", 3)
    resize = observer.emit(ResizeEvent(minute=9, decided_minute=7))
    assert resize.parent_span_id == retry.span_id
    deferred = observer.emit(
        ResizeDeferredEvent(minute=8, reason="cooldown"), cause_minute=3
    )
    assert deferred.span_id == tracer.span_id("resize_deferred", 8, "cooldown")
    assert deferred.parent_span_id == tracer.span_id("decision", 3)
    metrics = observer.metrics
    assert metrics.counter("resizes_total").value() == 1
    assert metrics.histogram("resize_latency_minutes").sum() == 2.0
    assert (
        metrics.counter("retries_total", labelnames=("outcome",)).value(
            outcome="succeeded"
        )
        == 1
    )


def test_untraced_emit_leaves_ids_empty():
    event = Observer().emit(ResizeEvent(minute=5, decided_minute=1))
    assert (event.trace_id, event.span_id, event.parent_span_id) == ("", "", "")


def test_journaled_fleet_job_counts_status_but_not_seconds():
    observer = Observer()
    observer.emit(
        FleetJobFinishedEvent(
            minute=0, job_id="a", elapsed_seconds=2.0, journaled=True
        )
    )
    jobs = observer.metrics.counter("fleet_jobs_total", labelnames=("status",))
    assert jobs.value(status="journaled") == 1
    assert "fleet_job_seconds" not in observer.metrics
    observer.emit(FleetJobFinishedEvent(minute=1, job_id="b", elapsed_seconds=3.0))
    assert jobs.value(status="ok") == 1
    assert observer.metrics.histogram("fleet_job_seconds").sum() == 3.0


def test_unfired_families_stay_unregistered():
    observer = Observer()
    observer.emit(ResizeDeferredEvent(minute=1, reason="cooldown"))
    assert set(observer.metrics.snapshot()) == {"resizes_deferred_total"}


def test_fleet_relay_counts_worker_events_once():
    traces = [
        noisy(CpuTrace.constant(2.0 + i, 180, f"relay-{i}"), sigma=0.1, seed=i)
        for i in range(2)
    ]
    observer = Observer()
    FleetRunner(observer=observer).run(sweep_plan(traces, name="relay"))
    decisions = observer.events_of_kind("decision")
    resizes = observer.events_of_kind("resize")
    assert decisions
    counted = observer.metrics.get("decisions_total").snapshot()["values"]
    assert sum(counted.values()) == len(decisions)
    assert observer.metrics.counter("resizes_total").value() == len(resizes)
    # Worker events keep their worker-side (per-run) trace ids.
    fleet_trace = observer.events_of_kind("trace_started")[0].trace_id
    assert all(event.trace_id != fleet_trace for event in decisions)
