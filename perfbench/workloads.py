"""The four workloads: inputs built from a seed, one timed region, checks.

Every workload is a closed loop driven by one thread: each call starts
when the previous one returns. ``build`` makes the inputs (set-up),
``run`` is the timed region and records one latency per *tick* — the
workload's unit of closed-loop work — and ``check`` verifies the
outputs against an oracle outside the timed region. ``run`` hands each
tick to ``record``, which also lets an attached
:class:`~reference.Reference` measure the host's speed between ticks,
outside their timing.

Sizes scale with ``--seconds`` so a run measures roughly that long on a
2-core x86 box; at a given ``--seconds`` every count is a pure function
of the seed and must repeat exactly across runs of one commit.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from reference import Reference
from tracer import Tracer

__all__ = ["WORKLOADS", "Checked"]


@dataclass
class Checked:
    """What ``check`` found.

    ``attempted``/``failed`` count operations that errored or disagreed
    with the oracle. ``refused`` counts operations the program turned
    away by design (serve admission shedding); ``failed_share`` is
    ``(failed + refused) / attempted``.
    """

    attempted: int
    failed: int = 0
    refused: int = 0
    problems: list[str] = field(default_factory=list)
    stats: dict[str, float] = field(default_factory=dict)
    shares: dict[str, float] = field(default_factory=dict)
    #: Bytes the run's observer sinks wrote (0 without an observer).
    sink_bytes: int = 0

    def expect(self, condition: bool, message: str) -> None:
        if not condition:
            self.problems.append(message)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems


class Workload:
    """Base: subclasses fill ``tenant_minutes`` and ``ticks`` in ``run``."""

    name = ""

    def __init__(self, seed: int, seconds: int, workdir: Path) -> None:
        self.seed = seed
        self.seconds = seconds
        self.workdir = workdir
        self.tenant_minutes = 0
        #: Per-tick latencies in seconds, in tick order.
        self.ticks: list[float] = []
        #: Set for the untraced end-to-end pass only.
        self.reference: Reference | None = None
        #: Per tick, how many reference chunks had run when it ended.
        self.tick_chunks: list[int] = []

    def record(self, seconds: float) -> None:
        """Keep one tick's latency, then pace the reference."""
        self.ticks.append(seconds)
        if self.reference is not None:
            self.tick_chunks.append(self.reference.chunks)
            self.reference.pace()

    def build(self) -> None:
        raise NotImplementedError

    def run(self, probes: Tracer) -> None:
        raise NotImplementedError

    def check(self) -> Checked:
        raise NotImplementedError


# -- tune-search -------------------------------------------------------------------


class TuneSearch(Workload):
    """Rounds of ``RandomSearch.run`` over the Figure 12 search problem.

    One tick is one ``run(TRIALS_PER_ROUND, seed=...)`` call with no
    engine, executor or store — the call users make. One trial per call
    gives the tick percentiles 40 samples in a 10 s run, not 10.
    """

    name = "tune-search"
    TRIALS_PER_ROUND = 1
    ROUNDS_PER_SECOND = 4
    ORACLE_SHARE = 4  # one trial in this many is re-simulated by the oracle

    def build(self) -> None:
        from repro.experiments.fig12 import build_search

        self.search = build_search(resample_minutes=1)
        self.round_seeds = [
            self.seed * 1000 + r for r in range(self.ROUNDS_PER_SECOND * self.seconds)
        ]

    def run(self, probes: Tracer) -> None:
        self.outcomes: list[Any] = []
        self.errors: list[str] = []
        clock = time.perf_counter
        for round_seed in self.round_seeds:
            start = clock()
            try:
                self.outcomes.append(
                    self.search.run(self.TRIALS_PER_ROUND, seed=round_seed)
                )
            except Exception as exc:  # lint: disable=EXC001 - a failed round is counted, not fatal
                self.outcomes.append(None)
                self.errors.append(f"round seed {round_seed}: {exc!r}")
            self.record(clock() - start)
        trials = self.TRIALS_PER_ROUND * len(self.round_seeds)
        self.tenant_minutes = trials * self.search.demand.minutes

    def check(self) -> Checked:
        from repro.core import CaasperRecommender
        from repro.engine.batch import vectorizable
        from repro.sim import simulate_trace

        trials = [
            trial
            for outcome in self.outcomes
            if outcome is not None
            for trial in outcome.trials
        ]
        result = Checked(attempted=self.TRIALS_PER_ROUND * len(self.round_seeds))
        result.failed = result.attempted - len(trials)
        result.problems.extend(self.errors)
        picked = random.Random(self.seed).sample(
            range(len(trials)), k=max(1, len(trials) // self.ORACLE_SHARE)
        ) if trials else []
        for index in sorted(picked):
            trial = trials[index]
            metrics = simulate_trace(
                self.search.demand,
                CaasperRecommender(trial.config, keep_decisions=False),
                self.search.simulator_config,
            ).metrics
            if (
                metrics.total_slack != trial.total_slack
                or metrics.total_insufficient_cpu != trial.total_insufficient_cpu
                or metrics.num_scalings != trial.num_scalings
            ):
                result.failed += 1
                result.problems.append(f"trial {index} differs from the scalar oracle")
        result.stats = {
            "kcn.K": sum(t.total_slack for t in trials),
            "kcn.C": sum(t.total_insufficient_cpu for t in trials),
            "kcn.N": sum(t.num_scalings for t in trials),
            "tuning.oracle_trials": len(picked),
        }
        if trials:
            result.shares = {
                "tuning.proactive_share": sum(t.is_proactive for t in trials) / len(trials),
                "tuning.vectorizable_share": sum(vectorizable(t.config) for t in trials)
                / len(trials),
            }
        return result


# -- capacity ----------------------------------------------------------------------


class _Capacity(Workload):
    """Shared runner: timed ``run_capacity`` calls; a replay is the oracle.

    The timed region runs :attr:`REPS` identical scenarios back to back;
    every repetition after the first is a replay of it, so the oracle
    comes without an extra run. With one repetition ``check`` replays
    the scenario unobserved. One tick is one simulated cluster minute,
    timed by a probe on ``NodePoolAutoscaler.tick_provisioning`` — the
    first call of every engine minute.
    """

    REPS = 1

    def scenario(self) -> Any:
        raise NotImplementedError

    def observer(self) -> Any:
        return None

    def build(self) -> None:
        self.inputs = [self.scenario() for _ in range(self.REPS)]
        self.obs = self.observer()

    def run(self, probes: Tracer) -> None:
        from repro.capacity import contention, run_capacity
        from repro.capacity.autoscaler import NodePoolAutoscaler

        clock = time.perf_counter
        began: list[float] = []  # start of the current minute, once one began
        self.water_fill_calls = 0

        def on_fill(*args: Any, **kwargs: Any) -> None:
            self.water_fill_calls += 1

        def on_minute(*args: Any, **kwargs: Any) -> None:
            if began:
                self.record(clock() - began.pop())
            began.append(clock())

        probes.patch_method(
            NodePoolAutoscaler, "tick_provisioning", "probe", on_call=on_minute
        )
        probes.patch_function(contention.water_fill, "probe", on_call=on_fill)
        self.results: list[Any] = []
        self.errors: list[str] = []
        try:
            for scenario in self.inputs:
                try:
                    self.results.append(run_capacity(scenario, observer=self.obs))
                except Exception as exc:  # lint: disable=EXC001 - every tenant of the run fails
                    self.results.append(None)
                    self.errors.append(repr(exc))
                if self.obs is not None:
                    self.obs.close()
                if began:
                    self.record(clock() - began.pop())
        finally:
            probes.unpatch()
        self.tenant_minutes = sum(len(s.tenants) * s.minutes for s in self.inputs)

    def check(self) -> Checked:
        from repro.capacity import run_capacity

        result = Checked(attempted=len(self.inputs[0].tenants))
        run, *replays = self.results
        if self.errors:
            result.failed = result.attempted
            result.problems.extend(f"run raised {error}" for error in self.errors)
            return result
        if not replays:
            try:
                replays = [run_capacity(self.scenario())]
            except Exception as exc:  # lint: disable=EXC001 - every tenant of the replay fails
                result.failed = result.attempted
                result.problems.append(f"replay raised {exc!r}")
                return result
        for name, kcn in run.per_tenant.items():
            if any(replay.per_tenant.get(name) != kcn for replay in replays):
                result.failed += 1
        result.expect(
            all(replay.canonical_json() == run.canonical_json() for replay in replays),
            "replay does not reproduce the run byte for byte",
        )
        result.stats = {
            "kcn.K": run.metrics.total_slack,
            "kcn.C": run.metrics.total_insufficient_cpu,
            "kcn.N": run.metrics.num_scalings,
            "capacity.throttled_minutes": run.throttled_minutes,
            "capacity.scale_out_events": run.scale_out_events,
            "capacity.scale_in_events": run.scale_in_events,
            "capacity.drains_completed": run.drains_completed,
            "capacity.deferred_resizes": run.deferred_resizes,
            "capacity.placement_log": len(run.placement_log),
            "capacity.node_minutes": run.node_minutes,
        }
        return result


class ClusterDay(_Capacity):
    """The ``cluster-day`` scenario over one simulated day, unobserved, twice."""

    name = "cluster-day"
    MINUTES = 1440
    REPS = 2

    def pods(self) -> int:
        return max(8, 60 * self.seconds)

    def scenario(self) -> Any:
        from repro.capacity import make_capacity_scenario

        return make_capacity_scenario(
            "cluster-day", seed=self.seed, minutes=self.MINUTES, pods=self.pods()
        )

    def check(self) -> Checked:
        result = super().check()
        if not self.errors:
            throttled = self.results[0].throttled_minutes
            result.expect(throttled == 0, f"cluster-day throttled {throttled} minutes")
            result.expect(
                self.water_fill_calls == 0,
                f"cluster-day called water_fill {self.water_fill_calls} times",
            )
        return result


class CapacitySurge(_Capacity):
    """Four waves of surging tenants on a tight pool, observed to JSONL.

    Wave ``w = i % 4`` surges from ``(0.1 + 0.2 w) T`` for ``0.12 T``
    minutes, 0.5 -> 5.5 cores with 10% multiplicative noise; the pool
    starts 12.5% short of the initial reservation's 9/8 headroom, and
    ``node-001`` is drained half way through.
    """

    name = "capacity-surge"
    MINUTES = 1440

    def pods(self) -> int:
        return max(72, 18 * self.seconds)

    def scenario(self) -> Any:
        from repro.capacity import CapacityConfig, CapacityScenario, NodeTemplate, TenantSpec
        from repro.trace import CpuTrace

        minutes = self.MINUTES
        pods = self.pods()
        tenants = []
        for index in range(pods):
            rng = np.random.default_rng([self.seed, index])
            start = int((0.1 + 0.2 * (index % 4)) * minutes)
            samples = np.full(minutes, 0.5)
            samples[start : start + int(0.12 * minutes)] = 5.5
            samples *= 1.0 + 0.1 * rng.standard_normal(minutes)
            name = f"surge-{index:04d}"
            tenants.append(
                TenantSpec(
                    name=name,
                    trace=CpuTrace(np.clip(samples, 0.05, None), name=name),
                    initial_cores=2,
                    min_cores=1,
                    max_cores=6,
                )
            )
        template = NodeTemplate(cpu_cores=32, memory_mb=128 * 1024)
        initial = math.ceil(pods * 2000 * 9 / (8 * template.allocatable_millicores))
        config = CapacityConfig(
            node_template=template,
            initial_nodes=initial,
            min_nodes=max(initial // 2, 1),
            max_nodes=3 * initial,
            stagger_decisions=False,
            scale_in_after_minutes=20,
        )
        return CapacityScenario(
            name="capacity-surge",
            seed=self.seed,
            minutes=minutes,
            config=config,
            tenants=tuple(tenants),
            drains=((minutes // 2, "node-001"),),
        )

    def observer(self) -> Any:
        from repro.obs import JsonlSink, Observer

        self.jsonl = self.workdir / "capacity-surge.jsonl"
        return Observer(sinks=(JsonlSink(self.jsonl),))

    def check(self) -> Checked:
        result = super().check()
        if not self.errors:
            run = self.results[0]
            for counter in (
                "throttled_minutes",
                "scale_out_events",
                "scale_in_events",
                "drains_completed",
            ):
                result.expect(
                    getattr(run, counter) > 0, f"capacity-surge has no {counter}"
                )
            result.sink_bytes = self.jsonl.stat().st_size if self.jsonl.is_file() else 0
            result.expect(result.sink_bytes > 0, "the observer wrote no JSONL events")
        return result


# -- serve-journaled ---------------------------------------------------------------


class ServeJournaled(Workload):
    """A fsync-journaled serve plane, driven tick by tick by its harness.

    One tick is ``push_tick`` then ``plane.step_tick()``. The oracle is
    a crash and ``reopen()``: replaying the journal must rebuild the
    same ledger digest and K/C/N.

    Snapshots come every :attr:`SNAPSHOT_TICKS` ticks instead of the
    default 120: a snapshot rewrites the whole input history, and eight
    of them would be most of the ten ticks beyond p99, so p99 would sit
    on the edge between snapshot ticks and the ticks where every tenant
    consults. With two per run, p99 falls among the consult ticks. The
    interval does not divide :attr:`TICKS`, so the last snapshot leaves
    a journal tail that the reopen has to replay.
    """

    name = "serve-journaled"
    TICKS = 1000
    SNAPSHOT_TICKS = 480

    def tenants(self) -> int:
        return max(4, 7 * self.seconds)

    def build(self) -> None:
        from repro.serve import ServeConfig, ServeHarness

        self.state_dir = self.workdir / "serve-state"
        self.harness = ServeHarness(
            self.tenants(),
            config=ServeConfig(
                fsync_journal=True,
                snapshot_interval_ticks=self.SNAPSHOT_TICKS,
                seed=self.seed,
            ),
            state_dir=str(self.state_dir),
            seed=self.seed,
            crash_rate=0.0,
        )

    def run(self, probes: Tracer) -> None:
        harness = self.harness
        plane = harness.plane
        clock = time.perf_counter
        for _ in range(self.TICKS):
            start = clock()
            harness.push_tick(plane.tick)
            plane.step_tick()
            self.record(clock() - start)
        self.tenant_minutes = self.tenants() * self.TICKS

    def decision_ticks(self) -> list[bool]:
        """Ticks on which at least one tenant consults its recommender.

        Every tenant steps every tick (no crashes are injected, which
        ``check`` verifies), so a tenant's loop minute is the tick.
        """
        intervals = {spec.decision_interval_minutes for spec in self.harness.specs}
        return [
            tick > 0 and any(tick % interval == 0 for interval in intervals)
            for tick in range(self.TICKS)
        ]

    def check(self) -> Checked:
        from repro.errors import ServeError

        harness = self.harness
        plane = harness.plane
        audit = harness.audit()
        admission = audit["admission"]
        steps = sum(runtime.minutes_stepped for runtime in plane.tenants.values())
        admitted = sum(plane.ingested_counts().values())
        crashed = audit["crashes"]
        result = Checked(
            attempted=admitted + admission["rejected"] + steps + crashed,
            failed=crashed,
            refused=admission["shed"] + admission["rejected"],
        )
        result.expect(
            steps == self.tenants() * self.TICKS,
            f"{steps} tenant steps, expected {self.tenants() * self.TICKS}",
        )
        digest = plane.ledger_digest()
        kcn = harness.kcn()
        records = plane.state.seq if plane.state is not None else 0
        journal = plane.state.journal_path if plane.state is not None else None
        # Every line after the header is a record the reopen must replay.
        tail = (
            len(journal.read_text(encoding="utf-8").splitlines()) - 1
            if journal is not None and journal.is_file()
            else 0
        )
        result.expect(tail > 0, "the journal holds no records past the last snapshot")
        harness.crash()
        try:
            harness.reopen()
            recovered = harness.plane.ledger_digest() == digest and harness.kcn() == kcn
        except ServeError as exc:
            recovered = False
            result.problems.append(f"reopen refused the journal: {exc}")
        finally:
            harness.plane.abandon()
        if not recovered:
            result.failed = result.attempted
            result.problems.append("the reopened plane's ledger differs")
        result.stats = {
            "kcn.K": sum(entry["K"] for entry in kcn.values()),
            "kcn.C": sum(entry["C"] for entry in kcn.values()),
            "kcn.N": sum(entry["N"] for entry in kcn.values()),
            "serve.admitted_samples": admitted,
            "serve.shed_samples": admission["shed"],
            "serve.refused_offers": admission["rejected"],
            "serve.journal_records": records,
        }
        flags = self.decision_ticks()
        result.shares = {"serve.decision_tick_share": sum(flags) / len(flags)}
        return result


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (TuneSearch, ClusterDay, CapacitySurge, ServeJournaled)
}
