"""Unit and seam tests for the vectorized batch engine.

test_engine_parity.py owns the randomized byte-identity property; this
file covers everything around it — degenerate batches, the numpy-floor
guard, certification fallbacks, engine/scalar store interop, the
batch-level observability event, and parity at each integration seam
(sweep, tuning, fleet, capacity), and the ``simulate_many`` dispatch
every batch entry point goes through: byte-identity in input order for a
batch mixing every routing case, the ``CAASPER_ENGINE`` oracle switch,
and store entries shared between the engine and the oracle.
"""

import dataclasses
import functools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
import repro.engine as engine_pkg
import repro.engine.kernel as kernel
from repro.baselines import MovingAverageRecommender
from repro.capacity import make_capacity_scenario, run_capacity
from repro.capacity.engine import ClusterEngine
from repro.core.config import CaasperConfig
from repro.core.recommender import CaasperRecommender
from repro.engine import (
    BatchEngine,
    EngineError,
    EngineJob,
    engine_job_for,
    vectorizable,
)
from repro.errors import ConfigError, SimulationError
from repro.fleet.codec import canonical_json
from repro.fleet.jobs import FleetPlan, SimulateJob, TrialJob
from repro.fleet.runner import FleetRunner
from repro.obs import JsonlSink, Observer, RingBufferSink, read_events
from repro.obs.events import EngineBatchEvent
from repro.obs.spans import SpanCollector, activate
from repro.obs.tracing import render_trace_jsonl
from repro.sim import SimulatorConfig, simulate_many, simulate_trace
from repro.sim.sweep import SweepConfig, default_recommender_factory, run_sweep
from repro.store import ResultStore
from repro.store.keys import simulate_key
from repro.store.memo import cached_trial
from repro.trace import CpuTrace
from repro.tuning import GridSearch, ParameterSpace, RandomSearch


def blob(result) -> bytes:
    return canonical_json(
        {
            "name": result.name,
            "demand": result.demand.tolist(),
            "usage": result.usage.tolist(),
            "limits": result.limits.tolist(),
            "events": [list(dataclasses.astuple(e)) for e in result.events],
            "metrics": dataclasses.asdict(result.metrics),
        }
    )


def bumpy_trace(minutes: int, seed: int, name: str) -> CpuTrace:
    rng = np.random.default_rng(seed)
    t = np.arange(minutes)
    samples = 3.0 + 2.5 * np.sin(2 * np.pi * t / 97.0) + rng.uniform(0, 2, minutes)
    return CpuTrace(np.maximum(samples, 0.0), name)


def oracle(trace, config, sim):
    return simulate_trace(
        trace, CaasperRecommender(config, keep_decisions=False), sim
    )


CONFIG = CaasperConfig(max_cores=16)
SIM = SimulatorConfig(initial_cores=4, max_cores=16)


def jobs_for(traces, config=CONFIG, sim=SIM):
    return [EngineJob.from_config(t, config, sim) for t in traces]


def count_calls(monkeypatch, owner, name) -> list:
    """Wrap ``owner.name`` so each call appends its arguments to the
    returned list."""
    calls = []
    real = getattr(owner, name)

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(owner, name, spy)
    return calls


class TestEdgeCases:
    def test_empty_batch(self):
        assert BatchEngine().run([]) == []

    def test_batch_of_one(self):
        trace = bumpy_trace(240, 1, "one")
        [got] = BatchEngine().run(jobs_for([trace]))
        assert blob(got) == blob(oracle(trace, CONFIG, SIM))

    def test_single_minute_traces(self):
        # No decision minute ever fires: usage is min(demand, initial).
        traces = [CpuTrace(np.array([v]), f"m{i}") for i, v in enumerate((0.5, 7.0))]
        results = BatchEngine().run(jobs_for(traces))
        for trace, got in zip(traces, results):
            assert blob(got) == blob(oracle(trace, CONFIG, SIM))
            assert got.events == ()
            assert got.limits.tolist() == [float(SIM.initial_cores)]

    def test_ragged_batch_with_degenerate_lanes(self):
        traces = [
            bumpy_trace(1, 2, "len-1"),
            bumpy_trace(2, 3, "len-2"),
            bumpy_trace(301, 4, "len-301"),
        ]
        results = BatchEngine().run(jobs_for(traces))
        for trace, got in zip(traces, results):
            assert blob(got) == blob(oracle(trace, CONFIG, SIM))

    def test_unfilled_slot_raises_instead_of_shifting(self, monkeypatch):
        # A batch kernel that drops its last lane must not let the
        # remaining results slide onto the wrong jobs.
        import repro.engine.batch as batch

        real = batch._simulate_many
        monkeypatch.setattr(
            batch, "_simulate_many", lambda jobs: real(jobs)[:-1]
        )
        traces = [bumpy_trace(120, 5 + s, f"slot{s}") for s in range(3)]
        with pytest.raises(SimulationError, match=r"job 2 \(caasper on slot2\)"):
            BatchEngine().run(jobs_for(traces))


class TestNumpyFloorGuard:
    def test_old_numpy_rejected(self, monkeypatch):
        monkeypatch.setattr(np, "__version__", "1.21.5")
        with pytest.raises(EngineError, match="requires numpy >= 1.24"):
            engine_pkg._check_numpy()

    def test_current_numpy_accepted(self):
        engine_pkg._check_numpy()

    def test_floor_matches_certified_probes(self):
        # The import-time certification ran and the probes report it.
        replica, axis = kernel.certify()
        assert replica == engine_pkg.replications_certified()
        assert axis == engine_pkg.axis_reductions_certified()


class TestCertificationFallbacks:
    def test_uncertified_axis_reductions_stay_identical(self, monkeypatch):
        # With axis reductions decertified the batch degrades to the
        # single-lane path — the contract must not move an inch.
        monkeypatch.setattr(kernel, "_AXIS_OK", False)
        traces = [bumpy_trace(200, s, f"ax{s}") for s in range(3)]
        for trace, got in zip(traces, BatchEngine().run(jobs_for(traces))):
            assert blob(got) == blob(oracle(trace, CONFIG, SIM))

    def test_uncertified_replications_stay_identical(self, monkeypatch):
        # Without the fast single-lane reductions the kernels use the
        # oracle's own numpy calls. Slower, still byte-identical.
        monkeypatch.setattr(kernel, "_REPLICA_OK", False)
        traces = [bumpy_trace(200, s + 10, f"rep{s}") for s in range(3)]
        for trace, got in zip(traces, BatchEngine().run(jobs_for(traces))):
            assert blob(got) == blob(oracle(trace, CONFIG, SIM))

    def test_uncertified_replications_on_one_lane(self, monkeypatch):
        # A batch of one runs the single-lane loop, so decide_lane takes
        # its numpy-original branch for every consult.
        import repro.engine.batch as batch

        monkeypatch.setattr(kernel, "_REPLICA_OK", False)
        calls = count_calls(monkeypatch, batch, "decide_lane")
        trace = bumpy_trace(600, 21, "lone")
        [got] = BatchEngine().run(jobs_for([trace]))
        assert calls
        assert blob(got) == blob(oracle(trace, CONFIG, SIM))

    def test_nothing_certified_stays_identical(self, monkeypatch):
        # With neither fast path certified, decide_batch hands each row
        # to decide_lane, which runs the oracle's own numpy calls.
        monkeypatch.setattr(kernel, "_REPLICA_OK", False)
        monkeypatch.setattr(kernel, "_AXIS_OK", False)
        calls = count_calls(monkeypatch, kernel, "decide_lane")
        traces = [bumpy_trace(200 + 20 * s, s + 30, f"none{s}") for s in range(3)]
        for trace, got in zip(traces, BatchEngine().run(jobs_for(traces))):
            assert blob(got) == blob(oracle(trace, CONFIG, SIM))
        assert calls

    def test_unexpressible_config_falls_back_to_scalar(self):
        config = CaasperConfig(
            max_cores=16, proactive=True, forecast_confidence=0.9
        )
        assert not vectorizable(config)
        trace = bumpy_trace(1500, 5, "conf")
        [got] = BatchEngine().run(jobs_for([trace], config=config))
        assert blob(got) == blob(oracle(trace, config, SIM))


class TestEligibility:
    def test_fresh_caasper_recommender_qualifies(self):
        trace = bumpy_trace(60, 6, "fresh")
        recommender = CaasperRecommender(CONFIG, keep_decisions=False)
        job = engine_job_for(trace, recommender, SIM)
        assert job is not None
        assert job.config == CONFIG
        assert job.name == recommender.name

    def test_subclass_and_baselines_stay_scalar(self):
        trace = bumpy_trace(60, 7, "other")

        class Tweaked(CaasperRecommender):
            pass

        assert engine_job_for(trace, Tweaked(CONFIG), SIM) is None
        assert engine_job_for(trace, MovingAverageRecommender(), SIM) is None

    def test_observed_history_disqualifies(self):
        trace = bumpy_trace(60, 8, "warm")
        recommender = CaasperRecommender(CONFIG, keep_decisions=False)
        recommender.observe(0, 2.0, 4)
        assert engine_job_for(trace, recommender, SIM) is None


class TestStoreInterop:
    def test_engine_writes_what_the_scalar_path_reads(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        trace = bumpy_trace(240, 9, "interop")
        BatchEngine().run(jobs_for([trace]), store=store)
        probe = CaasperRecommender(CONFIG, keep_decisions=False)
        key = simulate_key(trace, probe, SIM)
        hit = store.get(key, "simulate")
        assert hit is not None
        assert blob(hit) == blob(oracle(trace, CONFIG, SIM))
        # And the scalar entry point decodes it transparently.
        scalar = simulate_trace(trace, probe, SIM, store=store)
        assert blob(scalar) == blob(hit)

    def test_engine_hits_scalar_written_entries(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        traces = [bumpy_trace(240, 10 + s, f"hit{s}") for s in range(3)]
        for trace in traces:
            simulate_trace(
                trace, CaasperRecommender(CONFIG, keep_decisions=False), SIM,
                store=store,
            )
        ring = RingBufferSink(capacity=8)
        engine = BatchEngine(observer=Observer(sinks=[ring]))
        results = engine.run(jobs_for(traces), store=store)
        [event] = ring.of_kind("engine_batch")
        assert event.cache_hits == len(traces)
        assert event.vector_lanes == 0
        for trace, got in zip(traces, results):
            assert blob(got) == blob(oracle(trace, CONFIG, SIM))


class TestObservability:
    def test_engine_batch_event_and_counters(self):
        ring = RingBufferSink(capacity=8)
        observer = Observer(sinks=[ring])
        engine = BatchEngine(observer=observer)
        scalar_config = CaasperConfig(
            max_cores=16, proactive=True, forecast_confidence=0.9
        )
        traces = [bumpy_trace(120, 20 + s, f"obs{s}") for s in range(3)]
        jobs = jobs_for(traces[:2]) + jobs_for([traces[2]], config=scalar_config)
        engine.run(jobs)
        [event] = ring.of_kind("engine_batch")
        assert event.lanes == 3
        assert event.vector_lanes == 2
        assert event.scalar_lanes == 1
        assert event.cohorts == 1
        assert event.elapsed_seconds >= 0.0
        metrics = observer.metrics
        assert metrics.counter("engine_lanes_total").value() == 3.0
        assert metrics.counter("engine_vector_lanes_total").value() == 2.0
        assert metrics.counter("engine_scalar_fallback_lanes_total").value() == 1.0

    def test_engine_batch_event_roundtrips_jsonl(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        original = EngineBatchEvent(
            minute=0,
            lanes=5,
            vector_lanes=4,
            scalar_lanes=1,
            cache_hits=2,
            cohorts=3,
            elapsed_seconds=0.125,
        )
        with JsonlSink(path) as sink:
            sink.accept(original)
        [restored] = read_events(path)
        assert restored == original


@pytest.fixture
def engine_lanes(monkeypatch):
    """Lanes the vector engine ran, so parity is never vector vs vector."""
    lanes = []
    original = BatchEngine.run

    def spy(self, jobs, store=None):
        jobs = list(jobs)
        lanes.extend(jobs)
        return original(self, jobs, store)

    monkeypatch.setattr(BatchEngine, "run", spy)
    monkeypatch.delenv("CAASPER_ENGINE", raising=False)
    return lanes


def scalar_oracle(monkeypatch, run):
    """``run()`` with every trace simulation forced onto simulate_trace."""
    monkeypatch.setenv("CAASPER_ENGINE", "scalar")
    try:
        return run()
    finally:
        monkeypatch.delenv("CAASPER_ENGINE")


class TestIntegrationSeams:
    def test_run_sweep_engine_parity(self, monkeypatch, engine_lanes):
        traces = [bumpy_trace(300, 30 + s, f"sweep{s}") for s in range(3)]
        config = SweepConfig(min_cores=1)
        factory = default_recommender_factory(CaasperConfig(), config)
        serial = scalar_oracle(
            monkeypatch, lambda: run_sweep(traces, config, factory)
        )
        assert engine_lanes == []
        vector = run_sweep(traces, config, factory)
        assert len(engine_lanes) == len(traces)
        assert sorted(serial.results) == sorted(vector.results)
        for name in serial.results:
            assert blob(vector.results[name]) == blob(serial.results[name])

    def test_random_search_engine_parity(self, monkeypatch, engine_lanes):
        search = RandomSearch(bumpy_trace(300, 33, "tune"), SimulatorConfig(4))
        serial = scalar_oracle(monkeypatch, lambda: search.run(12, seed=7))
        assert engine_lanes == []
        vector = search.run(12, seed=7)
        assert len(engine_lanes) == 12
        assert vector.trials == serial.trials

    def test_grid_search_engine_parity(self, monkeypatch, engine_lanes):
        grid = GridSearch(
            bumpy_trace(300, 34, "grid"),
            SimulatorConfig(4),
            CaasperConfig(),
            {"window_minutes": [20, 40], "quantile": [0.9, 0.95]},
        )
        serial = scalar_oracle(monkeypatch, grid.run)
        assert engine_lanes == []
        vector = grid.run()
        assert len(engine_lanes) == len(grid)
        assert vector.trials == serial.trials

    def test_fleet_runner_engine_parity(self, monkeypatch, engine_lanes):
        traces = [bumpy_trace(240, 35 + s, f"fleet{s}") for s in range(2)]
        plan = FleetPlan(
            jobs=tuple(
                SimulateJob(
                    job_id=f"sim-{i}",
                    trace=trace,
                    recommender=CaasperRecommender(CONFIG, keep_decisions=False),
                    simulator=SIM,
                )
                for i, trace in enumerate(traces)
            )
            + tuple(
                TrialJob(
                    job_id=f"trial-{i}",
                    config=CaasperConfig(window_minutes=20 + 10 * i),
                    demand=traces[0],
                    simulator=SIM,
                )
                for i in range(2)
            ),
            name="engine-seam",
        )
        serial = scalar_oracle(
            monkeypatch,
            lambda: FleetRunner().run(plan).require_success().results(),
        )
        assert engine_lanes == []
        vector = FleetRunner().run(plan).require_success().results()
        assert len(engine_lanes) == len(plan)
        assert sorted(serial) == sorted(vector)
        for i in range(2):
            assert blob(vector[f"sim-{i}"]) == blob(serial[f"sim-{i}"])
            assert vector[f"trial-{i}"] == serial[f"trial-{i}"]

    def test_capacity_scalar_oracle_parity(self, monkeypatch):
        # The default run decides through the kernels; the oracle
        # switch consults each recommender. Both the result and the
        # event trail must match, with and without an observer.
        def run(observed):
            scenario = make_capacity_scenario(
                "cluster-day", seed=11, minutes=120, pods=16
            )
            events = []
            observer = (
                Observer(sinks=[events.append], buffer_events=False)
                if observed
                else None
            )
            result = run_capacity(scenario, observer=observer)
            return result.canonical_json(), render_trace_jsonl(events)

        batches = []
        real = kernel.decide_batch

        def spy(window, *args, **kwargs):
            batches.append(window.shape[0])
            return real(window, *args, **kwargs)

        monkeypatch.setattr(kernel, "decide_batch", spy)
        outputs = {}
        for observed in (False, True):
            oracle = scalar_oracle(monkeypatch, functools.partial(run, observed))
            assert batches == []
            outputs[observed] = run(observed)
            assert sum(batches) > 0
            batches.clear()
            assert outputs[observed] == oracle
        assert outputs[True][0] == outputs[False][0]
        assert '"kind":"decision"' in outputs[True][1]

    def test_capacity_reported_decision_must_match_kernel(self, monkeypatch):
        real = kernel.decide_batch
        monkeypatch.setattr(
            kernel, "decide_batch", lambda *args, **kw: real(*args, **kw) + 1
        )
        scenario = make_capacity_scenario(
            "cluster-day", seed=11, minutes=120, pods=16
        )
        with pytest.raises(SimulationError, match="kernel target"):
            run_capacity(scenario, observer=Observer())

    def test_capacity_phase_timers(self):
        def scenario():
            return make_capacity_scenario(
                "cluster-day", seed=12, minutes=60, pods=8
            )

        collector = SpanCollector()
        with activate(collector):
            timed_result = ClusterEngine(scenario()).run()
        phases = {
            "capacity.enact",
            "capacity.deliver",
            "capacity.decide",
            "capacity.autoscale",
        }
        assert set(collector.stats) == phases
        for name in phases:
            assert collector.stats[name].count == 60
        # Timing never perturbs the run.
        untimed = ClusterEngine(scenario()).run()
        assert timed_result.canonical_json() == untimed.canonical_json()


NAIVE = CaasperConfig(max_cores=16, proactive=True, seasonal_period_minutes=97)
HOLT_WINTERS = CaasperConfig(
    max_cores=16,
    proactive=True,
    forecaster="holt_winters",
    seasonal_period_minutes=97,
)


def mixed_batch():
    """One job per routing case, each with its own trace."""
    makers = [
        lambda: CaasperRecommender(CONFIG, keep_decisions=False),
        lambda: CaasperRecommender(NAIVE, keep_decisions=False),
        lambda: CaasperRecommender(HOLT_WINTERS, keep_decisions=False),
        lambda: MovingAverageRecommender(),
    ]
    traces = [bumpy_trace(400, 40 + i, f"mixed{i}") for i in range(len(makers))]
    return traces, makers


class TestSimulateMany:
    def test_routing_covers_every_case(self):
        assert vectorizable(CONFIG)
        assert vectorizable(NAIVE)
        assert not vectorizable(HOLT_WINTERS)

    def test_byte_identical_to_oracle_in_input_order(self, engine_lanes):
        traces, makers = mixed_batch()
        results = simulate_many(
            [(trace, make(), SIM) for trace, make in zip(traces, makers)]
        )
        # The baseline is rejected by engine_job_for; the three CaaSPER
        # jobs (Holt-Winters included, which the engine runs scalar
        # itself) go to the engine.
        assert [lane.demand.name for lane in engine_lanes] == [
            trace.name for trace in traces[:3]
        ]
        assert len(results) == len(traces)
        for trace, make, got in zip(traces, makers, results):
            assert blob(got) == blob(simulate_trace(trace, make(), SIM))

    def test_reversed_batch_reverses_results(self, engine_lanes):
        traces, makers = mixed_batch()
        jobs = [(trace, make(), SIM) for trace, make in zip(traces, makers)]
        forward = [blob(r) for r in simulate_many(jobs[::-1])]
        jobs = [(trace, make(), SIM) for trace, make in zip(traces, makers)]
        assert forward[::-1] == [blob(r) for r in simulate_many(jobs)]

    def test_scalar_switch_bypasses_the_engine(self, monkeypatch, engine_lanes):
        traces, makers = mixed_batch()
        monkeypatch.setenv("CAASPER_ENGINE", "scalar")
        results = simulate_many(
            [(trace, make(), SIM) for trace, make in zip(traces, makers)]
        )
        assert engine_lanes == []
        for trace, make, got in zip(traces, makers, results):
            assert blob(got) == blob(simulate_trace(trace, make(), SIM))

    def test_unknown_switch_value_rejected(self, monkeypatch):
        monkeypatch.setenv("CAASPER_ENGINE", "vectorised")
        trace = bumpy_trace(60, 1, "typo")
        job = (trace, CaasperRecommender(CONFIG, keep_decisions=False), SIM)
        with pytest.raises(ConfigError, match="CAASPER_ENGINE"):
            simulate_many([job])

    def test_observed_runs_stay_scalar(self, engine_lanes):
        trace = bumpy_trace(300, 2, "observed")
        observer = Observer()
        [got] = simulate_many(
            [(trace, CaasperRecommender(CONFIG, keep_decisions=False), SIM)],
            observer=observer,
        )
        assert engine_lanes == []
        assert observer.events_of_kind("decision")
        assert blob(got) == blob(
            simulate_trace(
                trace, CaasperRecommender(CONFIG, keep_decisions=False), SIM
            )
        )

    def test_empty_batch(self, engine_lanes):
        assert simulate_many([]) == []
        assert engine_lanes == []


class TestDispatchStoreInterop:
    def search(self):
        space = ParameterSpace(
            base=CaasperConfig(max_cores=16, seasonal_period_minutes=97),
            include_proactive=True,
        )
        return RandomSearch(bumpy_trace(400, 50, "tune"), SIM, space)

    def test_engine_search_hits_scalar_trial_entries(
        self, monkeypatch, tmp_path, engine_lanes
    ):
        search = self.search()
        configs = search.space.sample_many(8, seed=3)
        store = ResultStore(tmp_path / "cas")
        monkeypatch.setenv("CAASPER_ENGINE", "scalar")
        scalar = [
            cached_trial(config, search.demand, SIM, store=store)
            for config in configs
        ]
        monkeypatch.delenv("CAASPER_ENGINE")
        hits = store.stats.hits
        outcome = search.run(8, seed=3, store=store)
        assert store.stats.hits - hits == len(configs)
        assert engine_lanes == []
        assert list(outcome.trials) == scalar

    def test_scalar_trial_hits_engine_written_entries(
        self, monkeypatch, tmp_path, engine_lanes
    ):
        search = self.search()
        store = ResultStore(tmp_path / "cas")
        outcome = search.run(8, seed=4, store=store)
        assert len(engine_lanes) == 8
        monkeypatch.setenv("CAASPER_ENGINE", "scalar")
        hits = store.stats.hits
        for trial in outcome.trials:
            assert cached_trial(trial.config, search.demand, SIM, store=store) == trial
        assert store.stats.hits - hits == len(outcome.trials)

    def test_simulate_entries_shared_both_ways(
        self, monkeypatch, tmp_path, engine_lanes
    ):
        traces = [bumpy_trace(240, 60 + i, f"sim{i}") for i in range(4)]

        def jobs(selected):
            return [
                (trace, CaasperRecommender(CONFIG, keep_decisions=False), SIM)
                for trace in selected
            ]

        store = ResultStore(tmp_path / "cas")
        engine_written = simulate_many(jobs(traces[:2]), store=store)
        monkeypatch.setenv("CAASPER_ENGINE", "scalar")
        scalar_written = simulate_many(jobs(traces[2:]), store=store)
        hits = store.stats.hits
        scalar_read = simulate_many(jobs(traces), store=store)
        assert store.stats.hits - hits == len(traces)
        monkeypatch.delenv("CAASPER_ENGINE")
        lanes_before = len(engine_lanes)
        engine_read = simulate_many(jobs(traces), store=store)
        assert store.stats.hits - hits == 2 * len(traces)
        # Every lane the engine saw was a store hit: nothing re-simulated.
        assert len(engine_lanes) - lanes_before == len(traces)
        written = [blob(r) for r in engine_written + scalar_written]
        assert [blob(r) for r in scalar_read] == written
        assert [blob(r) for r in engine_read] == written


class TestLazyImports:
    def test_imports_leave_scipy_stats_and_engine_unloaded(self):
        # scipy.stats costs about a second at import; only the paired t-test
        # needs it, so importing the package must not load it.
        code = (
            "import sys\n"
            "import repro, repro.capacity, repro.serve\n"
            "assert 'scipy.stats' not in sys.modules, 'scipy.stats imported'\n"
            "assert 'repro.engine' not in sys.modules, 'engine imported eagerly'\n"
        )
        src = str(Path(repro.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": path}
        subprocess.run([sys.executable, "-c", code], check=True, env=env)
