"""The repo benchmark: one workload, end to end or layer by layer.

Usage, from the repository root::

    python3 perfbench/run.py --workload cluster-day --seed 7 --seconds 10 --trace 0

Workloads (all closed loops, one process, one driving thread):

- ``tune-search``: rounds of ``RandomSearch.run`` over the Figure 12
  search (3-day cyclical trace, reactive + proactive space);
- ``cluster-day``: the ``cluster-day`` capacity scenario, unobserved;
- ``capacity-surge``: surging waves on a tight pool with scale-out/in,
  a drain and an attached JSONL observer;
- ``serve-journaled``: the serve plane with an fsync'd journal, driven
  one tick at a time by its harness.

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (interpreter
start to the first timed call, median of three fresh interpreters),
``tenant_minutes_per_s``, ``peak_rss_mb``, ``ok_share`` (operations
neither failed nor refused by admission) and the tick latency
percentiles ``tick_ms_p50``/``tick_ms_p99``. A tick is the workload's
closed-loop unit: a serve tick, a simulated capacity minute, or one
``RandomSearch.run`` call of one trial. Each duration among them
is multiplied by the host scale that ``reference.py`` measures alongside
it — each tick by that of its own stretch of the run — so it reads as on
a host of fixed speed; the unscaled figures are printed too. ``--trace 1`` runs
the timed region once untraced and once with every layer's public calls
wrapped, and prints per-layer self times and counts, the simulated
statistics that must repeat exactly, workload-property shares and
``trace.overhead_x``. Both check the outputs against an oracle and exit
non-zero if a check fails.

Seeds: :data:`DEFAULT_SEED` is used when ``--seed`` is omitted;
:data:`HELD_OUT_SEED` is kept out of tuning so a later change can
re-check a claim on inputs it was not written against.

Metric names and units are those ``BENCHMARK.json`` declares; a run
that measures any other set fails.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it repeat every metric by
name with its unit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

DEFAULT_SEED = 7
HELD_OUT_SEED = 1009

WORKLOAD_NAMES = ("tune-search", "cluster-day", "capacity-surge", "serve-journaled")

#: Extra set-up-only interpreters per run; ``setup_s`` is the median of
#: these and the timed pass's own set-up.
SETUP_PROBES = 2

#: A run must end within this many seconds, children included.
DEADLINE_S = 170.0

HERE = Path(__file__).resolve().parent

#: Simulated statistics and workload-property shares the traced run
#: reports for every workload (0 where a workload has none).
STATS = (
    "kcn.K",
    "kcn.C",
    "kcn.N",
    "tuning.oracle_trials",
    "capacity.throttled_minutes",
    "capacity.scale_out_events",
    "capacity.scale_in_events",
    "capacity.drains_completed",
    "capacity.deferred_resizes",
    "capacity.placement_log",
    "capacity.node_minutes",
    "serve.admitted_samples",
    "serve.shed_samples",
    "serve.refused_offers",
    "serve.journal_records",
)
SHARES = (
    "tuning.proactive_share",
    "tuning.vectorizable_share",
    "serve.decision_tick_share",
)

#: Largest |sum of span self times - traced wall| the partition check
#: accepts. The root span absorbs all unwrapped time, so this checks the
#: tracer's bookkeeping only; ``trace.unattributed_share`` shows how much
#: of the wall no layer claimed.
PARTITION_TOLERANCE_S = 1e-6


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _child_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _spawn(root: Path, args: argparse.Namespace, mode: str, deadline: float) -> tuple[float, dict]:
    """Run one child interpreter; returns (spawn monotonic time, its JSON)."""
    workdir = Path(tempfile.mkdtemp(prefix=f"{mode}-", dir=args.scratch))
    command = [
        sys.executable,
        str(HERE / "child.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--workdir", str(workdir),
        "--mode", mode,
    ]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting the next pass")
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            command,
            cwd=root,
            env=_child_env(root),
            capture_output=True,
            text=True,
            timeout=remaining,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} pass exceeded the {DEADLINE_S:.0f} s deadline") from exc
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0:
        raise BenchError(
            f"{mode} pass exited {proc.returncode}:\n{proc.stderr.strip()[-4000:]}"
        )
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{mode} pass printed nothing")
    return spawned, json.loads(lines[-1])


def declared_units(root: Path, trace: int) -> dict[str, str]:
    """Metric name -> unit, in ``BENCHMARK.json`` order, for one mode."""
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {
        metric["name"]: metric["unit"]
        for metric in spec["per_layer" if trace else "end_to_end"]
    }


def measure(root: Path, args: argparse.Namespace, deadline: float) -> tuple[dict, dict]:
    """End-to-end metrics, durations scaled to the reference host speed."""
    setups = []
    for _ in range(SETUP_PROBES):
        spawned, probe = _spawn(root, args, "setup", deadline)
        setups.append((probe["ready"] - spawned) * probe["setup_scale"])
    spawned, run = _spawn(root, args, "measure", deadline)
    setups.append((run["ready"] - spawned) * run["setup_scale"])
    work_s = run["wall_s"] - run["reference_s"]
    scale = run["scale"]
    metrics = {
        "setup_s": statistics.median(setups),
        "tenant_minutes_per_s": run["tenant_minutes"] / (work_s * scale),
        "peak_rss_mb": run["peak_rss_mb"],
        "ok_share": 1.0 - (run["failed"] + run["refused"]) / run["attempted"],
        "tick_ms_p50": run["scaled_tick_ms_p50"],
        "tick_ms_p99": run["scaled_tick_ms_p99"],
    }
    run["notes"] = [
        f"host scale {scale:.4f} (reference share of the region "
        f"{run['reference_s'] / run['wall_s']:.3f}); unscaled: "
        f"{run['tenant_minutes'] / work_s:.6g} tenant-min/s, "
        f"tick p50 {run['tick_ms_p50']:.6g} ms, p99 {run['tick_ms_p99']:.6g} ms"
    ]
    return run, metrics


def trace(root: Path, args: argparse.Namespace, deadline: float) -> tuple[dict, dict]:
    import layers  # only the traced run needs the span table
    from tracer import ROOT

    _, plain = _spawn(root, args, "time", deadline)
    _, run = _spawn(root, args, "trace", deadline)
    spans = run["spans"]
    counters = run["counters"]
    metrics: dict[str, float] = {}
    for name in layers.SPANS:
        self_s, calls = spans[name]
        metrics[f"{name}.self_s"] = self_s
        metrics[f"{name}.calls"] = calls
    metrics[f"{ROOT}.self_s"] = spans[ROOT][0]
    for name in (
        "engine.batch.lanes",
        "engine.kernel.decide_batch.lanes",
        "obs.events",
        "serve.journal.bytes",
        "serve.snapshot.bytes",
    ):
        metrics[name] = counters.get(name, 0)
    metrics["obs.sink.bytes"] = run["sink_bytes"]
    trials = run["attempted"] if args.workload == "tune-search" else 0
    metrics["sim.scalar_trial_share"] = (
        spans["sim.simulate_trace"][1] / trials if trials else 0.0
    )
    metrics["setup.import_s"] = plain["import_s"]
    metrics["setup.inputs_s"] = plain["inputs_s"]
    metrics["trace.wall_s"] = run["wall_s"]
    metrics["trace.partition_error_s"] = run["partition_error_s"]
    metrics["trace.unattributed_share"] = spans[ROOT][0] / run["wall_s"]
    metrics["trace.overhead_x"] = run["wall_s"] / plain["wall_s"]
    metrics["failed_share"] = (run["failed"] + run["refused"]) / run["attempted"]
    for name in SHARES:
        metrics[name] = run["shares"].get(name, 0.0)
    for name in STATS:
        metrics[f"stats.{name}"] = run["stats"].get(name, 0)
    if run["partition_error_s"] > PARTITION_TOLERANCE_S:
        run["correct"] = False
        run["problems"].append(
            f"span self times miss the traced wall by {run['partition_error_s']:.3g} s"
        )
    return run, metrics


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: run from the repository root (src/repro not found)", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("perfbench: --seconds must be >= 1", file=sys.stderr)
        return 2
    units = declared_units(root, args.trace)
    scratch_root = root / ".perfbench_work"
    scratch_root.mkdir(exist_ok=True)
    args.scratch = tempfile.mkdtemp(prefix="run-", dir=scratch_root)
    try:
        run, metrics = (trace if args.trace else measure)(root, args, deadline)
        if set(metrics) != set(units):
            raise BenchError(
                "measured metrics differ from BENCHMARK.json: "
                f"{sorted(set(metrics) ^ set(units))}"
            )
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(args.scratch, ignore_errors=True)
        try:
            scratch_root.rmdir()
        except OSError:
            pass  # another run still holds its own directory there

    print(
        f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
        f"trace={args.trace}: {'correct' if run['correct'] else 'INCORRECT'}, "
        f"{run['failed']} of {run['attempted']} operations failed"
    )
    width = max(len(name) for name in units)
    for name, unit in units.items():
        print(f"  {name:<{width}}  {metrics[name]:.6g} {unit}")
    for note in run.get("notes", ()):
        print(f"  {note}")
    for name, value in run["shares"].items():
        print(f"  workload property {name} = {value:.6g}")
    stats = run["stats"]
    digest = hashlib.sha256(json.dumps(stats, sort_keys=True).encode()).hexdigest()[:16]
    print(f"  simulated statistics, digest {digest} (repeats exactly at one commit and seed):")
    for name, value in stats.items():
        print(f"    {name} = {value!r}")
    for problem in run["problems"]:
        print(f"  CHECK FAILED: {problem}")
    print(
        json.dumps(
            {
                "correct": run["correct"],
                "attempted": run["attempted"],
                "failed": run["failed"],
                "metrics": {
                    name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()
                },
            }
        )
    )
    return 0 if run["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
