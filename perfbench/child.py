"""One fresh interpreter: import ``repro``, build a workload, time it, check it.

``run.py`` starts this script once per set-up probe and once per timed
pass, so import cost and peak memory are those of a new process. The
last stdout line is one JSON object for ``run.py`` to read.

Modes: ``setup`` stops once the inputs are built; ``time`` also runs the
timed region; ``measure`` then checks the outputs; ``trace`` wraps the
layers' public calls first and reports their self times. ``setup`` and
``measure`` also time the reference loop (see ``reference.py``): right
after set-up, and interleaved with the timed region.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import sys
import time
from pathlib import Path

import numpy as np

import layers
from reference import Reference
from tracer import ROOT, Tracer
from workloads import WORKLOADS

#: What a user of each workload imports before building its inputs.
IMPORTS = {
    "tune-search": ("repro", "repro.experiments.fig12"),
    "cluster-day": ("repro", "repro.capacity"),
    "capacity-surge": ("repro", "repro.capacity", "repro.obs"),
    "serve-journaled": ("repro", "repro.serve"),
}

#: Reference chunks run once set-up is done: warm-up, then timed ones.
WARMUP_CHUNKS = 3
SETUP_CHUNKS = 20


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument(
        "--mode", required=True, choices=("setup", "time", "measure", "trace")
    )
    args = parser.parse_args(argv)

    start = time.perf_counter()
    for module in IMPORTS[args.workload]:
        importlib.import_module(module)
    import_s = time.perf_counter() - start

    tracer = None
    if args.mode == "trace":
        tracer = Tracer()
        layers.install(tracer)

    workload = WORKLOADS[args.workload](args.seed, args.seconds, Path(args.workdir))
    start = time.perf_counter()
    workload.build()
    inputs_s = time.perf_counter() - start
    out: dict[str, object] = {
        "import_s": import_s,
        "inputs_s": inputs_s,
        "ready": time.monotonic(),
    }
    reference = None
    if args.mode in ("setup", "measure"):
        reference = Reference()
        reference.run(WARMUP_CHUNKS)
        reference.start()
        reference.run(SETUP_CHUNKS)
        out["setup_scale"] = reference.scale
    if args.mode == "setup":
        print(json.dumps(out))
        return 0

    probes = Tracer(timed=False)
    if tracer is not None:
        tracer.start()
    if reference is not None:
        workload.reference = reference
        reference.start()
    start = time.perf_counter()
    workload.run(probes)
    wall = time.perf_counter() - start
    if tracer is not None:
        tracer.stop()
        tracer.unpatch()
    ticks_ms = np.asarray(workload.ticks) * 1e3
    if reference is not None:
        out.update(reference_s=reference.seconds, scale=reference.scale)
        local = ticks_ms * reference.local_scales(workload.tick_chunks)
        out["scaled_tick_ms_p50"], out["scaled_tick_ms_p99"] = map(
            float, np.percentile(local, [50, 99])
        )
    p50, p99 = np.percentile(ticks_ms, [50, 99])
    out.update(
        wall_s=wall,
        tenant_minutes=workload.tenant_minutes,
        ticks=len(workload.ticks),
        tick_ms_p50=float(p50),
        tick_ms_p99=float(p99),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    if tracer is not None:
        self_s = tracer.self_seconds()
        calls = tracer.calls()
        out["spans"] = {
            name: [self_s.get(name, 0.0), calls.get(name, 0)]
            for name in (*layers.SPANS, ROOT)
        }
        out["counters"] = tracer.frozen_counters()
        out["partition_error_s"] = tracer.partition_error()
    if args.mode in ("measure", "trace"):
        checked = workload.check()
        out.update(
            attempted=checked.attempted,
            failed=checked.failed,
            refused=checked.refused,
            correct=checked.correct,
            problems=checked.problems,
            stats=checked.stats,
            shares=checked.shares,
            sink_bytes=checked.sink_bytes,
        )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
