"""Run one pass of one workload in a fresh interpreter.

run.py starts one process per pass, so peak RSS, import caches and the
numpy allocator never carry over between passes. The pass imports the
package from the checkout's `src/`, builds its inputs from the seed, notes
the monotonic and processor time at which that set-up ended, runs the timed
steps (traced or not) with the host-speed reference jobs of calibrate.py
right before each, gates the outputs and prints one JSON line. The --work
directory must exist.

    python3 bench/one_pass.py --workload mc_reference --seed 1 --trace 0 \
        --work .bench_work/mc_reference-seed1
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    parser.add_argument("--work", required=True)
    args = parser.parse_args()

    import numpy as np
    import rcar
    import calibrate
    import spans
    from workloads import SIM, WORKLOADS

    w = WORKLOADS[args.workload](args.seed, args.size, args.work)
    ready = time.monotonic()
    setup_cpu = time.process_time()
    job_s = {}

    def calibrate_before(step):
        job_s[step] = calibrate.job_seconds(args.workload, step, args.work)
    w.before_step = calibrate_before

    tracer = spans.Tracer() if args.trace else None
    if tracer:
        spans.install(tracer)
    try:
        wall, cpu = w.run()
    finally:
        if tracer:
            tracer.unpatch()
    usage = (resource.getrusage(resource.RUSAGE_SELF),
             resource.getrusage(resource.RUSAGE_CHILDREN))
    peak_rss_mb = max(u.ru_maxrss for u in usage) / 1024.0  # KiB on Linux

    w.check()
    result = {
        "workload": args.workload,
        "ready": ready,
        "setup_cpu_s": setup_cpu,
        "wall_s": wall,
        "cpu_s": cpu,
        "job_s": job_s,
        "steps": w.steps,
        "items": w.items,
        "step_names": w.step_names,
        "peak_rss_mb": peak_rss_mb,
        "ops": w.ops,
        "digests": w.digests,
        "counts": w.counts,
        "versions": {"numpy": np.__version__, "rcar": rcar.__version__,
                     "generator": SIM.GENERATOR_ID},
    }
    if tracer:
        by_name = spans.summarize(tracer.spans)
        result["layers"] = spans.layer_metrics(by_name, w.counts)
        covered = sum(s["self_ns"] for s in by_name.values()) / 1e9
        result["layers"]["trace.unattributed_frac"] = 1.0 - covered / wall
        result["spans"] = {name: {k: s[k] for k in ("calls", "busy_ns", "self_ns",
                                                    "durations_ns")}
                           for name, s in by_name.items()}
        result["missing"] = tracer.missing
        tracer.dump(os.path.join(args.work, "spans.json"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
