"""rcar benchmark: one command, three workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload mc_reference --seed 1 --seconds 30 --trace 0

Runs passes of the workload, each in a fresh interpreter (bench/one_pass.py),
until the next pass would overrun --seconds (at least MIN_PASSES). Inputs
come from --seed; every pass of a run gets the same inputs, so their outputs
must agree bitwise. With --trace 0 the passes are untraced and the
end-to-end metrics are reported, in processor seconds rescaled to a
reference host speed (bench/calibrate.py); with --trace 1 untraced and
traced passes alternate and the per-layer metrics plus the tracing overhead
are reported.
The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The exit code is 0 only when every correctness check passed. Without the
package source under src/ the command exits 2 and prints no result.
See bench/NOTES.md for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import calibrate
import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MIN_PASSES = {0: 3, 1: 2}
PASS_TIMEOUT_S = 120
#: all load comes from the one pass process, so BLAS gets one thread
BLAS_THREADS = 1



class BenchError(RuntimeError):
    pass


def load_definition() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env.pop("PYTHONPATH", None)
    return env


def run_pass(args, work: str, traced: bool) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "one_pass.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--trace", str(int(traced)), "--size", args.size,
           "--work", os.path.relpath(work, ROOT)]
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_env(), capture_output=True,
                              text=True, timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"pass exceeded {PASS_TIMEOUT_S} s") from exc
    elapsed = time.monotonic() - t0
    if proc.returncode != 0:
        raise BenchError(f"pass exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    res["setup_wall_s"] = res["ready"] - t0
    res["elapsed_s"] = elapsed
    res["traced"] = traced
    return res


def run_passes(args, work: str) -> list[dict]:
    passes: list[dict] = []
    start = time.monotonic()
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        passes.append(run_pass(args, work, traced))
        spent = time.monotonic() - start
        typical = statistics.median(p["elapsed_s"] for p in passes)
        if len(passes) >= MIN_PASSES[args.trace] and spent + typical > args.seconds:
            return passes


def tail_note(values: list[float]) -> str:
    """Median, highest percentile with >= 10 samples beyond it, count."""
    note = f"p50 {statistics.median(values):.6g}"
    pct, value = spans.tail(values)
    if pct is not None and pct > 50:
        note += f"  p{pct:g} {value:.6g}"
    return f"{note}  n={len(values)}"


def speed(p: dict, step: str) -> float:
    """The factor that turns a step's processor seconds into reference
    seconds, from the reference jobs timed right before it (calibrate.py)."""
    return calibrate.speed_factor(p["workload"], step, p["job_s"][step])


def pass_speed(p: dict) -> float:
    """The factor for the pass as a whole: the mean of its steps' factors."""
    return (speed(p, "step1") + speed(p, "step2")) / 2


def end_to_end(passes: list[dict], normalise: bool = True) -> dict[str, list[float]]:
    """Per-pass samples of every end-to-end metric. Times are processor
    seconds of the pass's process, in reference seconds unless `normalise`
    is False; rates are items per such second."""
    def f(p, step=None):
        if not normalise:
            return 1.0
        return pass_speed(p) if step is None else speed(p, step)
    return {
        "setup_s": [p["setup_cpu_s"] * f(p, "step1") for p in passes],
        "pass_s": [p["cpu_s"] * f(p) for p in passes],
        "step1_per_s": [p["items"]["step1"] / (p["steps"]["step1"] * f(p, "step1"))
                        for p in passes],
        "step2_per_s": [p["items"]["step2"] / (p["steps"]["step2"] * f(p, "step2"))
                        for p in passes],
        "peak_rss_mb": [p["peak_rss_mb"] for p in passes],
    }


def gate(passes: list[dict]) -> tuple[int, int, list[str]]:
    """(attempted, failed, reasons) over every operation of every pass.

    Besides each pass's own gate, all passes of a run got the same inputs,
    so their output digests must agree (traced ones too)."""
    attempted = failed = 0
    reasons = []
    ref = passes[0]["digests"]
    for i, p in enumerate(passes):
        for op, why in p["ops"].items():
            attempted += 1
            if why:
                failed += 1
                reasons.append(f"pass {i} {op}: {'; '.join(why)}")
        for key in sorted(set(ref) | set(p["digests"])):
            if p["digests"].get(key) != ref.get(key):
                failed += 1
                reasons.append(f"pass {i}: output {key} differs from pass 0")
    return attempted, failed, reasons


def provenance(args, first: dict) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": first["versions"]["numpy"],
        "rcar": first["versions"]["rcar"],
        "GENERATOR_ID": first["versions"]["generator"],
        "git_commit": _git_commit(),
        "blas_threads": BLAS_THREADS,
        "output_sha256": first["digests"],
    }


def _git_commit() -> str | None:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            return next((ln.split()[0] for ln in fh if ln.rstrip().endswith(ref)), None)
    except OSError:
        return None


def layer_report(passes: list[dict], definition: dict) -> tuple[dict, list[str]]:
    """Per-layer metrics (median over traced passes) and a span table."""
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    values = {k: statistics.median(p["layers"][k] for p in traced)
              for k in traced[0]["layers"]}
    values["trace.overhead_frac"] = (
        statistics.median(p["cpu_s"] * pass_speed(p) for p in traced)
        / statistics.median(p["cpu_s"] * pass_speed(p) for p in plain) - 1.0)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in definition["per_layer"]}
    lines = [f"spans pooled over {len(traced)} traced passes "
             "(calls and seconds per pass):"]
    names = sorted({n for p in traced for n in p["spans"]})
    for name in names:
        per = [p["spans"].get(name) for p in traced]
        durs = [d / 1e6 for s in per if s for d in s["durations_ns"]]
        calls = statistics.median(s["calls"] if s else 0 for s in per)
        busy = statistics.median(s["busy_ns"] / 1e9 if s else 0 for s in per)
        self_s = statistics.median(s["self_ns"] / 1e9 if s else 0 for s in per)
        lines.append(f"  {name:<34} calls {calls:>8g}  busy {busy:9.4f} s  "
                     f"self {self_s:9.4f} s  per call ms: {tail_note(durs)}")
    missing = sorted({m for p in traced for m in p["missing"]})
    if missing:
        lines.append(f"  not found, so not traced: {', '.join(missing)}")
    return metrics, lines


def main(argv=None) -> int:
    definition = load_definition()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in definition["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke shrinks every workload, for the benchmark's tests")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "rcar", "__init__.py")):
        print(f"bench: no package source at {os.path.join(ROOT, 'src', 'rcar')}",
              file=sys.stderr)
        return 2
    out_dir = os.path.join(ROOT, ".bench_work")
    work = os.path.join(out_dir, f"{args.workload}-seed{args.seed}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        passes = run_passes(args, work)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    finally:
        spans_file = os.path.join(work, "spans.json")
        if os.path.exists(spans_file):
            os.replace(spans_file, os.path.join(
                out_dir, f"{args.workload}-seed{args.seed}-spans.json"))
        shutil.rmtree(work, ignore_errors=True)

    attempted, failed, reasons = gate(passes)
    plain = [p for p in passes if not p["traced"]]
    samples = end_to_end(plain)
    s1, s2 = passes[0]["step_names"]
    named = {s1: samples["step1_per_s"], s2: samples["step2_per_s"]}
    if args.workload == "mc_reference":
        named["mc_replicates_per_s"] = [
            (p["items"]["step1"] + p["items"]["step2"])
            / (p["steps"]["step1"] * speed(p, "step1")
               + p["steps"]["step2"] * speed(p, "step2")) for p in plain]
    raw = end_to_end(plain, normalise=False)

    print(f"rcar benchmark: workload {args.workload}, seed {args.seed}, "
          f"trace {args.trace}, {len(passes)} passes in one fresh process each")
    print("provenance: " + json.dumps(provenance(args, passes[0]), sort_keys=True))
    print(f"end-to-end over {len(plain)} untraced passes, in reference seconds "
          f"(host speed factor {tail_note([pass_speed(p) for p in plain])}; "
          "see calibrate.py):")
    units = {m["name"]: m["unit"] for m in definition["end_to_end"]}
    for name, vals in samples.items():
        print(f"  {name:<30} {statistics.median(vals):>14.6g} {units[name]:<5} {tail_note(vals)}")
    for name, vals in named.items():
        print(f"  {name:<30} {statistics.median(vals):>14.6g} 1/s   {tail_note(vals)}")
    print("the same in raw processor seconds of this host, and wall seconds:")
    raw["setup_wall_s"] = [p["setup_wall_s"] for p in plain]
    raw["pass_wall_s"] = [p["wall_s"] for p in plain]
    for name, vals in raw.items():
        unit = units.get(name, "s")
        print(f"  {name:<30} {statistics.median(vals):>14.6g} {unit:<5} {tail_note(vals)}")
    print(f"  {'failed_op_frac':<30} {failed / attempted:>14.6g} ratio "
          f"({failed} of {attempted} operations)")
    for reason in reasons[:20]:
        print(f"  FAILED {reason}")

    if args.trace:
        metrics, lines = layer_report(passes, definition)
        print("\n".join(lines))
        print("per-layer metrics (median over traced passes):")
        for name, m in metrics.items():
            print(f"  {name:<42} {m['value']:>14.6g} {m['unit']}")
    else:
        metrics = {m["name"]: {"value": statistics.median(samples[m["name"]]),
                               "unit": m["unit"]}
                   for m in definition["end_to_end"]}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
