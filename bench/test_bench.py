"""Tests of the benchmark itself, at smoke size.

    python3 -m pytest bench/test_bench.py
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import calibrate  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    DEFINITION = json.load(fh)

EXACT_COUNTERS = ("model.noise.calls", "asymptotics.mixed_moment.calls_per_stack",
                  "simulate.block.steps")


def bench(workload, trace, cwd=ROOT, seed=5):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "bench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--size", "smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.fixture(scope="module")
def results():
    cache = {}

    def get(workload, trace, attempt=0):
        key = (workload, trace, attempt)
        if key not in cache:
            proc = bench(workload, trace)
            assert proc.returncode == 0, proc.stderr
            cache[key] = json.loads(proc.stdout.strip().splitlines()[-1])
        return cache[key]
    return get


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in DEFINITION["workloads"]])
def test_every_metric_is_emitted_with_its_unit(results, workload, trace):
    out = results(workload, trace)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1
    wanted = DEFINITION["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in out["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted}
    for m in out["metrics"].values():
        assert isinstance(m["value"], (int, float))


@pytest.mark.parametrize("workload", ["mc_reference", "param_sweep"])
def test_exact_counters_repeat(results, workload):
    first = results(workload, 1)["metrics"]
    second = results(workload, 1, attempt=1)["metrics"]
    for name in EXACT_COUNTERS:
        assert first[name]["value"] == second[name]["value"], name
    assert first["model.noise.calls"]["value"] > 0


def test_traced_mc_counts_match_the_workload_shape(results):
    m = results("mc_reference", 1)["metrics"]
    sz = workloads.SIZES["smoke"]
    reps = sz["clt_r"] + 2 * sz["sp_r"]
    assert m["model.noise.calls"]["value"] == 2 * reps
    assert m["harness.replicates_attempted"]["value"] == reps
    assert m["asymptotics.mixed_moment.calls_per_stack"]["value"] == 31
    assert m["simulate.block.steps"]["value"] == (
        sz["clt_r"] * (2000 + sz["clt_n"]) + 2 * sz["sp_r"] * (2000 + sz["sp_n"]))


def _perturb_row(w):
    with open(w.csv, encoding="utf-8") as fh:
        lines = fh.readlines()
    t, x = lines[100].rstrip("\n").split(",")
    lines[100] = f"{t},{float(x) * (1 + 1e-12)!r}\n"
    with open(w.csv, "w", encoding="utf-8") as fh:
        fh.writelines(lines)


def test_gate_fails_on_a_perturbed_csv_row(tmp_path):
    w = workloads.Series1e6(3, "smoke", str(tmp_path))
    w.between = _perturb_row
    w.run()
    w.check()
    assert any("ingest" in why for why in w.ops["simulate"])
    assert any("correlation_test" in why for why in w.ops["estimate"])

    clean = workloads.Series1e6(3, "smoke", str(tmp_path))
    clean.run()
    clean.check()
    assert not any(clean.ops.values())


def test_failed_check_makes_the_command_exit_nonzero(monkeypatch, capsys):
    bad = {"workload": "series_1e6", "ready": 0.0, "setup_cpu_s": 0.2,
           "setup_wall_s": 0.2, "wall_s": 1.0, "cpu_s": 1.0,
           "job_s": {"step1": [0.1], "step2": [0.1]},
           "traced": False,
           "step_names": ("simulate_rows_per_s", "estimate_rows_per_s"),
           "steps": {"step1": 0.5, "step2": 0.5}, "items": {"step1": 1, "step2": 1},
           "peak_rss_mb": 40.0, "digests": {}, "counts": {},
           "ops": {"simulate": [], "estimate": ["estimate JSON differs"]},
           "versions": {"numpy": "x", "rcar": "x", "generator": "x"}}
    monkeypatch.setattr(run, "run_passes", lambda args, work: [bad])
    code = run.main(["--workload", "series_1e6", "--seed", "1", "--seconds", "1"])
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert last["correct"] is False and last["failed"] == 1 and last["attempted"] == 2


def test_differing_digests_fail_the_gate():
    p = {"ops": {"a": []}, "digests": {"out": "1"}}
    q = {"ops": {"a": []}, "digests": {"out": "2"}}
    attempted, failed, reasons = run.gate([p, q])
    assert (attempted, failed) == (2, 1) and "differs" in reasons[0]


def test_exits_nonzero_without_the_package_source(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("mc_reference", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_every_workload_has_a_reference_job():
    assert set(calibrate.JOBS) == set(calibrate.REFERENCE_S) == {
        w["name"] for w in DEFINITION["workloads"]}


@pytest.mark.parametrize("step", calibrate.STEPS)
@pytest.mark.parametrize("workload", sorted(calibrate.JOBS))
def test_reference_job_is_timed_and_leaves_nothing_behind(workload, step, tmp_path):
    times = calibrate.job_seconds(workload, step, str(tmp_path))
    assert len(times) == calibrate.JOBS_PER_STEP and min(times) > 0
    assert list(tmp_path.iterdir()) == []
    slow = [2 * calibrate.REFERENCE_S[workload][calibrate.STEPS.index(step)]] * 3
    assert calibrate.speed_factor(workload, step, slow) == 0.5
