"""The benchmark's tracer (bench/spans.py) wraps package functions by name and
reads their arguments and results; a rename, a deletion or a changed
argument in the package must fail here, not only under
`bench/run.py --trace 1`."""

import importlib.util
from pathlib import Path

import pytest

from rcar import cli  # imports every module the tracer wraps
from rcar.harness import MCConfig, run_experiment

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


@pytest.fixture
def spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_exists(spans):
    tracer = spans.Tracer()
    try:
        spans.install(tracer)
    finally:
        tracer.unpatch()
    assert tracer.missing == []


def test_traced_runs_record_integer_steps(spans, params_accept, tmp_path):
    # the block and scalar spans compute steps and burn from the burn-in
    # argument and the result, so a burn-in of None must not reach them
    tracer = spans.Tracer()
    try:
        spans.install(tracer)
        for experiment, extra in (("clt_couple", {}),
                                  ("size_power", {"alpha_grid": (0.0, 0.5)})):
            run_experiment(MCConfig(params=params_accept, n=60, replicates=100,
                                    master_seed=3, experiment=experiment,
                                    **extra))
        assert cli.main(["simulate", "--theta", "0.3", "--alpha", "0.5",
                         "--eps", "gaussian:1", "--eta", "gaussian:0.1",
                         "--n", "60", "--seed", "3",
                         "--out", str(tmp_path / "s.csv")]) == 0
    finally:
        tracer.unpatch()
    counted = [attrs for name, _, _, _, attrs in tracer.spans
               if name in ("simulate.block", "simulate.scalar")]
    assert len(counted) == 4  # one block per grid point and chunk, one scalar
    for attrs in counted:
        assert all(type(attrs[key]) is int for key in ("steps", "burn"))
