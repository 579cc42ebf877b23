"""The benchmark's tracer (bench/spans.py) wraps package functions by name; a
rename or deletion in the package must fail here, not only under
`bench/run.py --trace 1`."""

import importlib.util
from pathlib import Path

import rcar.cli  # noqa: F401 - imports every module the tracer wraps

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def test_every_traced_name_exists():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    tracer = spans.Tracer()
    try:
        spans.install(tracer)
    finally:
        tracer.unpatch()
    assert tracer.missing == []
