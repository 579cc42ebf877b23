"""In-memory span tracer installed from outside the package.

Each public function is wrapped at the attribute its caller looks up at call
time (a module global or a class attribute), so the package runs unmodified
and the wrappers come off again after the traced pass. A span records its
name, start, end, parent and a few counters; spans stay in memory and are
written out when the pass ends. A span's self time is its duration minus the
part its child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import statistics
import sys
import time

#: tail percentiles considered, highest first; a tail is reported only when
#: at least TAIL_BEYOND samples lie beyond it
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_BEYOND = 10


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent, attrs]
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def _wrap(self, name, fn, attrs):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0, 0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if attrs is not None:
                rec[4] = attrs(fn, args, kwargs, out)
            return out
        return traced

    def patch(self, owner, attr: str, name: str, attrs=None) -> None:
        fn = owner.__dict__.get(attr)
        if not callable(fn):
            self.missing.append(f"{owner.__name__}.{attr}")
            return
        setattr(owner, attr, self._wrap(name, fn, attrs))
        self._patched.append((owner, attr, fn))

    def unpatch(self) -> None:
        for owner, attr, fn in reversed(self._patched):
            setattr(owner, attr, fn)
        self._patched.clear()

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "attrs"],
                       "spans": self.spans}, fh)


def _arg(fn, args, kwargs, name):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments[name]


def _block_attrs(fn, args, kwargs, out):
    burn = _arg(fn, args, kwargs, "burn_in")
    rows, cols = out.shape
    return {"steps": rows * (burn + cols - 1), "burn": rows * burn}


def _scalar_attrs(fn, args, kwargs, out):
    traj = out[0] if isinstance(out, tuple) else out
    return {"steps": traj.burn_in + traj.n, "burn": traj.burn_in}


def _noise_attrs(fn, args, kwargs, out):
    return len(out)


def _rows_attrs(fn, args, kwargs, out):
    return {"rows": len(out.x)}


def _write_attrs(fn, args, kwargs, out):
    traj, path = _arg(fn, args, kwargs, "traj"), _arg(fn, args, kwargs, "path")
    return {"rows": len(traj.x), "bytes": os.path.getsize(path)}


def install(tracer: Tracer) -> None:
    """Wrap the layer boundaries of the imported package."""
    mods = {name: sys.modules[f"rcar.{name}"] for name in (
        "cli", "harness", "simulate", "model", "second_order", "fourth_order",
        "numerics", "asymptotics", "estimate")}
    cli, harness, sim = mods["cli"], mods["harness"], mods["simulate"]
    tracer.patch(cli, "main", "cli.main")
    tracer.patch(cli, "cmd_region", "cli.region")
    tracer.patch(cli, "run_simulation", "simulate.scalar", _scalar_attrs)
    tracer.patch(cli, "write_csv", "simulate.write_csv", _write_attrs)
    tracer.patch(cli, "ingest", "simulate.ingest", _rows_attrs)
    tracer.patch(harness, "run_experiment", "harness.run")
    tracer.patch(harness, "simulate_block", "simulate.block", _block_attrs)
    tracer.patch(harness, "simulate_with_noise", "simulate.scalar", _scalar_attrs)
    tracer.patch(harness, "build_second_order", "second_order.build")
    tracer.patch(harness, "build_fourth_order", "fourth_order.build")
    # the block simulator's per-row fallback looks `simulate` up in its module
    tracer.patch(sim, "simulate", "simulate.fallback", _scalar_attrs)
    tracer.patch(mods["model"].NoiseSpec, "sample", "model.noise", _noise_attrs)
    tracer.patch(mods["model"], "check_hypotheses", "model.check_hypotheses")
    tracer.patch(mods["second_order"], "build_second_order", "second_order.build")
    tracer.patch(mods["fourth_order"], "build_fourth_order", "fourth_order.build")
    for short in ("numerics", "asymptotics", "estimate"):
        mod = mods[short]
        for attr, fn in list(vars(mod).items()):
            if (inspect.isfunction(fn) and not attr.startswith("_")
                    and fn.__module__ == mod.__name__):
                tracer.patch(mod, attr, f"{short}.{attr}")


# ---------------------------------------------------------------------------
# per-pass layer figures


def summarize(spans: list[list]) -> dict:
    """Per span name: calls, busy and self seconds, durations, counters."""
    cover = [0] * len(spans)
    for name, t0, t1, parent, _ in spans:
        if parent >= 0:
            cover[parent] += t1 - t0
    out: dict[str, dict] = {}
    for (name, t0, t1, _, attrs), child in zip(spans, cover):
        s = out.setdefault(name, {"calls": 0, "busy_ns": 0, "self_ns": 0,
                                  "durations_ns": [], "attrs": []})
        s["calls"] += 1
        s["busy_ns"] += t1 - t0
        s["self_ns"] += t1 - t0 - child
        s["durations_ns"].append(t1 - t0)
        if attrs is not None:
            s["attrs"].append(attrs)
    return out


def tail(values: list[float]) -> tuple[float | None, float | None]:
    """(percentile, value): the highest ladder percentile with at least
    TAIL_BEYOND samples beyond it, or (None, None) with too few samples."""
    n = len(values)
    for pct in TAIL_LADDER:
        if n * (100.0 - pct) / 100.0 >= TAIL_BEYOND:
            cuts = statistics.quantiles(values, n=1000, method="inclusive")
            return pct, cuts[round(pct * 10) - 1]
    return None, None


def layer_metrics(by_name: dict, outputs: dict) -> dict:
    """The per-layer metrics of one traced pass.

    A layer the workload never enters reads 0. `outputs` carries counts the
    pass read from the package's own reports.
    """
    def get(name, key):
        s = by_name.get(name)
        return s[key] if s else 0

    def busy(name):
        return get(name, "busy_ns") / 1e9

    def self_s(*names):
        return sum(get(n, "self_ns") for n in names) / 1e9

    def attr_sum(name, key):
        return sum(a[key] for a in by_name.get(name, {}).get("attrs", []))

    def per(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    def p50_ms(name):
        d = get(name, "durations_ns")
        return statistics.median(d) / 1e6 if d else 0.0

    def tail_ms(name):
        value = tail(get(name, "durations_ns") or [])[1]
        return value / 1e6 if value is not None else 0.0

    block_steps = attr_sum("simulate.block", "steps")
    scalar_steps = attr_sum("simulate.scalar", "steps")
    scalar = by_name.get("simulate.scalar", {}).get("attrs", [])
    noise = by_name.get("model.noise", {})
    attempted = outputs.get("replicates_attempted", 0)
    return {
        "simulate.block.busy_s": busy("simulate.block"),
        "simulate.block.steps": block_steps,
        "simulate.block.ns_per_step": per(busy("simulate.block"), block_steps, 1e9),
        "simulate.burn_in_share": per(
            attr_sum("simulate.block", "burn") + attr_sum("simulate.scalar", "burn"),
            block_steps + scalar_steps),
        "simulate.fallback_rows": get("simulate.fallback", "calls"),
        "simulate.scalar.busy_s": busy("simulate.scalar"),
        "simulate.scalar.ns_per_step": per(busy("simulate.scalar"), scalar_steps, 1e9),
        "simulate.scalar.burn_in": max((a["burn"] for a in scalar), default=0),
        "simulate.recurrence.self_s": self_s("simulate.block", "simulate.scalar",
                                             "simulate.fallback"),
        "model.noise.busy_s": busy("model.noise"),
        "model.noise.calls": get("model.noise", "calls"),
        "model.noise.draws": sum(noise.get("attrs", [])),
        "simulate.write_csv.busy_s": busy("simulate.write_csv"),
        "simulate.write_csv.us_per_row": per(
            busy("simulate.write_csv"), attr_sum("simulate.write_csv", "rows"), 1e6),
        "simulate.write_csv.bytes": attr_sum("simulate.write_csv", "bytes"),
        "simulate.ingest.busy_s": busy("simulate.ingest"),
        "simulate.ingest.us_per_row": per(
            busy("simulate.ingest"), attr_sum("simulate.ingest", "rows"), 1e6),
        "estimate.correlation_test.busy_s": busy("estimate.correlation_test"),
        "harness.self_s": self_s("harness.run"),
        "harness.replicates_attempted": attempted,
        "harness.valid_ratio": per(outputs.get("replicates_used", 0), attempted),
        "model.check_hypotheses.busy_s": busy("model.check_hypotheses"),
        "model.check_hypotheses.p50_ms": p50_ms("model.check_hypotheses"),
        "model.check_hypotheses.tail_ms": tail_ms("model.check_hypotheses"),
        "second_order.build.busy_s": busy("second_order.build"),
        "fourth_order.build.busy_s": busy("fourth_order.build"),
        "asymptotics.sigma_psi.busy_s": busy("asymptotics.sigma_psi"),
        "asymptotics.sigma_psi.p50_ms": p50_ms("asymptotics.sigma_psi"),
        "asymptotics.mixed_moment.calls_per_stack": per(
            get("asymptotics.mixed_moment", "calls"),
            get("asymptotics.sigma_psi", "calls")),
        "numerics.solve.calls": get("numerics.solve", "calls"),
        "numerics.spectral_radius.calls": get("numerics.spectral_radius", "calls"),
        "cli.self_s": self_s("cli.main"),
        "cli.region.busy_s": busy("cli.region"),
    }
