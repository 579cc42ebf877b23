"""The three benchmark workloads and their correctness gates.

Each workload is built from a seed (its inputs are generated here; the
package only receives them), runs its timed steps through public entry
points in-process, and then checks its outputs with tests that do not
depend on the random streams. `step1`/`step2` are the two timed stages whose
throughputs (items per processor second) the end-to-end metrics report:

    workload      step1                       step2
    mc_reference  rcar mc clt_couple          rcar mc size_power
    series_1e6    rcar simulate -> CSV        rcar estimate <- CSV
    param_sweep   check_hypotheses per point  moment + covariance stack

Every CLI call goes through `rcar.cli.main` and every library call through
its module attribute, so the tracer's wrappers (installed at those
attributes) see them.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import time

import numpy as np

import rcar
from rcar import asymptotics, cli, fourth_order, model, second_order
from rcar.errors import HypothesisError

SIM = sys.modules["rcar.simulate"]  # `rcar.simulate` is the function

#: theta 0.3, alpha 0.5, gaussian eps (variance 1), gaussian eta (variance 0.1)
REFERENCE_FLAGS = ["--theta", "0.3", "--alpha", "0.5",
                   "--eps", "gaussian:1", "--eta", "gaussian:0.1"]
REFERENCE_KEYS = {"theta": "0.3", "alpha": "0.5", "eps.family": "gaussian",
                  "eps.scale": "1", "eta.family": "gaussian", "eta.scale": "0.1"}
REFERENCE = model.params_from_mapping(REFERENCE_KEYS)

#: workload sizes; "smoke" exists for the benchmark's own tests
SIZES = {
    "full": {"clt_n": 5000, "clt_r": 2048, "sp_n": 2000, "sp_r": 2048,
             "series_n": 1_000_000, "points": 400, "mc_draws": 100_000},
    "smoke": {"clt_n": 500, "clt_r": 256, "sp_n": 200, "sp_r": 256,
              "series_n": 20_000, "points": 40, "mc_draws": 10_000},
}

#: rows per harness work unit; the gate recomputes the first and last row of
#: each chunk (mirrors rcar.harness.CHUNK, which the gate must not trust)
GATE_CHUNK = 512

REPLICATE_RTOL = 1e-9
IDENTITY_TOL = 1e-10
REGION_SIDE = 41
FAMILIES = tuple(model.NoiseFamily)


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _seeds(seed: int, tag: int, count: int) -> list[int]:
    """`count` 31-bit seeds derived from the workload seed and a tag."""
    rng = np.random.default_rng([seed, tag])
    return [int(v) for v in rng.integers(0, 2**31 - 1, size=count)]


class Workload:
    """One pass of a workload: inputs, timed run, gate, digests.

    `ops` holds one entry per attempted operation: its name and the reasons
    it failed (empty when it succeeded). `steps` holds the timed stages.
    """

    name = ""
    #: the workload's own names for the throughputs of step1 and step2
    step_names = ("", "")
    #: called with a step's name right before the step's clock starts, and
    #: left out of the pass's times (the host-speed calibration runs here)
    before_step = None

    def __init__(self, seed: int, size: str, work: str):
        self.seed = seed
        self.sz = SIZES[size]
        self.work = work
        self.ops: dict[str, list[str]] = {}
        self.steps: dict[str, float] = {}
        self.items: dict[str, int] = {}
        self.counts: dict[str, float] = {}
        self.digests: dict[str, str] = {}

    def path(self, name: str) -> str:
        return os.path.join(self.work, name)

    def _cli(self, op: str, argv: list[str]) -> None:
        """Run one CLI command in-process; record a failure unless it exits 0."""
        self.ops[op] = []
        try:
            code = cli.main(argv)
        except Exception as exc:  # a traceback is a failed operation
            self.fail(op, f"raised {type(exc).__name__}: {exc}")
            return
        if code != 0:
            self.fail(op, f"exit code {code}")

    def _timed(self, step: str, fn) -> None:
        if self.before_step is not None:
            t0, c0 = time.perf_counter(), time.process_time()
            self.before_step(step)
            self._untimed[0] += time.perf_counter() - t0
            self._untimed[1] += time.process_time() - c0
        t0 = time.process_time()
        fn()
        self.steps[step] = time.process_time() - t0

    def run(self) -> tuple[float, float]:
        """Run the timed part; returns its wall and processor seconds,
        without the time spent in `before_step`."""
        self._untimed = [0.0, 0.0]
        t0, c0 = time.perf_counter(), time.process_time()
        self._run()
        return (time.perf_counter() - t0 - self._untimed[0],
                time.process_time() - c0 - self._untimed[1])

    def fail(self, op: str, reason: str) -> None:
        self.ops.setdefault(op, []).append(reason)


class McReference(Workload):
    """`rcar mc` clt_couple (n 5000, R 2048) then size_power (n 2000,
    R 2048, alpha grid 0,0.5), default burn-in, one worker."""

    name = "mc_reference"
    step_names = ("clt_couple_replicates_per_s", "size_power_replicates_per_s")

    def __init__(self, seed, size, work):
        super().__init__(seed, size, work)
        self.master_seed = _seeds(seed, 1, 1)[0]
        sz = self.sz
        self.runs = {
            "clt_couple": {"n": sz["clt_n"], "replicates": sz["clt_r"]},
            "size_power": {"n": sz["sp_n"], "replicates": sz["sp_r"],
                           "alpha_grid": "0,0.5"},
        }
        for exp, keys in self.runs.items():
            lines = {**REFERENCE_KEYS, **keys, "experiment": exp,
                     "master_seed": self.master_seed}
            with open(self.path(f"{exp}.cfg"), "w", encoding="utf-8") as fh:
                fh.writelines(f"{k} = {v}\n" for k, v in lines.items())
        self.items = {"step1": sz["clt_r"], "step2": 2 * sz["sp_r"]}

    def _mc(self, exp: str) -> None:
        self._cli(exp, ["mc", "--config", self.path(f"{exp}.cfg"),
                        "--workers", "1", "--keep-replicates",
                        "--out", self.path(f"{exp}.json")])

    def _run(self):
        self._timed("step1", lambda: self._mc("clt_couple"))
        self._timed("step2", lambda: self._mc("size_power"))

    def check(self) -> None:
        attempted = used = 0
        for exp in self.runs:
            if self.ops[exp]:
                continue
            out = self.path(f"{exp}.json")
            self.digests[f"{exp}.json"] = _sha256(out)
            with open(out, encoding="utf-8") as fh:
                rep = json.load(fh)
            if rep["status"] != "ok":
                self.fail(exp, f"status {rep['status']!r}")
            grid = rep["config"]["alpha_grid"] or [None]
            attempted += rep["config"]["replicates"] * len(grid)
            used += rep["replicates_used"]
            if exp == "clt_couple":
                self._check_replicates(rep)
        self.counts = {"replicates_attempted": attempted,
                       "replicates_used": used}

    def _check_replicates(self, rep: dict) -> None:
        """Recompute sampled replicates with the scalar public path."""
        cfg = rep["config"]
        reps = cfg["replicates"]
        if rep["replicates_used"] != reps:
            self.fail("clt_couple", "invalid replicates: per-replicate rows "
                      "no longer align with replicate indices")
            return
        tt = rep["per_replicate"]["theta_tilde"]
        gg = rep["per_replicate"]["gamma_tilde"]
        sample = sorted({i for s in range(0, reps, GATE_CHUNK)
                         for i in (s, min(s + GATE_CHUNK, reps) - 1)})
        for r in sample:
            traj = rcar.simulate(REFERENCE, cfg["n"],
                                 SIM.replicate_seed(self.master_seed, r),
                                 cfg["burn_in"])
            want = rcar.f_map(rcar.theta_hat(traj), rcar.vartheta_hat(traj))
            for label, got, ref in (("theta_tilde", tt[r], want[0]),
                                    ("gamma_tilde", gg[r], want[1])):
                if abs(got - ref) > REPLICATE_RTOL * max(abs(got), abs(ref)):
                    self.fail("clt_couple", f"replicate {r} {label} {got!r} "
                              f"!= scalar recomputation {ref!r}")


class Series1e6(Workload):
    """`rcar simulate --n 1e6` to CSV, then `rcar estimate` on that CSV."""

    name = "series_1e6"
    step_names = ("simulate_rows_per_s", "estimate_rows_per_s")

    def __init__(self, seed, size, work):
        super().__init__(seed, size, work)
        self.n = self.sz["series_n"]
        self.sim_seed = _seeds(seed, 2, 1)[0]
        self.csv = self.path("series.csv")
        self.est = self.path("estimate.json")
        self.items = {"step1": self.n, "step2": self.n}
        self.ingested = None
        # between the two steps; the tests use it to perturb the CSV
        self.between = None

    def _capture_ingest(self):
        """Keep what `rcar estimate` ingested, for the bitwise gate."""
        original = cli.ingest

        def capture(path):
            self.ingested = original(path)
            return self.ingested
        cli.ingest = capture
        return original

    def _run(self):
        self._timed("step1", lambda: self._cli("simulate", [
            "simulate", *REFERENCE_FLAGS, "--n", str(self.n),
            "--seed", str(self.sim_seed), "--out", self.csv]))
        if self.between is not None:
            self.between(self)
        original = self._capture_ingest()
        try:
            self._timed("step2", lambda: self._cli("estimate", [
                "estimate", "--in", self.csv, "--out", self.est]))
        finally:
            cli.ingest = original

    def check(self) -> None:
        traj = rcar.simulate(REFERENCE, self.n, self.sim_seed)
        if not self.ops["simulate"]:
            self.digests["series.csv"] = _sha256(self.csv)
        if self.ops["estimate"]:
            return
        if (self.ingested is None
                or self.ingested.x.tobytes() != traj.x.tobytes()):
            self.fail("simulate", "ingest of the written CSV differs from "
                      "the simulated x")
        self.digests["estimate.json"] = _sha256(self.est)
        with open(self.est, encoding="utf-8") as fh:
            got = json.load(fh)
        got.pop("provenance", None)
        want = json.loads(json.dumps(rcar.correlation_test(traj).to_dict()))
        if got != want:
            diff = sorted(k for k in want if got.get(k) != want[k])
            self.fail("estimate", "estimate JSON differs from correlation_test "
                      f"on the in-memory trajectory in {diff}")


class ParamSweep(Workload):
    """~400 seeded parameter points over all four noise families, each
    through check_hypotheses and the moment/covariance stack, then one
    41 x 41 `rcar region` grid."""

    name = "param_sweep"
    step_names = ("check_points_per_s", "variance_points_per_s")

    def __init__(self, seed, size, work):
        super().__init__(seed, size, work)
        self.points = self._points(seed, self.sz["points"])
        self.check_seeds = _seeds(seed, 4, len(self.points))
        self.region = self.path("region.csv")
        self.items = {"step1": len(self.points), "step2": len(self.points)}
        self.reports: list = [None] * len(self.points)
        self.stacks: list = [None] * len(self.points)

    @staticmethod
    def _points(seed: int, count: int) -> list[model.ModelParams]:
        """The ranges of the test suite's random_admissible draw, without
        its admissibility filter, so about 8% of points violate H3/H4."""
        rng = np.random.default_rng([seed, 3])
        points = []
        while len(points) < count:
            eps = model.NoiseSpec(FAMILIES[rng.integers(4)], rng.uniform(0.2, 1.5))
            eta = model.NoiseSpec(FAMILIES[rng.integers(4)], rng.uniform(0.02, 0.3))
            theta, alpha = rng.uniform(-0.8, 0.8), rng.uniform(-0.9, 0.9)
            try:
                points.append(model.ModelParams(theta, alpha, eps, eta))
            except rcar.PathologicalParamsError:
                continue
        return points

    def _checks(self):
        for i, p in enumerate(self.points):
            op = f"point {i}"
            self.ops[op] = []
            try:
                self.reports[i] = model.check_hypotheses(
                    p, mc_draws=self.sz["mc_draws"], seed=self.check_seeds[i])
            except Exception as exc:
                self.fail(op, f"check_hypotheses raised {type(exc).__name__}: {exc}")

    def _stacks(self):
        for i, p in enumerate(self.points):
            try:
                so = second_order.build_second_order(p)
                fo = fourth_order.build_fourth_order(p, so)
                lim = asymptotics.limits(p, so)
                self.stacks[i] = (so, fo, lim, asymptotics.sigma_psi(p, so, fo))
            except HypothesisError as exc:
                self.stacks[i] = exc
            except Exception as exc:
                self.fail(f"point {i}", f"stack raised {type(exc).__name__}: {exc}")

    def _run(self):
        self._timed("step1", self._checks)
        self._timed("step2", self._stacks)
        self._cli("region", ["region", "--theta-range", "-1:1:0.05",
                             "--alpha-range", "-1:1:0.05", "--eps", "gaussian:1",
                             "--eta", "gaussian:0.1", "--out", self.region])

    def check(self) -> None:
        h = hashlib.sha256()
        for i, p in enumerate(self.points):
            rho_m = float(np.max(np.abs(np.linalg.eigvals(second_order.m_matrix(p)))))
            rho_h = float(np.max(np.abs(np.linalg.eigvals(fourth_order.h_matrix(p)))))
            admissible = rho_m < 1 and rho_h < 1
            rep, res = self.reports[i], self.stacks[i]
            if rep is not None:
                h.update(json.dumps(rep.to_dict(), sort_keys=True).encode())
                if (rep.h3 and rep.h4) != admissible:
                    self.fail(f"point {i}", "H3/H4 verdict disagrees with "
                              f"rho(M) {rho_m:.6g}, rho(H) {rho_h:.6g}")
            if res is None:
                continue
            if isinstance(res, HypothesisError):
                h.update(str(res).encode())
                if admissible:
                    self.fail(f"point {i}", f"admissible point raised {res}")
                continue
            if not admissible:
                self.fail(f"point {i}", "inadmissible point did not raise "
                          "HypothesisError")
                continue
            so, fo, lim, stack = res
            h.update(json.dumps([lim.to_dict(), stack.to_dict()]).encode())
            worst = _identity_residual(p, so, fo)
            if not worst <= IDENTITY_TOL:
                self.fail(f"point {i}", f"solve identity residual {worst:.3e}")
            if not np.all(np.isfinite(stack.Psi)):
                self.fail(f"point {i}", "non-finite Psi")
        self.digests["sweep"] = h.hexdigest()
        if not self.ops["region"]:
            self.digests["region.csv"] = _sha256(self.region)
            with open(self.region, encoding="utf-8") as fh:
                rows = fh.read().splitlines()
            if rows[0] != "theta,alpha,rho_M,rho_H" or len(rows) != 1 + REGION_SIDE**2:
                self.fail("region", f"expected a header and {REGION_SIDE**2} "
                          f"rows, got {len(rows)} lines")


def _identity_residual(p, so, fo) -> float:
    """Worst of the criterion-3 identities: the three solve residuals, the
    Lambda5/Lambda prefix and |rho(G) - rho(M)|."""
    s2, s4 = p.sigma(2), p.sigma(4)
    r1 = (np.eye(3) - so.M) @ so.Lam - s2 * so.U0
    rhs2 = s2 * fo.R + s4 * fo.V0
    r2 = (np.eye(5) - fo.H) @ fo.Delta - rhs2
    r3 = (np.eye(5) - fo.G) @ fo.Lam5 - s2 * fo.V0
    rho = lambda m: float(np.max(np.abs(np.linalg.eigvals(m))))
    return max(
        np.max(np.abs(r1)) / (1 + np.max(np.abs(s2 * so.U0))),
        np.max(np.abs(r2)) / (1 + np.max(np.abs(rhs2))),
        np.max(np.abs(r3)) / (1 + s2),
        np.max(np.abs(fo.Lam5[:3] - so.Lam)),
        abs(rho(fo.G) - rho(so.M)),
    )


WORKLOADS = {w.name: w for w in (McReference, Series1e6, ParamSweep)}
