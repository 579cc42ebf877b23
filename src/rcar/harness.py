"""Monte Carlo experiment runner.

`run_experiment` is the one runner. Each experiment is a function from an
MCConfig to its report fields: targets, empirical values, tolerances,
passes, the reason codes of its replicates and, where kept, per-replicate
values. The runner adds the config echo, the provenance, the replicate
counts and the diagnostics (the burn-in start of each parameter point). The
experiments: CLT/variance verification for the sample mean, the lag-1 ratio
estimator and the corrected couple; test size/power curves over a grid of
coefficient-correlation weights; rate-of-convergence checks on a single long
path; and the brute-force mixed-moment oracle.

Determinism: replicate r is seeded by mix64(master_seed, r) and computed
independently, so an MCReport depends only on its MCConfig, never on worker
count or chunk layout. Theoretical targets are recomputed from the moment
pipeline at report time, building only the tables an experiment needs.

Memory: a job runs one range of replicates at all k points of the plan, on
noise drawn once at the plan's longest burn-in b. It holds at most k + 2
(rows, b + n + 1) float64 arrays and CHUNK paths, its rows sized to fit
BLOCK_BYTES, so its working set is max(BLOCK_BYTES, one row's working set)
and stays flat as n grows until one row exceeds the budget.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import operator
import os
from dataclasses import dataclass, field

import numpy as np

from . import __version__, asymptotics, estimate
from .errors import ConfigurationError
from .fourth_order import build_fourth_order
from .model import ModelParams, NoiseFamily, cast_value
from .second_order import build_second_order
from .simulate import (GENERATOR_ID, block_noise, burn_in_for, replicate_seed,
                       simulate, simulate_block, simulate_with_noise)

#: replicates per work unit at most; results are invariant to this choice
CHUNK = 512
#: bytes of (rows, burn + n + 1) float64 arrays one work unit may hold; its
#: rows are sized from this, so memory stays flat as n grows
BLOCK_BYTES = 30 * 2**20

#: relative tolerance on empirical variances at R ~ 2000 (sampling error of a
#: variance is ~ sqrt(2/R) ~ 3.2%, leaving headroom for finite-n bias)
VARIANCE_RTOL = 0.10
COUPLE_RTOL = 0.15

#: size_power's h0_size band and power_dominates_h0 margin, in binomial se
SIZE_BAND_SE = 3
POWER_SEPARATION_SE = 5

#: start-up prefix excluded from the running-estimator rate statistics
RATES_PREFIX = 50

#: a run with more than this fraction of failed replicates is inconclusive
MAX_FAILED_FRACTION = 0.01

ORACLE_BATCHES = 100
#: shortest path the mixed-moment oracle averages over
ORACLE_MIN_N = 1_000_000


@dataclass(frozen=True)
class MCConfig:
    params: ModelParams
    n: int
    replicates: int
    master_seed: int
    experiment: str
    level: float = 0.05
    #: None starts each parameter point at its derived `burn_in_for`
    burn_in: int | None = None
    alpha_grid: tuple[float, ...] = ()
    mu_key: tuple[int, int, int, int, int] | None = None
    theta_source: str = "tilde"
    workers: int = 1

    def __post_init__(self):
        # a numpy integer seed is kept as a Python int, which JSON can echo
        object.__setattr__(self, "master_seed", operator.index(self.master_seed))
        if self.experiment not in EXPERIMENTS:
            raise ConfigurationError(
                f"unknown experiment {self.experiment!r}; pick one of {EXPERIMENTS}"
            )
        if (self.experiment not in ("rates", "mixed_moment_oracle")
                and self.replicates < 100):
            raise ConfigurationError(
                "distributional experiments need at least 100 replicates")
        if self.n < 1:
            raise ConfigurationError(f"n must be >= 1, got {self.n}")
        if self.burn_in is not None and self.burn_in < 0:
            raise ConfigurationError(f"burn_in must be >= 0, got {self.burn_in}")
        if self.mu_key is not None:
            try:
                asymptotics.MixedMomentKey(*self.mu_key)
            except (TypeError, ValueError):
                raise ConfigurationError(
                    f"mu_key {self.mu_key} is not five exponents (a, b, c, p, q) "
                    f"in 0..{asymptotics.MixedMomentKey.BOUNDS}") from None
        if self.experiment == "rates" and self.n < 100_000:
            raise ConfigurationError("rates experiment needs a path of n >= 1e5")
        if self.experiment == "mixed_moment_oracle" and self.n < ORACLE_MIN_N:
            raise ConfigurationError(
                f"n must be >= 1e6 for mixed_moment_oracle, got {self.n}")
        if self.workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {self.workers}")
        cast_value("theta_source", self.theta_source, estimate.check_theta_source)
        cast_value("level", self.level, estimate.check_level)
        if self.experiment == "size_power" and 0.0 not in self.alpha_grid:
            raise ConfigurationError("alpha_grid must contain the null point 0")
        if len(set(self.alpha_grid)) < len(self.alpha_grid):
            raise ConfigurationError(f"alpha_grid repeats a value: {self.alpha_grid}")
        if self.experiment == "size_power" and self.n < estimate.MIN_TEST_LENGTH:
            raise ConfigurationError(
                f"size_power needs n >= {estimate.MIN_TEST_LENGTH}")
        if self.experiment == "mixed_moment_oracle" and self.mu_key is None:
            raise ConfigurationError("mixed_moment_oracle experiment needs mu_key")


@dataclass
class MCReport:
    experiment: str
    config: dict
    targets: dict
    empirical: dict
    tolerances: dict
    passes: dict
    failed_by_reason: dict
    replicates_used: int
    status: str
    provenance: dict
    diagnostics: dict
    per_replicate: dict = field(default_factory=dict)

    @property
    def failed_replicates(self) -> int:
        return sum(self.failed_by_reason.values())

    def to_dict(self, include_replicates: bool = False) -> dict:
        out = {
            "experiment": self.experiment,
            "config": self.config,
            "targets": self.targets,
            "empirical": self.empirical,
            "tolerance": self.tolerances,
            "pass": self.passes,
            "failed_replicates": self.failed_replicates,
            "failed_by_reason": self.failed_by_reason,
            "replicates_used": self.replicates_used,
            "status": self.status,
            "diagnostics": self.diagnostics,
            "provenance": self.provenance,
        }
        if include_replicates:
            out["per_replicate"] = self.per_replicate
        return out


def _status(failed: int, total: int) -> str:
    return "ok" if failed <= MAX_FAILED_FRACTION * total else "inconclusive"


def _outcome(reason: np.ndarray) -> dict:
    """The MCReport fields counting replicates, from their reason codes:
    failures per reason (every reason listed), replicates used, status."""
    counts = np.bincount(reason, minlength=len(estimate.REASONS)).tolist()
    return {"failed_by_reason": dict(zip(estimate.REASONS[1:], counts[1:])),
            "replicates_used": counts[0],
            "status": _status(len(reason) - counts[0], len(reason))}


def _tables(params: ModelParams):
    """The second- and fourth-order moment tables of params."""
    so = build_second_order(params)
    return so, build_fourth_order(params, so)


def _theta_targets(params: ModelParams) -> tuple[float, float]:
    """theta_star, the limit of theta_hat, and omega2, its CLT variance."""
    so, fo = _tables(params)
    theta_star = asymptotics.limits(params, so).theta_star
    return theta_star, asymptotics.omega_squared(params, so, fo, theta_star)


# ---------------------------------------------------------------------------
# per-replicate statistics: simulation plus one estimator stage, by chunk


def _plan(cfg: MCConfig) -> list[tuple[ModelParams, int]]:
    """The parameter points cfg's experiment simulates, each with its
    burn-in start (cfg.burn_in, or the point's derived one): one point per
    alpha_grid value for size_power, else cfg.params alone."""
    points = ([dataclasses.replace(cfg.params, alpha=a) for a in cfg.alpha_grid]
              if cfg.experiment == "size_power" else [cfg.params])
    return [(p, burn_in_for(p) if cfg.burn_in is None else cfg.burn_in)
            for p in points]


def _chunk(stage, n: int, master_seed: int, plan, start: int, stop: int) -> list:
    """`stage` of replicates start..stop-1 at each point of plan, on noise
    drawn once at the longest burn-in: each point but the last overwrites a
    copy of eta, the last eta itself, and all go on from the same stream
    states past the first time block. Each path goes once it is staged."""
    first = plan[0][0]
    if any((p.eta, p.eps) != (first.eta, first.eps) for p, _ in plan):
        raise ValueError("the points of a plan must share their eta and eps specs")
    reps = range(start, stop)
    eta, eps, states = block_noise(first, n, master_seed, reps, max(b for _, b in plan))
    paths = [simulate_block(p, n, master_seed, reps, burn,
                            (eta.copy() if i < len(plan) - 1 else eta, eps, states))
             for i, (p, burn) in enumerate(plan)]
    del eta, eps
    return [stage(paths.pop(0)) for _ in plan]


def _job_rows(n: int, burn: int, points: int = 1) -> int:
    """Replicates per job of `points` plan points at longest burn-in burn:
    as many as fit BLOCK_BYTES at points + 2 float64 arrays of burn + n + 1
    values per row, at least 1 and at most CHUNK paths. That bounds what a
    job holds: the noise of the first time block, the paths and one row of
    coefficient scratch or one later time block's buffers, or the paths and
    the two temporaries of `estimate.correlation_statistics`."""
    return max(1, min(CHUNK // points, BLOCK_BYTES // (8 * (points + 2) * (burn + n + 1))))


def _gather(cfg: MCConfig, stage, plan: list[tuple[ModelParams, int]]) -> list[dict]:
    """Run `stage` over jobs of `_job_rows` of cfg's replicates, each job at
    every point of plan: one result per point, merged in index order. Every
    job goes through one map, so one pool at most, of no more processes
    than there are jobs or CPUs."""
    rows = _job_rows(cfg.n, max(burn for _, burn in plan), len(plan))
    starts = range(0, cfg.replicates, rows)
    stops = [min(s + rows, cfg.replicates) for s in starts]
    work = functools.partial(_chunk, stage, cfg.n, cfg.master_seed, plan)
    workers = min(cfg.workers, len(starts), os.cpu_count() or 1)
    if workers > 1:
        # imported here: the pool's modules, multiprocessing among them,
        # would cost every other run of rcar their import time and memory
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(work, starts, stops))
    else:
        parts = list(map(work, starts, stops))
    return [{k: np.concatenate([c[k] for c in chunks]) for k in chunks[0]}
            for chunks in zip(*parts)]


def _estimates(cfg: MCConfig, plan, *keys: str):
    """Reason codes, then the valid values of each ratio statistic in keys."""
    res, = _gather(cfg, estimate.ratio_statistics, plan)
    ok = res["reason"] == estimate.OK
    return (res["reason"], *(res[k][ok] for k in keys))


# ---------------------------------------------------------------------------
# experiments: each maps an MCConfig and its _plan to the fields of its
# MCReport that the runner does not fill in, plus the replicates' reason codes


def _mean_se_var(values: np.ndarray) -> tuple[float, float, float]:
    """Mean, its standard error and the variance (ddof 1) of values; all
    undefined (nan) with fewer than two values."""
    if len(values) < 2:
        return math.nan, math.nan, math.nan
    return (float(values.mean()),
            float(values.std(ddof=1)) / math.sqrt(len(values)),
            float(values.var(ddof=1)))


def _clt(values: np.ndarray, variance: float, reason: np.ndarray,
         **per_replicate: np.ndarray) -> dict:
    """Fields of a CLT check of `values` against N(0, variance), with the
    reason codes and the named per-replicate arrays. With fewer than two
    valid replicates the empirical values are undefined and nothing passes."""
    emp_mean, se_mean, emp_var = _mean_se_var(values)
    return {
        "targets": {"mean": 0.0, "variance": variance},
        "empirical": {"mean": emp_mean, "mean_se": se_mean, "variance": emp_var},
        "tolerances": {"variance_rtol": VARIANCE_RTOL, "mean_band": "3 se"},
        "passes": {"variance": abs(emp_var - variance) <= VARIANCE_RTOL * variance,
                   "mean": abs(emp_mean) <= 3 * se_mean},
        "reason": reason,
        "per_replicate": {k: v.tolist() for k, v in per_replicate.items()},
    }


def _clt_mean(cfg: MCConfig, plan) -> dict:
    """Empirical mean/variance of sqrt(n) Xbar_n against (0, kappa2)."""
    kappa2 = asymptotics.kappa_squared(cfg.params, build_second_order(cfg.params))
    reason, xbar = _estimates(cfg, plan, "xbar")
    values = math.sqrt(cfg.n) * xbar
    return _clt(values, kappa2, reason, sqrt_n_xbar=values)


def _clt_theta(cfg: MCConfig, plan) -> dict:
    """sqrt(n)(theta_hat - theta_star) against N(0, omega2), plus the
    inconsistency exhibit (distance of mean theta_hat from theta vs theta_star)."""
    theta_star, omega2 = _theta_targets(cfg.params)
    reason, th = _estimates(cfg, plan, "theta_hat")
    out = _clt(math.sqrt(cfg.n) * (th - theta_star), omega2, reason, theta_hat=th)
    mean_th, se_th, _ = _mean_se_var(th)
    out["targets"].update(theta_star=theta_star, theta=cfg.params.theta)
    out["empirical"].update(
        mean_theta_hat=mean_th, mean_theta_hat_se=se_th,
        dist_to_theta_star_in_se=abs(mean_th - theta_star) / se_th,
        dist_to_theta_in_se=abs(mean_th - cfg.params.theta) / se_th)
    return out


def _clt_couple(cfg: MCConfig, plan) -> dict:
    """Covariance of sqrt(n)(theta_tilde - theta, gamma_tilde - gamma) vs Psi."""
    stack = asymptotics.sigma_psi(cfg.params, *_tables(cfg.params))
    psi, gamma = stack.Psi, stack.limits.gamma
    reason, tt, gg = _estimates(cfg, plan, "theta_tilde", "gamma_tilde")
    dev = np.vstack([tt - cfg.params.theta, gg - gamma]) * math.sqrt(cfg.n)
    emp_cov = np.cov(dev, ddof=1) if len(tt) > 1 else np.full((2, 2), math.nan)
    # an entry whose target is 0 (the off-diagonal at theta 0) is taken on
    # the scale sqrt(Psi_ii Psi_jj)
    diag = psi.diagonal()
    scale = np.where(psi != 0, np.abs(psi), np.sqrt(np.outer(diag, diag)))
    rel = np.abs(emp_cov - psi) / scale
    return {
        "targets": {"Psi": psi.tolist(), "theta": cfg.params.theta, "gamma": gamma},
        "empirical": {"covariance": emp_cov.tolist(), "max_rel_err": float(rel.max())},
        "tolerances": {"entrywise_rtol": COUPLE_RTOL},
        "passes": {"covariance": bool((rel <= COUPLE_RTOL).all())},
        "reason": reason,
        "per_replicate": {"theta_tilde": tt.tolist(), "gamma_tilde": gg.tolist()},
    }


def _size_power(cfg: MCConfig, plan) -> dict:
    """Rejection rate of the correlation test at each grid point."""
    grid = cfg.alpha_grid
    # with no coefficient noise the plug-in takes the gaussian tau4 map
    eta_family = (cfg.params.eta.family if cfg.params.eta is not None
                  else NoiseFamily.GAUSSIAN)
    stage = functools.partial(estimate.correlation_statistics, level=cfg.level,
                              source=cfg.theta_source, eta_family=eta_family,
                              eps_family=cfg.params.eps.family)

    rates, ses, used, reasons = {}, {}, {}, []
    results = _gather(cfg, stage, plan)
    for alpha, res in zip(grid, results):
        reasons.append(res["reason"])
        ok = res["reason"] == estimate.OK
        nv = used[alpha] = int(ok.sum())
        rate = rates[alpha] = float(res["reject"][ok].mean()) if nv else math.nan
        ses[alpha] = math.sqrt(rate * (1 - rate) / nv) if nv else math.nan

    h0_rate, h0_se = rates[0.0], ses[0.0]
    sorted_abs = sorted(grid, key=abs)
    monotone = all(rates[a] <= rates[b] + 2 * math.hypot(ses[a], ses[b])
                   for a, b in zip(sorted_abs, sorted_abs[1:]))
    band = SIZE_BAND_SE * math.sqrt(cfg.level * (1 - cfg.level) / max(used[0.0], 1))
    return {
        "targets": {"h0_rate": cfg.level, "alpha_grid": list(grid)},
        "empirical": {
            "rates": {str(a): rates[a] for a in grid},
            "binomial_se": {str(a): ses[a] for a in grid},
            "replicates_used": {str(a): used[a] for a in grid},
            "monotone_in_abs_alpha": monotone,
        },
        "tolerances": {"h0_band": f"level +/- {band:.4f} ({SIZE_BAND_SE} binomial se)"},
        "passes": {
            "h0_size": abs(h0_rate - cfg.level) <= band,
            "power_dominates_h0": all(
                rates[a] - h0_rate > POWER_SEPARATION_SE * math.hypot(ses[a], h0_se)
                for a in grid if a != 0.0),
        },
        "reason": np.concatenate(reasons),
    }


def _rates(cfg: MCConfig, plan) -> dict:
    """Log-averaged squared error of the running estimator on one long path.

    L_n = (1/ln n) sum_t (theta_hat_t - theta_star)^2 must approach omega2;
    the ln-rate makes only a wide band testable, so pass is L_n within
    [omega2/2, 2*omega2]. The iterated-logarithm running maximum of
    t (theta_hat_t - theta_star)^2 / (2 ln ln t) is reported informationally
    (a limsup is not testable at finite n). The first RATES_PREFIX estimates
    are excluded from both statistics to avoid start-up blow-ups, which does
    not affect the ln-averaged limit.
    """
    theta_star, omega2 = _theta_targets(cfg.params)
    (_, burn_in), = plan
    x = simulate(cfg.params, cfg.n, replicate_seed(cfg.master_seed, 0), burn_in).x
    # theta_hat_t for t = 1..n
    th_t = np.cumsum(x[:-1] * x[1:]) / np.cumsum(x[:-1] * x[:-1])
    sq = (th_t - theta_star) ** 2
    t_idx = np.arange(1, cfg.n + 1)
    keep = t_idx >= RATES_PREFIX
    # normalize over the log-span actually summed: excluding the start-up
    # prefix from a 1/ln(n) average would bias it low by ln(prefix)/ln(n)
    l_n = float(sq[keep].sum() / (math.log(cfg.n) - math.log(RATES_PREFIX)))
    lil = t_idx[keep] * sq[keep] / (2.0 * np.log(np.log(t_idx[keep])))
    band = (omega2 / 2.0, 2.0 * omega2)
    return {
        "targets": {"omega2": omega2, "ln_average_band": list(band)},
        "empirical": {"ln_average": l_n, "lil_running_max": float(lil.max()),
                      "lil_final": float(lil[-1]), "prefix_excluded": RATES_PREFIX},
        "tolerances": {"ln_average_band": "[omega2/2, 2*omega2]"},
        "passes": {"ln_average": band[0] <= l_n <= band[1],
                   "lil": True},  # informational only
        "reason": np.array([estimate.OK]),
    }


def mixed_moment_oracle(key: tuple[int, int, int, int, int],
                        params: ModelParams, n: int, seed: int,
                        burn_in: int | None = None):
    """Brute-force estimate of E[eta_{t-1}^a eta_t^b eps_t^c X_{t-1}^p X_t^q],
    key the exponent tuple (a, b, c, p, q).

    Simulates one path of length n retaining the noise, averages the product
    over t = 1..n, and returns (estimate, batch-means standard error) with
    ORACLE_BATCHES batches; the batching absorbs the serial correlation.
    """
    a, b, c, p, q = key
    if n < ORACLE_MIN_N:
        raise ConfigurationError("mixed_moment_oracle needs n >= 1e6")
    traj, eta, eps = simulate_with_noise(params, n, seed, burn_in)
    x = traj.x
    prod = (eta[:-1] ** a * eta[1:] ** b * eps[1:] ** c
            * x[:-1] ** p * x[1:] ** q)
    batches = np.array_split(prod, ORACLE_BATCHES)
    means = np.array([bm.mean() for bm in batches])
    return float(prod.mean()), float(means.std(ddof=1) / math.sqrt(len(means)))


def _mixed_moment_oracle(cfg: MCConfig, plan) -> dict:
    """The oracle's estimate of mu_key against the moment pipeline's value."""
    target = asymptotics.mixed_moment(asymptotics.MixedMomentKey(*cfg.mu_key),
                                      cfg.params, *_tables(cfg.params))
    (_, burn_in), = plan
    est, se = mixed_moment_oracle(cfg.mu_key, cfg.params, cfg.n,
                                  replicate_seed(cfg.master_seed, 0), burn_in)
    return {
        "targets": {"mu": target, "key": list(cfg.mu_key)},
        "empirical": {"mu": est, "se": se,
                      "deviation_in_se": abs(est - target) / se if se else math.inf},
        "tolerances": {"band": "3 se"},
        "passes": {"mu": abs(est - target) <= 3 * se},
        "reason": np.array([estimate.OK]),
    }


_EXPERIMENTS = {
    "clt_mean": _clt_mean,
    "clt_theta": _clt_theta,
    "clt_couple": _clt_couple,
    "size_power": _size_power,
    "rates": _rates,
    "mixed_moment_oracle": _mixed_moment_oracle,
}
EXPERIMENTS = tuple(_EXPERIMENTS)


def run_experiment(cfg: MCConfig) -> MCReport:
    """Run cfg's experiment; add the config echo, provenance, counts and
    diagnostics."""
    plan = _plan(cfg)
    fields = _EXPERIMENTS[cfg.experiment](cfg, plan)
    config = {**dataclasses.asdict(cfg), "params": cfg.params.to_dict()}
    del config["workers"]  # the report does not depend on it
    return MCReport(
        experiment=cfg.experiment,
        config=config,
        **_outcome(fields.pop("reason")),
        provenance={"params": cfg.params.to_dict(),
                    "master_seed": cfg.master_seed,
                    "generator": GENERATOR_ID, "version": __version__},
        diagnostics={"burn_in": [burn for _, burn in plan]},
        **fields)
