"""Monte Carlo experiment runner.

Experiments: CLT/variance verification for the sample mean, the lag-1 ratio
estimator and the corrected couple; test size/power curves over a grid of
coefficient-correlation weights; rate-of-convergence checks on a single long
path; and the brute-force mixed-moment oracle.

Determinism: replicate r is seeded by mix64(master_seed, r) and computed
independently, so an MCReport depends only on its MCConfig, never on worker
count or chunk layout. Theoretical targets are recomputed from the moment
pipeline at report time.
"""

from __future__ import annotations

import dataclasses
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import asymptotics, estimate
from .errors import ConfigurationError
from .fourth_order import build_fourth_order
from .model import ModelParams, NoiseFamily
from .second_order import build_second_order
from .simulate import (DEFAULT_BURN_IN, GENERATOR_ID, replicate_seed,
                       simulate_block, simulate_with_noise)

EXPERIMENTS = ("clt_mean", "clt_theta", "clt_couple", "size_power", "rates",
               "mixed_moment_oracle")

#: replicates per work unit; results are invariant to this choice
CHUNK = 512

#: relative tolerance on empirical variances at R ~ 2000 (sampling error of a
#: variance is ~ sqrt(2/R) ~ 3.2%, leaving headroom for finite-n bias)
VARIANCE_RTOL = 0.10
COUPLE_RTOL = 0.15

#: start-up prefix excluded from the running-estimator rate statistics
RATES_PREFIX = 50

#: a run with more than this fraction of failed replicates is inconclusive
MAX_FAILED_FRACTION = 0.01

ORACLE_BATCHES = 100


@dataclass(frozen=True)
class MCConfig:
    params: ModelParams
    n: int
    replicates: int
    master_seed: int
    experiment: str
    level: float = 0.05
    burn_in: int = DEFAULT_BURN_IN
    alpha_grid: tuple[float, ...] = ()
    mu_key: tuple[int, int, int, int, int] | None = None
    theta_source: str = "tilde"
    workers: int = 1

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ConfigurationError(
                f"unknown experiment {self.experiment!r}; pick one of {EXPERIMENTS}"
            )
        distributional = self.experiment in ("clt_mean", "clt_theta",
                                             "clt_couple", "size_power")
        if distributional and self.replicates < 100:
            raise ConfigurationError(
                "distributional experiments need at least 100 replicates"
            )
        if self.experiment == "rates" and self.n < 100_000:
            raise ConfigurationError("rates experiment needs a path of n >= 1e5")
        if self.theta_source not in ("tilde", "hat"):
            raise ConfigurationError(
                f"theta_source must be 'tilde' or 'hat', got {self.theta_source!r}"
            )
        if not 0.0 < self.level <= 1.0:
            raise ConfigurationError(f"level must be in (0, 1], got {self.level}")


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
            "provenance": self.provenance,
        }
        if include_replicates:
            out["per_replicate"] = self.per_replicate
        return out


def _provenance(cfg: MCConfig) -> dict:
    from . import __version__
    return {
        "params": cfg.params.to_dict(),
        "master_seed": cfg.master_seed,
        "generator": GENERATOR_ID,
        "version": __version__,
    }


def _config_echo(cfg: MCConfig) -> dict:
    out = dataclasses.asdict(cfg)
    out["params"] = cfg.params.to_dict()
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


# ---------------------------------------------------------------------------
# per-replicate statistics of one chunk: simulation plus one estimator stage


def _chunk_estimates(params: ModelParams, n: int, master_seed: int,
                     burn_in: int, start: int, stop: int) -> dict:
    x = simulate_block(params, n, master_seed, range(start, stop), burn_in)
    return estimate.ratio_statistics(x)


def _chunk_tests(params: ModelParams, n: int, master_seed: int, burn_in: int,
                 level: float, source: str, eps_family: NoiseFamily,
                 eta_family: NoiseFamily, start: int, stop: int) -> dict:
    x = simulate_block(params, n, master_seed, range(start, stop), burn_in)
    return estimate.correlation_statistics(x, level, source, eps_family,
                                           eta_family)


def _gather(cfg: MCConfig, worker, params: ModelParams, *extra) -> dict:
    """Run `worker` over fixed chunks of cfg's replicates and merge results
    in index order."""
    args_common = (params, cfg.n, cfg.master_seed, cfg.burn_in, *extra)
    replicates = cfg.replicates
    spans = [(s, min(s + CHUNK, replicates)) for s in range(0, replicates, CHUNK)]
    if cfg.workers > 1 and len(spans) > 1:
        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            futures = [pool.submit(worker, *args_common, s, e) for s, e in spans]
            parts = [f.result() for f in futures]
    else:
        parts = [worker(*args_common, s, e) for s, e in spans]
    return {k: np.concatenate([p[k] for p in parts]) for k in parts[0]}


# ---------------------------------------------------------------------------
# experiments


def run_clt_mean(cfg: MCConfig) -> MCReport:
    """Empirical mean/variance of sqrt(n) Xbar_n against (0, kappa2)."""
    so = build_second_order(cfg.params)
    kappa2 = asymptotics.kappa_squared(cfg.params, so)
    res = _gather(cfg, _chunk_estimates, cfg.params)
    ok = res["reason"] == estimate.OK
    values = math.sqrt(cfg.n) * res["xbar"][ok]
    emp_var = float(values.var(ddof=1))
    emp_mean = float(values.mean())
    se_mean = float(values.std(ddof=1)) / math.sqrt(len(values))
    return MCReport(
        experiment=cfg.experiment,
        config=_config_echo(cfg),
        targets={"mean": 0.0, "variance": kappa2},
        empirical={"mean": emp_mean, "mean_se": se_mean, "variance": emp_var},
        tolerances={"variance_rtol": VARIANCE_RTOL, "mean_band": "3 se"},
        passes={
            "variance": abs(emp_var - kappa2) <= VARIANCE_RTOL * kappa2,
            "mean": abs(emp_mean) <= 3 * se_mean,
        },
        **_outcome(res["reason"]),
        provenance=_provenance(cfg),
        per_replicate={"sqrt_n_xbar": values.tolist()},
    )


def run_clt_theta(cfg: MCConfig) -> MCReport:
    """sqrt(n)(theta_hat - theta_star) against N(0, omega2), plus the
    inconsistency exhibit (distance of mean theta_hat from theta vs theta_star)."""
    so = build_second_order(cfg.params)
    fo = build_fourth_order(cfg.params, so)
    lim = asymptotics.limits(cfg.params, so)
    omega2 = asymptotics.omega_squared(cfg.params, so, fo)
    res = _gather(cfg, _chunk_estimates, cfg.params)
    ok = res["reason"] == estimate.OK
    th = res["theta_hat"][ok]
    values = math.sqrt(cfg.n) * (th - lim.theta_star)
    emp_var = float(values.var(ddof=1))
    emp_mean = float(values.mean())
    se_mean = float(values.std(ddof=1)) / math.sqrt(len(values))
    mean_th = float(th.mean())
    se_th = float(th.std(ddof=1)) / math.sqrt(len(th))
    return MCReport(
        experiment=cfg.experiment,
        config=_config_echo(cfg),
        targets={"mean": 0.0, "variance": omega2, "theta_star": lim.theta_star,
                 "theta": cfg.params.theta},
        empirical={
            "mean": emp_mean, "mean_se": se_mean, "variance": emp_var,
            "mean_theta_hat": mean_th, "mean_theta_hat_se": se_th,
            "dist_to_theta_star_in_se": abs(mean_th - lim.theta_star) / se_th,
            "dist_to_theta_in_se": abs(mean_th - cfg.params.theta) / se_th,
        },
        tolerances={"variance_rtol": VARIANCE_RTOL, "mean_band": "3 se"},
        passes={
            "variance": abs(emp_var - omega2) <= VARIANCE_RTOL * omega2,
            "mean": abs(emp_mean) <= 3 * se_mean,
        },
        **_outcome(res["reason"]),
        provenance=_provenance(cfg),
        per_replicate={"theta_hat": th.tolist()},
    )


def run_clt_couple(cfg: MCConfig) -> MCReport:
    """Covariance of sqrt(n)(theta_tilde - theta, gamma_tilde - gamma) vs Psi."""
    so = build_second_order(cfg.params)
    fo = build_fourth_order(cfg.params, so)
    stack = asymptotics.sigma_psi(cfg.params, so, fo)
    gamma = cfg.params.alpha * cfg.params.tau(2)
    res = _gather(cfg, _chunk_estimates, cfg.params)
    ok = res["reason"] == estimate.OK
    dev = np.vstack([res["theta_tilde"][ok] - cfg.params.theta,
                     res["gamma_tilde"][ok] - gamma]) * math.sqrt(cfg.n)
    emp_cov = np.cov(dev, ddof=1)
    rel = np.abs(emp_cov - stack.Psi) / np.abs(stack.Psi)
    return MCReport(
        experiment=cfg.experiment,
        config=_config_echo(cfg),
        targets={"Psi": stack.Psi.tolist(), "theta": cfg.params.theta,
                 "gamma": gamma},
        empirical={"covariance": emp_cov.tolist(),
                   "max_rel_err": float(rel.max())},
        tolerances={"entrywise_rtol": COUPLE_RTOL},
        passes={"covariance": bool((rel <= COUPLE_RTOL).all())},
        **_outcome(res["reason"]),
        provenance=_provenance(cfg),
        per_replicate={"theta_tilde": res["theta_tilde"][ok].tolist(),
                       "gamma_tilde": res["gamma_tilde"][ok].tolist()},
    )


def run_size_power(cfg: MCConfig, alpha_grid=None) -> MCReport:
    """Rejection rate of the correlation test at each grid point."""
    grid = tuple(alpha_grid if alpha_grid is not None else cfg.alpha_grid)
    if not grid or not any(a == 0.0 for a in grid):
        raise ConfigurationError("alpha_grid must contain the null point 0")
    if cfg.n < estimate.MIN_TEST_LENGTH:
        raise ConfigurationError(
            f"size_power needs n >= {estimate.MIN_TEST_LENGTH}")
    # with no coefficient noise the plug-in takes the gaussian tau4 map
    eta_family = (cfg.params.eta.family if cfg.params.eta is not None
                  else NoiseFamily.GAUSSIAN)

    rates, ses, used, reasons = {}, {}, {}, []
    for alpha in grid:
        params = dataclasses.replace(cfg.params, alpha=alpha)
        res = _gather(cfg, _chunk_tests, params, cfg.level, cfg.theta_source,
                      cfg.params.eps.family, eta_family)
        reasons.append(res["reason"])
        ok = res["reason"] == estimate.OK
        nv = int(ok.sum())
        rate = float(res["reject"][ok].mean()) if nv else math.nan
        rates[alpha] = rate
        ses[alpha] = math.sqrt(rate * (1 - rate) / nv) if nv else math.nan
        used[alpha] = nv

    h0_rate, h0_se = rates[0.0], ses[0.0]
    sorted_abs = sorted(grid, key=abs)
    monotone = all(
        rates[a] <= rates[b] + 2 * math.hypot(ses[a], ses[b])
        for a, b in zip(sorted_abs, sorted_abs[1:])
    )
    binom_band = 3 * math.sqrt(cfg.level * (1 - cfg.level) / max(used[0.0], 1))
    return MCReport(
        experiment=cfg.experiment,
        config=_config_echo(cfg),
        targets={"h0_rate": cfg.level, "alpha_grid": list(grid)},
        empirical={
            "rates": {str(a): rates[a] for a in grid},
            "binomial_se": {str(a): ses[a] for a in grid},
            "replicates_used": {str(a): used[a] for a in grid},
            "monotone_in_abs_alpha": monotone,
        },
        tolerances={"h0_band": f"level +/- {binom_band:.4f} (3 binomial se)"},
        passes={
            "h0_size": abs(h0_rate - cfg.level) <= binom_band,
            "power_dominates_h0": all(
                rates[a] - h0_rate > 5 * math.hypot(ses[a], h0_se)
                for a in grid if a != 0.0
            ),
        },
        **_outcome(np.concatenate(reasons)),
        provenance=_provenance(cfg),
    )


def run_rates(cfg: MCConfig) -> MCReport:
    """Log-averaged squared error of the running estimator on one long path.

    L_n = (1/ln n) sum_t (theta_hat_t - theta_star)^2 must approach omega2;
    the ln-rate makes only a wide band testable, so pass is L_n within
    [omega2/2, 2*omega2]. The iterated-logarithm running maximum of
    t (theta_hat_t - theta_star)^2 / (2 ln ln t) is reported informationally
    (a limsup is not testable at finite n). The first RATES_PREFIX estimates
    are excluded from both statistics to avoid start-up blow-ups, which does
    not affect the ln-averaged limit.
    """
    so = build_second_order(cfg.params)
    fo = build_fourth_order(cfg.params, so)
    lim = asymptotics.limits(cfg.params, so)
    omega2 = asymptotics.omega_squared(cfg.params, so, fo)

    traj, _, _ = simulate_with_noise(
        cfg.params, cfg.n, replicate_seed(cfg.master_seed, 0), cfg.burn_in)
    x = traj.x
    num = np.cumsum(x[:-1] * x[1:])
    den = np.cumsum(x[:-1] * x[:-1])
    th_t = num / den                       # theta_hat_t for t = 1..n
    sq = (th_t - lim.theta_star) ** 2
    t_idx = np.arange(1, cfg.n + 1)
    keep = t_idx >= RATES_PREFIX
    # normalize over the log-span actually summed: excluding the start-up
    # prefix from a 1/ln(n) average would bias it low by ln(prefix)/ln(n)
    l_n = float(sq[keep].sum() / (math.log(cfg.n) - math.log(RATES_PREFIX)))
    lil = t_idx[keep] * sq[keep] / (2.0 * np.log(np.log(t_idx[keep])))
    band = (omega2 / 2.0, 2.0 * omega2)
    return MCReport(
        experiment=cfg.experiment,
        config=_config_echo(cfg),
        targets={"omega2": omega2, "ln_average_band": list(band)},
        empirical={
            "ln_average": l_n,
            "lil_running_max": float(lil.max()),
            "lil_final": float(lil[-1]),
            "prefix_excluded": RATES_PREFIX,
        },
        tolerances={"ln_average_band": "[omega2/2, 2*omega2]"},
        passes={"ln_average": band[0] <= l_n <= band[1],
                "lil": True},  # informational only
        **_outcome(np.array([estimate.OK])),
        provenance=_provenance(cfg),
    )


def mixed_moment_oracle(key, params: ModelParams, n: int, seed: int,
                        burn_in: int = DEFAULT_BURN_IN):
    """Brute-force estimate of E[eta_{t-1}^a eta_t^b eps_t^c X_{t-1}^p X_t^q].

    Simulates one path of length n retaining the noise, averages the product
    over t = 1..n, and returns (estimate, batch-means standard error) with
    ORACLE_BATCHES batches; the batching absorbs the serial correlation.
    """
    a, b, c, p, q = key if isinstance(key, tuple) else key.as_tuple()
    if n < 1_000_000:
        raise ConfigurationError("mixed_moment_oracle needs n >= 1e6")
    traj, eta, eps = simulate_with_noise(params, n, seed, burn_in)
    x = traj.x
    prod = (eta[:-1] ** a * eta[1:] ** b * eps[1:] ** c
            * x[:-1] ** p * x[1:] ** q)
    batches = np.array_split(prod, ORACLE_BATCHES)
    means = np.array([bm.mean() for bm in batches])
    return float(prod.mean()), float(means.std(ddof=1) / math.sqrt(len(means)))


def run_mixed_moment_oracle(cfg: MCConfig) -> MCReport:
    if cfg.mu_key is None:
        raise ConfigurationError("mixed_moment_oracle experiment needs mu_key")
    so = build_second_order(cfg.params)
    fo = build_fourth_order(cfg.params, so)
    key = asymptotics.MixedMomentKey(*cfg.mu_key)
    target = asymptotics.mixed_moment(key, cfg.params, so, fo)
    est, se = mixed_moment_oracle(key, cfg.params, cfg.n,
                                  replicate_seed(cfg.master_seed, 0),
                                  cfg.burn_in)
    return MCReport(
        experiment=cfg.experiment,
        config=_config_echo(cfg),
        targets={"mu": target, "key": list(cfg.mu_key)},
        empirical={"mu": est, "se": se,
                   "deviation_in_se": abs(est - target) / se if se else math.inf},
        tolerances={"band": "3 se"},
        passes={"mu": abs(est - target) <= 3 * se},
        **_outcome(np.array([estimate.OK])),
        provenance=_provenance(cfg),
    )


def run_experiment(cfg: MCConfig) -> MCReport:
    runner = {
        "clt_mean": run_clt_mean,
        "clt_theta": run_clt_theta,
        "clt_couple": run_clt_couple,
        "size_power": run_size_power,
        "rates": run_rates,
        "mixed_moment_oracle": run_mixed_moment_oracle,
    }[cfg.experiment]
    return runner(cfg)
