"""Estimators operating on an observed trajectory and the correlation test.

The lag-1 and lag-2 ratio estimators converge to the autocorrelations
rho_X(1), rho_X(2) rather than to theta as soon as the coefficient noise is
correlated; the map f below turns them into consistent estimates of
(theta, gamma) with gamma = alpha*tau2, and the test statistic

    n * gamma_tilde^2 / psi0_hat

is asymptotically chi-square(1) under the null of uncorrelated coefficients.
Each statistic is computed once, row-wise over a block of series: the Monte
Carlo harness passes whole blocks, the scalar functions a block of one.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .asymptotics import psi0_closed_form
from .errors import DegenerateDataError, PathologicalParamsError
from .model import BOUNDARY_TOL, KURTOSIS_FACTOR, NoiseFamily
from .numerics import chisq1_tail
from .simulate import Trajectory

MIN_TEST_LENGTH = 50

#: reason codes of the batch statistics, in the order they are checked: a
#: row carries the first that applies, OK when none does
(OK, ZERO_WINDOW, MAP_BOUNDARY, CONSTANT_SQUARES, PSI0_DENOMINATOR,
 PSI0_NOT_POSITIVE) = range(6)
REASONS = ("ok", "zero_window", "map_boundary", "constant_squares",
           "psi0_denominator", "psi0_not_positive")

#: error class and message template (formatted with the row's values) of
#: each failure reason
_ERRORS = {
    ZERO_WINDOW: (DegenerateDataError, "all-zero lag window"),
    MAP_BOUNDARY: (PathologicalParamsError, "correction map undefined: first "
                   "argument {theta_hat:.6g} is within 1e-9 of +/-1/sqrt(2)"),
    CONSTANT_SQUARES: (DegenerateDataError, "constant squared series"),
    PSI0_DENOMINATOR: (PathologicalParamsError, "psi0 denominator vanishes"),
    PSI0_NOT_POSITIVE: (DegenerateDataError, "invalid variance plug-in: "
                        "psi0_hat = {psi0_hat:.6g} <= 0"),
}


def _raise_for(code: int, where: str, **values) -> None:
    if code != OK:
        cls, template = _ERRORS[code]
        raise cls(f"{where}: " + template.format(**values))


# ---------------------------------------------------------------------------
# row-wise formulas over a block x of shape (R, n+1), one series X_0..X_n
# per row; each returns nan where it is undefined, with an ok mask


def _dot_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->i", a, b)


def _lag_ratio(x: np.ndarray, lag: int):
    """sum X_{t-lag} X_t / sum X_{t-lag}^2, t = lag..n; ok if the lag window
    is not all zero."""
    lagged = x[:, :-lag]
    den = _dot_rows(lagged, lagged)
    ok = den > 0
    return np.divide(_dot_rows(lagged, x[:, lag:]), den,
                     out=np.full(len(x), np.nan), where=ok), ok


def _correct(th: np.ndarray, vt: np.ndarray):
    """Correction map (x, y) -> ((1-2y)x, y-x^2) / (1-2x^2); ok unless x is
    within BOUNDARY_TOL of +/-1/sqrt(2)."""
    den = 1.0 - 2.0 * th * th
    ok = np.abs(den) >= BOUNDARY_TOL
    tt = np.divide((1.0 - 2.0 * vt) * th, den,
                   out=np.full(len(th), np.nan), where=ok)
    gg = np.divide(vt - th * th, den, out=np.full(len(th), np.nan), where=ok)
    return tt, gg, ok


def _residuals(x: np.ndarray, theta_used: np.ndarray) -> np.ndarray:
    """e_t = X_t - theta_used X_{t-1}, t = 1..n."""
    resid = np.multiply(theta_used[:, None], x[:, :-1])
    return np.subtract(x[:, 1:], resid, out=resid)


def _mean_square(resid: np.ndarray) -> np.ndarray:
    return _dot_rows(resid, resid) / resid.shape[1]


def _nicholls_quinn(x: np.ndarray, resid: np.ndarray, sigma2_hat: np.ndarray):
    """Regression of squared residuals on the lagged squared series.

    The conditional variance of X_t given the past is sigma2 + tau2 X_{t-1}^2,
    so residual t is paired with the regressor Z = X_{t-1}^2. Returns
    (tau2_bar, sigma2_bar, ok): the slope estimates the coefficient-noise
    variance, sigma2_bar = sigma2_hat - Zbar * tau2_bar removes the inflation
    the raw residual variance inherits from the random coefficient, and ok
    is False where Z is constant. Overwrites resid with its squares.
    """
    zc = np.square(x[:, :-1])
    zbar = zc.mean(axis=1)
    np.subtract(zc, zbar[:, None], out=zc)
    den = _dot_rows(zc, zc)
    ok = den > 0
    tau2_bar = np.divide(_dot_rows(zc, np.square(resid, out=resid)), den,
                         out=np.full(len(x), np.nan), where=ok)
    return tau2_bar, sigma2_hat - zbar * tau2_bar, ok


# ---------------------------------------------------------------------------
# the two batch stages


def ratio_statistics(x: np.ndarray) -> dict:
    """Per row of x (shape (R, n+1)): arrays xbar, theta_hat, vartheta_hat,
    theta_tilde, gamma_tilde and reason (OK, ZERO_WINDOW or MAP_BOUNDARY);
    values a row's reason leaves undefined are nan."""
    th, ok1 = _lag_ratio(x, 1)
    vt, ok2 = _lag_ratio(x, 2)
    tt, gg, ok_map = _correct(th, vt)
    reason = np.select([~(ok1 & ok2), ~ok_map], [ZERO_WINDOW, MAP_BOUNDARY], OK)
    return {"xbar": x[:, 1:].mean(axis=1), "theta_hat": th, "vartheta_hat": vt,
            "theta_tilde": tt, "gamma_tilde": gg, "reason": reason}


def correlation_statistics(x: np.ndarray, level: float, source: str,
                           eps_family: NoiseFamily,
                           eta_family: NoiseFamily) -> dict:
    """ratio_statistics plus the correlation test of each row, with the
    arguments of correlation_test.

    Adds the arrays sigma2_hat, tau2_bar, sigma2_bar, sigma4_bar, tau4_bar,
    psi0_hat, statistic, p_value and reject; reason may also be
    CONSTANT_SQUARES, PSI0_DENOMINATOR or PSI0_NOT_POSITIVE. A row that is
    not OK has statistic and p_value nan and is not rejected.
    """
    out = ratio_statistics(x)
    th = out["theta_hat"]
    resid = _residuals(x, th)
    sigma2_hat = _mean_square(resid)
    tau2_bar, sigma2_bar, ok_nq = _nicholls_quinn(x, resid, sigma2_hat)
    sigma4_bar = KURTOSIS_FACTOR[NoiseFamily(eps_family)] * sigma2_bar**2
    tau4_bar = KURTOSIS_FACTOR[NoiseFamily(eta_family)] * tau2_bar**2
    theta_bar = out["theta_tilde"] if source == "tilde" else th
    psi0, _ = psi0_closed_form(theta_bar, tau2_bar, tau4_bar, sigma2_bar,
                               sigma4_bar)
    reason = np.select(
        [out["reason"] != OK, ~ok_nq, np.isnan(psi0),
         ~(np.isfinite(psi0) & (psi0 > 0))],
        [out["reason"], CONSTANT_SQUARES, PSI0_DENOMINATOR, PSI0_NOT_POSITIVE],
        OK)
    ok = reason == OK
    stat = np.divide((x.shape[1] - 1) * out["gamma_tilde"]**2, psi0,
                     out=np.full(len(x), np.nan), where=ok)
    pval = np.array([chisq1_tail(s) if good else math.nan
                     for s, good in zip(stat, ok)])
    out.update(sigma2_hat=sigma2_hat, tau2_bar=tau2_bar, sigma2_bar=sigma2_bar,
               sigma4_bar=sigma4_bar, tau4_bar=tau4_bar, psi0_hat=psi0,
               statistic=stat, p_value=pval, reject=ok & (pval < level),
               reason=reason)
    return out


# ---------------------------------------------------------------------------
# scalar estimators: each a batch of one


def _scalar_ratio(traj: Trajectory, lag: int, name: str) -> float:
    ratio, ok = _lag_ratio(traj.x[None, :], lag)
    _raise_for(OK if ok[0] else ZERO_WINDOW, name)
    return float(ratio[0])


def theta_hat(traj: Trajectory) -> float:
    """Lag-1 ratio sum X_{t-1} X_t / sum X_{t-1}^2, t = 1..n."""
    return _scalar_ratio(traj, 1, "theta_hat")


def vartheta_hat(traj: Trajectory) -> float:
    """Lag-2 ratio sum X_{t-2} X_t / sum X_{t-2}^2, t = 2..n."""
    if traj.n < 2:
        raise DegenerateDataError("vartheta_hat needs n >= 2")
    return _scalar_ratio(traj, 2, "vartheta_hat")


def f_map(x: float, y: float) -> tuple[float, float]:
    """Correction map (x, y) -> ((1-2y)x, y-x^2) / (1-2x^2)."""
    tt, gg, ok = _correct(np.array([x], dtype=float), np.array([y], dtype=float))
    _raise_for(OK if ok[0] else MAP_BOUNDARY, "f_map", theta_hat=x)
    return float(tt[0]), float(gg[0])


@dataclass(frozen=True)
class EstimationReport:
    """Every estimator plus the correlation test outcome for one series."""

    n: int
    xbar: float
    theta_hat: float
    vartheta_hat: float
    theta_tilde: float
    gamma_tilde: float
    sigma2_hat: float
    tau2_bar: float
    sigma2_bar: float
    sigma4_bar: float
    tau4_bar: float
    psi0_hat: float
    statistic: float
    p_value: float
    theta_hat_source: str
    level: float
    reject: bool

    def to_dict(self) -> dict:
        return asdict(self)


def check_level(level: float) -> float:
    """The test level itself if it lies in (0, 1]; ValueError otherwise."""
    if not 0.0 < level <= 1.0:
        raise ValueError(f"level must be in (0, 1], got {level}")
    return level


def check_theta_source(source: str) -> str:
    """The theta source itself if it is "tilde" or "hat"; ValueError
    otherwise."""
    if source not in ("tilde", "hat"):
        raise ValueError(f"theta_source must be 'tilde' or 'hat', got {source!r}")
    return source


def correlation_test(traj: Trajectory, level: float = 0.05,
                     source: str = "tilde",
                     eps_family: NoiseFamily = NoiseFamily.GAUSSIAN,
                     eta_family: NoiseFamily = NoiseFamily.GAUSSIAN
                     ) -> EstimationReport:
    """Run the full estimation pipeline and the correlation test.

    source selects which theta estimate feeds the variance plug-in ("tilde",
    the consistent default, or "hat"); the family arguments supply the
    fourth-moment maps sigma4 = g(sigma2), tau4 = h(tau2) the plug-in needs.

    A non-positive plug-in psi0_hat (possible at small n) is an error, never
    silently clamped.
    """
    check_level(level)
    check_theta_source(source)
    if traj.n < MIN_TEST_LENGTH:
        raise DegenerateDataError(
            f"correlation test needs n >= {MIN_TEST_LENGTH}, got {traj.n}"
        )

    out = correlation_statistics(traj.x[None, :], level, source, eps_family,
                                 eta_family)
    row = {k: v[0] for k, v in out.items()}
    _raise_for(row.pop("reason"), "correlation_test", **row)
    return EstimationReport(
        n=traj.n,
        theta_hat_source=source,
        level=level,
        reject=bool(row.pop("reject")),
        **{k: float(v) for k, v in row.items()},
    )
