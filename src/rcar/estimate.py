"""Estimators operating on an observed trajectory and the correlation test.

The lag-1 and lag-2 ratio estimators converge to the autocorrelations
rho_X(1), rho_X(2) rather than to theta as soon as the coefficient noise is
correlated; the map f below turns them into consistent estimates of
(theta, gamma) with gamma = alpha*tau2, and the test statistic

    n * gamma_tilde^2 / psi0_hat

is asymptotically chi-square(1) under the null of uncorrelated coefficients.
Each statistic has one formula, a finisher over per-row power sums added
in one pass, block by block in time, over a block of series: the Monte
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
#: steps per block of the sums of `_row_sums`
_STAT_BLOCK = 1 << 18

#: reason codes of the batch statistics: a row carries the first that
#: applies, in this order but with OVERFLOW first, OK when none does
(OK, ZERO_WINDOW, MAP_BOUNDARY, CONSTANT_SQUARES, PSI0_DENOMINATOR,
 PSI0_NOT_POSITIVE, OVERFLOW) = range(7)
REASONS = ("ok", "zero_window", "map_boundary", "constant_squares",
           "psi0_denominator", "psi0_not_positive", "overflow")

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
    OVERFLOW: (DegenerateDataError, "the power sums of the series overflow"),
}


def _raise_for(code: int, where: str, **values) -> None:
    if code != OK:
        cls, template = _ERRORS[code]
        raise cls(f"{where}: " + template.format(**values))


# ---------------------------------------------------------------------------
# per-row sums over a block x of shape (R, n+1), one series X_0..X_n per
# row, and the statistics as finishers over them; each finisher returns nan
# where a value is undefined, with the reason


def _dot_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->i", a, b)


def _row_sums(x: np.ndarray, test: bool = False) -> np.ndarray:
    """Per row of x, stacked, with S(a, b) = sum X_t^a X_{t-1}^b, t = 1..n:
    sum X_t, S(1, 1), S(0, 2), sum X_{t-2} X_t and sum X_{t-2}^2 (t = 2..n),
    and where test also S(2, 0), S(2, 2), S(1, 3) and S(0, 4). They are
    added in time order over blocks of _STAT_BLOCK steps, each owning its
    t-range and reading two columns before it, with two block-sized
    temporaries; a sum that overflows is inf or nan, without a warning."""
    n = x.shape[1] - 1
    total = None
    if test:  # allocated once: a fresh pair per block raised the peak RSS
        shape = (len(x), min(n, _STAT_BLOCK))
        z_block, p_block = np.empty(shape), np.empty(shape)
    with np.errstate(over="ignore", invalid="ignore"):
        for a in range(0, max(n, 1), _STAT_BLOCK):
            b = min(a + _STAT_BLOCK, n)
            lag, lead = x[:, a:b], x[:, a + 1:b + 1]
            lag2, lead2 = x[:, max(a - 1, 0):b - 1], x[:, max(a + 1, 2):b + 1]
            sums = [lead.sum(axis=1), _dot_rows(lag, lead), _dot_rows(lag, lag),
                    _dot_rows(lag2, lead2), _dot_rows(lag2, lag2)]
            if test:
                z = np.square(lag, out=z_block[:, :b - a])
                p = np.multiply(lag, lead, out=p_block[:, :b - a])
                sums += [_dot_rows(lead, lead), _dot_rows(p, p),
                         _dot_rows(p, z), _dot_rows(z, z)]
            total = np.array(sums) if total is None else total + sums
    return total


def _ratio(num: np.ndarray, den: np.ndarray):
    """num / den of a lag ratio, and its reason: OVERFLOW where a sum is not
    finite, ZERO_WINDOW where den, the lag window's sum of squares, is 0."""
    finite = np.isfinite(num) & np.isfinite(den)
    ok = finite & (den > 0)
    return (np.divide(num, den, out=np.full(len(den), np.nan), where=ok),
            np.select([~finite, ~ok], [OVERFLOW, ZERO_WINDOW], OK))


def _correct(th: np.ndarray, vt: np.ndarray):
    """Correction map (x, y) -> ((1-2y)x, y-x^2) / (1-2x^2); ok unless x is
    within BOUNDARY_TOL of +/-1/sqrt(2)."""
    den = 1.0 - 2.0 * th * th
    ok = np.abs(den) >= BOUNDARY_TOL
    tt = np.divide((1.0 - 2.0 * vt) * th, den,
                   out=np.full(len(th), np.nan), where=ok)
    gg = np.divide(vt - th * th, den, out=np.full(len(th), np.nan), where=ok)
    return tt, gg, ok


def _ratio_finish(s: np.ndarray, n: int) -> dict:
    """The ratio statistics of the first five sums s of _row_sums."""
    th, reason1 = _ratio(s[1], s[2])
    vt, reason2 = _ratio(s[3], s[4])
    tt, gg, ok_map = _correct(th, vt)
    reason = np.select([reason1 != OK, reason2 != OK, ~ok_map],
                       [reason1, reason2, MAP_BOUNDARY], OK)
    return {"xbar": s[0] / n, "theta_hat": th, "vartheta_hat": vt,
            "theta_tilde": tt, "gamma_tilde": gg, "reason": reason}


# ---------------------------------------------------------------------------
# the two batch stages


def ratio_statistics(x: np.ndarray) -> dict:
    """Per row of x (shape (R, n+1)): arrays xbar, theta_hat, vartheta_hat,
    theta_tilde, gamma_tilde and reason (OK, OVERFLOW, ZERO_WINDOW or
    MAP_BOUNDARY); values a row's reason leaves undefined are nan."""
    return _ratio_finish(_row_sums(x), x.shape[1] - 1)


def correlation_statistics(x: np.ndarray, level: float, source: str,
                           eps_family: NoiseFamily,
                           eta_family: NoiseFamily) -> dict:
    """ratio_statistics plus the correlation test of each row, with the
    arguments of correlation_test.

    Adds the arrays sigma2_hat, tau2_bar, sigma2_bar, sigma4_bar, tau4_bar,
    psi0_hat, statistic, p_value and reject; reason may also be OVERFLOW,
    CONSTANT_SQUARES, PSI0_DENOMINATOR or PSI0_NOT_POSITIVE. A row that is
    not OK has statistic and p_value nan and is not rejected.

    With e_t = X_t - theta_hat X_{t-1} and Z = X_{t-1}^2, since Var(X_t |
    past) = sigma2 + tau2 Z: sigma2_hat is the mean e_t^2, tau2_bar the
    slope of e_t^2 on Z (Nicholls and Quinn) and sigma2_bar = sigma2_hat -
    Zbar tau2_bar; each residual sum is a polynomial in theta_hat.
    """
    n = x.shape[1] - 1
    sums = _row_sums(x, test=True)
    out = _ratio_finish(sums, n)
    th = out["theta_hat"]
    (s11, s02), (s20, s22, s13, s04) = sums[1:3], sums[5:]
    zbar = s02 / n
    with np.errstate(over="ignore", invalid="ignore"):
        squares = s20 - 2.0 * th * s11 + th * th * s02  # sum e_t^2
        den = s04 - zbar * s02  # sum (Z - Zbar)^2
        num = (s22 - 2.0 * th * s13 + th * th * s04) - zbar * squares
    finite = np.isfinite(squares) & np.isfinite(num) & np.isfinite(den)
    sigma2_hat = squares / n
    tau2_bar = np.divide(num, den, out=np.full(len(x), np.nan),
                         where=finite & (den > 0))
    sigma2_bar = sigma2_hat - zbar * tau2_bar
    sigma4_bar = KURTOSIS_FACTOR[NoiseFamily(eps_family)] * sigma2_bar**2
    tau4_bar = KURTOSIS_FACTOR[NoiseFamily(eta_family)] * tau2_bar**2
    theta_bar = out["theta_tilde"] if source == "tilde" else th
    psi0, _ = psi0_closed_form(theta_bar, tau2_bar, tau4_bar, sigma2_bar,
                               sigma4_bar)
    reason = np.select(
        [out["reason"] != OK, ~finite, ~(den > 0), np.isnan(psi0),
         ~(np.isfinite(psi0) & (psi0 > 0))],
        [out["reason"], OVERFLOW, CONSTANT_SQUARES, PSI0_DENOMINATOR,
         PSI0_NOT_POSITIVE],
        OK)
    ok = reason == OK
    stat = np.divide(n * out["gamma_tilde"]**2, psi0,
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
    s = _row_sums(traj.x[None, :])
    ratio, reason = _ratio(s[2 * lag - 1], s[2 * lag])
    _raise_for(reason[0], name)
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
