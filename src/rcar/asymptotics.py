"""Asymptotic limits and variances of the estimators.

Assembles, purely from the parameters (never from data):

  - the limits theta_star = rho_X(1), vartheta_star = rho_X(2), gamma,
    and the residual-variance limit sigma2_star;
  - kappa2, the variance of sqrt(n) * sample mean;
  - the 7x7 martingale covariance SigmaML and its projection Sigma, the 2x2
    covariance of the lag-1/lag-2 ratio estimators; omega2, the variance of
    sqrt(n) (theta_hat - theta_star), is Sigma[0, 0];
  - the delta-method covariance Psi = J Sigma J^T of the corrected
    estimators, J the Jacobian of the correction map (`f_jacobian`);
  - the closed form psi0 (and its numerator psi00) used by the correlation
    test as a plug-in under the null.

All of these are functions of (theta, alpha) and the noise moments only,
entering through sigma2, sigma4 and tau2..tau8. Each variance has one
computation: `omega_squared` and `sigma_psi` read the same Sigma, which does
not need the correction map, so omega2 exists also where Psi does not; and
`sigma_psi` takes kappa2 from `kappa_squared`.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from math import comb
from typing import ClassVar

import numpy as np

from .errors import PathologicalParamsError
from .fourth_order import FourthOrderTables
from .model import BOUNDARY_TOL, ModelParams
from .second_order import SecondOrderTables

OMEGA3 = np.ones(3)
OMEGA6 = np.ones(6)


@dataclass(frozen=True)
class LimitSet:
    theta_star: float
    vartheta_star: float
    gamma: float
    sigma2_star: float

    def to_dict(self) -> dict:
        return asdict(self)


def limits(params: ModelParams, so: SecondOrderTables) -> LimitSet:
    """Limiting values of the ratio estimators and of the residual variance."""
    t2 = params.tau(2)
    g1 = 1.0 - 2.0 * params.alpha * t2
    theta_star = params.theta / g1
    vartheta_star = (params.theta**2 + params.alpha * t2 * g1) / g1
    return LimitSet(
        theta_star=theta_star,
        vartheta_star=vartheta_star,
        gamma=params.alpha * t2,
        sigma2_star=(1.0 - theta_star**2) * so.lambda0,
    )


# ---------------------------------------------------------------------------
# sample-mean variance


def kbar_matrix(params: ModelParams) -> np.ndarray:
    th, al = params.theta, params.alpha
    t2, t4 = params.tau(2), params.tau(4)
    s2 = params.sigma(2)
    kb1 = (1 + al * th) ** 2 * t2 + al**2 * (t4 - t2**2)
    kb12 = al**2 * (1 + al * th) * t2
    kb2 = al**4 * t2
    kb3 = (1 + al**2 * t2) * s2
    return np.array([[kb1, kb12, 0.0], [kb12, kb2, 0.0], [0.0, 0.0, kb3]])


def gammabar_matrix(so: SecondOrderTables) -> np.ndarray:
    l0, l1, l2 = so.Lam
    return np.array([[l0, l1, 0.0], [l1, l2, 0.0], [0.0, 0.0, 1.0]])


def kappa_squared(params: ModelParams, so: SecondOrderTables) -> float:
    """Asymptotic variance of sqrt(n) * Xbar_n."""
    den = 1.0 - params.theta - params.alpha * params.tau(2)
    if abs(den) < BOUNDARY_TOL:
        raise PathologicalParamsError(
            "theta + alpha*tau2 = 1: sample-mean variance denominator vanishes"
        )
    quad = OMEGA3 @ (kbar_matrix(params) * gammabar_matrix(so)) @ OMEGA3
    return float(quad / den**2)


# ---------------------------------------------------------------------------
# usual-estimator variance


def k_matrix(params: ModelParams) -> np.ndarray:
    th, al = params.theta, params.alpha
    t2, t4, t6 = params.tau(2), params.tau(4), params.tau(6)
    s2, s4 = params.sigma(2), params.sigma(4)
    base = 1.0 - 2.0 * al * t2 + al * th**2
    k1 = s2 * (1 + 4 * al**2 * (th**2 * t2 - t2**2 + t4))
    k13 = 4 * al**3 * th * t2 * s2
    k2 = base * (2 * al * t4 + t2 * base) + al**2 * (t6 + 4 * th**2 * (t4 - t2**2))
    k24 = 2 * al**2 * th * t2 * (1 + al * th**2 - 4 * al * t2) + 6 * al**3 * th * t4
    k25 = al**3 * (al * t4 + t2 * base)
    k26 = al * s2 * (al * t4 + t2 * base)
    k3 = 4 * al**4 * t2 * s2
    k4 = 4 * al**4 * (th**2 * t2 - t2**2 + t4)
    k45 = 2 * al**5 * th * t2
    k46 = 2 * al**3 * th * t2 * s2
    k5 = al**6 * t2
    k56 = al**4 * t2 * s2
    k6 = al**2 * t2 * s4
    return np.array([
        [k1, 0, k13, 0, 0, 0],
        [0, k2, 0, k24, k25, k26],
        [k13, 0, k3, 0, 0, 0],
        [0, k24, 0, k4, k45, k46],
        [0, k25, 0, k45, k5, k56],
        [0, k26, 0, k46, k56, k6],
    ])


def gamma6_matrix(so: SecondOrderTables, fo: FourthOrderTables) -> np.ndarray:
    l0, l1, l2 = so.Lam
    d0, d1, d2, d3, d4 = fo.Delta
    return np.array([
        [l0, 0, l1, 0, 0, 0],
        [0, d0, 0, d1, d2, l0],
        [l1, 0, l2, 0, 0, 0],
        [0, d1, 0, d2, d3, l1],
        [0, d2, 0, d3, d4, l2],
        [0, l0, 0, l1, l2, 1.0],
    ])


# ---------------------------------------------------------------------------
# mixed moments E[eta_{t-1}^a eta_t^b eps_t^c X_{t-1}^p X_t^q]


@dataclass(frozen=True)
class MixedMomentKey:
    a: int
    b: int
    c: int
    p: int
    q: int

    #: largest supported exponent of each of (a, b, c, p, q); the least is 0
    BOUNDS: ClassVar[tuple[int, ...]] = (2, 3, 1, 2, 2)

    def __post_init__(self):
        if not all(0 <= e <= top for e, top in zip(self.as_tuple(), self.BOUNDS)):
            raise ValueError(f"mixed-moment key out of range: {self}")

    def as_tuple(self) -> tuple[int, int, int, int, int]:
        return (self.a, self.b, self.c, self.p, self.q)


def _eta_x_moment(e: int, m: int, params: ModelParams,
                  fo: FourthOrderTables) -> float:
    """E[eta_t^e X_t^m] for m in 0..4 (odd m vanish by symmetry); m is
    p + j <= p + q, which `MixedMomentKey.BOUNDS` caps at 4."""
    if m % 2 == 1:
        return 0.0
    if m == 0:
        return params.tau(e)
    if m == 2:
        return float(fo.Lam5[e])
    return float(fo.Delta[e])


def mixed_moment(key: MixedMomentKey, params: ModelParams,
                 so: SecondOrderTables, fo: FourthOrderTables) -> float:
    """Closed form via the expansion X_t = theta_t X_{t-1} + eps_t.

    Expanding theta_t^j = sum_i C(j,i) (alpha eta_{t-1})^i (theta + eta_t)^(j-i)
    and factorizing by independence of (eps_t, eta_t) from the past:

       mu = sum_{j<=q} sum_{i<=j} C(q,j) C(j,i) alpha^i sigma_{c+q-j}
            * E[eta^b (theta+eta)^(j-i)] * E[eta^(a+i) X^(p+j)],

    with E[eta^b (theta+eta)^(j-i)] read from the moment table so.C.
    """
    a, b, c, p, q = key.as_tuple()
    al = params.alpha
    total = 0.0
    for j in range(q + 1):
        s = params.sigma(c + q - j)
        if s == 0.0:
            continue
        for i in range(j + 1):
            total += (comb(q, j) * comb(j, i) * al**i * s
                      * so.C[b, j - i]
                      * _eta_x_moment(a + i, p + j, params, fo))
    return float(total)


#: distinct mixed-moment keys appearing in the Upsilon matrix and the ell
#: scalar, plus the lag-0 sanity key (0,0,0,0,2) whose value is lambda_0
ORACLE_MU_KEYS = (
    MixedMomentKey(0, 0, 0, 0, 2),
    MixedMomentKey(0, 0, 0, 2, 2),
    MixedMomentKey(0, 1, 0, 2, 2),
    MixedMomentKey(1, 0, 0, 2, 2),
    MixedMomentKey(0, 0, 1, 1, 2),
    MixedMomentKey(0, 2, 0, 2, 2),
    MixedMomentKey(1, 1, 0, 2, 2),
    MixedMomentKey(0, 1, 1, 1, 2),
    MixedMomentKey(0, 3, 0, 2, 2),
    MixedMomentKey(1, 2, 0, 2, 2),
    MixedMomentKey(0, 2, 1, 1, 2),
)


# ---------------------------------------------------------------------------
# covariance of the estimator couple


def l_matrix(params: ModelParams) -> np.ndarray:
    th, al = params.theta, params.alpha
    t2, t4 = params.tau(2), params.tau(4)
    s2 = params.sigma(2)
    base = 1.0 - 2.0 * al * t2 + al * th**2
    lp1 = s2
    l1 = 2 * al**2 * th * t2 * s2
    lp2 = al * th * (t2 * base - al * (2 * t2**2 - 3 * t4))
    l2 = al * t4 + t2 * base
    l3 = 2 * al**3 * t2 * s2
    lp4 = 2 * al**3 * (th**2 * t2 - t2**2 + t4)
    l4 = 2 * al**2 * th * t2
    # row-5 scalar: alpha^3 tau2 (the quadratic variation of the increment
    # alpha^3 eta_{t-1}^2 X_{t-1}^2 eta_t against the lag-2 martingale)
    l5 = al**3 * t2
    l6 = al * t2 * s2 * (1 + al)
    return np.array([
        [lp1, l1, 0, 0, 0, 0],
        [lp2, al**2 * l2, th * l2, l2, al * l2, l2],
        [l3, 0, 0, 0, 0, 0],
        [lp4, al**2 * l4, th * l4, l4, al * l4, l4],
        [al * th * l5, al**2 * l5, th * l5, l5, al * l5, l5],
        [th * l6, al * l6, 0, 0, 0, 0],
    ])


def mixed_moment_table(params: ModelParams, so: SecondOrderTables,
                       fo: FourthOrderTables) -> dict:
    """The mixed moments Upsilon and ell take, keyed by exponent tuple."""
    return {k.as_tuple(): mixed_moment(k, params, so, fo)
            for k in ORACLE_MU_KEYS[1:]}


def upsilon_matrix(so: SecondOrderTables, fo: FourthOrderTables, mm: dict,
                   ts: float) -> np.ndarray:
    """mm is the mixed_moment_table and ts the limits(...).theta_star of
    the same parameters and tables."""
    l0, l1, _ = so.Lam
    d0, d1, d2, d3, _ = fo.Delta
    return np.array([
        [ts * l0, l0, 0, 0, 0, 0],
        [d0, d1, mm[0, 0, 0, 2, 2], mm[0, 1, 0, 2, 2], mm[1, 0, 0, 2, 2], mm[0, 0, 1, 1, 2]],
        [l1, 0, 0, 0, 0, 0],
        [d1, d2, mm[0, 1, 0, 2, 2], mm[0, 2, 0, 2, 2], mm[1, 1, 0, 2, 2], mm[0, 1, 1, 1, 2]],
        [d2, d3, mm[0, 2, 0, 2, 2], mm[0, 3, 0, 2, 2], mm[1, 2, 0, 2, 2], mm[0, 2, 1, 1, 2]],
        [l0, l1, 0, 0, 0, 0],
    ])


def ell_scalar(params: ModelParams, so: SecondOrderTables,
               fo: FourthOrderTables, mm: dict) -> float:
    """Quadratic-variation limit of the lag-2 scalar martingale (mm as for
    upsilon_matrix)."""
    th, al = params.theta, params.alpha
    t2, t4 = params.tau(2), params.tau(4)
    s2 = params.sigma(2)
    l0 = so.lambda0
    d0, d1, d2 = fo.Delta[0], fo.Delta[1], fo.Delta[2]
    m1 = s2 * (1 + t2 * (1 + al**2))
    m2 = th**2 * (1 + al**2) * t2 + (1 - al**2) * t2**2 + al**2 * t4
    m3 = 2 * al * th * (1 + al**2) * t2
    m4 = al**2 * (1 + al**2) * t2
    m5 = 2 * al * th * t2
    m6 = 2 * al**2 * t2
    return (m1 * l0 + m2 * d0 + m3 * d1 + m4 * d2
            + th * m5 * mm[0, 0, 0, 2, 2]
            + al * m5 * mm[1, 0, 0, 2, 2]
            + (1 + al) * m5 * mm[0, 1, 0, 2, 2]
            + m5 * mm[0, 0, 1, 1, 2]
            + m6 * mm[0, 2, 0, 2, 2]
            + al * m6 * mm[1, 1, 0, 2, 2]
            + m6 * mm[0, 1, 1, 1, 2])


@dataclass(frozen=True)
class CovarianceStack:
    """The `rcar variance` payload of one parameter set, assembled once."""

    limits: LimitSet
    kappa2: float
    omega2: float
    Sigma: np.ndarray
    Psi: np.ndarray
    psi: float
    psi0: float

    def to_dict(self) -> dict:
        return {
            **self.limits.to_dict(),
            "kappa2": self.kappa2,
            "omega2": self.omega2,
            "Sigma": self.Sigma.tolist(),
            "Psi": self.Psi.tolist(),
            "psi": self.psi,
            "psi0": self.psi0,
        }


def _sigma_blocks(params: ModelParams, so: SecondOrderTables,
                  fo: FourthOrderTables, theta_star: float) -> dict:
    """The martingale blocks K, Gamma, L, Upsilon, ell, SigmaML and A, and
    Sigma = A SigmaML A^T, the covariance of the two ratio estimators, keyed
    by name. Nothing here reaches the correction map."""
    k, gamma6, l = k_matrix(params), gamma6_matrix(so, fo), l_matrix(params)
    mm = mixed_moment_table(params, so, fo)
    upsilon = upsilon_matrix(so, fo, mm, theta_star)
    ell = ell_scalar(params, so, fo, mm)
    lu = (l * upsilon) @ OMEGA6

    sig_ml = np.zeros((7, 7))
    sig_ml[:6, :6] = k * gamma6
    sig_ml[:6, 6] = lu
    sig_ml[6, :6] = lu
    sig_ml[6, 6] = ell

    l0 = so.lambda0
    g1 = 1.0 - 2.0 * params.alpha * params.tau(2)
    a = np.zeros((2, 7))
    a[0, :6] = 1.0 / (l0 * g1)
    a[1, :6] = params.theta / (l0 * g1)
    a[1, 6] = 1.0 / l0
    return {"K": k, "Gamma": gamma6, "L": l, "Upsilon": upsilon, "ell": ell,
            "SigmaML": sig_ml, "A": a, "Sigma": a @ sig_ml @ a.T}


def omega_squared(params: ModelParams, so: SecondOrderTables,
                  fo: FourthOrderTables, theta_star: float | None = None) -> float:
    """Asymptotic variance of sqrt(n) (theta_hat_n - theta_star): the
    Sigma[0, 0] of sigma_psi, defined also where the correction map is not.
    theta_star, if given, is limits(params, so).theta_star, already known
    to the caller."""
    if theta_star is None:
        theta_star = limits(params, so).theta_star
    return float(_sigma_blocks(params, so, fo, theta_star)["Sigma"][0, 0])


def f_jacobian(x: float, y: float) -> np.ndarray:
    """Jacobian of the correction map (x, y) -> ((1-2y)x, y-x^2) / (1-2x^2)
    (rows differentiate its components)."""
    den = 1.0 - 2.0 * x * x
    if not abs(den) >= BOUNDARY_TOL:  # nan fails too
        raise PathologicalParamsError(
            f"f_jacobian: correction map undefined: first argument {x:.6g} "
            "is within 1e-9 of +/-1/sqrt(2)")
    return np.array([
        [(1.0 - 2.0 * y) * (1.0 + 2.0 * x * x) / den**2, -2.0 * x / den],
        [-2.0 * x * (1.0 - 2.0 * y) / den**2, 1.0 / den],
    ])


def sigma_psi(params: ModelParams, so: SecondOrderTables,
              fo: FourthOrderTables) -> CovarianceStack:
    """Assemble the complete covariance stack.

    Psi is the delta-method image of Sigma under the correction map,
    evaluated at (theta_star, vartheta_star). psi is the lower-right element
    of Psi and psi0 its closed-form value at alpha = 0 (same theta and noise
    moments); a vanishing psi0 denominator raises PathologicalParamsError.
    """
    lim = limits(params, so)
    sigma = _sigma_blocks(params, so, fo, lim.theta_star)["Sigma"]
    jac = f_jacobian(lim.theta_star, lim.vartheta_star)
    psi_mat = jac @ sigma @ jac.T
    psi0, _ = psi0_closed_form(params.theta, params.tau(2), params.tau(4),
                               params.sigma(2), params.sigma(4))
    if np.isnan(psi0):
        raise PathologicalParamsError(
            "psi0 denominator vanishes: theta near +/-1/sqrt(2) or fourth-moment "
            "condition on the boundary"
        )
    return CovarianceStack(
        limits=lim,
        kappa2=kappa_squared(params, so),
        omega2=float(sigma[0, 0]),
        Sigma=sigma,
        Psi=psi_mat,
        psi=float(psi_mat[1, 1]),
        psi0=psi0,
    )


def psi0_closed_form(theta, tau2, tau4, sigma2, sigma4):
    """Closed form of the null value psi0 and its numerator psi00.

    Requires theta^4 + 6 theta^2 tau2 + tau4 < 1 for psi0 to be meaningful.
    psi0 is nan where its denominator vanishes or is not finite; psi00
    stays well defined and exact. The arguments may be same-shape arrays,
    evaluated elementwise; scalars give floats.
    """
    th2 = theta**2
    th4 = th2**2
    th6 = th2 * th4
    psi00 = (tau2 + th2 - 1.0) * (
        sigma4 * tau2 * ((6 * th2 - 1) * tau2**2
                         + (8 * th4 - 9 * th2 + 1) * tau2
                         + 2 * th2 * (th2 - 1) ** 2)
        + sigma2**2 * tau2 * (-36 * tau2**2 * th2 + 6 * tau2**2
                              - 12 * tau2 * th4 + 12 * tau2 * th2
                              - 6 * th6 + 17 * th4 + 6 * tau4 * th2
                              - 12 * th2 - tau4 + 1)
        + sigma2**2 * (th6 - th4 + th2 * tau4 - th2 - tau4 + 1)
    )
    root = 1.0 - 2.0 * th2
    moment_factor = th4 + 6 * th2 * tau2 + tau4 - 1.0
    with np.errstate(all="ignore"):
        den = root**2 * sigma2**2 * moment_factor
        bad = ((np.abs(root) < BOUNDARY_TOL) | (np.abs(moment_factor) < BOUNDARY_TOL)
               | ~np.isfinite(den))
        psi0 = np.divide(psi00, den, out=np.full(np.shape(psi00), np.nan),
                         where=~bad)
    if psi0.ndim == 0:
        return float(psi0), float(psi00)
    return psi0, psi00
