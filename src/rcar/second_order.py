"""Second-order moment machinery, and the moment table every recursion
matrix comes from.

With tau_k = E[eta^k], the Hankel matrix T[a, k] = tau_{a+k} (0 <= a, k <= 4)
carries the eta moments, and C = T B with B[k, b] = C(b, k) theta^(b-k)
holds C[a, b] = E[eta^a (theta + eta)^b]; `moment_tables` builds both once
per parameter set. `cross_moments` and `recursion_matrix` also take stacks
of theta and alpha; one parameter set is a stack of one. Expanding the
coefficient theta_t = theta + eta_t + alpha eta_{t-1} as

    theta_t^p = sum_j C(p, j) (alpha eta_{t-1})^j (theta + eta_t)^(p-j)

gives the recursion matrix of power p over the first r moments: column j
is C(p, j) alpha^j C[:r, p - j] for j <= p and zero beyond
(`recursion_matrix`). The second-order matrices are M = (p, r) = (2, 3)
and N = (1, 3); the fourth-order module takes G = (2, 5) and H = (4, 5).
The vector U0 is the first column of T, cut to three rows.

This module solves Lambda = (lambda_0, lambda_1, lambda_2) with
lambda_a = E[eta_t^a X_t^2] from (I3 - M) Lambda = sigma2 U0 and evaluates
the autocovariance

    gamma_X(h) = sigma2 [ N^|h| (I3 - M)^(-1) U0 ]_1 = [ N^|h| Lambda ]_1

by iterating v <- N v from v = Lambda. The limits theta* = rho_X(1) and
vartheta* = rho_X(2) have a closed form, `asymptotics.limits`.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from . import numerics
from .errors import ConfigurationError, HypothesisError
from .model import ModelParams

#: largest lag served by acvf(); beyond this the value is numerically zero
#: for any admissible parameter set
MAX_LAG = 1000

#: side of the moment tables: eta powers 0..4 (moments tau_0..tau_8)
TABLE_SIZE = 5

_K = np.arange(TABLE_SIZE)
#: C(b, k) at [k, b] (zero for k > b) and the matching power b - k of theta
_BINOM = np.array([[comb(b, k) for b in _K] for k in _K], dtype=float)
_THETA_POWER = np.maximum(_K - _K[:, None], 0)


def _powers(x, n: int) -> np.ndarray:
    """x^0 .. x^(n-1) for each entry of x, on a new last axis, by Python's
    float `**` (libm pow): numpy's `**` rounds ~3% of cubes differently."""
    x = np.asarray(x, dtype=float)
    return np.array([[v ** e for e in range(n)] for v in x.ravel().tolist()]
                    ).reshape(x.shape + (n,))


def moment_tables(params: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """T[a, k] = tau_{a+k} and C = T B, C[a, b] = E[eta^a (theta + eta)^b]."""
    tau = np.array([params.tau(k) for k in range(2 * TABLE_SIZE - 1)])
    t = tau[_K[:, None] + _K]
    return t, cross_moments(t, params.theta)


def cross_moments(t: np.ndarray, theta) -> np.ndarray:
    """C = T B for each theta of a stack: shape theta.shape + (5, 5)."""
    binom = _BINOM * _powers(theta, TABLE_SIZE)[..., _THETA_POWER]
    # T B summed term by term in k order (add.accumulate is sequential), as
    # the binomial expansion reads: a BLAS product may reorder or fuse the
    # sums, which moves H by an ulp and Delta, through the solve near
    # rho(H) = 1, by ~1e-14
    terms = t[:, :, None] * binom[..., None, :, :]
    return np.add.accumulate(terms, axis=-2)[..., -1, :]


def recursion_matrix(c: np.ndarray, alpha, power: int,
                     rows: int) -> np.ndarray:
    """The rows x rows matrix with column j = C(power, j) alpha^j
    c[:rows, power - j] for j <= power and zero columns beyond. A stack of
    tables c (..., 5, 5) and of alpha broadcast to a stack of matrices."""
    weights = _powers(alpha, power + 1) * _BINOM[:power + 1, power]
    cols = c[..., :rows, power::-1] * weights[..., None, :]
    out = np.zeros(cols.shape[:-1] + (rows,))
    out[..., :power + 1] = cols
    return out


def m_matrix(params: ModelParams) -> np.ndarray:
    """M, the second-order recursion matrix: (power, rows) = (2, 3)."""
    return recursion_matrix(moment_tables(params)[1], params.alpha, 2, 3)


def stationarity_radii(params: ModelParams) -> tuple[float, float]:
    """rho(M) and rho(H), the second- and fourth-order spectral radii,
    from one moment table."""
    return spectral_radii(moment_tables(params)[1], params.alpha)


def spectral_radii(c: np.ndarray, alpha):
    """rho(M) and rho(H) for tables c and alpha broadcast to a stack."""
    return (numerics.spectral_radius(recursion_matrix(c, alpha, 2, 3)),
            numerics.spectral_radius(recursion_matrix(c, alpha, 4, 5)))


@dataclass(frozen=True)
class SecondOrderTables:
    T: np.ndarray  # tau_{a+k}, 5 x 5
    C: np.ndarray  # E[eta^a (theta + eta)^b], 5 x 5
    M: np.ndarray
    N: np.ndarray
    Lam: np.ndarray
    rho_M: float

    # U0 = (1, 0, tau2), the first column of T
    U0 = property(lambda self: self.T[:3, 0])

    @property
    def lambda0(self) -> float:
        return float(self.Lam[0])

    def to_dict(self) -> dict:
        return {
            "M": self.M.tolist(),
            "N": self.N.tolist(),
            "Lambda": self.Lam.tolist(),
            "rho_M": self.rho_M,
        }


def build_second_order(params: ModelParams) -> SecondOrderTables:
    """Solve (I3 - M) Lambda = sigma2 U0 after checking rho(M) < 1."""
    t, c = moment_tables(params)
    m = recursion_matrix(c, params.alpha, 2, 3)
    rho = numerics.spectral_radius(m)
    if rho >= 1:
        raise HypothesisError(
            f"no second-order stationary solution (H3 violated): rho(M) = {rho:.6g}"
        )
    lam = numerics.solve(np.eye(3) - m, params.sigma(2) * t[:3, 0],
                         context="I3 - M")
    return SecondOrderTables(T=t, C=c, M=m,
                             N=recursion_matrix(c, params.alpha, 1, 3),
                             Lam=lam, rho_M=rho)


def acvf(tables: SecondOrderTables, hmax: int = 10) -> np.ndarray:
    """gamma_X(0..hmax) for 0 <= hmax <= MAX_LAG, from one iteration
    v <- N v started at Lambda."""
    if not 0 <= hmax <= MAX_LAG:
        raise ConfigurationError(f"hmax must be in [0, {MAX_LAG}], got {hmax}")
    out = np.empty(hmax + 1)
    v = tables.Lam
    out[0] = v[0]
    for h in range(1, hmax + 1):
        v = tables.N @ v
        out[h] = v[0]
    return out
