"""Second-order moment machinery.

Builds the vectors U0, U1, U2, the 3x3 matrices M and N, the solved moment
vector Lambda = (lambda_0, lambda_1, lambda_2) with lambda_a = E[eta_t^a X_t^2],
and evaluates the autocovariance

    gamma_X(h) = sigma2 [ N^|h| (I3 - M)^(-1) U0 ]_1 = [ N^|h| Lambda ]_1.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from . import numerics
from .errors import HypothesisError
from .model import ModelParams

#: largest |h| served by autocovariance(); beyond this the value is
#: numerically zero for any admissible parameter set
MAX_LAG = 1000


def basis_vectors(params: ModelParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The vectors U0, U1, U2 carrying (1, eta, eta^2)-moments."""
    t2, t4 = params.tau(2), params.tau(4)
    u0 = np.array([1.0, 0.0, t2])
    u1 = np.array([0.0, t2, 0.0])
    u2 = np.array([t2, 0.0, t4])
    return u0, u1, u2


def m_matrix(params: ModelParams) -> np.ndarray:
    """Columns: M1 = theta^2 U0 + 2 theta U1 + U2, M2 = 2 alpha (theta U0 + U1),
    M3 = alpha^2 U0."""
    th, al = params.theta, params.alpha
    u0, u1, u2 = basis_vectors(params)
    return np.column_stack([
        th**2 * u0 + 2 * th * u1 + u2,
        2 * al * (th * u0 + u1),
        al**2 * u0,
    ])


def n_matrix(params: ModelParams) -> np.ndarray:
    """Columns: N1 = theta U0 + U1, N2 = alpha U0, N3 = 0."""
    th, al = params.theta, params.alpha
    u0, u1, _ = basis_vectors(params)
    return np.column_stack([th * u0 + u1, al * u0, np.zeros(3)])


@dataclass(frozen=True)
class SecondOrderTables:
    U0: np.ndarray
    U1: np.ndarray
    U2: np.ndarray
    M: np.ndarray
    N: np.ndarray
    Lam: np.ndarray
    rho_M: float
    sigma2: float

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
    m = m_matrix(params)
    rho = numerics.spectral_radius(m)
    if rho >= 1:
        raise HypothesisError(
            f"no second-order stationary solution (H3 violated): rho(M) = {rho:.6g}"
        )
    sigma2 = params.sigma(2)
    u0, u1, u2 = basis_vectors(params)
    lam = numerics.solve(np.eye(3) - m, sigma2 * u0, context="I3 - M")
    if lam[0] <= 1e-12:
        # 2 alpha tau2 = 1 slipped past validation: a deterministic process
        raise HypothesisError(
            f"degenerate second-order solution: gamma_X(0) = {lam[0]:.3e}"
        )
    return SecondOrderTables(U0=u0, U1=u1, U2=u2, M=m, N=n_matrix(params),
                             Lam=lam, rho_M=rho, sigma2=sigma2)


def autocovariance(tables: SecondOrderTables, h: int) -> float:
    """gamma_X(h), even in h, computed by the matrix formula."""
    k = abs(int(h))
    if k > MAX_LAG:
        raise ValueError(f"lag |h| = {k} exceeds the supported maximum {MAX_LAG}")
    return float((numerics.mat_power(tables.N, k) @ tables.Lam)[0])


@dataclass(frozen=True)
class Acvf:
    """Autocovariances over a lag range plus the two limiting correlations."""

    values: np.ndarray  # gamma_X(0..hmax)
    theta_star: float   # rho_X(1)
    vartheta_star: float  # rho_X(2)

    def to_dict(self) -> dict:
        return {
            "gamma": self.values.tolist(),
            "theta_star": self.theta_star,
            "vartheta_star": self.vartheta_star,
        }


def acvf(tables: SecondOrderTables, hmax: int = 10) -> Acvf:
    values = np.array([autocovariance(tables, h) for h in range(hmax + 1)])
    return Acvf(values=values,
                theta_star=values[1] / values[0],
                vartheta_star=values[2] / values[0])


def u_sequence(params: ModelParams, k: int, h: int) -> np.ndarray:
    """U_{k,h} = N^h M^k U0 (convention U_{0,0} = U0)."""
    if k < 0 or h < 0:
        raise ValueError("k and h must be >= 0")
    u0, _, _ = basis_vectors(params)
    mk = numerics.mat_power(m_matrix(params), k)
    nh = numerics.mat_power(n_matrix(params), h)
    return nh @ (mk @ u0)


def eta_cross_moment(a: int, b: int, params: ModelParams) -> float:
    """E[eta^a (theta + eta)^b] = sum_j C(b,j) theta^(b-j) tau_{a+j}."""
    if not (0 <= a <= 4 and 0 <= b <= 4):
        raise ValueError(f"eta_cross_moment indices out of range: a={a}, b={b}")
    return sum(
        comb(b, j) * params.theta ** (b - j) * params.tau(a + j)
        for j in range(b + 1)
    )
