"""Fourth-order moment machinery.

Reads the moment tables of the second-order solve (see `second_order`):
H = recursion_matrix(C, alpha, 4, 5) and G = recursion_matrix(C, alpha, 2, 5),
and V0 is the first column of T. With the source vector
R = 6 lambda_0 G1 + 6 lambda_1 G2 + 6 lambda_2 G3 it solves

    (I5 - H) Delta  = sigma2 R + sigma4 V0     (Delta_a = E[eta_t^a X_t^4])
    (I5 - G) Lambda5 = sigma2 V0               (Lambda5_a = E[eta_t^a X_t^2])

G and M slice the same columns of C with the same weights, so the
upper-left 3x3 block of G is M and the first three entries of Lambda5
coincide with Lambda from the second-order solve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numerics
from .errors import HypothesisError
from .model import ModelParams
from .second_order import SecondOrderTables, moment_tables, recursion_matrix


def h_matrix(params: ModelParams) -> np.ndarray:
    """H, the fourth-order recursion matrix: (power, rows) = (4, 5)."""
    return recursion_matrix(moment_tables(params)[1], params.alpha, 4, 5)


@dataclass(frozen=True)
class FourthOrderTables:
    T: np.ndarray  # tau_{a+k}, 5 x 5, shared with the second-order tables
    H: np.ndarray
    G: np.ndarray
    R: np.ndarray
    Delta: np.ndarray
    Lam5: np.ndarray
    rho_H: float

    # V0 = (1, 0, tau2, 0, tau4), the first column of T
    V0 = property(lambda self: self.T[:, 0])

    @property
    def delta0(self) -> float:
        return float(self.Delta[0])

    def to_dict(self) -> dict:
        return {
            "H": self.H.tolist(),
            "G": self.G.tolist(),
            "Delta": self.Delta.tolist(),
            "Lambda5": self.Lam5.tolist(),
            "rho_H": self.rho_H,
        }


def build_fourth_order(params: ModelParams, so: SecondOrderTables) -> FourthOrderTables:
    h = recursion_matrix(so.C, params.alpha, 4, 5)
    rho = numerics.spectral_radius(h)
    if rho >= 1:
        raise HypothesisError(
            f"fourth moments do not exist (H4 violated): rho(H) = {rho:.6g}"
        )
    g = recursion_matrix(so.C, params.alpha, 2, 5)
    l0, l1, l2 = so.Lam
    r = 6 * l0 * g[:, 0] + 6 * l1 * g[:, 1] + 6 * l2 * g[:, 2]
    sigma2, sigma4 = params.sigma(2), params.sigma(4)
    v0 = so.T[:, 0]
    delta = numerics.solve(np.eye(5) - h, sigma2 * r + sigma4 * v0,
                           context="I5 - H")
    lam5 = numerics.solve(np.eye(5) - g, sigma2 * v0, context="I5 - G")
    return FourthOrderTables(T=so.T, H=h, G=g, R=r, Delta=delta, Lam5=lam5,
                             rho_H=rho)
