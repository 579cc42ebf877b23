"""Small dense linear-algebra kernel and the chi-square(1) tail function.

Everything operates on plain numpy arrays of dimension at most MAX_DIM;
the sizes actually used elsewhere are 2, 3, 5, 6 and 7.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NumericError

MAX_DIM = 8

#: residual bound for solve(): ||Ax - b||_inf <= SOLVE_RTOL * (1 + ||b||_inf)
SOLVE_RTOL = 1e-10


def as_small_matrix(a, name: str = "matrix") -> np.ndarray:
    """Validate and return `a` as a 2-d float array with both dims <= MAX_DIM."""
    m = np.asarray(a, dtype=float)
    if m.ndim != 2:
        raise NumericError(f"{name}: expected a 2-d array, got ndim={m.ndim}")
    if m.shape[0] > MAX_DIM or m.shape[1] > MAX_DIM:
        raise NumericError(f"{name}: dimensions {m.shape} exceed {MAX_DIM}")
    if not np.all(np.isfinite(m)):
        raise NumericError(f"{name}: non-finite entries")
    return m


def _square(a, name: str) -> np.ndarray:
    m = as_small_matrix(a, name)
    if m.shape[0] != m.shape[1]:
        raise NumericError(f"{name}: expected square matrix, got {m.shape}")
    return m


def solve(a, b, context: str = "linear system") -> np.ndarray:
    """Solve A x = b for a small square A.

    Raises NumericError naming `context` if A is singular or the residual
    ||Ax - b||_inf exceeds SOLVE_RTOL * (1 + ||b||_inf).
    """
    m = _square(a, context)
    rhs = np.asarray(b, dtype=float)
    try:
        x = np.linalg.solve(m, rhs)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"singular matrix in solve of {context}: {exc}") from exc
    resid = np.max(np.abs(m @ x - rhs))
    if not resid <= SOLVE_RTOL * (1.0 + np.max(np.abs(rhs))):
        raise NumericError(
            f"ill-conditioned solve of {context}: residual {resid:.3e}"
        )
    return x


def spectral_radius(a) -> float:
    """Maximum modulus over all (possibly complex) eigenvalues of a."""
    m = _square(a, "spectral_radius argument")
    try:
        eig = np.linalg.eigvals(m)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - eigvals on n<=8
        raise NumericError(f"eigenvalue iteration failed: {exc}") from exc
    return float(np.max(np.abs(eig)))


def chisq1_tail(s: float) -> float:
    """P(chi2_1 > s) = 2 (1 - Phi(sqrt(s))) = erfc(sqrt(s / 2))."""
    if s < 0:
        raise ValueError(f"chisq1_tail: negative statistic {s}")
    return math.erfc(math.sqrt(0.5 * s))
