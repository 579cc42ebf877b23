"""Small dense linear-algebra kernel and the chi-square(1) tail function.

Matrices are plain numpy arrays of side at most MAX_DIM; the systems solved
elsewhere are 3 x 3 and 5 x 5. `spectral_radius` also takes a stack of
matrices (..., n, n), so a whole parameter grid is one call.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NumericError

MAX_DIM = 8

#: residual bound for solve(): ||Ax - b||_inf <= SOLVE_RTOL * (1 + ||b||_inf)
SOLVE_RTOL = 1e-10


def _square(a, name: str) -> np.ndarray:
    """`a` as finite float square matrices (..., n, n) with n <= MAX_DIM."""
    m = np.asarray(a, dtype=float)
    if m.ndim < 2:
        raise NumericError(f"{name}: expected a matrix, got ndim={m.ndim}")
    if m.shape[-1] != m.shape[-2]:
        raise NumericError(f"{name}: expected square matrices, got {m.shape}")
    if m.shape[-1] > MAX_DIM:
        raise NumericError(f"{name}: dimensions {m.shape} exceed {MAX_DIM}")
    if not np.all(np.isfinite(m)):
        raise NumericError(f"{name}: non-finite entries")
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


def spectral_radius(a):
    """Maximum modulus over all (possibly complex) eigenvalues of a: a float
    for one matrix, an array of the stack's shape for a stack (..., n, n)."""
    m = _square(a, "spectral_radius argument")
    try:
        eig = np.linalg.eigvals(m)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - eigvals on n<=8
        raise NumericError(f"eigenvalue iteration failed: {exc}") from exc
    rho = np.max(np.abs(eig), axis=-1)
    return float(rho) if m.ndim == 2 else rho


def chisq1_tail(s: float) -> float:
    """P(chi2_1 > s) = 2 (1 - Phi(sqrt(s))) = erfc(sqrt(s / 2))."""
    if s < 0:
        raise ValueError(f"chisq1_tail: negative statistic {s}")
    return math.erfc(math.sqrt(0.5 * s))
