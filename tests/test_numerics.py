import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rcar.errors import NumericError
from rcar.model import ModelParams, NoiseFamily, NoiseSpec
from rcar.numerics import MAX_DIM, chisq1_tail, solve, spectral_radius
from rcar.second_order import build_second_order, m_matrix


def faddeev_leverrier(a: np.ndarray) -> np.ndarray:
    """Characteristic polynomial coefficients [1, c1, ..., cn]."""
    n = a.shape[0]
    coeffs = [1.0]
    mk = np.array(a)
    for k in range(1, n + 1):
        ck = -np.trace(mk) / k
        coeffs.append(ck)
        if k < n:
            mk = a @ (mk + ck * np.eye(n))
    return np.array(coeffs)


def companion_power_radius(coeffs: np.ndarray, iters: int = 6000):
    """Dominant root modulus of a monic polynomial by power iteration on its
    companion matrix; returns (radius, converged)."""
    n = len(coeffs) - 1
    comp = np.zeros((n, n), dtype=complex)
    comp[0, :] = -coeffs[1:]
    comp[1:, :-1] = np.eye(n - 1)
    rng = np.random.default_rng(1234)
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    v /= np.linalg.norm(v)
    log_growth = []
    for _ in range(iters):
        v = comp @ v
        norm = np.linalg.norm(v)
        log_growth.append(math.log(norm))
        v /= norm
    full = np.mean(log_growth[iters // 2:])
    half = np.mean(log_growth[iters // 4: iters // 2])
    return math.exp(full), abs(full - half) < 1e-10


def last_entry(value, stack=None):
    """A zero 3 x 3 matrix, or a stack of `stack` of them, ending in value."""
    m = np.zeros((3, 3) if stack is None else (stack, 3, 3))
    m.flat[-1] = value
    return m


class TestSolve:
    def test_identity(self):
        assert np.allclose(solve(np.eye(3), [1, 2, 3]), [1, 2, 3])

    def test_diagonal(self):
        assert np.allclose(solve(np.diag([2.0, 4.0]), [2, 2]), [1.0, 0.5])

    def test_stationarity_solve(self):
        # first component of (I - M)^(-1) U0 is 1/(1 - theta^2 - tau2) for
        # uncorrelated coefficients
        params = ModelParams(0.3, 0.0, NoiseSpec(NoiseFamily.GAUSSIAN, 1.0),
                             NoiseSpec(NoiseFamily.GAUSSIAN, 0.2))
        x = solve(np.eye(3) - m_matrix(params), [1.0, 0.0, 0.2])
        assert x[0] == pytest.approx(1.0 / 0.71, abs=1e-12)

    def test_singular_names_context(self):
        with pytest.raises(NumericError, match="my system"):
            solve(np.zeros((2, 2)), [1.0, 1.0], context="my system")

    def test_dimension_cap(self):
        with pytest.raises(NumericError):
            solve(np.eye(9), np.ones(9))

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 10_000))
    def test_solve_multiply_roundtrip(self, draw):
        rng = np.random.default_rng(draw)
        n = rng.integers(2, 7)
        a = rng.normal(size=(n, n))
        if np.linalg.cond(a) >= 1e6:
            return
        b = rng.normal(size=n)
        x = solve(a, b)
        assert np.max(np.abs(a @ x - b)) <= 1e-8


class TestSpectralRadius:
    def test_identity(self):
        assert spectral_radius(np.eye(3)) == pytest.approx(1.0)

    def test_diagonal(self):
        assert spectral_radius(np.diag([0.5, -0.2, 0.1])) == pytest.approx(0.5)

    def test_m_matrix_uncorrelated(self):
        # eigenvalues of M collapse to {theta^2 + tau2, 0, 0}
        params = ModelParams(0.3, 0.0, NoiseSpec(NoiseFamily.GAUSSIAN, 1.0),
                             NoiseSpec(NoiseFamily.GAUSSIAN, 0.2))
        assert spectral_radius(m_matrix(params)) == pytest.approx(0.29, abs=1e-9)

    def test_against_companion_power_iteration(self):
        rng = np.random.default_rng(7)
        checked = 0
        while checked < 100:
            n = 3 if checked % 2 == 0 else 5
            a = rng.normal(size=(n, n))
            radius, converged = companion_power_radius(faddeev_leverrier(a))
            if not converged:
                continue  # near-tied dominant moduli: oracle itself unreliable
            assert spectral_radius(a) == pytest.approx(radius, abs=1e-9)
            checked += 1

    @pytest.mark.parametrize("n", [3, 5])
    def test_stack_equals_single_calls(self, n):
        stack = np.random.default_rng(n).normal(size=(24, n, n))
        got = spectral_radius(stack)
        assert got.tolist() == [spectral_radius(m) for m in stack]
        assert np.array_equal(spectral_radius(stack.reshape(4, 6, n, n)),
                              got.reshape(4, 6))

    @pytest.mark.parametrize("bad", [
        np.float64(0.5), np.ones(3),
        np.ones((3, 4)), np.ones((2, 3, 4)),
        np.eye(MAX_DIM + 1), np.ones((2, MAX_DIM + 1, MAX_DIM + 1)),
        last_entry(np.nan), last_entry(np.inf, 4), last_entry(-np.inf, 2),
    ], ids=["ndim0", "ndim1", "nonsquare", "nonsquare_stack", "side",
            "side_stack", "nan", "inf_stack", "neg_inf_stack"])
    def test_bad_input_raises(self, bad):
        with pytest.raises(NumericError):
            spectral_radius(bad)


class TestChisq1Tail:
    def test_at_zero(self):
        assert chisq1_tail(0.0) == 1.0

    def test_95_quantile(self):
        assert chisq1_tail(3.841458820694124) == pytest.approx(0.05, abs=1e-6)

    def test_at_one(self):
        assert chisq1_tail(1.0) == pytest.approx(0.3173, abs=1e-4)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            chisq1_tail(-0.1)

    def test_monotone_decreasing(self):
        grid = np.linspace(0, 10, 200)
        vals = [chisq1_tail(s) for s in grid]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("s", [0.5, 1.0, 2.0, 4.0])
    def test_complement_against_quadrature(self, s):
        # P(chi2_1 <= s) = P(|Z| <= sqrt(s)), integrate the normal density
        z = np.linspace(0.0, math.sqrt(s), 2_000_001)
        cdf = 2.0 * np.trapezoid(np.exp(-z * z / 2) / math.sqrt(2 * math.pi), z)
        assert chisq1_tail(s) + cdf == pytest.approx(1.0, abs=1e-9)
