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


def companion_power_radii(coeffs: np.ndarray, iters: int = 6000):
    """Dominant root moduli of a stack of monic polynomials of one degree
    (row i is [1, c1, ..., cn]) by power iteration on their companion
    matrices, all at once; returns the arrays (radii, converged)."""
    m, n = coeffs.shape[0], coeffs.shape[1] - 1
    comp = np.zeros((m, n, n), dtype=complex)
    comp[:, 0, :] = -coeffs[:, 1:]
    comp[:, 1:, :-1] = np.eye(n - 1)
    rng = np.random.default_rng(1234)
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    v = np.tile(v / np.linalg.norm(v), (m, 1))[..., None]
    log_growth = np.empty((m, iters))
    for k in range(iters):
        v = comp @ v
        norm = np.linalg.norm(v, axis=(1, 2))
        log_growth[:, k] = np.log(norm)
        v /= norm[:, None, None]
    full = log_growth[:, iters // 2:].mean(axis=1)
    half = log_growth[:, iters // 4: iters // 2].mean(axis=1)
    return np.exp(full), np.abs(full - half) < 1e-10


def likely_converges(a: np.ndarray) -> bool:
    """A guess at the power iteration's verdict on a: its dominant
    eigenvalue is real and clear of the next modulus."""
    eig = np.linalg.eigvals(a)
    top, second = np.argsort(-np.abs(eig))[:2]
    return bool(eig[top].imag == 0 and abs(eig[second]) < 0.98 * abs(eig[top]))


def converged_draws(count: int) -> list[tuple[np.ndarray, float]]:
    """(matrix, oracle radius) of the first `count` draws of
    default_rng(7) on which the power iteration converges. A draw is n x n
    normal, n = 3 after an even number of such draws, else 5; the others
    (near-tied dominant moduli, where the oracle itself is unreliable) are
    skipped.

    The oracle runs on a stack of draws per size. Which draw comes next
    depends on its verdicts, so each round draws ahead on the guess of
    `likely_converges` and, at the first draw where the oracle disagrees,
    winds the generator back to just after that draw. The guess only orders
    the work: every verdict and radius is the oracle's."""
    rng = np.random.default_rng(7)
    found = []
    while len(found) < count:
        draws, guessed = [], len(found)  # (generator state before, matrix)
        while guessed < count:
            n = 3 if guessed % 2 == 0 else 5
            draws.append((rng.bit_generator.state, rng.normal(size=(n, n))))
            guessed += likely_converges(draws[-1][1])
        verdicts = {}
        for n in (3, 5):
            idx = [i for i, (_, a) in enumerate(draws) if len(a) == n]
            if idx:
                coeffs = np.array([faddeev_leverrier(draws[i][1]) for i in idx])
                verdicts.update(zip(idx, zip(*companion_power_radii(coeffs))))
        for i, (_, a) in enumerate(draws):
            radius, converged = verdicts[i]
            if converged:
                found.append((a, radius))
            if converged != likely_converges(a):
                if i + 1 < len(draws):
                    rng.bit_generator.state = draws[i + 1][0]
                break
    return found


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
        checked = converged_draws(100)
        assert len(checked) == 100
        for a, radius in checked:
            assert spectral_radius(a) == pytest.approx(radius, abs=1e-9)

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
