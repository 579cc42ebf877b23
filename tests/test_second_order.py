import math

import numpy as np
import pytest

from rcar.errors import ConfigurationError, HypothesisError
from rcar.model import ModelParams, NoiseFamily, NoiseSpec
from rcar.second_order import (acvf, build_second_order, m_matrix,
                               moment_tables)
from rcar.simulate import simulate_with_noise

from conftest import batch_se, random_admissible

GAUSS1 = NoiseSpec(NoiseFamily.GAUSSIAN, 1.0)


def explicit_m(theta, alpha, t2, t4):
    return np.array([
        [theta**2 + t2, 2 * alpha * theta, alpha**2],
        [2 * theta * t2, 2 * alpha * t2, 0.0],
        [theta**2 * t2 + t4, 2 * alpha * theta * t2, alpha**2 * t2],
    ])


def explicit_n(theta, alpha, t2):
    return np.array([
        [theta, alpha, 0.0],
        [t2, 0.0, 0.0],
        [theta * t2, alpha * t2, 0.0],
    ])


class TestTables:
    def test_u_vectors(self, params_accept):
        so = build_second_order(params_accept)
        t2, t4 = params_accept.tau(2), params_accept.tau(4)
        assert np.array_equal(so.U0, [1.0, 0.0, t2])
        assert np.array_equal(so.T[:3, 1], [0.0, t2, 0.0])
        assert np.array_equal(so.T[:3, 2], [t2, 0.0, t4])

    def test_m_matches_explicit_display(self, rng):
        for _ in range(20):
            p = random_admissible(rng)
            m = m_matrix(p)
            assert np.allclose(
                m, explicit_m(p.theta, p.alpha, p.tau(2), p.tau(4)), atol=0)

    def test_n_matches_explicit_display(self, rng):
        for _ in range(20):
            p = random_admissible(rng)
            assert np.allclose(build_second_order(p).N,
                               explicit_n(p.theta, p.alpha, p.tau(2)), atol=0)

    def test_theta_zero_alpha_zero_m(self):
        p = ModelParams(0.0, 0.0, GAUSS1, NoiseSpec(NoiseFamily.GAUSSIAN, 0.25))
        t2, t4 = p.tau(2), p.tau(4)
        assert np.array_equal(
            m_matrix(p), [[t2, 0, 0], [0, 0, 0], [t4, 0, 0]])

    def test_solve_identity_on_random_draws(self, rng):
        for _ in range(100):
            p = random_admissible(rng)
            so = build_second_order(p)
            resid = (np.eye(3) - so.M) @ so.Lam - p.sigma(2) * so.U0
            assert np.max(np.abs(resid)) <= 1e-10

    def test_lambda0_uncorrelated_closed_form(self):
        p = ModelParams(0.3, 0.0, GAUSS1, NoiseSpec(NoiseFamily.GAUSSIAN, 0.2))
        so = build_second_order(p)
        assert so.lambda0 == pytest.approx(1.0 / (1 - 0.29), rel=1e-12)

    def test_lambda_classical_ar1(self):
        p = ModelParams(0.6, 0.0, NoiseSpec(NoiseFamily.GAUSSIAN, 2.0), None)
        so = build_second_order(p)
        assert so.lambda0 == pytest.approx(2.0 / (1 - 0.36), rel=1e-12)
        assert so.Lam[1] == pytest.approx(0.0, abs=1e-14)

    def test_nonstationary_rejected(self):
        p = ModelParams(1.2, 0.0, GAUSS1, NoiseSpec(NoiseFamily.GAUSSIAN, 0.1))
        with pytest.raises(HypothesisError, match="H3"):
            build_second_order(p)


class TestAutocovariance:
    def test_lag_zero_is_lambda0(self, params_accept):
        so = build_second_order(params_accept)
        assert acvf(so, 0)[0] == so.lambda0

    def test_classical_ar1_lag2(self):
        p = ModelParams(0.5, 0.0, GAUSS1, None)
        so = build_second_order(p)
        assert acvf(so, 2)[2] == pytest.approx(
            0.25 / (1 - 0.25), rel=1e-12)

    def test_ratio_matches_limit(self, params_accept):
        # gamma(1)/gamma(0) = theta/(1 - 2 alpha tau2) = 1/3 here
        so = build_second_order(params_accept)
        g0, g1 = acvf(so, 1)
        assert g1 / g0 == pytest.approx(1.0 / 3.0, rel=1e-12)

    def test_dominated_by_lag_zero(self, rng):
        for _ in range(10):
            p = random_admissible(rng)
            g = acvf(build_second_order(p), 5)
            assert np.all(np.abs(g) <= g[0] + 1e-12)

    def test_acvf_summary(self, params_accept):
        so = build_second_order(params_accept)
        values = acvf(so, hmax=4)
        assert isinstance(values, np.ndarray)
        assert len(values) == 5
        assert values[1] / values[0] == pytest.approx(1 / 3, rel=1e-12)

    def test_one_iteration_serves_every_lag(self, rng):
        # acvf reads one iteration v <- N v from Lambda, so a shorter range
        # is a prefix of a longer one; each lag matches the explicit power
        # N^h Lambda to round-off
        for _ in range(5):
            so = build_second_order(random_admissible(rng))
            values = acvf(so, hmax=60)
            assert [acvf(so, h)[h] for h in range(61)] == values.tolist()
            for h in (0, 1, 2, 7, 60):
                direct = (np.linalg.matrix_power(so.N, h) @ so.Lam)[0]
                assert values[h] == pytest.approx(direct, rel=1e-13,
                                                  abs=1e-15 * values[0])

    def test_lag_cap(self, params_accept):
        so = build_second_order(params_accept)
        assert len(acvf(so, 1000)) == 1001
        with pytest.raises(ConfigurationError):
            acvf(so, 1001)

    def test_toeplitz_psd(self, rng):
        # any valid autocovariance sequence has psd Toeplitz matrices
        for _ in range(10):
            p = random_admissible(rng)
            so = build_second_order(p)
            g = acvf(so, 6)
            toeplitz = np.array([[g[abs(i - j)] for j in range(7)]
                                 for i in range(7)])
            assert np.linalg.eigvalsh(toeplitz).min() >= -1e-10 * g[0]


class TestLemma1:
    def test_k1_h0_entries(self, params_accept):
        # U_{1,0} = M U0
        th, al = params_accept.theta, params_accept.alpha
        t2 = params_accept.tau(2)
        so = build_second_order(params_accept)
        u = so.M @ so.U0
        assert u[0] == pytest.approx((th**2 + t2) + al**2 * t2, rel=1e-12)
        assert u[1] == pytest.approx(2 * th * t2, rel=1e-12)


class TestEtaCrossMoment:
    """C[a, b] = E[eta^a (theta + eta)^b], the cells of the moment table."""

    def test_corners(self, params_accept):
        t2 = params_accept.tau(2)
        c = moment_tables(params_accept)[1]
        assert c[0, 0] == 1.0
        assert c[1, 1] == pytest.approx(t2)

    def test_high_order_cell(self, params_accept):
        th = params_accept.theta
        t2, t4, t6 = (params_accept.tau(k) for k in (2, 4, 6))
        assert moment_tables(params_accept)[1][2, 4] == pytest.approx(
            th**4 * t2 + 6 * th**2 * t4 + t6, rel=1e-12)

    def test_all_cells_against_quadrature(self):
        p = ModelParams(0.4, 0.2, GAUSS1, NoiseSpec(NoiseFamily.GAUSSIAN, 0.3))
        c = moment_tables(p)[1]
        sd = math.sqrt(0.3)
        x = np.linspace(-14 * sd, 14 * sd, 2_000_001)
        pdf = np.exp(-x * x / 0.6) / math.sqrt(0.6 * math.pi)
        for a in range(5):
            for b in range(5):
                quad = np.trapezoid(x**a * (0.4 + x) ** b * pdf, x)
                assert c[a, b] == pytest.approx(
                    quad, rel=1e-6, abs=1e-9), f"cell ({a},{b})"

    def test_table_cells_equal_the_term_by_term_sum(self, rng):
        # the table sums in k order, so each cell is bitwise the written-out
        # binomial expansion, the reference the moment matrices were built on
        for _ in range(20):
            p = random_admissible(rng)
            c = moment_tables(p)[1]
            for a in range(5):
                for b in range(5):
                    ref = sum(math.comb(b, j) * p.theta ** (b - j) * p.tau(a + j)
                              for j in range(b + 1))
                    assert c[a, b] == ref, (a, b, p)


class TestMonteCarloAgreement:
    def test_lambda_vs_simulation(self, rng):
        # empirical E[eta^a X^2] on a long path vs the solved moments
        for _ in range(5):
            p = random_admissible(rng, max_rho=0.9)
            so = build_second_order(p)
            traj, eta, _ = simulate_with_noise(p, 1_000_000,
                                               seed=int(rng.integers(2**63)))
            for a in range(3):
                values = eta**a * traj.x**2
                se = batch_se(values)
                assert abs(values.mean() - so.Lam[a]) <= 3 * se, \
                    f"a={a}, params={p}"
