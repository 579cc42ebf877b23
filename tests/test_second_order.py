import math

import numpy as np
import pytest

from rcar.errors import HypothesisError
from rcar.model import ModelParams, NoiseFamily, NoiseSpec
from rcar.second_order import (Acvf, acvf, autocovariance, build_second_order,
                               m_matrix, eta_cross_moment)
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
        assert np.array_equal(so.U1, [0.0, t2, 0.0])
        assert np.array_equal(so.U2, [t2, 0.0, t4])

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
        assert autocovariance(so, 0) == so.lambda0

    def test_classical_ar1_lag2(self):
        p = ModelParams(0.5, 0.0, GAUSS1, None)
        so = build_second_order(p)
        assert autocovariance(so, 2) == pytest.approx(
            0.25 / (1 - 0.25), rel=1e-12)

    def test_ratio_matches_limit(self, params_accept):
        # gamma(1)/gamma(0) = theta/(1 - 2 alpha tau2) = 1/3 here
        so = build_second_order(params_accept)
        ratio = autocovariance(so, 1) / autocovariance(so, 0)
        assert ratio == pytest.approx(1.0 / 3.0, rel=1e-12)

    def test_even_and_dominated(self, rng):
        for _ in range(10):
            p = random_admissible(rng)
            so = build_second_order(p)
            g0 = autocovariance(so, 0)
            for h in range(-5, 6):
                gh = autocovariance(so, h)
                assert gh == autocovariance(so, -h)
                assert abs(gh) <= g0 + 1e-12

    def test_acvf_summary(self, params_accept):
        so = build_second_order(params_accept)
        summary = acvf(so, hmax=4)
        assert isinstance(summary, Acvf)
        assert len(summary.values) == 5
        assert summary.theta_star == pytest.approx(1 / 3, rel=1e-12)

    def test_one_iteration_serves_every_lag(self, rng):
        # acvf and autocovariance read one iteration v <- N v from Lambda;
        # each lag matches the explicit power N^h Lambda to round-off
        for _ in range(5):
            so = build_second_order(random_admissible(rng))
            values = acvf(so, hmax=60).values
            assert [autocovariance(so, h) for h in range(61)] == values.tolist()
            for h in (0, 1, 2, 7, 60):
                direct = (np.linalg.matrix_power(so.N, h) @ so.Lam)[0]
                assert values[h] == pytest.approx(direct, rel=1e-13,
                                                  abs=1e-15 * values[0])

    def test_lag_cap(self, params_accept):
        so = build_second_order(params_accept)
        with pytest.raises(ValueError):
            autocovariance(so, 1001)

    def test_toeplitz_psd(self, rng):
        # any valid autocovariance sequence has psd Toeplitz matrices
        for _ in range(10):
            p = random_admissible(rng)
            so = build_second_order(p)
            g = [autocovariance(so, h) for h in range(7)]
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
    def test_corners(self, params_accept):
        t2 = params_accept.tau(2)
        assert eta_cross_moment(0, 0, params_accept) == 1.0
        assert eta_cross_moment(1, 1, params_accept) == pytest.approx(t2)

    def test_high_order_cell(self, params_accept):
        th = params_accept.theta
        t2, t4, t6 = (params_accept.tau(k) for k in (2, 4, 6))
        assert eta_cross_moment(2, 4, params_accept) == pytest.approx(
            th**4 * t2 + 6 * th**2 * t4 + t6, rel=1e-12)

    def test_all_cells_against_quadrature(self):
        p = ModelParams(0.4, 0.2, GAUSS1, NoiseSpec(NoiseFamily.GAUSSIAN, 0.3))
        sd = math.sqrt(0.3)
        x = np.linspace(-14 * sd, 14 * sd, 2_000_001)
        pdf = np.exp(-x * x / 0.6) / math.sqrt(0.6 * math.pi)
        for a in range(5):
            for b in range(5):
                quad = np.trapezoid(x**a * (0.4 + x) ** b * pdf, x)
                assert eta_cross_moment(a, b, p) == pytest.approx(
                    quad, rel=1e-6, abs=1e-9), f"cell ({a},{b})"

    def test_table_cells_equal_the_term_by_term_sum(self, rng):
        # the table sums in k order, so each cell is bitwise the written-out
        # binomial expansion, the reference the moment matrices were built on
        for _ in range(20):
            p = random_admissible(rng)
            for a in range(5):
                for b in range(5):
                    ref = sum(math.comb(b, j) * p.theta ** (b - j) * p.tau(a + j)
                              for j in range(b + 1))
                    assert eta_cross_moment(a, b, p) == ref, (a, b, p)

    def test_range_check(self, params_accept):
        with pytest.raises(ValueError):
            eta_cross_moment(5, 0, params_accept)


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
