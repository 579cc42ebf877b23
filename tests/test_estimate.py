import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_admissible
from rcar import estimate
from rcar.asymptotics import f_jacobian, kappa_squared, limits, omega_squared
from rcar.errors import DegenerateDataError, PathologicalParamsError
from rcar.estimate import correlation_test, f_map, theta_hat, vartheta_hat
from rcar.fourth_order import build_fourth_order
from rcar.model import ModelParams, NoiseFamily, NoiseSpec
from rcar.second_order import build_second_order
from rcar.simulate import Trajectory, simulate, simulate_block

G = NoiseFamily.GAUSSIAN
GAUSS1 = NoiseSpec(G, 1.0)


def traj_of(values):
    return Trajectory(x=np.asarray(values, dtype=float), n=len(values) - 1)


def block_of(values):
    """The series as a block of one row, as the batch kernels take it."""
    return np.asarray(values, dtype=float)[None, :]


def residuals(values, theta_used):
    """Residuals X_t - theta_used X_{t-1} of one series, as a block of one."""
    return estimate._residuals(block_of(values), np.array([theta_used]))


def gamma_zero_series(n=60):
    """Period-3 impulses: both lag products vanish, so gamma_tilde = 0."""
    x = np.zeros(n + 1)
    x[::3] = np.linspace(1.0, 2.0, len(x[::3]))
    return traj_of(x)


class TestBasicEstimators:
    def test_sample_mean_excludes_x0(self):
        block = np.array([[5, 1, 2, 3], [0, 0, 0, 0]], dtype=float)
        assert estimate.ratio_statistics(block)["xbar"].tolist() == [2.0, 0.0]

    def test_theta_hat_constant_series(self):
        assert theta_hat(traj_of([1, 1, 1, 1])) == 1.0

    def test_theta_hat_alternating(self):
        assert theta_hat(traj_of([1, 0, 1, 0])) == 0.0

    def test_degenerate_window(self):
        with pytest.raises(DegenerateDataError):
            theta_hat(traj_of([0, 0, 0, 1]))

    def test_vartheta_indexing(self):
        # lag-2 sums start at t = 2
        x = [1.0, 2.0, 3.0, 4.0]
        expected = (1 * 3 + 2 * 4) / (1 + 4)
        assert vartheta_hat(traj_of(x)) == pytest.approx(expected)

    @settings(max_examples=40, deadline=None)
    @given(st.floats(-100, 100).filter(lambda c: abs(c) > 1e-6),
           st.integers(0, 1000))
    def test_scale_equivariance(self, c, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=40)
        a, b = traj_of(x), traj_of(c * x)
        assert theta_hat(b) == pytest.approx(theta_hat(a), rel=1e-9)
        assert vartheta_hat(b) == pytest.approx(vartheta_hat(a), rel=1e-9)
        s_a = estimate._mean_square(residuals(x, 0.4))[0]
        s_b = estimate._mean_square(residuals(c * x, 0.4))[0]
        assert s_b == pytest.approx(c * c * s_a, rel=1e-9)

    def test_mean_clt_band(self):
        params = ModelParams(0.3, 0.5, GAUSS1, NoiseSpec(NoiseFamily.GAUSSIAN, 0.1))
        so = build_second_order(params)
        kappa2 = kappa_squared(params, so)
        traj = simulate(params, 100_000, seed=4)
        xbar = estimate.ratio_statistics(block_of(traj.x))["xbar"][0]
        assert abs(xbar) <= 4 * math.sqrt(kappa2 / traj.n)

    def test_theta_hat_converges_to_ratio_limit(self):
        # demonstrates the inconsistency: the limit is 1/3, not theta = 0.3
        params = ModelParams(0.3, 0.5, GAUSS1, NoiseSpec(NoiseFamily.GAUSSIAN, 0.1))
        so = build_second_order(params)
        fo = build_fourth_order(params, so)
        omega2 = omega_squared(params, so, fo)
        traj = simulate(params, 100_000, seed=8)
        assert abs(theta_hat(traj) - 1 / 3) <= 4 * math.sqrt(omega2 / traj.n)

    def test_ar1_consistency_rate(self):
        # |theta_hat - theta| < 4 sqrt((1-theta^2)/n) in >= 95% of replicates
        theta, n, reps = 0.5, 1000, 1000
        params = ModelParams(theta, 0.0, GAUSS1, None)
        block = simulate_block(params, n, master_seed=21, replicates=range(reps))
        num = np.einsum("ij,ij->i", block[:, :-1], block[:, 1:])
        den = np.einsum("ij,ij->i", block[:, :-1], block[:, :-1])
        hits = np.abs(num / den - theta) < 4 * math.sqrt((1 - theta**2) / n)
        assert hits.mean() >= 0.95


class TestCorrectionMap:
    def test_y_equals_x_squared(self):
        assert f_map(0.5, 0.25) == (0.5, 0.0)

    def test_x_zero(self):
        assert f_map(0.0, 0.3) == (0.0, 0.3)

    def test_inverts_limits(self):
        # f(theta_star, vartheta_star) = (theta, alpha tau2)
        params = ModelParams(0.3, 0.5, GAUSS1, NoiseSpec(NoiseFamily.GAUSSIAN, 0.1))
        lim = limits(params, build_second_order(params))
        out = f_map(lim.theta_star, lim.vartheta_star)
        assert out[0] == pytest.approx(0.3, rel=1e-12)
        assert out[1] == pytest.approx(0.05, rel=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(st.floats(-0.69, 0.69))
    def test_second_coordinate_annihilated(self, x):
        tilde_theta, tilde_gamma = f_map(x, x * x)
        assert tilde_gamma == 0.0
        assert tilde_theta == pytest.approx(x, rel=1e-9, abs=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_inverts_limits_on_admissible_draws(self, seed):
        p = random_admissible(np.random.default_rng(seed))
        lim = limits(p, build_second_order(p))
        tt, gg = f_map(lim.theta_star, lim.vartheta_star)
        assert tt == pytest.approx(p.theta, rel=0, abs=1e-10)
        assert gg == pytest.approx(p.alpha * p.tau(2), rel=0, abs=1e-10)

    def test_pathological(self):
        with pytest.raises(PathologicalParamsError):
            f_map(1 / math.sqrt(2), 0.2)

    def test_jacobian_against_finite_differences(self):
        x, y, h = 0.4, 0.3, 1e-6
        jac = f_jacobian(x, y)
        for i in range(2):
            fd_x = (np.array(f_map(x + h, y)) - np.array(f_map(x - h, y))) / (2 * h)
            fd_y = (np.array(f_map(x, y + h)) - np.array(f_map(x, y - h))) / (2 * h)
            assert jac[i, 0] == pytest.approx(fd_x[i], rel=1e-6)
            assert jac[i, 1] == pytest.approx(fd_y[i], rel=1e-6)


class TestResidualsAndVarianceEstimators:
    def test_perfect_fit(self):
        x = 2.0 * 0.5 ** np.arange(6)
        resid = residuals(x, 0.5)
        assert estimate._mean_square(resid)[0] == 0.0
        assert np.array_equal(resid[0], np.zeros(5))

    def test_residuals_are_series_when_theta_zero(self):
        # residuals for t = 1..n are the values themselves
        resid = residuals([1, 0, 1, 0], 0.0)
        assert np.array_equal(resid[0], [0.0, 1.0, 0.0])
        assert estimate._mean_square(resid)[0] == pytest.approx(1 / 3)

    def test_sigma2_hat_limit_uncorrelated(self):
        # converges to sigma2 (1 - theta^2) / (1 - theta^2 - tau2)
        params = ModelParams(0.3, 0.0, GAUSS1, NoiseSpec(NoiseFamily.GAUSSIAN, 0.2))
        traj = simulate(params, 200_000, seed=31)
        ref = (1 - 0.09) / (1 - 0.09 - 0.2)
        assert correlation_test(traj).sigma2_hat == pytest.approx(ref, rel=0.03)

    @staticmethod
    def nicholls_quinn(values, resid):
        resid = block_of(resid)
        return estimate._nicholls_quinn(block_of(values), resid,
                                        estimate._mean_square(resid))

    def test_constant_residuals(self):
        tau2_bar, sigma2_bar, ok = self.nicholls_quinn([1.0, 2.0, -1.0, 3.0],
                                                       np.full(3, 1.5))
        assert ok[0]
        assert tau2_bar[0] == 0.0
        assert sigma2_bar[0] == pytest.approx(1.5**2)

    def test_constant_regressor_rejected(self):
        _, _, ok = self.nicholls_quinn([1.0, 1.0, 1.0, 1.0], [0.1, 0.2, 0.3])
        assert not ok[0]

    def test_consistency_uncorrelated(self):
        # mean over replicates within 3 replicate standard errors of truth
        params = ModelParams(0.3, 0.0, GAUSS1, NoiseSpec(NoiseFamily.GAUSSIAN, 0.1))
        reps, n = 32, 100_000
        block = simulate_block(params, n, master_seed=77, replicates=range(reps))
        out = estimate.correlation_statistics(block, 0.05, "tilde", G, G)
        tau2s, sigma2s = out["tau2_bar"], out["sigma2_bar"]
        assert abs(tau2s.mean() - 0.1) <= 3 * tau2s.std(ddof=1) / math.sqrt(reps)
        assert abs(sigma2s.mean() - 1.0) <= 3 * sigma2s.std(ddof=1) / math.sqrt(reps)


class TestCorrelationTest:
    def test_gamma_zero_gives_unit_pvalue(self):
        report = correlation_test(gamma_zero_series())
        assert report.gamma_tilde == 0.0
        assert report.statistic == 0.0
        assert report.p_value == 1.0
        assert not report.reject

    def test_report_consistency(self, params_accept):
        traj = simulate(params_accept, 2000, seed=12)
        report = correlation_test(traj, level=0.05)
        tt, gg = f_map(report.theta_hat, report.vartheta_hat)
        assert (report.theta_tilde, report.gamma_tilde) == (tt, gg)
        assert report.statistic >= 0
        assert 0 <= report.p_value <= 1
        assert report.reject == (report.p_value < 0.05)
        assert report.theta_hat_source == "tilde"
        assert report.sigma4_bar == pytest.approx(3 * report.sigma2_bar**2)

    def test_source_switch(self, params_accept):
        traj = simulate(params_accept, 2000, seed=12)
        hat = correlation_test(traj, source="hat")
        tilde = correlation_test(traj, source="tilde")
        assert hat.theta_hat_source == "hat"
        assert hat.psi0_hat != tilde.psi0_hat

    def test_short_series_rejected(self):
        with pytest.raises(DegenerateDataError):
            correlation_test(traj_of(np.random.default_rng(0).normal(size=30)))

    def test_level_validation(self, params_accept):
        traj = simulate(params_accept, 200, seed=12)
        with pytest.raises(ValueError):
            correlation_test(traj, level=0.0)
        with pytest.raises(ValueError):
            correlation_test(traj, source="other")

    def test_family_plugin_changes_psi0(self, params_accept):
        traj = simulate(params_accept, 2000, seed=12)
        a = correlation_test(traj, eta_family=NoiseFamily.GAUSSIAN)
        b = correlation_test(traj, eta_family=NoiseFamily.RADEMACHER)
        assert a.psi0_hat != b.psi0_hat


#: error each reason code raises from the scalar API
REASON_ERRORS = {
    estimate.ZERO_WINDOW: DegenerateDataError,
    estimate.MAP_BOUNDARY: PathologicalParamsError,
    estimate.CONSTANT_SQUARES: DegenerateDataError,
    estimate.PSI0_DENOMINATOR: PathologicalParamsError,
    estimate.PSI0_NOT_POSITIVE: DegenerateDataError,
}


def assert_row_matches_scalar_path(out, i, row, **test_args):
    """Row i of a batch result equals the scalar API on that series: the
    same values bitwise when it is valid, the mapped error when not.
    test_args are the correlation_test arguments the batch was run with."""
    traj = traj_of(row)
    code = int(out["reason"][i])
    if code != estimate.OK:
        assert np.isnan(out["statistic"][i]) and not out["reject"][i]
        with pytest.raises(REASON_ERRORS[code]):
            correlation_test(traj, **test_args)
        return
    report = correlation_test(traj, **test_args).to_dict()
    for key, value in report.items():
        if key in out:
            assert out[key][i] == value, key
    assert theta_hat(traj) == out["theta_hat"][i]
    assert vartheta_hat(traj) == out["vartheta_hat"][i]
    assert f_map(theta_hat(traj), vartheta_hat(traj)) \
        == (out["theta_tilde"][i], out["gamma_tilde"][i])


class TestBatchKernel:
    N = 60

    def block_with_every_reason(self, params_accept, source):
        """Rows: the first valid row of a seeded block, all zero, geometric
        x_t = 2^(-t/2) (first ratio at 1/sqrt(2)), alternating +/-1
        (constant squares), and sin(1.3 t) with every odd term scaled by
        1.5, whose psi0_hat is negative under either source (-10.1 tilde,
        -0.35 hat) while its ratio stage is valid; no row but the first
        depends on a random stream."""
        found = simulate_block(params_accept, self.N, master_seed=2,
                               replicates=range(256))
        reason = estimate.correlation_statistics(found, 0.05, source, G, G)[
            "reason"]
        t = np.arange(self.N + 1.0)
        return np.vstack([
            found[np.flatnonzero(reason == estimate.OK)[0]],
            np.zeros(self.N + 1),
            2.0 ** (-t / 2),
            (-1.0) ** t,
            np.sin(1.3 * t) * (1 + 0.5 * (t % 2)),
        ])

    @pytest.mark.parametrize("source", ["tilde", "hat"])
    def test_reasons_and_scalar_agreement(self, params_accept, source):
        block = self.block_with_every_reason(params_accept, source)
        out = estimate.correlation_statistics(block, 0.05, source, G, G)
        assert out["reason"].tolist() == [
            estimate.OK, estimate.ZERO_WINDOW, estimate.MAP_BOUNDARY,
            estimate.CONSTANT_SQUARES, estimate.PSI0_NOT_POSITIVE]
        for i, row in enumerate(block):
            assert_row_matches_scalar_path(out, i, row, source=source)

    def test_statistic_scale(self, params_accept):
        # the statistic is n gamma_tilde^2 / psi0_hat, with n the number of
        # steps (one less than the columns), from the fields of one report
        block = simulate_block(params_accept, self.N, master_seed=3,
                               replicates=range(16))
        out = estimate.correlation_statistics(block, 0.05, "tilde", G, G)
        ok = out["reason"] == estimate.OK
        assert ok.sum() >= 8
        want = self.N * out["gamma_tilde"][ok]**2 / out["psi0_hat"][ok]
        np.testing.assert_array_equal(out["statistic"][ok], want)

    def test_ratio_stage_is_the_test_stage_prefix(self, params_accept):
        block = self.block_with_every_reason(params_accept, "tilde")
        ratios = estimate.ratio_statistics(block)
        tests = estimate.correlation_statistics(block, 0.05, "tilde", G, G)
        for key, value in ratios.items():
            if key != "reason":
                np.testing.assert_array_equal(value, tests[key])
        # the ratio stage sees only its own reasons
        assert ratios["reason"].tolist() == [0, 1, 2, 0, 0]

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from(["tilde", "hat"]))
    def test_batch_equals_scalar_on_admissible_draws(self, seed, source):
        p = random_admissible(np.random.default_rng(seed))
        block = simulate_block(p, 80, master_seed=seed, replicates=range(4),
                               burn_in=200)
        args = {"level": 0.05, "source": source,
                "eps_family": p.eps.family, "eta_family": p.eta.family}
        out = estimate.correlation_statistics(block, **args)
        for i, row in enumerate(block):
            assert_row_matches_scalar_path(out, i, row, **args)
