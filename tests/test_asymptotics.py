import math

import numpy as np
import pytest

from rcar import asymptotics
from rcar.asymptotics import (MixedMomentKey, ORACLE_MU_KEYS, gammabar_matrix,
                              kappa_squared, kbar_matrix, k_matrix, limits,
                              mixed_moment, omega_squared, psi0_closed_form,
                              sigma_psi)
from rcar.errors import PathologicalParamsError
from rcar.fourth_order import build_fourth_order
from rcar.harness import mixed_moment_oracle
from rcar.model import ModelParams, NoiseFamily, NoiseSpec
from rcar.second_order import acvf, build_second_order

from conftest import random_admissible

GAUSS1 = NoiseSpec(NoiseFamily.GAUSSIAN, 1.0)


def gaussian_params(theta, alpha, t2, s2=1.0):
    return ModelParams(theta, alpha, NoiseSpec(NoiseFamily.GAUSSIAN, s2),
                       NoiseSpec(NoiseFamily.GAUSSIAN, t2))


class RawMomentParams:
    """Duck-typed parameter object built directly from moments, for checking
    that the pipeline depends on the noises only through their moments."""

    def __init__(self, theta, alpha, sigmas, taus):
        self.theta = theta
        self.alpha = alpha
        self._sigmas = sigmas
        self._taus = taus
        self.eta = object()

    def sigma(self, k):
        return 1.0 if k == 0 else self._sigmas.get(k, 0.0)

    def tau(self, k):
        return 1.0 if k == 0 else self._taus.get(k, 0.0)


def build_stack(params):
    so = build_second_order(params)
    fo = build_fourth_order(params, so)
    return so, fo, sigma_psi(params, so, fo)


ALPHA0_GRID = [
    (0.3, 0.1, 1.0), (0.5, 0.2, 2.0), (-0.4, 0.15, 0.5), (0.0, 0.3, 1.3),
    (0.2, 0.05, 0.8), (-0.6, 0.1, 1.7), (0.45, 0.25, 1.1), (-0.15, 0.35, 0.6),
    (0.55, 0.12, 3.0), (0.05, 0.22, 0.25), (-0.3, 0.28, 1.9), (0.62, 0.08, 1.0),
    (0.1, 0.4, 0.9), (-0.52, 0.18, 1.4), (0.38, 0.3, 0.7), (-0.05, 0.16, 2.2),
    (0.48, 0.05, 0.5), (-0.68, 0.04, 1.2), (0.25, 0.33, 1.6), (-0.22, 0.09, 0.35),
]


class TestLimits:
    def test_uncorrelated_reduction(self):
        p = gaussian_params(0.4, 0.0, 0.1)
        so = build_second_order(p)
        lim = limits(p, so)
        assert lim.theta_star == 0.4
        assert lim.vartheta_star == pytest.approx(0.16, rel=1e-14)
        assert lim.gamma == 0.0

    def test_theta_star_value(self):
        # 2 alpha tau2 = 0.2
        p = gaussian_params(0.3, 1.0, 0.1)
        lim = limits(p, build_second_order(p))
        assert lim.theta_star == pytest.approx(0.375, rel=1e-14)

    def test_sigma2_star_uncorrelated(self):
        p = gaussian_params(0.3, 0.0, 0.2, s2=1.5)
        lim = limits(p, build_second_order(p))
        assert lim.sigma2_star == pytest.approx(
            1.5 * (1 - 0.09) / (1 - 0.09 - 0.2), rel=1e-12)

    def test_limits_are_autocorrelations(self, rng):
        for _ in range(10):
            p = random_admissible(rng)
            so = build_second_order(p)
            lim = limits(p, so)
            g0, g1, g2 = acvf(so, 2)
            assert lim.theta_star == pytest.approx(g1 / g0, rel=1e-10)
            assert lim.vartheta_star == pytest.approx(g2 / g0, rel=1e-10)
            assert lim.theta_star * (1 - 2 * p.alpha * p.tau(2)) == \
                pytest.approx(p.theta, rel=1e-12)
            assert lim.sigma2_star == pytest.approx(
                (1 - lim.theta_star**2) * so.lambda0, rel=1e-12)


class TestKappaSquared:
    def test_uncorrelated_closed_form(self):
        for theta, t2, s2 in ALPHA0_GRID:
            p = gaussian_params(theta, 0.0, t2, s2)
            k2 = kappa_squared(p, build_second_order(p))
            ref = s2 * (1 - theta**2) / ((1 - theta) ** 2 * (1 - theta**2 - t2))
            assert k2 == pytest.approx(ref, rel=1e-12)

    def test_classical_ar1(self):
        p = ModelParams(0.5, 0.0, NoiseSpec(NoiseFamily.GAUSSIAN, 2.0), None)
        assert kappa_squared(p, build_second_order(p)) == pytest.approx(
            2.0 / 0.25, rel=1e-12)

    def test_zero_theta(self):
        p = gaussian_params(0.0, 0.0, 0.3)
        assert kappa_squared(p, build_second_order(p)) == pytest.approx(
            1.0 / (1 - 0.3), rel=1e-12)

    def test_degenerate_denominator(self):
        so = build_second_order(gaussian_params(0.3, 0.0, 0.1))
        bad = RawMomentParams(0.95, 0.5, {2: 1.0, 4: 3.0},
                              {2: 0.1, 4: 0.03, 6: 0.015 * 0.1, 8: 105e-4})
        # theta + alpha * tau2 = 0.95 + 0.05 = 1
        with pytest.raises(PathologicalParamsError):
            kappa_squared(bad, so)


def alpha0_moments_form(p, so, fo):
    """omega2 at alpha = 0 from the moments: sigma2/lambda0 + tau2 E X^4/lambda0^2."""
    return p.sigma(2) / so.lambda0 + p.tau(2) * fo.Delta[0] / so.lambda0**2


class TestOmegaSquared:
    def test_classical_ar1(self):
        for theta in (0.2, -0.5, 0.7):
            p = ModelParams(theta, 0.0, GAUSS1, None)
            so = build_second_order(p)
            fo = build_fourth_order(p, so)
            assert omega_squared(p, so, fo) == pytest.approx(
                1 - theta**2, rel=1e-12)

    def test_uncorrelated_three_forms_agree(self):
        for theta, t2, s2 in ALPHA0_GRID:
            p = gaussian_params(theta, 0.0, t2, s2)
            so = build_second_order(p)
            fo = build_fourth_order(p, so)
            w = omega_squared(p, so, fo)
            s4, t4 = p.sigma(4), p.tau(4)
            moments_form = w == pytest.approx(
                alpha0_moments_form(p, so, fo), rel=1e-10)
            display_form = w == pytest.approx(
                (1 - theta**2 - t2)
                * (t2 * s4 * (theta**2 + t2 - 1)
                   + s2**2 * (theta**4 + t4 - 6 * t2**2 - 1))
                / (s2**2 * (theta**4 + t4 + 6 * theta**2 * t2 - 1)),
                rel=1e-10)
            assert moments_form and display_form

    def test_defined_where_correction_map_is_not(self):
        # the `rcar variance` exit-5 point: theta_star = 1/sqrt(2), where the
        # correction map and psi0 are undefined but omega2 is not
        p = gaussian_params(1 / math.sqrt(2), 0.0, 0.02)
        so = build_second_order(p)
        fo = build_fourth_order(p, so)
        w = omega_squared(p, so, fo)
        assert math.isfinite(w)
        assert w == pytest.approx(alpha0_moments_form(p, so, fo), rel=1e-10)
        with pytest.raises(PathologicalParamsError):
            sigma_psi(p, so, fo)

    def test_one_computation_bitwise(self):
        # omega2 is Sigma[0, 0] and kappa2 is kappa_squared, read from one
        # computation each, on every draw
        rng = np.random.default_rng(5)
        for _ in range(500):
            p = random_admissible(rng)
            so, fo, st = build_stack(p)
            assert omega_squared(p, so, fo) == st.omega2 == st.Sigma[0, 0], p
            assert kappa_squared(p, so) == st.kappa2, p


class TestMixedMoments:
    def test_lambda_identity(self, params_accept):
        so = build_second_order(params_accept)
        fo = build_fourth_order(params_accept, so)
        for b in range(3):
            key = MixedMomentKey(0, b, 0, 0, 2)
            assert mixed_moment(key, params_accept, so, fo) == pytest.approx(
                so.Lam[b], rel=1e-12)

    def test_delta_identity(self, params_accept):
        so = build_second_order(params_accept)
        fo = build_fourth_order(params_accept, so)
        key = MixedMomentKey(0, 2, 0, 0, 2)  # within Lam5
        assert mixed_moment(key, params_accept, so, fo) == pytest.approx(
            fo.Lam5[2], rel=1e-12)

    def test_hand_expansion(self, params_accept):
        # E[eps_t X_{t-1} X_t^2] = 2 sigma2 (theta lambda0 + alpha lambda1)
        so = build_second_order(params_accept)
        fo = build_fourth_order(params_accept, so)
        key = MixedMomentKey(0, 0, 1, 1, 2)
        ref = 2 * params_accept.sigma(2) * (
            params_accept.theta * so.Lam[0] + params_accept.alpha * so.Lam[1])
        assert mixed_moment(key, params_accept, so, fo) == pytest.approx(
            ref, rel=1e-12)

    @pytest.mark.parametrize("key", [(0, 0, 1, 1, 2), (1, 2, 0, 2, 2),
                                     (0, 3, 0, 2, 2)])
    def test_against_simulation_oracle(self, key, params_accept):
        so = build_second_order(params_accept)
        fo = build_fourth_order(params_accept, so)
        target = mixed_moment(MixedMomentKey(*key), params_accept, so, fo)
        est, se = mixed_moment_oracle(key, params_accept, 1_000_000, seed=314)
        assert abs(est - target) <= 3 * se

    def test_key_validation(self):
        with pytest.raises(ValueError):
            MixedMomentKey(3, 0, 0, 0, 0)
        with pytest.raises(ValueError):
            MixedMomentKey(0, 4, 0, 0, 0)
        with pytest.raises(ValueError):
            MixedMomentKey(0, 0, 2, 0, 0)

    def test_oracle_key_list(self):
        assert len(ORACLE_MU_KEYS) == 11
        assert len(set(k.as_tuple() for k in ORACLE_MU_KEYS)) == 11


class TestCovarianceStack:
    def test_structure(self, rng):
        for _ in range(10):
            p = random_admissible(rng, max_rho=0.9)
            so, fo, st = build_stack(p)
            assert st.limits == limits(p, so)
            # the martingale blocks behind the stack's Sigma
            b = asymptotics._sigma_blocks(p, so, fo, st.limits.theta_star)
            assert np.array_equal(b["Sigma"], st.Sigma)
            for mat in (kbar_matrix(p), b["K"], gammabar_matrix(so), b["Gamma"],
                        b["SigmaML"], st.Sigma, st.Psi):
                assert np.allclose(mat, mat.T, atol=1e-12)
            assert np.linalg.eigvalsh(st.Sigma).min() >= -1e-9
            assert np.linalg.eigvalsh(st.Psi).min() >= -1e-9
            assert np.allclose(st.Sigma, b["A"] @ b["SigmaML"] @ b["A"].T,
                               atol=1e-12)
            # block layout of the martingale covariance
            assert np.allclose(b["SigmaML"][:6, :6], b["K"] * b["Gamma"], atol=0)
            assert np.allclose(b["SigmaML"][:6, 6],
                               (b["L"] * b["Upsilon"]) @ np.ones(6), atol=0)
            assert b["SigmaML"][6, 6] == b["ell"]
            assert st.omega2 == pytest.approx(st.Sigma[0, 0], rel=1e-12)
            assert st.kappa2 == pytest.approx(kappa_squared(p, so), rel=1e-12)
            assert st.psi == st.Psi[1, 1]

    def test_limits_computed_once(self, params_accept, monkeypatch):
        # theta* reaches Upsilon from sigma_psi's own limits call
        so = build_second_order(params_accept)
        fo = build_fourth_order(params_accept, so)
        calls = []

        def counted(*args):
            calls.append(args)
            return limits(*args)
        monkeypatch.setattr(asymptotics, "limits", counted)
        sigma_psi(params_accept, so, fo)
        assert len(calls) == 1

    def test_zero_patterns(self, params_accept):
        kb = kbar_matrix(params_accept)
        zeros_kb = [(0, 2), (1, 2), (2, 0), (2, 1)]
        for i in range(3):
            for j in range(3):
                if (i, j) in zeros_kb:
                    assert kb[i, j] == 0.0
                else:
                    assert kb[i, j] != 0.0
        k = k_matrix(params_accept)
        zero_cols = {0: (1, 3, 4, 5), 1: (0, 2), 2: (1, 3, 4, 5),
                     3: (0, 2), 4: (0, 2), 5: (0, 2)}
        for i in range(6):
            for j in range(6):
                if j in zero_cols[i]:
                    assert k[i, j] == 0.0, (i, j)
                else:
                    assert k[i, j] != 0.0, (i, j)

    def test_psi_stack_matches_closed_form_at_alpha0(self):
        for theta, t2, s2 in ALPHA0_GRID:
            p = gaussian_params(theta, 0.0, t2, s2)
            _, _, st = build_stack(p)
            assert st.psi == pytest.approx(st.psi0, rel=1e-8), (theta, t2, s2)
            assert st.psi0 > 0

    def test_small_tau2_limit_stays_finite(self):
        p = gaussian_params(0.3, 0.0, 1e-8)
        _, _, st = build_stack(p)
        assert math.isfinite(st.psi0)
        assert st.psi == pytest.approx(st.psi0, rel=1e-6)

    def test_moment_functionality(self):
        # swapping the noise spec for a raw-moment stand-in with identical
        # moments leaves every asymptotic quantity unchanged
        p = gaussian_params(0.25, 0.6, 0.08, s2=1.3)
        raw = RawMomentParams(
            0.25, 0.6,
            {2: p.sigma(2), 4: p.sigma(4)},
            {k: p.tau(k) for k in (2, 4, 6, 8)},
        )
        so_a, fo_a, st_a = build_stack(p)
        so_b, fo_b, st_b = build_stack(raw)
        assert st_a.kappa2 == st_b.kappa2
        assert st_a.omega2 == st_b.omega2
        assert np.array_equal(st_a.Psi, st_b.Psi)
        ts = st_a.limits.theta_star
        assert st_b.limits.theta_star == ts
        assert (asymptotics._sigma_blocks(p, so_a, fo_a, ts)["ell"]
                == asymptotics._sigma_blocks(raw, so_b, fo_b, ts)["ell"])

    def test_eps_family_swap_preserves_sigma4_free_quantities(self):
        # kappa2 and the autocovariances involve eps only through sigma2
        eta = NoiseSpec(NoiseFamily.GAUSSIAN, 0.1)
        pa = ModelParams(0.3, 0.5, NoiseSpec(NoiseFamily.GAUSSIAN, 1.0), eta)
        pb = ModelParams(0.3, 0.5, NoiseSpec(NoiseFamily.UNIFORM, math.sqrt(3)), eta)
        assert pb.sigma(2) == pytest.approx(1.0, rel=1e-12)
        so_a, so_b = build_second_order(pa), build_second_order(pb)
        assert np.allclose(so_a.Lam, so_b.Lam, rtol=1e-12)
        assert kappa_squared(pa, so_a) == pytest.approx(
            kappa_squared(pb, so_b), rel=1e-12)

    def test_pathological_theta_star(self):
        # theta_star = theta at alpha=0; pick theta = 1/sqrt(2)
        p = gaussian_params(1 / math.sqrt(2), 0.0, 0.02)
        so = build_second_order(p)
        fo = build_fourth_order(p, so)
        with pytest.raises(PathologicalParamsError):
            sigma_psi(p, so, fo)

    def test_theta_star_at_the_boundary_trips_f_jacobian(self):
        # theta = 0.9/sqrt(2) puts theta* at 1/sqrt(2) to the last bit, while
        # theta itself is far from psi0's root, so the correction map's own
        # guard is the one that raises
        p = gaussian_params(0.9 / math.sqrt(2), 0.5, 0.1)
        so = build_second_order(p)
        assert asymptotics.limits(p, so).theta_star == 0.7071067811865475
        with pytest.raises(PathologicalParamsError, match="^f_jacobian"):
            sigma_psi(p, so, build_fourth_order(p, so))


class TestPsi0ClosedForm:
    def test_theta_zero_reduction_symbolic(self):
        import sympy as sp

        t2, t4, s2, s4 = sp.symbols("t2 t4 s2 s4", positive=True)
        th = sp.Integer(0)
        full = (t2 + th**2 - 1) * (
            s4 * t2 * ((6 * th**2 - 1) * t2**2
                       + (8 * th**4 - 9 * th**2 + 1) * t2
                       + 2 * th**2 * (th**2 - 1) ** 2)
            + s2**2 * t2 * (-36 * t2**2 * th**2 + 6 * t2**2 - 12 * t2 * th**4
                            + 12 * t2 * th**2 - 6 * th**6 + 17 * th**4
                            + 6 * t4 * th**2 - 12 * th**2 - t4 + 1)
            + s2**2 * (th**6 - th**4 + th**2 * t4 - th**2 - t4 + 1)
        )
        reduced = (t2 - 1) * (s4 * t2 * (-t2**2 + t2)
                              + s2**2 * t2 * (6 * t2**2 - t4 + 1)
                              + s2**2 * (1 - t4))
        assert sp.simplify(full - reduced) == 0

        # and the implementation agrees with the reduced form numerically
        vals = dict(t2=0.2, t4=0.12, s2=1.3, s4=5.07)
        _, psi00 = psi0_closed_form(0.0, vals["t2"], vals["t4"],
                                    vals["s2"], vals["s4"])
        assert psi00 == pytest.approx(float(reduced.subs(
            {t2: vals["t2"], t4: vals["t4"], s2: vals["s2"], s4: vals["s4"]})),
            rel=1e-12)

    def test_positive_on_admissible_grid(self):
        for theta, t2, s2 in ALPHA0_GRID:
            if abs(abs(theta) - 1 / math.sqrt(2)) < 1e-3:
                continue
            psi0, _ = psi0_closed_form(theta, t2, 3 * t2**2, s2, 3 * s2**2)
            assert psi0 > 0

    def test_pathological_root(self):
        # theta = 1/sqrt(2) with alpha != 0: theta_star is away from the
        # correction map's boundary, so the raise is psi0's
        p = gaussian_params(1 / math.sqrt(2), 0.5, 0.02)
        so = build_second_order(p)
        fo = build_fourth_order(p, so)
        with pytest.raises(PathologicalParamsError, match="psi0 denominator"):
            sigma_psi(p, so, fo)

    def test_vanishing_denominator_gives_nan(self):
        psi0, psi00 = psi0_closed_form(1 / math.sqrt(2), 0.1, 0.03, 1.0, 3.0)
        assert math.isnan(psi0) and math.isfinite(psi00)

    def test_overflowing_denominator_gives_nan(self):
        # theta^4 times sigma2^2 overflows; a RuntimeWarning would fail here
        psi0, _ = psi0_closed_form(1e30, 1e-18, 1e-36, 2e40, 2.4e81)
        assert math.isnan(psi0)

    def test_arrays_evaluate_elementwise(self):
        theta = np.array([0.2, 1 / math.sqrt(2), -0.4])
        psi0, psi00 = psi0_closed_form(theta, 0.1, 0.03, 1.0, 3.0)
        for i, th in enumerate(theta):
            ref0, ref00 = psi0_closed_form(float(th), 0.1, 0.03, 1.0, 3.0)
            assert type(ref0) is float and type(ref00) is float
            assert psi00[i] == ref00
            assert psi0[i] == ref0 or (math.isnan(psi0[i]) and math.isnan(ref0))
        assert math.isnan(psi0[1]) and np.isfinite(psi0[[0, 2]]).all()
