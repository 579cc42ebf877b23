import math
from collections import Counter

import numpy as np
import pytest

from rcar.errors import ConfigurationError, PathologicalParamsError
from rcar.model import (KURTOSIS_FACTOR, ModelParams, MomentSet, NoiseFamily,
                        NoiseSpec, check_hypotheses, load_run_file,
                        noise_moments, params_from_mapping, parse_noise)

GAUSS1 = NoiseSpec(NoiseFamily.GAUSSIAN, 1.0)


class TestNoiseMoments:
    def test_gaussian_variance_scale(self):
        m = noise_moments(NoiseSpec(NoiseFamily.GAUSSIAN, 0.1))
        assert m.m2 == pytest.approx(0.1)
        assert m.m4 == pytest.approx(0.03)

    def test_uniform_half_width(self):
        m = noise_moments(NoiseSpec(NoiseFamily.UNIFORM, 1.0))
        assert m.m2 == pytest.approx(1 / 3)
        assert m.m4 == pytest.approx(1 / 5)

    @pytest.mark.parametrize("family,scale", [
        (NoiseFamily.LAPLACE, 0.7), (NoiseFamily.UNIFORM, 1.3),
        (NoiseFamily.GAUSSIAN, 0.4),
    ])
    def test_moments_against_quadrature(self, family, scale):
        spec = NoiseSpec(family, scale)
        m = noise_moments(spec)
        if family is NoiseFamily.LAPLACE:
            x = np.linspace(-40 * scale, 40 * scale, 4_000_001)
            pdf = np.exp(-np.abs(x) / scale) / (2 * scale)
        elif family is NoiseFamily.UNIFORM:
            x = np.linspace(-scale, scale, 2_000_001)
            pdf = np.full_like(x, 1 / (2 * scale))
        else:
            sd = math.sqrt(scale)
            x = np.linspace(-12 * sd, 12 * sd, 4_000_001)
            pdf = np.exp(-x * x / (2 * scale)) / math.sqrt(2 * math.pi * scale)
        for order, value in ((2, m.m2), (4, m.m4), (6, m.m6), (8, m.m8)):
            quad = np.trapezoid(x**order * pdf, x)
            assert value == pytest.approx(quad, rel=1e-6), f"order {order}"

    def test_rademacher(self):
        m = noise_moments(NoiseSpec(NoiseFamily.RADEMACHER, 0.5))
        assert (m.m2, m.m4, m.m6, m.m8) == (0.25, 0.0625, 0.015625, 0.00390625)

    def test_zero_scale_rejected(self):
        with pytest.raises(ConfigurationError):
            NoiseSpec(NoiseFamily.GAUSSIAN, 0.0)

    def test_degenerate_moment_set_rejected(self):
        with pytest.raises(ConfigurationError):
            MomentSet(0.0, 0.0, 0.0, 0.0)

    def test_unknown_family_rejected(self):
        with pytest.raises(ConfigurationError):
            parse_noise("weibull:1.0")

    def test_odd_moments_vanish(self):
        params = ModelParams(0.1, 0.2, GAUSS1, NoiseSpec(NoiseFamily.LAPLACE, 0.3))
        assert all(params.tau(k) == 0.0 for k in (1, 3, 5, 7))
        assert all(params.sigma(k) == 0.0 for k in (1, 3))

    def test_kurtosis_factors_match_moments(self):
        for family in NoiseFamily:
            m = noise_moments(NoiseSpec(family, 0.8))
            assert m.m4 == pytest.approx(KURTOSIS_FACTOR[family] * m.m2**2)


class TestModelParams:
    def test_deterministic_process_excluded(self):
        # 2 * alpha * tau2 = 1
        with pytest.raises(PathologicalParamsError):
            ModelParams(0.3, 5.0, GAUSS1, NoiseSpec(NoiseFamily.GAUSSIAN, 0.1))

    def test_eta_none_is_classical_ar1(self):
        params = ModelParams(0.5, 0.0, GAUSS1, None)
        assert not params.random_coefficient
        assert params.tau(2) == 0.0
        assert params.tau(0) == 1.0

    def test_random_coefficient_has_positive_variance(self):
        params = ModelParams(0.5, 0.1, GAUSS1, NoiseSpec(NoiseFamily.UNIFORM, 0.4))
        assert params.random_coefficient
        assert params.tau(2) > 0

    def test_noise_moments_resolved_once_per_noise(self, monkeypatch):
        from rcar import asymptotics, model
        from rcar.fourth_order import build_fourth_order
        from rcar.second_order import build_second_order

        calls = []
        real = model.noise_moments
        monkeypatch.setattr(model, "noise_moments",
                            lambda spec: calls.append(spec) or real(spec))
        eta = NoiseSpec(NoiseFamily.UNIFORM, 0.4)
        params = ModelParams(0.3, 0.5, GAUSS1, eta)
        check_hypotheses(params, mc_draws=10_000)
        so = build_second_order(params)
        fo = build_fourth_order(params, so)
        asymptotics.sigma_psi(params, so, fo)
        assert Counter(calls) == {GAUSS1: 1, eta: 1}


class TestCheckHypotheses:
    def test_rho_m_uncorrelated(self):
        params = ModelParams(0.3, 0.0, GAUSS1, NoiseSpec(NoiseFamily.GAUSSIAN, 0.2))
        report = check_hypotheses(params, mc_draws=10_000)
        assert report.rho_M == pytest.approx(0.29, abs=1e-10)
        # tau4 = 3 * 0.2^2 = 0.12 for this noise
        assert report.rho_H == pytest.approx(0.3**4 + 6 * 0.09 * 0.2 + 0.12, abs=1e-10)
        assert report.h3 and report.h4 and report.h2 and report.h5

    def test_rho_m_zero_theta(self):
        params = ModelParams(0.0, 0.0, GAUSS1, NoiseSpec(NoiseFamily.GAUSSIAN, 0.35))
        report = check_hypotheses(params, mc_draws=10_000)
        assert report.rho_M == pytest.approx(0.35, abs=1e-10)

    @pytest.mark.parametrize("theta,alpha,scale", [
        (0.3, 0.0, 0.2), (-0.5, 0.0, 0.1), (0.0, 0.0, 0.4),
    ])
    def test_uncorrelated_reductions(self, theta, alpha, scale):
        params = ModelParams(theta, alpha, GAUSS1,
                             NoiseSpec(NoiseFamily.GAUSSIAN, scale))
        report = check_hypotheses(params, mc_draws=10_000)
        t2, t4 = params.tau(2), params.tau(4)
        assert report.rho_M == pytest.approx(theta**2 + t2, abs=1e-10)
        assert report.rho_H == pytest.approx(
            theta**4 + 6 * theta**2 * t2 + t4, abs=1e-10)

    def test_log_moment_standard_normal(self):
        # E[ln |N(0,1)|] = -(euler_gamma + ln 2)/2, cross-checked by quadrature
        target = -(np.euler_gamma + math.log(2)) / 2
        z = np.linspace(1e-12, 12, 8_000_001)
        quad = 2 * np.trapezoid(np.log(z) * np.exp(-z * z / 2)
                                / math.sqrt(2 * math.pi), z)
        assert quad == pytest.approx(target, abs=1e-4)

        params = ModelParams(0.0, 0.0, GAUSS1, NoiseSpec(NoiseFamily.GAUSSIAN, 1.0))
        report = check_hypotheses(params, mc_draws=200_000)
        assert abs(report.log_moment_estimate - target) < report.log_moment_half_width
        assert report.h1 and not report.h1_uncertain

    def test_log_moment_warns_near_boundary(self):
        # theta = 1 with tiny coefficient noise: E ln|theta_t| ~ 0
        params = ModelParams(1.0, 0.0, GAUSS1,
                             NoiseSpec(NoiseFamily.GAUSSIAN, 1e-6))
        report = check_hypotheses(params, mc_draws=10_000)
        assert report.h1_uncertain

    def test_eta_none_log_moment_exact(self):
        report = check_hypotheses(ModelParams(0.5, 0.0, GAUSS1, None),
                                  mc_draws=10_000)
        assert report.log_moment_estimate == pytest.approx(math.log(0.5))
        assert report.log_moment_half_width == 0.0

    def test_sqrt2_boundary_flag(self):
        theta = 1.0 / math.sqrt(2)
        params = ModelParams(theta, 0.0, GAUSS1,
                             NoiseSpec(NoiseFamily.GAUSSIAN, 0.05))
        report = check_hypotheses(params, mc_draws=10_000)
        assert report.excluded_degenerate.sqrt2_theta_boundary

    def test_mc_draws_floor(self):
        with pytest.raises(ConfigurationError):
            check_hypotheses(ModelParams(0.3, 0.0, GAUSS1, None), mc_draws=100)

    def test_determinism(self):
        params = ModelParams(0.2, 0.3, GAUSS1, NoiseSpec(NoiseFamily.GAUSSIAN, 0.1))
        a = check_hypotheses(params, mc_draws=10_000, seed=5)
        b = check_hypotheses(params, mc_draws=10_000, seed=5)
        assert a == b


class TestRunFile:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# comment\n"
            "theta = 0.3\n"
            "alpha = 0.5\n"
            "eps.family = gaussian\n"
            "eps.scale = 1.0\n"
            "eta.family = gaussian  # inline comment\n"
            "eta.scale = 0.1\n"
        )
        params = params_from_mapping(load_run_file(path))
        assert params.theta == 0.3
        assert params.alpha == 0.5
        assert params.eta.scale == 0.1

    def test_eta_none(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("theta=0.5\nalpha=0\neps.family=uniform\n"
                        "eps.scale=1\neta.family=none\n")
        params = params_from_mapping(load_run_file(path))
        assert params.eta is None

    def test_missing_keys(self):
        with pytest.raises(ConfigurationError, match="missing"):
            params_from_mapping({"theta": "0.3"})

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("theta 0.3\n")
        with pytest.raises(ConfigurationError, match="run.cfg:1"):
            load_run_file(path)
