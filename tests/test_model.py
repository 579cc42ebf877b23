import math
from collections import Counter

import numpy as np
import pytest

from rcar.errors import ConfigurationError, PathologicalParamsError
from rcar.model import (KURTOSIS_FACTOR, ModelParams, MomentSet, NoiseFamily,
                        NoiseSpec, check_hypotheses, load_run_file,
                        log_moment, noise_moments, params_from_mapping,
                        parse_noise)

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

    @pytest.mark.parametrize("text", ["gaussian", "Gaussian", " GAUSSIAN ",
                                      "gaussian\t"])
    def test_family_names_ignore_case_and_spaces(self, text):
        assert NoiseFamily(text) is NoiseFamily.GAUSSIAN
        assert NoiseSpec(text, 1.0) == GAUSS1
        assert parse_noise(f"{text}:1") == GAUSS1
        params = params_from_mapping({"theta": "0.3", "alpha": "0",
                                      "eps.family": text, "eps.scale": "1"})
        assert params.eps == GAUSS1

    @pytest.mark.parametrize("text", ["gauss", "", "none"])
    def test_unknown_family_name(self, text):
        with pytest.raises(ValueError):
            NoiseFamily(text)

    @pytest.mark.parametrize("scale", [math.inf, math.nan, -1.0])
    def test_non_finite_scale_rejected(self, scale):
        with pytest.raises(ConfigurationError, match="finite and > 0"):
            NoiseSpec(NoiseFamily.GAUSSIAN, scale)

    @pytest.mark.parametrize("family,scale,message", [
        (NoiseFamily.GAUSSIAN, 1e100, "overflow"),   # s**4 raises
        (NoiseFamily.GAUSSIAN, 1e77, "overflow"),    # 105 * s**4 is inf
        (NoiseFamily.LAPLACE, 1e-300, "degenerate"),  # m2 underflows to 0
        (NoiseFamily.GAUSSIAN, 1e-200, "degenerate"),  # m4 underflows to 0
    ])
    def test_scale_whose_moments_leave_the_floats(self, family, scale, message):
        with pytest.raises(ConfigurationError, match=f"^eta.scale = .*{message}"):
            ModelParams(0.3, 0.5, GAUSS1, NoiseSpec(family, scale))
        with pytest.raises(ConfigurationError, match=f"^eps.scale = .*{message}"):
            ModelParams(0.3, 0.5, NoiseSpec(family, scale), None)

    @pytest.mark.parametrize("key", ["theta", "alpha"])
    @pytest.mark.parametrize("value", [math.inf, math.nan, 1e200, -1e39])
    def test_theta_alpha_bounded(self, key, value):
        # their eighth powers must be finite
        kw = {"theta": 0.3, "alpha": 0.0, key: value}
        with pytest.raises(ConfigurationError, match=f"^{key} = "):
            ModelParams(eps=GAUSS1, **kw)
        kw[key] = -1e38
        ModelParams(eps=GAUSS1, **kw)

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
        assert params.eta is None
        assert params.tau(2) == 0.0
        assert params.tau(0) == 1.0

    def test_random_coefficient_has_positive_variance(self):
        params = ModelParams(0.5, 0.1, GAUSS1, NoiseSpec(NoiseFamily.UNIFORM, 0.4))
        assert params.eta is not None
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
        # theta = 1 with tiny coefficient noise: E ln|1 + sd Z| is
        # -sd^2/2 - 3 sd^4/4 - 15 sd^6/6 - ... ~ -5e-7 for sd = 1e-3
        def report(theta):
            return check_hypotheses(ModelParams(
                theta, 0.0, GAUSS1, NoiseSpec(NoiseFamily.GAUSSIAN, 1e-6)))

        at_one = report(1.0)
        assert at_one.log_moment_half_width < 1e-14
        assert at_one.log_moment_estimate == pytest.approx(
            -5e-7 - 7.5e-13 - 2.5e-18, abs=at_one.log_moment_half_width)
        assert at_one.h1 and not at_one.h1_uncertain

        # the rate crosses zero near theta = 1 + 5e-7: bisect theta until
        # the value lies within its error bound of zero
        lo, hi = 1.0, 1.0 + 1e-5
        assert report(hi).log_moment_estimate > 0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            rep = report(mid)
            if abs(rep.log_moment_estimate) <= rep.log_moment_half_width:
                break
            lo, hi = (mid, hi) if rep.log_moment_estimate < 0 else (lo, mid)
        else:
            pytest.fail("no theta within the error bound of the H1 boundary")
        assert rep.h1_uncertain
        assert mid == pytest.approx(1 + 5e-7, abs=1e-9)

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

    def test_determinism(self):
        params = ModelParams(0.2, 0.3, GAUSS1, NoiseSpec(NoiseFamily.GAUSSIAN, 0.1))
        a = check_hypotheses(params, mc_draws=10_000, seed=5)
        b = check_hypotheses(params, mc_draws=10_000, seed=5)
        assert a == b
        # mc_draws and seed are accepted and have no effect
        assert check_hypotheses(params, mc_draws=100, seed=6) == a
        assert a.to_dict()["mc_draws"] == 0

    def test_makes_no_random_draws(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("check_hypotheses drew random numbers")

        monkeypatch.setattr(np.random, "Philox", refuse)
        monkeypatch.setattr(np.random, "default_rng", refuse)
        for family in NoiseFamily:
            for alpha in (0.0, 0.5):
                params = ModelParams(0.3, alpha, GAUSS1, NoiseSpec(family, 0.2))
                assert check_hypotheses(params).h1


def mc_log_moment(params, seed, draws=200_000):
    """Mean of ln|theta + alpha eta_0 + eta_1| over `draws` Philox draws
    and its standard error."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    eta0 = params.eta.sample(rng, draws)
    eta1 = params.eta.sample(rng, draws)
    logs = np.log(np.abs(params.theta + params.alpha * eta0 + eta1))
    return float(logs.mean()), float(logs.std(ddof=1)) / math.sqrt(draws)


def eta_params(theta, alpha, family, scale):
    return ModelParams(theta, alpha, GAUSS1, NoiseSpec(family, scale))


#: 16 points, 4 per family, from default_rng(2026) over the ranges of the
#: suite's random_admissible draw
MC_POINTS = [
    (float(t), float(a), family, float(c))
    for rng in [np.random.default_rng(2026)]
    for family in NoiseFamily
    for t, a, c in zip(rng.uniform(-0.8, 0.8, 4), rng.uniform(-0.9, 0.9, 4),
                       rng.uniform(0.02, 0.3, 4))
]


class TestLogMoment:
    def test_eta_none_is_log_theta(self):
        assert log_moment(ModelParams(-0.5, 0.3, GAUSS1, None)) == (math.log(0.5), 0.0)
        assert log_moment(ModelParams(0.0, 0.3, GAUSS1, None)) == (-math.inf, 0.0)

    @pytest.mark.parametrize("theta,alpha,c", [
        (0.3, 0.5, 0.2), (-0.7, -0.8, 0.05), (0.1, 2.0, 0.3)])
    def test_rademacher_atoms(self, theta, alpha, c):
        value, bound = log_moment(eta_params(theta, alpha, NoiseFamily.RADEMACHER, c))
        atoms = [theta + i * alpha * c + j * c for i in (-1, 1) for j in (-1, 1)]
        direct = sum(math.log(abs(y)) for y in atoms) / 4
        assert 0 < bound < 1e-14
        assert value == pytest.approx(direct, abs=1e-14)

    def test_rademacher_atom_at_zero(self):
        # 0.75 - 0.5 * 0.5 - 0.5 = 0 exactly: one of the four atoms is zero
        params = eta_params(0.75, 0.5, NoiseFamily.RADEMACHER, 0.5)
        assert log_moment(params) == (-math.inf, 0.0)
        report = check_hypotheses(params)
        assert report.log_moment_estimate == -math.inf
        assert report.h1 and not report.h1_uncertain

    @pytest.mark.parametrize("theta,c", [(0.0, 1.0), (0.4, 0.4), (0.3, 0.2),
                                         (-2.0, 0.5)])
    def test_uniform_alpha_zero_closed_form(self, theta, c):
        # E ln|theta + U| = (F(theta + c) - F(theta - c)) / 2c with
        # F(x) = x ln|x| - x: ln c - 1 at theta = 0, ln 2c - 1 at theta = c
        def f(x):
            return x * math.log(abs(x)) - x if x else 0.0

        value, bound = log_moment(eta_params(theta, 0.0, NoiseFamily.UNIFORM, c))
        assert bound < 1e-14
        assert value == pytest.approx((f(theta + c) - f(theta - c)) / (2 * c),
                                      abs=1e-15)
        if theta == 0:
            assert value == pytest.approx(math.log(c) - 1, abs=1e-15)
        if theta == c:
            assert value == pytest.approx(math.log(2 * c) - 1, abs=1e-15)
        # the trapezoid density of a small alpha != 0 tends to the uniform one
        near, near_bound = log_moment(eta_params(theta, 1e-9, NoiseFamily.UNIFORM, c))
        assert near_bound < 1e-10
        assert near == pytest.approx(value, abs=1e-12)

    def test_uniform_alpha_below_the_trapezoid(self):
        # the trapezoid's area 4 c (|alpha| c) underflows to 0: the law is
        # uniform to double precision, and the closed form serves it
        at_zero = log_moment(eta_params(0.3, 0.0, NoiseFamily.UNIFORM, 1e-20))
        tiny = log_moment(eta_params(0.3, -1e-300, NoiseFamily.UNIFORM, 1e-20))
        assert tiny == at_zero

    @pytest.mark.parametrize("theta,alpha,c", [
        (0.3, 0.5, 0.2), (-0.1, -0.9, 0.3), (0.7, 0.2, 0.05), (0.0, 1.0, 0.25)])
    def test_uniform_closed_form(self, theta, alpha, c):
        # integrating F twice: E ln|theta + U_a + U_b| is
        # [G(t+a+b) - G(t+a-b) - G(t-a+b) + G(t-a-b)] / 4ab with
        # G(x) = x^2/2 ln|x| - 3x^2/4, a = c and b = |alpha| c
        def g(x):
            return x * x / 2 * math.log(abs(x)) - 0.75 * x * x if x else 0.0

        a, b = c, abs(alpha) * c
        terms = [g(theta + a + b), -g(theta + a - b), -g(theta - a + b),
                 g(theta - a - b)]
        target = math.fsum(terms) / (4 * a * b)
        # the four terms cancel: each carries a few ulps of its size
        cancellation = 1e-15 * sum(map(abs, terms)) / (4 * a * b)
        value, bound = log_moment(eta_params(theta, alpha, NoiseFamily.UNIFORM, c))
        assert bound < 1e-12
        assert value == pytest.approx(target, abs=bound + cancellation)

    @pytest.mark.parametrize("theta,alpha,var", [
        (0.0, 0.0, 1.0), (0.3, 0.5, 0.1), (-0.8, 0.9, 0.02), (0.5, -0.2, 0.3)])
    def test_gaussian_poisson_series(self, theta, alpha, var):
        # theta_t ~ N(theta, s2) with s2 = (1 + alpha^2) var, so theta_t^2 / s2
        # is a Poisson(lam) mixture of chi2(1 + 2k), lam = theta^2 / (2 s2);
        # with E ln chi2(nu) = ln 2 + digamma(nu / 2) and
        # digamma(1/2 + k) = -gamma - 2 ln 2 + sum_{j <= k} 2 / (2j - 1):
        # E ln|theta_t| = (ln s2 + ln 2 + sum_k P(k) digamma(1/2 + k)) / 2
        s2 = (1 + alpha**2) * var
        lam = theta**2 / (2 * s2)
        k = np.arange(400)
        weights = (np.exp(k * math.log(lam) - lam - np.array([math.lgamma(j + 1) for j in k]))
                   if lam else (k == 0).astype(float))
        digamma = (-np.euler_gamma - 2 * math.log(2)
                   + np.concatenate([[0.0], np.cumsum(2 / (2 * k[1:] - 1))]))
        target = 0.5 * (math.log(s2) + math.log(2) + math.fsum(weights * digamma))
        value, bound = log_moment(eta_params(theta, alpha, NoiseFamily.GAUSSIAN, var))
        assert bound < 1e-12
        assert value == pytest.approx(target, abs=bound + 1e-14)

    @pytest.mark.parametrize("b", [0.05, 0.3, 1.0])
    def test_laplace_closed_forms(self, b):
        # at theta = 0 one laplace (alpha = 0) gives E ln|b L| = ln b - gamma;
        # at |alpha| = 1 the sum has density (b + |s|) e^(-|s|/b) / 4b^2 and
        # E ln|S| = ln b - gamma + 1/2
        for alpha, target in ((0.0, math.log(b) - np.euler_gamma),
                              (1.0, math.log(b) - np.euler_gamma + 0.5),
                              (-1.0, math.log(b) - np.euler_gamma + 0.5)):
            value, bound = log_moment(eta_params(0.0, alpha, NoiseFamily.LAPLACE, b))
            assert bound < 1e-12
            assert abs(value - target) <= bound + 1e-15

    @pytest.mark.parametrize("theta", [0.0, 0.4, -0.9])
    def test_laplace_continuous_at_special_alphas(self, theta):
        # the general density next to alpha = 0 and |alpha| = 1 agrees with
        # the forms taken at those points
        for special, near in ((0.0, 1e-9), (1.0, 1.0 - 1e-9), (-1.0, -1.0 - 1e-9)):
            a, a_bound = log_moment(eta_params(theta, special, NoiseFamily.LAPLACE, 0.2))
            b, b_bound = log_moment(eta_params(theta, near, NoiseFamily.LAPLACE, 0.2))
            assert max(a_bound, b_bound) < 1e-10
            assert a == pytest.approx(b, abs=1e-8)

    @pytest.mark.parametrize("i", range(len(MC_POINTS)))
    def test_against_monte_carlo(self, i):
        # 2e5 Philox draws per point (seed 7000 + i), band 4 standard errors
        params = eta_params(*MC_POINTS[i])
        value, bound = log_moment(params)
        mean, se = mc_log_moment(params, seed=7000 + i)
        assert bound < 1e-10
        assert abs(value - mean) <= 4 * se, (value, mean, se)


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
