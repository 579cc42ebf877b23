"""Entry-level validation of the asymptotic covariance blocks.

The estimator numerators decompose into conditionally centered terms; every
covariance block (K o Gamma, Kbar o Gammabar, (L o Upsilon)
Omega6 and the scalar ell) is the stationary second-moment matrix of those
terms. Estimating each moment directly from one long path with retained
noise checks every entry of the assembled blocks on its own, which catches
compensating errors that aggregate variance comparisons cannot.
"""

import math

import numpy as np
import pytest

from rcar.asymptotics import (ell_scalar, gamma6_matrix, gammabar_matrix,
                              kbar_matrix, k_matrix, l_matrix, limits,
                              mixed_moment_table, sigma_psi, upsilon_matrix)
from rcar.fourth_order import build_fourth_order
from rcar.model import ModelParams, NoiseFamily, NoiseSpec
from rcar.second_order import build_second_order
from rcar.simulate import simulate_block, simulate_with_noise

from conftest import batch_se


def centered_terms(params, x, eta, eps):
    """Conditionally centered decomposition terms, aligned at t = 2..n."""
    th, al = params.theta, params.alpha
    t2 = params.tau(2)
    e0, e1, e2 = eta[2:], eta[1:-1], eta[:-2]
    w0, w1 = eps[2:], eps[1:-1]
    x1, x2 = x[1:-1], x[:-2]

    d_mean = [
        x1 * ((1 + al * th) * e0 + al * (e0**2 - t2)),
        al**2 * e1 * x1 * e0,
        (1 + al * e0) * w0,
    ]
    d_lag1 = [
        x1 * ((1 - 2 * al * t2) * w0 + 2 * al * th * e0 * w0 + 2 * al * e0**2 * w0),
        x1**2 * ((1 - 2 * al * t2 + al * th**2) * e0 + al * e0**3
                 + 2 * al * th * (e0**2 - t2)),
        2 * al**2 * e1 * x1 * e0 * w0,
        e1 * x1**2 * (2 * al**2 * th * e0 + 2 * al**2 * (e0**2 - t2)),
        al**3 * e1**2 * x1**2 * e0,
        al * e0 * w0**2,
    ]
    d_lag2 = (al * x1 * e0 * w0
              + x1**2 * (al * th * e0 + al * (e0**2 - t2))
              + al**2 * e1 * x1**2 * e0
              + x2 * w0 + x2 * w1 * e0 + th * x2**2 * e0
              + x2**2 * e1 * e0 + al * e2 * x2**2 * e0)
    return d_mean, d_lag1, d_lag2


def assert_close(pred, series, label, nsig=5.0):
    se = batch_se(series)
    emp = series.mean()
    scale = max(se, 1e-12)
    assert abs(emp - pred) <= nsig * scale, \
        f"{label}: emp {emp:.6g} vs pred {pred:.6g} ({abs(emp - pred) / scale:.1f} se)"


class TestBlockMoments:
    def test_all_entries_from_one_path(self, params_accept):
        p = params_accept
        so = build_second_order(p)
        fo = build_fourth_order(p, so)
        traj, eta, eps = simulate_with_noise(p, 2_000_000, seed=777)
        d_mean, d_lag1, d_lag2 = centered_terms(p, traj.x, eta, eps)

        kbgb = kbar_matrix(p) * gammabar_matrix(so)
        for i in range(3):
            for j in range(i, 3):
                assert_close(kbgb[i, j], d_mean[i] * d_mean[j],
                             f"mean block ({i},{j})")

        kg = k_matrix(p) * gamma6_matrix(so, fo)
        for i in range(6):
            for j in range(i, 6):
                assert_close(kg[i, j], d_lag1[i] * d_lag1[j],
                             f"lag-1 block ({i},{j})")

        mm = mixed_moment_table(p, so, fo)
        ts = limits(p, so).theta_star
        lu = (l_matrix(p) * upsilon_matrix(so, fo, mm, ts)) @ np.ones(6)
        for i in range(6):
            assert_close(lu[i], d_lag1[i] * d_lag2, f"cross block ({i})")

        assert_close(ell_scalar(p, so, fo, mm), d_lag2 * d_lag2, "lag-2 scalar")


class TestNonGaussianStack:
    def test_psi_against_simulation(self):
        # bounded coefficient noise and heavy-tailed innovations exercise the
        # tau6/tau8 and sigma4 entries through very non-gaussian moment maps
        p = ModelParams(-0.25, -0.6, NoiseSpec(NoiseFamily.LAPLACE, 0.5),
                        NoiseSpec(NoiseFamily.UNIFORM, 0.55))
        so = build_second_order(p)
        fo = build_fourth_order(p, so)
        stack = sigma_psi(p, so, fo)

        n, reps = 4000, 1000
        gamma = p.alpha * p.tau(2)
        x = simulate_block(p, n, master_seed=4321, replicates=range(reps))
        num1 = np.einsum("ij,ij->i", x[:, :-1], x[:, 1:])
        den1 = np.einsum("ij,ij->i", x[:, :-1], x[:, :-1])
        num2 = np.einsum("ij,ij->i", x[:, :-2], x[:, 2:])
        den2 = np.einsum("ij,ij->i", x[:, :-2], x[:, :-2])
        th, vt = num1 / den1, num2 / den2
        fden = 1 - 2 * th**2
        dev = np.vstack([(1 - 2 * vt) * th / fden - p.theta,
                         (vt - th**2) / fden - gamma]) * math.sqrt(n)
        emp = np.cov(dev, ddof=1)
        rel = np.abs(emp - stack.Psi) / np.abs(stack.Psi)
        assert rel.max() < 0.25, f"rel errs {rel.tolist()}"
