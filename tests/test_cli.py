import contextlib
import csv
import importlib
import io
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import rcar
from rcar import asymptotics, cli
from rcar.asymptotics import kappa_squared, limits, omega_squared
from rcar.cli import main
from rcar.errors import NumericError, PathologicalParamsError
from rcar.fourth_order import build_fourth_order
from rcar.model import ModelParams, NoiseFamily, NoiseSpec, parse_noise
from rcar.numerics import spectral_radius
from rcar.second_order import build_second_order, stationarity_radii
from rcar.series_csv import ingest
from rcar.simulate import burn_in_for, simulate

from conftest import random_admissible

CHECK_ARGS = ["check", "--theta", "0.3", "--alpha", "0",
              "--eta", "gaussian:0.2", "--eps", "gaussian:1"]


def reference_radii(params):
    """rho(M) and rho(H) by the scalar formulas of the moment table, each
    power by Python's float `**`: the values `rcar region` has always
    printed."""
    tau = [params.tau(k) for k in range(9)]
    t = np.array([[tau[a + k] for k in range(5)] for a in range(5)])
    binom = np.array([[math.comb(b, k) * params.theta ** (b - k) if k <= b
                       else 0.0 for b in range(5)] for k in range(5)])
    c = np.add.accumulate(t[:, :, None] * binom, axis=1)[:, -1]

    def matrix(power, rows):
        out = np.zeros((rows, rows))
        out[:, :power + 1] = c[:rows, power::-1] * [
            math.comb(power, j) * params.alpha ** j for j in range(power + 1)]
        return out

    return spectral_radius(matrix(2, 3)), spectral_radius(matrix(4, 5))


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestCheck:
    def test_spec_example(self, capsys):
        code, payload = run_json(capsys, CHECK_ARGS)
        assert code == 0
        assert payload["rho_M"] == pytest.approx(0.29, abs=1e-9)
        assert payload["verdicts"]["H3"] is True
        assert "provenance" in payload

    def test_out_file(self, tmp_path):
        out = tmp_path / "report.json"
        assert main(CHECK_ARGS + ["--out", str(out)]) == 0
        assert json.loads(out.read_text())["rho_M"] == pytest.approx(0.29, abs=1e-9)

    def test_params_file_with_flag_override(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("theta = 0.9\nalpha = 0\neps.family = gaussian\n"
                       "eps.scale = 1\neta.family = gaussian\neta.scale = 0.2\n")
        code, payload = run_json(
            capsys, ["check", "--params-file", str(cfg), "--theta", "0.3"])
        assert code == 0
        assert payload["rho_M"] == pytest.approx(0.29, abs=1e-9)

    def test_unknown_file_key(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("theta = 0.3\nalpha= 0\neps.family=gaussian\n"
                       "eps.scale=1\nbogus = 1\n")
        assert main(["check", "--params-file", str(cfg)]) == 2

    def test_atom_at_zero_is_strict_json(self, capsys):
        # rademacher eta: the atom 0.75 - 0.5 * 0.5 - 0.5 is zero, so the log
        # moment is -inf, which strict JSON has no token for
        def refuse(token):
            raise ValueError(f"non-standard JSON token {token}")

        code = main(["check", "--theta", "0.75", "--alpha", "0.5",
                     "--eps", "gaussian:1", "--eta", "rademacher:0.5"])
        payload = json.loads(capsys.readouterr().out, parse_constant=refuse)
        assert code == 0
        assert payload["log_moment_estimate"] is None
        assert payload["verdicts"]["H1"] is True

    @pytest.mark.parametrize("flag", ["--mc-draws", "--seed"])
    def test_removed_monte_carlo_flags(self, flag):
        with pytest.raises(SystemExit) as exc:
            main(CHECK_ARGS + [flag, "5"])
        assert exc.value.code == 2

    def test_provenance_claims_no_draws(self, capsys):
        _, payload = run_json(capsys, CHECK_ARGS)
        assert payload["provenance"]["settings"] == {}
        assert "seed" not in payload["provenance"]
        assert payload["mc_draws"] == 0


class TestMoments:
    def test_order2_keys(self, capsys):
        code, payload = run_json(capsys, [
            "moments", "--theta", "0.3", "--alpha", "0.5",
            "--eps", "gaussian:1", "--eta", "gaussian:0.1"])
        assert code == 0
        for key in ("M", "N", "Lambda", "acvf"):
            assert key in payload
        assert len(payload["Lambda"]) == 3

    def test_order4_keys(self, capsys):
        code, payload = run_json(capsys, [
            "moments", "--order", "4", "--theta", "0.3", "--alpha", "0.5",
            "--eps", "gaussian:1", "--eta", "gaussian:0.1"])
        assert code == 0
        for key in ("H", "G", "Delta", "Lambda5"):
            assert key in payload

    def test_hypothesis_violation_exit4(self):
        assert main(["moments", "--theta", "1.2", "--alpha", "0",
                     "--eps", "gaussian:1", "--eta", "gaussian:0.1"]) == 4

    def test_limits_agree_with_variance_bitwise(self, capsys):
        # theta* and vartheta* have one formula, asymptotics.limits, which
        # both `rcar moments` and `rcar variance` print
        rng = np.random.default_rng(1973)
        for _ in range(500):
            p = random_admissible(rng)
            flags = ["--theta", repr(p.theta), "--alpha", repr(p.alpha),
                     "--eps", f"{p.eps.family.value}:{p.eps.scale!r}",
                     "--eta", f"{p.eta.family.value}:{p.eta.scale!r}"]
            _, moments = run_json(capsys, ["moments", "--hmax", "0", *flags])
            _, variance = run_json(capsys, ["variance", *flags])
            lim = limits(p, build_second_order(p))
            want = [lim.theta_star, lim.vartheta_star]
            assert [moments["acvf"]["theta_star"],
                    moments["acvf"]["vartheta_star"]] == want, p
            assert [variance["theta_star"], variance["vartheta_star"]] == want, p


class TestVariance:
    def test_keys_and_values(self, capsys):
        code, payload = run_json(capsys, [
            "variance", "--theta", "0.3", "--alpha", "0.5",
            "--eps", "gaussian:1", "--eta", "gaussian:0.1"])
        assert code == 0
        assert payload["theta_star"] == pytest.approx(1 / 3, rel=1e-12)
        assert list(payload) == ["theta_star", "vartheta_star", "gamma",
                                 "sigma2_star", "kappa2", "omega2", "Sigma",
                                 "Psi", "psi", "psi0", "provenance"]

    def test_limits_computed_once(self, capsys, monkeypatch):
        # the payload is one covariance stack, which carries its limits
        calls = []

        def counted(*args):
            calls.append(args)
            return limits(*args)
        monkeypatch.setattr(asymptotics, "limits", counted)
        assert main(["variance", "--theta", "0.3", "--alpha", "0.5",
                     "--eps", "gaussian:1", "--eta", "gaussian:0.1"]) == 0
        assert len(calls) == 1

    def test_pathological_exit5(self):
        theta = 1 / math.sqrt(2)
        assert main(["variance", "--theta", repr(theta), "--alpha", "0",
                     "--eps", "gaussian:1", "--eta", "gaussian:0.02"]) == 5

    def test_theta_star_at_the_boundary_exits_5(self, capsys):
        # theta* = 1/sqrt(2) with theta away from it: `f_jacobian` raises
        theta = 0.9 / math.sqrt(2)
        assert main(["variance", "--theta", repr(theta), "--alpha", "0.5",
                     "--eps", "gaussian:1", "--eta", "gaussian:0.1"]) == 5
        assert "f_jacobian" in capsys.readouterr().err

    def test_variances_agree_with_library_bitwise(self, capsys):
        # the printed omega2 and kappa2 are the library's single computations
        rng = np.random.default_rng(5)
        for _ in range(50):
            p = random_admissible(rng)
            flags = ["--theta", repr(p.theta), "--alpha", repr(p.alpha),
                     "--eps", f"{p.eps.family.value}:{p.eps.scale!r}",
                     "--eta", f"{p.eta.family.value}:{p.eta.scale!r}"]
            _, variance = run_json(capsys, ["variance", *flags])
            so = build_second_order(p)
            fo = build_fourth_order(p, so)
            assert variance["omega2"] == omega_squared(p, so, fo), p
            assert variance["kappa2"] == kappa_squared(p, so), p


class TestNoiseScaleInvariance:
    """The model is homogeneous in the innovation scale: scaling eps by c
    scales X by c, kappa2 and sigma2_star by c^2 (the gaussian scale is the
    variance, c^2 itself) and leaves the limits, the variances of the
    ratio and corrected estimators and every check verdict unmoved."""

    ARGS = ["--theta", "0.3", "--alpha", "0.5", "--eta", "gaussian:0.1"]
    SCALES = (1e-13, 1e-5, 1.0, 1e6)

    def run(self, capsys, command, scale):
        code, payload = run_json(capsys, [command, *self.ARGS,
                                          "--eps", f"gaussian:{scale!r}"])
        assert code == 0, scale
        return payload

    def test_variance(self, capsys):
        ref = self.run(capsys, "variance", 1.0)
        for scale in self.SCALES:
            got = self.run(capsys, "variance", scale)
            for key in ("theta_star", "vartheta_star", "gamma", "omega2",
                        "psi", "psi0"):
                assert got[key] == pytest.approx(ref[key], rel=1e-12), (scale, key)
            for key in ("Sigma", "Psi"):
                np.testing.assert_allclose(got[key], ref[key], rtol=1e-12)
            for key in ("kappa2", "sigma2_star"):
                assert got[key] / scale == pytest.approx(ref[key], rel=1e-12), \
                    (scale, key)

    def test_check(self, capsys):
        ref = self.run(capsys, "check", 1.0)
        for scale in self.SCALES:
            got = self.run(capsys, "check", scale)
            assert got["excluded_degenerate"] == ref["excluded_degenerate"], scale
            assert got["verdicts"] == ref["verdicts"], scale


class TestSimulateEstimateRoundTrip:
    ARGS = ["--theta", "0.3", "--alpha", "0.5", "--eps", "gaussian:1",
            "--eta", "gaussian:0.1"]

    def test_round_trip_bit_exact(self, tmp_path, capsys):
        out = tmp_path / "series.csv"
        code = main(["simulate", *self.ARGS, "--n", "500", "--seed", "77",
                     "--out", str(out)])
        assert code == 0
        params = ModelParams(0.3, 0.5, NoiseSpec(NoiseFamily.GAUSSIAN, 1.0),
                             NoiseSpec(NoiseFamily.GAUSSIAN, 0.1))
        direct = simulate(params, 500, seed=77)
        assert np.array_equal(ingest(out).x, direct.x)

        code, payload = run_json(
            capsys, ["estimate", "--in", str(out), "--level", "0.05"])
        assert code == 0
        from rcar.estimate import correlation_test
        ref = correlation_test(direct, level=0.05)
        assert payload["statistic"] == ref.statistic
        assert payload["p_value"] == ref.p_value

    def test_burn_in_default_is_derived(self, params_accept, capsys):
        args = ["simulate", *self.ARGS, "--n", "50", "--seed", "4",
                "--format", "json"]
        for extra, burn in (([], burn_in_for(params_accept)),
                            (["--burn-in", "2000"], 2000)):
            code, payload = run_json(capsys, args + extra)
            assert code == 0
            assert payload["provenance"]["settings"]["burn_in"] == burn

    def test_estimate_report_fields(self, tmp_path, capsys):
        out = tmp_path / "series.csv"
        main(["simulate", *self.ARGS, "--n", "300", "--seed", "5",
              "--out", str(out)])
        code, payload = run_json(capsys, ["estimate", "--in", str(out)])
        assert code == 0
        for key in ("theta_hat", "vartheta_hat", "theta_tilde", "gamma_tilde",
                    "sigma2_hat", "tau2_bar", "sigma2_bar", "psi0_hat",
                    "statistic", "p_value", "theta_hat_source"):
            assert key in payload

    def test_test_subcommand_gamma_zero(self, tmp_path, capsys):
        path = tmp_path / "flat.csv"
        n = 60
        x = np.zeros(n + 1)
        x[::3] = np.linspace(1.0, 2.0, len(x[::3]))
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t", "x"])
            writer.writerows((t, f"{v:.17g}") for t, v in enumerate(x))
        code, payload = run_json(capsys, ["test", "--in", str(path)])
        assert code == 0
        assert payload["p_value"] == 1.0
        assert payload["statistic"] == 0.0
        assert payload["reject"] is False

    def test_degenerate_series_exit3(self, tmp_path):
        path = tmp_path / "const.csv"
        path.write_text("t,x\n" + "\n".join(f"{t},1.0" for t in range(80)) + "\n")
        assert main(["estimate", "--in", str(path)]) == 3

    def stdout_and_out_file(self, tmp_path, capsysbinary, n):
        out = tmp_path / "series.csv"
        args = ["simulate", *self.ARGS, "--n", str(n), "--seed", "3"]
        assert main(args + ["--out", str(out)]) == 0
        assert main(args) == 0
        return capsysbinary.readouterr().out, out.read_bytes()

    def test_stdout_matches_out_file(self, tmp_path, capsysbinary):
        got, want = self.stdout_and_out_file(tmp_path, capsysbinary, 200)
        assert got == want

    def test_stdout_matches_out_file_across_time_blocks(self, tmp_path,
                                                        capsysbinary):
        got, want = self.stdout_and_out_file(tmp_path, capsysbinary, 20_000)
        assert got == want

    @pytest.mark.parametrize("fmt,n", [("csv", 200_000), ("json", 20_000)])
    def test_closed_stdout_pipe_is_quiet(self, fmt, n):
        # a reader that takes one line and closes the pipe is ordinary
        # pipeline use (`rcar simulate ... | head -1`), not an i/o failure
        src = os.path.dirname(os.path.dirname(rcar.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.Popen(
            [sys.executable, "-m", "rcar.cli", "simulate", *self.ARGS,
             "--n", str(n), "--seed", "1", "--format", fmt],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 0
        assert first in (b"t,x\r\n", b"{\n")
        assert err == b""

    @pytest.mark.parametrize("error, code, label", [
        (None, 4, "hypothesis violation"),  # inf noise: the path explodes
        (MemoryError("Unable to allocate 64.0 KiB"), 1, "out of memory"),
        (OSError(28, "No space left on device"), 1, "i/o error"),
    ], ids=["explosion", "memory", "io"])
    def test_failure_after_a_written_block_leaves_no_file(
            self, tmp_path, monkeypatch, capsys, error, code, label):
        sim = importlib.import_module("rcar.simulate")
        monkeypatch.setattr(sim, "_TIME_BLOCK", sim._FOLD)
        sample, calls, written = NoiseSpec.sample, [], []

        def failing(spec, rng, size, out=None):
            calls.append(size)
            if calls.count(sim._FOLD) <= 2:  # X_0 and the first block
                return sample(spec, rng, size, out)
            written.append(sum(p.stat().st_size for p in tmp_path.glob(".*.tmp")))
            if error is None:
                out[...] = np.inf
                return out
            raise error

        monkeypatch.setattr(NoiseSpec, "sample", failing)
        out = tmp_path / "series.csv"
        argv = ["simulate", *self.ARGS, "--n", str(3 * sim._FOLD),
                "--seed", "1", "--out", str(out)]
        assert main(argv) == code
        assert capsys.readouterr().err.startswith(f"rcar: {label}: ")
        assert written[0] > 0 and list(tmp_path.iterdir()) == []
        # a file already at --out stays as it was
        out.write_text("kept\n")
        calls.clear()
        assert main(argv) == code
        assert list(tmp_path.iterdir()) == [out] and out.read_text() == "kept\n"

    def test_out_that_is_not_a_file_is_written_in_place(self, capsys):
        assert main(CHECK_ARGS + ["--out", os.devnull]) == 0
        assert not os.path.isfile(os.devnull)
        assert capsys.readouterr() == ("", "")

    def test_failed_out_write_is_an_io_error(self, tmp_path, capsys):
        out = tmp_path / "missing" / "series.csv"
        assert main(["simulate", *self.ARGS, "--n", "20", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("rcar: i/o error: ")
        # the error names the output, not the sibling it is written through
        assert err.rstrip().endswith(f"'{out}'")

    def test_family_flags_ignore_case_and_spaces(self, tmp_path, capsys):
        path = tmp_path / "series.csv"
        assert main(["simulate", *self.ARGS, "--n", "500", "--seed", "9",
                     "--out", str(path)]) == 0
        runs = [["--eps-family", "gaussian", "--eta-family", "laplace"],
                ["--eps-family", "Gaussian", "--eta-family", " LAPLACE"]]
        payloads = []
        for flags in runs:
            code, payload = run_json(capsys, ["estimate", "--in", str(path),
                                              *flags])
            assert code == 0
            payloads.append(payload)
        assert payloads[0] == payloads[1]

    def test_one_row_exit3(self, tmp_path, capsys):
        path = tmp_path / "one.csv"
        path.write_text("t,x\n0,1.5\n")
        assert main(["estimate", "--in", str(path)]) == 3
        assert capsys.readouterr().err == (
            f"rcar: degenerate data: {path}: need at least two observations\n")

    def test_malformed_csv_exit3(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,x\n0,1.0\n2,0.5\n")
        assert main(["test", "--in", str(path)]) == 3

    def test_undecodable_csv_exit3(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"t,x\n0,1.0\n1,\xff\n2,0.5\n")
        assert main(["estimate", "--in", str(path)]) == 3
        assert f"{path}:3:" in capsys.readouterr().err


class TestMc:
    def test_from_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "run.toml"
        cfg.write_text(
            "theta = 0.5\nalpha = 0.0\neps.family = gaussian\neps.scale = 1\n"
            "eta.family = none\nn = 500\nreplicates = 150\nmaster_seed = 11\n"
        )
        code, payload = run_json(capsys, [
            "mc", "--experiment", "clt_theta", "--config", str(cfg)])
        assert code == 0
        for key in ("targets", "empirical", "tolerance", "pass"):
            assert key in payload
        assert payload["targets"]["variance"] == pytest.approx(0.75)

    @pytest.mark.parametrize("experiment", ["clt_mean", "clt_theta", "clt_couple"])
    def test_every_replicate_failed(self, tmp_path, capsys, experiment):
        # n = 1 leaves no lag window, so every replicate fails: the report is
        # inconclusive with undefined (null) empirical values
        cfg = tmp_path / "run.cfg"
        cfg.write_text("theta = 0.5\nalpha = 0.0\neps.family = gaussian\n"
                       "eps.scale = 1\nn = 1\nreplicates = 100\n")
        code = main(["mc", "--experiment", experiment, "--config", str(cfg)])
        out, err = capsys.readouterr()
        assert code == 0 and err == ""
        payload = json.loads(out, parse_constant=lambda token: pytest.fail(token))
        assert payload["status"] == "inconclusive"
        assert payload["replicates_used"] == 0
        assert not any(payload["pass"].values())

        def leaves(node):
            if isinstance(node, (dict, list)):
                for child in (node.values() if isinstance(node, dict) else node):
                    yield from leaves(child)
            else:
                yield node

        assert set(leaves(payload["empirical"])) == {None}

    def test_worker_count_invariance(self, tmp_path, capsys):
        cfg = tmp_path / "run.toml"
        cfg.write_text(
            "theta = 0.3\nalpha = 0.5\neps.family = gaussian\neps.scale = 1\n"
            "eta.family = gaussian\neta.scale = 0.1\nn = 400\n"
            "replicates = 600\nmaster_seed = 4\n"
        )
        outputs = []
        for workers in ("1", "2"):
            assert main(["mc", "--experiment", "clt_theta", "--config",
                         str(cfg), "--workers", workers]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    def test_seed_flag_overrides_config(self, tmp_path, capsys):
        # `--seed 9` gives the report of the same file with master_seed = 9
        outputs = []
        for seed, flag in ((11, ["--seed", "9"]), (9, []), (11, [])):
            cfg = tmp_path / f"run{len(outputs)}.toml"
            cfg.write_text(
                "theta = 0.3\nalpha = 0.5\neps.family = gaussian\neps.scale = 1\n"
                "eta.family = gaussian\neta.scale = 0.1\nn = 200\n"
                f"replicates = 150\nmaster_seed = {seed}\n")
            assert main(["mc", "--experiment", "clt_theta", "--config",
                         str(cfg), *flag]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1] != outputs[2]

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "run.toml"
        cfg.write_text("theta=0.3\nalpha=0\neps.family=gaussian\neps.scale=1\n"
                       "surprise=1\n")
        assert main(["mc", "--experiment", "clt_theta", "--config", str(cfg)]) == 2

    def test_missing_experiment(self, tmp_path):
        cfg = tmp_path / "run.toml"
        cfg.write_text("theta=0.3\nalpha=0\neps.family=gaussian\neps.scale=1\n")
        assert main(["mc", "--config", str(cfg)]) == 2

    def test_misspelt_theta_source_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.toml"
        cfg.write_text("theta=0.3\nalpha=0\neps.family=gaussian\neps.scale=1\n"
                       "replicates=100\ntheta_source=tilda\n")
        assert main(["mc", "--experiment", "size_power",
                     "--config", str(cfg)]) == 2
        assert "theta_source" in capsys.readouterr().err

    def test_negative_burn_in_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.toml"
        cfg.write_text("theta=0.3\nalpha=0\neps.family=gaussian\neps.scale=1\n"
                       "n=50\nreplicates=100\nburn_in=-3\n")
        assert main(["mc", "--experiment", "clt_couple",
                     "--config", str(cfg)]) == 2
        assert "burn_in must be >= 0" in capsys.readouterr().err

    def test_workers_is_not_a_run_file_key(self, tmp_path, capsys):
        # the worker count is set by --workers only
        cfg = tmp_path / "run.toml"
        cfg.write_text("theta=0.3\nalpha=0\neps.family=gaussian\neps.scale=1\n"
                       "n=50\nreplicates=100\nworkers=2\n")
        assert main(["mc", "--experiment", "clt_couple",
                     "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("rcar: configuration error: unknown keys")
        assert "workers" in err


class TestRegion:
    def test_grid_csv(self, tmp_path):
        out = tmp_path / "grid.csv"
        code = main(["region", "--theta-range", "-0.4:0.4:0.4",
                     "--alpha-range", "0:0.5:0.5", "--eps", "gaussian:1",
                     "--eta", "gaussian:0.1", "--out", str(out)])
        assert code == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 6  # 3 theta values x 2 alpha values
        assert set(rows[0]) == {"theta", "alpha", "rho_M", "rho_H"}
        centre = next(r for r in rows
                      if float(r["theta"]) == 0.0 and float(r["alpha"]) == 0.0)
        assert float(centre["rho_M"]) == pytest.approx(0.1, abs=1e-9)

    def test_bad_range_exit2(self):
        assert main(["region", "--theta-range", "oops",
                     "--alpha-range", "0:1:0.5", "--eps", "gaussian:1",
                     "--eta", "gaussian:0.1"]) == 2

    def test_range_flag_without_a_value(self, capsys):
        # the flag after it is not taken for a dash value: only a value
        # holding a colon is glued on
        with pytest.raises(SystemExit) as exc:
            main(["region", "--theta-range", "--alpha-range", "0:1:0.5",
                  "--eps", "gaussian:1", "--eta", "gaussian:0.1"])
        assert exc.value.code == 2
        assert ("argument --theta-range: expected one argument"
                in capsys.readouterr().err)

    def test_negative_range_spec_syntax(self, tmp_path):
        out = tmp_path / "grid.csv"
        code = main(["region", "--theta-range", "-1:1:1.0",
                     "--alpha-range", "-1:1:1.0", "--eps", "gaussian:1",
                     "--eta", "gaussian:0.1", "--out", str(out)])
        assert code == 0
        assert len(out.read_text().splitlines()) == 10  # header + 3x3 grid

    def test_json_format(self, capsys):
        code, payload = run_json(capsys, [
            "region", "--theta-range", "0:0.4:0.4", "--alpha-range",
            "0:0.5:0.5", "--eps", "gaussian:1", "--eta", "gaussian:0.1",
            "--format", "json"])
        assert code == 0
        assert payload["columns"] == ["theta", "alpha", "rho_M", "rho_H"]
        assert len(payload["rows"]) == 4

    # at alpha 5, 2 alpha tau2 = 1: the pathological points carry nan
    PATHOLOGICAL = ["region", "--theta-range", "0:0.5:0.5", "--alpha-range",
                    "4:5:1", "--eps", "gaussian:1", "--eta", "gaussian:0.1"]

    @staticmethod
    def _radii(theta):
        return stationarity_radii(ModelParams(
            theta, 4.0, NoiseSpec(NoiseFamily.GAUSSIAN, 1.0),
            NoiseSpec(NoiseFamily.GAUSSIAN, 0.1)))

    def test_pathological_grid_csv_bytes(self, capsysbinary):
        assert main(self.PATHOLOGICAL) == 0
        rho = [f"{r:.17g}" for theta in (0.0, 0.5) for r in self._radii(theta)]
        assert capsysbinary.readouterr().out == (
            "theta,alpha,rho_M,rho_H\r\n"
            f"0,4,{rho[0]},{rho[1]}\r\n"
            "0,5,nan,nan\r\n"
            f"0.5,4,{rho[2]},{rho[3]}\r\n"
            "0.5,5,nan,nan\r\n").encode()

    # alpha 1 (uniform, laplace) or 2 (gaussian, rademacher) puts
    # 2 alpha tau2 = 1 on the grid
    @pytest.mark.parametrize("eta", [
        "gaussian:0.25", "uniform:1.224744871391589", "laplace:0.5",
        "rademacher:0.5", "none"])
    def test_grid_equals_points(self, capsys, eta):
        argv = ["region", "--theta-range", "-1:1:0.1", "--alpha-range",
                "-2:2:0.2", "--eps", "laplace:0.7", "--eta", eta]
        assert main(argv) == 0
        lines = capsys.readouterr().out.splitlines()[1:]
        code, payload = run_json(capsys, argv + ["--format", "json"])
        assert code == 0 and len(lines) == len(payload["rows"]) == 21 * 21
        eps, noise = NoiseSpec(NoiseFamily.LAPLACE, 0.7), parse_noise(eta)
        pathological = 0
        for line, row in zip(lines, payload["rows"]):
            theta, alpha, *radii = map(float, line.split(","))
            assert row[:2] == [theta, alpha]
            try:
                params = ModelParams(theta, alpha, eps, noise)
            except PathologicalParamsError:
                pathological += 1
                assert all(map(math.isnan, radii)) and row[2:] == [None, None]
                continue
            want = stationarity_radii(params)
            assert radii == row[2:] == list(want)
            assert want == reference_radii(params)
        assert pathological == (0 if noise is None else 21)

    def test_pathological_grid_json(self, capsys):
        code, payload = run_json(capsys, self.PATHOLOGICAL + ["--format", "json"])
        assert code == 0
        assert payload == {
            "columns": ["theta", "alpha", "rho_M", "rho_H"],
            "rows": [[0.0, 4.0, *self._radii(0.0)], [0.0, 5.0, None, None],
                     [0.5, 4.0, *self._radii(0.5)], [0.5, 5.0, None, None]],
        }


class TestUsageErrors:
    def test_csv_format_rejected_for_reports(self):
        assert main(["variance", "--theta", "0.3", "--alpha", "0",
                     "--eps", "gaussian:1", "--eta", "gaussian:0.1",
                     "--format", "csv"]) == 2

    def test_csv_format_rejected_before_the_run(self, tmp_path, monkeypatch,
                                                capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(self.MC_PARAMS + "n=50\nreplicates=100\n")
        monkeypatch.setattr("rcar.harness.run_experiment",
                            lambda cfg: pytest.fail("the experiment ran"))
        assert main(["mc", "--experiment", "clt_couple", "--config", str(cfg),
                     "--format", "csv"]) == 2
        assert capsys.readouterr().err == (
            "rcar: configuration error: CSV output is restricted to grids and "
            "trajectories; this subcommand emits JSON\n")

    @pytest.mark.parametrize("grid", ["0,0,0.5", "0,-0.0,0.5"])
    def test_repeated_alpha_grid_exit2(self, tmp_path, monkeypatch, capsys, grid):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(self.MC_PARAMS + f"n=200\nreplicates=100\nalpha_grid={grid}\n")
        monkeypatch.setattr("rcar.harness.run_experiment",
                            lambda cfg: pytest.fail("the experiment ran"))
        assert main(["mc", "--experiment", "size_power", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith(
            "rcar: configuration error: alpha_grid repeats a value")

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_env_seed_fallback(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("RCAR_SEED", "12345")
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        args = ["simulate", "--theta", "0.2", "--alpha", "0",
                "--eps", "gaussian:1", "--eta", "none", "--n", "50"]
        assert main(args + ["--out", str(out_a)]) == 0
        monkeypatch.setenv("RCAR_SEED", "54321")
        assert main(args + ["--out", str(out_b)]) == 0
        assert not np.array_equal(ingest(out_a).x, ingest(out_b).x)

    MOMENTS = ["moments", "--theta", "0.3", "--alpha", "0.5",
               "--eps", "gaussian:1", "--eta", "gaussian:0.1"]
    MC_PARAMS = "theta=0.3\nalpha=0\neps.family=gaussian\neps.scale=1\n"
    MISSING = os.path.join("no-such-directory", "series.csv")

    @pytest.mark.parametrize("argv,config,code,key", [
        (MOMENTS + ["--hmax", "-1"], None, 2, "hmax"),
        (MOMENTS + ["--hmax", "0"], None, 0, None),
        (MOMENTS + ["--hmax", "1"], None, 0, None),
        (["mc", "--experiment", "mixed_moment_oracle"],
         "n=1000000\nreplicates=1\nmu_key=1,2\n", 2, "mu_key"),
        (["mc", "--experiment", "mixed_moment_oracle"],
         "n=1000000\nreplicates=1\nmu_key=9,0,0,0,0\n", 2, "mu_key"),
        (["mc", "--experiment", "clt_couple"],
         "n=50\nreplicates=100\nburn_in=-3\n", 2, "burn_in"),
        (["mc", "--experiment", "clt_couple"], "n=0\nreplicates=100\n", 2, "n"),
        (["mc", "--experiment", "clt_couple"], "n=1e6\nreplicates=100\n", 2, "n"),
        (["mc", "--experiment", "clt_couple"], "theta=abc\n", 2, "theta"),
        (["mc", "--experiment", "clt_couple"], "eps.family=bogus\n", 2,
         "eps.family"),
        # the flags are checked before the missing series is read
        (["estimate", "--in", MISSING, "--eps-family", "bogus"], None, 2,
         "--eps-family"),
        (["test", "--in", MISSING, "--eta-family", "bogus"], None, 2,
         "--eta-family"),
        (["test", "--in", MISSING, "--level", "2"], None, 2, "--level"),
        (["estimate", "--in", MISSING, "--level", "0"], None, 2, "--level"),
        # values whose powers or moments overflow, and a non-finite scale
        (["check", "--theta", "1e200", "--alpha", "0.5", "--eps", "gaussian:1",
          "--eta", "gaussian:0.1"], None, 2, "theta"),
        (["region", "--theta-range", "-1e100:1e100:1e100", "--alpha-range",
          "0:1:0.5", "--eps", "gaussian:1", "--eta", "gaussian:0.1"], None, 2,
         "--theta-range"),
        (["check", "--theta", "0.3", "--alpha", "0.5", "--eps", "gaussian:1",
          "--eta", "gaussian:1e100"], None, 2, "eta.scale"),
        (["check", "--theta", "0.3", "--alpha", "0.5", "--eps", "laplace:1e100",
          "--eta", "gaussian:0.1"], None, 2, "eps.scale"),
        (["check", "--theta", "0.3", "--alpha", "0.5", "--eps", "gaussian:inf",
          "--eta", "gaussian:0.1"], None, 2, "--eps"),
        # the oracle's path length is checked before the moments are solved
        # (at these parameters H3 fails, which would exit 4)
        (["mc", "--experiment", "mixed_moment_oracle"],
         "theta=0.99\nalpha=0.9\neta.family=gaussian\neta.scale=0.5\n"
         "n=1000\nreplicates=1\nmu_key=0,0,0,0,2\n", 2, "n must be >= 1e6"),
        (["mc", "--experiment", "clt_couple", "--workers", "0"],
         "n=50\nreplicates=100\n", 2, "workers"),
        (["mc", "--experiment", "clt_couple", "--workers", "-3"],
         "n=50\nreplicates=100\n", 2, "workers"),
        # "no coefficient noise" is spelt `none` or empty, flag and file
        # alike; a key ending in a newline is the whole message
        (["check", "--theta", "0.3", "--alpha", "0", "--eps", "gaussian:1",
          "--eta", "zero"], None, 2,
         "--eta = zero: cannot parse noise spec 'zero': expected family:scale\n"),
        (["check", "--theta", "0.3", "--alpha", "0", "--eps", "gaussian:1:2",
          "--eta", "gaussian:0.1"], None, 2,
         "--eps = gaussian:1:2: cannot parse noise spec 'gaussian:1:2': "
         "expected family:scale\n"),
        (["mc", "--experiment", "clt_couple"], "eta.family=zero\n", 2,
         "eta.family = zero:"),
        (["check", "--theta", "0.3", "--alpha", "0", "--eps", "none",
          "--eta", "gaussian:0.1"], None, 2, "eps noise cannot be 'none'\n"),
    ], ids=["hmax-1", "hmax0", "hmax1", "mu_key2", "mu_key9", "burn_in-3",
            "n0", "n1e6", "theta_abc", "eps_family_bogus", "estimate_eps_family",
            "test_eta_family", "test_level2", "estimate_level0", "theta1e200",
            "region_range1e100", "eta_gaussian1e100", "eps_laplace1e100",
            "eps_gaussian_inf", "oracle_n1000", "workers0", "workers-3",
            "eta_zero_flag", "eps_two_colons", "eta_family_zero", "eps_none"])
    def test_no_traceback(self, tmp_path, capsys, argv, config, code, key):
        if config is not None:
            cfg = tmp_path / "run.cfg"
            cfg.write_text(self.MC_PARAMS + config)
            argv = argv + ["--config", str(cfg)]
        assert main(argv) == code
        out, err = capsys.readouterr()
        if code and key.endswith("\n"):
            assert err == f"rcar: configuration error: {key}"
        elif code:
            assert err.startswith(f"rcar: configuration error: {key} "), err
        else:
            assert err == ""
            hmax = int(argv[-1])
            acvf = json.loads(out)["acvf"]
            assert len(acvf["gamma"]) == hmax + 1
            assert acvf["theta_star"] == pytest.approx(1 / 3, rel=1e-12)

    REFERENCE = ["--theta", "0.3", "--alpha", "0.5", "--eps", "gaussian:1",
                 "--eta", "gaussian:0.1"]

    @pytest.mark.parametrize("argv,code,label", [
        (["simulate", *REFERENCE, "--n", "0"], 2, "error"),
        (["estimate", "--in", "bad.csv"], 3, "degenerate data"),
        (["variance", *REFERENCE[2:], "--theta", "3"], 4,
         "hypothesis violation"),
        (["variance", *REFERENCE[4:], "--theta", repr(1 / math.sqrt(2)),
          "--alpha", "0"], 5, "pathological parameters"),
        (["variance", *REFERENCE, "--out", MISSING], 1, "i/o error"),
    ], ids=["value", "degenerate", "hypothesis", "pathological", "io"])
    def test_exit_table_rows(self, tmp_path, monkeypatch, capsys, argv, code,
                             label):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "bad.csv").write_text("t,x\n0,1\n1,abc\n")
        assert main(argv) == code
        assert capsys.readouterr().err.startswith(f"rcar: {label}: ")

    @pytest.mark.parametrize("error,code", [
        (NumericError("boom"), 1),
        # an OSError that is also a ValueError takes the earlier row
        (io.UnsupportedOperation("boom"), 2),
    ], ids=["numeric", "unsupported_operation"])
    def test_exit_table_order(self, monkeypatch, capsys, error, code):
        def fail(args):
            raise error
        monkeypatch.setattr(cli, "cmd_check", fail)
        assert main(CHECK_ARGS) == code
        assert capsys.readouterr().err == "rcar: error: boom\n"

    def test_out_of_memory_exits_1(self, monkeypatch, capsys):
        # raised, never allocated: an overcommitting host may grant a huge
        # allocation lazily
        def fail(args):
            raise MemoryError("Unable to allocate 14.9 GiB for an array")
        monkeypatch.setattr(cli, "cmd_check", fail)
        assert main(CHECK_ARGS) == 1
        assert capsys.readouterr().err == (
            "rcar: out of memory: Unable to allocate 14.9 GiB for an array\n")

    @pytest.mark.parametrize("command", [
        ["check", "--theta", "0.3", "--alpha", "0", "--eps", "gaussian:1",
         "--eta", "gaussian:0.2"],
        ["variance", "--theta", "0.3", "--alpha", "0.5", "--eps", "gaussian:1",
         "--eta", "gaussian:0.1"],
    ])
    def test_malformed_env_seed_is_a_configuration_error(self, capsys,
                                                         monkeypatch, command):
        monkeypatch.setenv("RCAR_SEED", "abc")
        assert main(command) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and "RCAR_SEED" in err


#: the values the fuzz test gives each numeric flag
FUZZ_VALUES = (math.inf, -math.inf, math.nan, 1e300, -1e300, 1e-300, -1e-300,
               0.0, -0.5, 0.3, 0.5, 1.0, 2.0)


class TestNumericFlagFuzz:
    """Any value of --theta, --alpha or a noise scale ends in a documented
    exit code with at most one `rcar:` line on stderr; a stray numpy
    warning fails the test (pytest turns RuntimeWarning into an error).
    `simulate` is left out: on an explosive path it doubles its burn-in up
    to 2^16 steps."""

    @settings(max_examples=60, deadline=None)
    # psi0's denominator overflows (theta^4 sigma2^2) on the report-only path
    @example(command="check", theta=1e30, alpha=0.5, eps_scale=1e20,
             eta_scale=1e-9, eps_family=NoiseFamily.LAPLACE,
             eta_family=NoiseFamily.RADEMACHER)
    @given(command=st.sampled_from(["check", "moments", "variance", "region"]),
           theta=st.sampled_from(FUZZ_VALUES), alpha=st.sampled_from(FUZZ_VALUES),
           eps_scale=st.sampled_from(FUZZ_VALUES),
           eta_scale=st.sampled_from(FUZZ_VALUES),
           eps_family=st.sampled_from(NoiseFamily),
           eta_family=st.sampled_from(NoiseFamily))
    def test_exit_code_and_one_line(self, command, theta, alpha, eps_scale,
                                    eta_scale, eps_family, eta_family):
        if command == "region":
            argv = [command, f"--theta-range={theta!r}:{theta!r}:1",
                    f"--alpha-range={alpha!r}:{alpha!r}:1"]
        else:
            argv = [command, f"--theta={theta!r}", f"--alpha={alpha!r}"]
        argv += [f"--eps={eps_family.value}:{eps_scale!r}",
                 f"--eta={eta_family.value}:{eta_scale!r}"]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2, 3, 4, 5), argv
        if code == 0:
            assert err.getvalue() == "", argv
            if command != "region":
                json.loads(out.getvalue(), parse_constant=pytest.fail)
        else:
            assert err.getvalue().startswith("rcar: "), argv
            assert err.getvalue().count("\n") == 1, (argv, err.getvalue())
