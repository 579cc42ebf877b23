import csv
import json
import math

import numpy as np
import pytest

from rcar.cli import main
from rcar.model import ModelParams, NoiseFamily, NoiseSpec
from rcar.simulate import ingest, simulate

CHECK_ARGS = ["check", "--theta", "0.3", "--alpha", "0",
              "--eta", "gaussian:0.2", "--eps", "gaussian:1"]


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


class TestVariance:
    def test_keys_and_values(self, capsys):
        code, payload = run_json(capsys, [
            "variance", "--theta", "0.3", "--alpha", "0.5",
            "--eps", "gaussian:1", "--eta", "gaussian:0.1"])
        assert code == 0
        assert payload["theta_star"] == pytest.approx(1 / 3, rel=1e-12)
        for key in ("vartheta_star", "kappa2", "omega2", "Sigma", "Psi", "psi0"):
            assert key in payload

    def test_pathological_exit5(self):
        theta = 1 / math.sqrt(2)
        assert main(["variance", "--theta", repr(theta), "--alpha", "0",
                     "--eps", "gaussian:1", "--eta", "gaussian:0.02"]) == 5


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

    def test_stdout_matches_out_file(self, tmp_path, capsysbinary):
        out = tmp_path / "series.csv"
        args = ["simulate", *self.ARGS, "--n", "200", "--seed", "3"]
        assert main(args + ["--out", str(out)]) == 0
        assert main(args) == 0
        assert capsysbinary.readouterr().out == out.read_bytes()

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

    def test_worker_count_invariance(self, tmp_path, capsys):
        cfg = tmp_path / "run.toml"
        cfg.write_text(
            "theta = 0.3\nalpha = 0.5\neps.family = gaussian\neps.scale = 1\n"
            "eta.family = gaussian\neta.scale = 0.1\nn = 400\n"
            "replicates = 600\nmaster_seed = 4\n"
        )
        _, a = run_json(capsys, ["mc", "--experiment", "clt_theta",
                                 "--config", str(cfg), "--workers", "1"])
        _, b = run_json(capsys, ["mc", "--experiment", "clt_theta",
                                 "--config", str(cfg), "--workers", "2"])
        assert a["empirical"] == b["empirical"]

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


class TestUsageErrors:
    def test_csv_format_rejected_for_reports(self):
        assert main(["variance", "--theta", "0.3", "--alpha", "0",
                     "--eps", "gaussian:1", "--eta", "gaussian:0.1",
                     "--format", "csv"]) == 2

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

    @pytest.mark.parametrize("command", [
        ["check", "--theta", "0.3", "--alpha", "0", "--eps", "gaussian:1",
         "--eta", "gaussian:0.2", "--mc-draws", "1000"],
        ["variance", "--theta", "0.3", "--alpha", "0.5", "--eps", "gaussian:1",
         "--eta", "gaussian:0.1"],
    ])
    def test_malformed_env_seed_is_a_configuration_error(self, capsys,
                                                         monkeypatch, command):
        monkeypatch.setenv("RCAR_SEED", "abc")
        assert main(command) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and "RCAR_SEED" in err
