import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rcar.errors import DegenerateDataError, HypothesisError
from rcar.model import ModelParams, NoiseFamily, NoiseSpec
from rcar.second_order import build_second_order
from rcar.simulate import (FORGET_TOL, CoefficientPath, Trajectory,
                           _draw_noise, ingest, mix64, replicate_seed, simulate,
                           simulate_block, simulate_coefficients,
                           simulate_with_noise, write_csv)

from conftest import batch_se

GAUSS1 = NoiseSpec(NoiseFamily.GAUSSIAN, 1.0)
#: slowly forgetting: the default check doubles a burn-in of 5 several times
SLOW = ModelParams(0.9, 0.3, GAUSS1, NoiseSpec(NoiseFamily.GAUSSIAN, 0.01))


def sequential_path(params, seed, burn, n, start=0.0):
    """X_0..X_n by the plain Python-float recurrence on the simulator's
    noise, started at `start` `burn` steps before X_0."""
    eta, eps = _draw_noise(params, seed, burn + n)
    th = (params.theta + params.alpha * eta[:-1] + eta[1:]).tolist()
    e = eps.tolist()
    path = [start]
    for s in range(1, burn + n + 1):
        path.append(th[s - 1] * path[-1] + e[s])
    return np.array(path[burn:])


class TestDeterminism:
    def test_bitwise_identical_runs(self, params_accept):
        a = simulate(params_accept, 500, seed=99)
        b = simulate(params_accept, 500, seed=99)
        assert np.array_equal(a.x, b.x)

    def test_seed_changes_path(self, params_accept):
        a = simulate(params_accept, 500, seed=99)
        b = simulate(params_accept, 500, seed=100)
        assert not np.array_equal(a.x, b.x)

    def test_block_matches_scalar(self, params_accept):
        block = simulate_block(params_accept, 300, master_seed=7,
                               replicates=range(3, 6))
        for i, r in enumerate(range(3, 6)):
            single = simulate(params_accept, 300, seed=replicate_seed(7, r))
            assert np.array_equal(block[i], single.x)

    def test_block_invariant_to_grouping(self, params_accept):
        whole = simulate_block(params_accept, 200, master_seed=3, replicates=range(8))
        parts = np.vstack([
            simulate_block(params_accept, 200, master_seed=3, replicates=range(0, 5)),
            simulate_block(params_accept, 200, master_seed=3, replicates=range(5, 8)),
        ])
        assert np.array_equal(whole, parts)

    @pytest.mark.parametrize("n, burn_in", [(0, 10), (10, -1)])
    def test_bad_lengths_rejected(self, params_accept, n, burn_in):
        with pytest.raises(ValueError):
            simulate(params_accept, n, seed=1, burn_in=burn_in)
        with pytest.raises(ValueError):
            simulate_block(params_accept, n, master_seed=1, replicates=range(2),
                           burn_in=burn_in)

    def test_mixer_avalanche(self):
        # distinct replicate indices must give well-separated seeds
        seeds = {replicate_seed(42, r) for r in range(10_000)}
        assert len(seeds) == 10_000
        assert mix64(0, 0) != 0


class TestStationaryBehavior:
    def test_sample_variance_matches_lambda0(self):
        params = ModelParams(0.3, 0.0, GAUSS1, NoiseSpec(NoiseFamily.GAUSSIAN, 0.2))
        so = build_second_order(params)
        traj = simulate(params, 1_000_000, seed=5)
        values = traj.x**2
        assert abs(values.mean() - so.lambda0) <= 3 * batch_se(values)

    def test_initial_condition_forgotten(self, params_accept):
        # twin recurrences from 0 and 100 on the same noise coincide after
        # the default burn-in
        burn, n = 2000, 10
        y = sequential_path(params_accept, 123, burn, n)[0]
        z = sequential_path(params_accept, 123, burn, n, start=100.0)[0]
        assert abs(y - z) < 1e-8
        assert simulate(params_accept, n, seed=123).x[0] == pytest.approx(y)

    def test_replicate_cross_correlation_null(self, params_accept):
        n = 20_000
        block = simulate_block(params_accept, n, master_seed=11, replicates=range(2))
        a, b = block[0], block[1]
        corr = np.corrcoef(a, b)[0, 1]
        assert abs(corr) < 4 / np.sqrt(n)

    def test_explosive_process_rejected(self):
        params = ModelParams(3.0, 0.0, GAUSS1, None)
        with pytest.raises(HypothesisError):
            simulate(params, 100, seed=1)


class TestBurnInDoubling:
    @pytest.mark.parametrize("burn_in", [5, 6])
    def test_doubles_until_forgotten(self, burn_in):
        traj = simulate(SLOW, 300, seed=3, burn_in=burn_in)
        doublings = int(np.log2(traj.burn_in // burn_in))
        assert doublings >= 1 and traj.burn_in == burn_in * 2**doublings
        assert np.array_equal(traj.x, sequential_path(SLOW, 3, traj.burn_in, 300))
        for burn, forgotten in ((traj.burn_in, True), (traj.burn_in // 2, False)):
            gap = (sequential_path(SLOW, 3, burn, 300, start=100.0)[0]
                   - sequential_path(SLOW, 3, burn, 300)[0])
            assert bool(abs(gap) < FORGET_TOL) is forgotten

    def test_block_rows_match_scalar(self):
        # at burn-in 6 the rows stop doubling at different burn-ins
        block = simulate_block(SLOW, 300, master_seed=4, replicates=range(8),
                               burn_in=6)
        burns = set()
        for r in range(8):
            single = simulate(SLOW, 300, seed=replicate_seed(4, r), burn_in=6)
            burns.add(single.burn_in)
            assert np.array_equal(block[r], single.x)
        assert len(burns) > 1 and min(burns) > 6

    def test_retained_noise_rebuilds_path(self):
        traj, eta, eps = simulate_with_noise(SLOW, 300, seed=3, burn_in=5)
        assert traj.burn_in > 5
        th = SLOW.theta + SLOW.alpha * eta[:-1] + eta[1:]
        assert np.allclose(th * traj.x[:-1] + eps[1:], traj.x[1:], atol=0)


class TestFoldedRecurrence:
    # a path of burn_in + n > 2**14 steps is folded into segments run side
    # by side; shorter paths are the plain sequential recurrence
    @pytest.mark.parametrize("burn_in, n", [(0, 1), (2000, 10), (0, 2**14),
                                            (2000, 2**14 - 2000)])
    def test_unfolded_path_is_sequential(self, params_accept, burn_in, n):
        traj = simulate(params_accept, n, seed=8, burn_in=burn_in)
        assert np.array_equal(traj.x, sequential_path(params_accept, 8, burn_in, n))

    @pytest.mark.parametrize("burn_in", [0, 2000])
    def test_folded_path_within_roundoff(self, params_accept, burn_in):
        n = 50_003  # four segments after a three-step head
        traj = simulate(params_accept, n, seed=8, burn_in=burn_in)
        ref = sequential_path(params_accept, 8, burn_in, n)
        assert np.max(np.abs(traj.x - ref)) <= 1e-13

    def test_folded_block_rows_match_scalar(self, params_accept):
        n = 31_005  # three segments after a two-step head
        block = simulate_block(params_accept, n, master_seed=5,
                               replicates=range(2, 5))
        for i, r in enumerate(range(2, 5)):
            single = simulate(params_accept, n, seed=replicate_seed(5, r))
            assert np.array_equal(block[i], single.x)


class TestCoefficients:
    def test_autocovariances(self):
        params = ModelParams(0.3, 0.5, GAUSS1, NoiseSpec(NoiseFamily.GAUSSIAN, 0.1))
        path = simulate_coefficients(params, 1_000_000, seed=17)
        th = path.theta - path.theta.mean()
        n = len(th)
        t2, al = 0.1, 0.5
        for lag, target in ((0, t2 * (1 + al**2)), (1, al * t2), (2, 0.0)):
            prod = th[: n - lag] * th[lag:]
            assert abs(prod.mean() - target) <= 3 * batch_se(prod), f"lag {lag}"

    def test_uncorrelated_lag1(self):
        params = ModelParams(0.3, 0.0, GAUSS1, NoiseSpec(NoiseFamily.GAUSSIAN, 0.1))
        path = simulate_coefficients(params, 1_000_000, seed=18)
        th = path.theta - path.theta.mean()
        prod = th[:-1] * th[1:]
        assert abs(prod.mean()) <= 3 * batch_se(prod)

    def test_aligned_with_trajectory(self, params_accept):
        n = 200
        traj, eta, eps = simulate_with_noise(params_accept, n, seed=55, burn_in=0)
        path = simulate_coefficients(params_accept, n, seed=55)
        th = (params_accept.theta + params_accept.alpha * eta[:-1] + eta[1:])
        assert np.array_equal(path.theta, th)
        recon = th * traj.x[:-1] + eps[1:]
        assert np.allclose(recon, traj.x[1:], atol=0)

    def test_eta_none_constant(self):
        path = simulate_coefficients(ModelParams(0.4, 0.0, GAUSS1, None),
                                     50, seed=1)
        assert isinstance(path, CoefficientPath)
        assert np.array_equal(path.theta, np.full(50, 0.4))


class TestTrajectoryType:
    def test_length_invariant(self):
        with pytest.raises(DegenerateDataError):
            Trajectory(x=np.zeros(5), n=7)

    def test_finite_invariant(self):
        with pytest.raises(DegenerateDataError):
            Trajectory(x=np.array([0.0, np.inf]), n=1)


FLOATS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
     np.finfo(float).max, -np.finfo(float).max])


class TestCsvInterchange:
    def test_golden_bytes(self, tmp_path):
        path = tmp_path / "s.csv"
        write_csv(Trajectory(x=np.array([1.5, -0.1, 5e-324]), n=2), path)
        assert path.read_bytes() == (b"t,x\r\n0,1.5\r\n1,-0.10000000000000001\r\n"
                                     b"2,4.9406564584124654e-324\r\n")

    @settings(max_examples=60, deadline=None)
    @given(st.lists(FLOATS, min_size=2, max_size=40))
    def test_roundtrip_bitwise_any_double(self, values):
        x = np.array(values)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "s.csv")
            write_csv(Trajectory(x=x, n=len(x) - 1), path)
            back = ingest(path).x
        assert back.tobytes() == x.tobytes()
        assert back.dtype == np.float64 and back.flags.c_contiguous

    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    def test_line_endings_accepted(self, tmp_path, newline):
        path = tmp_path / "s.csv"
        path.write_bytes(newline.join(["t,x", "0,1.5", "1,-2", "2,0.25", ""]).encode())
        assert np.array_equal(ingest(path).x, [1.5, -2.0, 0.25])

    def test_three_fields_names_line(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("t,x\n0,1.0\n1,2.0,3.0\n2,0.5\n")
        with pytest.raises(DegenerateDataError, match=r":3: expected two fields, got 3"):
            ingest(path)

    def test_comment_line_rejected(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("t,x\n0,1.0\n# note\n1,2.0\n")
        with pytest.raises(DegenerateDataError, match=":3:"):
            ingest(path)

    def test_blank_lines_skipped_and_counted(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("t,x\n0,1.0\n\n1,2.0\n\n\n2,3.0\n")
        assert np.array_equal(ingest(path).x, [1.0, 2.0, 3.0])
        path.write_text("t,x\n0,1.0\n\n1,2.0\n\n\n2,oops\n")
        with pytest.raises(DegenerateDataError, match=":7:"):
            ingest(path)

    def test_gap_after_blank_line_names_line(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("t,x\n0,1.0\n\n1,2.0\n\n3,3.0\n")
        with pytest.raises(DegenerateDataError,
                           match=r":6: index 3 breaks the contiguous sequence"):
            ingest(path)

    def test_roundtrip_bitwise(self, tmp_path, params_accept):
        traj = simulate(params_accept, 300, seed=2)
        path = tmp_path / "series.csv"
        write_csv(traj, path)
        back = ingest(path)
        assert back.n == traj.n
        assert np.array_equal(back.x, traj.x)

    def test_three_rows(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("t,x\n0,1.5\n1,-2.0\n2,0.25\n")
        traj = ingest(path)
        assert traj.n == 2
        assert np.array_equal(traj.x, [1.5, -2.0, 0.25])

    def test_missing_header(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("a,b\n0,1\n")
        with pytest.raises(DegenerateDataError, match="header"):
            ingest(path)

    def test_bad_cell_names_line(self, tmp_path):
        path = tmp_path / "s.csv"
        rows = [f"{t},{t * 0.1}" for t in range(10)]
        rows[5] = "5,not-a-number"  # line 7 including the header
        path.write_text("t,x\n" + "\n".join(rows) + "\n")
        with pytest.raises(DegenerateDataError, match=":7"):
            ingest(path)

    def test_gap_rejected(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("t,x\n0,1.0\n2,2.0\n")
        with pytest.raises(DegenerateDataError, match="contiguous"):
            ingest(path)

    def test_undecodable_byte_names_line(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_bytes(b"t,x\n0,1.0\n1,\xff\n2,3.0\n")
        with pytest.raises(DegenerateDataError, match=r":3: expected an integer"):
            ingest(path)

    def test_undecodable_byte_in_header(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_bytes(b"t,\xffx\n0,1.0\n1,2.0\n")
        with pytest.raises(DegenerateDataError, match="expected header 't,x'"):
            ingest(path)

    def test_non_finite_rejected(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("t,x\n0,1.0\n1,inf\n")
        with pytest.raises(DegenerateDataError, match="non-finite"):
            ingest(path)
