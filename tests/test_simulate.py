import contextlib
import dataclasses
import importlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rcar import cli, harness
from rcar.errors import DegenerateDataError, HypothesisError
from rcar.estimate import correlation_test
from rcar.harness import MCConfig, run_experiment
from rcar.model import ModelParams, NoiseFamily, NoiseSpec, log_moment
from rcar.second_order import build_second_order
from rcar.series_csv import ingest, write_csv
from rcar.simulate import (DEFAULT_BURN_IN, EXPLOSION_LIMIT, FORGET_TOL,
                           GENERATOR_ID, MAX_BURN_IN, Trajectory, _EPS_BURN,
                           _EPS_STREAM, _ETA_BURN, _ETA_STREAM, _FOLD,
                           _TIME_BLOCK, _TWIN_START, _check_explosion,
                           _block_noise, _recur, _simulate_rows, block_noise,
                           burn_in_for, mix64, replicate_seed, simulate,
                           simulate_block, simulate_with_noise)

from conftest import batch_se

#: the modules, for patching their constants (`rcar.simulate` is the function)
SIM = importlib.import_module("rcar.simulate")
CSV = importlib.import_module("rcar.series_csv")

GAUSS1 = NoiseSpec(NoiseFamily.GAUSSIAN, 1.0)
#: slowly forgetting: the default check doubles a burn-in of 5 several times
SLOW = ModelParams(0.9, 0.3, GAUSS1, NoiseSpec(NoiseFamily.GAUSSIAN, 0.01))


MASK64 = 2**64 - 1


def _stream(seed, tag):
    """numpy's own generator for a stream: the oracle the simulator's
    re-keyed bit generator must reproduce. The key is passed as one Python
    int: a list key goes through float64 and rounds words of 2**63 or more."""
    return np.random.Generator(np.random.Philox(key=mix64(seed & MASK64, tag)))


def stream_noise(params, seed, burn, n):
    """eta and eps over the burn-in and X_0..X_n, in time order, from the
    raw streams: the first `burn` draws of the burn-in tags, reversed, then
    the first n + 1 draws of the retained tags."""
    def ordered(spec, tag, burn_tag):
        if spec is None:
            return np.zeros(burn + n + 1)
        before = spec.sample(_stream(seed, burn_tag), burn)[::-1]
        return np.concatenate([before, spec.sample(_stream(seed, tag), n + 1)])
    return (ordered(params.eta, _ETA_STREAM, _ETA_BURN),
            ordered(params.eps, _EPS_STREAM, _EPS_BURN))


def python_recurrence(c, e, y) -> list:
    """y_t = c_t y_{t-1} + e_t for each pair of c and e, y_{-1} = y, in
    Python floats: the bitwise reference of the recurrence."""
    out = []
    for ct, et in zip(c, e):
        y = ct * y + et
        out.append(y)
    return out


def sequential_path(params, seed, burn, n, start=0.0):
    """X_0..X_n by the plain Python-float recurrence on the simulator's
    noise, started at `start` `burn` steps before X_0."""
    eta, eps = stream_noise(params, seed, burn, n)
    th = (params.theta + params.alpha * eta[:-1] + eta[1:]).tolist()
    path = [start, *python_recurrence(th, eps[1:].tolist(), start)]
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

    def test_numpy_integer_seeds(self, params_accept):
        # numpy scalars and index arrays seed exactly as Python ints do
        base = simulate(params_accept, 50, seed=5).x
        for seed in (np.int64(5), np.uint64(5)):
            assert simulate(params_accept, 50, seed).x.tobytes() == base.tobytes()
        block = simulate_block(params_accept, 50, 7, range(3))
        for master in (7, np.int64(7), np.uint64(7)):
            rows = simulate_block(params_accept, 50, master, np.arange(3))
            assert rows.tobytes() == block.tobytes()
        with pytest.raises(TypeError):
            simulate(params_accept, 50, seed=5.0)
        cfg = dict(params=params_accept, n=200, replicates=100,
                   experiment="clt_theta")
        want = run_experiment(MCConfig(master_seed=3, **cfg))
        got = run_experiment(MCConfig(master_seed=np.int64(3), **cfg))
        assert (got.to_dict(include_replicates=True)
                == want.to_dict(include_replicates=True))
        # the echoed seed is a Python int, so both reports are JSON
        assert json.dumps(got.to_dict()) == json.dumps(want.to_dict())

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


class TestKeyedStreams:
    def test_known_answer_raw_words(self):
        # the first raw Philox words of each stream of seed 0; raw output is
        # fixed by the algorithm, so a change to mix64 or to a tag shows here
        # even though it would move the simulator and the oracle alike
        expected = {
            _ETA_STREAM: [0x96441330242FE580, 0x239F5038DC56863A],
            _EPS_STREAM: [0xC5EDA90EEE23DCCA, 0xDC8FF68E457076DB],
            _ETA_BURN: [0x36CD7B895F79C2AF, 0x1382575374FF1ABA],
            _EPS_BURN: [0x63201E51159FFED3, 0xA005A53F7E75C488],
        }
        for tag, words in expected.items():
            assert _stream(0, tag).bit_generator.random_raw(2).tolist() == words, hex(tag)

    @pytest.mark.parametrize("eps, eta", [
        (GAUSS1, NoiseSpec(NoiseFamily.GAUSSIAN, 0.1)),
        (NoiseSpec(NoiseFamily.LAPLACE, 0.7), NoiseSpec(NoiseFamily.LAPLACE, 0.2)),
        (NoiseSpec(NoiseFamily.UNIFORM, 1.2), NoiseSpec(NoiseFamily.UNIFORM, 0.3)),
        (NoiseSpec(NoiseFamily.RADEMACHER, 1.0), NoiseSpec(NoiseFamily.RADEMACHER, 0.3)),
        (GAUSS1, None),
    ], ids=["gaussian", "laplace", "uniform", "rademacher", "eta-none"])
    def test_block_rows_equal_oracle_streams(self, eps, eta):
        params = ModelParams(0.3, 0.2, eps, eta)
        seeds = [replicate_seed(9, r) for r in range(4)] + [-5, 2**64 + 3]
        n, burn = 101, 17
        block_eta, block_eps, _ = _block_noise(params, seeds, n, burn)
        for i, seed in enumerate(seeds):
            eta_i, eps_i = stream_noise(params, seed, burn, n)
            assert block_eta[i].tobytes() == eta_i.tobytes()
            assert block_eps[i].tobytes() == eps_i.tobytes()

    def test_empty_block(self, params_accept):
        block = simulate_block(params_accept, 40, master_seed=1, replicates=[])
        assert block.shape == (0, 41)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 2 * EXPLOSION_LIMIT])
    def test_explosion_check_rejects_row(self, bad):
        x = np.zeros((3, 5))
        _check_explosion(x)
        x[1, 2] = bad
        with pytest.raises(HypothesisError):
            _check_explosion(x)


FAMILY_PARAMS = [
    ModelParams(0.3, 0.4, GAUSS1, NoiseSpec(NoiseFamily.GAUSSIAN, 0.1)),
    ModelParams(-0.4, 0.2, NoiseSpec(NoiseFamily.LAPLACE, 0.7),
                NoiseSpec(NoiseFamily.LAPLACE, 0.2)),
    ModelParams(0.6, -0.3, NoiseSpec(NoiseFamily.UNIFORM, 1.2),
                NoiseSpec(NoiseFamily.UNIFORM, 0.3)),
    ModelParams(0.3, 0.5, NoiseSpec(NoiseFamily.RADEMACHER, 1.0),
                NoiseSpec(NoiseFamily.RADEMACHER, 0.3)),
    ModelParams(0.5, 0.0, GAUSS1, None),
]
FAMILY_IDS = ["gaussian", "laplace", "uniform", "rademacher", "eta-none"]


class TestStreamLayout:
    # layout 4: keys (mix64(seed, tag), 0); the burn-in has streams of its
    # own, laid backward from X_0, so nothing in a path depends on n
    def test_generator_id(self):
        assert GENERATOR_ID.endswith("layout 4")

    @pytest.mark.parametrize("params", FAMILY_PARAMS, ids=FAMILY_IDS)
    @pytest.mark.parametrize("burn_in", [None, 13, 0])
    def test_path_is_prefix_of_longer_path(self, params, burn_in):
        n = 100
        short = simulate(params, n, seed=7, burn_in=burn_in)
        unfolded = simulate(params, 3 * n, seed=7, burn_in=burn_in)
        assert unfolded.burn_in == short.burn_in
        assert unfolded.x[:n + 1].tobytes() == short.x.tobytes()
        folded = simulate(params, _FOLD + 500, seed=7, burn_in=burn_in)
        assert folded.x[:n + 1].tobytes() == short.x.tobytes()
        # two folded lengths with different segment counts and tails
        two = simulate(params, 2 * _FOLD + 7, seed=7, burn_in=burn_in)
        five = simulate(params, 5 * _FOLD + 100, seed=7, burn_in=burn_in)
        assert five.x[:2 * _FOLD + 8].tobytes() == two.x.tobytes()
        block = simulate_block(params, n, master_seed=2, replicates=range(4),
                               burn_in=burn_in)
        longer = simulate_block(params, 3 * n, master_seed=2, replicates=range(4),
                                burn_in=burn_in)
        assert longer[:, :n + 1].tobytes() == block.tobytes()

    @pytest.mark.parametrize("params", FAMILY_PARAMS, ids=FAMILY_IDS)
    def test_doubled_burn_in_keeps_nearer_half(self, params):
        seeds, n, burn = [replicate_seed(9, r) for r in range(3)] + [-5], 40, 17
        near = _block_noise(params, seeds, n, burn)[:2]
        far = _block_noise(params, seeds, n, 2 * burn)[:2]
        for a, b in zip(far, near):
            assert a[:, burn:].tobytes() == b.tobytes()

    def test_doubling_row_keeps_nearer_half(self):
        traj = simulate(SLOW, 300, seed=3, burn_in=5)
        assert traj.burn_in >= 10
        burn, near = 5, _block_noise(SLOW, [3], 300, 5)[:2]
        while burn < traj.burn_in:
            far = _block_noise(SLOW, [3], 300, 2 * burn)[:2]
            for a, b in zip(far, near):
                assert a[:, burn:].tobytes() == b.tobytes()
            burn, near = 2 * burn, far
        assert np.array_equal(traj.x, sequential_path(SLOW, 3, traj.burn_in, 300))

    @pytest.mark.parametrize("family", list(NoiseFamily), ids=lambda f: f.value)
    @pytest.mark.parametrize("a, b", [(0, 7), (1, 1000), (17, 101), (1001, 3)])
    def test_split_draw_equals_one_draw(self, family, a, b):
        # numpy behaviour that the prefix property rests on, pinned here:
        # sample(a + b) is sample(a) followed by sample(b) on one generator
        spec = NoiseSpec(family, 0.7)
        whole = spec.sample(_stream(11, _EPS_STREAM), a + b)
        rng = _stream(11, _EPS_STREAM)
        parts = np.concatenate([spec.sample(rng, a), spec.sample(rng, b)])
        assert parts.tobytes() == whole.tobytes()


class TestStationaryBehavior:
    def test_sample_variance_matches_lambda0(self):
        params = ModelParams(0.3, 0.0, GAUSS1, NoiseSpec(NoiseFamily.GAUSSIAN, 0.2))
        so = build_second_order(params)
        traj = simulate(params, 1_000_000, seed=5)
        values = traj.x**2
        assert abs(values.mean() - so.lambda0) <= 3 * batch_se(values)

    def test_initial_condition_forgotten(self, params_accept):
        # twin recurrences from 0 and 100 on the same noise coincide after
        # the default burn-in, which is derived from the contraction rate
        burn, n = burn_in_for(params_accept), 10
        y = sequential_path(params_accept, 123, burn, n)[0]
        z = sequential_path(params_accept, 123, burn, n, start=100.0)[0]
        assert abs(y - z) < 1e-8
        traj = simulate(params_accept, n, seed=123)
        assert traj.burn_in == burn and traj.x[0] == pytest.approx(y)

    def test_replicate_cross_correlation_null(self, params_accept):
        n = 20_000
        block = simulate_block(params_accept, n, master_seed=11, replicates=range(2))
        a, b = block[0], block[1]
        corr = np.corrcoef(a, b)[0, 1]
        assert abs(corr) < 4 / np.sqrt(n)

    def test_explosive_process_rejected(self):
        # the contraction rate ln 3 > 0 gives no derived start
        params = ModelParams(3.0, 0.0, GAUSS1, None)
        assert burn_in_for(params) == DEFAULT_BURN_IN
        with pytest.raises(HypothesisError):
            simulate(params, 100, seed=1)

    @pytest.mark.parametrize("run", [
        lambda p: simulate(p, 1000, seed=1, burn_in=0),
        lambda p: simulate_with_noise(p, 1000, seed=1, burn_in=0),
        lambda p: simulate_block(p, 1000, master_seed=1, replicates=range(3),
                                 burn_in=0),
    ], ids=["simulate", "simulate_with_noise", "simulate_block"])
    def test_explosion_rejected_at_every_entry_point(self, run):
        # burn-in 0 skips the twin check, so 3^1000 reaches the explosion check
        with pytest.raises(HypothesisError, match="exploded"):
            run(ModelParams(3.0, 0.0, GAUSS1, None))


class TestDerivedBurnIn:
    def test_value_from_contraction_rate(self, params_accept):
        # reference parameters: E ln|theta_t| = -1.354, so ~17 steps shrink
        # the twin gap below the tolerance and the margin doubles that
        rate, err = log_moment(params_accept)
        steps = math.log(_TWIN_START / FORGET_TOL) / -(rate + err)
        assert 17 < steps < 18
        assert burn_in_for(params_accept) == math.ceil(2 * steps) == 35

    @pytest.mark.parametrize("theta, burn", [(0.0, 1), (0.9999, MAX_BURN_IN)])
    def test_floor_and_cap(self, theta, burn):
        # eta none: the rate is ln|theta|, -inf at 0 and -1e-4 near 1
        assert burn_in_for(ModelParams(theta, 0.0, GAUSS1, None)) == burn

    def test_default_is_derived(self, params_accept):
        burn = burn_in_for(params_accept)
        derived = simulate(params_accept, 500, 9, burn_in=burn)
        for traj in (simulate(params_accept, 500, 9),
                     simulate(params_accept, 500, 9, None)):
            assert traj.burn_in == burn
            assert traj.x.tobytes() == derived.x.tobytes()
        block = simulate_block(params_accept, 500, 9, range(3))
        assert block.tobytes() == simulate_block(params_accept, 500, 9, range(3),
                                                 burn).tobytes()

    @pytest.mark.parametrize("params", [
        ModelParams(0.3, 0.5, GAUSS1, NoiseSpec(NoiseFamily.GAUSSIAN, 0.1)),
        ModelParams(-0.4, 0.2, NoiseSpec(NoiseFamily.LAPLACE, 0.7),
                    NoiseSpec(NoiseFamily.UNIFORM, 0.5)),
        ModelParams(0.6, -0.3, NoiseSpec(NoiseFamily.UNIFORM, 1.2),
                    NoiseSpec(NoiseFamily.RADEMACHER, 0.3)),
    ], ids=["gaussian", "laplace-uniform", "uniform-rademacher"])
    def test_retained_noise_independent_of_burn_in(self, params):
        n = 300
        head = stream_noise(params, 21, 0, n)
        for burn in (0, 1, None, DEFAULT_BURN_IN):
            _, eta, eps = simulate_with_noise(params, n, 21, burn_in=burn)
            assert eta.tobytes() == head[0].tobytes()
            assert eps.tobytes() == head[1].tobytes()

    def test_doubled_row_keeps_retained_noise(self):
        traj, eta, eps = simulate_with_noise(SLOW, 300, seed=3, burn_in=5)
        assert traj.burn_in > 5
        _, eta0, eps0 = simulate_with_noise(SLOW, 300, seed=3, burn_in=0)
        assert eta.tobytes() == eta0.tobytes() and eps.tobytes() == eps0.tobytes()


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

    def test_doubled_row_redraws_only_its_burn_in(self, monkeypatch):
        drawn, sample = [], NoiseSpec.sample

        def counting(spec, rng, size, out=None):
            drawn.append(size)
            return sample(spec, rng, size, out)

        monkeypatch.setattr(NoiseSpec, "sample", counting)
        traj = simulate(SLOW, 10_000, seed=3, burn_in=5)
        assert traj.burn_in == 320
        # eta and eps: n + 1 retained values once, the burn-in at 5 and at
        # each of its six doublings to 320, and X_0's retained value again
        # with each doubling: 2(n + 1) + 2(5 + 10 + ... + 320) + 2 * 6
        assert sum(drawn) == 2 * 10_001 + 2 * (5 * (2**7 - 1)) + 2 * 6 == 21_284
        head = sequential_path(SLOW, 3, 320, _FOLD)
        assert traj.x[:_FOLD + 1].tobytes() == head.tobytes()

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
    # the burn-in runs from 0 to X_0, then X_1..X_n from X_0; a stage of
    # more than _FOLD steps is cut every _FOLD steps from its first step
    # (X_1 for the kept path) into pieces run side by side, and shorter
    # stages are the plain sequential recurrence
    @pytest.mark.parametrize("burn_in, n", [(0, 1), (2000, 10), (0, _FOLD),
                                            (2000, _FOLD - 2000), (2000, _FOLD)])
    def test_unfolded_path_is_sequential(self, params_accept, burn_in, n):
        traj = simulate(params_accept, n, seed=8, burn_in=burn_in)
        assert np.array_equal(traj.x, sequential_path(params_accept, 8, burn_in, n))

    @pytest.mark.parametrize("burn_in", [0, 2000])
    def test_folded_path_within_roundoff(self, params_accept, burn_in):
        n = 50_003  # six segments and a tail of 851 steps
        traj = simulate(params_accept, n, seed=8, burn_in=burn_in)
        ref = sequential_path(params_accept, 8, burn_in, n)
        assert np.max(np.abs(traj.x - ref)) <= 1e-13

    @pytest.mark.parametrize("burn_in", [0, 35, 2000])
    def test_folded_head_is_sequential(self, params_accept, burn_in):
        # the cuts count from X_1 whatever the burn-in
        n = 3 * _FOLD + 11
        traj = simulate(params_accept, n, seed=8, burn_in=burn_in)
        head = sequential_path(params_accept, 8, burn_in, _FOLD)
        assert traj.x[:_FOLD + 1].tobytes() == head.tobytes()

    def test_folded_block_rows_match_scalar(self, params_accept):
        # three segments and a ragged tail, then three segments and an
        # empty tail: n is 3 * _FOLD
        burn = burn_in_for(params_accept)
        for n in (31_005, 3 * _FOLD):
            block = simulate_block(params_accept, n, master_seed=5,
                                   replicates=range(2, 5))
            for i, r in enumerate(range(2, 5)):
                single = simulate(params_accept, n, seed=replicate_seed(5, r))
                assert single.burn_in == burn
                assert np.array_equal(block[i], single.x)


#: steps around the fold: none, one, a segment short of one step, a
#: segment, one step past it, and two segments and a ragged tail
KERNEL_STEPS = [0, 1, _FOLD - 1, _FOLD, _FOLD + 1, 2 * _FOLD + 7]


def kernel_rows(steps):
    """(c, e, y) of four rows: ordinary values, then a coefficient of inf,
    a first product past 1e308 and an innovation of nan, each halfway."""
    rng = np.random.default_rng(steps)
    c = rng.uniform(-1.0, 1.0, (4, steps))
    e = rng.normal(size=(4, steps))
    y = np.array([0.7, -2.5, 1e200, 3.0])
    if steps:
        c[1, steps // 2] = math.inf
        c[2, 0] = -1e200
        e[3, steps // 2] = math.nan
    return c, e, y


class TestRecurrenceKernel:
    """`_recur` runs one multiply, then one add, a step over time-major
    column views, so a row is bitwise the same alone, in a block, and as
    the Python-float recurrence."""

    @pytest.mark.parametrize("stitch", [False, True], ids=["whole", "stitched"])
    @pytest.mark.parametrize("steps", KERNEL_STEPS)
    def test_row_bitwise_in_every_shape(self, steps, stitch):
        c, e, y = kernel_rows(steps)
        with np.errstate(over="ignore", invalid="ignore"):
            block = c.copy()
            _recur(block, e, y, stitch)
            for i in range(len(c)):
                for start in (y[i], y[i:i + 1]):  # as stage 2 and a block pass it
                    row = c[i:i + 1].copy()
                    _recur(row, e[i:i + 1], start, stitch)
                    assert row.tobytes() == block[i].tobytes(), i
                if not stitch:
                    # the first _FOLD steps are the sequential recurrence
                    head = python_recurrence(c[i, :_FOLD].tolist(),
                                             e[i, :_FOLD].tolist(), float(y[i]))
                    assert row[0, :_FOLD].tobytes() == np.array(head, float).tobytes(), i
        if steps and not stitch:
            # row 2 overflows at its first step, in numpy under np.errstate
            # as in the Python-float reference above (CPython raises no
            # OverflowError for a product); rows 1 and 3 reach inf and nan
            assert block[2, 0] == -math.inf and np.isinf(block[1, steps // 2])
            assert np.isnan(block[3, steps // 2:]).all()


class TestBlockBuffers:
    """The coefficients, then the path, overwrite the eta noise in place,
    so a block holds two (rows, burn + n + 1) arrays and returns a view."""

    def test_long_block_rows_are_sequential(self, params_accept):
        # 40 long rows, each as the sequential recurrence gives it
        n = 3 * (2**16 // 40) + 5
        block = simulate_block(params_accept, n, master_seed=6,
                               replicates=range(40))
        for r in (0, 17, 39):
            seed = replicate_seed(6, r)
            # the burn-in a row ends with does not depend on n
            burn = simulate(params_accept, 10, seed=seed).burn_in
            assert np.array_equal(block[r],
                                  sequential_path(params_accept, seed, burn, n))

    def test_block_holds_two_arrays(self, params_accept):
        rows, n = 64, 4000
        buffer = 8 * rows * (burn_in_for(params_accept) + n + 1)
        simulate_block(params_accept, 10, 1, range(2))  # imports stay untraced
        tracemalloc.start()
        try:
            block = simulate_block(params_accept, n, 1, range(rows))
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert block.shape == (rows, n + 1)
        assert np.shares_memory(block, block.base)
        # the noise buffers, one row of coefficient scratch and the
        # per-row streams
        assert peak < 2.5 * buffer and held < 1.05 * buffer


    def test_given_noise_is_overwritten_not_drawn(self, params_accept,
                                                  monkeypatch):
        # noise drawn at a longer burn-in serves a shorter one: its last
        # burn + n + 1 columns are the shorter draw, so the path is bitwise
        # the one drawn for it, written over the given eta
        n, burn, reps = 300, 20, range(5, 12)
        want = simulate_block(params_accept, n, 4, reps, burn)
        eta, eps, states = block_noise(params_accept, n, 4, reps, 3 * burn)
        monkeypatch.setattr(NoiseSpec, "sample",
                            lambda *args: pytest.fail("noise drawn"))
        got = simulate_block(params_accept, n, 4, reps, burn, (eta, eps, states))
        assert np.array_equal(got, want) and np.shares_memory(got, eta)
        for n_, rows in ((n + 1, reps), (n, range(6))):
            with pytest.raises(ValueError, match="^noise must hold"):
                simulate_block(params_accept, n_, 4, rows, 3 * burn,
                               (eta, eps, states))


def simulate_argv(params, n, seed, burn_in, out):
    """`rcar simulate` of params to the file out."""
    def flag(spec):
        return "none" if spec is None else f"{spec.family.value}:{spec.scale!r}"
    argv = ["simulate", f"--theta={params.theta!r}", f"--alpha={params.alpha!r}",
            f"--eps={flag(params.eps)}", f"--eta={flag(params.eta)}",
            "--n", str(n), "--seed", str(seed), "--out", str(out)]
    return argv + ([] if burn_in is None else ["--burn-in", str(burn_in)])


#: n against the time block b: one step short of it, one block, one step
#: past it, and two blocks, a segment and a ragged tail
N_OF_BLOCK = {"b-1": lambda b: b - 1, "b": lambda b: b, "b+1": lambda b: b + 1,
              "2b+fold+3": lambda b: 2 * b + _FOLD + 3}


class TestTimeBlocks:
    """Every path runs X_1..X_n in time blocks of whole fold segments
    counted from X_1, each row's two retained streams going on from their
    saved states; no byte depends on the block size."""

    @staticmethod
    def outputs(params, n, seed, burn_in, path, noise, rows):
        """The CSV bytes `rcar simulate` writes and the path `simulate`
        gives; with noise, also simulate_with_noise's path, eta and eps;
        with rows, also a 3-row `simulate_block` and the paths of a harness
        job at two alpha points on shared noise."""
        assert cli.main(simulate_argv(params, n, seed, burn_in, path)) == 0
        out = [path.read_bytes(), simulate(params, n, seed, burn_in).x.tobytes()]
        if noise:
            out += [a.tobytes() for a in simulate_with_noise(params, n, seed, burn_in)[1:]]
        if rows:
            out.append(simulate_block(params, n, seed, range(3), burn_in).tobytes())
            points = [params, dataclasses.replace(params, alpha=-params.alpha / 2)]
            plan = [(p, burn_in_for(p) if burn_in is None else burn_in) for p in points]
            out += harness._chunk(np.ndarray.tobytes, n, seed, plan, 1, 4)
        return out

    def check(self, monkeypatch, tmp_path, params, n, seed, burn_in, block,
              noise=False, rows=False):
        # the default block holds every path here: the path run whole
        assert n <= _TIME_BLOCK
        want = self.outputs(params, n, seed, burn_in, tmp_path / "whole.csv",
                            noise, rows)
        _, (paths, _, _) = _simulate_rows(params, n, [seed], burn_in)
        assert want[1] == paths[0].tobytes()  # the block simulator's row
        monkeypatch.setattr(SIM, "_TIME_BLOCK", block)
        got = self.outputs(params, n, seed, burn_in, tmp_path / "blocks.csv",
                           noise, rows)
        assert got == want

    @pytest.mark.parametrize("block", [_FOLD, 2 * _FOLD], ids=["fold", "2fold"])
    @pytest.mark.parametrize("n_of", N_OF_BLOCK.values(), ids=N_OF_BLOCK.keys())
    def test_block_size_leaves_no_trace(self, monkeypatch, tmp_path,
                                        params_accept, block, n_of):
        self.check(monkeypatch, tmp_path, params_accept, n_of(block), 5, None,
                   block)

    @pytest.mark.parametrize("params, seed, burn_in", [
        (FAMILY_PARAMS[0], 5, 0),
        (FAMILY_PARAMS[0], 5, None),
        (SLOW, 3, 5),  # doubles six times, to 320
    ], ids=["burn-0", "derived", "doubled"])
    def test_burn_in_leaves_no_trace(self, monkeypatch, tmp_path, params, seed,
                                     burn_in):
        self.check(monkeypatch, tmp_path, params, 2 * _FOLD + 3, seed, burn_in,
                   _FOLD)

    @pytest.mark.parametrize("params", FAMILY_PARAMS, ids=FAMILY_IDS)
    def test_noise_drawn_in_pieces_is_one_draw(self, monkeypatch, tmp_path,
                                               params):
        # each block draws the next piece of each open retained stream
        self.check(monkeypatch, tmp_path, params, 2 * _FOLD + 3, 5, None, _FOLD,
                   noise=True)

    @pytest.mark.parametrize("params", FAMILY_PARAMS, ids=FAMILY_IDS)
    def test_rows_past_a_block_leave_no_trace(self, monkeypatch, tmp_path,
                                              params):
        # each row goes on from its own saved states, an eta-none row's
        # eta slot empty, and both plan points from those of one draw
        self.check(monkeypatch, tmp_path, params, 2 * _FOLD + 7, 5, None, _FOLD,
                   rows=True)

    def test_doubled_row_draws_each_value_once(self, monkeypatch):
        drawn, sample = [], NoiseSpec.sample

        def counting(spec, rng, size, out=None):
            drawn.append(size)
            return sample(spec, rng, size, out)

        monkeypatch.setattr(NoiseSpec, "sample", counting)
        monkeypatch.setattr(SIM, "_TIME_BLOCK", _FOLD)
        traj = simulate(SLOW, 10_000, seed=3, burn_in=5)
        # as in one block: X_0..X_m's retained values and the burn-in of 5
        # drawn once, X_0's again with each doubling, and X_{m+1}..X_n
        # continued from the saved stream states, m = _FOLD
        doublings = [[1, 1, 5 * 2**k, 5 * 2**k] for k in range(1, 7)]
        assert traj.burn_in == 320 and sum(drawn) == 21_284
        assert drawn == [_FOLD + 1, _FOLD + 1, 5, 5, *sum(doublings, []),
                         10_000 - _FOLD, 10_000 - _FOLD]


class TestSeriesMemory:
    """`rcar simulate` holds one time block and one write batch; `ingest`
    and the correlation test hold the series and one parse or statistics
    block. The block constants are patched small, so two n tell growth
    from a fixed allowance."""

    @staticmethod
    def traced_peak(run) -> int:
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_simulate_to_csv_flat_in_n(self, monkeypatch, tmp_path,
                                       params_accept):
        monkeypatch.setattr(SIM, "_TIME_BLOCK", _FOLD)
        monkeypatch.setattr(CSV, "_WRITE_BLOCK", 1024)
        cli.main(simulate_argv(params_accept, 10, 1, None, tmp_path / "s.csv"))
        peaks = []
        for n in (2 * _FOLD, 8 * _FOLD):
            argv = simulate_argv(params_accept, n, 1, None, tmp_path / "s.csv")
            peaks.append(self.traced_peak(lambda: cli.main(argv)))
        # a path held whole would add 8 bytes a step, 384 KiB in all
        assert abs(peaks[1] - peaks[0]) < 16 * 1024

    def test_rows_past_a_block_hold_their_paths_and_one_block(self, monkeypatch,
                                                              params_accept):
        # past the first block a row holds its path, 8 bytes a step, and a
        # fixed allowance of blocks; the noise held whole (16 bytes a step)
        # and the fold's running products (8) would reach 24
        monkeypatch.setattr(SIM, "_TIME_BLOCK", _FOLD)
        simulate_block(params_accept, 10, 1, range(3))
        peaks = [self.traced_peak(lambda: simulate_block(params_accept, n, 1, range(3)))
                 for n in (2 * _FOLD, 8 * _FOLD)]
        assert (peaks[1] - peaks[0]) / (3 * 6 * _FOLD) < 12

    def test_single_row_holds_no_object_per_step(self, params_accept):
        # per step the peak of a path of at most _FOLD steps holds the path
        # twice (the result and the block it is run in), eps and one
        # temporary, 8 bytes each; a Python float kept per step would add
        # 24 bytes and a pointer
        simulate(params_accept, 10, seed=1)
        half, whole = (self.traced_peak(lambda: simulate(params_accept, n, seed=1))
                       for n in (_FOLD // 2, _FOLD))
        assert whole - half < (4 * 8 + 24) * (_FOLD - _FOLD // 2)

    def test_ingest_and_test_hold_the_series_and_one_block(self, monkeypatch,
                                                           tmp_path,
                                                           params_accept):
        monkeypatch.setattr(CSV, "_READ_CHARS", 8192)
        monkeypatch.setattr(importlib.import_module("rcar.estimate"),
                            "_STAT_BLOCK", 4096)
        for n in (2 * _FOLD, 8 * _FOLD):
            path = tmp_path / f"{n}.csv"
            write_csv(simulate(params_accept, n, seed=1), path)
            peak = self.traced_peak(lambda: correlation_test(ingest(path)))
            # the series, 8 (n + 1) bytes, and a fixed allowance for one
            # parse block and three statistics blocks
            assert peak <= 8 * (n + 1) + 256 * 1024, n


def coefficients(params, n, seed):
    """theta_t for t = 1..n, from the retained eta of a path with no burn-in."""
    _, eta, _ = simulate_with_noise(params, n, seed, burn_in=0)
    return params.theta + params.alpha * eta[:-1] + eta[1:]


class TestCoefficients:
    def test_autocovariances(self):
        params = ModelParams(0.3, 0.5, GAUSS1, NoiseSpec(NoiseFamily.GAUSSIAN, 0.1))
        theta = coefficients(params, 1_000_000, seed=17)
        th = theta - theta.mean()
        n = len(th)
        t2, al = 0.1, 0.5
        for lag, target in ((0, t2 * (1 + al**2)), (1, al * t2), (2, 0.0)):
            prod = th[: n - lag] * th[lag:]
            assert abs(prod.mean() - target) <= 3 * batch_se(prod), f"lag {lag}"

    def test_uncorrelated_lag1(self):
        params = ModelParams(0.3, 0.0, GAUSS1, NoiseSpec(NoiseFamily.GAUSSIAN, 0.1))
        theta = coefficients(params, 1_000_000, seed=18)
        th = theta - theta.mean()
        prod = th[:-1] * th[1:]
        assert abs(prod.mean()) <= 3 * batch_se(prod)

    def test_aligned_with_trajectory(self, params_accept):
        n = 200
        traj, eta, eps = simulate_with_noise(params_accept, n, seed=55, burn_in=0)
        # the retained noise is the head of each stream
        head_eta, head_eps = stream_noise(params_accept, 55, 0, n)
        assert np.array_equal(eta, head_eta) and np.array_equal(eps, head_eps)
        th = coefficients(params_accept, n, seed=55)
        recon = th * traj.x[:-1] + eps[1:]
        assert np.allclose(recon, traj.x[1:], atol=0)

    def test_eta_none_constant(self):
        theta = coefficients(ModelParams(0.4, 0.0, GAUSS1, None), 50, seed=1)
        assert np.array_equal(theta, np.full(50, 0.4))


def numbered_rows(ts) -> str:
    return "".join(f"{t},{t * 0.5}\n" for t in ts)


class TestBlockedIngest:
    """`ingest` parses _READ_CHARS bytes and the rest of a line at a time
    into one array; every error names the line it named when the file was
    parsed whole."""

    @pytest.fixture(autouse=True)
    def short_reads(self, monkeypatch):
        # four rows `t,x.y` of one digit each fill a read
        monkeypatch.setattr(CSV, "_READ_CHARS", 24)

    @pytest.mark.parametrize("text, match, where", [
        # the fourth read
        ("t,x\n" + numbered_rows(range(13)) + "13,oops\n" + numbered_rows(range(14, 20)),
         r":15: expected an integer index and a float, got '13,oops'", (3, b"13,oops", False)),
        # the first line of the second read
        ("t,x\n" + numbered_rows(range(4)) + numbered_rows(range(5, 9)),
         r":6: index 5 breaks the contiguous sequence \(expected 4\)", (1, b"5,2.5", True)),
        # blank lines fill reads but take no index
        ("t,x\n0,1\n\n1,2\n\n\n2,3\n3,4\n\n\n\n\n4,oops\n5,1\n",
         r":13: expected an integer index and a float, got '4,oops'", None),
        ("t,x\n0,1\n\n\n\n1,2\n\n3,3\n",
         r":8: index 3 breaks the contiguous sequence \(expected 2\)", None),
        # a last line without a newline
        ("t,x\n0,1\n1,2\n2,3\n3,4\n4,5\n5,x",
         r":7: expected an integer index and a float, got '5,x'", None),
        ("t,x\n0,1\n1,2\n2,3\n3,4\n4,5\n6,6",
         r":7: index 6 breaks the contiguous sequence \(expected 5\)", None),
        ("t,x\n" + numbered_rows(range(9)) + "9,nan\n", r":11: non-finite value", None),
    ], ids=["later-block", "block-boundary", "blank-lines", "blank-gap",
            "no-newline-cell", "no-newline-gap", "non-finite"])
    def test_error_names_the_line(self, tmp_path, text, match, where):
        path = tmp_path / "s.csv"
        path.write_bytes(text.encode())
        if where is not None:
            # the faulty line is on the read the id names, first in it or not
            read, line, first = where
            with open(path, "rb") as fh:
                fh.readline()
                reads = list(CSV._line_chunks(fh, CSV._READ_CHARS))
            assert [i for i, r in enumerate(reads) if line in r.split(b"\n")] == [read]
            assert reads[read].startswith(line + b"\n") == first
        with pytest.raises(DegenerateDataError, match=match):
            ingest(path)

    @pytest.mark.parametrize("text", [
        "t,x\n0,1.5\n\n1,-2\n2,0.25",  # no newline at the end
        "t,x\r0,1.5\r1,-2\r\r2,0.25\r",  # lone CRs: no newline to count
    ], ids=["no-final-newline", "lone-cr"])
    def test_line_ends(self, tmp_path, text):
        path = tmp_path / "s.csv"
        path.write_bytes(text.encode())
        traj = ingest(path)
        assert np.array_equal(traj.x, [1.5, -2.0, 0.25]) and traj.n == 2

    def test_rows_across_blocks(self, tmp_path, params_accept):
        traj = simulate(params_accept, 101, seed=2)
        path = tmp_path / "s.csv"
        write_csv(traj, path)
        back = ingest(path).x
        assert back.tobytes() == traj.x.tobytes() and back.flags.owndata


class TestTrajectoryType:
    def test_length_invariant(self):
        with pytest.raises(DegenerateDataError):
            Trajectory(x=np.zeros(5), n=7)

    def test_finite_invariant(self):
        with pytest.raises(DegenerateDataError):
            Trajectory(x=np.array([0.0, np.inf]), n=1)

    def test_report_whatever_the_stride(self, params_accept):
        # the CI series w2.csv as np.loadtxt's structured rows: the stride-16
        # x column gives the report of its contiguous copy, bit for bit
        x = simulate(params_accept, 300_000, seed=5).x
        rows = np.empty(len(x), [("t", "<i8"), ("x", "<f8")])
        rows["x"] = x
        assert rows["x"].strides == (16,)
        strided, contiguous = (
            json.dumps(correlation_test(Trajectory(x=v, n=len(x) - 1)).to_dict())
            for v in (rows["x"], rows["x"].copy()))
        assert strided == contiguous


FLOATS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
     np.finfo(float).max, -np.finfo(float).max])

_POWERS = np.array([float(f"1e{j}") for j in range(-5, 18)])
#: values where the writer's exact arithmetic could go wrong: powers of ten
#: and their neighbours, the edges of its domain 1e-4 <= |x| < 1e16, every
#: binade in it, exact ties of the 17th digit, and values outside it
WRITER_EDGES = np.concatenate([
    _POWERS, np.nextafter(_POWERS, 0), np.nextafter(_POWERS, np.inf),
    2.0 ** np.arange(-15, 55),
    2.0 ** 50 + np.arange(8) + 0.25, 2.0 ** 50 + np.arange(8) + 0.75,
    2.0 ** 52 + np.arange(8) * 0.5,
    [0.0, 5e-324, 2.2250738585072009e-308, np.finfo(float).max,
     0.5, 0.1, 100.0, 1234.5, 0.00012, 9999999999999998.0]])
WRITER_EDGES = np.concatenate([WRITER_EDGES, -WRITER_EDGES])


def csv_reference(values) -> bytes:
    """What `write_rows` writes for values: %.17g a row."""
    return ("t,x\r\n" + "".join("%d,%.17g\r\n" % row for row in enumerate(values))).encode()


_EDGE_DOUBLES = [1e-4, 1e16, 5e-324, 2.2250738585072009e-308,
                 np.finfo(float).max, -np.finfo(float).max]
#: cells around the edges of the numpy reader (`_read_block`): rows it
#: reads, and variants that np.loadtxt alone decides
READER_CELLS = list(dict.fromkeys([
    "0.1", "5", "-3", "0", "-0", "-0.0", "0.50", "00.5", "+5", ".5", "5.",
    " 0.5", "1e-05", "1E5", "inf", "nan", "2.5e3", "-.5", "0.5 ",
    "1234567890.123456",  # 16 digits
    "12345678901.234567", "-0.012345678901234567",  # 17
    "123456789012.3456789", "1.68148280453199406",  # 18
    "0.00012345678901234567891",  # 21
    "1234567890123.456789012345",  # 25
    "1844674407370956.3961",  # 20 digits: 2**64 + 12345
    "0.10000000000000004",  # 17 digits that no double prints
    "01.68148280453199406",  # 0.68148280453199406 is a double's %.17g
    *(form % float(v) for v in _EDGE_DOUBLES
      + [np.nextafter(v, d) for v in (1e-4, 1e16) for d in (0, np.inf)]
      for form in ("%.17g", "%r")),
]))


def ingest_outcome(path):
    """ingest's x as bytes, or its error's text after the path."""
    try:
        return ingest(path).x.tobytes()
    except DegenerateDataError as exc:
        assert str(exc).startswith(f"{path}:")
        return str(exc)[len(str(path)):]


def pipe_outcome(data: bytes):
    """ingest_outcome of data read from a pipe."""
    def feed(fd):
        with contextlib.suppress(BrokenPipeError), open(fd, "wb") as fh:
            fh.write(data)

    read, write = os.pipe()
    writer = threading.Thread(target=feed, args=(write,))
    writer.start()
    try:
        outcome = ingest_outcome(f"/dev/fd/{read}")
    finally:
        os.close(read)  # a writer still blocked on a full pipe gets EPIPE
        writer.join(timeout=60)
    assert not writer.is_alive()
    return outcome


def check_reader(monkeypatch, path, data: bytes):
    """ingest of data, as a file and as a pipe, is what it is when every
    line goes to np.loadtxt: the same x, bitwise np.loadtxt's, or the same
    error on the same line."""
    path.write_bytes(data)
    with monkeypatch.context() as m:
        m.setattr(CSV, "_read_block", lambda text: None)
        want = ingest_outcome(path)
    if isinstance(want, bytes):
        rows = np.loadtxt(path, delimiter=",", skiprows=1, comments=None, ndmin=1,
                          dtype=[("t", "<i8"), ("x", "<f8")])
        assert rows["x"].tobytes() == want
    assert ingest_outcome(path) == want, data
    if os.path.isdir("/dev/fd"):
        assert pipe_outcome(data) == want, data


class TestCsvInterchange:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(FLOATS | st.sampled_from([math.nan, math.inf, -math.inf]),
                    max_size=40), st.integers(1, 9))
    def test_writer_bytes_any_double(self, values, size):
        fh = io.BytesIO()
        with mock.patch.object(CSV, "_WRITE_BLOCK", 3):
            CSV.write_rows(fh, [np.array(values[i:i + size], dtype=float)
                                for i in range(0, len(values), size)])
        assert fh.getvalue() == csv_reference(values)

    def test_writer_bytes_edges(self, monkeypatch):
        # blocks of 97 rows, and indices that cross 9 -> 10, 99 -> 100 and
        # 9999 -> 10000 inside a block
        monkeypatch.setattr(CSV, "_WRITE_BLOCK", 97)
        x = np.resize(WRITER_EDGES, 10_050)
        fh = io.BytesIO()
        CSV.write_rows(fh, [x[:5000], x[5000:]])
        assert fh.getvalue() == csv_reference(x.tolist())

    @pytest.mark.parametrize("scale", [1e4, 1e-9])
    def test_writer_bytes_at_the_default_block(self, params_accept, scale):
        # x 1e4 puts the point inside digits 1..15 on (nearly) every row,
        # x 1e-9 puts every row outside the numpy domain; t passes 10**4
        # inside the second block of 8192 rows
        x = simulate(params_accept, 20_000, seed=1).x * scale
        k = np.floor(np.log10(np.abs(x)))
        if scale > 1:
            assert np.mean((k >= 1) & (k <= 15)) > 0.99
        else:
            assert (k < -4).all()
        fh = io.BytesIO()
        CSV.write_rows(fh, [x])
        assert fh.getvalue() == csv_reference(x.tolist())

    @pytest.mark.parametrize("t0", [9_995, 10 ** 8 - 7, 10 ** 8 + 123_456,
                                    10 ** 12 - 3])
    def test_writer_index_words(self, t0):
        # an index that gains a digit, and one of three and four words
        x = WRITER_EDGES[:300]
        want = b"".join(b"%d,%.17g\r\n" % (t0 + i, v)
                        for i, v in enumerate(x.tolist()))
        assert CSV._format_rows(x, t0) == want
        assert b"".join(CSV._format_rows(x[i:i + 1], t0 + i)
                        for i in range(len(x))) == want

    def test_writer_one_row_blocks(self):
        x = WRITER_EDGES
        fh = io.BytesIO()
        CSV.write_rows(fh, [x[i:i + 1] for i in range(len(x))])
        assert fh.getvalue() == csv_reference(x.tolist())

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="no /dev/fd")
    def test_pipe_error_names_the_line(self, tmp_path):
        text = ("t,x\n" + numbered_rows(range(14999)) + "14999,oops\n"
                + numbered_rows(range(15000, 20000))).encode()
        path = tmp_path / "bad.csv"
        path.write_bytes(text)
        message = r":15001: expected an integer index and a float, got '14999,oops'$"
        with pytest.raises(DegenerateDataError, match=message):
            ingest(path)

        def feed(fd):
            with contextlib.suppress(BrokenPipeError), open(fd, "wb") as fh:
                fh.write(text)

        read, write = os.pipe()
        writer = threading.Thread(target=feed, args=(write,))
        writer.start()
        try:
            with pytest.raises(DegenerateDataError, match=message):
                ingest(f"/dev/fd/{read}")
        finally:
            os.close(read)  # a writer still blocked on a full pipe gets EPIPE
            writer.join(timeout=60)
        assert not writer.is_alive()

    def test_golden_bytes(self, tmp_path):
        path = tmp_path / "s.csv"
        write_csv(Trajectory(x=np.array([1.5, -0.1, 5e-324]), n=2), path)
        assert path.read_bytes() == (b"t,x\r\n0,1.5\r\n1,-0.10000000000000001\r\n"
                                     b"2,4.9406564584124654e-324\r\n")

    def test_tables_built_on_first_write(self):
        # a fresh interpreter that imports rcar and runs `rcar check` has
        # built no CSV lookup table; its first write builds them
        script = "\n".join([
            "import contextlib, io, sys, numpy, rcar.cli",
            "CSV = sys.modules['rcar.series_csv']",
            "with contextlib.redirect_stdout(io.StringIO()):",
            "    assert rcar.cli.main(['check', '--theta', '0.3', '--alpha', '0.5',",
            "                          '--eps', 'gaussian:1', '--eta', 'gaussian:0.1']) == 0",
            "tables = [CSV._digit_tables]",
            "before = [f.cache_info().currsize for f in tables]",
            "CSV.write_rows(io.BytesIO(), [numpy.ones(3)])",
            "print(*before, *(f.cache_info().currsize for f in tables))",
        ])
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(CSV.__file__)))
        out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                             capture_output=True, text=True, timeout=60).stdout
        assert out.split() == ["0", "1"]

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

    @pytest.mark.parametrize("cell", READER_CELLS)
    def test_reader_cells_as_loadtxt(self, monkeypatch, tmp_path, cell):
        check_reader(monkeypatch, tmp_path / "s.csv",
                     f"t,x\n0,0.25\n1,{cell}\n2,-1.5\n".encode())

    @pytest.mark.parametrize("index", ["007", "0", "+7", " 7", "7 ", "-7", "7.0"])
    def test_reader_index_as_loadtxt(self, monkeypatch, tmp_path, index):
        rows = "".join(f"{t},0.{t + 1}\n" for t in range(7))
        check_reader(monkeypatch, tmp_path / "s.csv",
                     f"t,x\n{rows}{index},0.5\n8,0.25\n".encode())

    @pytest.mark.parametrize("text", ["\n", "5\n", ",\n", "5,-\n", ".\n", "0,0.5\n\n"])
    def test_reader_short_blocks(self, text):
        # a read may end up as any few lines: the numpy path gives
        # np.loadtxt's records or its error, or leaves the read to it
        try:
            want = CSV._parse_rows(text.split("\n"))
        except ValueError:
            with pytest.raises(ValueError):
                CSV._read_block(text.encode())
            return
        read = CSV._read_block(text.encode())
        if read is not None:
            rows, count = read
            assert rows.tobytes() == want.tobytes()
            assert count == text.count("\n")

    @pytest.mark.parametrize("text", ["5", "0,0.5", "0,0.5\n1"])
    def test_reader_no_final_newline(self, monkeypatch, tmp_path, text):
        # the last line of the input ends its read without a newline
        check_reader(monkeypatch, tmp_path / "s.csv", f"t,x\n{text}".encode())

    @pytest.mark.parametrize("block, split", [(1, False), (3, True),
                                              (CSV._READ_CHARS // 32, False)],
                             ids=["1", "3", str(CSV._READ_CHARS // 32)])
    def test_reader_crlf_across_reads(self, monkeypatch, tmp_path, block, split):
        # reads of 32 * block bytes, at 3 some of them ending on the CR of
        # a CRLF pair, and header spaces that put a CR/LF pair across the
        # first 8192 bytes of the file
        monkeypatch.setattr(CSV, "_READ_CHARS", 32 * block)
        x = simulate(ModelParams(0.3, 0.5, GAUSS1, NoiseSpec(NoiseFamily.GAUSSIAN, 0.1)),
                     400, seed=3).x
        body = "".join("%d,%.17g\r\n" % row for row in enumerate(x.tolist())).encode()
        pad = 8191 - 5 - body.index(b"\r\n", 8192 - 5 - 40)
        data = b"t,x" + b" " * pad + b"\r\n" + body
        assert data[8191:8193] == b"\r\n"
        path = tmp_path / "s.csv"
        path.write_bytes(data)
        with open(path, "rb") as fh:
            fh.readline()
            reads = list(CSV._line_chunks(fh, 32 * block))
        assert any(r[32 * block - 1:32 * block] == b"\r" for r in reads) == split
        assert all(r.endswith(b"\r\n") for r in reads)
        check_reader(monkeypatch, path, data)
        # the writer's CRLF rows all take the numpy path
        monkeypatch.setattr(CSV, "_parse_rows", lambda lines: pytest.fail(str(lines)))
        assert ingest(path).x.tobytes() == x.tobytes()

    @pytest.mark.parametrize("data, size, edge, outcome", [
        # a lone CR as a read's last byte, and one inside a read, each
        # read on the numpy path
        (b"t,x\n" + numbered_rows(range(4)).encode()
         + b"4,2.0\n5,2.5\n6,3.0\n7,3.5\r8,4.0\n9,4.5\n", 24,
         lambda reads: (reads[2].endswith(b"7,3.5\r") and reads[3].startswith(b"8,")
                        and CSV._read_block(reads[2]) is not None),
         None),
        (b"t,x\n" + numbered_rows(range(4)).encode()
         + b"4,2.0\n5,2.5\r6,3.0\n7,3.5\n8,4.0\n", 24,
         lambda reads: (b"5,2.5\r6" in reads[2]
                        and CSV._read_block(reads[2]) is not None), None),
        # LF and CRLF rows in one read, which the numpy path reads
        (b"t,x\r\n0,0.25\r\n1,-0.5\n2,1.5\r\n3,0.123456789012345678\n4,2\n", 1 << 18,
         lambda reads: len(reads) == 2 and reads[1].count(b"\r\n") == 2, None),
        # a header ended by a lone CR, then CRLF and LF rows
        (b"t,x\r0,0.25\r\n1,-0.5\n2,1.5\r\n", 1 << 18,
         lambda reads: reads[0] == b"t,x\r", None),
        # a byte that is not UTF-8 on the third read
        (b"t,x\n" + numbered_rows(range(9)).encode() + b"9,\xff\n"
         + numbered_rows(range(10, 12)).encode(), 24,
         lambda reads: b"9,\xff" in reads[3],
         ":11: expected an integer index and a float, got '9,\\udcff'"),
        # a UTF-8 byte order mark before the header
        (b"\xef\xbb\xbft,x\r\n0,0.25\r\n1,0.5\r\n", 1 << 18,
         lambda reads: reads[0] == b"\xef\xbb\xbft,x\r\n",
         ": expected header 't,x', got '\\ufefft,x'"),
    ], ids=["cr-last", "cr-mid", "lf-crlf", "header-cr", "non-utf8-third", "bom"])
    def test_reader_line_ends_at_read_edges(self, monkeypatch, tmp_path, data, size,
                                            edge, outcome):
        # each case's line end or byte sits where its id says (reads[0] is
        # the header); ingest as a file and as a pipe reads what np.loadtxt
        # reads, or gives the error it gave when it read text
        monkeypatch.setattr(CSV, "_READ_CHARS", size)
        path = tmp_path / "s.csv"
        path.write_bytes(data)
        with open(path, "rb") as fh:
            assert edge([CSV._whole_lines(fh, b""), *CSV._line_chunks(fh, size)])
        check_reader(monkeypatch, path, data)
        if outcome is not None:
            assert ingest_outcome(path) == outcome

    @settings(max_examples=60, deadline=None)
    @given(st.lists(FLOATS | st.floats(1e-4, 1e16) | st.floats(-1e16, -1e-4),
                    min_size=2, max_size=40), st.sampled_from(["%.17g", "%r"]))
    def test_reader_any_double(self, values, form):
        x = np.array(values)
        text = "t,x\n" + "".join(f"{t},{form % float(v)}\n" for t, v in enumerate(values))
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "s.csv")
            with open(path, "w") as fh:
                fh.write(text)
            back = ingest(path).x
            rows = np.loadtxt(path, delimiter=",", skiprows=1, comments=None,
                              ndmin=1, dtype=[("t", "<i8"), ("x", "<f8")])
        assert back.tobytes() == rows["x"].tobytes() == x.tobytes()

    def test_reader_writer_edges(self, tmp_path):
        # every binade of the writer's domain, its edges and the 17th
        # digit's ties, each written and read back bitwise
        x = np.resize(WRITER_EDGES, 10_050)
        path = tmp_path / "s.csv"
        write_csv(Trajectory(x=x, n=len(x) - 1), path)
        assert ingest(path).x.tobytes() == x.tobytes()

    @pytest.mark.parametrize("bad", [None, 310])
    @pytest.mark.parametrize("block", [4, CSV._READ_CHARS // 32])
    def test_reader_empty_lines_among_rows(self, monkeypatch, tmp_path, bad, block):
        # rcar's rows with an empty line after every 50th and a cell the
        # numpy path leaves to np.loadtxt every 40th: the reads keep the
        # numpy path, and an error names the line it names without it
        monkeypatch.setattr(CSV, "_READ_CHARS", 32 * block)
        x = simulate(ModelParams(0.3, 0.5, GAUSS1, NoiseSpec(NoiseFamily.GAUSSIAN, 0.1)),
                     399, seed=4).x
        cells = ["%.17g" % v for v in x.tolist()]
        cells[::40] = ["%.6e" % v for v in x[::40].tolist()]
        if bad is not None:
            cells[bad] += "x"
        body = "".join(f"{t},{cell}\n" + "\n" * (t % 50 == 49)
                       for t, cell in enumerate(cells))
        check_reader(monkeypatch, tmp_path / "s.csv", ("t,x\n" + body).encode())
        if bad is None:
            rows, count = CSV._read_block(body.encode())
            assert rows.tobytes() == CSV._parse_rows(body.split("\n")).tobytes()
            assert count == body.count("\n") == 400 + 400 // 50
        else:
            # the header, then row t on line 2 + t + t // 50
            assert ingest_outcome(tmp_path / "s.csv").startswith(":318: ")

    def test_reader_given_up_after_a_slow_read(self, monkeypatch, tmp_path):
        # a read that leaves most of its lines to np.loadtxt, more than
        # _SLOW_LINES of them, turns the numpy path off for the rest of the
        # input; the rows are np.loadtxt's all the same
        monkeypatch.setattr(CSV, "_READ_CHARS", 8192)
        x = simulate(ModelParams(0.3, 0.5, GAUSS1, NoiseSpec(NoiseFamily.GAUSSIAN, 0.1)),
                     3999, seed=6).x
        body = "".join(f"{t},{round(v)}\n" if t < 2000 else f"{t},{v!r}\n"
                       for t, v in enumerate(x.tolist()))
        path = tmp_path / "s.csv"
        check_reader(monkeypatch, path, ("t,x\n" + body).encode())
        read_block, reads = CSV._read_block, []
        monkeypatch.setattr(CSV, "_read_block",
                            lambda text: reads.append(read_block(text)) or reads[-1])
        ingest(path)
        assert reads == [None]
