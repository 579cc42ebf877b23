"""Trajectory generation with reproducible randomness and principled burn-in.

Randomness contract: replicate r of master seed s uses the 64-bit avalanche
mix of (s, r); within one trajectory the coefficient noise and the innovation
noise come from independent Philox streams derived from the trajectory seed,
so the coefficient path is reproducible on its own. The stream with tag g of
trajectory seed e is numpy's Generator(Philox(key=mix64(e, g))): the key
words (mix64(e, g), 0) at counter 0. Philox is counter-based, so any key
and a zero counter fix an independent stream (Salmon et al., "Parallel
random numbers: as easy as 1, 2, 3", 2011) that goes on from any saved
state: one bit generator is set to each stream's state in turn.
Layout 4: the retained noise, aligned with X_0..X_n, is the first n + 1
draws of the two retained streams, and the burn-in is drawn from two
streams of its own, backward in time (draw k is the noise k + 1 steps
before X_0). So no noise depends on n, nor retained noise on the burn-in: a
row whose burn-in doubles below keeps the nearer half, and burn_in 0 reads
the retained streams alone. At a given (seed, burn_in), X_0..X_n is bitwise
the prefix of X_0..X_n' for every n' >= n; X_0 is the burn-in run from 0,
and X_0..X_{_FOLD} are the sequential recurrence from X_0.
Everything is bitwise deterministic given (params, n, seed, burn_in) and
independent of evaluation order or parallelism.

One kernel, `_recur`, runs the recurrence X_t = theta_t X_{t-1} + eps_t
down the time axis of a (rows, T) block, vectorised across rows, and writes
the path over the coefficients: the burn-in from 0 to X_0, then X_1..X_n
from X_0, one multiply, then one add, a step over time-major column views.
One driver, `_simulate_rows`, runs every path: `simulate_block` many rows,
`simulate_blocks` one, which `simulate`, `simulate_with_noise` and `rcar
simulate` read, so a block row equals the scalar path bit for bit. Each
stage of more than _FOLD steps is folded, as a first-order linear
recurrence is a scan (Blelloch, "Prefix sums and their applications",
1990): cut every _FOLD steps from its first step, its pieces run side by
side and are stitched with the running products of their coefficients. A
longer path only adds pieces, and the fold moves a path by round-off only
(about 1e-15 at n = 1e6).

Memory: the burn-in and X_0..X_m, m = min(n, _TIME_BLOCK), run over two
(rows, burn + m + 1) float64 arrays, the eta and the eps noise; the
coefficients, and then the path, overwrite the eta noise in place (one row
at a time, with one row of scratch). X_{m+1}..X_n follow in time blocks of
_TIME_BLOCK steps, cut on the same segments, each row's retained streams
going on from their saved states. So a path needs about four time blocks
of working memory, about 8 MB a row, whatever n is: `rcar simulate` writes
each block as it comes, and `simulate_block` returns the view [:, burn:]
of the first buffer where that is the whole path, else copies the blocks
into one (rows, n + 1) array, as `simulate` and `simulate_with_noise` do.

Stage 1 starts at 0 and runs `burn_in` steps. The initial condition is
forgotten exponentially fast, at the contraction rate E ln|theta_t| < 0 of
(H1) (Brandt, "The stochastic equation Y_{n+1} = A_n Y_n + B_n with
stationary coefficients", 1986), and the generator verifies it: a copy
started at _TWIN_START on the same noise differs from the path after b
steps by exactly _TWIN_START * |theta_1 ... theta_b|. Rows where that gap
is 1e-8 or more redraw their burn-in at twice the length (up to 2**16) and
rerun stage 1 alone. burn_in None, the default everywhere, starts from
`burn_in_for(params)`: _RATE_MARGIN times the steps the rate needs to
shrink the gap below the tolerance, or DEFAULT_BURN_IN where the rate,
with its error bound, is not negative.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDataError, HypothesisError
from .model import ModelParams, log_moment

#: layout 4: key (mix64(seed, tag), 0); the burn-in has streams of its own,
#: laid backward from X_0
GENERATOR_ID = f"numpy.random.Philox (numpy {np.__version__}), layout 4"

#: the start where the contraction rate gives no bound
DEFAULT_BURN_IN = 2000
MAX_BURN_IN = 2**16
FORGET_TOL = 1e-8
EXPLOSION_LIMIT = 1e300

_TWIN_START = 100.0
#: derived burn-in over the steps a constant contraction would need; ln of the
#: twin gap is a random walk, and the margin covers its spread for most rows
_RATE_MARGIN = 2.0
#: steps per fold segment; a path of at most _FOLD steps is not folded
_FOLD = 2**13
#: steps per time block of `_simulate_rows`: whole fold segments
_TIME_BLOCK = 32 * _FOLD
_MASK64 = (1 << 64) - 1
_ETA_STREAM = 0xE7A
_EPS_STREAM = 0xE95
_ETA_BURN = 0xB7A
_EPS_BURN = 0xB95
_STREAM_TAGS = np.array([_ETA_STREAM, _EPS_STREAM, _ETA_BURN, _EPS_BURN], dtype=np.uint64)


def mix64(a, b):
    """Avalanche mix of two 64-bit values (splitmix64 finalizer).

    The stream offset is (b + 1) so that (0, 0) does not sit on the
    finalizer's zero fixed point. Also takes numpy uint64 arrays (b among
    them), on which the same steps wrap modulo 2**64.
    """
    z = (a + (b + 1) * 0x9E3779B97F4A7C15) & _MASK64
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & _MASK64
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def replicate_seed(master_seed: int, replicate: int) -> int:
    return mix64(operator.index(master_seed) & _MASK64, operator.index(replicate))


def burn_in_for(params: ModelParams) -> int:
    """The default burn-in of params: _RATE_MARGIN times the steps after
    which the twin gap falls below FORGET_TOL if it contracts at the rate
    E ln|theta_t| (taken at the top of its error bound), at least 1 and at
    most MAX_BURN_IN; DEFAULT_BURN_IN where that rate is not negative."""
    rate, err = log_moment(params)
    if not rate + err < 0:
        return DEFAULT_BURN_IN
    steps = _RATE_MARGIN * math.log(_TWIN_START / FORGET_TOL) / -(rate + err)
    return min(max(math.ceil(steps), 1), MAX_BURN_IN)


def _stream_keys(seeds) -> list:
    """The Philox keys mix64(seed, tag) of each seed's four streams, in the
    order of _STREAM_TAGS, as Python ints (the state setter takes them
    exactly, and faster than array rows)."""
    words = [operator.index(s) & _MASK64 for s in seeds]
    return mix64(np.array(words, dtype=np.uint64)[:, None], _STREAM_TAGS).tolist()


def _fill(rng, specs, states, outs, save: bool = False) -> list:
    """Write into each out the next out.size values of its spec, drawn from
    its Philox state on rng's bit generator, set to each state in turn; a
    missing spec leaves its out as it is. Returns the state each stream is
    left in where save and it has a spec, else None in its slot."""
    after = []
    for spec, state, out in zip(specs, states, outs):
        if spec is not None:
            rng.bit_generator.state = state
            spec.sample(rng, out.size, out)
        after.append(rng.bit_generator.state if save and spec is not None else None)
    return after


def _block_noise(params: ModelParams, seeds: list, n: int, burn: int):
    """eta, eps and stream states of each trajectory seed: burn + m + 1
    values per row in time order, m = min(n, _TIME_BLOCK), the burn-in and
    the first time block.

    Each stream is one draw from Philox with the key (mix64(seed, tag), 0)
    and a zero counter. The retained tags fill the last m + 1 columns,
    aligned with X_0..X_m; draw k of a burn-in tag fills the column k + 1
    steps before X_0. eps[:, 0] precedes the recurrence; eta is zeros
    without coefficient noise. Where n > m, states holds each row's [eta,
    eps] states after its retained draws, for the later blocks; else None.
    """
    m = min(n, _TIME_BLOCK)
    shape = (len(seeds), burn + m + 1)
    eta = np.zeros(shape) if params.eta is None else np.empty(shape)
    eps = np.empty(shape)
    specs, states = (params.eta, params.eps), []
    rng = np.random.Generator(np.random.Philox(0))
    for i, keys in enumerate(_stream_keys(seeds)):
        starts = [{"bit_generator": "Philox", "buffer": [0, 0, 0, 0], "buffer_pos": 4,
                   "state": {"counter": [0, 0, 0, 0], "key": [key, 0]},
                   "has_uint32": 0, "uinteger": 0} for key in keys]
        states.append(_fill(rng, specs, starts[:2], (eta[i, burn:], eps[i, burn:]), n > m))
        if burn:
            _fill(rng, specs, starts[2:], (eta[i, :burn], eps[i, :burn]))
    if burn:  # numpy draws into contiguous arrays only: forward, then reversed
        for b in (eta, eps):
            b[:, :burn] = b[:, burn - 1::-1]
    return eta, eps, states if n > m else None


def _coefficients(params: ModelParams, eta: np.ndarray) -> None:
    """Overwrite eta[:, t] with theta + alpha*eta[t-1] + eta[t] for each
    t >= 1, leaving column 0; one row at a time, so one row is the only
    extra memory."""
    for row in eta:
        step = params.alpha * row[:-1]
        step += params.theta
        row[1:] += step


@dataclass(frozen=True)
class Trajectory:
    """A series X_0..X_n, simulated (with its burn-in) or ingested."""

    x: np.ndarray
    n: int
    burn_in: int | None = None

    def __post_init__(self):
        # contiguous, so every stride of a series gives the same sums
        x = np.ascontiguousarray(self.x, dtype=float)
        object.__setattr__(self, "x", x)
        if x.ndim != 1 or len(x) != self.n + 1:
            raise DegenerateDataError(
                f"trajectory length {len(x)} does not match n + 1 = {self.n + 1}"
            )
        # two reductions and no temporary: a nan or an inf reaches one of them
        if not (np.isfinite(x.max(initial=0.0)) and np.isfinite(x.min(initial=0.0))):
            raise DegenerateDataError("trajectory contains non-finite values")


def _check_explosion(x: np.ndarray):
    # two reductions and no temporary: a nan fails both comparisons
    if not (x.max(initial=0.0) <= EXPLOSION_LIMIT
            and x.min(initial=0.0) >= -EXPLOSION_LIMIT):
        raise HypothesisError(
            "trajectory exploded (|X_t| > 1e300); the log-moment stationarity "
            "condition (H1) is likely violated"
        )


def _recur(c: np.ndarray, e: np.ndarray, y=0.0, stitch: bool = False) -> None:
    """Overwrite c with y_t = c_t y_{t-1} + e_t along the last axis, y_{-1} = y.

    Leading axes, at least one, are independent rows. More than _FOLD steps
    are cut every _FOLD steps from the first; the pieces run side by side,
    the first from y and the rest from 0, and each after the first adds its
    running coefficient product times the value carried out of the one
    before. So the first _FOLD steps are the sequential recurrence. With
    stitch, the first piece too runs from 0 and adds its running product
    times y: a path run in blocks of whole pieces, each block after the
    first stitched, is bitwise the path run whole.

    The sequential loop steps through time-major column views, one multiply
    and one add per step whatever the shape. The pieces of a single row
    arrive as a (1, pieces, _FOLD) array whose leading axis is dropped, so
    each step works on one (pieces,) view.
    """
    if c.ndim > 2 and len(c) == 1:
        c, e, y = c[0], e[0], np.broadcast_to(y, c.shape[:-1])[0]
    steps = c.shape[-1]
    if steps <= _FOLD and not stitch:
        for ct, et in zip(np.moveaxis(c, -1, 0), np.moveaxis(e, -1, 0)):
            ct *= y
            ct += et
            y = ct
        return
    first = 0 if stitch else _FOLD  # the first piece that is stitched
    gain = np.empty((*c.shape[:-1], steps - first))
    for s in range(first, steps, _FOLD):
        np.cumprod(c[..., s:s + _FOLD], axis=-1,
                   out=gain[..., s - first:s - first + _FOLD])
    cut = steps - steps % _FOLD
    if cut:
        # splitting the last axis is a view, so the run writes into c
        seg = c[..., :cut].reshape(*c.shape[:-1], -1, _FOLD)
        start = np.zeros(seg.shape[:-1])
        if not stitch:
            start[..., 0] = y
        _recur(seg, e[..., :cut].reshape(seg.shape), start)
    _recur(c[..., cut:], e[..., cut:])
    for s in range(first, steps, _FOLD):
        carried = c[..., s - 1, None] if s else np.asarray(y)[..., None]
        c[..., s:s + _FOLD] += gain[..., s - first:s - first + _FOLD] * carried


def _burn_in(params: ModelParams, seeds: list, path: np.ndarray,
             eps: np.ndarray, burn: int) -> np.ndarray:
    """Stage 1, in place: each row's burn-in from 0 into X_0 = path[:, burn].

    path holds the coefficients of the burn steps in columns 1..burn; its
    column 0 becomes the start. Rows whose initial condition is not
    forgotten redraw their burn-in at twice the length and rerun it alone.
    Returns the burn-in each row ends with.
    """
    path[:, 0] = 0.0
    x0, burns = path[:, burn], np.full(len(seeds), burn)
    slow, b, c, e = np.arange(len(seeds)), burn, path, eps
    with np.errstate(over="ignore", invalid="ignore"):
        while True:  # the slow rows' b burn-in steps, 0 to X_0
            gap = _TWIN_START * np.abs(np.prod(c[:, 1:b + 1], axis=1))
            _recur(c[:, 1:b + 1], e[:, 1:b + 1])
            x0[slow], burns[slow] = c[:, b], b
            slow = slow[~(gap < FORGET_TOL)] if b else []
            if not len(slow):
                return burns
            if b >= MAX_BURN_IN:
                raise HypothesisError(
                    f"initial condition not forgotten after burn-in {b}; "
                    "the process is at or beyond the stationarity boundary")
            b = min(2 * b, MAX_BURN_IN)
            c, e, _ = _block_noise(params, [seeds[i] for i in slow], 0, b)
            _coefficients(params, c)


@dataclass(frozen=True)
class PathBlocks:
    """Paths whose burn-in and first time block have run: `blocks` yields
    (x, eta, eps) for consecutive times, X_0..X_m, m = min(n, _TIME_BLOCK),
    then X_{m+1}..X_n in blocks of _TIME_BLOCK steps, simulating each when
    it is reached (a block past EXPLOSION_LIMIT raises HypothesisError):
    the paths and, where the noise is retained, the retained eta and eps
    aligned with them (else None), time along the last axis."""

    n: int
    burn_in: int | np.ndarray
    blocks: Iterator

    def collect(self) -> list:
        """[x], or [x, eta, eps] where the noise is retained: a lone block
        as it is, else the blocks written into preallocated arrays of n + 1
        steps."""
        out, t = None, 0
        for block in self.blocks:
            block = [b for b in block if b is not None]
            if out is None:
                if block[0].shape[-1] == self.n + 1:
                    return block
                out = [np.empty((*b.shape[:-1], self.n + 1)) for b in block]
            for buf, values in zip(out, block):
                buf[..., t:t + values.shape[-1]] = values
            t += block[0].shape[-1]
        return out


def _simulate_rows(params: ModelParams, n: int, seeds: list, burn: int | None,
                   noise=None, retain: bool = False) -> Iterator:
    """X_0..X_n for each trajectory seed after a verified burn-in, the one
    driver of every path: yields the burn-in each row used once stage 1 and
    the first time block have run, then the blocks of `PathBlocks`.

    Stage 1 and X_1..X_m run in place over the `_block_noise` buffer, whose
    eta the coefficients and then the paths overwrite. Each later block
    continues every row's retained streams from their saved states and
    stitches its first segment onto the X the block before ends with, as
    the fold does, so no byte depends on _TIME_BLOCK. burn None is
    burn_in_for(params). Given noise, `_block_noise` of these seeds at this
    n and a burn-in >= burn, its last burn + m + 1 columns are overwritten.
    retain keeps the retained noise of each block.
    """
    burn, m = burn_in_for(params) if burn is None else burn, min(n, _TIME_BLOCK)
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if burn < 0:
        raise ValueError("burn_in must be >= 0")
    c, e, states = _block_noise(params, seeds, n, burn) if noise is None else noise
    if any(len(b) != len(seeds) or b.shape[1] <= burn + m for b in (c, e)) or (
            (states is None) != (n == m)):
        raise ValueError(f"noise must hold {len(seeds)} rows of burn + m + 1 values")
    c, e = (b[:, b.shape[1] - burn - m - 1:] for b in (c, e))
    kept, eta = c[:, burn:].copy() if retain else None, c[:, -1].copy()
    _coefficients(params, c)
    burns = _burn_in(params, seeds, c, e, burn)
    x, e = c[:, burn:], e[:, burn:]
    with np.errstate(over="ignore", invalid="ignore"):
        _recur(x[:, 1:], e[:, 1:], x[:, 0])
    _check_explosion(x)
    yield burns
    rng, specs = np.random.Generator(np.random.Philox(0)), (params.eta, params.eps)
    for s in range(m + 1, n + 1, _TIME_BLOCK):  # X_s.. is the next block
        yield x, kept, e if retain else None
        width = min(_TIME_BLOCK, n + 1 - s)
        shape = (len(seeds), width + 1)
        c = np.zeros(shape) if params.eta is None else np.empty(shape)
        e = np.empty((len(seeds), width))
        c[:, 0] = eta  # the coefficient of X_s reads eta_{s-1}
        states = [_fill(rng, specs, row, (c[i, 1:], e[i]), s + width <= n)
                  for i, row in enumerate(states)]
        kept, eta = c[:, 1:].copy() if retain else None, c[:, -1].copy()
        _coefficients(params, c)
        with np.errstate(over="ignore", invalid="ignore"):
            _recur(c[:, 1:], e, x[:, -1], stitch=True)
        x = c[:, 1:]
        _check_explosion(x)
    yield x, kept, e if retain else None


def simulate_blocks(params: ModelParams, n: int, seed: int,
                    burn_in: int | None = None, retain: bool = False) -> PathBlocks:
    """`_simulate_rows` of one seed, each block that path alone, so it runs
    in a few time blocks of memory whatever n is. retain keeps the retained
    noise of each block."""
    rows = _simulate_rows(params, n, [seed], burn_in, retain=retain)
    return PathBlocks(n, int(next(rows)[0]),
                      (tuple(b if b is None else b[0] for b in block) for block in rows))


def simulate(params: ModelParams, n: int, seed: int,
             burn_in: int | None = None) -> Trajectory:
    """Simulate X_0..X_n after discarding a verified burn-in (None: the
    derived start `burn_in_for(params)`)."""
    path = simulate_blocks(params, n, seed, burn_in)
    x, = path.collect()
    return Trajectory(x=x, n=n, burn_in=path.burn_in)


def simulate_with_noise(params: ModelParams, n: int, seed: int,
                        burn_in: int | None = None):
    """Like simulate(), also returning the retained noise.

    Returns (trajectory, eta, eps) where eta[t] and eps[t] are the draws
    aligned with X_t: the transition X_{t-1} -> X_t uses the coefficient
    theta + alpha*eta[t-1] + eta[t] and the innovation eps[t]. They are the
    first n + 1 draws of each retained stream, whatever the burn-in.
    """
    path = simulate_blocks(params, n, seed, burn_in, retain=True)
    x, eta, eps = path.collect()
    return Trajectory(x=x, n=n, burn_in=path.burn_in), eta, eps


def block_noise(params: ModelParams, n: int, master_seed: int, replicates, burn: int):
    """The (eta, eps, states) `simulate_block` draws for these replicates at
    burn-in burn (see `_block_noise`): it reads the last b + m + 1 columns
    of eta and eps at any b <= burn, and continues the states."""
    seeds = [replicate_seed(master_seed, r) for r in replicates]
    return _block_noise(params, seeds, n, burn)


def simulate_block(params: ModelParams, n: int, master_seed: int,
                   replicates, burn_in: int | None = None, noise=None) -> np.ndarray:
    """Simulate one trajectory per replicate index, vectorized across rows.

    Row i holds X_0..X_n for replicate replicates[i], seeded independently
    via replicate_seed(master_seed, r); the result does not depend on how
    replicates are grouped into blocks. Given noise, `block_noise` of these
    replicates at this n and a burn-in >= burn_in, only doubled rows and
    later time blocks draw. Where n <= _TIME_BLOCK the result is a view of
    the eta buffer it overwrites, burn-in columns included.
    """
    seeds = [replicate_seed(master_seed, r) for r in replicates]
    rows = _simulate_rows(params, n, seeds, burn_in, noise)
    return PathBlocks(n, next(rows), rows).collect()[0]
