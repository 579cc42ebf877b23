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
`ingest` parses a CSV's bytes _READ_CHARS = 2**18 bytes and the rest of a
line at a time, each read ending where text mode ends a line, into one
float array sized from the file's b"\n" count; it decodes only the reads
the numpy path leaves.

CSV: `write_rows` prints each value as "%.17g" does, _WRITE_BLOCK rows at a
time in numpy. For 1e-4 <= |x| < 1e16, which %.17g prints without an
exponent, the 17 significant digits of x = m 2**e are m 5**(16 - k)
2**(e + 16 - k) with k = floor(log10 |x|), computed exactly in two uint64
limbs and rounded half to even, which is how dtoa rounds the exact binary
value (Gay, "Correctly rounded binary-decimal and decimal-binary
conversions", 1990); they are laid out as %g lays them out: the point
after digit k, or `0.` and -k - 1 zeros before the digits where k < 0, and
no trailing zeros after the point. So the digits and the bytes are those of
%.17g. The other rows, 0, |x| < 1e-4 (subnormals among them), |x| >= 1e16
and non-finite values (about 70 rows in 10**6 of a stationary series), go
through %.17g one by one.

`ingest` reads the rows `write_rows` writes for that domain in numpy too,
straight from the file's bytes, and np.loadtxt decides every other line.
Lines end where text mode ends them, in LF, CRLF or a lone CR. Such a row
is `t,x`, t digits without a leading zero, x an optional '-', digits, '.'
and digits, at most 17 of them significant; the digits are summed as
8-digit SWAR words and give x = W 10**-P. Below 2**53, W and 10**P are
exact doubles, and one division rounds correctly (Clinger, "How to read
floating point numbers accurately", 1990). Otherwise the quotient or a
neighbour 1 ulp away is the double whose `_significand` is W padded to 17
digits, at W 10**-P's exponent: seventeen digits identify a double, so it
is the double nearest the text, as np.loadtxt gives. Empty lines hold no
record there either. Rows outside the domain or with no such neighbour go
to np.loadtxt, and a line it rejects goes to `_locate`. A read that is not
ASCII, or that leaves more than an eighth of its lines to np.loadtxt, and
more than _SLOW_LINES, turns the numpy path off for the rest of the input,
which np.loadtxt then reads whole a read at a time: on input of other
writers (integer or exponent-form values) the numpy pass costs more than
it saves. What np.loadtxt and `_locate` read, and the header, is decoded
as text mode decodes it (UTF-8, undecodable bytes as lone surrogates,
universal newlines), so x, error texts and line numbers are those of a
text-mode read.

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

import functools
import io
import math
import operator
import os
import re
import warnings
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


# ---------------------------------------------------------------------------
# CSV interchange: header `t,x`, one row per index, full double precision

_CSV_ROWS = np.dtype([("t", "<i8"), ("x", "<f8")])
#: rows formatted per write; bounds the size of each formatted string
_WRITE_BLOCK = 1 << 13
#: `ingest` reads this many bytes, and the rest of the last line, at a
#: time: 8192 lines of 32 bytes
_READ_CHARS = 1 << 18
#: `ingest` gives up the numpy path for the rest of its input once a read
#: leaves more than an eighth of its lines, and more than this many, to
#: `_parse_rows`: there the pass costs more than it saves
_SLOW_LINES = 1 << 10
#: rows per parse when a rejected block is searched for its faulty line
_LOCATE_BLOCK = 1 << 10

#: the |x| that `_format_rows` formats in numpy; %.17g prints them (and
#: those up to 1e17) without an exponent
_FIXED_MIN, _FIXED_MAX = 1e-4, 1e16
#: the decimal exponents k = floor(log10 |x|) of the domain
_K_MIN, _K_MAX = -4, 15
_U4, _U8 = np.dtype("<u4"), np.dtype("<u8")
#: 10**j for j = _K_MIN.._K_MAX + 1 as doubles; each is at or above the
#: exact power, so a double |x| >= _POW10[j] exactly when |x| >= 10**j
_POW10 = np.array([float(f"1e{j}") for j in range(_K_MIN, _K_MAX + 2)])
#: 5**(16 - k), below 2**50, split into its high and low 32-bit halves
_POW5 = np.array([5 ** (16 - k) for k in range(_K_MIN, _K_MAX + 1)], dtype=np.uint64)
_POW5_HI, _POW5_LO = _POW5 >> np.uint64(32), _POW5 & np.uint64(0xFFFFFFFF)
#: 10**j for j = 0..16 in uint64, and 10**j for j = 0..20 as doubles, each
#: exact (10**22 is the largest power of ten a double holds exactly)
_POW10_U8 = np.array([10 ** j for j in range(17)], dtype=np.uint64)
_POW10_F8 = np.array([float(f"1e{j}") for j in range(21)])
#: the mask that clears the low i bytes of a '<u8' word, i = 0..8
_WORD_KEEP = np.array([_MASK64 << 8 * i & _MASK64 for i in range(9)], dtype=np.uint64)
#: the bytes around a block's text, so every word and byte `_read_block`
#: reads is in its buffer; '0' is no separator
_PAD = b"0" * 16
#: a line end as text mode reads it, where the bytes hold all of it
_LINE_END = re.compile(rb"\r\n?|\n")


@functools.cache
def _digit_tables():
    """Lookup words of the 4-digit groups g = 0..9999: g's ASCII digits at
    the odd bytes of a '<u8' word (the even bytes hold the decimal point),
    as a '<u4' word, and as a '<u4' word with its leading zeros NUL ('0'
    for 0); and the place 1..4 of g's last nonzero digit (negative for 0).
    Built on the first call, so a process that writes no CSV builds none."""
    g = np.arange(10_000, dtype=np.int64)
    digits = np.empty((10_000, 4), np.uint8)
    top = np.empty_like(digits)
    last = np.full(10_000, -16, dtype=np.int8)
    for i, scale in enumerate((1000, 100, 10, 1)):
        digit = g // scale % 10
        digits[:, i] = digit + 48
        top[:, i] = np.where(g >= scale, digit + 48, 0)
        last[digit != 0] = i + 1
    top[0, 3] = 48
    spaced = np.zeros((10_000, 8), np.uint8)
    spaced[:, 1::2] = digits
    return (spaced.view(_U8)[:, 0], digits.view(_U4)[:, 0],
            top.view(_U4)[:, 0], last)


@functools.cache
def _layout_tables():
    """The constant bytes of the value field, by exponent k and whether a
    point shows: ',', the `0.000` prefix of k < 0 and the point after
    digit k (5 words: the head, then the 4 group words); and, by the last
    digit kept, the mask that keeps digits 1..16 up to it (4 words).
    Built on the first call, as `_digit_tables` is."""
    k = np.arange(_K_MIN, _K_MAX + 1)[:, None, None]
    shows = np.arange(2)[None, :, None]
    fill = np.zeros((len(k), 2, 40), np.uint8)
    fill[..., 0] = 44
    fill[..., 2:4] = np.where(k < 0, [48, 46], 0)
    fill[..., 4:7] = np.where(np.arange(3) < -k - 1, 48, 0)
    # the point after digit i, i = 0..15, is the even byte before digit i + 1
    fill[..., 8::2] = np.where((np.arange(16) == k) & (shows == 1), 46, 0)
    keep = np.zeros((17, 32), np.uint8)
    keep[:, 1::2] = np.where(np.arange(1, 17) <= np.arange(17)[:, None], 0xFF, 0)
    return fill.view(_U8).reshape(-1, 5), keep.view(_U8)


def _significand(x: np.ndarray):
    """(d, k) for each x = m 2**e (53-bit m) of the domain: k = floor(log10
    |x|) and d the 17 significant digits as an integer 10**16 <= d < 10**17,
    so that %.17g prints x as d 10**(k - 16).

    d is m 5**(16 - k) 2**(e + 16 - k) rounded half to even, as dtoa
    rounds: the product is exact in two uint64 limbs and the power of two
    is a right shift of 2..50 bits, m being shifted left 4 bits first. It
    never rounds up to 10**17, since a double below 10**(k + 1) is more
    than 5e-18 of it below.
    """
    bits = x.view(np.uint64)
    exp = (bits >> np.uint64(52) & np.uint64(0x7FF)).astype(np.int64)
    # floor(log10 2**(exp - 1023)), exact for |exp - 1023| < 1100 (Adams,
    # "Ryu: fast float-to-string conversion", 2018); x is 2**(exp - 1023)
    # to under twice that, so k is it or it plus one
    k = (exp - 1023) * 78913 >> 18
    k += np.abs(x) >= _POW10[k + 1 - _K_MIN]
    m = (bits & np.uint64((1 << 52) - 1) | np.uint64(1 << 52)) << np.uint64(4)
    shift = (k - exp + (1075 + 4 - 16)).astype(np.uint64)
    m_hi, m_lo = m >> np.uint64(32), m & np.uint64(0xFFFFFFFF)
    p_hi, p_lo = _POW5_HI[k - _K_MIN], _POW5_LO[k - _K_MIN]
    lo = m_lo * p_lo
    mid = m_hi * p_lo + m_lo * p_hi
    low = lo + (mid << np.uint64(32))
    high = m_hi * p_hi + (mid >> np.uint64(32)) + (low < lo)
    d = high << (np.uint64(64) - shift) | low >> shift
    rest = low & ((np.uint64(1) << shift) - np.uint64(1))
    half = np.uint64(1) << (shift - np.uint64(1))
    d += (rest > half) | (rest == half) & (d & np.uint64(1) == np.uint64(1))
    return d, k


def _value_words(x: np.ndarray):
    """The value field of each row, x in the domain: a head word (',', the
    sign, the `0.000` prefix of k < 0, the first digit) and four words of
    digits 1..16, each at an odd byte, the even byte before it holding the
    point where it follows the digit before. The digits after the point
    stop at the last nonzero one; those before it all stay."""
    d, k = _significand(x)
    spaced, _, _, group_last = _digit_tables()
    fills, keep = _layout_tables()
    top = d // np.uint64(10 ** 8)
    low = (d - top * np.uint64(10 ** 8)).astype(np.int64)
    top = top.astype(np.int64)
    lead = top // 10 ** 8
    top -= lead * 10 ** 8
    groups = np.empty((len(x), 4), np.int64)
    groups[:, 0], groups[:, 1] = np.divmod(top, 10 ** 4)
    groups[:, 2], groups[:, 3] = np.divmod(low, 10 ** 4)
    # digit 16 is 0 on these rows alone; on them the digits after the
    # point may stop early
    short = np.flatnonzero(groups[:, 3] % 10 == 0)
    last = np.full(len(x), 16, dtype=np.int64)
    ends = group_last[groups[short]] + np.arange(0, 16, 4, dtype=np.int64)
    last[short] = np.maximum(ends.max(axis=1), 0)
    fill = np.take(fills, (k - _K_MIN) * 2 + (last > k), axis=0)
    head = (x.view(np.uint64) >> np.uint64(63)) * np.uint64(ord("-") << 8)
    head |= (lead.astype(np.uint64) + np.uint64(48)) << np.uint64(56)
    head |= fill[:, 0]
    words = np.take(spaced, groups)
    words[short] &= np.take(keep, np.maximum(k[short], last[short]), axis=0)
    words |= fill[:, 1:]
    return head, words


def _index_words(out: np.ndarray, t0: int) -> None:
    """Write t = t0, t0 + 1, ... into out, one row of 4-digit '<u4' words
    each, the most significant first, with leading zeros NUL."""
    n, width = out.shape
    _, index, index_top, _ = _digit_tables()
    t = np.arange(t0, t0 + n, dtype=np.int64)
    for j in range(width):
        scale = 10 ** (4 * (width - 1 - j))
        group = t // scale % 10 ** 4
        # t is sorted: rows before `first` have no digit in this word (the
        # last word writes t = 0 as '0'), rows from `full` on have one
        # before it
        first, full = (min(max(v - t0, 0), n)
                       for v in (scale if scale > 1 else 0, scale * 10 ** 4))
        out[:first, j] = 0
        out[first:full, j] = index_top[group[first:full]]
        out[full:, j] = index[group[full:]]


def _format_rows(x: np.ndarray, t0: int) -> str:
    """The CSV rows `t,x_t` of x, t from t0, each `"%d,%.17g\r\n" % (t, x_t)`.

    Each row is first a fixed-width record whose unused bytes are NUL: the
    index words, the value field and CRLF. Deleting the NULs leaves the
    rows. A value outside the domain leaves a marker in its field that its
    own %.17g replaces.
    """
    fixed = (np.abs(x) >= _FIXED_MIN) & (np.abs(x) < _FIXED_MAX)
    fallback = np.flatnonzero(~fixed)
    width = -(-len(str(t0 + len(x) - 1)) // 4)
    rows = np.empty(len(x), [("t", _U4, (width,)), ("head", _U8),
                             ("digits", _U8, (4,)), ("end", "<u2")])
    _index_words(rows["t"], t0)
    rows["head"], rows["digits"] = _value_words(np.where(fixed, x, 1.0))
    rows["end"] = 0x0A0D
    rows["head"][fallback] = 0x012C  # ',' and the marker
    rows["digits"][fallback] = 0
    text = rows.tobytes().translate(None, b"\0").decode("ascii")
    if not fallback.size:
        return text
    pieces = text.split("\x01")
    out = [pieces[0]]
    for value, piece in zip(x[fallback].tolist(), pieces[1:]):
        out += ("%.17g" % value, piece)
    return "".join(out)


def write_rows(fh, blocks) -> None:
    """Write the `t,x` header and the rows `t,x_t` to a text stream, x_0,
    x_1, ... being the values of the arrays `blocks` yields in turn.

    Lines end in CRLF and values carry 17 significant digits, byte for byte
    what `csv.writer` gives for rows `(t, f"{x_t:.17g}")`. `_format_rows`
    formats _WRITE_BLOCK rows at a time: exact integer arithmetic gives the
    digits %.17g gives for 1e-4 <= |x| < 1e16 (see the module docstring),
    and the other values go through %.17g itself.
    """
    fh.write("t,x\r\n")
    t = 0
    for x in blocks:
        x = np.ascontiguousarray(x, dtype=np.float64)
        for start in range(0, len(x), _WRITE_BLOCK):
            rows = x[start:start + _WRITE_BLOCK]
            fh.write(_format_rows(rows, t))
            t += len(rows)


def write_csv(traj: Trajectory, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        write_rows(fh, [traj.x])


def _parse_rows(lines) -> np.ndarray:
    """Parse `t,x` data lines into (t, x) records; ValueError on a bad line.

    This parse alone decides which lines are well formed. Empty lines are
    skipped; `#` is data, not a comment.
    """
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        return np.loadtxt(lines, delimiter=",", dtype=_CSV_ROWS,
                          comments=None, ndmin=1)


def _digit_words(words: np.ndarray, fields) -> tuple:
    """The digits of each row's fields as 8-digit SWAR words: a field (e,
    s, count) is text[s:e] of each row, read as `count` words that end at
    e, 8 bytes apart, with the bytes before s cleared to 0. words[i] is
    the little-endian word at byte i of the text, whose fields hold no
    byte below '0'. Returns the words' integers, (words, rows), the less
    significant word of each field first, and whether every byte of each
    row's fields is a digit."""
    shape = (sum(count for _, _, count in fields), len(fields[0][0]))
    at, outside = np.empty(shape, np.int64), np.empty(shape, np.int64)
    j = 0
    for end, start, count in fields:
        for step in range(8, 8 * count + 1, 8):
            np.subtract(end, step, out=at[j])
            np.subtract(start, at[j], out=outside[j])
            j += 1
    w = words[at]
    w &= _WORD_KEEP.take(outside, mode="clip")
    # a byte 0x00..0x39 plus 0x46 stays below 0x80, one 0x3a..0x7f does not
    high = w + np.uint64(0x4646464646464646)
    high &= np.uint64(0x8080808080808080)
    digits = functools.reduce(np.bitwise_or, high) == 0
    # eight digits, the first in the low byte, to an integer in three
    # multiplies (Lemire, "Quickly parsing eight digits", 2018)
    w &= np.uint64(0x0F0F0F0F0F0F0F0F)
    for mul, shift, keep in ((2561, 8, 0x00FF00FF00FF00FF),
                             (6553601, 16, 0x0000FFFF0000FFFF)):
        w *= np.uint64(mul)
        w >>= np.uint64(shift)
        w &= np.uint64(keep)
    w *= np.uint64(42949672960001)
    w >>= np.uint64(32)
    return w, digits


def _field_value(words: np.ndarray) -> np.ndarray:
    """The integer of one field's 8-digit words, less significant first."""
    value = words[0].copy()
    if len(words) > 1:
        value += words[1] * _POW10_U8[8]
    return value


def _nearest(y: np.ndarray, want_d: np.ndarray, want_k: np.ndarray) -> np.ndarray:
    """Whether each y is in 1e-4 <= y < 1e16 and `_significand` gives
    back (want_d, want_k) for it."""
    inside = (y >= _FIXED_MIN) & (y < _FIXED_MAX)
    d, k = _significand(np.where(inside, y, 1.0))
    return inside & (d == want_d) & (k == want_k)


def _exact_values(w: np.ndarray, p: np.ndarray) -> tuple:
    """The double nearest w 10**-p for each w < 10**17 and p <= 20, and
    whether it is resolved.

    Below 2**53, w and 10**p are exact doubles, so one division rounds
    w 10**-p correctly (Clinger, "How to read floating point numbers
    accurately", 1990). Otherwise that quotient or a neighbour 1 ulp away
    is the nearest double: the one for which `_significand` gives back w's
    own digits, padded to 17, and w 10**-p's exponent. Seventeen
    significant digits identify a double, so the double whose 17 digits
    are the text's is the one nearest the text. The check needs
    1e-4 <= x < 1e16; rows outside it, or whose three candidates all miss,
    are unresolved.
    """
    x = w.astype(np.float64)
    x /= _POW10_F8[p]
    # w >= 2**53 has 16 or 17 digits
    seventeen = w >= _POW10_U8[16]
    want_d = np.where(seventeen, w, w * np.uint64(10))
    want_k = 15 + seventeen - p
    resolved = (w < np.uint64(1 << 53)) | _nearest(x, want_d, want_k)
    miss = np.flatnonzero(~resolved)
    if miss.size:
        first, want_d, want_k = x[miss], want_d[miss], want_k[miss]
        for step in (1, -1):
            y = (first.view(np.int64) + step).view(np.float64)
            hit = _nearest(y, want_d, want_k)
            x[miss[hit]] = y[hit]
            resolved[miss[hit]] = True
    return x, resolved


def _read_block(data: bytes):
    """The (t, x) records of data's lines and the count of its lines, or
    None where data is not ASCII or the numpy path leaves more than an
    eighth of its lines, and more than _SLOW_LINES, to `_parse_rows`: the
    caller then decodes the lines and parses them whole. `_parse_rows`'
    ValueError on the lines it leaves is raised.

    data is whole lines, each ending where text mode ends a line: in
    b"\\n", b"\\r\\n" or a lone b"\\r", which is read as b"\\n". The
    numpy path reads the lines `write_rows` writes for 1e-4 <= |x| < 1e16:
    t digits without a leading zero, ',', an optional '-', digits without a
    leading zero (but `0`), '.' and at most 20 digits, with at most 17
    significant digits in x. Their fields are read as 8-digit words
    (`_digit_words`); `_exact_values` gives the double nearest x's text,
    which `np.loadtxt` gives too. Empty lines hold no record, as in
    `_parse_rows`, which gives one record for each other line it is left
    without its line end: the one non-empty line np.loadtxt skips is a lone
    "\\r", and no line holds one.
    """
    if not data.isascii():
        return None
    buf = b"".join((_PAD, data, _PAD))
    b = np.frombuffer(buf, np.uint8)
    words = np.ndarray((len(buf) - 7,), _U8, buf, strides=(1,))
    at = np.flatnonzero(b < 48)  # the line ends, commas, signs and points
    ch = b[at]
    cr = np.flatnonzero(ch == 13)
    ch[cr[b[at[cr] + 1] != 10]] = 10  # text mode ends a line at a lone CR
    nl = np.flatnonzero(ch == 10)
    crlf = ch.take(nl - 1, mode="clip") == 13
    stop = nl - crlf  # each line's end: its LF, its lone CR or the CR of its CRLF
    ends = at[stop]
    starts = np.empty_like(ends)
    starts[:1] = len(_PAD)
    starts[1:] = at[nl[:-1]] + 1
    # `,.` or `,-.` and the line end close a line, the sign right after
    # the comma
    count = np.diff(nl, prepend=-1) - crlf
    sign = count == 4
    comma = stop - 2 - sign
    dot, sep = at.take(stop - 1, mode="clip"), at.take(comma, mode="clip")
    ok = (count == 3) | sign
    ok &= ch.take(stop - 1, mode="clip") == 46
    ok &= ch.take(comma, mode="clip") == 44
    ok &= (b[sep + 1] == 45) == sign
    lead = sep + 1 + sign
    t_len, i_len, f_len = sep - starts, dot - lead, ends - dot - 1
    # 10**f_len is exact in a double
    ok &= (t_len >= 1) & (i_len >= 1) & (f_len >= 1) & (f_len <= 20)
    zero = b[lead] == 48
    ok &= ((t_len == 1) | (b[starts] != 48)) & ((i_len == 1) | ~zero)
    # past 16 digits after the point, x is `0.` and the digits before the
    # last 16 take the integer part's word
    long = f_len > 16
    ok &= ~long | zero
    hi_end = np.where(long, ends - 16, dot)
    hi_start = np.where(long, dot + 1, lead)
    fields = []
    for end, start in ((sep, starts), (hi_end, hi_start)):
        size = end - start
        words_n = 1 + (size.max(initial=0, where=ok) > 8)
        if words_n > 1:
            ok &= size <= 16
        fields.append((end, start, words_n))
    fields.append((ends, dot + 1, 2))  # the last 16 digits after the point
    w, digits = _digit_words(words, fields)
    ok &= digits
    t = _field_value(w[:fields[0][2]])
    hi = _field_value(w[fields[0][2]:-2])
    scale = np.minimum(f_len, 16)
    # at most 17 significant digits: hi < 10**(17 - scale), so no uint64
    # product below wraps
    ok &= hi < _POW10_U8.take(17 - scale, mode="clip")
    hi *= ok  # rows off the numpy path read 0
    hi *= _POW10_U8.take(scale, mode="clip")
    hi += _field_value(w[-2:]) * ok
    x, resolved = _exact_values(hi, f_len * ok)
    ok &= resolved
    np.negative(x, out=x, where=sign)
    empty = ends == starts  # an empty line holds no record
    slow = np.flatnonzero(~(ok | empty))
    if len(slow) > max(len(ends) >> 3, _SLOW_LINES):
        return None
    rows = np.empty(len(ends), _CSV_ROWS)
    rows["t"] = t
    rows["x"] = x
    if slow.size:
        rows[slow] = _parse_rows([data[a:e].decode("ascii") for a, e in zip(
            (starts[slow] - len(_PAD)).tolist(), (ends[slow] - len(_PAD)).tolist())])
    return (np.delete(rows, np.flatnonzero(empty)) if empty.any() else rows), len(rows)


def _whole_lines(fh, data: bytes) -> bytes:
    """data and the rest of its last line from the binary stream fh, up to
    where text mode ends that line: a b"\\n", or a b"\\r" and the b"\\n"
    after it if one follows. The input's last line gets a b"\\n" if it
    ends in neither. The pieces are joined once, so a long line costs
    linear time."""
    parts = [data]
    while not parts[-1].endswith(b"\n"):
        more = fh.peek()
        if parts[-1].endswith(b"\r"):
            if more[:1] == b"\n":
                parts.append(fh.read(1))
            break
        if not more:
            parts.append(b"\n")
            break
        end = _LINE_END.search(more)
        parts.append(fh.read(end.end() if end else len(more)))
    return b"".join(parts)


def _line_chunks(fh, size: int) -> Iterator:
    """The binary stream fh's bytes in pieces of whole lines, each size
    bytes and the rest of its last line (`_whole_lines`)."""
    while data := fh.read(size):
        yield _whole_lines(fh, data)


def _decode(data: bytes) -> str:
    """data as text mode reads it: UTF-8, each byte that does not decode a
    lone surrogate, and each "\\r\\n" and lone "\\r" a "\\n". data is
    whole lines, so no character and no CRLF pair is cut at its edges."""
    text = data.decode("utf-8", "surrogateescape")
    if "\r" in text:
        text = io.IncrementalNewlineDecoder(None, translate=True).decode(text, final=True)
    return text


def _value_fault(rows: np.ndarray, start: int) -> str | None:
    """Why the first record that breaks the contiguous index from `start` or
    holds a non-finite value is rejected, or None."""
    expected = np.arange(start, start + len(rows))
    bad = np.flatnonzero((rows["t"] != expected) | ~np.isfinite(rows["x"]))
    if not bad.size:
        return None
    i = bad[0]
    if rows["t"][i] != expected[i]:
        return (f"index {rows['t'][i]} breaks the contiguous sequence "
                f"(expected {expected[i]})")
    return "non-finite value"


def _line_fault(line: str, start: int) -> str | None:
    """Why one data line with expected index `start` is rejected, or None."""
    try:
        rows = _parse_rows([line])
    except ValueError:
        fields = line.count(",") + 1
        if fields != 2:
            return f"expected two fields, got {fields}"
        return f"expected an integer index and a float, got {line.rstrip()!r}"
    return _value_fault(rows, start)


def _locate(path, lines: list, lineno: int, start: int,
            reason: str) -> DegenerateDataError:
    """The error naming the first faulty line of a read `ingest` rejected.

    lines is the read cut at each "\\n", its first line being line
    `lineno` of the input and its first row expected at index `start`.
    Walks its non-empty lines _LOCATE_BLOCK at a time through the same parse
    and checks, then line by line within the first that fails; the input is
    not read again, so a pipe is searched as a file is. Falls back to the
    rejection's `reason` if no line is pinned.
    """
    numbered = [(lineno + i, line) for i, line in enumerate(lines) if line]
    for first in range(0, len(numbered), _LOCATE_BLOCK):
        block = numbered[first:first + _LOCATE_BLOCK]
        try:
            clean = _value_fault(_parse_rows([line for _, line in block]),
                                 start) is None
        except ValueError:
            clean = False
        if not clean:
            for offset, (number, line) in enumerate(block):
                why = _line_fault(line, start + offset)
                if why:
                    return DegenerateDataError(f"{path}:{number}: {why}")
        start += len(block)
    return DegenerateDataError(f"{path}: {reason}")


def _newlines(path) -> int:
    """The count of b"\\n" bytes in the file at path, counted in numpy
    over one 64 KiB buffer."""
    count, chunk = 0, bytearray(1 << 16)
    view = np.frombuffer(chunk, np.uint8)
    with open(path, "rb", buffering=0) as fh:
        while size := fh.readinto(chunk):
            count += np.count_nonzero(view[:size] == 10)
    return count


def ingest(path) -> Trajectory:
    """Read a trajectory CSV; errors name the offending line, a pipe's too.

    The input is read as bytes, _READ_CHARS bytes and the rest of a line at
    a time, each read ending where text mode ends a line (`_line_chunks`),
    into one float array: every row ends a line, so a file's b"\\n" count
    bounds the rows, and the array grows only for a pipe (which starts it
    empty) or a file whose lines end in a lone CR. Each read goes through
    `_read_block`, or, where that leaves it, is decoded as text mode
    decodes it (`_decode`) and goes through `_parse_rows` whole; after the
    first read it leaves, every read is. The header is decoded the same
    way. A line either parse rejects, or a record that breaks the index or
    is not finite, goes with its decoded read to `_locate`. Bytes that are
    not UTF-8 reach the parse as lone surrogates, which it rejects like any
    other malformed cell.
    """
    x = np.empty(_newlines(path) if os.path.isfile(path) else 0)
    rows = 0
    with open(path, "rb") as fh:
        header = _decode(_whole_lines(fh, b""))
        if [c.strip() for c in header.split(",")] != ["t", "x"]:
            raise DegenerateDataError(
                f"{path}: expected header 't,x', got {header.rstrip()!r}"
            )
        lineno = 2  # of the first line of the next read, empty lines counted
        fast = True
        for data in _line_chunks(fh, _READ_CHARS):
            try:
                read = _read_block(data) if fast else None
                if read is None:
                    fast = False
                    lines = _decode(data).split("\n")
                    read = _parse_rows(lines), len(lines) - 1
                block, count = read
                fault = _value_fault(block, rows)
            except ValueError as exc:
                fault = str(exc)
            if fault is not None:
                raise _locate(path, _decode(data).split("\n"), lineno, rows, fault)
            lineno += count
            if rows + len(block) > len(x):
                x.resize(2 * (rows + len(block)), refcheck=False)
            x[rows:rows + len(block)] = block["x"]
            rows += len(block)
    if rows < 2:
        raise DegenerateDataError(f"{path}: need at least two observations")
    x.resize(rows, refcheck=False)
    return Trajectory(x=x, n=rows - 1)
