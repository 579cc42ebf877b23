"""Trajectory generation with reproducible randomness and principled burn-in.

Randomness contract: replicate r of master seed s uses the 64-bit avalanche
mix of (s, r); within one trajectory the coefficient noise and the innovation
noise come from independent Philox streams derived from the trajectory seed,
so the coefficient path is reproducible on its own. The stream with tag g of
trajectory seed e is numpy's Generator(Philox(key=mix64(e, g))): the key
words (mix64(e, g), 0) at counter 0. Philox is counter-based, so any key
and a zero counter fix an independent stream (Salmon et al., "Parallel
random numbers: as easy as 1, 2, 3", 2011), and one bit generator is
re-keyed for each stream of a block.
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
from X_0. `simulate_block` runs many rows; `simulate` and
`simulate_with_noise` run one, so a block row equals the scalar path bit for
bit. Each stage of more than _FOLD steps is folded, as a first-order linear
recurrence is a scan (Blelloch, "Prefix sums and their applications",
1990): cut every _FOLD steps from its first step, its pieces run side by
side and are stitched with the running products of their coefficients. A
longer path only adds pieces, and the fold moves a path by round-off only
(about 1e-15 at n = 1e6).

Memory: a block of T = burn + n + 1 columns holds two (rows, T) float64
arrays, the eta and the eps noise. The coefficients, and then the path,
overwrite the eta noise in place (the coefficients one row at a time, with
one row of scratch), and `simulate_block` returns the view [:, burn:] of
that buffer, not a copy. Folding X_1..X_n adds one (rows, n - _FOLD) array
of running products. Only `simulate_with_noise` copies the retained eta.

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

import itertools
import math
import operator
import warnings
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


def _block_noise(params: ModelParams, seeds: list, n: int, burn: int):
    """eta and eps of each trajectory seed, burn + n + 1 values per row in
    time order.

    Each segment is one draw from Philox with the key (mix64(seed, tag), 0)
    and a zero counter, made by re-keying one bit generator. The
    retained tags fill the last n + 1 columns, aligned with X_0..X_n; draw k
    of a burn-in tag fills the column k + 1 steps before X_0. eps[:, 0]
    precedes the recurrence; eta is zeros without coefficient noise.
    """
    shape = (len(seeds), burn + n + 1)
    eta = np.zeros(shape) if params.eta is None else np.empty(shape)
    eps = np.empty(shape)
    words = [operator.index(s) & _MASK64 for s in seeds]
    keys = mix64(np.array(words, dtype=np.uint64)[:, None], _STREAM_TAGS)
    rng = np.random.Generator(np.random.Philox(0))
    # Python ints: the setter takes them exactly and faster than array rows
    for i, row_keys in enumerate(keys.tolist()):
        segments = (eta[i, burn:], eps[i, burn:], eta[i, :burn][::-1], eps[i, :burn][::-1])
        for spec, key, out in zip((params.eta, params.eps) * 2, row_keys, segments):
            if spec is not None and out.size:
                rng.bit_generator.state = {
                    "bit_generator": "Philox",
                    "state": {"counter": [0, 0, 0, 0], "key": [key, 0]},
                    "buffer": [0, 0, 0, 0], "buffer_pos": 4,
                    "has_uint32": 0, "uinteger": 0}
                out[:] = spec.sample(rng, out.size)
    return eta, eps


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
        x = np.asarray(self.x, dtype=float)
        object.__setattr__(self, "x", x)
        if x.ndim != 1 or len(x) != self.n + 1:
            raise DegenerateDataError(
                f"trajectory length {len(x)} does not match n + 1 = {self.n + 1}"
            )
        if not np.all(np.isfinite(x)):
            raise DegenerateDataError("trajectory contains non-finite values")


def _check_explosion(x: np.ndarray):
    # two reductions and no temporary: a nan fails both comparisons
    if not (x.max(initial=0.0) <= EXPLOSION_LIMIT
            and x.min(initial=0.0) >= -EXPLOSION_LIMIT):
        raise HypothesisError(
            "trajectory exploded (|X_t| > 1e300); the log-moment stationarity "
            "condition (H1) is likely violated"
        )


def _recur(c: np.ndarray, e: np.ndarray, y=0.0) -> None:
    """Overwrite c with y_t = c_t y_{t-1} + e_t along the last axis, y_{-1} = y.

    Leading axes are independent rows. More than _FOLD steps are cut every
    _FOLD steps from the first; the pieces run side by side, the first from
    y and the rest from 0, and each after the first adds its running
    coefficient product times the value carried out of the one before. So
    the first _FOLD steps are the sequential recurrence.
    """
    steps = c.shape[-1]
    if steps > _FOLD:
        gain = np.empty((*c.shape[:-1], steps - _FOLD))
        for s in range(_FOLD, steps, _FOLD):
            np.cumprod(c[..., s:s + _FOLD], axis=-1, out=gain[..., s - _FOLD:s])
        cut = steps - steps % _FOLD
        # splitting the last axis is a view, so the run writes into c
        seg = c[..., :cut].reshape(*c.shape[:-1], -1, _FOLD)
        start = np.zeros(seg.shape[:-1])
        start[..., 0] = y
        _recur(seg, e[..., :cut].reshape(seg.shape), start)
        _recur(c[..., cut:], e[..., cut:])
        for s in range(_FOLD, steps, _FOLD):
            c[..., s:s + _FOLD] += gain[..., s - _FOLD:s] * c[..., s - 1, None]
        return
    for t in range(steps):
        col = c[..., t]
        col *= y
        col += e[..., t]
        y = col


def _simulate_rows(params: ModelParams, n: int, seeds: list, burn: int | None,
                   retain: bool = False, noise=None):
    """X_0..X_n for each trajectory seed, after a verified burn-in.

    Returns (x, burns, eta, eps): row i holds the path of seeds[i], the
    burn-in it used and, if retain, its retained noise (else eta and eps are
    None); x is a view of the eta buffer, which the coefficients and then
    the path overwrite. burn None is burn_in_for(params); given noise, its
    last burn + n + 1 columns are read. Rows whose initial condition is not
    forgotten rerun only their burn-in, redrawn at twice the length; then a
    path past EXPLOSION_LIMIT raises HypothesisError.
    """
    if burn is None:
        burn = burn_in_for(params)
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if burn < 0:
        raise ValueError("burn_in must be >= 0")
    noise = _block_noise(params, seeds, n, burn) if noise is None else noise
    if any(len(b) != len(seeds) or b.shape[1] <= burn + n for b in noise):
        raise ValueError(f"noise must hold {len(seeds)} rows of burn + n + 1 values")
    path, eps = (b[:, b.shape[1] - burn - n - 1:] for b in noise)
    kept = (path[:, burn:].copy(), eps[:, burn:]) if retain else (None, None)
    _coefficients(params, path)
    path[:, 0] = 0.0  # the start; the other columns are coefficients
    x, burns = path[:, burn:], np.full(len(seeds), burn)
    slow, b, c, e = np.arange(len(seeds)), burn, path, eps
    with np.errstate(over="ignore", invalid="ignore"):
        while True:  # stage 1: the slow rows' b burn-in steps, 0 to X_0
            gap = _TWIN_START * np.abs(np.prod(c[:, 1:b + 1], axis=1))
            _recur(c[:, 1:b + 1], e[:, 1:b + 1])
            x[slow, 0], burns[slow] = c[:, b], b
            slow = slow[~(gap < FORGET_TOL)] if b else []
            if not len(slow):
                break
            if b >= MAX_BURN_IN:
                raise HypothesisError(
                    f"initial condition not forgotten after burn-in {b}; "
                    "the process is at or beyond the stationarity boundary")
            b = min(2 * b, MAX_BURN_IN)
            c, e = _block_noise(params, [seeds[i] for i in slow], 0, b)
            _coefficients(params, c)
        _recur(x[:, 1:], eps[:, burn + 1:], x[:, 0])  # stage 2, once per row
    _check_explosion(x)
    return (x, burns, *kept)


def simulate(params: ModelParams, n: int, seed: int,
             burn_in: int | None = None) -> Trajectory:
    """Simulate X_0..X_n after discarding a verified burn-in (None: the
    derived start `burn_in_for(params)`)."""
    x, burns, _, _ = _simulate_rows(params, n, [seed], burn_in)
    return Trajectory(x=x[0], n=n, burn_in=int(burns[0]))


def simulate_with_noise(params: ModelParams, n: int, seed: int,
                        burn_in: int | None = None):
    """Like simulate(), also returning the retained noise.

    Returns (trajectory, eta, eps) where eta[t] and eps[t] are the draws
    aligned with X_t: the transition X_{t-1} -> X_t uses the coefficient
    theta + alpha*eta[t-1] + eta[t] and the innovation eps[t]. They are the
    first n + 1 draws of each retained stream, whatever the burn-in.
    """
    x, burns, eta, eps = _simulate_rows(params, n, [seed], burn_in, retain=True)
    traj = Trajectory(x=x[0], n=n, burn_in=int(burns[0]))
    return traj, eta[0], eps[0]


def block_noise(params: ModelParams, n: int, master_seed: int, replicates, burn: int):
    """The (eta, eps) `simulate_block` draws for these replicates at burn-in
    burn; their last b + n + 1 columns are its noise at any b <= burn."""
    seeds = [replicate_seed(master_seed, r) for r in replicates]
    return _block_noise(params, seeds, n, burn)


def simulate_block(params: ModelParams, n: int, master_seed: int,
                   replicates, burn_in: int | None = None, noise=None) -> np.ndarray:
    """Simulate one trajectory per replicate index, vectorized across rows.

    Row i holds X_0..X_n for replicate replicates[i], seeded independently
    via replicate_seed(master_seed, r); the result does not depend on how
    replicates are grouped into blocks. Given noise, `block_noise` of these
    replicates at a burn-in >= burn_in, only doubled rows draw. The result
    is a view of the eta buffer it overwrites, burn-in columns included.
    """
    seeds = [replicate_seed(master_seed, r) for r in replicates]
    return _simulate_rows(params, n, seeds, burn_in, noise=noise)[0]


# ---------------------------------------------------------------------------
# CSV interchange: header `t,x`, one row per index, full double precision

_CSV_ROWS = np.dtype([("t", "<i8"), ("x", "<f8")])
#: rows formatted per write; bounds the size of each formatted string
_WRITE_BLOCK = 1 << 16
#: rows per parse when a rejected file is searched for its faulty line
_LOCATE_BLOCK = 1 << 10


def write_rows(fh, x) -> None:
    """Write the `t,x` header and the rows `t,x[t]` to a text stream.

    Lines end in CRLF and values carry 17 significant digits, byte for byte
    what `csv.writer` gives for rows `(t, f"{x[t]:.17g}")`.
    """
    fh.write("t,x\r\n")
    for start in range(0, len(x), _WRITE_BLOCK):
        block = x[start:start + _WRITE_BLOCK].tolist()
        cells = [None] * (2 * len(block))
        cells[0::2] = range(start, start + len(block))
        cells[1::2] = block
        fh.write(("%d,%.17g\r\n" * len(block)) % tuple(cells))


def write_csv(traj: Trajectory, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        write_rows(fh, traj.x)


def _parse_rows(lines) -> np.ndarray:
    """Parse `t,x` data lines into (t, x) records; ValueError on a bad line.

    This parse alone decides which lines are well formed. Empty lines are
    skipped; `#` is data, not a comment.
    """
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        return np.loadtxt(lines, delimiter=",", dtype=_CSV_ROWS,
                          comments=None, ndmin=1)


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


def _locate(path, reason: str) -> DegenerateDataError:
    """The error naming the first faulty line of a file `ingest` rejected.

    Walks the non-empty lines after the header in blocks through the same
    parse and checks, then line by line within the first block that fails.
    Falls back to the rejection's `reason` if no line is pinned.
    """
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        numbered = ((lineno, line) for lineno, line in enumerate(fh, start=1)
                    if lineno > 1 and line != "\n")
        start = 0
        while block := list(itertools.islice(numbered, _LOCATE_BLOCK)):
            lines = [line for _, line in block]
            try:
                clean = _value_fault(_parse_rows(lines), start) is None
            except ValueError:
                clean = False
            if not clean:
                for offset, (lineno, line) in enumerate(block):
                    why = _line_fault(line, start + offset)
                    if why:
                        return DegenerateDataError(f"{path}:{lineno}: {why}")
            start += len(block)
    return DegenerateDataError(f"{path}: {reason}")


def ingest(path) -> Trajectory:
    """Read a trajectory CSV; errors name the offending line.

    Bytes that are not UTF-8 reach the parse as lone surrogates, which it
    rejects like any other malformed cell.
    """
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        header = fh.readline()
        if [c.strip() for c in header.split(",")] != ["t", "x"]:
            raise DegenerateDataError(
                f"{path}: expected header 't,x', got {header.rstrip()!r}"
            )
        try:
            rows = _parse_rows(fh)
        except ValueError as exc:
            raise _locate(path, str(exc)) from None
    fault = _value_fault(rows, 0)
    if fault is not None:
        raise _locate(path, fault)
    if len(rows) < 2:
        raise DegenerateDataError(f"{path}: need at least two observations")
    return Trajectory(x=np.ascontiguousarray(rows["x"]), n=len(rows) - 1)
