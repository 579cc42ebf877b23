"""Trajectory generation with reproducible randomness and principled burn-in.

Randomness contract: replicate r of master seed s uses the 64-bit avalanche
mix of (s, r); within one trajectory the coefficient noise and the innovation
noise come from independent Philox streams derived from the trajectory seed,
so the coefficient path is reproducible on its own. The stream with tag g of
trajectory seed e is Philox with a zero counter and the key
SeedSequence(mix64(e, g)).generate_state(2, np.uint64). The keys of a block
are derived per block, by one vectorised pass of SeedSequence's hash that
equals it bit for bit, and one bit generator is re-keyed for each stream
(Philox is counter-based, so a key and a zero counter fix the stream;
Salmon et al., "Parallel random numbers: as easy as 1, 2, 3", 2011).
Layout 3: the retained noise, aligned with X_0..X_n, is the first n + 1
draws of the two retained streams, and the burn-in is drawn from two
streams of its own, backward in time (draw k is the noise k + 1 steps
before X_0). So no noise depends on n, nor retained noise on the burn-in: a
row whose burn-in doubles below keeps the nearer half, and burn_in 0 reads
the retained streams alone. At a given (seed, burn_in), X_0..X_n is the
prefix of X_0..X_n' for any n' >= n: bitwise while the burn-in used plus n'
is at most _FOLD, to round-off (under 1e-15 at n' = 1e6) past it.
Everything is bitwise deterministic given (params, n, seed, burn_in) and
independent of evaluation order or parallelism.

One kernel, `_recur`, runs the recurrence X_t = theta_t X_{t-1} + eps_t
down the time axis of a (rows, T) block, vectorised across rows, and writes
the path over the coefficients. `simulate_block` runs many rows;
`simulate_with_noise` and `simulate` run one, so a block row equals the
scalar path bit for bit. Paths of at most _FOLD steps are the plain
sequential recurrence. A longer path is folded, because a first-order
linear recurrence is a scan (Blelloch, "Prefix sums and their
applications", 1990): ceil(T / _FOLD) equal segments run from 0 side by
side and are stitched with the cumulative products of their coefficients.
The fold depends only on T, never on how rows are grouped, and moves a path
by round-off only (about 1e-15 at n = 1e6).

Memory: a block of T = burn + n + 1 columns holds two (rows, T) float64
arrays, the eta and the eps noise. The coefficients, and then the path,
overwrite the eta noise in place (the coefficients one row at a time, with
one row of scratch), and `simulate_block` returns the view [:, burn:] of
that buffer, not a copy. A folded path adds one (rows, T) array of running
products. Only `simulate_with_noise` keeps a copy of the retained eta. The
Monte Carlo harness sizes the rows of each block from a byte budget, so a
block's working set is at most max(budget, one row's working set), whatever
n is.

The recurrence starts at 0 and discards `burn_in` steps. The initial
condition is forgotten exponentially fast, at the contraction rate
E ln|theta_t| < 0 of (H1) (Brandt, "The stochastic equation
Y_{n+1} = A_n Y_n + B_n with stationary coefficients", 1986), and the
generator verifies it: a copy started at _TWIN_START on the same noise
differs from the path after b steps by exactly _TWIN_START * |theta_1 ...
theta_b|. Rows where that gap is 1e-8 or more are simulated again with the
burn-in doubled (up to 2**16). burn_in None, the default everywhere, starts
from `burn_in_for(params)`: _RATE_MARGIN times the steps the rate needs to
shrink the gap below the tolerance, or DEFAULT_BURN_IN where the rate,
with its error bound, is not negative.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDataError, HypothesisError
from .model import ModelParams, log_moment

#: layout 3: the burn-in has streams of its own, laid backward from X_0
GENERATOR_ID = f"numpy.random.Philox (numpy {np.__version__}), layout 3"

#: the start where the contraction rate gives no bound
DEFAULT_BURN_IN = 2000
MAX_BURN_IN = 2**16
FORGET_TOL = 1e-8
EXPLOSION_LIMIT = 1e300

_TWIN_START = 100.0
#: derived burn-in over the steps a constant contraction would need; ln of the
#: twin gap is a random walk, and the margin covers its spread for most rows
_RATE_MARGIN = 2.0
#: longest path the kernel runs as one sequential loop; longer ones are folded
_FOLD = 2**14
_MASK64 = (1 << 64) - 1
_ETA_STREAM = 0xE7A
_EPS_STREAM = 0xE95
_ETA_BURN = 0xB7A
_EPS_BURN = 0xB95


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
    return mix64(master_seed & _MASK64, replicate)


def _hash_constants(init: int, mult: int, count: int) -> np.ndarray:
    """The (xor, multiplier) pairs of `count` successive hash steps, as
    uint32 columns: step k xors with h_k, multiplies by h_{k+1} = h_k * mult."""
    h = [init]
    for _ in range(count):
        h.append(h[-1] * mult & 0xFFFFFFFF)
    return np.array([h[:-1], h[1:]], dtype=np.uint32)[:, :, None]


# numpy's SeedSequence (pool of four uint32 words; O'Neill's seed_seq_fe):
# its entropy hash runs 4 + 12 steps, its output hash one step per word
_POOL_HASH = _hash_constants(0x43B0D7E5, 0x931E8875, 16)
_WORD_HASH = _hash_constants(0x8B51F9DD, 0x58F38DED, 4)
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
#: per source word of the pool mix: the other words, in order, and the
#: hash steps the mix spends on them
_POOL_MIX = [([d for d in range(4) if d != s], _POOL_HASH[:, 4 + 3 * s:7 + 3 * s])
             for s in range(4)]
_STREAM_TAGS = np.array([_ETA_STREAM, _EPS_STREAM, _ETA_BURN, _EPS_BURN], dtype=np.uint64)


def _hashmix(v: np.ndarray, steps: np.ndarray) -> np.ndarray:
    v = v ^ steps[0]
    v *= steps[1]
    v ^= v >> np.uint32(16)
    return v


def _philox_keys(entropy: np.ndarray) -> np.ndarray:
    """The Philox key of each uint64 entropy: an array of shape
    entropy.shape + (2,), equal to SeedSequence(e).generate_state(2,
    np.uint64) for every entry e.

    SeedSequence reads e as its low and high 32-bit words, one word below
    2**32; its unused pool words hash a 0, so a high word of 0 and a missing
    one give the same pool. Every entry runs the same fixed steps, so the
    whole array is hashed at once.
    """
    e = entropy.ravel()
    pool = np.zeros((4, e.size), dtype=np.uint32)
    pool[0], pool[1] = e & 0xFFFFFFFF, e >> 32
    pool = _hashmix(pool, _POOL_HASH[:, :4])
    for s, (dst, steps) in enumerate(_POOL_MIX):
        mixed = pool[dst] * _MIX_L
        mixed -= _hashmix(pool[s], steps) * _MIX_R
        mixed ^= mixed >> np.uint32(16)
        pool[dst] = mixed
    w = _hashmix(pool, _WORD_HASH).astype(np.uint64)
    keys = np.stack([w[0] | w[1] << 32, w[2] | w[3] << 32], axis=-1)
    return keys.reshape(*entropy.shape, 2)


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

    Each segment is one draw from Philox keyed by its SeedSequence(mix64(seed,
    tag)) with a zero counter, made by re-keying one bit generator. The
    retained tags fill the last n + 1 columns, aligned with X_0..X_n; draw k
    of a burn-in tag fills the column k + 1 steps before X_0. eps[:, 0]
    precedes the recurrence; eta is zeros without coefficient noise.
    """
    shape = (len(seeds), burn + n + 1)
    eta = np.zeros(shape) if params.eta is None else np.empty(shape)
    eps = np.empty(shape)
    entropy = mix64(np.array([s & _MASK64 for s in seeds], dtype=np.uint64)[:, None],
                    _STREAM_TAGS)
    rng = np.random.Generator(np.random.Philox(0))
    for i, row_keys in enumerate(_philox_keys(entropy).tolist()):
        segments = (eta[i, burn:], eps[i, burn:], eta[i, :burn][::-1], eps[i, :burn][::-1])
        for spec, key, out in zip((params.eta, params.eps) * 2, row_keys, segments):
            if spec is not None and out.size:
                rng.bit_generator.state = {
                    "bit_generator": "Philox",
                    "state": {"counter": [0, 0, 0, 0], "key": key},
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


def _recur(c: np.ndarray, e: np.ndarray) -> None:
    """Overwrite c with y_t = c_t y_{t-1} + e_t along the last axis, y_{-1} = 0.

    Leading axes are independent rows. More than _FOLD steps are folded:
    the head and the k segments are run from 0, then segment j gets its
    running coefficient product times the value carried out of segment j-1.
    """
    steps = c.shape[-1]
    if steps > _FOLD:
        k = -(-steps // _FOLD)
        width = steps // k
        head = steps - k * width
        _recur(c[..., :head], e[..., :head])
        # splitting the last axis is a view, so the runs below write into c
        seg = c[..., head:].reshape(*c.shape[:-1], k, width)
        gain = np.cumprod(seg, axis=-1)
        _recur(seg, e[..., head:].reshape(seg.shape))
        carry = c[..., head - 1] if head else np.zeros(c.shape[:-1])
        for j in range(k):
            seg[..., j, :] += gain[..., j, :] * carry[..., None]
            carry = seg[..., j, -1]
        return
    y = np.zeros(c.shape[:-1])
    for t in range(steps):
        col = c[..., t]
        col *= y
        col += e[..., t]
        y = col


def _simulate_rows(params: ModelParams, n: int, seeds: list, burn: int | None,
                   retain: bool = False):
    """X_0..X_n for each trajectory seed, after a verified burn-in.

    Returns (x, burns, eta, eps): row i holds the path of seeds[i], the
    burn-in it used and, if retain, its retained noise (else eta and eps are
    None); x is a view of the eta buffer, which the coefficients and then
    the path overwrite. burn None is burn_in_for(params). Rows whose initial
    condition is not forgotten are simulated again, recursively, with the
    burn-in doubled; then a path past EXPLOSION_LIMIT raises HypothesisError.
    """
    if burn is None:
        burn = burn_in_for(params)
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if burn < 0:
        raise ValueError("burn_in must be >= 0")
    path, eps = _block_noise(params, seeds, n, burn)
    kept = (path[:, burn:].copy(), eps[:, burn:]) if retain else (None, None)
    _coefficients(params, path)
    path[:, 0] = 0.0  # the start; the other columns are coefficients
    coef = path[:, 1:]
    with np.errstate(over="ignore", invalid="ignore"):
        gap = _TWIN_START * np.abs(np.prod(coef[:, :burn], axis=1))
        _recur(coef, eps[:, 1:])
    del eps  # freed before any doubled rows are simulated
    x = path[:, burn:]
    burns = np.full(len(seeds), burn)
    slow = np.flatnonzero(~(gap < FORGET_TOL)) if burn else []
    if len(slow):
        if burn >= MAX_BURN_IN:
            raise HypothesisError(
                f"initial condition not forgotten after burn-in {burn}; "
                "the process is at or beyond the stationarity boundary"
            )
        x[slow], burns[slow] = _simulate_rows(
            params, n, [seeds[i] for i in slow], min(2 * burn, MAX_BURN_IN))[:2]
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


def simulate_block(params: ModelParams, n: int, master_seed: int,
                   replicates, burn_in: int | None = None) -> np.ndarray:
    """Simulate one trajectory per replicate index, vectorized across rows.

    Row i holds X_0..X_n for replicate replicates[i], seeded independently
    via replicate_seed(master_seed, r); the result does not depend on how
    replicates are grouped into blocks. It is a view, with a row stride of
    burn + n + 1 values, of the one (rows, burn + n + 1) buffer the block
    keeps; the burn-in columns stay allocated while the view lives.
    """
    seeds = [replicate_seed(master_seed, r) for r in replicates]
    return _simulate_rows(params, n, seeds, burn_in)[0]


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
