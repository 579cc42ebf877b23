"""Trajectory generation with reproducible randomness and principled burn-in.

Randomness contract: replicate r of master seed s uses the 64-bit avalanche
mix of (s, r); within one trajectory the coefficient noise and the innovation
noise are two independent Philox streams derived from the trajectory seed, so
the coefficient path is reproducible on its own. Each stream is drawn as one
run of burn_in + n + 1 values and the retained segment is its tail, so the
retained draws depend on the burn-in actually used: a different burn_in, or
the automatic doubling below, shifts them (ROADMAP item 2). Everything is
bitwise deterministic given (params, n, seed, burn_in) and independent of
evaluation order or parallelism.

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

The recurrence starts at 0 and discards `burn_in` steps. The initial
condition is forgotten exponentially fast, and the generator verifies it: a
copy started at _TWIN_START on the same noise differs from the path after b
steps by exactly _TWIN_START * |theta_1 ... theta_b|. Rows where that gap is
1e-8 or more are simulated again with the burn-in doubled (up to 2**16).
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDataError, HypothesisError
from .model import ModelParams

GENERATOR_ID = f"numpy.random.Philox (numpy {np.__version__})"

DEFAULT_BURN_IN = 2000
MAX_BURN_IN = 2**16
FORGET_TOL = 1e-8
EXPLOSION_LIMIT = 1e300

_TWIN_START = 100.0
#: longest path the kernel runs as one sequential loop; longer ones are folded
_FOLD = 2**14
_MASK64 = (1 << 64) - 1
_ETA_STREAM = 0xE7A
_EPS_STREAM = 0xE95


def mix64(a: int, b: int) -> int:
    """Avalanche mix of two 64-bit values (splitmix64 finalizer).

    The stream offset is (b + 1) so that (0, 0) does not sit on the
    finalizer's zero fixed point.
    """
    z = (a + (b + 1) * 0x9E3779B97F4A7C15) & _MASK64
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & _MASK64
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def replicate_seed(master_seed: int, replicate: int) -> int:
    return mix64(master_seed & _MASK64, replicate)


def _stream(seed: int, tag: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(mix64(seed, tag))))


def _draw_eta(params: ModelParams, seed: int, size: int) -> np.ndarray:
    """The first `size` coefficient-noise draws; zeros without eta noise."""
    if params.eta is None:
        return np.zeros(size)
    return params.eta.sample(_stream(seed, _ETA_STREAM), size)


def _draw_noise(params: ModelParams, seed: int, total: int):
    """eta[0..total] and eps[0..total]; eps[0] precedes the recurrence."""
    return (_draw_eta(params, seed, total + 1),
            params.eps.sample(_stream(seed, _EPS_STREAM), total + 1))


def _coefficients(params: ModelParams, eta: np.ndarray, out=None) -> np.ndarray:
    """theta + alpha*eta[t-1] + eta[t] for each t >= 1 along the last axis."""
    out = np.multiply(params.alpha, eta[..., :-1], out=out)
    out += params.theta
    out += eta[..., 1:]
    return out


@dataclass(frozen=True)
class Trajectory:
    """A simulated or ingested series X_0..X_n with provenance."""

    x: np.ndarray
    n: int
    seed: int | None = None
    burn_in: int | None = None
    params_echo: ModelParams | None = None

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        object.__setattr__(self, "x", x)
        if x.ndim != 1 or len(x) != self.n + 1:
            raise DegenerateDataError(
                f"trajectory length {len(x)} does not match n + 1 = {self.n + 1}"
            )
        if not np.all(np.isfinite(x)):
            raise DegenerateDataError("trajectory contains non-finite values")


@dataclass(frozen=True)
class CoefficientPath:
    """theta_t for t = 1..n, aligned with the transitions X_{t-1} -> X_t."""

    theta: np.ndarray
    seed: int
    params_echo: ModelParams


def _check_explosion(x: np.ndarray):
    if not np.all(np.isfinite(x)) or np.max(np.abs(x)) > EXPLOSION_LIMIT:
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
        y = c[..., t] * y + e[..., t]
        c[..., t] = y


def _simulate_rows(params: ModelParams, n: int, seeds: list, burn: int):
    """X_0..X_n for each trajectory seed, after a verified burn-in.

    Returns (x, burns, eta, eps): row i holds the path of seeds[i], the
    burn-in it used and its retained noise. Rows whose initial condition is
    not forgotten are simulated again, recursively, with the burn-in doubled.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if burn < 0:
        raise ValueError("burn_in must be >= 0")
    total = burn + n
    eta = np.empty((len(seeds), total + 1))
    eps = np.empty_like(eta)
    for i, seed in enumerate(seeds):
        eta[i], eps[i] = _draw_noise(params, seed, total)
    path = np.empty_like(eta)  # column 0 is the start, the rest coefficients
    path[:, 0] = 0.0
    coef = _coefficients(params, eta, out=path[:, 1:])
    with np.errstate(over="ignore", invalid="ignore"):
        gap = _TWIN_START * np.abs(np.prod(coef[:, :burn], axis=1))
        _recur(coef, eps[:, 1:])
    x, eta, eps = path[:, burn:], eta[:, burn:], eps[:, burn:]
    burns = np.full(len(seeds), burn)
    slow = np.flatnonzero(~(gap < FORGET_TOL)) if burn else []
    if len(slow):
        if burn >= MAX_BURN_IN:
            raise HypothesisError(
                f"initial condition not forgotten after burn-in {burn}; "
                "the process is at or beyond the stationarity boundary"
            )
        x[slow], burns[slow], eta[slow], eps[slow] = _simulate_rows(
            params, n, [seeds[i] for i in slow], min(2 * burn, MAX_BURN_IN))
    return x, burns, eta, eps


def simulate(params: ModelParams, n: int, seed: int,
             burn_in: int = DEFAULT_BURN_IN) -> Trajectory:
    """Simulate X_0..X_n after discarding a verified burn-in."""
    traj, _, _ = simulate_with_noise(params, n, seed, burn_in)
    return traj


def simulate_with_noise(params: ModelParams, n: int, seed: int,
                        burn_in: int = DEFAULT_BURN_IN):
    """Like simulate(), also returning the retained noise.

    Returns (trajectory, eta, eps) where eta[t] and eps[t] are the draws
    aligned with X_t: the transition X_{t-1} -> X_t uses the coefficient
    theta + alpha*eta[t-1] + eta[t] and the innovation eps[t].
    """
    x, burns, eta, eps = _simulate_rows(params, n, [seed], burn_in)
    _check_explosion(x)
    traj = Trajectory(x=x[0], n=n, seed=seed, burn_in=int(burns[0]),
                      params_echo=params)
    return traj, eta[0], eps[0]


def simulate_block(params: ModelParams, n: int, master_seed: int,
                   replicates, burn_in: int = DEFAULT_BURN_IN) -> np.ndarray:
    """Simulate one trajectory per replicate index, vectorized across rows.

    Row i holds X_0..X_n for replicate replicates[i], seeded independently
    via replicate_seed(master_seed, r); the result does not depend on how
    replicates are grouped into blocks.
    """
    seeds = [replicate_seed(master_seed, r) for r in replicates]
    x = _simulate_rows(params, n, seeds, burn_in)[0]
    _check_explosion(x)
    return np.ascontiguousarray(x)


def simulate_coefficients(params: ModelParams, n: int, seed: int) -> CoefficientPath:
    """The coefficient process theta_t = theta + alpha*eta_{t-1} + eta_t.

    Uses the same coefficient-noise stream as simulate(params, n, seed,
    burn_in=0), so the returned values are exactly the coefficients that
    trajectory applies.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    theta_t = _coefficients(params, _draw_eta(params, seed, n + 1))
    return CoefficientPath(theta=theta_t, seed=seed, params_echo=params)


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
