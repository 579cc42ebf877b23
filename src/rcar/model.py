"""Process parameters, noise specifications and hypothesis checking.

The process is the first-order autoregression

    X_t = (theta + alpha eta_{t-1} + eta_t) X_{t-1} + eps_t

driven by two mutually independent strong white noises (eps_t) and (eta_t).
Every supported noise family is symmetric, so all odd moments vanish and the
even ones have closed forms; that is what the moment machinery of the other
modules consumes.

`check_hypotheses` reports verdicts for the five model hypotheses:

  H1  strict-stationarity contraction: E[ln |theta + alpha eta_0 + eta_1|]
      < 0 (Brandt's condition for a random-coefficient AR(1)), and
      E[ln+ |eps_0|] < inf, which holds by construction for every supported
      family since they all have finite variance. The log moment is exact
      (`log_moment`): four atoms for rademacher, a closed form for uniform at
      alpha = 0, and otherwise a tanh-sinh quadrature of ln|y| against the
      closed-form density of theta_t, with a bound on its error.
  H2  all odd noise moments vanish: true structurally, every family is
      symmetric.
  H3  second moments of the process exist: sigma2 > 0, tau2 > 0 and the
      spectral radius of the second-order recursion matrix is below 1.
  H4  fourth moments exist: the spectral radius of the fourth-order
      recursion matrix is below 1; sigma4 and tau8 are finite by construction.
  H5  fourth noise moments are continuous functions of the second ones:
      every family carries its closed quadratic map m4 = c * m2^2.
"""

from __future__ import annotations

import enum
import math
from collections import namedtuple
from dataclasses import asdict, dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigurationError, PathologicalParamsError

#: half-width of the excluded neighbourhoods around the exact equalities
#: 2 alpha tau2 = 1 and sqrt(2) theta = +/-(1 - 2 alpha tau2)
BOUNDARY_TOL = 1e-9

#: threshold under which psi00 / sigma2^2, the psi0 numerator freed of the
#: innovation scale, is flagged as vanishing
PSI00_TOL = 1e-8

#: bound on |theta| and |alpha|: they enter the moment and covariance
#: formulas through powers up to the eighth, which must stay finite
MAX_COEFFICIENT = 1e38


def two_alpha_tau2_one(alpha, tau2):
    """2 alpha tau2 = 1 within BOUNDARY_TOL (a deterministic process),
    elementwise over arrays."""
    return abs(2.0 * alpha * tau2 - 1.0) < BOUNDARY_TOL


class NoiseFamily(str, enum.Enum):
    GAUSSIAN = "gaussian"
    UNIFORM = "uniform"
    LAPLACE = "laplace"
    RADEMACHER = "rademacher"

    @classmethod
    def _missing_(cls, value):
        # the one parse of a family name: case and surrounding spaces ignored
        return cls.__members__.get(str(value).strip().upper())


def _gaussian(rng, s, size, out):
    # numpy's normal(0, sd) is 0.0 + sd * z: adding 0.0 keeps a zero's sign
    out = rng.standard_normal(size, out=out)
    out *= math.sqrt(s)
    out += 0.0
    return out


def _uniform(rng, s, size, out):
    # numpy's uniform(-s, s) is -s + (s - -s) * u
    out = rng.random(size, out=out)
    out *= s - -s
    out += -s
    return out


def _assigned(draw):
    """A sampler that writes what draw(rng, s, size) returns into out."""
    def sample(rng, s, size, out):
        values = draw(rng, s, size)
        if out is None:
            return values
        out[...] = values
        return out
    return sample


#: one row per family: its sampler (rng, scale, size, out), its closed-form
#: even moments (m2, m4, m6, m8) of the scale, and the factor c of its
#: fourth-moment map m4 = c * m2^2
_Family = namedtuple("_Family", "sample moments kurtosis")
_FAMILIES = {
    NoiseFamily.GAUSSIAN: _Family(
        _gaussian, lambda s: (s, 3 * s**2, 15 * s**3, 105 * s**4), 3.0),
    # E[X^(2k)] = c^(2k) / (2k + 1) on [-c, c]
    NoiseFamily.UNIFORM: _Family(
        _uniform, lambda s: (s**2 / 3, s**4 / 5, s**6 / 7, s**8 / 9), 9.0 / 5.0),
    # E[X^(2k)] = (2k)! b^(2k)
    NoiseFamily.LAPLACE: _Family(
        _assigned(lambda rng, s, size: rng.laplace(0.0, s, size)),
        lambda s: (2 * s**2, 24 * s**4, 720 * s**6, 40320 * s**8), 6.0),
    NoiseFamily.RADEMACHER: _Family(
        _assigned(lambda rng, s, size: s * (2.0 * rng.integers(0, 2, size) - 1.0)),
        lambda s: (s**2, s**4, s**6, s**8), 1.0),
}

#: m4 = KURTOSIS_FACTOR[family] * m2**2, the family's fourth-moment map
KURTOSIS_FACTOR = {family: row.kurtosis for family, row in _FAMILIES.items()}


@dataclass(frozen=True)
class MomentSet:
    """Even moments m2, m4, m6, m8 of one symmetric noise."""

    m2: float
    m4: float
    m6: float
    m8: float

    def __post_init__(self):
        if not math.isfinite(self.m8):
            raise ConfigurationError("noise moments overflow")
        # a noise that is not zero has every even moment > 0; one that
        # underflows to 0 would make the plug-ins divide 0 by 0
        if not min(self.m2, self.m4, self.m6, self.m8) > 0:
            raise ConfigurationError(
                "degenerate noise: every even moment must be > 0, got "
                f"m2..m8 = {self.m2}, {self.m4}, {self.m6}, {self.m8}")
        # rademacher sits exactly on the Jensen boundary m4 = m2^2
        if self.m4 < self.m2**2 * (1.0 - 1e-12):
            raise ConfigurationError(
                f"impossible moments: m4 = {self.m4} < m2^2 = {self.m2 ** 2}"
            )

    def moment(self, order: int) -> float:
        """Moment of the given order, 0 <= order <= 8 (odd orders are 0)."""
        if order % 2 == 1:
            return 0.0
        try:
            return {0: 1.0, 2: self.m2, 4: self.m4, 6: self.m6, 8: self.m8}[order]
        except KeyError:
            raise ConfigurationError(f"moment of order {order} unavailable") from None


@dataclass(frozen=True)
class NoiseSpec:
    """A symmetric white-noise distribution given by family and scale.

    The scale is the family's natural parameter: the variance for gaussian,
    the half-width c of [-c, c] for uniform, the diversity b for laplace and
    the magnitude c of the +/-c values for rademacher. The family may be
    given by name.
    """

    family: NoiseFamily
    scale: float

    def __post_init__(self):
        object.__setattr__(self, "family", NoiseFamily(self.family))
        if not (math.isfinite(self.scale) and self.scale > 0):
            raise ConfigurationError(
                f"noise scale must be finite and > 0, got {self.scale}")

    def sample(self, rng: np.random.Generator, size: int, out=None) -> np.ndarray:
        """size draws; given out, a contiguous float64 array of that size,
        they are written into it and it is returned."""
        return _FAMILIES[self.family].sample(rng, self.scale, size, out)


def noise_moments(spec: NoiseSpec) -> MomentSet:
    """Closed-form even moments m2..m8 of the given noise."""
    try:
        return MomentSet(*_FAMILIES[spec.family].moments(spec.scale))
    except OverflowError:
        raise ConfigurationError("noise moments overflow") from None


def spells_none(text: str) -> bool:
    """Whether text spells "no noise": `none` in any case, or empty (spaces
    around it ignored). `parse_noise` and run files share this rule."""
    return text.strip().lower() in ("none", "")


def parse_noise(text: str) -> NoiseSpec | None:
    """Parse the CLI syntax 'family:scale'; None where `spells_none(text)`."""
    if spells_none(text):
        return None
    if text.count(":") != 1:
        raise ConfigurationError(
            f"cannot parse noise spec {text!r}: expected family:scale")
    fam, scale = text.split(":")
    try:
        return NoiseSpec(fam, float(scale))
    except ValueError as exc:
        raise ConfigurationError(f"cannot parse noise spec {text!r}: {exc}") from exc


@dataclass(frozen=True)
class ModelParams:
    """Full parameterization: mean coefficient, MA weight, and both noises.

    eta=None declares a non-random coefficient (eta == 0), the classical
    AR(1) reduction; otherwise the model is random-coefficient and tau2 > 0
    holds by construction. Building one resolves both noises' moments and
    rejects, naming the key, a theta or alpha beyond MAX_COEFFICIENT and a
    scale whose moments overflow or degenerate.
    """

    theta: float
    alpha: float
    eps: NoiseSpec
    eta: NoiseSpec | None = None

    def __post_init__(self):
        for key in ("theta", "alpha"):
            value = getattr(self, key)
            if not abs(value) <= MAX_COEFFICIENT:  # nan fails too
                raise ConfigurationError(
                    f"{key} = {value!r}: |{key}| must be <= {MAX_COEFFICIENT:g}")
        for key in ("eps", "eta"):
            try:
                getattr(self, key + "_moments")
            except ConfigurationError as exc:
                scale = getattr(self, key).scale
                raise ConfigurationError(f"{key}.scale = {scale!r}: {exc}") from None
        if two_alpha_tau2_one(self.alpha, self.tau(2)):
            raise PathologicalParamsError(
                "2*alpha*tau2 = 1: the process would be deterministic"
            )

    # each noise's moments are resolved once per parameter set
    @cached_property
    def eps_moments(self) -> MomentSet:
        return noise_moments(self.eps)

    @cached_property
    def eta_moments(self) -> MomentSet | None:
        return None if self.eta is None else noise_moments(self.eta)

    def sigma(self, order: int) -> float:
        """Moment E[eps_0^order]."""
        return self.eps_moments.moment(order)

    def tau(self, order: int) -> float:
        """Moment E[eta_0^order]; all zero when the coefficient is not random."""
        if self.eta is None:
            return 1.0 if order == 0 else 0.0
        return self.eta_moments.moment(order)

    def to_dict(self) -> dict:
        return {
            "theta": self.theta,
            "alpha": self.alpha,
            "eps": {"family": self.eps.family.value, "scale": self.eps.scale},
            "eta": None if self.eta is None
            else {"family": self.eta.family.value, "scale": self.eta.scale},
        }


# ---------------------------------------------------------------------------
# the log moment of (H1)

_EPS = float(np.finfo(float).eps)

# Tanh-sinh rule on [0, 1]: nodes k h, |k| <= 112, h = 1/32, so t runs to
# 3.5, where a node lies 2.6e-23 from its end and even a log singularity
# there adds terms below 1e-20. A node is stored as its distance to the
# nearer end, so nodes next to a cut at y = 0 keep full relative precision.
# Every other node (k even) is the rule at step 2h. The nodes are built
# with the math module: numpy's sinh and cosh loops would add ~0.5 MB of
# peak RSS to every import of the package.
_TS_STEP = 1.0 / 32.0
_TS_K = range(-112, 113)
_TS_GAP = np.array([1.0 / (1.0 + math.exp(math.pi * math.sinh(abs(k) * _TS_STEP)))
                    for k in _TS_K])
_TS_WEIGHT = np.array([_TS_STEP * 0.25 * math.pi * math.cosh(k * _TS_STEP)
                       / math.cosh(0.5 * math.pi * math.sinh(k * _TS_STEP)) ** 2
                       for k in _TS_K])
_TS_FROM_RIGHT = np.array([k > 0 for k in _TS_K])
_TS_SIGNED_GAP = np.array([-g if k > 0 else g for k, g in zip(_TS_K, _TS_GAP)])
_TS_COARSE = np.array([k % 2 == 0 for k in _TS_K])

#: truncation of the unbounded supports, in standard deviations (gaussian)
#: and in the larger laplace diversity
_GAUSS_REACH = 12.0
_LAPLACE_REACH = 80.0


def _sum_law(alpha: float, eta: NoiseSpec):
    """The law of S = alpha eta_0 + eta_1 as the quadrature reads it.

    Returns (density, cuts, reach, tail). density(s, ds) gives the density
    at s and a bound on its rounding error when s is off by up to ds; cuts
    are the points where the density is not analytic (and the gaussian
    mode, which puts the bulk of the mass next to the rule's dense end
    nodes); the support is cut to [-reach, reach], and tail(theta) bounds
    what that cut leaves out of E ln|theta + S|. That bound rests on
    |ln|y|| <= |y| + 2 |y|^(-1/2) for |y| < 1: the part beyond the cut is
    at most |theta| P(|S| > reach) + E[|S|; |S| > reach]
    + 8 max_{|s| > reach} density(s).
    """
    c = eta.scale
    if eta.family is NoiseFamily.GAUSSIAN:
        # S ~ N(0, (1 + alpha^2) tau2) exactly
        sd = math.sqrt((1.0 + alpha * alpha) * c)
        norm = 1.0 / (sd * math.sqrt(2.0 * math.pi))
        edge = math.exp(-0.5 * _GAUSS_REACH**2) / math.sqrt(2.0 * math.pi)

        def density(s, ds):
            z = s / sd
            p = norm * np.exp(-0.5 * z * z)
            return p, p * (_EPS * (4.0 + z * z) + np.abs(z) * ds / sd)

        def tail(theta):
            return (abs(theta) * math.erfc(_GAUSS_REACH / math.sqrt(2.0))
                    + 2.0 * sd * edge + 8.0 * edge / sd)

        return density, (0.0,), _GAUSS_REACH * sd, tail

    if eta.family is NoiseFamily.LAPLACE:
        # with diversities b1 <= b2 the density is
        # (b2 e^(-x/b2) - b1 e^(-x/b1)) / (2 (b2^2 - b1^2)), x = |s|, written
        # as e^(-x/b2) (1 + x/b2 phi1(r)) / (2 (b1 + b2)) with
        # r = x (b1 - b2) / (b1 b2) <= 0 and phi1(r) = expm1(r) / r, which
        # stays exact at b1 = b2 (|alpha| = 1, phi1 = 1); alpha = 0 is the
        # single laplace density
        b1, b2 = sorted((abs(alpha) * c, c))
        reach = _LAPLACE_REACH * b2

        def density(s, ds):
            x = np.abs(s)
            p = np.exp(-x / b2)
            if b1 == 0.0:
                p /= 2.0 * b2
            else:
                with np.errstate(over="ignore"):
                    r = x * (b1 - b2) / b1 / b2
                phi1 = np.expm1(r) / np.where(r < 0.0, r, -1.0)
                p *= (1.0 + x / b2 * np.where(r < 0.0, phi1, 1.0)) / (2.0 * (b1 + b2))
            # |p'| <= p / b2
            return p, p * (_EPS * (8.0 + x / b2) + ds / b2)

        def tail(theta):
            # |S| <= b1 E_0 + b2 E_1 (E standard exponential), dominated by
            # b2 Gamma(2): P = (1 + y) e^-y and E[.; .] = b2 (y^2 + 2y + 2) e^-y
            y = _LAPLACE_REACH
            edge = float(density(np.array([reach]), 0.0)[0][0])
            return ((abs(theta) * (1.0 + y) + b2 * (y * y + 2.0 * y + 2.0))
                    * math.exp(-y) + 8.0 * edge)

        return density, (0.0,), reach, tail

    # uniform, alpha != 0: a trapezoid on [-(a + b), a + b], flat on
    # [-|a - b|, |a - b|], with a = c and b = |alpha| c
    a, b = c, abs(alpha) * c
    top = 2.0 * min(a, b)
    area = 4.0 * a * b

    def density(s, ds):
        x = np.abs(s)
        ramp = np.minimum(a + b - x, top)
        slope = ramp < top
        p = np.maximum(ramp, 0.0) / area
        return p, 2.0 * _EPS * p + np.where(slope, _EPS * (a + b + x) + ds, 0.0) / area

    return density, (-abs(a - b), abs(a - b)), a + b, lambda theta: 0.0


def _uniform_log_moment(theta: float, c: float) -> tuple[float, float]:
    """E ln|theta + eta| for eta uniform on [-c, c], in closed form:
    (F(theta + c) - F(theta - c)) / 2c with F(x) = x ln|x| - x."""
    def f(x):
        return x * math.log(abs(x)) - x if x else 0.0

    def f_err(x):  # rounding of x, of its log and of F's two operations
        return 2.0 * _EPS * (abs(x) * abs(math.log(abs(x))) + abs(x)) if x else 0.0

    hi, lo = theta + c, theta - c
    value = (f(hi) - f(lo)) / (2.0 * c)
    return value, (f_err(hi) + f_err(lo)) / (2.0 * c) + 2.0 * _EPS * abs(value)


def _rademacher_log_moment(theta: float, alpha: float, c: float) -> tuple[float, float]:
    """Mean of ln|theta +/- alpha c +/- c| over the four atoms; the atoms are
    summed exactly, so an atom is zero (and the value -inf) only when it is
    zero in exact arithmetic."""
    # imported here: fractions loads decimal (~0.4 MB of peak RSS), which
    # no other path needs
    from fractions import Fraction

    th, al, cc = Fraction(theta), Fraction(alpha), Fraction(c)
    atoms = [float(th + i * al * cc + j * cc) for i in (-1, 1) for j in (-1, 1)]
    if 0.0 in atoms:
        return -math.inf, 0.0
    logs = [math.log(abs(y)) for y in atoms]
    return math.fsum(logs) / 4.0, _EPS * (1.0 + sum(map(abs, logs)))


def log_moment(params: ModelParams) -> tuple[float, float]:
    """E ln|theta + alpha eta_0 + eta_1|, the contraction rate of (H1), and
    a bound on the error of the returned value.

    eta = None gives ln|theta| and the rademacher law four atoms, both
    exact (width 0 when an atom, or theta, is zero and the value -inf).
    Uniform eta at alpha = 0 (or at an alpha too small for the trapezoid
    density) has a closed form. Otherwise the value is
    the sum over pieces of the integral of ln|y| f(y - theta), f the density
    of alpha eta_0 + eta_1, with the support cut at 0 and at the kinks of f
    so each piece is analytic inside and the log singularity sits at an
    end, where the tanh-sinh rule resolves it. The bound adds the distance to
    the rule at twice the step and its last terms (the discretisation), the
    truncated tails, and first-order bounds on the rounding of each node's
    abscissa, log, density and weight and of the sum.
    """
    theta, alpha, eta = params.theta, params.alpha, params.eta
    if eta is None:
        return (math.log(abs(theta)) if theta != 0 else -math.inf), 0.0
    if eta.family is NoiseFamily.RADEMACHER:
        return _rademacher_log_moment(theta, alpha, eta.scale)
    # alpha = 0, or an alpha so small that the area 4 a b of the trapezoid
    # density (see _sum_law) underflows: the law is uniform to double precision
    c = eta.scale
    if eta.family is NoiseFamily.UNIFORM and 4.0 * c * (abs(alpha) * c) == 0:
        return _uniform_log_moment(theta, c)

    density, inner, reach, tail = _sum_law(alpha, eta)
    # cut in s = y - theta, where the kinks and the support are exact; the
    # cut at y = 0 is s = -theta, and theta + (-theta) is exactly 0
    cuts = {-reach, reach, *inner}
    if abs(theta) < reach:
        cuts.add(-theta)
    cuts = np.array(sorted(cuts))
    lo, hi = cuts[:-1, None], cuts[1:, None]
    # each node is its nearer end plus or minus its distance to that end,
    # in s and in y alike
    end = np.where(_TS_FROM_RIGHT, hi, lo)
    step = (hi - lo) * _TS_SIGNED_GAP
    s = end + step
    y_end = theta + end
    y = y_end + step
    p, p_err = density(s, _EPS * (np.abs(s) + np.abs(end)))
    abs_y = np.abs(y)
    ln = np.log(abs_y)
    abs_ln = np.abs(ln)
    weight = (hi - lo) * _TS_WEIGHT
    terms = weight * ln * p
    value = float(terms.sum())
    coarse = 2.0 * float(terms[:, _TS_COARSE].sum())
    abs_terms = weight * abs_ln * p
    discretisation = abs(value - coarse) + float(abs_terms[:, [0, -1]].sum())
    ln_err = _EPS * (1.0 + np.abs(y_end) / abs_y + 4.0 * abs_ln)
    rounding = float(np.sum(weight * (p * ln_err + abs_ln * p_err))
                     + _EPS * (terms.size + 4.0) * abs_terms.sum())
    return value, discretisation + rounding + tail(theta)


@dataclass(frozen=True)
class DegeneracyFlags:
    """Proximity flags for the excluded pathological parameter set."""

    two_alpha_tau2_one: bool
    sqrt2_theta_boundary: bool
    psi00_zero: bool


@dataclass(frozen=True)
class HypothesisReport:
    """Verdicts for (H1)-(H5) plus the quantities they were based on.

    The H1 log moment is exact (`log_moment`). `log_moment_half_width` is
    a conservative bound on its numerical error, quadrature and rounding:
    0 for eta = None or an atom at zero, and below 2e-12 for noise scales
    from 1e-10 to 100. `h1_uncertain` is set (a warning, not a
    rejection) only when the value lies within that bound of zero.
    `to_dict()` keeps the key `mc_draws`, always 0: no draws are made.
    """

    rho_M: float
    rho_H: float
    log_moment_estimate: float
    log_moment_half_width: float
    excluded_degenerate: DegeneracyFlags
    h1: bool
    h2: bool
    h3: bool
    h4: bool
    h5: bool
    h1_uncertain: bool = False

    def to_dict(self) -> dict:
        return {
            "rho_M": self.rho_M,
            "rho_H": self.rho_H,
            "log_moment_estimate": self.log_moment_estimate,
            "log_moment_half_width": self.log_moment_half_width,
            "excluded_degenerate": asdict(self.excluded_degenerate),
            "verdicts": {"H1": self.h1, "H2": self.h2, "H3": self.h3,
                         "H4": self.h4, "H5": self.h5},
            "h1_uncertain": self.h1_uncertain,
            "mc_draws": 0,
        }


def check_hypotheses(params: ModelParams, mc_draws: int = 100_000,
                     seed: int = 0x5EED) -> HypothesisReport:
    """Report-only check of (H1)-(H5) and the pathological-set flags.

    rho_M and rho_H come from the second- and fourth-order matrices, cut
    from one moment table; the log moment of (H1) is exact, with the error
    bound of `log_moment` as its half-width. No random draws are made:
    `mc_draws` and `seed` are accepted for compatibility and have no effect.
    """
    from . import asymptotics, second_order

    rho_m, rho_h = second_order.stationarity_radii(params)
    est, hw = log_moment(params)

    tau2 = params.tau(2)
    sigma2, sigma4 = params.sigma(2), params.sigma(4)
    g1 = 1.0 - 2.0 * params.alpha * tau2
    _, psi00 = asymptotics.psi0_closed_form(params.theta, tau2, params.tau(4),
                                            sigma2, sigma4)
    flags = DegeneracyFlags(
        two_alpha_tau2_one=two_alpha_tau2_one(params.alpha, tau2),
        sqrt2_theta_boundary=(
            abs(math.sqrt(2) * params.theta - g1) < BOUNDARY_TOL
            or abs(math.sqrt(2) * params.theta + g1) < BOUNDARY_TOL
        ),
        psi00_zero=abs(psi00) / sigma2**2 < PSI00_TOL,
    )

    return HypothesisReport(
        rho_M=rho_m,
        rho_H=rho_h,
        log_moment_estimate=est,
        log_moment_half_width=hw,
        excluded_degenerate=flags,
        h1=est < 0,
        h2=True,   # all supported families are symmetric
        h3=rho_m < 1 and tau2 > 0 and sigma2 > 0,
        # sigma4 and tau8 are finite: `MomentSet` rejects a non-finite m8, a
        # family's m2..m6 are finite where its m8 is, and no eta has tau8 0
        h4=rho_h < 1,
        h5=True,   # every family carries its closed fourth-moment map
        h1_uncertain=est + hw > 0 > est - hw,
    )


# ---------------------------------------------------------------------------
# flat key-value run files


PARAM_KEYS = ("theta", "alpha", "eps.family", "eps.scale", "eta.family", "eta.scale")


def load_run_file(path, keys=PARAM_KEYS) -> dict[str, str]:
    """Parse a flat `key = value` run file (# starts a comment) whose keys
    are all among `keys`."""
    values: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigurationError(
                    f"{path}:{lineno}: expected 'key = value', got {raw.strip()!r}"
                )
            key, value = line.split("=", 1)
            values[key.strip()] = value.strip().strip("\"'")
    unknown = set(values) - set(keys)
    if unknown:
        raise ConfigurationError(
            f"unknown keys in {path}: {', '.join(sorted(unknown))}")
    return values


def cast_value(key: str, text: str, cast):
    """`cast(text)` for the run-file key `key`; a value that does not cast is
    a ConfigurationError whose message starts with the key."""
    try:
        return cast(text)
    except (ValueError, ConfigurationError) as exc:
        raise ConfigurationError(f"{key} = {text}: {exc}") from None


def params_from_mapping(values: dict[str, str]) -> ModelParams:
    """Build ModelParams from the flat keys theta, alpha, eps.*, eta.*."""
    missing = [k for k in ("theta", "alpha", "eps.family", "eps.scale") if k not in values]
    if missing:
        raise ConfigurationError(f"missing parameter keys: {', '.join(missing)}")

    def get(key, cast):
        return cast_value(key, values[key], cast)

    def noise(key):
        family = get(key + ".family", NoiseFamily)
        if key + ".scale" not in values:
            raise ConfigurationError(f"{key}.family given without {key}.scale")
        return get(key + ".scale", lambda text: NoiseSpec(family, float(text)))

    eps, eta = noise("eps"), None
    if not spells_none(values.get("eta.family", "none")):
        eta = noise("eta")
    return ModelParams(get("theta", float), get("alpha", float), eps, eta)
