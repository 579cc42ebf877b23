"""Process parameters, noise specifications and hypothesis checking.

The process is the first-order autoregression

    X_t = (theta + alpha eta_{t-1} + eta_t) X_{t-1} + eps_t

driven by two mutually independent strong white noises (eps_t) and (eta_t).
Every supported noise family is symmetric, so all odd moments vanish and the
even ones have closed forms; that is what the moment machinery of the other
modules consumes.

`check_hypotheses` reports verdicts for the five model hypotheses:

  H1  strict-stationarity contraction: E[ln |theta + alpha eta_0 + eta_1|]
      < 0, estimated by Monte Carlo (and E[ln+ |eps_0|] < inf, which holds
      by construction for every supported family since they all have finite
      variance).
  H2  all odd noise moments vanish: true structurally, every family is
      symmetric.
  H3  second moments of the process exist: sigma2 > 0, tau2 > 0 and the
      spectral radius of the second-order recursion matrix is below 1.
  H4  fourth moments exist: sigma4 and tau8 finite and the spectral radius
      of the fourth-order recursion matrix is below 1.
  H5  fourth noise moments are continuous functions of the second ones:
      every family carries its closed quadratic map m4 = c * m2^2.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ConfigurationError, PathologicalParamsError

#: half-width of the excluded neighbourhoods around the exact equalities
#: 2 alpha tau2 = 1 and sqrt(2) theta = +/-(1 - 2 alpha tau2)
BOUNDARY_TOL = 1e-9

#: threshold under which the psi0 numerator is flagged as vanishing
PSI00_TOL = 1e-8


class NoiseFamily(str, enum.Enum):
    GAUSSIAN = "gaussian"
    UNIFORM = "uniform"
    LAPLACE = "laplace"
    RADEMACHER = "rademacher"


#: m4 = KURTOSIS_FACTOR[family] * m2**2, the family's fourth-moment map
KURTOSIS_FACTOR = {
    NoiseFamily.GAUSSIAN: 3.0,
    NoiseFamily.UNIFORM: 9.0 / 5.0,
    NoiseFamily.LAPLACE: 6.0,
    NoiseFamily.RADEMACHER: 1.0,
}


@dataclass(frozen=True)
class MomentSet:
    """Even moments m2, m4, m6, m8 of one symmetric noise."""

    m2: float
    m4: float
    m6: float
    m8: float

    def __post_init__(self):
        if not self.m2 > 0:
            raise ConfigurationError(f"degenerate noise: m2 = {self.m2} must be > 0")
        # rademacher sits exactly on the Jensen boundary m4 = m2^2
        if self.m4 < self.m2**2 * (1.0 - 1e-12):
            raise ConfigurationError(
                f"impossible moments: m4 = {self.m4} < m2^2 = {self.m2 ** 2}"
            )
        if self.m6 < 0 or self.m8 < 0:
            raise ConfigurationError("even moments must be non-negative")

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
    the magnitude c of the +/-c values for rademacher.
    """

    family: NoiseFamily
    scale: float

    def __post_init__(self):
        fam = self.family
        if not isinstance(fam, NoiseFamily):
            object.__setattr__(self, "family", NoiseFamily(str(fam).lower()))
        if not self.scale > 0:
            raise ConfigurationError(f"noise scale must be > 0, got {self.scale}")

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        if self.family is NoiseFamily.GAUSSIAN:
            return rng.normal(0.0, math.sqrt(self.scale), size)
        if self.family is NoiseFamily.UNIFORM:
            return rng.uniform(-self.scale, self.scale, size)
        if self.family is NoiseFamily.LAPLACE:
            return rng.laplace(0.0, self.scale, size)
        if self.family is NoiseFamily.RADEMACHER:
            return self.scale * (2.0 * rng.integers(0, 2, size) - 1.0)
        raise ConfigurationError(f"unsupported noise family {self.family}")


def noise_moments(spec: NoiseSpec) -> MomentSet:
    """Closed-form even moments m2..m8 of the given noise."""
    s = spec.scale
    if spec.family is NoiseFamily.GAUSSIAN:
        return MomentSet(s, 3 * s**2, 15 * s**3, 105 * s**4)
    if spec.family is NoiseFamily.UNIFORM:
        # E[X^(2k)] = c^(2k) / (2k + 1) on [-c, c]
        return MomentSet(s**2 / 3, s**4 / 5, s**6 / 7, s**8 / 9)
    if spec.family is NoiseFamily.LAPLACE:
        # E[X^(2k)] = (2k)! b^(2k)
        return MomentSet(2 * s**2, 24 * s**4, 720 * s**6, 40320 * s**8)
    if spec.family is NoiseFamily.RADEMACHER:
        return MomentSet(s**2, s**4, s**6, s**8)
    raise ConfigurationError(f"unsupported noise family {spec.family}")


def parse_noise(text: str) -> NoiseSpec | None:
    """Parse the CLI syntax 'family:scale'; 'none' means eta == 0."""
    if text.strip().lower() in ("none", "zero", ""):
        return None
    try:
        fam, scale = text.split(":")
        return NoiseSpec(NoiseFamily(fam.strip().lower()), float(scale))
    except (ValueError, KeyError) as exc:
        raise ConfigurationError(f"cannot parse noise spec {text!r}: {exc}") from exc


@dataclass(frozen=True)
class ModelParams:
    """Full parameterization: mean coefficient, MA weight, and both noises.

    eta=None declares a non-random coefficient (eta == 0), the classical
    AR(1) reduction; otherwise the model is random-coefficient and tau2 > 0
    holds by construction.
    """

    theta: float
    alpha: float
    eps: NoiseSpec
    eta: NoiseSpec | None = None

    def __post_init__(self):
        if not (math.isfinite(self.theta) and math.isfinite(self.alpha)):
            raise ConfigurationError("theta and alpha must be finite")
        if abs(2.0 * self.alpha * self.tau(2) - 1.0) < BOUNDARY_TOL:
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

    @property
    def random_coefficient(self) -> bool:
        return self.eta is not None

    def to_dict(self) -> dict:
        return {
            "theta": self.theta,
            "alpha": self.alpha,
            "eps": {"family": self.eps.family.value, "scale": self.eps.scale},
            "eta": None if self.eta is None
            else {"family": self.eta.family.value, "scale": self.eta.scale},
        }


@dataclass(frozen=True)
class DegeneracyFlags:
    """Proximity flags for the excluded pathological parameter set."""

    two_alpha_tau2_one: bool
    sqrt2_theta_boundary: bool
    psi00_zero: bool


@dataclass(frozen=True)
class HypothesisReport:
    """Verdicts for (H1)-(H5) plus the quantities they were based on.

    The H1 verdict is Monte Carlo based; `h1_uncertain` is set (a warning,
    not a rejection) when the confidence interval for the log moment
    straddles zero.
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
    mc_draws: int = 0

    def to_dict(self) -> dict:
        return {
            "rho_M": self.rho_M,
            "rho_H": self.rho_H,
            "log_moment_estimate": self.log_moment_estimate,
            "log_moment_half_width": self.log_moment_half_width,
            "excluded_degenerate": {
                "two_alpha_tau2_one": self.excluded_degenerate.two_alpha_tau2_one,
                "sqrt2_theta_boundary": self.excluded_degenerate.sqrt2_theta_boundary,
                "psi00_zero": self.excluded_degenerate.psi00_zero,
            },
            "verdicts": {"H1": self.h1, "H2": self.h2, "H3": self.h3,
                         "H4": self.h4, "H5": self.h5},
            "h1_uncertain": self.h1_uncertain,
            "mc_draws": self.mc_draws,
        }


def check_hypotheses(params: ModelParams, mc_draws: int = 100_000,
                     seed: int = 0x5EED) -> HypothesisReport:
    """Report-only check of (H1)-(H5) and the pathological-set flags.

    rho_M and rho_H come from the second- and fourth-order matrices; the
    log-moment condition of (H1) is estimated over mc_draws independent
    (eta_0, eta_1) pairs with a 3-standard-error half-width.
    """
    from . import asymptotics, fourth_order, second_order
    from .numerics import spectral_radius

    if mc_draws < 10_000:
        raise ConfigurationError(f"mc_draws must be >= 10000, got {mc_draws}")

    rho_m = spectral_radius(second_order.m_matrix(params))
    rho_h = spectral_radius(fourth_order.h_matrix(params))

    if params.eta is None:
        est, hw = math.log(abs(params.theta)) if params.theta != 0 else -math.inf, 0.0
    else:
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
        eta0 = params.eta.sample(rng, mc_draws)
        eta1 = params.eta.sample(rng, mc_draws)
        z = np.abs(params.theta + params.alpha * eta0 + eta1)
        with np.errstate(divide="ignore"):
            logs = np.log(z)
        if np.any(np.isneginf(logs)):
            # an atom at zero makes the expectation -inf: (H1) holds trivially
            est, hw = -math.inf, math.nan
        else:
            est = float(logs.mean())
            hw = 3.0 * float(logs.std(ddof=1)) / math.sqrt(mc_draws)

    tau2, tau8 = params.tau(2), params.tau(8)
    sigma2, sigma4 = params.sigma(2), params.sigma(4)
    g1 = 1.0 - 2.0 * params.alpha * tau2
    _, psi00 = asymptotics.psi0_closed_form(
        params.theta, tau2, params.tau(4), sigma2, sigma4, check_denominator=False
    )
    flags = DegeneracyFlags(
        two_alpha_tau2_one=abs(g1) < BOUNDARY_TOL,
        sqrt2_theta_boundary=(
            abs(math.sqrt(2) * params.theta - g1) < BOUNDARY_TOL
            or abs(math.sqrt(2) * params.theta + g1) < BOUNDARY_TOL
        ),
        psi00_zero=abs(psi00) < PSI00_TOL,
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
        h4=rho_h < 1 and math.isfinite(sigma4) and math.isfinite(tau8),
        h5=True,   # every family carries its closed fourth-moment map
        h1_uncertain=math.isfinite(hw) and est + hw > 0 > est - hw,
        mc_draws=mc_draws,
    )


# ---------------------------------------------------------------------------
# flat key-value run files


def load_run_file(path) -> dict[str, str]:
    """Parse a flat `key = value` run file (# starts a comment)."""
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
    return values


PARAM_KEYS = ("theta", "alpha", "eps.family", "eps.scale", "eta.family", "eta.scale")


def params_from_mapping(values: dict[str, str]) -> ModelParams:
    """Build ModelParams from the flat keys theta, alpha, eps.*, eta.*."""
    missing = [k for k in ("theta", "alpha", "eps.family", "eps.scale") if k not in values]
    if missing:
        raise ConfigurationError(f"missing parameter keys: {', '.join(missing)}")
    eps = NoiseSpec(NoiseFamily(values["eps.family"].lower()), float(values["eps.scale"]))
    eta = None
    if values.get("eta.family", "none").lower() not in ("none", ""):
        if "eta.scale" not in values:
            raise ConfigurationError("eta.family given without eta.scale")
        eta = NoiseSpec(NoiseFamily(values["eta.family"].lower()), float(values["eta.scale"]))
    return ModelParams(float(values["theta"]), float(values["alpha"]), eps, eta)
