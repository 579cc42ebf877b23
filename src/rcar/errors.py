"""Exception hierarchy shared by all rcar modules.

`rcar.cli.EXIT_TABLE` maps these onto exit codes.
"""


class RcarError(Exception):
    """Base class for all rcar errors."""


class ConfigurationError(RcarError):
    """Invalid configuration: unknown noise family, bad run file, bad key."""


class NumericError(RcarError):
    """A numerical routine failed (singular solve, non-convergence)."""


class HypothesisError(RcarError):
    """A stationarity/moment hypothesis is violated (spectral radius >= 1)."""


class DegenerateDataError(RcarError):
    """The data make an estimator undefined (zero denominator, constant
    regressor, non-positive variance plug-in)."""


class PathologicalParamsError(RcarError):
    """Parameters (or estimates) fall in the excluded pathological set:
    2*alpha*tau2 near 1, sqrt(2)*theta near +/-(1 - 2*alpha*tau2),
    theta ratio near +/-1/sqrt(2), or a vanishing psi0 numerator."""
