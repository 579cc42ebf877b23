"""Random-coefficient AR(1) with moving-average coefficient correlation.

Exact second/fourth-order moments, asymptotic variances, reproducible
simulation, ratio/corrected estimation, and the chi-square(1) test for
correlation in the coefficients.
"""

__version__ = "0.1.0"

from .asymptotics import (CovarianceStack, LimitSet, MixedMomentKey,
                          kappa_squared, limits, mixed_moment, omega_squared,
                          psi0_closed_form, sigma_psi)
from .errors import (ConfigurationError, DegenerateDataError, HypothesisError,
                     NumericError, PathologicalParamsError, RcarError)
from .estimate import (EstimationReport, correlation_test, f_map, theta_hat,
                       vartheta_hat)
from .fourth_order import FourthOrderTables, build_fourth_order
from .harness import MCConfig, MCReport, mixed_moment_oracle, run_experiment
from .model import (HypothesisReport, ModelParams, MomentSet, NoiseFamily,
                    NoiseSpec, check_hypotheses, noise_moments)
from .second_order import SecondOrderTables, acvf, build_second_order
from .simulate import Trajectory, ingest, simulate, write_csv

__all__ = [
    "ConfigurationError", "CovarianceStack",
    "DegenerateDataError", "EstimationReport", "FourthOrderTables",
    "HypothesisError", "HypothesisReport", "LimitSet", "MCConfig", "MCReport",
    "MixedMomentKey", "ModelParams", "MomentSet", "NoiseFamily", "NoiseSpec",
    "NumericError", "PathologicalParamsError", "RcarError",
    "SecondOrderTables", "Trajectory", "acvf",
    "build_fourth_order", "build_second_order", "check_hypotheses",
    "correlation_test", "f_map", "ingest", "kappa_squared",
    "limits", "mixed_moment", "mixed_moment_oracle", "noise_moments",
    "omega_squared", "psi0_closed_form", "run_experiment", "sigma_psi",
    "simulate", "theta_hat", "vartheta_hat", "write_csv",
]
