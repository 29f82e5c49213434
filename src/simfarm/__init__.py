"""simfarm: a data-farming toolkit for simulation studies.

Design experiments (Latin Hypercube over mixed factor spaces), run them in
chunks with early stopping, analyze the result tables (auto-selected
hypothesis tests, distribution fits, feature scores, Pareto fronts, outliers,
EDA), train surrogate models, and convert units/coordinates — plus a built-in
calibrated flight-fuel simulator (``navsim``) as a reference batch runner.
"""

from . import analysis, doe, execution, geo, models, simkit
from .doe import Design, FactorSpec, lhs_design, validate_design
from .execution import mean_convergence_criterion, run_batches
from .tables import DataColumn, ResultTable

__version__ = "0.1.0"

__all__ = [
    "analysis",
    "doe",
    "execution",
    "geo",
    "models",
    "simkit",
    "Design",
    "FactorSpec",
    "lhs_design",
    "validate_design",
    "mean_convergence_criterion",
    "run_batches",
    "DataColumn",
    "ResultTable",
    "__version__",
]
