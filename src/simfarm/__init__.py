"""simfarm: a data-farming toolkit for simulation studies.

Design experiments (Latin Hypercube over mixed factor spaces), run them in
chunks with early stopping, analyze the result tables (auto-selected
hypothesis tests, distribution fits, feature scores, Pareto fronts, outliers,
EDA), train surrogate models, and convert units/coordinates — plus a built-in
calibrated flight-fuel simulator (``navsim``) as a reference batch runner.

Importing the package loads no submodule: each name below is imported on
first use (PEP 562), so a process that only simulates never pays for the
analysis and model layers.
"""

import importlib

__version__ = "0.1.0"

_SUBMODULES = ("analysis", "doe", "execution", "geo", "models", "simkit")
_HOMES = {
    "Design": "doe",
    "FactorSpec": "doe",
    "lhs_design": "doe",
    "validate_design": "doe",
    "mean_convergence_criterion": "execution",
    "run_batches": "execution",
    "DataColumn": "tables",
    "ResultTable": "tables",
}

__all__ = [*_SUBMODULES, *_HOMES, "__version__"]


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _HOMES:
        value = getattr(importlib.import_module(f"{__name__}.{_HOMES[name]}"), name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
