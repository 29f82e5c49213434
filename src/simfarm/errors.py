"""Exception hierarchy shared across the toolkit."""

from __future__ import annotations


class SimfarmError(Exception):
    """Base class for all toolkit errors."""


class InvalidArgumentError(SimfarmError, ValueError):
    """An argument violates a documented precondition."""


class DomainError(SimfarmError, ValueError):
    """A value lies outside the supported domain."""


class DimensionError(SimfarmError, ValueError):
    """Unit conversion requested across incompatible dimensions."""


class ParseError(SimfarmError):
    """A file could not be parsed; carries the 1-based line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class ContractViolationError(SimfarmError):
    """A runner broke the alignment/row-count contract."""


class ConfigurationError(SimfarmError):
    """A criterion or experiment configuration references missing data."""


class CriterionError(SimfarmError):
    """A stop criterion raised during evaluation; aborts the batch."""


class NumericalError(SimfarmError):
    """An iterative numerical kernel hit its iteration cap without converging."""


class DegenerateSampleError(SimfarmError, ValueError):
    """A sample has no usable variation (e.g. constant data)."""


class ModelSpecError(SimfarmError, ValueError):
    """A model specification is inconsistent or incomplete."""


class TrainingError(SimfarmError):
    """Training cannot proceed on the given data."""


class ModelFormatError(SimfarmError):
    """A serialized model has the wrong format or version."""


class CalibrationError(SimfarmError):
    """Simulator calibration produced a singular or nonpositive solution."""
