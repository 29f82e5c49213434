"""Chunked batch execution with early stopping.

``run_batches`` splits a design into row-order chunks, hands each chunk to a
runner, and passes each chunk's result to a stop criterion, which keeps
whatever running state it needs.  Runners must return exactly one result row
per input row, aligned by design-row index; failed executions are rows whose
status is false, never dropped.  Rows inside a chunk may be computed in
parallel by the runner, but chunk boundaries are strict synchronization
points.  The chunk results are concatenated once, after the last chunk, so a
run costs time linear in the rows executed.
"""

from __future__ import annotations

import subprocess
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .doe import Design, write_design_rows
from .errors import (
    ConfigurationError,
    ContractViolationError,
    CriterionError,
    InvalidArgumentError,
    ParseError,
)
from .tables import RESERVED_INDEX, ResultTable, header_line

__all__ = [
    "DesignChunk",
    "ExecutionReport",
    "run_batches",
    "mean_convergence_criterion",
    "SubprocessRunner",
    "register_runner",
    "get_runner",
    "runner_names",
]


@dataclass(frozen=True)
class DesignChunk:
    """A contiguous block of design rows with their original row indices."""

    design: Design
    indices: np.ndarray

    @property
    def n(self) -> int:
        return self.design.n

    def column(self, name: str) -> np.ndarray:
        return self.design.column(name)


Runner = Callable[[DesignChunk], ResultTable]
StopCriterion = Callable[[ResultTable], bool]

STOP_CRITERION_MET = "criterion_met"
STOP_DESIGN_EXHAUSTED = "design_exhausted"


@dataclass
class ExecutionReport:
    chunks_executed: int
    rows_executed: int
    stop_reason: str
    stop_chunk: int | None
    chunk_seconds: list[float] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "schema_version": 1,
            "chunks_executed": self.chunks_executed,
            "rows_executed": self.rows_executed,
            "stop_reason": self.stop_reason,
            "stop_chunk": self.stop_chunk,
            "chunk_seconds": self.chunk_seconds,
        }


def _check_contract(result: ResultTable, chunk: DesignChunk) -> None:
    if not isinstance(result, ResultTable):
        raise ContractViolationError(
            f"runner returned {type(result).__name__}, expected ResultTable"
        )
    if result.n_rows != chunk.n:
        raise ContractViolationError(
            f"runner returned {result.n_rows} rows for a {chunk.n}-row chunk"
        )
    if not np.array_equal(result.index, chunk.indices):
        raise ContractViolationError("runner result indices are misaligned with the chunk")


def _fill_failed(result: ResultTable, template: ResultTable) -> ResultTable:
    """Give a column-less, all-failed chunk ``template``'s columns, all missing."""
    if result.columns or result.ok_mask().any():
        return result
    columns = {
        name: np.full(result.n_rows, np.nan) if arr.dtype.kind == "f"
        else np.full(result.n_rows, None, dtype=object)
        for name, arr in template.columns.items()
    }
    return ResultTable(index=result.index, status=result.status, columns=columns)


def run_batches(
    design: Design,
    runner: Runner,
    criterion: StopCriterion | None,
    chunk_size: int,
) -> tuple[ResultTable, ExecutionReport]:
    """Run ``design`` through ``runner`` in sequential chunks.

    After each chunk the criterion is called once as ``criterion(chunk_result)``
    with that chunk's rows only; a true return skips the remaining chunks.
    ``criterion=None`` always runs to exhaustion.  The chunk results are
    concatenated once at the end.  A chunk that comes back with no columns
    and every row failed (a failed external command) gets the run's columns
    there, filled with missing values, so it costs only its own rows.
    """
    if chunk_size < 1:
        raise InvalidArgumentError(f"chunk_size must be >= 1, got {chunk_size}")
    n = design.n
    if n == 0:
        raise InvalidArgumentError("design is empty")

    chunk_results: list[ResultTable] = []
    chunk_seconds: list[float] = []
    stop_reason = STOP_DESIGN_EXHAUSTED
    stop_chunk: int | None = None
    n_chunks = (n + chunk_size - 1) // chunk_size

    for c in range(n_chunks):
        lo = c * chunk_size
        hi = min(lo + chunk_size, n)
        positions = np.arange(lo, hi, dtype=np.int64)
        chunk = DesignChunk(design=design.take(positions), indices=positions)
        t0 = time.perf_counter()
        result = runner(chunk)
        chunk_seconds.append(time.perf_counter() - t0)
        _check_contract(result, chunk)
        chunk_results.append(result)
        if criterion is not None:
            try:
                should_stop = bool(criterion(result))
            except ConfigurationError:
                raise
            except Exception as exc:
                raise CriterionError(
                    f"stop criterion raised after chunk {c + 1}: {exc}"
                ) from exc
            if should_stop:
                stop_reason = STOP_CRITERION_MET
                stop_chunk = c + 1
                break

    template = next((r for r in chunk_results if r.columns), None)
    if template is not None:
        chunk_results = [_fill_failed(r, template) for r in chunk_results]
    results = ResultTable.concat(chunk_results)
    report = ExecutionReport(
        chunks_executed=len(chunk_seconds),
        rows_executed=results.n_rows,
        stop_reason=stop_reason,
        stop_chunk=stop_chunk,
        chunk_seconds=chunk_seconds,
    )
    return results, report


def mean_convergence_criterion(metric: str, epsilon: float, floor: float = 1e-9) -> StopCriterion:
    """Stop when the cumulative mean of ``metric`` over ok rows settles.

    The returned criterion is called once per chunk with that chunk's result
    and keeps a running sum and count of the metric over ok rows, so it
    serves exactly one run: build a fresh one for every ``run_batches`` call.

    Stops iff ``|m_now - m_prev| / max(|m_prev|, floor) < epsilon``, where
    ``m_prev`` and ``m_now`` are the means over all ok rows before and after
    the chunk.  Returns false on the first chunk, whenever either side has no
    ok rows yet, and after a chunk without ok rows: an all-failed chunk leaves
    the mean where it was, which is no evidence that it has settled.  Failed
    rows never contribute to the means, and a chunk without ok rows need not
    carry the metric column.  A NaN or infinite metric on an ok row raises
    :class:`CriterionError`: the means could never settle again.
    """
    if epsilon <= 0:
        raise InvalidArgumentError(f"epsilon must be > 0, got {epsilon}")
    if floor <= 0:
        raise InvalidArgumentError(f"floor must be > 0, got {floor}")
    total = 0.0
    count = 0

    def criterion(chunk: ResultTable) -> bool:
        nonlocal total, count
        ok = chunk.ok_mask()
        if not ok.any():
            return False
        if metric not in chunk.columns:
            raise ConfigurationError(
                f"convergence metric column {metric!r} not present in results"
            )
        prev_total, prev_count = total, count
        values = chunk.column(metric)[ok]
        if not np.isfinite(values).all():
            raise CriterionError(f"metric {metric!r} is not finite on an ok row")
        total += float(np.sum(values))
        count += values.size
        if prev_count == 0:
            return False
        m_now = total / count
        m_prev = prev_total / prev_count
        return abs(m_now - m_prev) / max(abs(m_prev), floor) < epsilon

    return criterion


class SubprocessRunner:
    """Run chunks through an external command: ``cmd <in.csv> <out.csv>``.

    The chunk is written as a Design CSV prefixed with the reserved
    ``_index`` column; the command must write a ResultTable CSV (``_index``,
    ``_status``, output columns) to the second path.  A nonzero exit, a
    timeout or a missing, unparsable or non-UTF-8 output file fails the whole
    chunk.
    """

    def __init__(self, command: Sequence[str], timeout: float | None = None):
        if not command:
            raise InvalidArgumentError("runner command must be non-empty")
        self.command = [str(c) for c in command]
        self.timeout = timeout

    def _write_chunk(self, chunk: DesignChunk, path: Path) -> None:
        design = chunk.design
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(header_line([RESERVED_INDEX, *(f.name for f in design.factors)]))
            write_design_rows(fh, design, index=chunk.indices)

    def __call__(self, chunk: DesignChunk) -> ResultTable:
        with tempfile.TemporaryDirectory(prefix="simfarm-chunk-") as tmp:
            in_path = Path(tmp) / "in.csv"
            out_path = Path(tmp) / "out.csv"
            self._write_chunk(chunk, in_path)
            try:
                proc = subprocess.run(
                    [*self.command, str(in_path), str(out_path)],
                    capture_output=True,
                    timeout=self.timeout,
                )
                if proc.returncode == 0 and out_path.exists():
                    return ResultTable.from_csv(out_path)
            except (subprocess.TimeoutExpired, ParseError):
                pass
        return ResultTable(index=chunk.indices, status=np.zeros(chunk.n, dtype=bool))


# -- built-in runner registry -------------------------------------------------

_RUNNERS: dict[str, Callable[..., Runner]] = {}


def register_runner(name: str, factory: Callable[..., Runner]) -> None:
    _RUNNERS[name] = factory


def get_runner(name: str, **options) -> Runner:
    if name not in _RUNNERS:
        raise ConfigurationError(
            f"unknown runner {name!r}; available: {sorted(_RUNNERS)}"
        )
    return _RUNNERS[name](**options)


def runner_names() -> list[str]:
    return sorted(_RUNNERS)
