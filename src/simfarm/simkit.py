"""Analytic flight-fuel simulator used as the built-in ``navsim`` runner.

The scenario: a 500 NM navigation route flown at constant speed and altitude
plus a 10-minute hold, with fuel flow modeled as a two-term drag-polar-style
law over the standard-atmosphere density ratio

    FF(v, h) = A * sigma(h) * (v/100)^3 + B / (sigma(h) * (v/100))
    sigma(h) = (1 - h/145442)^4.2559          (h in feet)

``calibrate`` pins the two free coefficients so that total fuel equals
1800 lb at (525 kt, 10000 ft) and 1000 lb at (425 kt, 27500 ft), which places
the expensive and economical regions of the speed/altitude envelope where the
fuel surface is distinctly non-monotone and fuel correlates only weakly with
time of flight.  With ``noise_sigma = 0`` the model is fully deterministic;
otherwise fuel is multiplied by a lognormal factor with median 1 drawn from
the per-row stream ``(seed, design row index)``, so results do not depend on
chunking or scheduling.

``navsim_runner(noise_sigma, seed)`` is the one way ``get_runner("navsim")``,
``simfarm run``, ``casestudy navigation`` and the subprocess worker
(``simfarm navsim-worker <in.csv> <out.csv>``) build the simulator; a hand-built
:class:`FuelModelParams` runs through :func:`simulate_navigation`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .doe import Continuous, Design, FactorSpec
from .errors import CalibrationError, ContractViolationError, DomainError, InvalidArgumentError
from .execution import DesignChunk
from .rng import first_standard_normals, read_ahead_normals
from .tables import ResultTable

__all__ = [
    "SPEED_RANGE_KT",
    "ALTITUDE_RANGE_FT",
    "FuelModelParams",
    "density_ratio",
    "fuel_flow",
    "time_of_flight_s",
    "total_fuel_lb",
    "calibrate",
    "simulate_navigation",
    "navigation_factors",
    "navsim_runner",
    "WORKER_HELP",
    "add_worker_arguments",
    "navsim_worker",
]

SPEED_RANGE_KT = (350.0, 550.0)
ALTITUDE_RANGE_FT = (10000.0, 35000.0)

_CALIBRATION_ANCHORS = (
    # (speed kt, altitude ft, total fuel lb)
    (525.0, 10000.0, 1800.0),
    (425.0, 27500.0, 1000.0),
)


@dataclass(frozen=True)
class FuelModelParams:
    A: float  # parasite-term coefficient, lb/hr
    B: float  # induced-term coefficient, lb/hr
    route_distance_nm: float = 500.0
    hold_duration_s: float = 600.0
    noise_sigma: float = 0.0

    def __post_init__(self):
        if not (np.isfinite(self.noise_sigma) and self.noise_sigma >= 0):
            raise DomainError(f"noise_sigma must be finite and >= 0, got {self.noise_sigma}")


def density_ratio(altitude_ft):
    """Standard-atmosphere density ratio sigma(h) = (1 - h/145442)^4.2559."""
    return (1.0 - np.asarray(altitude_ft, dtype=np.float64) / 145442.0) ** 4.2559


def _check_domain(speed_kt, altitude_ft) -> None:
    v = np.asarray(speed_kt, dtype=np.float64)
    h = np.asarray(altitude_ft, dtype=np.float64)
    if ((v < SPEED_RANGE_KT[0]) | (v > SPEED_RANGE_KT[1])).any():
        raise DomainError(f"speed outside {SPEED_RANGE_KT} kt")
    if ((h < ALTITUDE_RANGE_FT[0]) | (h > ALTITUDE_RANGE_FT[1])).any():
        raise DomainError(f"altitude outside {ALTITUDE_RANGE_FT} ft")


def fuel_flow(speed_kt, altitude_ft, params: FuelModelParams):
    """Fuel flow in lb/hr over the flight envelope."""
    _check_domain(speed_kt, altitude_ft)
    sigma = density_ratio(altitude_ft)
    u = np.asarray(speed_kt, dtype=np.float64) / 100.0
    return params.A * sigma * u**3 + params.B / (sigma * u)


def time_of_flight_s(speed_kt, params: FuelModelParams):
    """Route time plus hold, in seconds; independent of altitude."""
    v = np.asarray(speed_kt, dtype=np.float64)
    return params.route_distance_nm / v * 3600.0 + params.hold_duration_s


def total_fuel_lb(speed_kt, altitude_ft, params: FuelModelParams):
    """Fuel burned over route plus hold at cruise flow, in pounds."""
    hours = time_of_flight_s(speed_kt, params) / 3600.0
    return fuel_flow(speed_kt, altitude_ft, params) * hours


def calibrate(
    route_distance_nm: float = 500.0,
    hold_duration_s: float = 600.0,
    noise_sigma: float = 0.0,
) -> FuelModelParams:
    """Solve (A, B) exactly from the two total-fuel anchor points."""
    rows = []
    rhs = []
    for v, h, fuel in _CALIBRATION_ANCHORS:
        sigma = float(density_ratio(h))
        u = v / 100.0
        hours = (route_distance_nm / v * 3600.0 + hold_duration_s) / 3600.0
        rows.append([sigma * u**3, 1.0 / (sigma * u)])
        rhs.append(fuel / hours)
    matrix = np.array(rows)
    if abs(np.linalg.det(matrix)) < 1e-12:
        raise CalibrationError("calibration system is singular")
    a, b = np.linalg.solve(matrix, np.array(rhs))
    if a <= 0 or b <= 0:
        raise CalibrationError(f"calibration produced nonpositive coefficients A={a}, B={b}")
    params = FuelModelParams(
        A=float(a),
        B=float(b),
        route_distance_nm=route_distance_nm,
        hold_duration_s=hold_duration_s,
        noise_sigma=noise_sigma,
    )
    for v, h, fuel in _CALIBRATION_ANCHORS:
        residual = abs(float(total_fuel_lb(v, h, params)) - fuel)
        if residual >= 1e-6:
            raise CalibrationError(f"anchor residual {residual} lb at ({v} kt, {h} ft)")
    return params


def navigation_factors() -> list[FactorSpec]:
    """The scenario's factor space: speed and altitude over the envelope."""
    return [
        FactorSpec("speed", Continuous(*SPEED_RANGE_KT)),
        FactorSpec("altitude", Continuous(*ALTITUDE_RANGE_FT)),
    ]


def simulate_navigation(
    chunk: DesignChunk, params: FuelModelParams, seed: int = 0, normals=None
) -> ResultTable:
    """Run one design chunk; satisfies the runner contract (row-aligned, ok).

    ``normals(indices)`` gives the noise's standard normals, by default
    ``first_standard_normals(seed, indices)``; :func:`navsim_runner` passes
    its :func:`~simfarm.rng.read_ahead_normals` of ``seed``, with the same bytes.
    """
    names = [f.name for f in chunk.design.factors]
    if sorted(names) != ["altitude", "speed"]:
        raise ContractViolationError(
            f"navsim expects factor columns ['speed', 'altitude'], got {names}"
        )
    speed = np.asarray(chunk.column("speed"), dtype=np.float64)
    altitude = np.asarray(chunk.column("altitude"), dtype=np.float64)
    tof = time_of_flight_s(speed, params)
    fuel = fuel_flow(speed, altitude, params) * (tof / 3600.0)  # total_fuel_lb, tof computed once
    if params.noise_sigma > 0.0:
        z = normals(chunk.indices) if normals else first_standard_normals(seed, chunk.indices)
        fuel = fuel * np.exp(params.noise_sigma * z)
    return ResultTable(
        index=chunk.indices,
        status=np.ones(chunk.n, dtype=bool),
        columns={"time_of_flight": tof, "fuel_consumed": fuel},
    )


def navsim_runner(noise_sigma: float = 0.0, seed: int = 0):
    """The built-in ``navsim`` runner: the calibrated model, its fuel times a
    lognormal factor of ``noise_sigma`` drawn from the per-row streams of ``seed``,
    read ahead in blocks of consecutive rows."""
    params = calibrate(noise_sigma=noise_sigma)
    normals = read_ahead_normals(seed)

    def run(chunk: DesignChunk) -> ResultTable:
        return simulate_navigation(chunk, params, seed=seed, normals=normals)

    return run


# -- navsim worker (subprocess protocol) -----------------------------------------

WORKER_HELP = (
    "run the built-in flight-fuel simulator over a chunk CSV "
    "(the subprocess runner protocol: <in.csv> <out.csv>)"
)


def add_worker_arguments(parser) -> None:
    """The ``navsim-worker`` arguments, calling :func:`navsim_worker`."""
    parser.add_argument("in_csv")
    parser.add_argument("out_csv")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--noise", type=float, default=0.0)
    parser.set_defaults(func=navsim_worker)


def navsim_worker(args) -> int:
    """Run the built-in simulator over a chunk CSV written by the controller."""
    with open(args.in_csv, "r", encoding="utf-8", newline="") as fh:
        # The first header cell, bare or quoted: the table does not keep column order.
        first_cell = fh.readline().split(",", 1)[0].rstrip("\r\n")
    if first_cell not in ("_index", '"_index"'):
        raise InvalidArgumentError("chunk CSV must carry the _index column first")
    table = ResultTable.from_csv(args.in_csv)
    for required in ("speed", "altitude"):
        if required not in table.columns:
            raise InvalidArgumentError(f"chunk CSV lacks the {required!r} column")
    chunk = DesignChunk(
        design=Design(
            factors=tuple(navigation_factors()),
            columns={name: table.column(name) for name in ("speed", "altitude")},
        ),
        indices=table.index,
    )
    navsim_runner(noise_sigma=args.noise, seed=args.seed)(chunk).to_csv(args.out_csv)
    return 0
