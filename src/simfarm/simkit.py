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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .doe import Continuous, FactorSpec
from .errors import CalibrationError, ContractViolationError, DomainError
from .execution import DesignChunk, register_runner
from .rng import first_standard_normals
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
        if self.noise_sigma < 0:
            raise DomainError(f"noise_sigma must be >= 0, got {self.noise_sigma}")


def density_ratio(altitude_ft):
    """Standard-atmosphere density ratio sigma(h) = (1 - h/145442)^4.2559."""
    return (1.0 - np.asarray(altitude_ft, dtype=np.float64) / 145442.0) ** 4.2559


def _check_domain(speed_kt, altitude_ft) -> None:
    v = np.asarray(speed_kt, dtype=np.float64)
    h = np.asarray(altitude_ft, dtype=np.float64)
    if np.any(v < SPEED_RANGE_KT[0]) or np.any(v > SPEED_RANGE_KT[1]):
        raise DomainError(f"speed outside {SPEED_RANGE_KT} kt")
    if np.any(h < ALTITUDE_RANGE_FT[0]) or np.any(h > ALTITUDE_RANGE_FT[1]):
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


def simulate_navigation(chunk: DesignChunk, params: FuelModelParams, seed: int = 0) -> ResultTable:
    """Run one design chunk; satisfies the runner contract (row-aligned, ok)."""
    names = [f.name for f in chunk.design.factors]
    if sorted(names) != ["altitude", "speed"]:
        raise ContractViolationError(
            f"navsim expects factor columns ['speed', 'altitude'], got {names}"
        )
    speed = np.asarray(chunk.column("speed"), dtype=np.float64)
    altitude = np.asarray(chunk.column("altitude"), dtype=np.float64)
    tof = time_of_flight_s(speed, params)
    fuel = total_fuel_lb(speed, altitude, params)
    if params.noise_sigma > 0.0:
        fuel = fuel * np.exp(params.noise_sigma * first_standard_normals(seed, chunk.indices))
    return ResultTable(
        index=chunk.indices,
        status=np.ones(chunk.n, dtype=bool),
        columns={"time_of_flight": tof, "fuel_consumed": fuel},
    )


def navsim_runner(params: FuelModelParams | None = None, seed: int = 0, **_ignored):
    """Runner factory registered under the name ``navsim``."""
    model = params if params is not None else calibrate()

    def run(chunk: DesignChunk) -> ResultTable:
        return simulate_navigation(chunk, model, seed=seed)

    return run


register_runner("navsim", navsim_runner)
