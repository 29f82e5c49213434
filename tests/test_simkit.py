import numpy as np
import pytest

from simfarm.doe import lhs_design
from simfarm.errors import ContractViolationError, DomainError
from simfarm.execution import DesignChunk, run_batches
from simfarm import simkit
from simfarm.rng import substream


@pytest.fixture(scope="module")
def params():
    return simkit.calibrate()


def navigation_chunk(n=50, seed=0, offset=0):
    design = lhs_design(simkit.navigation_factors(), n, seed=seed)
    return DesignChunk(design=design, indices=np.arange(offset, offset + n))


class TestDensityRatio:
    def test_sea_level_is_one(self):
        assert float(simkit.density_ratio(0.0)) == 1.0

    def test_decreases_with_altitude(self):
        hs = np.linspace(0, 35000, 100)
        sigma = simkit.density_ratio(hs)
        assert np.all(np.diff(sigma) < 0)


class TestFuelFlow:
    def test_strictly_increasing_in_speed_at_low_altitude(self, params):
        v = np.linspace(450, 550, 201)
        ff = simkit.fuel_flow(v, 10000.0, params)
        assert np.all(np.diff(ff) > 0)

    def test_high_altitude_cheaper_at_high_speed(self, params):
        v = np.linspace(500, 550, 51)
        assert np.all(
            simkit.fuel_flow(v, 35000.0, params) < simkit.fuel_flow(v, 10000.0, params)
        )

    def test_positive_on_domain(self, params):
        g = substream(0, 0)
        v = g.uniform(350, 550, 1000)
        h = g.uniform(10000, 35000, 1000)
        assert np.all(simkit.fuel_flow(v, h, params) > 0)

    def test_domain_guard(self, params):
        with pytest.raises(DomainError):
            simkit.fuel_flow(300.0, 20000.0, params)
        with pytest.raises(DomainError):
            simkit.fuel_flow(400.0, 50000.0, params)


class TestCalibration:
    def test_anchor_residuals(self, params):
        assert float(simkit.total_fuel_lb(525.0, 10000.0, params)) == pytest.approx(
            1800.0, abs=1e-6
        )
        assert float(simkit.total_fuel_lb(425.0, 27500.0, params)) == pytest.approx(
            1000.0, abs=1e-6
        )

    def test_coefficients_strictly_positive(self, params):
        assert params.A > 0 and params.B > 0


class TestTimeOfFlight:
    def test_cruise_plus_hold_arithmetic(self, params):
        # 500 NM at 500 kt = 3600 s, plus the 600 s hold
        assert float(simkit.time_of_flight_s(500.0, params)) == pytest.approx(4200.0)

    def test_decreasing_in_speed_and_altitude_free(self, params):
        v = np.linspace(350, 550, 100)
        tof = simkit.time_of_flight_s(v, params)
        assert np.all(np.diff(tof) < 0)


class TestRunnerContract:
    def test_row_alignment_and_status(self, params):
        chunk = navigation_chunk(n=30, offset=100)
        table = simkit.simulate_navigation(chunk, params, seed=0)
        assert np.array_equal(table.index, chunk.indices)
        assert table.status.dtype == bool and table.status.all()
        assert set(table.column_names) == {"time_of_flight", "fuel_consumed"}

    def test_wrong_columns_rejected(self, params):
        from simfarm.doe import Continuous, FactorSpec

        design = lhs_design([FactorSpec("velocity", Continuous(350, 550))], 5, seed=0)
        chunk = DesignChunk(design=design, indices=np.arange(5))
        with pytest.raises(ContractViolationError):
            simkit.simulate_navigation(chunk, params, seed=0)

    def test_deterministic_and_chunking_invariant(self, params):
        design = lhs_design(simkit.navigation_factors(), 200, seed=5)
        runner = simkit.navsim_runner(params=params, seed=9)
        small, _ = run_batches(design, runner, None, 17)
        large, _ = run_batches(design, runner, None, 200)
        assert np.array_equal(small.column("fuel_consumed"), large.column("fuel_consumed"))

    def test_noise_streams_keyed_by_row_index(self):
        noisy = simkit.calibrate(noise_sigma=0.1)
        chunk_a = navigation_chunk(n=20, seed=1, offset=40)
        table_a = simkit.simulate_navigation(chunk_a, noisy, seed=3)
        # same rows presented as a different chunk partition -> identical results
        sub = DesignChunk(design=chunk_a.design.take(np.arange(5, 20)),
                          indices=chunk_a.indices[5:])
        table_b = simkit.simulate_navigation(sub, noisy, seed=3)
        assert np.array_equal(
            table_a.column("fuel_consumed")[5:], table_b.column("fuel_consumed")
        )

    def test_noise_has_median_one(self):
        noisy = simkit.calibrate(noise_sigma=0.2)
        base = simkit.calibrate()
        chunk = navigation_chunk(n=4001, seed=2)
        ratio = (
            simkit.simulate_navigation(chunk, noisy, seed=0).column("fuel_consumed")
            / simkit.simulate_navigation(chunk, base, seed=0).column("fuel_consumed")
        )
        assert np.median(ratio) == pytest.approx(1.0, abs=0.02)


def envelope_grid(params, n_speed=201, n_alt=251):
    v = np.linspace(*simkit.SPEED_RANGE_KT, n_speed)
    h = np.linspace(*simkit.ALTITUDE_RANGE_FT, n_alt)
    vv, hh = np.meshgrid(v, h, indexing="ij")
    return vv, hh, simkit.total_fuel_lb(vv, hh, params)


class TestFuelSurface:
    def test_argmax_in_fast_low_corner_region(self, params):
        vv, hh, fuel = envelope_grid(params)
        i = np.unravel_index(np.argmax(fuel), fuel.shape)
        assert 500.0 <= vv[i] <= 550.0
        assert 10000.0 <= hh[i] <= 12000.0

    def test_argmin_in_economical_cruise_region(self, params):
        # Scenario target: the cheapest grid point should sit at 400-450 kt
        # and 25-30 kft.  The two-term flow law pinned to the calibration
        # anchors cannot place it there: at the per-speed optimal altitude,
        # total fuel is 2*sqrt(A*B)*(v/100)*(500/v + 1/6), strictly increasing
        # in v, so the surface minimum sits on the 350 kt edge instead.  Kept
        # failing deliberately as executable documentation of the gap.
        vv, hh, fuel = envelope_grid(params)
        i = np.unravel_index(np.argmin(fuel), fuel.shape)
        assert 400.0 <= vv[i] <= 450.0
        assert 25000.0 <= hh[i] <= 30000.0

    def test_grid_minimum_in_expected_band(self, params):
        _, _, fuel = envelope_grid(params)
        assert 900.0 <= float(fuel.min()) <= 1100.0

    def test_grid_maximum_in_expected_band(self, params):
        # Scenario target band [1700, 1900] lb; the calibrated surface tops
        # out near 1960 lb at the (550 kt, 10 kft) corner (see the argmin
        # note above for why no positive A, B can satisfy both anchors and
        # this cap).  Kept failing deliberately.
        _, _, fuel = envelope_grid(params)
        assert 1700.0 <= float(fuel.max()) <= 1900.0

    def test_weak_time_fuel_relationship(self, params):
        design = lhs_design(simkit.navigation_factors(), 4000, seed=7)
        runner = simkit.navsim_runner(params=params)
        results, _ = run_batches(design, runner, None, 500)
        tof = results.column("time_of_flight")
        fuel = results.column("fuel_consumed")
        r = np.corrcoef(tof, fuel)[0, 1]
        assert r * r < 0.5
