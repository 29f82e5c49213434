import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from simfarm.analysis import pareto
from simfarm.analysis.pareto import pareto_front
from simfarm.errors import InvalidArgumentError
from simfarm.rng import substream


def brute_force_front(points: np.ndarray) -> set[int]:
    """Independent n^2 oracle via full pairwise matrix (minimization)."""
    le = (points[:, None, :] <= points[None, :, :]).all(axis=2)
    lt = (points[:, None, :] < points[None, :, :]).any(axis=2)
    dominates = le & lt  # dominates[j, i]: j dominates i
    dominated = dominates.any(axis=0)
    return set(np.nonzero(~dominated)[0])


class TestParetoFront:
    def test_minimize_both_by_inspection(self):
        pts = np.array([[1.0, 2.0], [2.0, 1.0], [2.0, 2.0]])
        result = pareto_front(pts, ["min", "min"])
        assert set(result.front) == {0, 1}

    def test_all_identical_points_stay(self):
        pts = np.ones((5, 3))
        result = pareto_front(pts, ["min", "min", "max"])
        assert set(result.front) == {0, 1, 2, 3, 4}

    def test_duplicates_of_front_point_kept(self):
        pts = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0]])
        result = pareto_front(pts, ["min", "min"])
        assert set(result.front) == {0, 1}

    def test_maximize_direction(self):
        pts = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 0.0]])
        result = pareto_front(pts, ["max", "max"])
        assert set(result.front) == {1, 2}

    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_bruteforce_oracle(self, m, seed):
        pts = substream(seed, m).random((1000, m))
        result = pareto_front(pts, ["min"] * m)
        assert set(result.front) == brute_force_front(pts)

    @pytest.mark.parametrize("m", [2, 3, 4])
    @pytest.mark.parametrize("n, levels", [(1, 3), (7, 2), (60, 4), (500, 6), (2000, 12)])
    def test_integer_grid_with_duplicates_matches_bruteforce(self, m, n, levels):
        # few levels per objective: many tied coordinates and repeated points
        pts = substream(n, m).integers(0, levels, size=(n, m)).astype(np.float64)
        assert len(np.unique(pts, axis=0)) < n or n == 1
        directions = ["min", "max"] * (m // 2) + ["min"] * (m % 2)
        signs = np.array([1.0 if d == "min" else -1.0 for d in directions])
        result = pareto_front(pts, directions)
        assert set(result.front) == brute_force_front(pts * signs)
        assert np.array_equal(result.front, np.sort(result.front))

    def test_idempotence(self):
        pts = substream(9, 0).random((300, 3))
        first = pareto_front(pts, ["min", "min", "min"]).front
        again = pareto_front(pts[first], ["min", "min", "min"]).front
        assert np.array_equal(again, np.arange(len(first)))

    @given(st.integers(min_value=0, max_value=100))
    @settings(max_examples=25, deadline=None)
    def test_invariant_under_monotone_transforms(self, seed):
        pts = substream(seed, 17).random((120, 2))
        base = set(pareto_front(pts, ["min", "min"]).front)
        transformed = np.column_stack([np.exp(pts[:, 0]), pts[:, 1] ** 3 + 5.0])
        assert set(pareto_front(transformed, ["min", "min"]).front) == base

    def test_single_point(self):
        result = pareto_front(np.array([[1.0, 2.0]]), ["min", "max"])
        assert set(result.front) == {0}

    def test_nonfinite_rejected(self):
        with pytest.raises(InvalidArgumentError):
            pareto_front(np.array([[1.0, np.nan]]), ["min", "min"])

    def test_single_objective_rejected(self):
        with pytest.raises(InvalidArgumentError):
            pareto_front(np.array([[1.0]]), ["min"])

    def test_unknown_direction_rejected(self):
        with pytest.raises(InvalidArgumentError):
            pareto_front(np.array([[1.0, 2.0]]), ["min", "sideways"])

    def test_front_members_not_dominated(self):
        pts = substream(11, 0).random((400, 3))
        directions = ["min", "max", "min"]
        result = pareto_front(pts, directions)
        signs = np.array([1.0, -1.0, 1.0])
        norm = pts * signs
        front = set(result.front)
        for i in front:
            dominated = (
                (norm <= norm[i]).all(axis=1) & (norm < norm[i]).any(axis=1)
            ).any()
            assert not dominated


# Three-objective tables with ties, duplicate rows, constant columns and -0.0:
# every cell is drawn from a handful of levels, and a column may be constant.
LEVELS = st.sampled_from([-2.0, -0.0, 0.0, 0.5, 1.0, 3.0])
TABLES = st.integers(1, 40).flatmap(
    lambda n: st.tuples(
        hnp.arrays(np.float64, (n, 3), elements=LEVELS),
        st.lists(st.sampled_from(["min", "max"]), min_size=3, max_size=3),
        st.sets(st.integers(0, 2), max_size=3),
    )
)


class TestThreeObjectiveSweep:
    """The m = 3 sweep against the pairwise scan that four or more objectives use."""

    @given(TABLES)
    @settings(max_examples=300, deadline=None)
    @example((np.array([[0.0, 1.0, 1.0], [-0.0, 1.0, 1.0]]), ["min", "min", "min"], set()))
    @example((np.ones((4, 3)), ["max", "min", "max"], {0, 1, 2}))
    def test_matches_pairwise_oracle(self, case):
        pts, directions, constant = case
        pts = pts.copy()
        for j in constant:
            pts[:, j] = pts[0, j]
        signs = np.array([1.0 if d == "min" else -1.0 for d in directions])
        expected = np.flatnonzero(pareto._front_mask_pairwise(pts * signs))
        assert np.array_equal(pareto_front(pts, directions).front, expected)
        assert set(expected) == brute_force_front(pts * signs)

    @pytest.mark.parametrize("seed", range(3))
    def test_random_tables_match_pairwise_oracle(self, seed):
        g = substream(seed, 33)
        pts = np.round(g.random((3000, 3)), 2)  # ties on every axis
        pts = np.concatenate([pts, pts[:200]])  # duplicates of front and dominated rows
        assert np.array_equal(pareto._front_mask_3d(pts), pareto._front_mask_pairwise(pts))

    def test_large_trade_off_surface_is_fast(self):
        # Every row of the plane f1 + f2 + f3 = 2**21 (exact in doubles) is on the
        # front, the case where the pairwise scan took 241 s at 64 000 rows.
        u = substream(5, 34).integers(0, 2**20, (200_000, 2)).astype(np.float64)
        pts = np.column_stack([u, 2.0**21 - u.sum(axis=1)])
        start = time.perf_counter()
        front = pareto_front(pts, ["min", "min", "min"]).front
        assert time.perf_counter() - start < 20.0
        assert np.array_equal(front, np.arange(len(pts)))
