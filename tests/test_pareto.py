import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
