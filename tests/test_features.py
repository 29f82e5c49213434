import os
import subprocess
import sys

import numpy as np
import pytest

from simfarm.analysis.features import correlation_ratio, feature_scores, pearson_r
from simfarm.errors import InvalidArgumentError
from simfarm.rng import substream
from simfarm.tables import DataColumn


class TestFeatureScores:
    def test_informative_feature_outranks_noise(self):
        g = substream(0, 0)
        x1 = g.normal(0, 1, 500)
        x2 = g.normal(0, 1, 500)
        y = 3.0 * x1 + g.normal(0, 0.1, 500)
        scores = dict(
            feature_scores(
                [DataColumn.numeric("x1", x1), DataColumn.numeric("x2", x2)],
                DataColumn.numeric("y", y),
            )
        )
        assert scores["x1"] > scores["x2"]

    def test_identical_feature_scores_one_and_ranks_first(self):
        g = substream(1, 0)
        y = g.normal(0, 1, 100)
        noise = g.normal(0, 1, 100)
        ranked = feature_scores(
            [DataColumn.numeric("noise", noise), DataColumn.numeric("copy", y)],
            DataColumn.numeric("y", y),
        )
        assert ranked[0] == ("copy", pytest.approx(1.0, abs=1e-12))

    def test_constant_feature_scores_zero(self):
        y = substream(2, 0).normal(0, 1, 50)
        ranked = feature_scores(
            [DataColumn.numeric("const", np.full(50, 7.0))],
            DataColumn.numeric("y", y),
        )
        assert ranked[0][1] == 0.0

    def test_categorical_scored_by_correlation_ratio(self):
        levels = np.array(["a"] * 50 + ["b"] * 50, dtype=object)
        y = np.concatenate([np.zeros(50), np.ones(50)])
        ranked = feature_scores(
            [DataColumn.categorical("grp", levels)], DataColumn.numeric("y", y)
        )
        assert ranked[0][1] == pytest.approx(1.0, abs=1e-12)

    def test_ties_keep_column_order(self):
        y = substream(3, 0).normal(0, 1, 40)
        consts = [
            DataColumn.numeric("first", np.full(40, 1.0)),
            DataColumn.numeric("second", np.full(40, 2.0)),
        ]
        ranked = feature_scores(consts, DataColumn.numeric("y", y))
        assert [name for name, _ in ranked] == ["first", "second"]

    def test_scores_sorted_descending_in_unit_interval(self):
        g = substream(4, 0)
        y = g.normal(0, 1, 200)
        cols = [
            DataColumn.numeric("a", y + g.normal(0, 0.5, 200)),
            DataColumn.numeric("b", g.normal(0, 1, 200)),
            DataColumn.categorical("c", np.where(y > 0, "pos", "neg").astype(object)),
        ]
        ranked = feature_scores(cols, DataColumn.numeric("y", y))
        values = [s for _, s in ranked]
        assert values == sorted(values, reverse=True)
        assert all(0.0 <= s <= 1.0 for s in values)

    def test_length_mismatch_rejected(self):
        with pytest.raises(InvalidArgumentError):
            feature_scores(
                [DataColumn.numeric("x", np.arange(5.0))],
                DataColumn.numeric("y", np.arange(6.0)),
            )

    def test_missing_values_dropped_pairwise(self):
        x = np.array([1.0, 2.0, np.nan, 4.0, 5.0])
        y = np.array([1.0, 2.0, 3.0, 4.0, np.nan])
        ranked = feature_scores(
            [DataColumn.numeric("x", x)], DataColumn.numeric("y", y)
        )
        assert ranked[0][1] == pytest.approx(1.0, abs=1e-12)  # x == y on complete pairs


class TestPrimitives:
    def test_pearson_linearity(self):
        x = np.arange(50.0)
        assert pearson_r(x, 3 * x + 2) == pytest.approx(1.0, abs=1e-14)
        assert pearson_r(x, -x) == pytest.approx(-1.0, abs=1e-14)

    def test_correlation_ratio_equals_abs_r_for_binary(self):
        g = substream(5, 0)
        levels = np.array(["a"] * 60 + ["b"] * 40, dtype=object)
        y = g.normal(0, 1, 100) + np.where(levels == "b", 1.0, 0.0)
        dummy = (levels == "b").astype(float)
        assert correlation_ratio(levels, y) == pytest.approx(abs(pearson_r(dummy, y)), abs=1e-12)

    def test_correlation_ratio_independent_of_hash_seed(self):
        # 12 string levels: summed in set order, the last digit moved with PYTHONHASHSEED
        script = (
            "from simfarm.analysis.features import correlation_ratio\n"
            "from simfarm.rng import substream\n"
            "g = substream(0, 0)\n"
            "levels = [f'L{i}' for i in g.integers(0, 12, 5000)]\n"
            "y = g.normal(0.0, 1.0, 5000) + 0.1 * g.integers(0, 3, 5000)\n"
            "print(repr(correlation_ratio(levels, y)))\n"
        )
        outputs = {
            subprocess.run(
                [sys.executable, "-c", script],
                env={**os.environ, "PYTHONHASHSEED": str(seed)},
                capture_output=True, text=True, check=True, timeout=60,
            ).stdout
            for seed in range(6)
        }
        assert len(outputs) == 1
