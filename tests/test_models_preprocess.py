import numpy as np
import pytest

from simfarm.errors import DegenerateSampleError, InvalidArgumentError, ModelFormatError
from simfarm.models.preprocess import FittedPreprocessor, fit_preprocessor
from simfarm.tables import DataColumn


def numeric(name, values):
    return DataColumn.numeric(name, values)


def categorical(name, values):
    return DataColumn.categorical(name, np.array(values, dtype=object))


def fit_transform(table):
    fp = fit_preprocessor(table)
    return fp, fp.transform(table)


class TestScaling:
    def test_zscore_normalizes_fit_data(self):
        _, result = fit_transform([numeric("x", [1.0, 2.0, 3.0, 4.0])])
        col = result.matrix.ravel()
        assert col.mean() == pytest.approx(0.0, abs=1e-12)
        assert col.std(ddof=0) == pytest.approx(1.0, abs=1e-12)
        assert result.feature_names == ["x"]

    def test_zscore_zero_sd_names_column(self):
        with pytest.raises(DegenerateSampleError, match="flat"):
            fit_preprocessor([numeric("flat", [2.0, 2.0, 2.0])])

    def test_apply_uses_fit_statistics_only(self):
        fp, fit_result = fit_transform([numeric("x", [0.0, 10.0])])
        applied = fp.transform([numeric("x", [20.0])])
        assert applied.matrix.ravel()[0] == pytest.approx(3.0)  # extrapolates, no refit
        refit = fp.transform([numeric("x", [0.0, 10.0])])
        assert np.array_equal(refit.matrix, fit_result.matrix)  # no leakage


class TestEncoding:
    def test_onehot_expands_levels(self):
        _, result = fit_transform([categorical("c", ["B", "A", "C", "A"])])
        assert result.feature_names == ["c=B", "c=A", "c=C"]
        assert np.array_equal(result.matrix, [[1, 0, 0], [0, 1, 0], [0, 0, 1], [0, 1, 0]])

    def test_unseen_level_all_zero_and_flagged(self):
        fp = fit_preprocessor([categorical("c", ["A", "B"])])
        result = fp.transform([categorical("c", ["A", "D", "B", "D"])])
        assert np.array_equal(result.matrix, [[1, 0], [0, 0], [0, 1], [0, 0]])
        assert result.unseen == [(1, "c", "D"), (3, "c", "D")]


class TestImputation:
    def test_mean_impute(self):
        fp, result = fit_transform([numeric("x", [1.0, np.nan, 3.0])])
        assert np.allclose(result.matrix.ravel(), [-1.0, 0.0, 1.0])
        assert np.array_equal(fp.transform([numeric("x", [np.nan])]).matrix, [[0.0]])

    def test_mode_impute_categorical(self):
        fp, result = fit_transform([categorical("c", ["B", "A", "A", None])])
        assert np.array_equal(result.matrix[3], [0.0, 1.0])  # mode A
        assert result.unseen == []

    @pytest.mark.parametrize("values, mode", [
        (["B", None, "A", "A", "B"], "B"),
        (["A", "B", "B", "A", None], "A"),
    ])
    def test_mode_tie_goes_to_level_seen_first(self, values, mode):
        fp, result = fit_transform([categorical("c", values)])
        assert fp.to_dict()["columns"]["c"]["impute_value"] == mode
        imputed_row = result.matrix[values.index(None)]
        assert np.array_equal(imputed_row, result.matrix[values.index(mode)])

    @pytest.mark.parametrize("column", [
        numeric("x", [np.nan, np.nan]),
        categorical("x", [None, None]),
    ], ids=["numeric", "categorical"])
    def test_entirely_missing_column_rejected(self, column):
        with pytest.raises(InvalidArgumentError, match="'x' is entirely missing"):
            fit_preprocessor([column])


class TestRoundTrip:
    TABLE = [
        numeric("x", [1.0, np.nan, 3.0, 7.5]),
        categorical("c", ["A", "B", None, "A"]),
    ]

    def test_fitted_preprocessor_serializes(self):
        fp, result = fit_transform(self.TABLE)
        doc = fp.to_dict()
        assert doc["columns"]["x"] == {
            "kind": "numeric", "scaling": "zscore", "encoding": "none", "imputation": "mean",
            "impute_value": 11.5 / 3, "mean": 11.5 / 3, "sd": doc["columns"]["x"]["sd"],
            "min": None, "max": None, "levels": [],
        }
        assert doc["columns"]["c"] == {
            "kind": "categorical", "scaling": "none", "encoding": "onehot",
            "imputation": "mode", "impute_value": "A", "mean": None, "sd": None,
            "min": None, "max": None, "levels": ["A", "B"],
        }
        back = FittedPreprocessor.from_dict(doc)
        assert np.array_equal(back.transform(self.TABLE).matrix, result.matrix)
        assert back.to_dict() == doc

    def test_default_spec_for_mixed_table(self):
        table = [categorical("c", ["u", "v", "u"]), numeric("x", [1.0, 2.0, 3.0])]
        _, result = fit_transform(table)
        assert result.matrix.shape == (3, 3)  # 2 onehot levels + zscored x, in table order
        assert result.feature_names == ["c=u", "c=v", "x"]

    def test_missing_or_changed_column_rejected(self):
        fp = fit_preprocessor([numeric("x", [1.0, 2.0])])
        with pytest.raises(InvalidArgumentError, match="lacks fitted columns"):
            fp.transform([numeric("y", [1.0])])
        with pytest.raises(InvalidArgumentError, match="changed kind"):
            fp.transform([categorical("x", ["1.0"])])

    @pytest.mark.parametrize("column, key, value", [
        ("x", "scaling", "minmax"),
        ("x", "imputation", "none"),
        ("x", "encoding", "onehot"),
        ("c", "imputation", "mean"),
        ("c", "kind", "text"),
    ])
    def test_entry_off_its_kind_rule_is_a_format_error(self, column, key, value):
        doc = fit_preprocessor(self.TABLE).to_dict()
        doc["columns"][column][key] = value
        with pytest.raises(ModelFormatError, match=f"column {column!r}"):
            FittedPreprocessor.from_dict(doc)
