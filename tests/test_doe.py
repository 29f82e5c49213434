import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simfarm.doe import (
    Boolean,
    Categorical,
    Continuous,
    FactorSpec,
    Integer,
    lhs_design,
    load_factors,
    dump_factors,
    read_design,
    validate_design,
    write_design,
)
from simfarm.errors import DomainError, InvalidArgumentError, ParseError

MIXED = [
    FactorSpec("x", Continuous(0.0, 1.0)),
    FactorSpec("count", Integer(1, 6)),
    FactorSpec("mode", Categorical(("A", "B", "C"))),
    FactorSpec("flag", Boolean()),
]


def stratum_indices(values, lo, hi, n):
    return np.floor((np.asarray(values) - lo) / (hi - lo) * n).astype(int)


class TestLhsDesign:
    def test_four_strata_exact(self):
        d = lhs_design([FactorSpec("x", Continuous(0.0, 1.0))], 4, seed=42)
        assert sorted(stratum_indices(d.column("x"), 0, 1, 4)) == [0, 1, 2, 3]

    @pytest.mark.parametrize("n", [10, 100, 1000])
    def test_marginal_stratification(self, n):
        d = lhs_design(MIXED, n, seed=9)
        idx = stratum_indices(d.column("x"), 0.0, 1.0, n)
        assert sorted(idx) == list(range(n))

    def test_categorical_balanced_six(self):
        d = lhs_design([FactorSpec("c", Categorical(("A", "B", "C")))], 6, seed=1)
        values = list(d.column("c"))
        assert all(values.count(level) == 2 for level in "ABC")

    @given(st.integers(min_value=1, max_value=200), st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=40, deadline=None)
    def test_categorical_balance_within_one(self, n, seed):
        d = lhs_design(MIXED, n, seed=seed)
        for name, levels in [("mode", ["A", "B", "C"]), ("flag", [False, True])]:
            values = list(d.column(name))
            counts = [values.count(lv) for lv in levels]
            assert max(counts) - min(counts) <= 1

    def test_integer_covers_all_values(self):
        d = lhs_design([FactorSpec("n", Integer(1, 6))], 6, seed=3)
        assert sorted(d.column("n")) == [1, 2, 3, 4, 5, 6]

    def test_integer_in_domain(self):
        d = lhs_design([FactorSpec("n", Integer(-3, 11))], 500, seed=8)
        col = d.column("n")
        assert col.min() >= -3 and col.max() <= 11

    def test_paper_scale_shape(self):
        factors = [FactorSpec(f"f{i}", Continuous(0.0, 1.0)) for i in range(7)]
        d = lhs_design(factors, 3729, seed=0)
        assert d.n == 3729 and d.k == 7
        assert validate_design(d).ok

    def test_determinism_byte_identical(self, tmp_path):
        paths = []
        for run in range(2):
            p = tmp_path / f"d{run}.csv"
            write_design(lhs_design(MIXED, 50, seed=77), p)
            paths.append(p.read_bytes())
        assert paths[0] == paths[1]

    def test_seed_changes_design(self):
        a = lhs_design(MIXED, 50, seed=1)
        b = lhs_design(MIXED, 50, seed=2)
        assert not np.array_equal(a.column("x"), b.column("x"))

    def test_adding_factor_keeps_earlier_columns(self):
        base = lhs_design(MIXED[:2], 64, seed=5)
        wider = lhs_design(MIXED, 64, seed=5)
        assert np.array_equal(base.column("x"), wider.column("x"))
        assert np.array_equal(base.column("count"), wider.column("count"))

    def test_n_zero_rejected(self):
        with pytest.raises(InvalidArgumentError):
            lhs_design(MIXED, 0, seed=1)

    def test_invalid_factor_names_offender(self):
        bad = [FactorSpec("speed", Continuous(5.0, 5.0))]
        with pytest.raises(DomainError, match="speed"):
            lhs_design(bad, 3, seed=1)

    def test_duplicate_names_rejected(self):
        dup = [FactorSpec("x", Continuous(0, 1)), FactorSpec("x", Boolean())]
        with pytest.raises(DomainError, match="duplicate"):
            lhs_design(dup, 3, seed=1)

    def test_duplicate_levels_rejected(self):
        with pytest.raises(DomainError):
            lhs_design([FactorSpec("c", Categorical(("A", "A")))], 3, seed=1)


class TestValidateDesign:
    def test_generated_design_ok(self):
        assert validate_design(lhs_design(MIXED, 30, seed=2)).ok

    def test_out_of_range_cell_reported(self):
        d = lhs_design([FactorSpec("x", Continuous(0.0, 1.0))], 5, seed=0)
        d.column("x")[3] = 1.5
        report = validate_design(d)
        assert not report.ok
        assert (3, "x") in [(row, name) for row, name, _ in report.violations]

    def test_unknown_level_reported(self):
        d = lhs_design([FactorSpec("c", Categorical(("A", "B", "C")))], 4, seed=0)
        d.column("c")[1] = "D"
        report = validate_design(d)
        assert not report.ok
        row, name, message = report.violations[0]
        assert (row, name) == (1, "c") and "D" in message


class TestDesignIo:
    def test_roundtrip_identity(self, tmp_path):
        d = lhs_design(MIXED, 40, seed=11)
        path = tmp_path / "design.csv"
        write_design(d, path)
        back = read_design(path, MIXED)
        assert back == d

    def test_boolean_tokens(self, tmp_path):
        d = lhs_design([FactorSpec("flag", Boolean())], 4, seed=0)
        path = tmp_path / "design.csv"
        write_design(d, path)
        body = path.read_text().splitlines()[1:]
        assert set(body) <= {"true", "false"}

    def test_missing_header_is_line_one_error(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ParseError) as err:
            read_design(path, MIXED)
        assert err.value.line == 1

    def test_wrong_header_is_line_one_error(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ParseError) as err:
            read_design(path, MIXED)
        assert err.value.line == 1

    def test_column_count_mismatch_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x\n0.5\n0.25,9\n")
        with pytest.raises(ParseError) as err:
            read_design(path, [FactorSpec("x", Continuous(0, 1))])
        assert err.value.line == 3

    def test_unparsable_cell_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x\n0.5\nnope\n")
        with pytest.raises(ParseError) as err:
            read_design(path, [FactorSpec("x", Continuous(0, 1))])
        assert err.value.line == 3

    def test_over_limit_cell_is_parse_error(self, tmp_path):
        path = tmp_path / "big.csv"
        path.write_text("x\n0.5\n0." + "1" * 200_000 + "\n")
        with pytest.raises(ParseError, match="field larger than field limit") as err:
            read_design(path, [FactorSpec("x", Continuous(0, 1))])
        assert err.value.line == 3


class TestRfc4180Quoting:
    def test_levels_with_commas_and_quotes_roundtrip(self, tmp_path):
        factors = [
            FactorSpec("c", Categorical(('plain', 'with,comma', 'with"quote', "with\nnewline"))),
            FactorSpec("x", Continuous(0.0, 1.0)),
        ]
        d = lhs_design(factors, 8, seed=5)
        path = tmp_path / "design.csv"
        write_design(d, path)
        back = read_design(path, factors)
        assert back == d


class TestFactorDocuments:
    def test_roundtrip(self):
        doc = dump_factors(MIXED)
        assert load_factors(doc) == MIXED

    def test_unknown_kind_rejected(self):
        with pytest.raises(DomainError):
            load_factors({"factors": [{"name": "x", "kind": "gaussian"}]})
