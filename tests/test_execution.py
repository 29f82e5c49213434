import stat
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from simfarm.doe import Continuous, FactorSpec, lhs_design
from simfarm.errors import (
    ConfigurationError,
    ContractViolationError,
    CriterionError,
    InvalidArgumentError,
)
from simfarm.execution import (
    DesignChunk,
    SubprocessRunner,
    mean_convergence_criterion,
    run_batches,
)
from simfarm.tables import ResultTable

FACTORS = [FactorSpec("x", Continuous(0.0, 1.0))]


def echo_runner(chunk: DesignChunk) -> ResultTable:
    return ResultTable(
        index=chunk.indices,
        status=np.ones(chunk.n, dtype=bool),
        columns={"x_out": chunk.column("x").astype(float)},
    )


def scripted_criterion(stop_after_chunk: int, chunk_size: int):
    rows_seen = 0

    def criterion(chunk: ResultTable) -> bool:
        nonlocal rows_seen
        rows_seen += chunk.n_rows
        return rows_seen >= stop_after_chunk * chunk_size

    return criterion


class TestRunBatches:
    def test_scripted_stop_after_two_chunks(self):
        design = lhs_design(FACTORS, 1000, seed=1)
        results, report = run_batches(design, echo_runner, scripted_criterion(2, 100), 100)
        assert report.rows_executed == 200
        assert report.chunks_executed == 2
        assert report.stop_reason == "criterion_met"
        assert report.stop_chunk == 2
        assert results.n_rows == 200

    def test_never_stopping_exhausts_design(self):
        design = lhs_design(FACTORS, 1000, seed=1)
        results, report = run_batches(design, echo_runner, lambda chunk: False, 100)
        assert report.rows_executed == 1000
        assert report.stop_reason == "design_exhausted"
        assert report.stop_chunk is None
        assert results.n_rows == 1000

    def test_echo_runner_alignment(self):
        design = lhs_design(FACTORS, 250, seed=3)
        results, report = run_batches(design, echo_runner, None, 100)
        assert np.array_equal(results.index, np.arange(250))
        assert np.array_equal(results.column("x_out"), design.column("x"))
        assert report.chunks_executed == 3  # 100 + 100 + 50

    def test_chunk_accounting_short_final_chunk(self):
        design = lhs_design(FACTORS, 250, seed=3)
        _, report = run_batches(design, echo_runner, None, 100)
        assert report.rows_executed == 250
        assert len(report.chunk_seconds) == report.chunks_executed

    def test_prefix_property(self):
        design = lhs_design(FACTORS, 500, seed=5)
        full, _ = run_batches(design, echo_runner, None, 100)
        stopped, report = run_batches(design, echo_runner, scripted_criterion(2, 100), 100)
        assert report.rows_executed == 200
        assert np.array_equal(stopped.column("x_out"), full.column("x_out")[:200])
        assert np.array_equal(stopped.index, full.index[:200])

    def test_determinism_modulo_timings(self):
        design = lhs_design(FACTORS, 300, seed=9)
        r1, rep1 = run_batches(design, echo_runner, scripted_criterion(2, 100), 100)
        r2, rep2 = run_batches(design, echo_runner, scripted_criterion(2, 100), 100)
        assert np.array_equal(r1.column("x_out"), r2.column("x_out"))
        d1, d2 = rep1.to_dict(), rep2.to_dict()
        d1.pop("chunk_seconds"), d2.pop("chunk_seconds")
        assert d1 == d2

    def test_chunk_size_zero_rejected(self):
        design = lhs_design(FACTORS, 10, seed=0)
        with pytest.raises(InvalidArgumentError):
            run_batches(design, echo_runner, None, 0)

    def test_wrong_row_count_aborts(self):
        def bad(chunk):
            good = echo_runner(chunk)
            return good.take(np.arange(chunk.n - 1))

        design = lhs_design(FACTORS, 20, seed=0)
        with pytest.raises(ContractViolationError):
            run_batches(design, bad, None, 10)

    def test_misaligned_indices_abort(self):
        def bad(chunk):
            good = echo_runner(chunk)
            return ResultTable(
                index=good.index + 1000,
                status=good.status,
                columns=dict(good.columns),
            )

        design = lhs_design(FACTORS, 20, seed=0)
        with pytest.raises(ContractViolationError):
            run_batches(design, bad, None, 10)

    def test_raising_criterion_aborts_with_diagnostic(self):
        def exploding(chunk):
            raise RuntimeError("boom")

        design = lhs_design(FACTORS, 20, seed=0)
        with pytest.raises(CriterionError, match="boom"):
            run_batches(design, echo_runner, exploding, 10)

    def test_failed_rows_do_not_abort(self):
        def partial(chunk):
            status = np.arange(chunk.n) % 2 == 0
            return ResultTable(
                index=chunk.indices,
                status=status,
                columns={"x_out": chunk.column("x").astype(float)},
            )

        design = lhs_design(FACTORS, 30, seed=0)
        results, report = run_batches(design, partial, None, 10)
        assert report.rows_executed == 30
        assert results.ok_mask().sum() == 15

    def test_ten_chunks_concatenate_once(self, monkeypatch):
        calls = []
        concat = ResultTable.concat

        def counting(tables):
            tables = list(tables)
            calls.append(len(tables))
            return concat(tables)

        monkeypatch.setattr(ResultTable, "concat", staticmethod(counting))
        design = lhs_design(FACTORS, 100, seed=2)
        results, report = run_batches(design, echo_runner, lambda chunk: False, 10)
        assert report.chunks_executed == 10
        assert calls == [10]
        assert np.array_equal(results.column("x_out"), design.column("x"))


def ok_table(values, start=0) -> ResultTable:
    n = len(values)
    return ResultTable(
        index=np.arange(start, start + n),
        status=np.ones(n, dtype=bool),
        columns={"m": np.asarray(values, dtype=float)},
    )


class TestMeanConvergence:
    def test_small_relative_change_stops(self):
        crit = mean_convergence_criterion("m", epsilon=0.01)
        assert crit(ok_table([10.0] * 5)) is False
        # m_prev = 10.00, m_now = 10.04: relative change 0.004 < 0.01
        assert crit(ok_table([10.08] * 5, start=5)) is True

    def test_floor_guards_zero_mean(self):
        crit = mean_convergence_criterion("m", epsilon=0.01, floor=1e-9)
        assert crit(ok_table([0.0] * 5)) is False
        assert crit(ok_table([0.2] * 5, start=5)) is False  # m_now = 0.1 against a zero mean

    def test_first_chunk_is_false(self):
        crit = mean_convergence_criterion("m", epsilon=0.5)
        assert crit(ok_table([1.0, 1.0, 1.0])) is False

    def test_failed_rows_excluded_from_mean(self):
        crit = mean_convergence_criterion("m", epsilon=0.01)
        first = ResultTable(
            index=np.arange(4),
            status=np.array([True, True, False, False]),
            columns={"m": np.array([10.0, 10.0, 999.0, 999.0])},
        )
        assert crit(first) is False
        assert crit(ok_table([10.0] * 4, start=4)) is True  # failed 999s never pollute the means

    def test_chunk_without_ok_rows_needs_no_metric_column(self):
        crit = mean_convergence_criterion("m", epsilon=0.01)
        failed = ResultTable(
            index=np.arange(3), status=np.zeros(3, dtype=bool), columns={}
        )
        assert crit(failed) is False  # no ok rows on either side yet
        assert crit(ok_table([10.0] * 3, start=3)) is False  # first chunk with ok rows

    def test_chunk_without_ok_rows_is_not_convergence(self):
        crit = mean_convergence_criterion("m", epsilon=0.01)
        assert crit(ok_table([10.0] * 3)) is False
        failed = ResultTable(
            index=np.arange(3, 6), status=np.zeros(3, dtype=bool), columns={}
        )
        assert crit(failed) is False  # the mean did not move, but nothing new was seen
        assert crit(ok_table([10.0] * 3, start=6)) is True  # the ok rows before it still count

    def test_missing_metric_is_configuration_error(self):
        crit = mean_convergence_criterion("absent", epsilon=0.01)
        design = lhs_design(FACTORS, 20, seed=0)
        with pytest.raises(ConfigurationError, match="absent"):
            run_batches(design, echo_runner, crit, 10)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_metric_on_ok_row_raises(self, bad):
        def runner(chunk):
            m = chunk.column("x").astype(float)
            if chunk.indices[0] == 10:
                m[3] = bad
            status = np.ones(chunk.n, dtype=bool)
            return ResultTable(index=chunk.indices, status=status, columns={"m": m})

        design = lhs_design(FACTORS, 30, seed=0)
        crit = mean_convergence_criterion("m", epsilon=1e-12)
        with pytest.raises(CriterionError, match="after chunk 2: metric 'm' is not finite"):
            run_batches(design, runner, crit, 10)

    def test_bad_parameters_rejected(self):
        with pytest.raises(InvalidArgumentError):
            mean_convergence_criterion("m", epsilon=0.0)
        with pytest.raises(InvalidArgumentError):
            mean_convergence_criterion("m", epsilon=0.1, floor=0.0)

    @given(
        chunk_size=st.integers(1, 6),
        n_chunks=st.integers(1, 10),
        epsilon=st.sampled_from([1e-3, 1e-2, 0.1, 0.5]),
        data=st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_cumulative_mean_replay(self, chunk_size, n_chunks, epsilon, data):
        n = chunk_size * n_chunks
        # means stay >= 1, away from the floor, where rounding barely moves the relative change
        values = np.array(data.draw(st.lists(st.floats(1.0, 200.0), min_size=n, max_size=n)))
        ok = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
        dead = set(data.draw(st.lists(st.integers(0, n_chunks - 1), max_size=n_chunks)))

        def runner(chunk):
            c = int(chunk.indices[0]) // chunk_size
            if c in dead:  # an all-failed chunk, as a failed external command returns it
                status = np.zeros(chunk.n, dtype=bool)
                return ResultTable(index=chunk.indices, status=status, columns={})
            rows_ok = ok[chunk.indices]
            m = np.where(rows_ok, values[chunk.indices], np.nan)
            return ResultTable(index=chunk.indices, status=rows_ok, columns={"m": m})

        live = ok & ~np.isin(np.arange(n) // chunk_size, list(dead))
        expected = None
        for c in range(2, n_chunks + 1):
            now = values[: c * chunk_size][live[: c * chunk_size]]
            prev = values[: (c - 1) * chunk_size][live[: (c - 1) * chunk_size]]
            if now.size == prev.size or prev.size == 0:  # chunk c or all before it had no ok rows
                continue
            m_now, m_prev = float(np.mean(now)), float(np.mean(prev))
            rel = abs(m_now - m_prev) / max(abs(m_prev), 1e-9)
            # running sums and np.mean may differ in the last bit
            assume(abs(rel - epsilon) > 1e-9 * epsilon)
            if rel < epsilon:
                expected = c
                break

        design = lhs_design(FACTORS, n, seed=0)
        crit = mean_convergence_criterion("m", epsilon=epsilon)
        _, report = run_batches(design, runner, crit, chunk_size)
        assert report.stop_chunk == expected


class TestSubprocessRunner:
    @pytest.fixture()
    def doubler_cmd(self, tmp_path):
        script = tmp_path / "doubler.py"
        script.write_text(
            textwrap.dedent(
                """
                import csv, sys

                with open(sys.argv[1]) as fh:
                    rows = list(csv.reader(fh))
                header, body = rows[0], rows[1:]
                xi = header.index("x")
                with open(sys.argv[2], "w", newline="") as fh:
                    w = csv.writer(fh, lineterminator="\\n")
                    w.writerow(["_index", "_status", "doubled"])
                    for row in body:
                        w.writerow([row[0], "ok", float(row[xi]) * 2])
                """
            )
        )
        return [sys.executable, str(script)]

    def test_roundtrip_through_subprocess(self, doubler_cmd):
        design = lhs_design(FACTORS, 25, seed=4)
        results, report = run_batches(design, SubprocessRunner(doubler_cmd), None, 10)
        assert report.rows_executed == 25
        assert np.allclose(results.column("doubled"), design.column("x") * 2)

    @pytest.mark.parametrize("failing_chunk", [0, 1])
    def test_failed_chunk_costs_only_its_rows(self, tmp_path, doubler_cmd, failing_chunk):
        script = tmp_path / "fail_one.py"
        script.write_text(
            textwrap.dedent(
                f"""
                import csv, subprocess, sys

                with open(sys.argv[-2]) as fh:
                    rows = list(csv.reader(fh))
                if int(rows[1][0]) == {failing_chunk * 5}:
                    sys.exit(3)
                sys.exit(subprocess.call({doubler_cmd!r} + sys.argv[-2:]))
                """
            )
        )
        design = lhs_design(FACTORS, 15, seed=4)
        results, report = run_batches(
            design, SubprocessRunner([sys.executable, str(script)]), None, 5
        )
        assert report.rows_executed == 15
        failed = np.arange(failing_chunk * 5, failing_chunk * 5 + 5)
        assert np.array_equal(np.nonzero(~results.ok_mask())[0], failed)
        doubled = results.column("doubled")
        assert np.isnan(doubled[failed]).all()
        ok = results.ok_mask()
        assert np.allclose(doubled[ok], design.column("x")[ok] * 2)

    def test_failed_chunk_does_not_meet_criterion(self, tmp_path, doubler_cmd):
        script = tmp_path / "fail_second.py"
        script.write_text(
            textwrap.dedent(
                f"""
                import csv, subprocess, sys

                with open(sys.argv[-2]) as fh:
                    rows = list(csv.reader(fh))
                if int(rows[1][0]) == 5:
                    sys.exit(3)
                sys.exit(subprocess.call({doubler_cmd!r} + sys.argv[-2:]))
                """
            )
        )
        design = lhs_design(FACTORS, 15, seed=4)
        crit = mean_convergence_criterion("doubled", epsilon=1e-9)
        results, report = run_batches(
            design, SubprocessRunner([sys.executable, str(script)]), crit, 5
        )
        assert report.chunks_executed == 3
        assert report.stop_reason == "design_exhausted"
        assert report.stop_chunk is None
        assert np.array_equal(np.nonzero(~results.ok_mask())[0], np.arange(5, 10))

    def test_nonzero_exit_marks_chunk_failed(self, tmp_path):
        script = tmp_path / "crash.py"
        script.write_text("import sys; sys.exit(3)\n")
        design = lhs_design(FACTORS, 10, seed=4)
        results, report = run_batches(
            design, SubprocessRunner([sys.executable, str(script)]), None, 5
        )
        assert report.rows_executed == 10
        assert not results.ok_mask().any()

    @pytest.mark.parametrize("fault", ["timeout", "garbage", "latin1", "oversized"])
    def test_misbehaving_chunk_costs_only_its_rows(self, tmp_path, fault):
        # Chunk 2 overruns the timeout, writes an output that is no result
        # CSV, writes bytes that are not UTF-8, or writes a cell longer than
        # the csv module's field limit.
        script = tmp_path / "flaky.py"
        output = {
            "latin1": 'b"\\xff\\xfe,\\x80\\n"',
            "oversized": 'b"_index,_status,doubled\\n5,ok," + b"9" * 200_000 + b"\\n"',
        }.get(fault, 'b"garbage,\\n1\\n"')
        script.write_text(
            textwrap.dedent(
                f"""
                import csv, sys, time

                with open(sys.argv[1]) as fh:
                    rows = list(csv.reader(fh))
                if int(rows[1][0]) == 5:
                    if {fault!r} == "timeout":
                        time.sleep(60)
                    with open(sys.argv[2], "wb") as fh:
                        fh.write({output})
                    sys.exit(0)
                with open(sys.argv[2], "w", newline="") as fh:
                    w = csv.writer(fh, lineterminator="\\n")
                    w.writerow(["_index", "_status", "doubled"])
                    for row in rows[1:]:
                        w.writerow([row[0], "ok", float(row[1]) * 2])
                """
            )
        )
        design = lhs_design(FACTORS, 15, seed=4)
        crit = mean_convergence_criterion("doubled", epsilon=1e-9)
        runner = SubprocessRunner([sys.executable, str(script)], timeout=3.0)
        results, report = run_batches(design, runner, crit, 5)
        assert report.chunks_executed == 3
        assert report.stop_reason == "design_exhausted"
        assert np.array_equal(np.nonzero(~results.ok_mask())[0], np.arange(5, 10))
        ok = results.ok_mask()
        assert np.allclose(results.column("doubled")[ok], design.column("x")[ok] * 2)

    def test_misaligned_output_still_aborts(self, tmp_path):
        script = tmp_path / "shifted.py"
        script.write_text(
            "import sys\n"
            "open(sys.argv[2], 'w').write('_index,_status\\n1000,ok\\n')\n"
        )
        design = lhs_design(FACTORS, 3, seed=4)
        runner = SubprocessRunner([sys.executable, str(script)])
        with pytest.raises(ContractViolationError):
            run_batches(design, runner, None, 1)
