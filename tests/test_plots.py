import os
import resource
import subprocess
import sys
import tracemalloc
import xml.etree.ElementTree as ET

import numpy as np
import pytest

import simfarm
from simfarm.analysis import plots
from simfarm.analysis.plots import emit_plot, render_scatter
from simfarm.cli import dispatch
from simfarm.tables import ResultTable
from simfarm.errors import InvalidArgumentError
from simfarm.rng import substream


def svg_elements(path, class_name):
    tree = ET.parse(path)
    return [
        el
        for el in tree.iter()
        if el.get("class") == class_name
    ]


class TestScatter:
    def test_point_glyph_count(self, tmp_path):
        g = substream(0, 0)
        path = tmp_path / "scatter.svg"
        emit_plot((g.random(10), g.random(10)), "scatter", path, title="t")
        assert len(svg_elements(path, "pt")) == 10

    def test_axes_title_present(self, tmp_path):
        path = tmp_path / "scatter.svg"
        emit_plot(([1.0, 2.0], [3.0, 4.0]), "scatter", path, title="My Title", xlabel="xs")
        text = path.read_text()
        assert "My Title" in text and "xs" in text
        assert "<line" in text  # axes and ticks
        root = ET.parse(path).getroot()
        assert root.tag.endswith("svg")
        assert root.get("version") == "1.1"

    @pytest.mark.parametrize(
        "x, y",
        [
            (np.full(3, 5e-324), np.array([-1.0, 0.0, 2.5])),  # padding underflows: hi == lo
            (np.array([-3.2e7, -1.0, 4.4e-5, 1e6, 7.25e12]), np.array([1e-9, -2e-6, 3.0, -8e8, 0.5])),
            (np.array([0.1, np.nan, 0.3]), np.array([1.0, 2.0, 3.0])),
            (np.array([0.1, 0.2, 0.3]), np.array([1.0, np.nan, 3.0])),
            (np.array([0.1, np.inf, 0.3]), np.array([1.0, 2.0, 3.0])),
            (np.array([0.1, 0.2, 0.3]), np.array([-np.inf, 2.0, 3.0])),
        ],
    )
    def test_points_match_per_point_loop(self, x, y):
        def loop(x, y):
            cv = plots._Canvas("t", "a", "b")
            xlo, xhi = plots._pad_range(float(x.min()), float(x.max()))
            ylo, yhi = plots._pad_range(float(y.min()), float(y.max()))
            cv.axes(xlo, xhi, ylo, yhi)
            for xi, yi in zip(x, y):
                cv.parts.append(
                    f'<circle class="pt" cx="{plots._fmt(cv.map_x(xi, xlo, xhi))}" '
                    f'cy="{plots._fmt(cv.map_y(yi, ylo, yhi))}" r="2.5" fill="#1f77b4" '
                    'fill-opacity="0.7"/>'
                )
            return "\n".join(cv.parts) + "\n</svg>\n"  # the whole-string writer's join

        if not (np.isfinite(x).all() and np.isfinite(y).all()):
            # a non-finite bound fails in the per-point loop's axis ticks; the renderer
            # rejects the data before drawing anything
            with pytest.raises((ValueError, OverflowError)):
                loop(x, y)
            with pytest.raises(InvalidArgumentError, match="finite"):
                render_scatter(x, y, "t", "a", "b")
            return
        assert render_scatter(x, y, "t", "a", "b") == loop(x, y)

    def test_many_points_match_per_point_loop(self, monkeypatch):
        monkeypatch.setattr(plots, "_SCATTER_BLOCK", 7)  # several blocks and a short last one
        g = substream(4, 0)
        x = g.normal(0, 1, 100) * 10.0 ** g.integers(-6, 8, 100)
        y = g.standard_cauchy(100)
        got = render_scatter(x, y, "t", "a", "b")
        monkeypatch.setattr(plots, "_SCATTER_BLOCK", 1 << 20)
        assert got == render_scatter(x, y, "t", "a", "b")
        assert got.count('<circle class="pt"') == 100

    @pytest.mark.parametrize("seed", range(3))
    def test_points_match_percent_template(self, seed):
        # The "%.6g" row template the byte-matrix spelling replaced, kept as the reference.
        def percent_template(x, y):
            cv = plots._Canvas("t", "a", "b")
            xlo, xhi = plots._pad_range(float(x.min()), float(x.max()))
            ylo, yhi = plots._pad_range(float(y.min()), float(y.max()))
            cv.axes(xlo, xhi, ylo, yhi)
            point = '<circle class="pt" cx="%.6g" cy="%.6g" r="2.5" fill="#1f77b4" fill-opacity="0.7"/>'
            xy = np.stack([cv.map_x(x, xlo, xhi), cv.map_y(y, ylo, yhi)], axis=1)
            for lo in range(0, len(xy), 4096):
                block = xy[lo : lo + 4096]
                cv.parts.append("\n".join([point] * len(block)) % tuple(block.ravel().tolist()))
            return "\n".join(cv.parts) + "\n</svg>\n"  # the whole-string writer's join

        g = substream(seed, 40)
        n = 10_000
        x = [g.normal(0, 1, n) * 10.0 ** g.integers(-8, 9, n),  # every magnitude
             np.round(g.uniform(0, 540, n), 1),  # canvas steps of 0.1 px: many ties
             g.integers(0, 3, n).astype(float)][seed]
        y = [g.standard_cauchy(n), g.uniform(-1, 1, n), np.full(n, 7.0)][seed]
        assert render_scatter(x, y, "t", "a", "b") == percent_template(x, y)

    def test_accepts_n_by_2_matrix(self, tmp_path):
        path = tmp_path / "scatter.svg"
        emit_plot(np.array([[0.0, 1.0], [1.0, 0.0]]), "scatter", path)
        assert len(svg_elements(path, "pt")) == 2

    def test_two_columns_of_two_values_are_x_and_y(self, tmp_path):
        # np.asarray of such a pair is a 2 x 2 matrix, which must not be read as two points
        path = tmp_path / "scatter.svg"
        want = render_scatter([1.0, 2.0], [30.0, 40.0], "", "", "y").encode("utf-8")
        for data in (([1.0, 2.0], [30.0, 40.0]), [[1.0, 2.0], [30.0, 40.0]],
                     (np.array([1.0, 2.0]), np.array([30.0, 40.0])),
                     np.array([[1.0, 30.0], [2.0, 40.0]])):  # an n x 2 array: one point a row
            emit_plot(data, "scatter", path)
            assert path.read_bytes() == want
        assert want != render_scatter([1.0, 30.0], [2.0, 40.0], "", "", "y").encode("utf-8")

    def test_two_point_casestudy_plots_time_of_flight_against_fuel(self, tmp_path):
        out = tmp_path / "cs"
        assert dispatch(["casestudy", "navigation", "--out", str(out), "--n", "2"]) == 0
        results = ResultTable.from_csv(out / "results.csv")
        want = render_scatter(results.column("time_of_flight"), results.column("fuel_consumed"),
                              "Time of flight vs. fuel consumed", "time of flight [s]",
                              "fuel consumed [lb]")
        assert (out / "scatter_time_fuel.svg").read_bytes() == want.encode("utf-8")


class TestHistogram:
    def test_bars_present_and_parseable(self, tmp_path):
        path = tmp_path / "hist.svg"
        emit_plot(substream(1, 0).normal(0, 1, 500), "histogram", path, title="h")
        assert len(svg_elements(path, "bar")) >= 1


class TestHeatmap:
    def test_cell_count_and_legend(self, tmp_path):
        path = tmp_path / "heat.svg"
        emit_plot(np.arange(25.0).reshape(5, 5), "heatmap", path, title="grid")
        assert len(svg_elements(path, "cell")) == 25
        assert len(svg_elements(path, "legend")) > 0


class TestDeterminismAndErrors:
    def test_byte_identical_output(self, tmp_path):
        g1 = substream(2, 0)
        data = (g1.random(50), g1.random(50))
        p1, p2 = tmp_path / "a.svg", tmp_path / "b.svg"
        emit_plot(data, "scatter", p1, title="same")
        emit_plot(data, "scatter", p2, title="same")
        assert p1.read_bytes() == p2.read_bytes()

    def test_empty_data_rejected(self, tmp_path):
        with pytest.raises(InvalidArgumentError):
            emit_plot(([], []), "scatter", tmp_path / "x.svg")
        with pytest.raises(InvalidArgumentError):
            emit_plot([], "histogram", tmp_path / "x.svg")
        with pytest.raises(InvalidArgumentError):
            emit_plot(np.empty((0, 0)), "heatmap", tmp_path / "x.svg")

    @pytest.mark.parametrize(
        "data, kind",
        [
            ([1.0, np.inf, 2.0], "histogram"),
            ([-np.inf, 1.0, np.nan], "histogram"),
            (np.array([[0.0, np.inf], [1.0, 2.0]]), "heatmap"),
            (np.full((2, 3), np.nan), "heatmap"),
        ],
    )
    def test_non_finite_data_rejected(self, tmp_path, data, kind):
        path = tmp_path / "x.svg"
        with pytest.raises(InvalidArgumentError, match="finite"):
            emit_plot(data, kind, path)
        assert not path.exists()

    def test_nan_is_missing_in_histogram_and_heatmap(self, tmp_path):
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        emit_plot([1.0, np.nan, 2.0, 3.0], "histogram", a)
        emit_plot([1.0, 2.0, 3.0], "histogram", b)
        assert a.read_bytes() == b.read_bytes()
        emit_plot(np.array([[0.0, np.nan], [1.0, 2.0]]), "heatmap", a)
        assert len(svg_elements(a, "cell")) == 3

    def test_unknown_kind_rejected(self, tmp_path):
        with pytest.raises(InvalidArgumentError):
            emit_plot([1.0], "sparkline", tmp_path / "x.svg")


class TestStreamedWriter:
    def test_file_bytes_equal_the_rendered_string_in_one_block_or_many(self, tmp_path, monkeypatch):
        g = substream(6, 0)
        x, y = g.normal(0, 1, 100) * 10.0 ** g.integers(-6, 8, 100), g.standard_cauchy(100)
        values = g.normal(0, 1, 500)
        grid = g.normal(0, 1, (9, 11))
        grid[g.random((9, 11)) < 0.2] = np.nan
        title = "\u0394t \u2264 5 & <x>"  # escaped and encoded as UTF-8
        extent = (0.0, 5.0, -1.0, 1.0)
        cases = [
            ((x, y), "scatter", "pt", lambda: render_scatter(x, y, title, "a", "b")),
            (np.stack([x, y], axis=1), "scatter", "pt",
             lambda: render_scatter(x, y, title, "a", "b")),
            (values, "histogram", "bar", lambda: plots.render_histogram(values, title, "a")),
            (grid, "heatmap", "cell", lambda: plots.render_heatmap(grid, title, "a", "b", extent)),
        ]
        path = tmp_path / "plot.svg"
        for data, kind, element, render in cases:
            monkeypatch.setattr(plots, "_SCATTER_BLOCK", 1 << 20)
            whole = render()
            assert whole.count(f'class="{element}"') > 2 * 7
            monkeypatch.setattr(plots, "_SCATTER_BLOCK", 7)  # several blocks and a short last one
            assert render() == whole
            emit_plot(data, kind, path, title=title, xlabel="a", ylabel="b", extent=extent)
            assert path.read_bytes() == whole.encode("utf-8"), kind

    def test_scatter_of_256_000_points_is_written_in_bounded_memory(self, tmp_path):
        g = substream(5, 0)
        n = 256_000
        x, y = g.normal(0, 1, n) * 1e3, g.standard_cauchy(n)
        path = tmp_path / "big.svg"
        tracemalloc.start()
        try:
            emit_plot((x, y), "scatter", path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert path.stat().st_size > 20 << 20  # the whole text is five times the bound
        assert peak < 4 << 20

    @pytest.mark.parametrize(
        "data, kind",
        [
            (([], []), "scatter"),
            (([1.0, np.nan], [1.0, 2.0]), "scatter"),
            (([1.0, 2.0, 3.0], [1.0, 2.0]), "scatter"),
            (np.ones((3, 3)), "scatter"),
            ([], "histogram"),
            ([1.0, np.inf], "histogram"),
            (np.ones(4), "heatmap"),
            (np.full((2, 2), np.nan), "heatmap"),
            ([1.0], "sparkline"),
        ],
    )
    def test_rejected_plot_leaves_an_existing_file_untouched(self, tmp_path, data, kind):
        path = tmp_path / "plot.svg"
        path.write_bytes(b"<svg>earlier plot</svg>\n")
        with pytest.raises(InvalidArgumentError):
            emit_plot(data, kind, path)
        assert path.read_bytes() == b"<svg>earlier plot</svg>\n"


def _limit_child_memory():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


class TestNiceTicks:
    def test_ordinary_ranges(self):
        assert plots._nice_ticks(0.0, 1.0) == [0.0, 0.2, 0.4, 0.6000000000000001, 0.8, 1.0]
        assert plots._nice_ticks(-3.0, 7.0) == [-2.0, 0.0, 2.0, 4.0, 6.0]
        assert plots._nice_ticks(5.0, 5.0) == [5.0]

    ULP_RANGE_STARTS = (2.0, 1.0, 0.1, -3.7, 123456.789, 1e300, -1e300, 1e-300, 7e15)

    def test_ticks_of_a_range_a_few_ulps_wide_stay_inside_it(self):
        for lo in self.ULP_RANGE_STARTS:
            hi = lo
            for _ in range(12):
                hi = float(np.nextafter(hi, np.inf))
                ticks = plots._nice_ticks(lo, hi)
                assert ticks and all(lo <= t <= hi for t in ticks), (lo, hi, ticks)
        assert plots._nice_ticks(2.0, 2.0000000000000004) == [2.0]

    def test_histogram_ticks_of_a_few_ulps_wide_sample_lie_on_the_axis(self):
        x0, x1 = plots._MARGIN_L, plots._WIDTH - plots._MARGIN_R
        tick_y2 = str(plots._HEIGHT - plots._MARGIN_B + 5)
        for lo in self.ULP_RANGE_STARTS:
            hi = lo
            for _ in range(6):
                hi = float(np.nextafter(hi, np.inf))
                svg = plots.render_histogram([lo, hi], "h", "x")
                ticks = [el for el in ET.fromstring(svg).iter("{http://www.w3.org/2000/svg}line")
                         if el.get("y2") == tick_y2]
                assert ticks
                for el in ticks:
                    assert x0 <= float(el.get("x1")) <= x1, (lo, hi, el.attrib)

    def test_subnormal_span_gives_one_tick_and_a_well_formed_svg(self, tmp_path):
        assert plots._nice_ticks(0.0, 5e-324) == [0.0]
        emit_plot([0.0, 5e-324], "histogram", tmp_path / "h.svg")
        ET.parse(tmp_path / "h.svg")
        data = tmp_path / "tiny.csv"
        ResultTable(index=np.arange(3), status=np.ones(3, dtype=bool),
                    columns={"v": np.array([0.0, 5e-324, 0.0])}).to_csv(data)
        code = dispatch(["analyze", "eda", "--data", str(data), "--out", str(tmp_path / "eda.json"),
                         "--svg-dir", str(tmp_path / "svg")])
        assert code == 0
        ET.parse(tmp_path / "svg" / "hist_v.svg")

    # A loop that never ends would grow memory without bound, so the calls run
    # in a child process with an address-space cap and a timeout.
    def test_range_a_few_ulps_wide_terminates(self, tmp_path):
        code = (
            "import numpy as np\n"
            "from simfarm.analysis.plots import _nice_ticks, emit_plot\n"
            "print(len(_nice_ticks(2.0, 2.0000000000000004)))\n"
            "print(len(_nice_ticks(1e300, np.nextafter(1e300, np.inf))))\n"
            f"emit_plot([2.0, 2.0000000000000004], 'histogram', {str(tmp_path / 'h.svg')!r})\n"
        )
        src = os.path.dirname(os.path.dirname(simfarm.__file__))
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            timeout=60,
            preexec_fn=_limit_child_memory,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["1", "1"]
        assert (tmp_path / "h.svg").exists()
