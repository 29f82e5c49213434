import xml.etree.ElementTree as ET

import numpy as np
import pytest

from simfarm.analysis import plots
from simfarm.analysis.plots import emit_plot, render_scatter
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
            return cv.finish()

        if np.isnan(x).any() or np.isnan(y).any():
            # a NaN bound fails in the axis ticks before any point is placed, as before
            with pytest.raises(ValueError):
                loop(x, y)
            with pytest.raises(ValueError):
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

    def test_accepts_n_by_2_matrix(self, tmp_path):
        path = tmp_path / "scatter.svg"
        emit_plot(np.array([[0.0, 1.0], [1.0, 0.0]]), "scatter", path)
        assert len(svg_elements(path, "pt")) == 2


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

    def test_unknown_kind_rejected(self, tmp_path):
        with pytest.raises(InvalidArgumentError):
            emit_plot([1.0], "sparkline", tmp_path / "x.svg")
