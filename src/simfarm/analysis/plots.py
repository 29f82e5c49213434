"""Deterministic SVG 1.1 plot output (scatter, histogram, heatmap).

The writer is self-contained so identical inputs yield byte-identical files:
fixed canvas geometry, fixed number formatting, no timestamps or random ids.
Scatter points are ``<circle class="pt">`` elements, histogram bars and
heatmap cells are ``<rect class="bar">`` / ``<rect class="cell">`` elements,
which also makes the outputs easy to assert on.

Each kind is drawn by one generator of pieces of SVG text: the header (the
prolog, the title and the axes), the elements ``_SCATTER_BLOCK`` at a time,
and the footer.  A block's numbers are spelled by :func:`format_g_cells` and
its rows joined by :func:`join_cell_rows`, without a Python call per element.
:func:`emit_plot` takes the header before it opens the file, so data that is
rejected (empty, non-finite, of the wrong shape) raises before the file is
created or an existing one touched; it then writes each piece as soon as it
exists.  Beside the input arrays, writing a plot therefore holds one block of
text at a time, whatever the number of points.  The ``render_*`` functions
return the same pieces joined.
"""

from __future__ import annotations

import math
import sys
from typing import Callable, Iterator

import numpy as np

from ..errors import InvalidArgumentError
from ..tables import format_g_cells, join_cell_rows
from .eda import fd_bin_count

__all__ = ["emit_plot", "render_scatter", "render_histogram", "render_heatmap"]

_WIDTH, _HEIGHT = 640, 480
_SCATTER_BLOCK = 4096  # elements (points, bars, cells) spelled by one row matrix
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 70, 30, 48, 56
_FOOTER = "\n</svg>\n"

# compact viridis-style gradient anchors (position, r, g, b)
_GRADIENT = np.array([
    (0.0, 68, 1, 84),
    (0.25, 59, 82, 139),
    (0.5, 33, 145, 140),
    (0.75, 94, 201, 98),
    (1.0, 253, 231, 37),
])
_STOPS, _RGB = _GRADIENT[:, 0], _GRADIENT[:, 1:]
_HEX = np.frombuffer(b"".join(b"%02x" % i for i in range(256)), np.uint8).reshape(256, 2)


def _fmt(v: float) -> str:
    return format(float(v), ".6g")


def _colors(v: np.ndarray, lo: float, span: float) -> np.ndarray:
    """``#rrggbb`` of each value's gradient position ``t = (v - lo) / span``,
    clipped to [0, 1], as a byte matrix.

    A channel is ``c0 + w * (c1 - c0)`` on the segment whose upper stop is the
    first at or above ``t``, rounded half to even by ``rint`` as ``round`` does.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # a span of inf: t may be NaN
        t = (v - lo) / span
    t = np.minimum(np.fmax(t, 0.0), 1.0)  # NaN becomes 0, as max(0.0, t) makes it
    seg = np.searchsorted(_STOPS[1:], t)
    w = (t - _STOPS[seg]) / (_STOPS[seg + 1] - _STOPS[seg])
    rgb = np.rint(_RGB[seg] + w[:, None] * (_RGB[seg + 1] - _RGB[seg])).astype(np.intp)
    out = np.empty((len(t), 7), np.uint8)
    out[:, 0] = ord("#")
    out[:, 1:] = _HEX[rgb].reshape(len(t), 6)
    return out


def _nice_ticks(lo: float, hi: float, target: int = 6) -> list[float]:
    if hi <= lo:
        return [lo]
    span = hi - lo
    raw = span / max(1, target)
    if raw < sys.float_info.min:  # a subnormal step has no usable power of ten
        return [lo]
    mag = 10.0 ** math.floor(math.log10(raw))
    step = min((m for m in (1.0, 2.0, 5.0, 10.0)), key=lambda m: abs(m * mag - raw)) * mag
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-12 * span:
        ticks.append(0.0 if abs(t) < step * 1e-9 else t)
        if t + step == t:  # a range a few ulps wide: the step no longer moves t
            break
        t += step
    if ticks and ticks[0] < lo:
        # ceil(lo / step) * step rounds below lo only on a range a few ulps wide.
        ticks[0] = lo
    return ticks


class _Canvas:
    """The fixed frame of a plot; its ``parts`` are the lines of the header."""

    def __init__(self, title: str, xlabel: str, ylabel: str):
        self.parts: list[str] = [
            '<?xml version="1.0" encoding="UTF-8"?>\n'
            f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            f'width="{_WIDTH}" height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">',
            f'<rect x="0" y="0" width="{_WIDTH}" height="{_HEIGHT}" fill="#ffffff"/>',
            f'<text x="{_WIDTH / 2}" y="24" text-anchor="middle" '
            f'font-family="sans-serif" font-size="16">{_escape(title)}</text>',
        ]
        self.xlabel = xlabel
        self.ylabel = ylabel
        self.x0, self.x1 = _MARGIN_L, _WIDTH - _MARGIN_R
        self.y0, self.y1 = _HEIGHT - _MARGIN_B, _MARGIN_T

    def map_x(self, v, lo: float, hi: float):
        """Pixel of ``v``, a value or an array; a range of zero width maps to the middle."""
        if hi == lo:
            return np.full(np.shape(v), 0.5 * (self.x0 + self.x1))[()]
        return self.x0 + (v - lo) / (hi - lo) * (self.x1 - self.x0)

    def map_y(self, v, lo: float, hi: float):
        if hi == lo:
            return np.full(np.shape(v), 0.5 * (self.y0 + self.y1))[()]
        return self.y0 - (v - lo) / (hi - lo) * (self.y0 - self.y1)

    def axes(self, xlo: float, xhi: float, ylo: float, yhi: float) -> None:
        p = self.parts
        p.append(
            f'<line x1="{self.x0}" y1="{self.y0}" x2="{self.x1}" y2="{self.y0}" '
            'stroke="#000000" stroke-width="1"/>'
        )
        p.append(
            f'<line x1="{self.x0}" y1="{self.y0}" x2="{self.x0}" y2="{self.y1}" '
            'stroke="#000000" stroke-width="1"/>'
        )
        for t in _nice_ticks(xlo, xhi):
            px = self.map_x(t, xlo, xhi)
            p.append(
                f'<line x1="{_fmt(px)}" y1="{self.y0}" x2="{_fmt(px)}" y2="{self.y0 + 5}" '
                'stroke="#000000" stroke-width="1"/>'
            )
            p.append(
                f'<text x="{_fmt(px)}" y="{self.y0 + 18}" text-anchor="middle" '
                f'font-family="sans-serif" font-size="11">{_fmt(t)}</text>'
            )
        for t in _nice_ticks(ylo, yhi):
            py = self.map_y(t, ylo, yhi)
            p.append(
                f'<line x1="{self.x0 - 5}" y1="{_fmt(py)}" x2="{self.x0}" y2="{_fmt(py)}" '
                'stroke="#000000" stroke-width="1"/>'
            )
            p.append(
                f'<text x="{self.x0 - 8}" y="{_fmt(py + 4)}" text-anchor="end" '
                f'font-family="sans-serif" font-size="11">{_fmt(t)}</text>'
            )
        p.append(
            f'<text x="{(self.x0 + self.x1) / 2}" y="{_HEIGHT - 14}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="13">{_escape(self.xlabel)}</text>'
        )
        p.append(
            f'<text x="18" y="{(self.y0 + self.y1) / 2}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="13" '
            f'transform="rotate(-90 18 {(self.y0 + self.y1) / 2})">{_escape(self.ylabel)}</text>'
        )

    def header(self) -> str:
        return "\n".join(self.parts)


def _escape(s: str) -> str:
    return s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _pad_range(lo: float, hi: float) -> tuple[float, float]:
    if hi == lo:
        pad = 1.0 if lo == 0 else abs(lo) * 0.05
        return lo - pad, hi + pad
    pad = (hi - lo) * 0.05
    return lo - pad, hi + pad


def _element_pieces(n: int, spell: Callable[[slice], list]) -> Iterator[str]:
    """The rows of ``n`` elements, one piece per ``_SCATTER_BLOCK`` of them.

    ``spell(s)`` gives the parts of the rows of the elements ``s`` (a slice)
    for :func:`join_cell_rows`; each row starts with its line break.
    """
    for lo in range(0, n, _SCATTER_BLOCK):
        yield join_cell_rows(spell(slice(lo, lo + _SCATTER_BLOCK)), min(_SCATTER_BLOCK, n - lo))


def _scatter_pieces(x, y, title: str, xlabel: str, ylabel: str) -> Iterator[str]:
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.size == 0 or x.shape != y.shape:
        raise InvalidArgumentError("scatter needs two equal-length non-empty arrays")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise InvalidArgumentError("scatter needs finite x and y values")
    x, y = x.reshape(-1), y.reshape(-1)
    cv = _Canvas(title, xlabel, ylabel)
    xlo, xhi = _pad_range(float(x.min()), float(x.max()))
    ylo, yhi = _pad_range(float(y.min()), float(y.max()))
    cv.axes(xlo, xhi, ylo, yhi)
    yield cv.header()
    # format_g_cells(v, 6) spells "%.6g" % v, which equals _fmt(v), for every double;
    # map_x and map_y are elementwise, so a block maps to the bits of the whole
    yield from _element_pieces(len(x), lambda s: [
        b'\n<circle class="pt" cx="', format_g_cells(cv.map_x(x[s], xlo, xhi), 6),
        b'" cy="', format_g_cells(cv.map_y(y[s], ylo, yhi), 6),
        b'" r="2.5" fill="#1f77b4" fill-opacity="0.7"/>',
    ])
    yield _FOOTER


def _histogram_pieces(values, title: str, xlabel: str, ylabel: str) -> Iterator[str]:
    x = np.asarray(values, dtype=np.float64)
    x = x[~np.isnan(x)]
    if x.size == 0:
        raise InvalidArgumentError("histogram needs non-empty data")
    if np.isinf(x).any():
        raise InvalidArgumentError("histogram values must be finite (NaN counts as missing)")
    counts, edges = np.histogram(x, bins=fd_bin_count(x))
    cv = _Canvas(title, xlabel, ylabel)
    xlo, xhi = float(edges[0]), float(edges[-1])
    if xhi == xlo:
        xlo, xhi = _pad_range(xlo, xhi)
    ylo, yhi = 0.0, float(counts.max()) * 1.05
    cv.axes(xlo, xhi, ylo, yhi)
    yield cv.header()
    px = cv.map_x(edges, xlo, xhi)
    left, width = px[:-1], np.maximum(np.diff(px) - 1.0, 0.5)
    py = cv.map_y(counts.astype(np.float64), ylo, yhi)
    yield from _element_pieces(len(counts), lambda s: [
        b'\n<rect class="bar" x="', format_g_cells(left[s], 6),
        b'" y="', format_g_cells(py[s], 6),
        b'" width="', format_g_cells(width[s], 6),
        b'" height="', format_g_cells(cv.y0 - py[s], 6),
        b'" fill="#1f77b4" stroke="#ffffff" stroke-width="0.5"/>',
    ])
    yield _FOOTER


def _heatmap_pieces(matrix, title: str, xlabel: str, ylabel: str, extent) -> Iterator[str]:
    grid = np.asarray(matrix, dtype=np.float64)
    if grid.ndim != 2 or grid.size == 0:
        raise InvalidArgumentError("heatmap needs a non-empty 2-D matrix")
    if np.isinf(grid).any() or np.isnan(grid).all():
        raise InvalidArgumentError("heatmap cells must be finite or NaN (skipped), at least one finite")
    rows, cols = grid.shape
    xlo, xhi, ylo, yhi = extent if extent is not None else (0.0, float(cols), 0.0, float(rows))
    vlo, vhi = float(np.nanmin(grid)), float(np.nanmax(grid))
    span = vhi - vlo if vhi > vlo else 1.0
    cv = _Canvas(title, xlabel, ylabel)
    cv.axes(xlo, xhi, ylo, yhi)
    yield cv.header()
    # cell (r, c) spans the column edges c, c + 1 and the row edges r, r + 1
    px = cv.map_x(xlo + np.arange(cols + 1) / cols * (xhi - xlo), xlo, xhi)
    py = cv.map_y(ylo + np.arange(rows + 1) / rows * (yhi - ylo), ylo, yhi)
    col_x, col_w = format_g_cells(px[:-1], 6), format_g_cells(np.diff(px), 6)
    row_y, row_h = format_g_cells(py[1:], 6), format_g_cells(py[:-1] - py[1:], 6)
    values = grid.reshape(-1)
    cells = np.flatnonzero(~np.isnan(values))  # row-major; NaN cells are skipped
    r, c = np.divmod(cells, cols)
    yield from _element_pieces(len(cells), lambda s: [
        b'\n<rect class="cell" x="', col_x[c[s]], b'" y="', row_y[r[s]],
        b'" width="', col_w[c[s]], b'" height="', row_h[r[s]],
        b'" fill="', _colors(values[cells[s]], vlo, span), b'"/>',
    ])
    # color legend: vertical gradient bar with min/max labels
    lx = _WIDTH - _MARGIN_R + 6
    steps = 24
    bar_h = (cv.y0 - cv.y1) / steps
    s = np.arange(steps)
    legend = join_cell_rows([
        f'\n<rect class="legend" x="{lx}" y="'.encode(), format_g_cells(cv.y1 + s * bar_h, 6),
        f'" width="12" height="{_fmt(bar_h + 0.5)}" fill="'.encode(),
        _colors(1.0 - (s + 0.5) / steps, 0.0, 1.0), b'"/>',
    ], steps)
    yield (
        f'{legend}\n<text x="{lx + 14}" y="{cv.y1 + 10}" font-family="sans-serif" '
        f'font-size="10" text-anchor="start">{_fmt(vhi)}</text>'
        f'\n<text x="{lx + 14}" y="{cv.y0}" font-family="sans-serif" '
        f'font-size="10" text-anchor="start">{_fmt(vlo)}</text>'
    )
    yield _FOOTER


def render_scatter(x, y, title: str, xlabel: str, ylabel: str) -> str:
    return "".join(_scatter_pieces(x, y, title, xlabel, ylabel))


def render_histogram(values, title: str, xlabel: str, ylabel: str = "count") -> str:
    return "".join(_histogram_pieces(values, title, xlabel, ylabel))


def render_heatmap(
    matrix,
    title: str,
    xlabel: str,
    ylabel: str,
    extent: tuple[float, float, float, float] | None = None,
) -> str:
    return "".join(_heatmap_pieces(matrix, title, xlabel, ylabel, extent))


def emit_plot(
    data,
    kind: str,
    path,
    title: str = "",
    xlabel: str = "",
    ylabel: str = "",
    extent: tuple[float, float, float, float] | None = None,
) -> None:
    """Write an SVG plot; ``data`` must match ``kind`` (see render_* helpers).

    Scatter data is ``(x, y)`` when it is a tuple or list of two sequences
    (1-D, of equal length); anything else must be an array of shape (n, 2),
    one point a row.  So ``([1, 2], [30, 40])`` is the points (1, 30) and
    (2, 40).  Invalid data raises before ``path`` is opened.
    """
    if kind == "scatter":
        if isinstance(data, (tuple, list)) and len(data) == 2:
            x, y = data
        else:
            arr = np.asarray(data, dtype=np.float64)
            if arr.ndim != 2 or arr.shape[1] != 2:
                raise InvalidArgumentError("scatter data must be (x, y) or an n x 2 matrix")
            x, y = arr[:, 0], arr[:, 1]
        pieces = _scatter_pieces(x, y, title, xlabel, ylabel or "y")
    elif kind == "histogram":
        pieces = _histogram_pieces(data, title, xlabel or "value", "count")
    elif kind == "heatmap":
        pieces = _heatmap_pieces(data, title, xlabel, ylabel, extent)
    else:
        raise InvalidArgumentError(f"unknown plot kind {kind!r}")
    header = next(pieces)  # validates the data
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header)
        fh.writelines(pieces)
