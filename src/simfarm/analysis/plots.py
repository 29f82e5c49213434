"""Deterministic SVG 1.1 plot output (scatter, histogram, heatmap).

The writer is self-contained so identical inputs yield byte-identical files:
fixed canvas geometry, fixed number formatting, no timestamps or random ids.
Scatter points are ``<circle class="pt">`` elements, histogram bars and
heatmap cells are ``<rect class="bar">`` / ``<rect class="cell">`` elements,
which also makes the outputs easy to assert on.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from ..errors import InvalidArgumentError
from ..tables import format_g_cells, join_cell_rows
from .eda import fd_bin_count

__all__ = ["emit_plot", "render_scatter", "render_histogram", "render_heatmap"]

_WIDTH, _HEIGHT = 640, 480
_SCATTER_BLOCK = 4096  # points spelled by one row matrix
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 70, 30, 48, 56

# compact viridis-style gradient anchors (position, r, g, b)
_GRADIENT = (
    (0.0, 68, 1, 84),
    (0.25, 59, 82, 139),
    (0.5, 33, 145, 140),
    (0.75, 94, 201, 98),
    (1.0, 253, 231, 37),
)


def _fmt(v: float) -> str:
    return format(float(v), ".6g")


def _color(t: float) -> str:
    t = min(1.0, max(0.0, t))
    for (p0, r0, g0, b0), (p1, r1, g1, b1) in zip(_GRADIENT, _GRADIENT[1:]):
        if t <= p1:
            w = 0.0 if p1 == p0 else (t - p0) / (p1 - p0)
            r = round(r0 + w * (r1 - r0))
            g = round(g0 + w * (g1 - g0))
            b = round(b0 + w * (b1 - b0))
            return f"#{r:02x}{g:02x}{b:02x}"
    return "#fde725"


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

    def finish(self) -> str:
        return "\n".join(self.parts) + "\n</svg>\n"


def _escape(s: str) -> str:
    return s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _pad_range(lo: float, hi: float) -> tuple[float, float]:
    if hi == lo:
        pad = 1.0 if lo == 0 else abs(lo) * 0.05
        return lo - pad, hi + pad
    pad = (hi - lo) * 0.05
    return lo - pad, hi + pad


def render_scatter(x, y, title: str, xlabel: str, ylabel: str) -> str:
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.size == 0 or x.shape != y.shape:
        raise InvalidArgumentError("scatter needs two equal-length non-empty arrays")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise InvalidArgumentError("scatter needs finite x and y values")
    cv = _Canvas(title, xlabel, ylabel)
    xlo, xhi = _pad_range(float(x.min()), float(x.max()))
    ylo, yhi = _pad_range(float(y.min()), float(y.max()))
    cv.axes(xlo, xhi, ylo, yhi)
    cx, cy = cv.map_x(x, xlo, xhi).ravel(), cv.map_y(y, ylo, yhi).ravel()
    # format_g_cells(v, 6) spells "%.6g" % v, which equals _fmt(v), for every double
    for lo in range(0, len(cx), _SCATTER_BLOCK):
        parts = [b'<circle class="pt" cx="', format_g_cells(cx[lo : lo + _SCATTER_BLOCK], 6),
                 b'" cy="', format_g_cells(cy[lo : lo + _SCATTER_BLOCK], 6),
                 b'" r="2.5" fill="#1f77b4" fill-opacity="0.7"/>\n']
        cv.parts.append(join_cell_rows(parts, len(parts[1]))[:-1])
    return cv.finish()


def render_histogram(values, title: str, xlabel: str, ylabel: str = "count") -> str:
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
    for c, e0, e1 in zip(counts, edges, edges[1:]):
        px0 = cv.map_x(float(e0), xlo, xhi)
        px1 = cv.map_x(float(e1), xlo, xhi)
        py = cv.map_y(float(c), ylo, yhi)
        cv.parts.append(
            f'<rect class="bar" x="{_fmt(px0)}" y="{_fmt(py)}" '
            f'width="{_fmt(max(px1 - px0 - 1.0, 0.5))}" height="{_fmt(cv.y0 - py)}" '
            'fill="#1f77b4" stroke="#ffffff" stroke-width="0.5"/>'
        )
    return cv.finish()


def render_heatmap(
    matrix,
    title: str,
    xlabel: str,
    ylabel: str,
    extent: tuple[float, float, float, float] | None = None,
) -> str:
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
    for r in range(rows):
        for c in range(cols):
            v = grid[r, c]
            if math.isnan(v):
                continue
            px0 = cv.map_x(xlo + c / cols * (xhi - xlo), xlo, xhi)
            px1 = cv.map_x(xlo + (c + 1) / cols * (xhi - xlo), xlo, xhi)
            py0 = cv.map_y(ylo + r / rows * (yhi - ylo), ylo, yhi)
            py1 = cv.map_y(ylo + (r + 1) / rows * (yhi - ylo), ylo, yhi)
            cv.parts.append(
                f'<rect class="cell" x="{_fmt(px0)}" y="{_fmt(py1)}" '
                f'width="{_fmt(px1 - px0)}" height="{_fmt(py0 - py1)}" '
                f'fill="{_color((float(v) - vlo) / span)}"/>'
            )
    # color legend: vertical gradient bar with min/max labels
    lx = _WIDTH - _MARGIN_R + 6
    steps = 24
    bar_h = (cv.y0 - cv.y1) / steps
    for s in range(steps):
        t = 1.0 - (s + 0.5) / steps
        cv.parts.append(
            f'<rect class="legend" x="{lx}" y="{_fmt(cv.y1 + s * bar_h)}" '
            f'width="12" height="{_fmt(bar_h + 0.5)}" fill="{_color(t)}"/>'
        )
    cv.parts.append(
        f'<text x="{lx + 14}" y="{cv.y1 + 10}" font-family="sans-serif" '
        f'font-size="10" text-anchor="start">{_fmt(vhi)}</text>'
    )
    cv.parts.append(
        f'<text x="{lx + 14}" y="{cv.y0}" font-family="sans-serif" '
        f'font-size="10" text-anchor="start">{_fmt(vlo)}</text>'
    )
    return cv.finish()


def emit_plot(
    data,
    kind: str,
    path,
    title: str = "",
    xlabel: str = "",
    ylabel: str = "",
    extent: tuple[float, float, float, float] | None = None,
) -> None:
    """Write an SVG plot; ``data`` must match ``kind`` (see render_* helpers)."""
    if kind == "scatter":
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim == 2 and arr.shape[1] == 2:
            x, y = arr[:, 0], arr[:, 1]
        elif isinstance(data, (tuple, list)) and len(data) == 2:
            x, y = data
        else:
            raise InvalidArgumentError("scatter data must be (x, y) or an n x 2 matrix")
        svg = render_scatter(x, y, title, xlabel, ylabel or "y")
    elif kind == "histogram":
        svg = render_histogram(data, title, xlabel or "value")
    elif kind == "heatmap":
        svg = render_heatmap(data, title, xlabel, ylabel, extent=extent)
    else:
        raise InvalidArgumentError(f"unknown plot kind {kind!r}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(svg)
