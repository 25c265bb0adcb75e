"""Minimal self-contained SVG line/scatter plots (no plotting dependency)."""

from __future__ import annotations

import math
from html import escape

_WIDTH, _HEIGHT = 800, 560
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 70, 20, 40, 50
_COLORS = ("#1f77b4", "#2ca02c", "#ff7f0e", "#d62728", "#9467bd", "#8c564b")


def _nice_ticks(lo: float, hi: float, n: int = 5):
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / n
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    first = math.ceil(lo / step) * step
    # step >= (hi - lo) / n, so n + 1 ticks reach hi; one more absorbs the rounding of first
    ticks = (first + i * step for i in range(n + 2))
    return [0.0 if abs(v) < 1e-12 * step else v for v in ticks if v <= hi + 1e-9 * step]


def _fmt_tick(v: float) -> str:
    return f"{v:.6g}"


def write_svg(path, series, title="", xlabel="", ylabel="", kinds=None, labels=None):
    """Write one SVG figure.

    series: list of (x_array, y_array); kinds: per-series "line" or "scatter"
    (default "line"); labels: per-series legend text (omitted when None).
    """
    kinds = kinds or ["line"] * len(series)
    xs = [x for x, _ in series for x in x]
    ys = [y for _, y in series for y in y]
    if not xs:
        xs, ys = [0.0, 1.0], [0.0, 1.0]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if x_hi == x_lo:
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
    if y_hi == y_lo:
        y_lo, y_hi = y_lo - 0.5, y_hi + 0.5
    pad_y = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad_y, y_hi + pad_y

    pw = _WIDTH - _MARGIN_L - _MARGIN_R
    ph = _HEIGHT - _MARGIN_T - _MARGIN_B

    def sx(v):
        return _MARGIN_L + (v - x_lo) / (x_hi - x_lo) * pw

    def sy(v):
        return _MARGIN_T + ph - (v - y_lo) / (y_hi - y_lo) * ph

    out = []
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}" font-family="sans-serif" font-size="13">'
    )
    out.append(f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>')
    out.append(
        f'<rect x="{_MARGIN_L}" y="{_MARGIN_T}" width="{pw}" height="{ph}" '
        'fill="none" stroke="black" stroke-width="1"/>'
    )
    if title:
        out.append(
            f'<text x="{_WIDTH / 2:.1f}" y="{_MARGIN_T - 14}" text-anchor="middle" '
            f'font-size="16">{escape(title, quote=False)}</text>'
        )
    for v in _nice_ticks(x_lo, x_hi):
        px = sx(v)
        out.append(
            f'<line x1="{px:.2f}" y1="{_MARGIN_T + ph}" x2="{px:.2f}" '
            f'y2="{_MARGIN_T + ph + 5}" stroke="black"/>'
        )
        out.append(
            f'<text x="{px:.2f}" y="{_MARGIN_T + ph + 20}" text-anchor="middle">'
            f"{_fmt_tick(v)}</text>"
        )
    for v in _nice_ticks(y_lo, y_hi):
        py = sy(v)
        out.append(
            f'<line x1="{_MARGIN_L - 5}" y1="{py:.2f}" x2="{_MARGIN_L}" '
            f'y2="{py:.2f}" stroke="black"/>'
        )
        out.append(
            f'<text x="{_MARGIN_L - 8}" y="{py + 4:.2f}" text-anchor="end">'
            f"{_fmt_tick(v)}</text>"
        )
    if xlabel:
        out.append(
            f'<text x="{_MARGIN_L + pw / 2:.1f}" y="{_HEIGHT - 10}" '
            f'text-anchor="middle">{escape(xlabel, quote=False)}</text>'
        )
    if ylabel:
        cy = _MARGIN_T + ph / 2
        out.append(
            f'<text x="18" y="{cy:.1f}" text-anchor="middle" '
            f'transform="rotate(-90 18 {cy:.1f})">{escape(ylabel, quote=False)}</text>'
        )
    for idx, ((x, y), kind) in enumerate(zip(series, kinds)):
        color = _COLORS[idx % len(_COLORS)]
        if kind == "scatter":
            pts = "".join(
                f'<circle cx="{sx(xi):.2f}" cy="{sy(yi):.2f}" r="1.5" fill="{color}"/>'
                for xi, yi in zip(x, y)
            )
            out.append(pts)
        else:
            coords = " ".join(f"{sx(xi):.2f},{sy(yi):.2f}" for xi, yi in zip(x, y))
            out.append(
                f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.2"/>'
            )
        if labels and labels[idx]:
            ly = _MARGIN_T + 18 + 18 * idx
            out.append(
                f'<line x1="{_MARGIN_L + pw - 120}" y1="{ly - 4}" x2="{_MARGIN_L + pw - 95}" '
                f'y2="{ly - 4}" stroke="{color}" stroke-width="2"/>'
            )
            out.append(f'<text x="{_MARGIN_L + pw - 88}" y="{ly}">{escape(labels[idx], quote=False)}</text>')
    out.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(out) + "\n")
