"""Minimal self-contained SVG line plots: axes, ticks, labeled polylines.

The CSV is the artifact of record; these plots exist for quick visual
inspection only, so there is no styling machinery here.
"""

from __future__ import annotations

import math

__all__ = ["line_plot"]

_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

_W, _H = 720, 440
_ML, _MR, _MT, _MB = 64, 16, 34, 48


def _ticks(lo: float, hi: float, n: int = 5):
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / n
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    start = math.ceil(lo / step) * step
    out = []
    t = start
    while t <= hi + 1e-12 * abs(step):
        out.append(0.0 if abs(t) < 1e-12 * step else t)
        t += step
    return out


def _fmt(v: float) -> str:
    return format(v, ".6g")


def line_plot(path, xs, series, title="", ylabel=""):
    """Write a polyline plot against t; ``series`` is a list of
    ``(label, ys)``."""
    xs = [float(v) for v in xs]
    x_lo, x_hi = min(xs), max(xs)
    all_y = [float(v) for _label, ys in series for v in ys if math.isfinite(v)]
    if not all_y:
        all_y = [0.0, 1.0]
    y_lo, y_hi = min(all_y), max(all_y)
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo -= pad
    y_hi += pad

    def px(x):
        return _ML + (x - x_lo) / (x_hi - x_lo) * (_W - _ML - _MR)

    def py(y):
        return _H - _MB - (y - y_lo) / (y_hi - y_lo) * (_H - _MT - _MB)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W / 2}" y="20" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{title}</text>',
    ]
    axis = (f'M {px(x_lo):.2f} {py(y_lo):.2f} H {px(x_hi):.2f} '
            f'M {px(x_lo):.2f} {py(y_lo):.2f} V {py(y_hi):.2f}')
    parts.append(f'<path d="{axis}" stroke="black" fill="none"/>')
    for tx in _ticks(x_lo, x_hi):
        parts.append(f'<line x1="{px(tx):.2f}" y1="{py(y_lo):.2f}" '
                     f'x2="{px(tx):.2f}" y2="{py(y_lo) + 5:.2f}" stroke="black"/>')
        parts.append(f'<text x="{px(tx):.2f}" y="{py(y_lo) + 18:.2f}" '
                     f'text-anchor="middle" font-family="sans-serif" '
                     f'font-size="11">{_fmt(tx)}</text>')
    for ty in _ticks(y_lo, y_hi):
        parts.append(f'<line x1="{px(x_lo) - 5:.2f}" y1="{py(ty):.2f}" '
                     f'x2="{px(x_lo):.2f}" y2="{py(ty):.2f}" stroke="black"/>')
        parts.append(f'<text x="{px(x_lo) - 8:.2f}" y="{py(ty) + 4:.2f}" '
                     f'text-anchor="end" font-family="sans-serif" '
                     f'font-size="11">{_fmt(ty)}</text>')
    parts.append(f'<text x="{(_ML + _W - _MR) / 2}" y="{_H - 10}" '
                 f'text-anchor="middle" font-family="sans-serif" '
                 f'font-size="12">t</text>')
    parts.append(f'<text x="16" y="{(_MT + _H - _MB) / 2}" text-anchor="middle" '
                 f'font-family="sans-serif" font-size="12" '
                 f'transform="rotate(-90 16 {(_MT + _H - _MB) / 2})">{ylabel}</text>')

    for idx, (label, ys) in enumerate(series):
        color = _COLORS[idx % len(_COLORS)]
        pts = " ".join(f"{px(x):.2f},{py(min(max(float(y), y_lo), y_hi)):.2f}"
                       for x, y in zip(xs, ys) if math.isfinite(float(y)))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                     f'stroke-width="1.2"/>')
        lx = _W - _MR - 130
        ly = _MT + 16 * (idx + 1)
        parts.append(f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" y2="{ly - 4}" '
                     f'stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="{lx + 28}" y="{ly}" font-family="sans-serif" '
                     f'font-size="11">{label}</text>')
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(parts) + "\n")
