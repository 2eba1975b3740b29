"""Minimal native SVG line plots; no plotting dependency."""

from __future__ import annotations

import math

import numpy as np

from . import textio

_W, _H = 640, 400
_ML, _MR, _MT, _MB = 64, 16, 34, 44
_UNIT = 2048.0  # see _span
_BIG = 1.7976931348623157e308  # the largest float


def _span(lo, hi):
    # (hi - lo) / _UNIT, with the same bits unless a value or the difference
    # lies in (0, 1e-300), and finite for finite values, even times the width
    return hi / _UNIT - lo / _UNIT


def _nice_ticks(lo: float, hi: float) -> list[float]:
    # about 5 ticks, a step of at least 4 float spacings of the values, so that
    # t += step advances; where that passes the largest float, the range grows down
    gap = 20 * math.ulp(max(abs(lo), abs(hi)))
    top = max(hi if hi > lo else lo + 1.0, lo + gap)
    lo, hi = (lo, top) if top < math.inf else (min(lo, hi - gap), max(lo, hi))
    raw = _span(lo, hi) / 5 * _UNIT
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    ticks = []
    t = math.ceil(lo / step) * step
    while t <= min(hi + 1e-12 * step, _BIG):  # t = inf ends it
        ticks.append(0.0 if abs(t) < 1e-12 * step else t)
        t += step
    return ticks


def _fmt(v: float) -> str:
    if v == 0:
        return "0"
    if abs(v) >= 1e4 or abs(v) < 1e-3:
        return f"{v:.2e}"
    return f"{v:.6g}"


def render_line_plot(path, title: str, x, y, xlabel: str = "t") -> None:
    """Single-series SVG line plot with axes, ticks and a zero line."""
    title, xlabel = (s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
                     for s in (title, xlabel))
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    ok = np.isfinite(x) & np.isfinite(y)
    x, y = x[ok], y[ok]
    if len(x) == 0:
        x = np.array([0.0, 1.0])
        y = np.array([0.0, 0.0])
    x_lo, x_hi = float(x.min()), float(x.max())
    y_lo, y_hi = float(y.min()), float(y.max())
    if y_hi == y_lo:  # at least 4 float spacings apart, as in _nice_ticks
        d = max(1.0, 4 * math.ulp(y_lo))
        y_lo, y_hi = y_lo - d, min(y_hi + d, _BIG)
    pad = 0.05 * _UNIT * _span(y_lo, y_hi)
    y_lo, y_hi = max(y_lo - pad, -_BIG), min(y_hi + pad, _BIG)
    pw = _W - _ML - _MR
    ph = _H - _MT - _MB

    def sx(v):
        return _ML + pw * _span(x_lo, v) / (_span(x_lo, x_hi) if x_hi > x_lo else 1 / _UNIT)

    def sy(v):
        return _MT + ph * (1.0 - _span(y_lo, v) / _span(y_lo, y_hi))

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W / 2:.1f}" y="20" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{title}</text>',
    ]
    axis = f'stroke="black" stroke-width="1"'
    parts.append(
        f'<line x1="{_ML}" y1="{_MT + ph}" x2="{_ML + pw}" y2="{_MT + ph}" {axis}/>'
    )
    parts.append(f'<line x1="{_ML}" y1="{_MT}" x2="{_ML}" y2="{_MT + ph}" {axis}/>')
    for t in _nice_ticks(x_lo, x_hi):  # it widens tiny ranges: draw only ticks on the axis
        if not _ML - 0.5 <= (px := sx(t)) <= _ML + pw + 0.5:
            continue
        parts.append(
            f'<line x1="{px:.2f}" y1="{_MT + ph}" x2="{px:.2f}" y2="{_MT + ph + 5}" {axis}/>'
        )
        parts.append(
            f'<text x="{px:.2f}" y="{_MT + ph + 18}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{_fmt(t)}</text>'
        )
    for t in _nice_ticks(y_lo, y_hi):
        if not _MT - 0.5 <= (py := sy(t)) <= _MT + ph + 0.5:
            continue
        parts.append(
            f'<line x1="{_ML - 5}" y1="{py:.2f}" x2="{_ML}" y2="{py:.2f}" {axis}/>'
        )
        parts.append(
            f'<text x="{_ML - 8}" y="{py + 4:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{_fmt(t)}</text>'
        )
    parts.append(
        f'<text x="{_ML + pw / 2:.1f}" y="{_H - 8}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">{xlabel}</text>'
    )
    if y_lo < 0.0 < y_hi:
        zy = sy(0.0)
        parts.append(
            f'<line x1="{_ML}" y1="{zy:.2f}" x2="{_ML + pw}" y2="{zy:.2f}" '
            f'stroke="#bbbbbb" stroke-width="1" stroke-dasharray="4 3"/>'
        )
    pts = textio.format_rows("%.2f,%.2f", sx(x), sy(y), sep=" ")
    parts.append(
        f'<polyline points="{pts}" fill="none" stroke="#1f4e9c" stroke-width="1.2"/>'
    )
    parts.append("</svg>")
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(parts) + "\n")
