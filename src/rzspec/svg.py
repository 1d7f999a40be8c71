"""Dependency-free SVG polyline plots for the CLI figure artifacts.

Deterministic output: fixed canvas, fixed float formatting, no
timestamps.  Good enough for the reproduction figures; not a general
plotting library.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
_W, _H = 720, 440
_ML, _MR, _MT, _MB = 64, 16, 28, 44


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def _ticks(lo: float, hi: float, n: int = 6):
    if not math.isfinite(lo) or not math.isfinite(hi) or hi <= lo:
        return [lo]
    raw = (hi - lo) / n
    mag = 10.0 ** math.floor(math.log10(raw))
    step = min(s * mag for s in (1, 2, 5, 10) if s * mag >= raw)
    t0 = math.ceil(lo / step) * step
    out = []
    t = t0
    while t <= hi + 1e-12 * step:
        out.append(0.0 if abs(t) < 1e-12 * step else t)
        t += step
    return out


def line_plot(path, xs, series, labels=None, title="", x_label="", y_label="",
              y_log=False) -> None:
    """Write an SVG with one polyline per series over common abscissae.

    ``series`` is a list of y-arrays; with ``y_log`` the plot shows
    log10|y| and drops non-finite points.
    """
    xs = np.asarray(xs, dtype=float)
    rows = []
    for ys in series:
        if y_log:
            rows.append(np.array([math.log10(abs(float(y))) if y != 0 and math.isfinite(float(y))
                                  else math.nan for y in ys]))
        else:
            rows.append(np.asarray(ys, dtype=float))
    finite = np.concatenate(rows)
    finite = finite[np.isfinite(finite)]
    if not finite.size or len(xs) < 2:
        raise ValueError("nothing to plot")
    x_lo, x_hi = float(xs.min()), float(xs.max())
    y_lo, y_hi = float(finite.min()), float(finite.max())
    if y_hi == y_lo:
        y_lo, y_hi = y_lo - 1.0, y_hi + 1.0
    pad = 0.04 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    def px(x):
        return _ML + (x - x_lo) / (x_hi - x_lo) * (_W - _ML - _MR)

    def py(y):
        return _H - _MB - (y - y_lo) / (y_hi - y_lo) * (_H - _MT - _MB)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_W}" height="{_H}" viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<rect x="{_ML}" y="{_MT}" width="{_W - _ML - _MR}" '
        f'height="{_H - _MT - _MB}" fill="none" stroke="#333" stroke-width="1"/>',
    ]
    if title:
        parts.append(f'<text x="{_W // 2}" y="18" text-anchor="middle" '
                     f'font-size="13" font-family="sans-serif">{title}</text>')
    for t in _ticks(x_lo, x_hi):
        parts.append(f'<line x1="{_fmt(px(t))}" y1="{_H - _MB}" x2="{_fmt(px(t))}" '
                     f'y2="{_H - _MB + 4}" stroke="#333"/>')
        parts.append(f'<text x="{_fmt(px(t))}" y="{_H - _MB + 16}" text-anchor="middle" '
                     f'font-size="10" font-family="sans-serif">{_fmt(t)}</text>')
    for t in _ticks(y_lo, y_hi):
        parts.append(f'<line x1="{_ML - 4}" y1="{_fmt(py(t))}" x2="{_ML}" '
                     f'y2="{_fmt(py(t))}" stroke="#333"/>')
        parts.append(f'<text x="{_ML - 6}" y="{_fmt(py(t) + 3)}" text-anchor="end" '
                     f'font-size="10" font-family="sans-serif">{_fmt(t)}</text>')
    if x_label:
        parts.append(f'<text x="{_W // 2}" y="{_H - 8}" text-anchor="middle" '
                     f'font-size="11" font-family="sans-serif">{x_label}</text>')
    if y_label:
        label = ("log10|" + y_label + "|") if y_log else y_label
        parts.append(f'<text x="14" y="{_H // 2}" text-anchor="middle" font-size="11" '
                     f'font-family="sans-serif" transform="rotate(-90 14 {_H // 2})">{label}</text>')
    x_px = px(xs).tolist()
    for i, row in enumerate(rows):
        color = _COLORS[i % len(_COLORS)]
        y_px = py(row).tolist()
        # one polyline per run of at least two finite points
        ok = np.concatenate(([False], np.isfinite(row), [False]))
        for lo, hi in np.flatnonzero(ok[1:] != ok[:-1]).reshape(-1, 2).tolist():
            if hi - lo > 1:
                chunk = " ".join(["%.6g,%.6g" % p for p in zip(x_px[lo:hi], y_px[lo:hi])])
                parts.append(f'<polyline points="{chunk}" fill="none" '
                             f'stroke="{color}" stroke-width="1.2"/>')
        if labels:
            parts.append(f'<text x="{_W - _MR - 8}" y="{_MT + 16 + 14 * i}" '
                         f'text-anchor="end" font-size="11" font-family="sans-serif" '
                         f'fill="{color}">{labels[i]}</text>')
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n", encoding="utf-8")
