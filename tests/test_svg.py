import math
import re

import numpy as np
import pytest

from rzspec import svg


def per_point_polylines(xs, series, y_log=False):
    """The points attribute of every polyline, one svg._fmt call per coordinate."""
    xs = [float(x) for x in xs]
    rows = [[math.log10(abs(float(y))) if y != 0 and math.isfinite(float(y)) else math.nan
             for y in ys] if y_log else
            [float(y) if math.isfinite(float(y)) else math.nan for y in ys]
            for ys in series]
    finite = [v for row in rows for v in row if math.isfinite(v)]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(finite), max(finite)
    if y_hi == y_lo:
        y_lo, y_hi = y_lo - 1.0, y_hi + 1.0
    pad = 0.04 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad
    out = []
    for row in rows:
        chunk = []
        for x, y in zip(xs, row):
            if math.isfinite(y):
                px = svg._ML + (x - x_lo) / (x_hi - x_lo) * (svg._W - svg._ML - svg._MR)
                py = svg._H - svg._MB - (y - y_lo) / (y_hi - y_lo) * (svg._H - svg._MT - svg._MB)
                chunk.append(f"{svg._fmt(px)},{svg._fmt(py)}")
                continue
            if len(chunk) > 1:
                out.append(" ".join(chunk))
            chunk = []
        if len(chunk) > 1:
            out.append(" ".join(chunk))
    return out


SPECIAL = [0, 7, -3, 0.0, -0.0, math.nan, math.inf, -math.inf, 1e-300, 5e-324, 2.5e-310,
           1.0 / 3.0, -2.0, 4, math.nan, 1e-12, 3.0, -math.inf, 0.5, 2]


@pytest.mark.parametrize("y_log", [False, True])
def test_polyline_points_match_per_point_formatting(tmp_path, y_log):
    rng = np.random.default_rng(3)
    xs = np.linspace(-3.0, 17.0, 2001)
    noisy = rng.standard_normal(xs.size) * 10.0 ** rng.integers(-8, 8, xs.size)
    noisy[rng.integers(0, xs.size, 40)] = math.nan
    special = (SPECIAL * 101)[:xs.size]
    series = [np.sin(xs) * np.exp(xs), noisy, special, [int(v) for v in range(xs.size)]]
    svg.line_plot(tmp_path / "p.svg", xs, series, labels=list("abcd"), y_log=y_log)
    got = re.findall(r'points="([^"]*)"', (tmp_path / "p.svg").read_text())
    assert got == per_point_polylines(xs, series, y_log)
