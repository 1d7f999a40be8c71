"""Verified roots of oscillatory real functions.

``find_all`` is the one verified-root path: a sign-change scan over a
uniform grid feeds a Brent-style bracketed refiner (Brent 1973), and the
number of roots found is reconciled with an independent count.  Nothing
here knows about zeta; the zeros of Z, of the Dirac/Polya spectral
functions and the Landau levels all come from ``find_all``.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import MissedZeroError

__all__ = ["brent", "find_all", "scan_sign_changes"]

_EPS = 2.220446049250313e-16


def brent(f, a, b, xtol=1e-12, max_iter=200):
    """Root of f in [a, b] by Brent's method; f(a), f(b) must differ in sign."""
    fa, fb = f(a), f(b)
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if fa * fb > 0:
        raise ValueError("brent: interval does not bracket a sign change")
    c, fc = a, fa
    d = e = b - a
    for _ in range(max_iter):
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol = 2.0 * _EPS * abs(b) + 0.5 * xtol
        m = 0.5 * (c - b)
        if abs(m) <= tol or fb == 0.0:
            return b
        if abs(e) < tol or abs(fa) <= abs(fb):
            d = e = m
        else:
            s = fb / fa
            if a == c:
                p = 2.0 * m * s
                q = 1.0 - s
            else:
                q = fa / fc
                r = fb / fc
                p = s * (2.0 * m * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0:
                q = -q
            else:
                p = -p
            if 2.0 * p < min(3.0 * m * q - abs(tol * q), abs(e * q)):
                e = d
                d = p / q
            else:
                d = e = m
        a, fa = b, fb
        b += d if abs(d) > tol else math.copysign(tol, m)
        fb = f(b)
        if (fb > 0) == (fc > 0):
            c, fc = a, fa
            d = e = b - a
    return b


def scan_sign_changes(f, t_min, t_max, step):
    """Brackets (a, b) with f(a)*f(b) < 0 on a uniform grid of the given step.

    ``f`` maps an array to an array and is called once on the whole grid
    t_min + k*step, clipped at t_max.  Grid points that land exactly on a
    root are nudged by step/64, in one more call, so the bracket survives.
    """
    n = max(2, int(math.ceil((t_max - t_min) / step)) + 1)
    ts = np.minimum(t_min + np.arange(n + 1) * step, t_max)
    ts = ts[: np.argmax(ts >= t_max) + 1]
    fs = np.asarray(f(ts), dtype=float)
    hit = np.flatnonzero(fs == 0.0)
    if len(hit):
        ts[hit] += step / 64.0
        fs[hit] = f(ts[hit])
        ts = ts[: np.argmax(ts >= t_max) + 1]  # a nudge past t_max ends the grid
        fs = fs[: len(ts)]
    k = np.flatnonzero(fs[:-1] * fs[1:] < 0)
    return list(zip(ts[k].tolist(), ts[k + 1].tolist()))


def find_all(f, lo, hi, step, expected, slack=0.0):
    """Every root of f in (lo, hi), refined to 1e-10, checked against a count.

    ``f`` takes a float or an array: the scan calls it once on its whole
    grid, Brent on one float at a time.  ``expected`` is the number of
    roots an independent formula predicts; :class:`MissedZeroError` is
    raised when the scan's count differs from it by more than ``slack``
    (0 for an exact count, more for a smooth one).  A sign-change scan
    misses roots only in pairs, inside one step.
    """
    f_scalar = lambda x: float(f(x))
    roots = [brent(f_scalar, a, b, xtol=1e-10)
             for a, b in scan_sign_changes(f, lo, hi, step)]
    if abs(len(roots) - expected) > slack:
        raise MissedZeroError(
            f"found {len(roots)} roots in ({lo:g}, {hi:g}) "
            f"but the count gives {expected:g} (slack {slack:g})")
    return roots
