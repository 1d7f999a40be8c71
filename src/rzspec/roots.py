"""Verified roots of oscillatory real functions.

``find_all`` is the one verified-root path: a sign-change scan over a
uniform grid feeds a Brent-style bracketed refiner (Brent 1973), or a
safeguarded Newton one where the caller gives slopes, that moves all
brackets in lockstep on numpy arrays, and the number of roots found must
equal an exact count that the caller gets independently.  Nothing here
knows about zeta; the zeros of Z, of the Dirac/Polya spectral functions
and the Landau levels all come from ``find_all``.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import MissedZeroError

__all__ = ["brent", "find_all", "newton", "scan_grid", "scan_sign_changes"]

_EPS = 2.220446049250313e-16


def brent(f, a, b, xtol=1e-12, max_iter=200, fa=None, fb=None):
    """Root of f in [a, b] by Brent's method; f(a), f(b) must differ in sign.

    With float ends ``f`` maps a float to a float and the root is a float.
    With arrays of ends every bracket [a_k, b_k] follows Brent's rules in
    lockstep: each iteration makes one call of ``f`` on the array of the
    brackets still open, and the roots come back as an array.  ``fa`` and
    ``fb``, when given, are f at the ends and save those two calls.
    """
    if np.ndim(a) == 0:
        # one bracket: the lockstep code, with f called one float at a time
        f1 = lambda x: np.array([f(float(x[0]))])
        return float(brent(f1, np.array([a], dtype=float), np.array([b], dtype=float), xtol,
                           max_iter, fa, fb)[0])
    a, b = np.array(a, dtype=float), np.array(b, dtype=float)
    fa = np.array(f(a) if fa is None else fa, dtype=float).reshape(a.shape)
    fb = np.array(f(b) if fb is None else fb, dtype=float).reshape(b.shape)
    if np.any(fa * fb > 0):
        raise ValueError("brent: interval does not bracket a sign change")
    roots = np.empty(len(b))
    open_ = np.arange(len(b))  # bracket number of each state entry
    c, fc = a, fa
    d = e = b - a
    for _ in range(max_iter):
        swap = np.abs(fc) < np.abs(fb)
        a, b, c = np.where(swap, b, a), np.where(swap, c, b), np.where(swap, b, c)
        fa, fb, fc = np.where(swap, fb, fa), np.where(swap, fc, fb), np.where(swap, fb, fc)
        tol = 2.0 * _EPS * np.abs(b) + 0.5 * xtol
        m = 0.5 * (c - b)
        done = (np.abs(m) <= tol) | (fb == 0.0)
        roots[open_[done]] = b[done]
        if done.all():
            return roots
        k = ~done
        a, b, c, fa, fb, fc, d, e, tol, m, open_ = (
            v[k] for v in (a, b, c, fa, fb, fc, d, e, tol, m, open_))
        # inverse quadratic interpolation, or the secant where a == c; the
        # step is taken where it stays well inside the bracket, else bisection
        with np.errstate(divide="ignore", invalid="ignore"):
            s = fb / fa
            q, r = fa / fc, fb / fc
            secant = a == c
            p = np.where(secant, 2.0 * m * s, s * (2.0 * m * q * (q - r) - (b - a) * (r - 1.0)))
            q = np.where(secant, 1.0 - s, (q - 1.0) * (r - 1.0) * (s - 1.0))
            q = np.where(p > 0, -q, q)
            p = np.abs(p)
            interp = ((np.abs(e) >= tol) & (np.abs(fa) > np.abs(fb))
                      & (2.0 * p < np.minimum(3.0 * m * q - np.abs(tol * q), np.abs(e * q))))
            d, e = np.where(interp, p / q, m), np.where(interp, d, m)
        a, fa = b, fb
        b = b + np.where(np.abs(d) > tol, d, np.copysign(tol, m))
        fb = np.asarray(f(b), dtype=float)
        flip = (fb > 0) == (fc > 0)
        c, fc = np.where(flip, a, c), np.where(flip, fa, fc)
        d, e = np.where(flip, b - a, d), np.where(flip, b - a, e)
    roots[open_] = b
    return roots


def newton(f, a, b, x0, fa, xtol=1e-10, max_iter=50):
    """Roots of f in the brackets [a, b] by lockstep Newton from x0 in them.

    ``f`` maps an array to its values, slopes and value errors, one call
    per iteration on the brackets still open.  Each value cuts its bracket
    on its sign against ``fa`` (f at the left ends), and a step that leaves
    the bracket is replaced by bisection.  A bracket closes when its step
    falls below ``xtol`` or below its value's error over its slope; its root
    is the point plus that last step.
    """
    a, b, x, left = (np.array(v, dtype=float) for v in (a, b, x0, np.sign(fa)))
    roots, open_ = np.empty(len(x)), np.arange(len(x))
    for _ in range(max_iter):
        if not len(x):
            return roots
        g, dg, err = f(x)
        with np.errstate(divide="ignore", invalid="ignore"):
            nxt = x - g / dg
        done = np.abs(g) <= np.maximum(xtol * np.abs(dg), err)
        right = np.sign(g) == left  # the root lies right of x
        a, b = np.where(right, x, a), np.where(right, b, x)
        inside = (nxt >= a) & (nxt <= b)
        roots[open_[done]] = np.where(inside, nxt, x)[done]
        x = np.where(inside, nxt, 0.5 * (a + b))
        a, b, x, left, open_ = (v[~done] for v in (a, b, x, left, open_))
    roots[open_] = x
    return roots


def scan_grid(lo, hi, step):
    """The scan grid lo + k*step, clipped at hi and ending there."""
    n = max(2, int(math.ceil((hi - lo) / step)) + 1)
    ts = np.minimum(lo + np.arange(n + 1) * step, hi)
    return ts[: np.argmax(ts >= hi) + 1]


def scan_sign_changes(f, ts, fs=None):
    """Brackets [a, b] with f(a)*f(b) < 0 between neighbours of the grid ts.

    ``f`` maps an array to an array and is called once on ts, unless
    ``fs`` gives its values there.  Points exactly on a root move by 1/64
    of the first step, in one more call of ``f``, so the bracket survives.
    Returns the left ends, the right ends, and f at each, as arrays.
    """
    ts = np.array(ts, dtype=float)
    fs = np.array(f(ts) if fs is None else fs, dtype=float)
    hit = np.flatnonzero(fs == 0.0)
    if len(hit):
        hi = ts[-1]
        ts[hit] += (ts[1] - ts[0]) / 64.0
        fs[hit] = f(ts[hit])
        ts = ts[: np.argmax(ts >= hi) + 1]  # a nudge past the end ends the grid
        fs = fs[: len(ts)]
    k = np.flatnonzero(fs[:-1] * fs[1:] < 0)
    return ts[k], ts[k + 1], fs[k], fs[k + 1]


def find_all(f, ts, expected, fs=None, dfs=None):
    """Every root of f between the ends of the grid ts, refined to 1e-10.

    ``f`` maps an array to an array: the scan calls it once on ts unless
    ``fs`` gives its values there, and Brent refines all brackets in
    lockstep, one call per iteration on the brackets still open, from the
    scan's values at the bracket ends.  With ``dfs``, f's slopes at ts
    (and ``fs``), ``f`` gives values, slopes and value errors instead, and
    :func:`newton` refines each bracket from the root of the cubic Hermite
    interpolant of the inverse of f on it.  :class:`MissedZeroError` is
    raised unless the scan finds exactly ``expected`` brackets, the number
    of roots an exact count gives; a scan misses roots in pairs, in one step.
    """
    a, b, fa, fb = scan_sign_changes(f if dfs is None else (lambda x: f(x)[0]), ts, fs)
    if len(a) != expected:
        raise MissedZeroError(
            f"found {len(a)} roots in ({ts[0]:g}, {ts[-1]:g}) but the count gives {expected}")
    if dfs is None:
        return brent(f, a, b, xtol=1e-10, fa=fa, fb=fb).tolist()
    # slopes at the bracket ends, interpolated at an end nudged off a root;
    # the secant's root where the Hermite one leaves the bracket
    da, db, h, s = np.interp(a, ts, dfs), np.interp(b, ts, dfs), fb - fa, fa / (fa - fb)
    with np.errstate(divide="ignore", invalid="ignore"):
        x0 = (((2.0 * s - 3.0) * s * s + 1.0) * a + (3.0 - 2.0 * s) * s * s * b
              + (s - 1.0) * s * h * ((s - 1.0) / da + s / db))
    x0 = np.where((x0 > a) & (x0 < b), x0, a + s * (b - a))
    return newton(f, a, b, x0, fa).tolist()
