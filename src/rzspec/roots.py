"""Verified roots of oscillatory real functions.

``find_all`` is the one verified-root path: a sign-change scan over a
uniform grid feeds a Brent-style bracketed refiner (Brent 1973) that
moves all brackets in lockstep on numpy arrays, and the number of roots
found is reconciled with an independent count.  Nothing
here knows about zeta; the zeros of Z, of the Dirac/Polya spectral
functions and the Landau levels all come from ``find_all``.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import MissedZeroError

__all__ = ["brent", "find_all", "scan_sign_changes"]

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


def scan_sign_changes(f, t_min, t_max, step):
    """Brackets [a, b] with f(a)*f(b) < 0 on a uniform grid of the given step.

    ``f`` maps an array to an array and is called once on the whole grid
    t_min + k*step, clipped at t_max.  Grid points that land exactly on a
    root are nudged by step/64, in one more call, so the bracket survives.
    Returns four arrays: the left ends, the right ends, and f at each.
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
    return ts[k], ts[k + 1], fs[k], fs[k + 1]


def find_all(f, lo, hi, step, expected, slack=0.0):
    """Every root of f in (lo, hi), refined to 1e-10, checked against a count.

    ``f`` maps an array to an array: the scan calls it once on its whole
    grid, and Brent refines all brackets in lockstep, one call per
    iteration on the brackets still open, starting from the scan's values
    at the bracket ends.  ``expected`` is the number of roots an
    independent formula predicts; :class:`MissedZeroError` is raised when
    the scan's count differs from it by more than ``slack`` (0 for an
    exact count, more for a smooth one).  A sign-change scan misses roots
    only in pairs, inside one step.
    """
    a, b, fa, fb = scan_sign_changes(f, lo, hi, step)
    if abs(len(a) - expected) > slack:
        raise MissedZeroError(
            f"found {len(a)} roots in ({lo:g}, {hi:g}) "
            f"but the count gives {expected:g} (slack {slack:g})")
    return brent(f, a, b, xtol=1e-10, fa=fa, fb=fb).tolist()
