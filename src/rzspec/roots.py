"""Verified roots of oscillatory real functions.

``find_all`` is the one verified-root path: a sign-change scan over a
uniform grid feeds one Newton refiner, on closed-form slopes, kept in the
brackets and run on all of them in lockstep on numpy arrays, and the
number of roots found must equal an exact count that the caller gets
independently.  Nothing here knows about zeta; the zeros of Z, of the
Dirac/Polya spectral functions and the Landau levels all come from
``find_all``; ``bisect`` finds where a monotone condition switches.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import MissedZeroError

__all__ = ["bisect", "find_all", "newton", "scan_grid", "scan_sign_changes"]

NEWTON_XTOL = 1e-10  # a Newton step below this closes its bracket
NEWTON_MAX_ITER = 50


def bisect(right, lo, hi):
    """The last bracket [lo, hi] of 60 bisection steps, each to the right
    half where ``right``, a monotone condition on an array, is True at the
    midpoint.  One call of ``right`` takes the 63 midpoints the next six
    steps may visit, each 0.5 * (lo + hi) of its neighbours in the sorted
    ends, so ten calls give the bits of the one-point loop."""
    for _ in range(10):
        ends, tree = np.array([lo, hi]), []
        for _ in range(6):
            tree.append(0.5 * (ends[:-1] + ends[1:]))
            ends = np.insert(ends, np.arange(1, len(ends)), tree[-1])
        go, i = right(np.concatenate(tree)), 0
        for level in range(6):  # node i of a level has children 2i and 2i + 1
            i = 2 * i + int(go[2 ** level - 1 + i])
        lo, hi = float(ends[i]), float(ends[i + 1])
    return lo, hi


def newton(f, a, b, x0, fa):
    """Roots of f in the brackets [a, b] by lockstep Newton from x0 in them.

    ``f`` maps an array to its values, slopes and value errors, one call
    per iteration on the brackets still open.  Each value cuts its bracket
    on its sign against ``fa`` (f at the left ends), and a step that leaves
    the bracket is replaced by bisection.  A bracket closes when its step
    falls below ``NEWTON_XTOL`` or below its value's error over its slope;
    its root is the point plus that last step.
    """
    a, b, x, left = (np.array(v, dtype=float) for v in (a, b, x0, np.sign(fa)))
    roots, open_ = np.empty(len(x)), np.arange(len(x))
    for _ in range(NEWTON_MAX_ITER):
        if not len(x):
            return roots
        g, dg, err = f(x)
        with np.errstate(divide="ignore", invalid="ignore"):
            nxt = x - g / dg
        done = np.abs(g) <= np.maximum(NEWTON_XTOL * np.abs(dg), err)
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
    """Every root of f between the ends of the grid ts, by one Newton refiner.

    ``f`` maps an array to its values, slopes and value errors; the scan
    takes them at ts from one call, unless ``fs`` gives the values there
    (and ``dfs`` the slopes).  :func:`newton` refines all brackets in
    lockstep, each from the root of the inverse cubic Hermite interpolant
    where the slopes at ts are known, else from the secant's root.
    :class:`MissedZeroError` is raised unless the scan finds exactly
    ``expected`` brackets, the number of roots an exact count gives; a
    scan misses roots in pairs, in one step.
    """
    if fs is None:
        fs, dfs, _ = f(np.asarray(ts, dtype=float))
    a, b, fa, fb = scan_sign_changes(lambda x: f(x)[0], ts, fs)
    if len(a) != expected:
        raise MissedZeroError(
            f"found {len(a)} roots in ({ts[0]:g}, {ts[-1]:g}) but the count gives {expected}")
    s = fa / (fa - fb)
    x0 = a + s * (b - a)
    if dfs is not None:
        # slopes at the bracket ends, interpolated at an end nudged off a root;
        # the secant's root where the Hermite one leaves the bracket
        da, db, h = np.interp(a, ts, dfs), np.interp(b, ts, dfs), fb - fa
        with np.errstate(divide="ignore", invalid="ignore"):
            xh = (((2.0 * s - 3.0) * s * s + 1.0) * a + (3.0 - 2.0 * s) * s * s * b
                  + (s - 1.0) * s * h * ((s - 1.0) / da + s / db))
        x0 = np.where((xh > a) & (xh < b), xh, x0)
    return newton(f, a, b, x0, fa).tolist()
