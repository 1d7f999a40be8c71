"""Verified roots of oscillatory real functions.

``find_all`` is the one verified-root path: a sign-change scan over a
uniform grid feeds one Newton refiner, on closed-form slopes, kept in the
brackets and run on all of them in lockstep on numpy arrays, and the
number of roots found must equal an exact count that the caller gets
independently; ``level_roots`` is that scan and count for a phase that
crosses the levels c + k pi.  Nothing here knows about zeta; the zeros of
Z, of the Dirac/Polya spectral functions and the Landau levels all come
from ``find_all``.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import MissedZeroError

__all__ = ["find_all", "level_roots", "newton", "scan_grid", "scan_sign_changes"]

NEWTON_XTOL = 1e-10  # a Newton step below this closes its bracket
NEWTON_MAX_ITER = 50


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


def level_roots(phase, ts, c, turns=()):
    """Every t between the ends of the grid ts where the phase crosses a
    level c + k pi, checked against the number of levels it passes.

    ``phase`` maps an array to its values (principal or continuous), slopes
    and errors.  ``turns``, sorted turning points inside the grid, become
    nodes; on each monotone piece between them every step must move the
    unwrapped phase by (0, pi/2] in the piece's direction s, and each node
    slope but a turn's have the sign s, else :class:`MissedZeroError`.  The
    count sums floor(s (phi_end - c) / pi) - floor(s (phi_start - c) / pi)
    over the pieces (a level at ts[0] is not counted); :func:`find_all`
    refines on asin sin(phi - c), with slope sign(cos(phi - c)) phi'.
    """
    ts = np.insert(ts, np.searchsorted(ts, turns), turns)  # np.union1d would import numpy.ma, 2 MB
    phi, slope, _ = phase(ts)
    up, count = np.unwrap(phi), 0
    ends = np.searchsorted(ts, [ts[0], *turns, ts[-1]])
    for i, j in zip(ends[:-1], ends[1:]):  # the nodes i > 0 and j < len(ts) - 1 are turns
        s = np.sign(up[j] - up[i])
        step, node = s * np.diff(up[i:j + 1]), s * slope[i + (i > 0):j + (j == len(ts) - 1)]
        if not (np.all((step > 0.0) & (step <= 0.5 * math.pi)) and np.all(node > 0.0)):
            raise MissedZeroError(f"the phase moves by {step.min():.3g} .. {step.max():.3g} a step of "
                                  f"{ts[i + 1] - ts[i]:.3g} on ({ts[i]:g}, {ts[j]:g}), node slopes "
                                  f"{node.min():.3g} .. {node.max():.3g}: not within (0, pi/2] and > 0")
        count += int(np.floor(s * (up[j] - c) / math.pi) - np.floor(s * (up[i] - c) / math.pi))

    def fold(phi, slope, err=None):
        return np.arcsin(np.sin(phi - c)), np.copysign(1.0, np.cos(phi - c)) * slope, err
    return find_all(lambda t: fold(*phase(t)), ts, count, *fold(phi, slope)[:2])
