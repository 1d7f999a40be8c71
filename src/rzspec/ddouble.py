"""Double-double arithmetic on Python floats or numpy arrays.

A value is carried as an unevaluated sum ``hi + lo`` of two float64s
with ``|lo| <= ulp(hi)/2``, giving roughly 31 significant decimal digits.
Only what the Horner evaluation of the Kummer series needs is provided:
Knuth's exact sum, Dekker's split and one complex Horner step on Python
floats or float64 arrays (elementwise, broadcasting like numpy ufuncs),
with the same bits on either, and that step in place on float64 rows.
Complex numbers are carried as two double-double parts.  No FMA is assumed.
"""

from __future__ import annotations

import numpy as np

_SPLITTER = 134217729.0  # 2**27 + 1


def two_sum(a, b):
    s = a + b
    bb = s - a
    err = (a - (s - bb)) + (b - bb)
    return s, err


def split(a):
    """(a, hi, lo) with hi + lo == a, each of hi and lo 26 bits wide."""
    t = _SPLITTER * a
    hi = t - (t - a)
    return a, hi, a - hi


def _two_prod(a, b):
    # Dekker: p + err == a b exactly, from the splits of both factors
    p = a[0] * b[0]
    return p, ((a[1] * b[1] - p) + a[1] * b[2] + a[2] * b[1]) + a[2] * b[2]


def _part(p, m, err, lo_prod, qh, ql):
    # p + m + qh summed exactly, the low-order terms in double, then one
    # exact renormalization
    s, e = two_sum(p, m)
    s, f = two_sum(s, qh)
    return two_sum(s, (e + f) + (err + (lo_prod + ql)))


def horner_step(acc, x_re, x_im, q):
    """One Horner step ``acc * x + q``.

    ``acc`` and ``q`` are complex double-doubles (re_hi, re_lo, im_hi,
    im_lo), x a complex double given as the splits of its parts.  With
    u = 2^-53 the real part errs by at most 12u^2 (|acc_re||x_re| +
    |acc_im||x_im|) + 5u^2 |q_re|, the imaginary part likewise, so the
    result by at most u^2 (17 |acc||x| + 5 |q|): the four products are
    exact, their high parts and q's are summed exactly, and only the six
    additions of the low-order terms round.
    """
    rh, rl, ih, il = acc
    r, i = split(rh), split(ih)
    p1, e1 = _two_prod(r, x_re)
    p2, e2 = _two_prod(i, x_im)
    p3, e3 = _two_prod(r, x_im)
    p4, e4 = _two_prod(i, x_re)
    return (_part(p1, -p2, e1 - e2, rl * x_re[0] - il * x_im[0], q[0], q[1])
            + _part(p3, p4, e3 + e4, rl * x_im[0] + il * x_re[0], q[2], q[3]))


def _two_sum_into(a, b, s, err, t):
    # two_sum(a, b) into the rows s and err, t a scratch row
    np.subtract(np.add(a, b, out=s), a, out=t)
    np.subtract(a, np.subtract(s, t, out=err), out=err)
    np.add(err, np.subtract(b, t, out=t), out=err)


def _two_prod_into(a, b, p, err, t):
    # _two_prod(a, b) into the rows p and err, t a scratch row
    np.subtract(np.multiply(a[1], b[1], out=err), np.multiply(a[0], b[0], out=p), out=err)
    for u, v in ((a[1], b[2]), (a[2], b[1]), (a[2], b[2])):
        np.add(err, np.multiply(u, v, out=t), out=err)


def horner_step_into(acc, x, q, work, n):
    """:func:`horner_step` in place on the first n cells of the float64
    rows ``acc``, ``x`` the six rows of the splits of x's parts, ``work``
    nine scratch rows: horner_step's operations on its operands, so its
    bits, and no array memory allocated."""
    rh, rl, ih, il, lo_re, lo_im, r_lo, i_lo, p1, e1, p3, e3, t = (v[:n] for v in (*acc, *work))
    xr, xi = [v[:n] for v in x[:3]], [v[:n] for v in x[3:]]
    np.subtract(np.multiply(rl, xr[0], out=lo_re), np.multiply(il, xi[0], out=t), out=lo_re)
    np.add(np.multiply(rl, xi[0], out=lo_im), np.multiply(il, xr[0], out=t), out=lo_im)
    for a, hi, lo in ((rh, rl, r_lo), (ih, il, i_lo)):  # split(a), its high part in a's low row
        np.subtract(hi, np.subtract(np.multiply(_SPLITTER, a, out=hi), a, out=lo), out=hi)
        np.subtract(a, hi, out=lo)
    _two_prod_into((rh, rl, r_lo), xr, p1, e1, t)
    _two_prod_into((rh, rl, r_lo), xi, p3, e3, t)
    _two_prod_into((ih, il, i_lo), xi, rh, rl, r_lo)  # p2 and e2 where the split of rh was
    np.subtract(e1, rl, out=e1)
    _two_prod_into((ih, il, i_lo), xr, rl, t, r_lo)  # p4 and e4
    np.add(e3, t, out=e3)
    # _part(p, m, err, lo_prod, qh, ql) of the imaginary, then of the real part, into hi and lo
    for p, m, err, lo_prod, qh, ql, hi, lo in ((p3, rl, e3, lo_im, q[2], q[3], ih, il),
                                               (p1, np.negative(rh, out=rh), e1, lo_re, q[0], q[1], rh, rl)):
        _two_sum_into(p, m, r_lo, i_lo, t)
        _two_sum_into(r_lo, qh, p, m, t)
        np.add(err, np.add(lo_prod, ql, out=lo_prod), out=err)
        _two_sum_into(p, np.add(np.add(i_lo, m, out=i_lo), err, out=i_lo), hi, lo, t)
