"""Double-double arithmetic on Python floats or numpy arrays.

A value is carried as an unevaluated sum ``hi + lo`` of two float64s
with ``|lo| <= ulp(hi)/2``, giving roughly 31 significant decimal digits.
Only what the Horner evaluation of the Kummer series needs is provided:
Knuth's exact sum, Dekker's split and one complex Horner step.  Every
function takes Python floats or float64 arrays (elementwise, broadcasting
like numpy ufuncs) and gives the same bits on either; complex numbers
are carried as two double-double parts.  No FMA is assumed.
"""

from __future__ import annotations

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
