"""Double-double arithmetic on Python floats or numpy arrays.

A value is carried as an unevaluated sum ``hi + lo`` of two float64s
with ``|lo| <= ulp(hi)/2``, giving roughly 31 significant decimal digits.
Only the handful of operations needed by the confluent-hypergeometric
series are provided.  Every function takes Python floats or float64
arrays (elementwise, broadcasting like numpy ufuncs) and gives the same
bits on either; complex numbers are carried as two double-double parts.

The error-free transformations are the classical ones of Dekker and
Knuth; no FMA is assumed.
"""

from __future__ import annotations

import numpy as np

_SPLITTER = 134217729.0  # 2**27 + 1


def two_sum(a, b):
    s = a + b
    bb = s - a
    err = (a - (s - bb)) + (b - bb)
    return s, err


def quick_two_sum(a, b):
    # requires |a| >= |b| elementwise
    s = a + b
    return s, b - (s - a)


def split(a):
    t = _SPLITTER * a
    hi = t - (t - a)
    return hi, a - hi


def two_prod(a, b):
    p = a * b
    ah, al = split(a)
    bh, bl = split(b)
    err = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    return p, err


def dd_add(xh, xl, yh, yl):
    s, e = two_sum(xh, yh)
    e = e + xl + yl
    return quick_two_sum(s, e)


def dd_neg(xh, xl):
    return -xh, -xl


def dd_mul(xh, xl, yh, yl):
    p, e = two_prod(xh, yh)
    e = e + xh * yl + xl * yh
    return quick_two_sum(p, e)


def dd_mul_d(xh, xl, y):
    p, e = two_prod(xh, y)
    e = e + xl * y
    return quick_two_sum(p, e)


def dd_div(xh, xl, yh, yl):
    q1 = xh / yh
    rh, rl = dd_add(xh, xl, *dd_neg(*dd_mul_d(yh, yl, q1)))
    q2 = (rh + rl) / yh
    return quick_two_sum(q1, q2)


class CDD:
    """Complex double-double: four float64s or float64 arrays
    (re_hi, re_lo, im_hi, im_lo)."""

    __slots__ = ("rh", "rl", "ih", "il")

    def __init__(self, rh, rl, ih, il):
        self.rh, self.rl, self.ih, self.il = rh, rl, ih, il

    @classmethod
    def from_complex(cls, z):
        z = np.asarray(z, dtype=complex)
        zero = np.zeros_like(z.real)
        return cls(z.real.copy(), zero.copy(), z.imag.copy(), zero.copy())

    def to_complex(self):
        return (self.rh + self.rl) + 1j * (self.ih + self.il)

    def add(self, other):
        rh, rl = dd_add(self.rh, self.rl, other.rh, other.rl)
        ih, il = dd_add(self.ih, self.il, other.ih, other.il)
        return CDD(rh, rl, ih, il)

    def mul(self, other):
        ac = dd_mul(self.rh, self.rl, other.rh, other.rl)
        bd = dd_mul(self.ih, self.il, other.ih, other.il)
        ad = dd_mul(self.rh, self.rl, other.ih, other.il)
        bc = dd_mul(self.ih, self.il, other.rh, other.rl)
        rh, rl = dd_add(ac[0], ac[1], -bd[0], -bd[1])
        ih, il = dd_add(ad[0], ad[1], bc[0], bc[1])
        return CDD(rh, rl, ih, il)

    def mul_dc(self, yre, yim):
        # multiply by an exact double-complex (lo parts zero)
        ac = dd_mul_d(self.rh, self.rl, yre)
        bd = dd_mul_d(self.ih, self.il, yim)
        ad = dd_mul_d(self.rh, self.rl, yim)
        bc = dd_mul_d(self.ih, self.il, yre)
        rh, rl = dd_add(ac[0], ac[1], -bd[0], -bd[1])
        ih, il = dd_add(ad[0], ad[1], bc[0], bc[1])
        return CDD(rh, rl, ih, il)

    def div_real(self, yh, yl):
        rh, rl = dd_div(self.rh, self.rl, yh, yl)
        ih, il = dd_div(self.ih, self.il, yh, yl)
        return CDD(rh, rl, ih, il)

    def abs_estimate(self):
        # plain double magnitude; bookkeeping only
        return np.hypot(self.rh, self.ih)
