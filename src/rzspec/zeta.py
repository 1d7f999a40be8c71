"""Riemann zeta on and off the critical line, and the zero machinery.

Every value that is returned or refined comes from Euler-Maclaurin on Re s >= 0,

    zeta(s) = sum_{n<N} n^-s + N^-s/2 + N^(1-s)/(s-1)
              + sum_k B_2k/(2k)! * (s)_(2k-1) * N^(-s-2k+1),

with N chosen so the correction series converges at better than 1e-17
for |Im s| up to a few thousand; the functional equation continues it to
Re s < 0.  One kernel evaluates an array of points, point by point: its
main sum takes one complex exp per point and n, and a derivative order
per column multiplies each term n^-s by (-log n)^m (Johansson 2015).  It
sums along n by numpy's pairwise sum, not BLAS, whose order varies with
the machine, so the artifacts keep their bits.  On top of the evaluator
sit the Riemann-Siegel theta, the Hardy Z function, zeta', zeta'' and Z'
from closed-form derivatives of each Euler-Maclaurin term, the branch
tracker for Im log zeta(1/2 + it), the zero finder (Newton on Z and Z'),
and a persistent database of zero records.  zeta, theta_rs and z_function
run a number as an array.  Only the scan and plot grids of Z take
Riemann-Siegel from t = 50 up, and Euler-Maclaurin below it and again
where its error bound leaves the sign of a value open.  One builder,
:func:`extend_database`, makes and extends tables: a computed table's height
is a multiple of 0.05, its records depend on that height alone, not on the
appends that reached it, and an append counts each height once.
"""

from __future__ import annotations

import cmath
import functools
import json
import logging
import math
import os
import threading
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

_log = logging.getLogger(__name__)

from .errors import (
    ConsistencyError,
    FormatError,
    MonotonicityError,
    PoleError,
    ToleranceNotMet,
)
from .roots import find_all
from .specfun import _digamma_right, _log_sin_pi_array, _number_or_array, log_gamma

__all__ = [
    "zeta",
    "theta_rs",
    "z_function",
    "z_prime",
    "zeta_prime",
    "zeta_second_prime",
    "im_log_zeta_half",
    "find_zeros",
    "extend_database",
    "zeta_prime_at_zero",
    "ZeroRecord",
    "ZeroDatabase",
    "ingest_zeros",
    "persist_zeros",
]

T_BUDGET = 500.0          # zero-scan budget for computed (not ingested) zeros
ZETA_T_BUDGET = 1e4       # |Im s| past it is refused: a 512-point main-sum block there is 32 MB
ZERO_GRID_STEP = 0.05     # safely below the minimal zero gap at desk scale


def _bernoulli_over_factorial(count):
    # B_2k/(2k)! for k = 1..count, each correctly rounded, from the integer
    # tangent numbers T_(2k-1) (Brent and Harvey 2011):
    # B_2k = (-1)^(k-1) 2k T_(2k-1) / (4^k (4^k - 1)); int / int rounds correctly
    tan = [0, 1] + [0] * (count - 1)
    for k in range(2, count + 1):
        tan[k] = (k - 1) * tan[k - 1]
    for k in range(2, count + 1):
        for j in range(k, count + 1):
            tan[j] = (j - k) * tan[j - 1] + (j - k + 2) * tan[j]
    return [(-1) ** (k - 1) * 2 * k * tan[k] / (4 ** k * (4 ** k - 1) * math.factorial(2 * k))
            for k in range(1, count + 1)]


_EM_COEF = _bernoulli_over_factorial(30)
_ZETA_BLOCK = 512  # points per main-sum block; its 512 x N temporary is 1.7 MB at t = 500


def _zeta_em_array(s: np.ndarray, order=None) -> np.ndarray:
    # zeta(s) on a 1-d array with Re s >= 0; with order, zeta^(m_j)(s[b]) as a (B, J) array, order
    # m_j in {0, 1, 2} per column.  Point b takes the cutoff N of its |s|; points sharing N run a
    # block at a time; a point leaves the correction's arrays once its series stops.
    deriv = order is not None
    width = len(order) if deriv else 1
    shape = (len(s), width) if deriv else s.shape
    if not s.size:
        return np.empty(shape, dtype=complex)
    if np.abs(s.imag).max() > ZETA_T_BUDGET:
        raise ToleranceNotMet(f"|Im s| past the Euler-Maclaurin height budget {ZETA_T_BUDGET:g}")
    n_pt = np.maximum(18, ((np.abs(s) + 55.0) / 2.6).astype(np.int64) + 1)
    log_n = np.log(np.arange(1, n_pt.max()))
    if deriv:  # (-log n)^m, contiguous (J, n): a transposed view rounds the product differently
        table = np.ascontiguousarray(np.power.outer(-log_n, order).T, dtype=complex)
    acc = np.empty(shape, dtype=complex)
    by_n = np.argsort(n_pt, kind="stable")
    rows = _ZETA_BLOCK // width
    for grp in np.split(by_n, np.flatnonzero(np.diff(n_pt[by_n])) + 1):
        m = n_pt[grp[0]] - 1
        for b in range(0, len(grp), rows):
            idx = grp[b:b + rows]
            head = np.exp(np.multiply.outer(-s[idx], log_n[:m]))
            acc[idx] = (head[:, None, :] * table[:, :m] if deriv else head).sum(axis=-1)
    s, acc, nb = np.repeat(s, width), acc.ravel(), np.repeat(n_pt, width).astype(float)
    half, pole = 0.5 * nb ** (-s), nb ** (1.0 - s) / (s - 1.0)
    live, sl, rising, npow, inv_n2 = np.arange(len(s)), s, s, nb ** (-s - 1.0), 1.0 / (nb * nb)
    if deriv:
        # d^m/ds^m of each term: rising holds (s)_(2k-1) and two derivatives, weighted by C(m, i)
        # (-log N)^(m-i); the stop rule reads the parts' moduli (the k = 1 sum is 0 at s = 1/log N)
        ms, lg, g = np.tile(order, len(n_pt)), np.log(nb), 1.0 / (s - 1.0)
        half, pole = half * (-lg) ** ms, pole * np.choose(ms, (1.0, -(lg + g), (lg + g) ** 2 + g * g))
        w = np.stack([(-lg) ** ms, np.choose(ms, (0.0, 1.0, -2.0 * lg)), ms == 2])
        rising = np.stack([s, np.ones_like(s), np.zeros_like(s)])
    acc += half + pole
    out = np.empty_like(acc)
    prev = math.inf
    for k, coef in enumerate(_EM_COEF, start=1):
        parts = w[:, live] * rising if deriv else rising
        term = coef * (parts.sum(axis=0) if deriv else parts) * npow
        mag = np.abs(coef * npow) * np.abs(parts).sum(axis=0) if deriv else np.abs(term)
        add = ~(mag > prev)  # a diverging tail stops before its term
        np.add(acc, term, out=acc, where=add)
        # derivative calls stop 1e-18 below max(|value|, 1), or zeta at a zero runs every term
        more = add & ~(mag < 1e-18 * (np.maximum(np.abs(acc), 1.0) if deriv else np.abs(acc)))
        if not more.any() or k == len(_EM_COEF):
            out[live] = acc
            return out.reshape(shape)
        if not more.all():
            out[live[~more]] = acc[~more]
            live, acc, mag, sl, rising, npow, inv_n2 = (
                v[..., more] for v in (live, acc, mag, sl, rising, npow, inv_n2))
        prev = mag
        s2k = sl + 2 * k
        if deriv:  # (s)_(2k+1) = (s)_(2k-1) q with q = (s2k - 1) s2k, q' = 2 s2k - 1, q'' = 2
            (r0, r1, r2), q, dq = rising, (s2k - 1) * s2k, 2 * s2k - 1
            rising = np.stack([r0 * q, r1 * q + r0 * dq, r2 * q + 2 * (r1 * dq + r0)])
        else:
            rising = rising * ((s2k - 1) * s2k)
        npow = npow * inv_n2


def _zeta_outer(s) -> np.ndarray:
    # zeta(s) elementwise, any shape: Euler-Maclaurin if every Re s >= 0, else
    # Re s < 0 by log chi (sine and Gamma overflow alone), written through a C-order view
    s = np.array(s, dtype=complex, order="C")
    if np.any(s == 1.0):
        raise PoleError("zeta pole at s = 1")
    if np.all(s.real >= 0.0):
        return _zeta_em_array(s.ravel()).reshape(s.shape)
    flat = s.ravel()
    right = flat.real >= 0.0
    sl = flat[~right]
    w = 1.0 - sl
    log_chi = (sl * math.log(2.0) + (sl - 1.0) * math.log(math.pi)
               + _log_sin_pi_array(sl / 2.0) + log_gamma(w))
    flat[~right] = np.exp(log_chi) * _zeta_outer(w)
    flat[right] = _zeta_outer(flat[right])
    return s


@_number_or_array
def zeta(s):
    """zeta(s) elementwise on an ndarray of complex s != 1, a number giving a
    Python complex; raises :class:`PoleError` at s = 1, and
    :class:`ToleranceNotMet` past |Im s| = ZETA_T_BUDGET.  Within 1e-11
    relative for |Re s| <= 3, |Im s| <= 1420 (tested against mpmath)."""
    return _zeta_outer(s)


@_number_or_array
def theta_rs(t):
    """Riemann-Siegel theta, the phase of zeta on the critical line.

    Continuous branch with theta(0) = 0; odd in t; elementwise on an
    ndarray.  Within 1e-13 of max(1, |theta|) for |t| <= 2000.
    """
    return log_gamma(0.25 + 0.5j * t).imag - 0.5 * t * math.log(math.pi)


@_number_or_array
def z_function(t):
    """Hardy Z(t) = e^{i theta(t)} zeta(1/2 + it); real and even for real t.

    Elementwise on an ndarray, one evaluation of theta and of zeta.  The
    imaginary residue of the product is expected below 1e-9; larger
    residues are reported, and beyond 1e-6 the evaluation is rejected.
    """
    w = np.exp(1j * theta_rs(t)) * _zeta_outer(0.5 + 1j * t)
    resid = np.abs(w.imag)
    if np.any(resid > 1e-6):
        k = int(np.argmax(resid.ravel()))
        raise ConsistencyError(
            f"Z({t.flat[k]:g}): imaginary residue {w.imag.flat[k]:.3e}")
    if np.any(resid > 1e-9):
        _log.debug("Z: %d imaginary residues above the 1e-9 watermark",
                   int(np.count_nonzero(resid > 1e-9)))
    return w.real


# Riemann-Siegel (Edwards 1974 ch. 7; Gabcke 1979), a = sqrt(t / 2 pi), N = floor(a), p = a - N:
#   Z(t) = 2 sum_{n <= N} n^-1/2 cos(theta - t log n) + (-1)^(N-1) a^-1/2 sum_{k <= 4} C_k(p) a^-k,
# C_k = sum_e r_ke Psi^(4e-k)(p) / pi^(2e), e = [k > 0] .. k; theta by its Stirling series (k <= 5)
_RS_T_MIN = 50.0
_RS_R = (((1, 1),), ((-1, 96),), ((1, 64), (1, 18432)), ((-1, 64), (-1, 3840), (-1, 5308416)),
         ((1, 128), (19, 24576), (11, 5898240), (1, 2038431744)))
_RS_TERMS = 24  # powers of x^2 per C_k: at |x| <= 1/2 the tail is below 1e-19
_THETA_STIRLING = [(1.0 - 2.0 ** (1 - 2 * k)) * abs(_EM_COEF[k - 1]) * math.factorial(2 * k)
                   / (4 * k * (2 * k - 1)) for k in range(5, 0, -1)]


@functools.cache
def _rs_coefficients() -> np.ndarray:
    # (5, _RS_TERMS): C_k(1/2 + x) = x^(k mod 2) sum_i c[k, i] x^(2i), highest i first, from
    # Psi(1/2 + x) = -cos(2 pi x^2 - 5 pi/8) / cos(2 pi x) = sum_j q_j x^(2j) by series division in
    # 400-bit fixed point (it loses 2 bits a term, too many for floats), pi by Machin's formula
    one = 1 << 400
    atan = lambda x: sum((-1) ** i * (one // x ** (2 * i + 1) // (2 * i + 1)) for i in range(100))
    pi, r2 = 16 * atan(5) - 4 * atan(239), math.isqrt(2 * one * one)
    sc = (math.isqrt((2 * one - r2) * one) // 2, -math.isqrt((2 * one + r2) * one) // 2)
    den, q, pw = [one], [], one  # pw = (2 pi)^j / j!
    for j in range(_RS_TERMS + 7):  # Psi^(12) reads q up to _RS_TERMS + 6
        q.append((pw * sc[j % 2] * (-1) ** (j // 2) - sum(den[i] * q[j - i] for i in range(1, j + 1))) // one)
        pw = pw * 2 * pi // (one * (j + 1))
        den.append(-den[-1] * 4 * pi * pi // (one * one * (2 * j + 1) * (2 * j + 2)))
    inv_pi2 = [one ** (2 * e + 1) // pi ** (2 * e) for e in range(5)]  # Psi^(m) has q_((d+m)/2) (d+m)!/d! x^d
    return np.array([[sum(a * q[(d + 4 * e - k) // 2] * math.perm(d + 4 * e - k, 4 * e - k)
                          * inv_pi2[e] // (b * one) for e, (a, b) in enumerate(rs, start=k > 0)) / one
                      for d in range(k % 2 + 2 * _RS_TERMS - 2, -1, -2)] for k, rs in enumerate(_RS_R)])


def _z_rs(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Z(t) and an error bound for t >= _RS_T_MIN: 0.025 t^(-11/4) after C_4 (twice the largest
    # |Z_RS - Z_EM| t^(11/4) on the 0.05 grid of [10, 500]; Gabcke proves 0.017 for t >= 200) plus
    # 8 eps t log(t / 2 pi) sqrt(N) for the phases' rounding (5x the worst against long double)
    u = t / (2.0 * math.pi)
    a, n, log_u = np.sqrt(u), np.floor(np.sqrt(u)), np.log(u)
    theta = 0.5 * t * log_u - 0.5 * t - math.pi / 8.0 + np.polyval(_THETA_STIRLING, 1.0 / (t * t)) / t
    # at least 8 columns: numpy sums a shorter row in another order, and Z at a point would then
    # depend on the other points of the call (with 8 to 14 columns it does not, to t = 1400)
    ns = np.arange(1, max(8, int(n.max(initial=0.0))) + 1)
    w = np.where(ns <= n[:, None], ns ** -0.5, 0.0)
    main = 2.0 * (np.cos(theta[:, None] - np.multiply.outer(t, np.log(ns))) * w).sum(axis=1)
    x = a - n - 0.5
    c = np.polyval(_rs_coefficients().T[:, :, None], x * x)
    c[1::2] *= x
    rem = np.polyval(c[::-1], 1.0 / a) * np.where(n % 2 == 1, 1.0, -1.0) / np.sqrt(a)
    err = 0.025 * t ** -2.75 + 1.8e-15 * t * log_u * np.sqrt(n)
    return main + rem, err


def _z_scan(t: np.ndarray) -> np.ndarray:
    # Z on a scan or plot grid: _z_rs from _RS_T_MIN up, and one z_function call below it and
    # wherever |Z_RS| is within its bound, so every sign is certain
    z, weak = np.empty(len(t)), t < _RS_T_MIN
    z[~weak], err = _z_rs(t[~weak])
    weak[~weak] = ~(np.abs(z[~weak]) > err)
    z[weak] = z_function(t[weak])
    return z


def _theta_prime(t):
    # theta'(t) = Re psi(1/4 + it/2) / 2 - log(pi) / 2, with psi(z) = psi(z + 1) - 1/z
    z = 0.25 + 0.5j * t
    return 0.5 * (_digamma_right(z + 1.0) - 1.0 / z).real - 0.5 * math.log(math.pi)


def _z_newton(t: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # Z = Re(e^{i theta} zeta), Z' = Re(i e^{i theta} (theta' zeta + zeta')) on an array of t from one
    # Euler-Maclaurin call, and Z's error as eps t log N sqrt N, N = (t + 55) / 2.6 (the main sum's terms
    # round phases t log n): 4.5x the largest |Z - Z_mpmath| at 300 random t and 269 zeros in (0, 500]
    z = _zeta_em_array(0.5 + 1j * np.ravel(t), (0, 1)).reshape(np.shape(t) + (2,))
    rot, n = np.exp(1j * theta_rs(t)), (t + 55.0) / 2.6
    return ((rot * z[..., 0]).real, (1j * rot * (_theta_prime(t) * z[..., 0] + z[..., 1])).real,
            2.2e-16 * t * np.log(n) * np.sqrt(n))


@_number_or_array
def z_prime(t):
    """Z'(t) = Re(i e^{i theta} (theta' zeta + zeta')) at s = 1/2 + it, elementwise,
    with closed-form derivatives of each Euler-Maclaurin term.  Within 1e-11 at the
    first 1000 zeros and off them on (0.5, 1400] (tested against mpmath)."""
    return _z_newton(t)[1]


def _zeta_derivative(s, m: int) -> complex:
    s = complex(s)
    if abs(s - 1.0) <= 0.01:
        raise PoleError(f"zeta derivative {m} too close to the pole at s = 1")
    if s.real < 0.0:
        raise ValueError(f"zeta derivative {m} needs Re s >= 0")
    return complex(_zeta_em_array(np.array([s]), (m,))[0, 0])


def zeta_prime(s) -> complex:
    """zeta'(s) for Re s >= 0 from closed-form derivatives of each Euler-Maclaurin
    term; ``ValueError`` for Re s < 0, :class:`PoleError` within 0.01 of s = 1.
    Within 1e-12 relative at zeros 1, 2, 10, 51, 100 (tested against mpmath)."""
    return _zeta_derivative(s, 1)


def zeta_second_prime(s) -> complex:
    """zeta''(s), computed and refused as :func:`zeta_prime`."""
    return _zeta_derivative(s, 2)


# --------------------------------------------------------------------------
# Im log zeta on the critical line, tracked from Re s = 2
# --------------------------------------------------------------------------

def im_log_zeta_half(t: float) -> float:
    """Im log zeta(1/2 + it), branch tracked along the segment from 2 + it.

    On Re s = 2 zeta stays within the unit disk around 1 so the principal
    argument there is the continuous branch; walking the horizontal
    segment to 1/2 + it unwraps the phase.  Ill-conditioned exactly on a
    zero ordinate.
    """
    if t == 0.0:
        return 0.0
    sigmas = (2.0, 1.6, 1.3, 1.1, 0.95, 0.85, 0.75, 0.675, 0.6, 0.55, 0.52, 0.5)
    pts = [complex(sg, t) for sg in sigmas]
    vals = _zeta_outer(pts).tolist()
    phase = cmath.phase(vals[0])
    for k in range(len(pts) - 1):
        phase += _delta_arg(vals[k], vals[k + 1], pts[k], pts[k + 1], 0)
    return phase


def _delta_arg(za, zb, sa, sb, depth):
    d = cmath.phase(zb / za)
    if abs(d) < 0.75:
        return d
    if depth > 48:
        raise ConsistencyError("phase tracking lost near a zeta zero")
    sm = 0.5 * (sa + sb)
    zm = zeta(sm)
    return (_delta_arg(za, zm, sa, sm, depth + 1)
            + _delta_arg(zm, zb, sm, sb, depth + 1))


def exact_zero_count(t: float) -> int:
    """Number of critical-line zeros with ordinate in (0, t], by the exact
    counting formula; t must not sit on a zero."""
    if t <= 1.0:
        return 0
    raw = theta_rs(t) / math.pi + 1.0 + im_log_zeta_half(t) / math.pi
    k = round(raw)
    # integral to ~1e-10 off a zero (t <= 1420); past 1e-6 within ~1e-7 of one
    if abs(raw - k) > 1e-6:
        raise ConsistencyError(
            f"count formula at t={t:g} is {raw:.8f}, not integral; too close to a zero")
    return int(k)


def _count_avoiding_zeros(t: float) -> int:
    for shift in (0.0, 0.013, -0.013, 0.031, -0.031):
        try:
            return exact_zero_count(t + shift)
        except ConsistencyError:
            continue
    raise ConsistencyError(f"could not evaluate the counting formula near t={t:g}")


# --------------------------------------------------------------------------
# zero records
# --------------------------------------------------------------------------

@dataclass
class ZeroRecord:
    """One nontrivial zero: ordinate t, Z'(t), and zeta'(1/2 + it)."""
    index: int
    t: float
    z_prime: float | None = None
    zeta_prime_at_rho: complex | None = None


def zeta_prime_at_zero(rec: ZeroRecord) -> complex:
    """zeta'(1/2 + it) at a zero, from the phase relation
    zeta'(rho) = -i e^{-i theta(t)} Z'(t) for the upper zero."""
    zp = rec.z_prime if rec.z_prime is not None else z_prime(rec.t)
    return _zeta_prime_by_phase(theta_rs(rec.t), zp)


def _zeta_prime_by_phase(theta: float, zp: float) -> complex:
    return -1j * cmath.exp(-1j * theta) * zp


def _fill_derivatives(records: list[ZeroRecord]) -> list[ZeroRecord]:
    # the missing Z' and zeta'(rho) come from one z_prime and one theta_rs call; returns records
    pending = [rec for rec in records if rec.z_prime is None]
    if pending:
        zps = z_prime(np.array([rec.t for rec in pending]))
        for rec, zp in zip(pending, zps.tolist()):
            if zp == 0.0:
                raise ConsistencyError(f"Z'({rec.t:g}) vanished; zero not simple?")
            rec.z_prime = zp
    pending = [rec for rec in records if rec.zeta_prime_at_rho is None]
    if pending:
        thetas = theta_rs(np.array([rec.t for rec in pending]))
        for rec, theta in zip(pending, thetas.tolist()):
            rec.zeta_prime_at_rho = _zeta_prime_by_phase(theta, rec.z_prime)
    return records


@dataclass
class ZeroDatabase:
    """Ordered zero records plus the ordinate up to which the count is verified."""
    records: list[ZeroRecord] = field(default_factory=list)
    source: str = "computed"
    t_max_verified: float = 0.0

    def __len__(self):
        return len(self.records)

    def ordinates(self) -> np.ndarray:
        return np.array([r.t for r in self.records])

    def ensure_derivatives(self, upto: int | None = None) -> None:
        """Fill Z' and zeta'(rho) lazily for the first ``upto`` records."""
        _fill_derivatives(self.records[: upto if upto is not None else len(self.records)])

    def check_invariants(self) -> None:
        ts = self.ordinates()
        if len(ts) and (np.any(ts <= 0) or np.any(np.diff(ts) <= 0)):
            raise MonotonicityError("zero ordinates must be positive and increasing")
        if [r.index for r in self.records] != list(range(1, len(ts) + 1)):
            raise ConsistencyError("zero records must be numbered 1, 2, ... in order")
        if self.t_max_verified > 0:
            n_below = int(np.sum(ts <= self.t_max_verified))
            expected = _count_avoiding_zeros(self.t_max_verified)
            if n_below != expected:
                raise ConsistencyError(
                    f"zero count {n_below} below t={self.t_max_verified:g} "
                    f"disagrees with the counting formula ({expected})")
        filled = [r.z_prime for r in self.records if r.z_prime is not None]
        signs = np.sign(filled)
        if len(signs) > 1 and len(filled) == len(self.records):
            if np.any(signs[:-1] * signs[1:] >= 0):
                raise ConsistencyError("Z' must alternate in sign between simple zeros")


def _lattice_scan(h: float, t_max: float, lo: int | None = None) -> tuple[float, list[ZeroRecord]]:
    # the first multiple of ZERO_GRID_STEP at or above t_max - 1e-9 and the zeros above h up to it,
    # without derivatives, by a scan of h and the multiples above it checked by the exact count at
    # the top: a zero depends on its bracket alone.  lo zeros lie at or below h; without lo the
    # scan starts at the multiple at or below h and counts there
    grid = np.arange(math.ceil((t_max - 1e-9) / ZERO_GRID_STEP) + 1) * ZERO_GRID_STEP
    if lo is None:
        h = float(grid[grid <= h][-1])
        lo = _count_avoiding_zeros(h)
    ts = np.concatenate(([h], grid[grid > h]))
    roots = find_all(_z_newton, ts, _count_avoiding_zeros(ts[-1]) - lo, _z_scan(ts))
    return float(ts[-1]), [ZeroRecord(index=lo + k + 1, t=t) for k, t in enumerate(roots)]


def find_zeros(t_min: float, t_max: float) -> list[ZeroRecord]:
    """All zeros of Z in (t_min, t_max), bit for bit those of the table that
    :func:`extend_database` builds to t_max: its scan from the multiple of
    ZERO_GRID_STEP at or below t_min.  An ordinate is within Z's error over
    Z' (2e-12 of the published table to t = 500); a count that disagrees
    with the exact counting formula raises :class:`MissedZeroError`.
    """
    if not (0.0 <= t_min < t_max <= T_BUDGET):
        raise ValueError(f"zero scan budget is 0 <= t_min < t_max <= {T_BUDGET:g}")
    return _fill_derivatives([r for r in _lattice_scan(t_min, t_max)[1] if t_min < r.t < t_max])


def extend_database(db: ZeroDatabase | None, t_max: float) -> ZeroDatabase:
    """The verified table ``db`` (None: no table) extended to k * ZERO_GRID_STEP,
    the first multiple at or above t_max - 1e-9, on a scan of db's height and
    the multiples above it.  db's records are the zeros up to its height,
    counted on load; the exact count at the new height checks the new ones,
    so each height is counted once and the records depend on it alone.
    """
    if t_max > T_BUDGET:
        raise ValueError(f"zero scan budget is t_max <= {T_BUDGET:g}")
    records, h = (db.records, db.t_max_verified) if db else ([], 0.0)
    lo = sum(1 for r in records if r.t <= h)
    top, new = _lattice_scan(h, t_max, lo)
    return ZeroDatabase(records[:lo] + _fill_derivatives(new), db.source if db else "computed", top)


# --------------------------------------------------------------------------
# persistence
# --------------------------------------------------------------------------

def persist_zeros(db: ZeroDatabase, path) -> None:
    """Write the database as a JSON document (floats round-trip exactly).

    The document goes to a temporary file in the same directory, which then
    replaces ``path`` in one step: a failed write leaves the previous file
    as it was.
    """
    doc = {
        "zeros": [
            {
                "index": r.index,
                "t": r.t,
                "z_prime": r.z_prime,
                "zeta_prime_re": None if r.zeta_prime_at_rho is None else r.zeta_prime_at_rho.real,
                "zeta_prime_im": None if r.zeta_prime_at_rho is None else r.zeta_prime_at_rho.imag,
            }
            for r in db.records
        ],
        "t_max_verified": db.t_max_verified,
        "source": db.source,
    }
    path = Path(path)
    # one name per process and thread, so concurrent writers never share it
    tmp = path.with_name(f".{path.name}.{os.getpid()}-{threading.get_ident()}.tmp")
    try:
        tmp.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _parse_text_table(text: str) -> list[float]:
    ts = []
    for ln, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            v = float(line)
        except ValueError as exc:
            raise FormatError(f"line {ln}: not a decimal ordinate: {line!r}") from exc
        if not math.isfinite(v) or v <= 0:
            raise FormatError(f"line {ln}: ordinate must be finite and positive")
        ts.append(v)
    return ts


def _json_number(e: dict, key: str, nullable: bool = False):
    # a finite int or float (not a bool) from a JSON field, or None where that may be null
    v = e.get(key) if nullable else e[key]
    if v is None and nullable:
        return None
    if isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(v):
        raise FormatError(f"field {key!r} must be a finite number{' or null' * nullable}, not {v!r}")
    return v


def _json_record(e: dict) -> ZeroRecord:
    re, im = _json_number(e, "zeta_prime_re", True), _json_number(e, "zeta_prime_im", True)
    if type(e["index"]) is not int or (re is None) != (im is None):
        raise FormatError(f"record {e}: 'index' must be an integer, and 'zeta_prime_re' and "
                          "'zeta_prime_im' both numbers or both null")
    return ZeroRecord(index=e["index"], t=_json_number(e, "t"), z_prime=_json_number(e, "z_prime", True),
                      zeta_prime_at_rho=None if re is None else complex(re, im))


def ingest_zeros(path) -> ZeroDatabase:
    """Load a zero table: either a plain-text ordinate list (one ascending
    value per line, '#' comments allowed) or a previously persisted JSON
    document.  The count-consistency invariant is enforced on load."""
    text = Path(path).read_text(encoding="utf-8")
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            doc = json.loads(text)
            records = [_json_record(e) for e in doc["zeros"]]
            db = ZeroDatabase(records=records, source=doc.get("source", "ingested"),
                              t_max_verified=_json_number(doc, "t_max_verified"))
        except (json.JSONDecodeError, KeyError, TypeError, OverflowError) as exc:
            raise FormatError(f"malformed zero-record document: {exc}") from exc
    else:
        ts = _parse_text_table(text)
        if any(b <= a for a, b in zip(ts, ts[1:])):
            raise MonotonicityError("ordinates must be strictly increasing")
        records = [ZeroRecord(index=i + 1, t=t) for i, t in enumerate(ts)]
        # margin must stay below the gap to the first zero missing from the
        # table; 0.01 is far under the minimal gap at any ingestable height
        t_max = ts[-1] + 0.01 if ts else 0.0
        db = ZeroDatabase(records=records, source="ingested", t_max_verified=t_max)
    db.check_invariants()
    return db
