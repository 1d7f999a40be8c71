"""Moebius/Mertens sums and their residue expansions over zeta zeros.

The partial Dirichlet sums

    M_z(x) = sum_{n <= x} mu(n) / n^z,   z = 1/2 + iE,

are computed directly (with the half-weight convention at integer x) and
reconstructed from the contour-inversion residue series: the constant
1/zeta(z) (or the log x law when E is an ordinate of the series' own
zero table), plus one term per nontrivial zero, plus a rapidly convergent
trivial-zero tail whose zeta'(-2n) has the closed form
(-1)^n zeta(2n+1) (2n)! / (2^(2n+1) pi^(2n)).
Nontrivial zeros are summed in conjugate pairs ordered by |t|, the
standard symmetric truncation of the conditionally convergent series; at
real z (Mertens) a pair is twice the real part of its upper member.  Each
series is one array expression over all its zeros, taken over blocks of x
so that the x-by-zeros temporary stays near 4 MB.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NoSimpleZero, OnZeroAmbiguity
from .zeta import ZeroDatabase, _zeta_em_array, zeta

__all__ = [
    "moebius",
    "moebius_sieve",
    "mertens",
    "m_z_direct",
    "zeta_prime_trivial",
    "trivial_zero_term",
    "ResidueExpansionConfig",
    "m_z_perron",
    "mertens_residue",
    "mertens_residue_complex",
    "growth_fit",
    "GrowthFitReport",
    "fit_growth_sequence",
]

MOEBIUS_BUDGET = 10 ** 9
SWEEP_N_BUDGET = 10 ** 6  # n of a perron or mertens command: perron at 1e6 takes 12 s, 340 MB
TRIVIAL_ZEROS_MAX = 80  # zeta'(-2n) in closed form for n <= 80: (2n)! stays within a float
_RESIDUE_BLOCK = 1 << 18  # complex entries per x-by-zeros block of a residue sum, 4 MB

# growth_fit classification constants (calibrated, not derived)
_POWER_FLOOR = 0.12
_LOG_SLOPE_FLOOR = 0.15


def moebius(n: int) -> int:
    """Moebius mu(n) by trial factorization; 0 on a squared prime factor."""
    if n < 1 or n > MOEBIUS_BUDGET:
        raise ValueError(f"moebius defined for 1 <= n <= {MOEBIUS_BUDGET}")
    if n == 1:
        return 1
    sign = 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            sign = -sign
        d += 1 if d == 2 else 2
    if n > 1:
        sign = -sign
    return sign


def moebius_sieve(n_max: int) -> np.ndarray:
    """mu(1..n_max) as an int8 array (index 0 unused).

    Only the primes p <= sqrt(n_max) sieve; where the product of those
    dividing n (at most n <= MOEBIUS_BUDGET < 2^31, so int32) falls short
    of n, one larger prime factor flips mu(n) again.
    """
    mu = np.ones(n_max + 1, dtype=np.int8)
    small = np.ones(n_max + 1, dtype=np.int32)
    for p in range(2, math.isqrt(n_max) + 1):
        if small[p] == 1:  # no smaller prime divides p
            mu[p::p] *= -1
            small[p::p] *= p
            mu[p * p::p * p] = 0
    mu *= 1 - 2 * (small < np.arange(n_max + 1, dtype=np.int32)).view(np.int8)
    mu[0] = 0
    return mu


def mertens(x: float) -> int:
    """Mertens function sum_{n <= x} mu(n), exactly."""
    if x < 1:
        raise ValueError("mertens defined for x >= 1")
    n = int(math.floor(x))
    return int(moebius_sieve(n)[1:].sum())


def _dirichlet_terms(mu: np.ndarray, E: float, lo: int = 1) -> np.ndarray:
    # mu(n) n^(-1/2 - iE) for n = lo, lo + 1, ..., given mu(n) over that
    # range; M_z(n) is their running sum
    w = np.log(np.arange(lo, lo + len(mu))) * -complex(0.5, E)  # one complex array, in place
    return np.multiply(np.exp(w, out=w), mu, out=w)


def m_z_direct(x: float, E: float, primed: bool = False) -> complex:
    """Partial sum sum_{n <= x} mu(n) n^(-1/2 - iE).

    With ``primed`` the last term is half-weighted when x is an integer
    (the value the contour inversion converges to at its jump points).
    """
    if x < 1:
        raise ValueError("m_z_direct defined for x >= 1")
    n_top = int(math.floor(x + 1e-12))
    w = _dirichlet_terms(moebius_sieve(n_top)[1:], E)
    if primed and abs(x - n_top) < 1e-12:
        w[-1] *= 0.5
    return complex(w.sum())


@functools.cache
def _zeta_odd(n: int) -> float:
    return zeta(complex(2 * n + 1, 0.0)).real


def zeta_prime_trivial(n: int) -> float:
    """Closed form zeta'(-2n) = (-1)^n zeta(2n+1) (2n)! / (2^(2n+1) pi^(2n))."""
    if n < 1:
        raise ValueError("n >= 1")
    if n > TRIVIAL_ZEROS_MAX:
        raise ValueError(f"factorial overflow beyond n = {TRIVIAL_ZEROS_MAX}")
    return ((-1) ** n * _zeta_odd(n) * math.factorial(2 * n)
            / (2.0 ** (2 * n + 1) * math.pi ** (2 * n)))


def trivial_zero_term(x: float, E: float, n: int) -> complex:
    """Residue at s = -2n - z of the inversion integrand:
    x^(-2n-z) / (-(2n+z) zeta'(-2n)) with z = 1/2 + iE."""
    if x <= 1:
        raise ValueError("x > 1 required")
    z = complex(0.5, E)
    expo = -2.0 * n - z
    return x ** expo / (-(2.0 * n + z) * zeta_prime_trivial(n))


@dataclass
class ResidueExpansionConfig:
    """Truncation control: which zeros enter the residue sum.

    Whether a point sits on a zero is read from ``zero_db`` itself: see
    :func:`m_z_perron`.
    """
    zero_db: ZeroDatabase
    n_nontrivial: int = 100
    n_trivial: int = 20
    _zeros: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)
    _terms: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n_nontrivial > len(self.zero_db):
            raise ValueError("n_nontrivial exceeds the zero database size")
        if min(self.n_nontrivial, self.n_trivial) < 0:
            raise ValueError("n_nontrivial and n_trivial must be >= 0")

    def residue_zeros(self):
        """Arrays (s_k, zeta'(s_k)): each of the first n_nontrivial zeros, then
        its conjugate, then -2, -4, ..., -2 n_trivial; built on the first call."""
        if self._zeros is None:
            self.zero_db.ensure_derivatives(self.n_nontrivial)
            recs, ns = self.zero_db.records[: self.n_nontrivial], range(1, self.n_trivial + 1)
            self._zeros = np.array(
                [[complex(0.5, sgn * r.t) for r in recs for sgn in (1.0, -1.0)] + [-2.0 * n for n in ns],
                 [d for r in recs for d in (r.zeta_prime_at_rho, r.zeta_prime_at_rho.conjugate())]
                 + [zeta_prime_trivial(n) for n in ns]], dtype=complex)
        return self._zeros

    def residue_terms(self, z: complex):
        """Arrays (e_k, c_k) of the tail sum_k c_k x^(e_k) at z: e_k = s_k - z
        over the kept zeros, c_k = 1/(e_k zeta'(s_k)), doubled on the upper
        member of each pair at real z, whose lower member is dropped; a kept
        zero within 1e-6 of z is dropped too.  The arrays of the last z
        asked for are kept, so a sweep over z holds one set."""
        if self._terms is None or self._terms[0] != z:
            s, dz = self.residue_zeros()
            real = z.imag == 0.0
            keep = ~(real & (s.imag < 0.0) | (np.abs(s - z) < 1e-6))
            e = s[keep] - z
            self._terms = z, e, (1.0 + (real & (e.imag > 0.0))) / (e * dz[keep])
        return self._terms[1:]


def _residue_tail(x, z: complex, cfg: ResidueExpansionConfig):
    # sum_k x^(s_k - z) / ((s_k - z) zeta'(s_k)), less a kept zero at z; numpy's
    # pairwise sums, not BLAS, so that the artifacts keep their bits from run to run
    e, c = cfg.residue_terms(z)
    lx = np.log(np.ravel(x))
    out = np.empty(len(lx), dtype=complex)
    step = max(1, _RESIDUE_BLOCK // max(len(e), 1))
    for i in range(0, len(lx), step):
        blk = np.multiply.outer(lx[i:i + step], e)
        np.exp(blk, out=blk)
        blk *= c
        out[i:i + step] = blk.sum(axis=-1)
    if z.imag == 0.0:
        out.imag = 0.0
    return complex(out[0]) if np.ndim(x) == 0 else out.reshape(np.shape(x))


def _check_x(x):
    # a scalar stays a Python float: its arithmetic is cheaper than numpy's
    x = float(x) if np.ndim(x) == 0 else np.asarray(x, dtype=float)
    if np.any(x <= 1):
        raise ValueError("x > 1 required")
    return x


def m_z_perron(x, E: float, cfg: ResidueExpansionConfig):
    """Residue-series reconstruction of M_z(x), z = 1/2 + iE.

    Off a zero: 1/zeta(z) + zero terms + trivial tail.  On a zero of
    ``cfg.zero_db`` (|E| within 1e-6 of an ordinate) the s = 0 double pole
    gives log x / zeta'(z) - zeta''(z) / (2 zeta'(z)^2) instead, and that
    zero leaves the sum; a zero the table lacks raises OnZeroAmbiguity.
    ``x`` may be a scalar or an array of abscissae; the result has its shape.
    """
    x = _check_x(x)
    z = complex(0.5, E)
    if np.any(np.abs(cfg.zero_db.ordinates() - abs(E)) <= 1e-6):
        zp, zpp = _zeta_em_array(np.array([z]), (1, 2))[0].tolist()  # zeta' and zeta''
        if abs(zp) < 1e-8:
            raise NoSimpleZero(f"zeta'({z}) ~ 0; multiple zero not supported")
        head = np.log(x) / zp - zpp / (2.0 * zp * zp)
    else:
        zv = zeta(z)
        if abs(zv) < 1e-8:
            raise OnZeroAmbiguity(f"|zeta(z)| = {abs(zv):.2e} at E = {E:g}: a zero not in the table")
        head = 1.0 / zv
    return head + _residue_tail(x, z, cfg)


def mertens_residue_complex(x, cfg: ResidueExpansionConfig):
    """Untruncated-imaginary version of :func:`mertens_residue`: the
    residue series of M_z at z = 0.  Accepts a scalar or an array of x."""
    x = _check_x(x)
    return -2.0 + _residue_tail(x, 0j, cfg)


def mertens_residue(x, cfg: ResidueExpansionConfig):
    """Residue-series reconstruction of the Mertens function:
    -2 + sum over zero pairs of x^rho/(rho zeta'(rho)) + trivial tail.

    Non-integer x recommended (the direct sum jumps at integers).  ``x``
    may be a scalar or an array of abscissae.
    """
    return mertens_residue_complex(x, cfg).real


# --------------------------------------------------------------------------
# growth diagnostics
# --------------------------------------------------------------------------

@dataclass
class GrowthFitReport:
    """Least-squares growth diagnostics of |M_z(n)| over a range of n."""
    log_slope: float
    log_intercept: float
    power_exponent: float
    mean_abs: float
    classification: str
    power_floor: float = _POWER_FLOOR
    log_slope_floor: float = _LOG_SLOPE_FLOOR


def _block_maxima(ns, vals, n_blocks=8):
    # oscillation-robust envelope: max |value| per geometric block
    edges = np.geomspace(ns.min(), ns.max() * (1.0 + 1e-9), n_blocks + 1)
    bn, bv = [], []
    for a, b in zip(edges, edges[1:]):
        m = (ns >= a) & (ns < b)
        if m.any():
            bv.append(vals[m].max())
            bn.append(math.exp(float(np.log(ns[m]).mean())))
    return np.array(bn), np.array(bv)


def fit_growth_sequence(ns, values) -> GrowthFitReport:
    """Fit |values| against log n (slope) and log-log (power exponent).

    Both fits run on block maxima (the oscillation envelope), which keeps
    the dips of an oscillating sequence from wrecking the log-log
    regression.  Classification: bounded-like when the fitted growth
    across the range is small against the level; power-growth-like when
    the log-log exponent clears the floor and the power model beats the
    linear-in-log model in linear-space residuals; log-growth-like
    otherwise.
    """
    ns = np.asarray(ns, dtype=float)
    vals = np.abs(np.asarray(values, dtype=complex))
    bn, bv = _block_maxima(ns, vals)
    A = np.vstack([np.log(bn), np.ones_like(bn)]).T
    (log_slope, log_intercept), *_ = np.linalg.lstsq(A, bv, rcond=None)
    (power_exponent, log_c), *_ = np.linalg.lstsq(A, np.log(np.maximum(bv, 1e-300)),
                                                  rcond=None)
    mean_abs = float(vals.mean())
    rms_lin = float(np.sqrt(np.mean((bv - (A @ np.array([log_slope, log_intercept]))) ** 2)))
    rms_pow = float(np.sqrt(np.mean((bv - math.exp(log_c) * bn ** power_exponent) ** 2)))
    fitted_growth = abs(log_slope) * math.log(bn.max() / bn.min())
    if fitted_growth < _LOG_SLOPE_FLOOR * float(bv.mean()):
        cls = "bounded-like"
    elif power_exponent > _POWER_FLOOR and rms_pow <= rms_lin:
        cls = "power-growth-like"
    else:
        cls = "log-growth-like"
    return GrowthFitReport(float(log_slope), float(log_intercept),
                           float(power_exponent), mean_abs, cls)


def growth_fit(E: float, n_range) -> GrowthFitReport:
    """Growth diagnostics of the partial sums M_z(n) at height E.

    ``n_range`` is an iterable of integer cutoffs (ascending).
    """
    ns = sorted(int(n) for n in n_range)
    if not ns or ns[0] < 2:
        raise ValueError("n_range must contain integers >= 2")
    partial = np.cumsum(_dirichlet_terms(moebius_sieve(ns[-1])[1:], E))
    return fit_growth_sequence(ns, partial[np.array(ns) - 1])
