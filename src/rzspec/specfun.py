"""Complex special functions used throughout the package.

Three evaluators live here:

* :func:`log_gamma` -- principal-branch log Gamma via a fixed-coefficient
  Lanczos rational approximation (g = 607/128, 15 terms) in the half-plane
  Re z >= 1/2, continued to the left with the reflection formula.

* :func:`bessel_k_complex_order` -- the modified Bessel function
  ``K_nu(z)`` for complex order, one order or an ndarray of orders, and
  real z > 0, computed from

      K_nu(z) = (1/2) * integral exp(-z cosh(beta) + nu*beta) dbeta

  over a horizontal contour Im(beta) = alpha.  Lifting the contour toward
  the saddle height removes the catastrophic oscillatory cancellation that
  makes the real-axis integral useless for |Im nu| >> z, so the evaluator
  stays accurate even where ``|K| ~ exp(-pi*|Im nu|/2)`` underflows the
  integrand scale by dozens of orders of magnitude.  The integrand is
  analytic in a strip and decays doubly exponentially, so the nested
  trapezoidal rule, which the Fourier route of :mod:`rzspec.dirac`
  shares, converges geometrically; arrays run in numpy blocks, no threads.

* :func:`kummer_m_grid` -- the confluent hypergeometric function
  M(a, b, z) = e^(z/2) F(z) for ``|z| <= 200``, each cell by the cheapest
  valid route: the power series of F (DLMF 13.14) in complex double, the
  large-|z| asymptotic expansion (DLMF 13.7.2), or F's series in double-
  double arithmetic, which absorbs the cancellation of strongly complex
  z, by Horner's rule on z 2^-7 over coefficients cached per (a, b).  The
  first two share one kernel that forms the terms x^k c_k of a chunk of
  indices as arrays, x^k by a recipe fixed by k, and runs the sums in order.
  Every value carries an absolute error bound, certified on the series
  routes and, in its truncation part, on the asymptotic one.  A one-cell
  call gives its grid cell's bits.

All evaluators are pure functions and safe for concurrent use.
"""

from __future__ import annotations

import cmath
import functools
import math
from fractions import Fraction

import numpy as np

from .ddouble import horner_step, split
from .errors import PoleError, ToleranceNotMet

__all__ = [
    "log_gamma",
    "bessel_k_complex_order",
    "kummer_m",
    "kummer_m_bounded",
    "kummer_m_grid",
]


def _number_or_array(kernel):
    """Let an elementwise ndarray kernel take a number as its first argument:
    it runs as a one-element array, whose element comes back as a Python
    complex or float with the same bits."""
    @functools.wraps(kernel)
    def call(x, *args, **kwargs):
        if isinstance(x, np.ndarray):
            return kernel(x, *args, **kwargs)
        return kernel(np.array([x]), *args, **kwargs)[0].item()
    return call


# --------------------------------------------------------------------------
# nested trapezoidal rule
# --------------------------------------------------------------------------

_U = 0.5 * np.finfo(float).eps
_H_FIRST = 0.25         # step of the first trapezoidal level
_H_FINEST = 2.0 ** -10  # a row still open at this step raises ToleranceNotMet


def _nested_trapezoid(f, u_max):
    """Integrals over [0, u_max[r]] of ``f(u, rows)``, one per row r.

    The trapezoidal rule, weight 1/2 at u = 0 and 1 at every k h <= u_max,
    runs on h = 1/4, 1/8, ...; each level adds the odd multiples of its
    step, S_L = S_(L-1)/2 + h sum f(new nodes).  ``f`` maps 1-d arrays of
    abscissae and of their rows to m integrands per row, an (m, nodes) or
    (for m = 1) a 1-d array.  Row sums go through ``np.bincount``, which
    adds each row's terms in order whatever the other rows hold, so a row's
    value is its one-row value bit for bit.  A row closes when, for all m,
    |S_L - S_(L-1)| <= max(1e-13 |S_L|, 64 u h sum|f|), the second term the
    rounding floor of the sum.  For an integrand analytic in a strip the
    rule converges geometrically in 1/h (Trefethen and Weideman, SIAM
    Review 56, 2014), so the last difference bounds the error of the
    previous level and S_L is far better.  Returns the (m, rows) integrals
    and their error estimates |S_L - S_(L-1)| + 64 u h sum|f|.
    """
    n = len(u_max)
    rows = np.arange(n)

    def level(h, first, stride):
        # h times the sums of f and |f| at k h, k = first, first + stride, ...
        # up to u_max, for each open row
        count = (np.floor(u_max[rows] / h).astype(np.int64) - first) // stride + 1
        r = np.repeat(rows, count)
        k = first + stride * (np.arange(len(r)) - np.repeat(np.cumsum(count) - count, count))
        vals = np.atleast_2d(f(k * h, r))
        if first == 0:
            vals[:, k == 0] *= 0.5
        m = len(vals)  # integrand j of row r goes to bin j n + r, its terms in order
        bins, vals = (r + n * np.arange(m)[:, None]).ravel(), vals.ravel()
        re, im, ab = (np.bincount(bins, w, m * n).reshape(m, n) for w in (vals.real, vals.imag, np.abs(vals)))
        return h * (re + 1j * im), h * ab

    h = _H_FIRST
    s, a = level(h, 0, 1)
    out, err = np.empty_like(s), np.empty(s.shape)
    while h > _H_FINEST:
        h *= 0.5
        ds, da = level(h, 1, 2)
        s, s_prev, a = 0.5 * s + ds, s, 0.5 * a + da
        diff, floor = np.abs(s[:, rows] - s_prev[:, rows]), 64.0 * _U * a[:, rows]
        done = np.all(diff <= np.maximum(1e-13 * np.abs(s[:, rows]), floor), axis=0)
        out[:, rows[done]] = s[:, rows[done]]
        err[:, rows[done]] = (diff + floor)[:, done]
        rows = rows[~done]
        if not len(rows):
            return out, err
    raise ToleranceNotMet(f"trapezoidal rule still open at step {h:g}")


# --------------------------------------------------------------------------
# log Gamma
# --------------------------------------------------------------------------

_LANCZOS_G = 607.0 / 128.0
_LANCZOS_C = np.array([
    0.99999999999999709182,
    57.156235665862923517,
    -59.597960355475491248,
    14.136097974741747174,
    -0.49191381609762019978,
    0.33994649984811888699e-4,
    0.46523628927048575665e-4,
    -0.98374475304879564677e-4,
    0.15808870322491248884e-3,
    -0.21026444172410488319e-3,
    0.21743961811521264320e-3,
    -0.16431810653676389022e-3,
    0.84418223983852743293e-4,
    -0.26190838401581408670e-4,
    0.36899182659531622704e-5,
])[:, None]
_LANCZOS_K = np.arange(1.0, len(_LANCZOS_C))[:, None]
_LANCZOS_BLOCK = 512  # points per broadcast over the terms: 115 kB temporaries


def _log_gamma_right(z):
    # Lanczos sum for Re z >= 1/2 on a 1-d array; series argument shifted so
    # the pole terms are z-1+k with k >= 1.  The terms of a block of points
    # are one broadcast, then added in order of k.
    zm1 = z - 1.0
    s = np.empty_like(zm1)
    for b in range(0, len(z), _LANCZOS_BLOCK):
        terms = _LANCZOS_C[1:] / (zm1[b:b + _LANCZOS_BLOCK] + _LANCZOS_K)
        acc = _LANCZOS_C[0] + terms[0]
        for row in terms[1:]:
            acc += row
        s[b:b + _LANCZOS_BLOCK] = acc
    t = zm1 + _LANCZOS_G + 0.5
    return 0.5 * math.log(2.0 * math.pi) + (zm1 + 0.5) * np.log(t) - t + np.log(s)


def _digamma_right(z):
    # psi(z), Re z >= 1/2, 1-d: _log_gamma_right's Lanczos form differentiated term by term
    inv = 1.0 / (z - 1.0 + _LANCZOS_K)
    t, terms = z + _LANCZOS_G - 0.5, _LANCZOS_C[1:] * inv
    return np.log(t) - _LANCZOS_G / t - (terms * inv).sum(axis=0) / (_LANCZOS_C[0] + terms.sum(axis=0))


def _trigamma_right(z):
    # psi'(z), Re z >= 1/2, 1-d: _digamma_right differentiated once more, with S the Lanczos sum
    inv = 1.0 / (z - 1.0 + _LANCZOS_K)
    t, terms = z + _LANCZOS_G - 0.5, _LANCZOS_C[1:] * inv
    s, ds = _LANCZOS_C[0] + terms.sum(axis=0), (terms * inv).sum(axis=0)  # S and -S'
    return 1.0 / t + _LANCZOS_G / (t * t) + (2.0 * (terms * inv * inv).sum(axis=0) - ds * ds / s) / s


def _log_sin_pi_array(z: np.ndarray) -> np.ndarray:
    # log sin(pi z) without overflow for large |Im z|: for Im z >= 0,
    # sin(pi z) = (i/2) exp(-i pi z)(1 - exp(2 i pi z)), conjugated onto
    # the lower half-plane
    lower = z.imag < 0
    z = np.where(lower, z.conj(), z)
    x = -np.exp(2j * math.pi * z)
    log1p = np.where(np.abs(x) < 1e-4, x * (1.0 + x * (-0.5 + x / 3.0)), np.log(1.0 + x))
    out = -1j * math.pi * z + log1p - math.log(2.0) + 0.5j * math.pi
    return np.where(lower, out.conj(), out)


def _gamma_pole(z: np.ndarray) -> np.ndarray:
    return (z.imag == 0.0) & (z.real == np.floor(z.real)) & (z.real <= 0.0)


@_number_or_array
def log_gamma(z):
    """Principal-branch log Gamma, elementwise on an ndarray of complex z.

    ``exp(log_gamma(z)) == Gamma(z)``; raises :class:`PoleError` at the
    poles z = 0, -1, -2, ... and ``ValueError`` for a NaN or infinite z.
    The reflection left of Re z = 1/2 keeps the branch continuous along
    vertical lines, as theta_rs needs.  Within 1e-14 of max(1, |log Gamma|)
    for |Re z| <= 6.3, |Im z| <= 900 (tested against mpmath).
    """
    z = np.asarray(z, dtype=complex)
    if not np.all(np.isfinite(z)):
        raise ValueError("log_gamma needs a finite z")
    pole = _gamma_pole(z)
    if pole.any():
        raise PoleError(f"log_gamma pole at z = {z[pole].flat[0].real:g}")
    flat = z.ravel()
    right = flat.real >= 0.5
    out = _log_gamma_right(np.where(right, flat, 1.0 - flat))
    left = ~right
    out[left] = math.log(math.pi) - _log_sin_pi_array(flat[left]) - out[left]
    return out.reshape(z.shape)


# --------------------------------------------------------------------------
# modified Bessel K with complex order
# --------------------------------------------------------------------------

MAX_ABSCISSA = 10.0  # largest truncation point of the K integrand
_TRUNC_LOG = -math.log(1e-18)
_K_BLOCK = 128  # orders per quadrature block; a 1001-order grid peaks at 0.6-1.4 MB traced


def _contour_height(mu, z: float):
    # Height of the integration line, per order.  Below the turning point
    # mu = z the saddle sits at asin(mu/z) and the lifted contour passes
    # through it; above it the saddle parks at pi/2 and we stop a distance
    # delta short, chosen so the residual cancellation stays within ~e^12.
    with np.errstate(divide="ignore"):
        delta = np.clip(12.0 / (mu - z + 2.0), 0.02, 0.8)
    return np.where(mu < 0.99 * z, np.arcsin(np.minimum(mu / z, 1.0)), 0.5 * math.pi - delta)


@_number_or_array
def bessel_k_complex_order(nu, z):
    """Modified Bessel function K_nu(z) for complex order nu and real z > 0.

    ``nu`` is a number, giving a complex, or an ndarray of orders, giving
    a complex ndarray of its shape.  Contour heights and truncation points
    of all orders are computed at once.  The lifted integrand is folded
    onto u >= 0,

        K_nu(z) = e^(i nu alpha) integral_0^u_hi e^(-c cosh u)
                  cosh(a u + i (mu u - z sin(alpha) sinh u)) du,

    with nu = a + i mu and c = z cos(alpha), and integrated by the nested
    trapezoidal rule on blocks of at most 128 orders.  Every order keeps its
    own closing test, so an array element equals its one-order call bit
    for bit.  No threads are used.  It is the first row of :func:`_bessel_k`,
    which adds dK/dnu on the same nodes and K's error estimate.

    Respects ``K_nu = K_{-nu}`` and ``K_conj(nu) = conj(K_nu)`` exactly by
    construction.  Raises :class:`ToleranceNotMet` if the truncation point
    of any order exceeds ``MAX_ABSCISSA``, or if the rule for any order is
    still open at its finest step.

    Against mpmath on three samples of 3400 random orders (a in [0, 5], mu
    in [0, 150], z in [0.02, 100]): at worst 5.9e-8 relative, at a = 1.00,
    mu = 107.3, z = 94.2, where mu is just above z and the contour stops
    short of the saddle; each sample's worst order lies there.
    """
    return _bessel_k(nu.astype(complex).ravel(), z)[0].reshape(nu.shape)


def _bessel_k(nu, z):
    """K_nu(z), dK/dnu and an error estimate of K, on a 1-d complex array of
    orders.  dK/dnu integrates a second row on K's nodes, both formed in real
    arithmetic, with alpha held fixed (by Cauchy the height does not matter):

        dK/dnu = i alpha K + e^(i nu alpha) integral_0^u_hi e^(-c cosh u)
                 u sinh(a u + i (mu u - z sin(alpha) sinh u)) du.

    An order closes when both rows do.  The estimate is |e^(i nu alpha)|
    times K's last difference and rounding floor, plus 4 u (1 + |nu| alpha) |K|
    for the rounding of the rotation.
    """
    z = float(z)
    if not z > 0:
        raise ValueError("bessel_k_complex_order requires z > 0")
    flip = nu.real < 0
    nu = np.where(flip, -nu, nu)
    conj = nu.imag < 0
    nu = np.where(conj, nu.conjugate(), nu)
    a, mu = nu.real, nu.imag

    alpha = _contour_height(mu, z)
    c = z * np.cos(alpha)  # decay coefficient of the lifted integrand
    zs = z * np.sin(alpha)

    # integrand magnitude exp(-c cosh u + a u), a >= 0: peak and truncation points
    u_peak = np.arcsinh(a / c)
    log_peak = -c * np.cosh(u_peak) + a * u_peak
    u_hi = np.arccosh(1.0 + (_TRUNC_LOG + a) / c)
    for _ in range(3):
        u_hi = np.arccosh(1.0 + (_TRUNC_LOG + a * np.maximum(u_hi, u_peak + 1.0) - log_peak - c) / c)
    u_hi = np.maximum(u_hi, u_peak + 1.0)
    over = np.flatnonzero(u_hi > MAX_ABSCISSA)
    if len(over):
        k = over[0]
        raise ToleranceNotMet(f"order {complex(nu[k])}: truncation point {u_hi[k]:.2f} "
                              f"exceeds MAX_ABSCISSA = {MAX_ABSCISSA:g}")

    def integrand(u, r):
        # e^(-c cosh u) (cosh w, u sinh w), w = a u + i theta, in real parts
        decay, au, theta = -c[r] * np.cosh(u), a[r] * u, mu[r] * u - zs[r] * np.sinh(u)
        ep, em, cos, sin = np.exp(decay + au), np.exp(decay - au), np.cos(theta), np.sin(theta)
        ch, sh, vals = 0.5 * (ep + em), 0.5 * (ep - em), np.empty((2, len(u)), dtype=complex)
        vals.real[0], vals.imag[0], vals.real[1], vals.imag[1] = ch * cos, sh * sin, u * sh * cos, u * ch * sin
        return vals

    out, err = np.empty((2, len(nu)), dtype=complex), np.empty((2, len(nu)))
    for i in range(0, len(nu), _K_BLOCK):
        b = np.arange(i, min(i + _K_BLOCK, len(nu)))
        out[:, b], err[:, b] = _nested_trapezoid(lambda u, r: integrand(u, b[r]), u_hi[b])
    # not in place: numpy's in-place complex product of a one-element array
    # can round differently from its vector loop, and a one-order call
    # must give its array element's bits
    rot = np.exp(1j * nu * alpha)
    k = rot * out[0]
    # K_conj(nu) = conj K_nu and K_(-nu) = K_nu: dK/dnu is conjugated and changes sign
    dk = 1j * alpha * k + rot * out[1]
    dk = np.where(flip, -1.0, 1.0) * np.where(conj, dk.conjugate(), dk)
    err = np.abs(rot) * err[0] + 4.0 * _U * (1.0 + np.abs(nu) * alpha) * np.abs(k)
    return np.where(conj, k.conjugate(), k), dk, err


# --------------------------------------------------------------------------
# Kummer confluent hypergeometric M(a, b, z)
# --------------------------------------------------------------------------

KUMMER_RADIUS = 200.0   # documented series budget
_KUMMER_KMAX = 1600
_NOISE_PER_TERM = 5e-31  # double-double rounding per term (see _kummer_series_dd)
_HORNER_SCALE = 2 ** 7   # the series run on x = w / 2^7 (power series) and 2^7 / w (asymptotic)
_POWERS = 32             # x^k from x^(32 j) 2^g_j, k = 32 j + 8 q + i (see _term_chunks)
_TERM_CHUNK = 32         # term indices per pass of a call with few series, at most _POWERS
_ACCUMULATE_SERIES = 8   # up to this many series a call has few (see _chunk_length)
_KUMMER_BLOCK = 4096     # cells per asymptotic or plain call, which runs to its slowest cell
_INDICES = np.arange(_KUMMER_KMAX, dtype=float)  # term indices k as floats
_Q_OF, _I_OF = np.arange(_POWERS) >> 3, np.arange(_POWERS) & 7  # k - 32 j = 8 q + i
# Rounding the double-double sum to double costs at most u|F| (u = eps/2).
# e^(z/2) of M = e^(z/2) F carries at most 5u (exp, cos and sin within one
# ulp each, plus the rounding of their product) and the complex product with
# it sqrt(5) u (Brent, Percival and Zimmermann, Math. Comp. 2007): 8.3u in
# all, which 5 eps = 10u covers with room for the second-order terms.
_ROUNDING_EPS = 5.0 * np.finfo(float).eps
# relative bounds that end the routing on the asymptotic expansion (where
# the double-double series is long) and on the plain series (where it is short)
_ROUTE_REL_TOLS = (1e-10, 1e-13)
_ASYM_RADIUS = 20.0      # the asymptotic route runs from |w| = 2|a| + _ASYM_RADIUS
_ASYM_C1 = np.array([[0.5 * math.pi], [1.0]])  # C_1 of DLMF 13.7.5 for S1 and S2


def _rational(re, im=0.0):
    # (re, im, q) integers with (re + i im) / q exactly the given floats or Fractions
    re, im = Fraction(re), Fraction(im)
    q = max(re.denominator, im.denominator)  # both powers of two
    return re.numerator * (q // re.denominator), im.numerator * (q // im.denominator), q


def _rational_series(tops, n):
    """Exact c_k = prod_(i<k) [prod_t (t + i) / (i + 1)] 2^(-7k) for k < n,
    each as integers (re, im, den) with c_k = (re + i im) / den; a top is
    complex, as a :func:`_rational` triple."""
    nr, ni, den = 1, 0, 1
    for k in range(n):
        yield nr, ni, den
        for tr, ti, q in tops:
            fr = tr + k * q
            nr, ni, den = nr * fr - ni * ti, nr * ti + ni * fr, den * q
        den *= (k + 1) << 7


def _rounded(num: int, den: int) -> float:
    # num / den correctly rounded (integer true division), +-inf beyond the double range
    try:
        return num / den
    except OverflowError:
        return math.inf if (num < 0) == (den < 0) else -math.inf


def _term_table(rows):
    """The coefficients of the series kernel from exact ones, one row per
    series: (c, g) with c[k, r] = C_k 2^-g[j] correctly rounded, for k in
    the j-th run of _POWERS indices, and g[j] the largest binary exponent
    of |C_(32 j)| over the rows, so that neither c nor x^(32 j) 2^g leaves
    the double range where the terms do not."""
    n = len(rows[0])
    c = np.empty((n, len(rows)), dtype=complex)
    g = np.zeros(n // _POWERS, dtype=np.int64)
    for j in range(len(g)):
        g[j] = max((max(abs(nr), abs(ni)).bit_length() - abs(den).bit_length()
                    for nr, ni, den in (row[j * _POWERS] for row in rows) if nr or ni), default=0)
    for r, row in enumerate(rows):
        for k, (nr, ni, den) in enumerate(row):
            e = int(g[k // _POWERS])
            num, dd = ((nr, ni), den << e) if e >= 0 else ((nr << -e, ni << -e), den)
            c[k, r] = complex(_rounded(num[0], dd), _rounded(num[1], dd))
    return c, g


def _table_length(k: int) -> int:
    # the length of a coefficient table holding index k - 1: a power of two,
    # so that the kernel and the Horner pass mostly share one table
    return max(2 * _POWERS, 1 << (k - 1).bit_length())


@functools.lru_cache(maxsize=32)
def _kummer_coeffs(a: complex, b_re: float, n: int):
    """Q_k = f_k 2^(7k) for k < n, F(w) = e^(-w/2) M(a, b, w) = sum f_k w^k
    (DLMF 13.14.1-2), from exact integers: (cols, table) with cols four
    tuples (re_hi, re_lo, im_hi, im_lo), each correctly rounded to double-
    double, and table the :func:`_term_table` of Q.  No entry depends on n
    or on earlier tables.  F solves w F'' + b F' + (b/2 - a - w/4) F = 0,
    so (k + 1)(k + b) Q_(k+1) = 2^12 Q_(k-1) - 2^7 c Q_k with c = b/2 - a,
    and f_k(b - a) = (-1)^k f_k(a).  1e-241 < |Q_k| < 2e40 for the k < 512
    that |w| <= 200 needs in the Landau sectors up to E = 40.
    """
    cr, ci, qc = _rational(Fraction(b_re) / 2 - Fraction(a.real), -Fraction(a.imag))
    bp, _, bq = _rational(b_re)
    # Q_k = (nr + i ni) / den and Q_(k-1) = (lr + i li) / (den / step)
    exact, cols, nr, ni, den, lr, li, step = [], ([], [], [], []), 1, 0, 1, 0, 0, 1
    for k in range(n):
        exact.append((nr, ni, den))
        for num, hi_col, lo_col in ((nr, cols[0], cols[1]), (ni, cols[2], cols[3])):
            hi, lo = _rounded(num, den), 0.0
            if math.isfinite(hi):
                p, q = hi.as_integer_ratio()
                lo = (num * q - p * den) / (den * q)
            hi_col.append(hi)
            lo_col.append(lo)
        t = qc * step << 12
        lr, li, nr, ni = (nr, ni, bq * (t * lr - (cr * nr - ci * ni << 7)),
                          bq * (t * li - (cr * ni + ci * nr << 7)))
        step = qc * (k + 1) * (bp + k * bq)
        den *= step
    return tuple(map(tuple, cols)), _term_table([exact])


@functools.lru_cache(maxsize=32)
def _asymptotic_coeffs(a: complex, b_re: float, n: int):
    # the _term_table of (c1)_s (c2)_s / (s! 2^(7s)), s < n, for S1 (c1 = 1 - a,
    # c2 = b - a) and of (-1)^s times it for S2 (c1 = a, c2 = a - b + 1) of
    # _kummer_asymptotic, whose sums both run on x = 2^7 / w
    ar, ai, b = Fraction(a.real), Fraction(a.imag), Fraction(b_re)
    s1 = _rational_series([_rational(1 - ar, -ai), _rational(b - ar, -ai)], n)
    s2 = _rational_series([_rational(ar, ai), _rational(ar - b + 1, ai)], n)
    return _term_table([list(s1), [(-nr, -ni, den) if s % 2 else (nr, ni, den)
                                   for s, (nr, ni, den) in enumerate(s2)]])


def _ldexp(z, e: int):
    # z 2^e for a complex array z, exact within the double range
    out = np.empty_like(z)
    np.ldexp(z.view(float), e, out=out.view(float))
    return out


def _chunk_length(series: int) -> int:
    # A call with few series takes _TERM_CHUNK terms a pass and sums them by
    # np.add.accumulate; a block takes one term a pass, whose arrays stay in
    # the cache, and adds it to its running sums in place, where a (chunk x
    # cells) array would hold megabytes and sum at strided speed.  Either
    # way the same terms and additions, so the same bits.
    return _TERM_CHUNK if series <= _ACCUMULATE_SERIES else 1


def _term_chunks(x, table):
    """The terms x^k c_k of R series on the cells of ``x`` (shape (1, n)),
    :func:`_chunk_length` indices a pass: yields (k, t), k the indices
    and t of shape (len(k), R, n).  ``table(m)`` gives the
    :func:`_term_table` (c, g) of at least m coefficients, c[k, r] for
    series r.

    For k = 32 j + 8 q + i, x^k = (X_j Y_q) T_i with T_i = x^i (T_0 = 1,
    T_1 = x, T_(h+i) = T_i x^h, h = 2, 4), Y_q = x^(8q) (Y_0 = 1, Y_1 =
    x^8, Y_(2+q) = Y_q x^16), X_0 = 1 and X_j = X_(j-1) x^32 2^(g_j -
    g_(j-1)), scaled exactly; x^2h = x^h x^h, and X_0 Y_q is Y_q.  Then
    t_k = x^k c_k.  Every product is an elementwise complex product fixed
    by k alone, so a term depends neither on the chunk length nor on the
    other cells.  T_i, Y_q, X_j 2^-g_j and x^k are within (i - 1) d,
    (8q - 1) d, (32 j - 1) d and (k - 1) d of their values (k >= 1), d =
    sqrt(5) u the bound of one complex product (Brent, Percival and
    Zimmermann, Math. Comp. 2007; 2u with a fused multiply-add), so with
    c_k correctly rounded t_k is within (k d + u) |t_k| plus the error of x.
    """
    # one allocation for T_0..T_7, Y_0..Y_3 and X_j Y_0..X_j Y_3.  Both
    # factors of each product have the same number of dimensions: numpy
    # rounds a one-element product that broadcasts across dimensions by
    # another loop than its vector loop
    tables = np.empty((16,) + x.shape, dtype=complex)
    pw, ys, xys = tables[:8], tables[8:12], tables[12:]
    pw[0], pw[1] = 1.0, x
    sq = x[None] * x[None]
    np.multiply(pw[:2], sq, out=pw[2:4])
    sq = sq * sq
    np.multiply(pw[:4], sq, out=pw[4:8])
    ys[0] = 1.0
    ys[1:2] = sq * sq
    sq = ys[1:2] * ys[1:2]
    np.multiply(ys[:2], sq, out=ys[2:4])
    step = sq * sq  # x^32
    c, g = table(_table_length(_POWERS))
    size = _chunk_length(x.size * c.shape[1])
    xj, xy = None, ys
    for j in range(_KUMMER_KMAX // _POWERS):
        k0 = j * _POWERS
        if k0 + _POWERS > len(c):
            c, g = table(_table_length(k0 + _POWERS))
        if j:
            xj = _ldexp(step if xj is None else xj * step, int(g[j] - g[j - 1]))
            xy = np.multiply(ys, xj, out=xys)
        ks, cs = _INDICES[k0:k0 + _POWERS], c[k0:k0 + _POWERS, :, None]
        for i0 in range(0, _POWERS, size):
            i1 = min(i0 + size, _POWERS)
            if i0 >> 3 == (i1 - 1) >> 3:  # one Y_q: slices, the same products
                p = xy[i0 >> 3:(i0 >> 3) + 1] * pw[i0 & 7:(i1 - 1 & 7) + 1]
            else:
                p = xy[_Q_OF[i0:i1]] * pw[_I_OF[i0:i1]]
            yield ks[i0:i1], p * cs[i0:i1]


def _running(carry, rows):
    """The sums carry + rows[0], (carry + rows[0]) + rows[1], ..., one per
    row, added in order: by np.add.accumulate for a few series; a block
    passes one term at a time (see _chunk_length), and its sum is added
    into the carry in place.  The same additions, so the same bits."""
    if carry.size <= _ACCUMULATE_SERIES:
        out = np.concatenate([carry[None], rows])
        return np.add.accumulate(out, axis=0, out=out)[1:]
    (row,) = rows
    carry += row
    return carry[None]


def _after(row, block):
    # row followed by all but the last row of block: block shifted down by one
    return row[None] if len(block) == 1 else np.concatenate([row[None], block[:-1]])


def _kummer_hump(a: complex, b_re: float, r):
    # past k > hump, (k + 1)(k + b) > r^2/2 + 2|b/2 - a| r, so the majorant
    # (r^2/4 g_(k-1) + |b/2 - a| r g_k) / ((k + 1)(k + b)) of |term_(k+1)| halves
    # max(g_(k-1), g_k) in two steps: past K the tail is <= 2|term_(K-1)| + 2|term_K|
    return np.maximum(0.5 * r + 6.0, np.sqrt(0.5 * r * r + 2.0 * abs(0.5 * b_re - a) * r) - min(b_re, 1.0))


def _kummer_series_plain(a: complex, b_re: float, w):
    # F(w) = e^(-w/2) M(a, b, w) by its power series in complex double, each
    # cell to its own last term K, the first k - 1 past _kummer_hump where
    # |term_(k-1)| + |term_k| is not above 1e-20 sum|term| (NaN on overflow),
    # over the terms x^k Q_k of _term_chunks (x = w 2^-7, Q_k of _kummer_coeffs).
    # Term j is within (sqrt(5) j + 1) u, the partial sums S_j add u sum|S_j|
    # <= u sum (K + 1 - j)|term_j|: the bound u (1.25 sum j|term_j| + (K + 3)
    # sum|term|) also covers the tail.  sens bounds |w F'(w)| = |sum j term_j|.
    hump = _kummer_hump(a, b_re, np.abs(w))
    first, left = hump.min(initial=np.inf), w.size
    # the running sums through term k, carried from chunk to chunk: partial
    # sums S_k, sum_j<=k S_j, sum|term|, sum j|term| and |term_k|, and per
    # cell K and the four sums at K
    part, part_sum, s_abs, s_j_abs, t_last = (np.zeros(w.size, d) for d in (complex,) * 2 + (float,) * 3)
    last, at_last = np.empty(w.size), (np.empty_like(w), np.empty_like(w), np.empty(w.size), np.empty(w.size))
    for k, t in _term_chunks((w * (1.0 / _HORNER_SCALE))[None], lambda m: _kummer_coeffs(a, b_re, m)[1]):
        t_abs = np.abs(t[:, 0])
        pair, t_last = t_abs + _after(t_last, t_abs), t_abs[-1]
        p = _running(part, t[:, 0])
        ps, sa, sj = _running(part_sum, p), _running(s_abs, t_abs), _running(s_j_abs, k[:, None] * t_abs)
        part, part_sum, s_abs, s_j_abs = p[-1], ps[-1], sa[-1], sj[-1]
        if k[-1] <= first + 1.0:
            continue
        stop = ((k - 1.0)[:, None] > hump) & ~(pair > 1e-20 * sa)
        if stop.any():
            done = np.flatnonzero(np.logical_or.reduce(stop))
            r = stop[:, done].argmax(axis=0)
            last[done], at = k[r], r * w.size + done
            for got, s in zip(at_last, (p, ps, sa, sj)):
                got[done] = np.take(s, at)
            hump[done] = np.inf
            left -= done.size
            if not left:
                vals, s_sum, s_abs, s_j_abs = at_last
                bounds = _U * (1.25 * s_j_abs + (last + 3.0) * s_abs)
                # sum_j j term_j = (K + 1) S_K - sum_j S_j over the partial
                # sums S_0..S_K, within 3(K + 1) err
                return vals, bounds, np.abs((last + 1.0) * vals - s_sum) + 3.0 * (last + 1.0) * bounds
    raise ToleranceNotMet("kummer series did not converge within the term budget")


@functools.lru_cache(maxsize=32)
def _kummer_log_gammas(a: complex, b_re: float):
    # log Gamma of b, a and b - a by one call, kept: every one-cell call needs them
    return tuple(log_gamma(np.array([b_re, a, b_re - a])).tolist())


def _kummer_asymptotic(a: complex, b_re: float, w):
    """F(w) = e^(-w/2) M(a, b, w), Re w >= 0, by DLMF 13.7.2: F = Gamma(b)
    [e^(w/2) w^(a-b) S1 / Gamma(a) + e^(+-i pi a) e^(-w/2) w^(-a) S2 /
    Gamma(b-a)] = T1 S1 + T2 S2, upper sign for Im w >= 0, S1 and S2
    expanding U(b - a, b, -w) and U(a, b, w).

    The bound covers each sum's truncation by DLMF 13.7.5 (C_n = chi(n) <=
    sqrt(pi (n + 1) / 2) for S1, 1 for S2; it needs |w| > |b - 2a|) and
    rounding, 7.25 (n + 1) u sum|term|; as estimates, the rounding of the
    exponents, 4u (|w|/2 + |a - b||log w| + |log Gamma| + 8), and within
    pi/4 of ph w = 0, the Stokes line of T2 S2, twice its size under either
    sign.  Otherwise, or where not below |F|, it is infinite.  sens
    estimates |w F'(w)| by (|w|/2 + |a - b|)|T1 S1| + (|w|/2 + |a|)|T2 S2|.
    """
    # S1 and S2 as two rows of terms x^s c_s (_term_chunks), x = 2^7 / w and
    # c_s = (c1)_s (c2)_s / (s! 2^(7s)) for S1, (-1)^s times that for S2,
    # whose size only grows past s = max(|c1|, |c2|): a sum ends before the
    # first term there that the next does not undercut, or below 1e-20
    # sum|term|.  1/w is within 5u (Smith's division), so term s is within
    # (s (5 + sqrt(5)) + 1) u and the n partial sums add u sum (n - s)
    # |term_s|: 7.25 (n + 1) u sum|term| in all.
    s_min = np.array([[max(abs(1.0 - a), abs(b_re - a))], [max(abs(a), abs(a - b_re + 1.0))]])
    shape = (2, w.size)
    # carried from chunk to chunk, for s = k[0] - 1: term_s, |term_s| and
    # the sums of the terms and of |term| before s
    prev, acc, prev_abs, sum_abs = (np.zeros(shape, dtype=d) for d in (complex, complex, float, float))
    sums, n, s_abs, omitted = np.zeros(shape, complex), np.zeros(shape), np.zeros(shape), np.full(shape, np.inf)
    live = np.ones(shape, dtype=bool)
    for k, t in _term_chunks(((1.0 / w) * _HORNER_SCALE)[None], lambda m: _asymptotic_coeffs(a, b_re, m)):
        t_abs = np.abs(t)
        # s = k[0] - 1, whose growth test waited for this chunk
        first = live & (t_abs[0] >= prev_abs) & (k[0] - 1.0 >= s_min)
        if first.any():
            sums[first], omitted[first], s_abs[first] = acc[first], prev_abs[first], sum_abs[first]
            n[first] = k[0] - 1.0
            live &= ~first
        # s = k: the sums before s, and the tests of s but the last's growth test
        part = _running(acc, _after(prev, t))
        before = _running(sum_abs, _after(prev_abs, t_abs))
        stop = t_abs <= 1e-20 * before
        stop[:-1] |= (t_abs[1:] >= t_abs[:-1]) & (k[:-1, None, None] >= s_min)
        stop &= live
        if stop.any():
            rr, cc = np.divmod(np.flatnonzero(np.logical_or.reduce(stop)), w.size)
            r = stop[:, rr, cc].argmax(axis=0)
            sums[rr, cc], omitted[rr, cc], n[rr, cc], s_abs[rr, cc] = (
                part[r, rr, cc], t_abs[r, rr, cc], k[r], before[r, rr, cc])
            live[rr, cc] = False
        if not live.any():
            break
        prev, prev_abs, acc, sum_abs = t[-1], t_abs[-1], part[-1], before[-1]
    r, log_w = np.abs(w), np.log(w)
    abs_log = np.abs(log_w)
    lg_b, lg_a, lg_ba = _kummer_log_gammas(a, b_re)
    t1 = np.exp(lg_b - lg_a + 0.5 * w + (a - b_re) * log_w)
    base2 = np.exp(lg_b - lg_ba - 0.5 * w - a * log_w)
    t2 = base2 * np.where(w.imag >= 0.0, cmath.exp(1j * math.pi * a), cmath.exp(-1j * math.pi * a))
    p1, p2 = t1 * sums[0], t2 * sums[1]
    m1, m2 = np.abs(p1), np.abs(p2)
    sigma = abs(b_re - 2.0 * a) / r  # sigma, alpha, rho of DLMF 13.7.7, alike for both sums
    alpha = 1.0 / (1.0 - sigma)
    rho = 0.5 * abs(2.0 * a * (a - b_re) + b_re) + sigma * (1.0 + 0.25 * sigma) * alpha * alpha
    # C_n = sqrt(pi (n + 1) / 2) and C_1 = pi / 2 for S1, both 1 for S2
    grow = 2.0 * alpha * np.exp(_ASYM_C1 * (2.0 * alpha * rho / r)) * omitted
    grow[0] *= np.sqrt(0.5 * math.pi * (n[0] + 1.0))
    trunc = grow + 7.25 * _U * (n + 1.0) * s_abs
    # the exponents' rounding, 4u (... + 8) each, and 8u (m1 + m2) for T1 S1 + T2 S2
    expo = 4.0 * _U * (m1 * (0.5 * r + abs(a - b_re) * abs_log + (abs(lg_a) + abs(lg_b) + 10.0))
                       + m2 * (0.5 * r + abs(a) * abs_log + (abs(a) * math.pi + abs(lg_ba) + abs(lg_b) + 10.0)))
    stokes = np.where(np.abs(log_w.imag) < 0.25 * math.pi,
                      4.0 * math.cosh(math.pi * a.imag) * np.abs(base2 * sums[1]), 0.0)
    # an imaginary part that cancels exactly (F is real on the imaginary axis
    # where b - a = conj a) takes the sign of p1's, which conj a, conj w flip
    value = p1 + p2
    value.imag = np.where(value.imag == 0.0, np.copysign(0.0, p1.imag), value.imag)
    bound = np.abs(t1) * trunc[0] + np.abs(t2) * trunc[1] + expo + stokes
    sens = (0.5 * r + abs(a - b_re)) * m1 + (0.5 * r + abs(a)) * m2
    return value, np.where((bound < np.abs(value)) & (sigma < 1.0), bound, np.inf), sens


def _abs_terms(a: complex, b_re: float, r):
    # (k, |term_k-1| + |term_k|, sum_j<=k |term_j|) for k = 1, 2, ..., with
    # |term_k| = |Q_k| (r 2^-7)^k in plain double from the high parts of
    # the double-double table, for a float r or, with the same bits per
    # element, an array
    x, q = r * (1.0 / _HORNER_SCALE), ((),) * 4
    p = t = s = 1.0 if isinstance(r, float) else np.ones(r.size)
    for k in range(1, _KUMMER_KMAX):
        if k >= len(q[0]):
            q = _kummer_coeffs(a, b_re, _table_length(k + 1))[0]
        p = p * x
        prev, t = t, math.hypot(q[0][k], q[2][k]) * p
        s = s + t
        yield k, prev + t, s
    raise ToleranceNotMet("kummer series did not converge within the term budget")


def _kummer_last_terms(a: complex, b_re: float, r):
    # Per cell of |w| = r: the last term K, the first index past _kummer_hump whose
    # |term| and the one before add to at most 1e-34 sum|term| so far, and that sum
    last, sums, hump = np.zeros(r.size, dtype=int), np.empty(r.size), _kummer_hump(a, b_re, r)
    for k, t, s in _abs_terms(a, b_re, r):
        done = ((k > hump) & (t <= 1e-34 * s)).nonzero()[0]
        last[done], sums[done], hump[done] = k, s[done], np.inf
        if last.all():
            return last, sums


def _kummer_horner(a: complex, b_re: float, w):
    """F's series sum_k<=K Q_k x^k, x = w 2^-7, by Horner's rule in double-
    double: per cell the four parts (re_hi, re_lo, im_hi, im_lo) and the
    bound ``_NOISE_PER_TERM K sum|term|``.  A one-cell call runs the
    steps of :func:`_horner_block` on Python floats.
    """
    r, x = np.abs(w), w * (1.0 / _HORNER_SCALE)  # the scale is exact
    if w.size > 1:
        return _horner_block(a, b_re, r, x)
    hump = float(_kummer_hump(a, b_re, r[0]))
    for last, t, s in _abs_terms(a, b_re, float(r[0])):
        if last > hump and t <= 1e-34 * s:
            break
    q, _ = _kummer_coeffs(a, b_re, _table_length(last + 1))
    x_re, x_im = split(float(x.real[0])), split(float(x.imag[0]))
    acc = tuple(col[last] for col in q)
    for k in range(last - 1, -1, -1):
        acc = horner_step(acc, x_re, x_im, tuple(col[k] for col in q))
    return tuple(np.array([v]) for v in acc), np.array([_NOISE_PER_TERM * last * s])


def _horner_block(a: complex, b_re: float, r, x):
    # Cells run in order of falling K, so the cells still summing at step k
    # are a prefix; a cell joins at its K with acc = Q_K.
    last, s = _kummer_last_terms(a, b_re, r)
    order = np.argsort(-last, kind="stable")
    last_sorted = last[order]
    q, _ = _kummer_coeffs(a, b_re, _table_length(int(last_sorted[0]) + 1))
    x_re, x_im = split(x.real[order]), split(x.imag[order])
    acc = [np.zeros(x.size) for _ in range(4)]
    # live[k]: the number of cells whose last term is k or later
    live = np.searchsorted(-last_sorted, -np.arange(last_sorted[0] + 1), side="right")
    n = 0
    for k in range(last_sorted[0], -1, -1):
        qk = tuple(col[k] for col in q)
        if n:
            step = horner_step([p[:n] for p in acc], [v[:n] for v in x_re], [v[:n] for v in x_im], qk)
            for p, v in zip(acc, step):
                p[:n] = v
        for p, v in zip(acc, qk):
            p[n:live[k]] = v
        n = live[k]
    unsort = np.argsort(order)
    return tuple(p[unsort] for p in acc), _NOISE_PER_TERM * last * s


def _kummer_series_dd(a: complex, b_re: float, w):
    """F(w) = e^(-w/2) M(a, b, w) by its power series in double-double
    arithmetic, which absorbs the cancellation of strongly complex w.

    Each cell finds its own last term K by a plain-double pass over
    |term_k| (:func:`_abs_terms`), then sums terms K down to 0 by Horner's
    rule on x = w 2^-7 with the cached Q_k = f_k 2^(7k) of
    :func:`_kummer_coeffs`.  The scale is exact, so a cell's bits do not
    depend on the other cells.

    The bound is ``_NOISE_PER_TERM K sum|term|``, 40.6 u^2 K sum|term|
    with u = 2^-53.  A Horner step errs by at most u^2 (17 |acc||x|
    + 5 |Q_k|) (:func:`~rzspec.ddouble.horner_step`) and |acc_k+1||x|^(k+1)
    <= sum_j>k |term_j|, so the steps add at most u^2 (17 K + 5) sum|term|;
    the correctly rounded Q_k add u^2 sum|term|, and 40.6 K u^2 >= (17 K +
    6) u^2 for K >= 1.  The slack also covers the plain-double sum|term|,
    within (2K + 2)u of its value, and the tail past K, at most 2e-34
    sum|term| (:func:`_kummer_hump`).  Rounding the result to double is not covered.
    Returns (values, bounds, None): |w F'| keeps the plain series' bound.
    """
    (rh, rl, ih, il), noise = _kummer_horner(a, b_re, w)
    vals = np.empty(w.size, dtype=complex)
    vals.real, vals.imag = rh + rl, ih + il
    return vals, np.where(np.isfinite(vals), noise, np.inf), None


class _KummerGrid(tuple):
    """(values, bounds), unpacking as a pair, plus ``sens``, a bound on |z dM/dz|."""


def _distinct(w):
    # (first, inverse) for a complex array: the index of one element per
    # distinct bit pattern, so that 0.0 and -0.0 stay apart, and for each
    # element the position of its pattern in first
    bits = np.ascontiguousarray(w).view(np.uint64).reshape(-1, 2)
    order = np.lexsort((bits[:, 1], bits[:, 0]))
    ranked = bits[order]
    new = np.ones(w.size, dtype=bool)
    new[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    inv = np.empty(w.size, dtype=np.intp)
    inv[order] = np.cumsum(new) - 1
    return order[new], inv


def _kummer_routes(a: complex, b_re: float, w, rel_tols):
    # (values, bounds, sens) of F(w) = e^(-w/2) M(a, b, w), Re w >= 0, each
    # cell from the first route whose bound is within that route's tolerance
    # of |F|, else the smallest bound any route gave
    r = np.abs(w)
    vals, bounds, sens = np.zeros(w.size, dtype=complex), np.full(w.size, np.inf), np.zeros(w.size)
    pending = np.ones(w.size, dtype=bool)
    # the asymptotic expansion needs |w| well above |a|; at a pole of
    # Gamma(a) or Gamma(b - a) M is a polynomial, left to the series
    poles = [v.imag == 0.0 and v.real <= 0.0 and v.real == math.floor(v.real) for v in (a, b_re - a)]
    asym = r >= (np.inf if any(poles) else 2.0 * abs(a) + _ASYM_RADIUS)
    # blocks in |w| order, whose cells need about as many terms; the double-
    # double Horner pass drops finished cells, so its cells are one block
    for route, tried, tol, block in zip((_kummer_asymptotic, _kummer_series_plain, _kummer_series_dd),
                                        (asym, True, True), rel_tols + (0.0,),
                                        (_KUMMER_BLOCK, _KUMMER_BLOCK, w.size)):
        cells = np.flatnonzero(pending & tried)
        cells = cells[np.argsort(r[cells], kind="stable")]
        for start in range(0, cells.size, block):
            blk = cells[start:start + block]
            v, e, s = route(a, b_re, w[blk])
            take = e < bounds[blk]
            vals[blk[take]], bounds[blk[take]] = v[take], e[take]
            if s is not None:  # the double-double series keeps the plain one's
                sens[blk[take]] = s[take]
            pending[blk[take & (e <= tol * np.abs(v))]] = False
    return vals, bounds, sens


def _kummer_routed(a, b, z, rel_tols):
    a, b = complex(a), complex(b)
    if b.imag == 0.0 and b.real == math.floor(b.real) and b.real <= 0.0:
        raise PoleError(f"kummer_m pole at b = {b.real:g}")
    if b.imag != 0.0:
        raise NotImplementedError("kummer_m_grid supports real b only")
    z = np.asarray(z, dtype=complex)
    if not (cmath.isfinite(a) and np.all(np.isfinite(z))):
        raise ValueError("kummer_m_grid needs finite a and z")
    if z.size and float(np.max(np.abs(z))) > KUMMER_RADIUS:
        raise ToleranceNotMet(f"|z| beyond the documented series budget {KUMMER_RADIUS:g}")
    zf = z.ravel()
    # M(a, b, z) = e^(z/2) F_a(z), and by the Kummer transformation F_a(z) =
    # F_(b-a)(-z): the asymptotic route sees Re(argument) >= 0, the series
    # the terms of F_a at z, as f_k(b - a) = (-1)^k f_k(a).
    flip = zf.real < 0
    w = np.where(flip, -zf, zf)
    # For real b, M(b-a, b, w) = conj M(conj(b-a), b, conj w), and every
    # route keeps this bit for bit off the real axis (on it the asymptotic
    # route takes the upper Stokes sign under either sign of zero).  Where
    # b - a = conj a, as in both Landau sectors, a flipped cell off the real
    # axis thus reads the a-side key conj w: on a grid symmetric under
    # x <-> y that is the key of its unflipped mirror cell.
    ba = b.real - a
    fold = flip & (w.imag != 0.0) & (ba.conjugate() == a)
    key = np.where(fold, w.conjugate(), w)
    vals, bounds, sens = np.empty(w.size, dtype=complex), np.empty(w.size), np.empty(w.size)
    with np.errstate(over="ignore", invalid="ignore"):
        for a_eff, side in ((a, ~flip | fold), (ba, flip & ~fold)):
            cells = np.flatnonzero(side)
            if not cells.size:  # one-cell calls leave a side empty
                continue
            first, inv = _distinct(key[cells])
            v, e, s = _kummer_routes(a_eff, b.real, key[cells[first]], rel_tols)
            vals[cells], bounds[cells], sens[cells] = v[inv], e[inv], s[inv]
    vals = np.where(fold, vals.conjugate(), vals)
    pref = np.exp(0.5 * zf)
    m = vals * pref  # out of place: numpy's in-place complex product may round differently
    apref, am = np.abs(pref), np.abs(m)
    bounds *= apref
    bounds += _ROUNDING_EPS * am
    # z M'(z) = e^(z/2) (z F / 2 + w F'(w)), the routes bounding |w F'(w)|
    sens *= apref
    sens += 0.5 * np.abs(zf) * am
    out = _KummerGrid((m.reshape(z.shape), bounds.reshape(z.shape)))
    out.sens = sens.reshape(z.shape)
    return out


def kummer_m_grid(a, b, z):
    """Vectorized M(a, b, z) over an array of arguments.

    Returns ``(values, bounds)`` for a scalar a and real b (all uses here
    have b = 1/2 or 3/2).  After the Kummer transformation to Re z >= 0 a
    cell of M = e^(z/2) F ends on the first route for F whose bound is small
    enough: from |z| = 2|a| + 20 the asymptotic expansion (DLMF 13.7.2),
    within 1e-10 of |F|; the series of F = e^(-z/2) M (DLMF 13.14), of
    exponential type 1/2, in complex double, within 1e-13; or F's series in
    double-double, by Horner's rule on z 2^-7.  It keeps the value with the
    smallest bound.  Where b - a = conj(a), as in both Landau sectors, a
    flipped cell off the real axis is evaluated as conj M(a, b, conj(-z)),
    which every route gives with the bits of M(b - a, b, -z); on a grid
    symmetric under z -> -conj z the flipped half thus reads the values
    of the other.  Each distinct argument is evaluated once.

    The plain and asymptotic routes sum terms x^k c_k, with x = w 2^-7 and
    the coefficients f_k 2^(7k) of the Horner pass or x = 2^7 / w, w the
    transformed argument.  The terms are formed a chunk of indices at a
    time: 32 for a call with up to eight series, one for a block of more.
    x^k = (x^(32 j) x^(8 q)) x^i for k = 32 j + 8 q + i, from tables of
    x^i and x^(8q) and a chain of x^32, is a recipe fixed by k, and the
    sums run in order of k, by np.add.accumulate over a chunk or one term
    at a time over a block: the same additions.  Term k is within
    (sqrt(5) k + 1) u of its value (u = eps/2) on the plain series, which
    bounds the error by u (1.25 sum k|term_k| + (K + 3) sum|term|) at its
    last term K, and within (7.24 k + 1) u on the asymptotic sums, whose
    rounding is within 7.25 (n + 1) u sum|term| over n terms.  Every route
    stops each cell at its own last term, so a cell equals its one-cell
    :func:`kummer_m_bounded` call bit for bit, whatever the chunk length.

    A bound covers, for the given double z, the rounding of the route and
    of the result to double, including the factor e^(z/2), and the tail
    of F's series past its last term.  It is certified on series cells; on
    asymptotic cells only the truncation is (DLMF 13.7.5).  Cells whose
    cancellation exhausts every route's precision do not raise -- callers
    decide what to do with the bound.  An empty ``z`` gives two empty arrays; a NaN or
    infinite a or z raises ``ValueError``.  The pair also carries ``sens``,
    a bound on |z dM/dz|.
    """
    return _kummer_routed(a, b, z, _ROUTE_REL_TOLS)


def kummer_m_bounded(a, b, z):
    """Scalar M(a, b, z) returning ``(value, abs_error_bound)``."""
    vals, noise = kummer_m_grid(a, b, np.array([complex(z)]))
    return complex(vals[0]), float(noise[0])


def kummer_m(a, b, z) -> complex:
    """Confluent hypergeometric M(a, b, z) by every route of
    :func:`kummer_m_grid`, keeping the value with the smallest bound.

    Raises :class:`ToleranceNotMet` when |z| exceeds the documented budget
    ``KUMMER_RADIUS`` or when the error bound exceeds 1e-12 relative
    to the result, rather than returning silently degraded values.  Raises
    :class:`PoleError` for b a non-positive integer.
    """
    vals, bounds = _kummer_routed(a, b, np.array([complex(z)]), (0.0, 0.0))
    value, err = complex(vals[0]), float(bounds[0])
    if err > 1e-12 * max(abs(value), 1e-300):
        raise ToleranceNotMet(
            f"kummer_m cancellation leaves error {err:.2e} on |M| = {abs(value):.2e}")
    return value
