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
  M(a, b, z) for ``|z| <= 200``, each cell by the cheapest valid route:
  the power series in complex double, the large-|z| asymptotic expansion
  (DLMF 13.7.2), or the power series in double-double arithmetic, which
  absorbs the cancellation of strongly complex z, by Horner's rule on z
  2^-7 over coefficients P_k 2^(7k) cached per (a, b).  Every value
  carries an absolute error bound, certified on the series routes and,
  in its truncation part, on the asymptotic one.  A one-cell call gives
  its grid cell's bits.

All evaluators are pure functions and safe for concurrent use.
"""

from __future__ import annotations

import cmath
import functools
import math

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
    abscissae and of their rows to values.  Row sums go through
    ``np.bincount``, which adds each row's terms in order whatever the other
    rows hold, so a row's value is its one-row value bit for bit.  A row
    closes when |S_L - S_(L-1)| <= max(1e-13 |S_L|, 64 u h sum|f|), the
    second term the rounding floor of the sum.  For an integrand analytic
    in a strip the rule converges geometrically in 1/h (Trefethen and
    Weideman, SIAM Review 56, 2014), so the last difference bounds the
    error of the previous level and S_L is far better.
    """
    n = len(u_max)
    out = np.empty(n, dtype=complex)
    rows = np.arange(n)

    def level(h, first, stride):
        # h times the sums of f and |f| at k h, k = first, first + stride, ...
        # up to u_max, for each open row
        count = (np.floor(u_max[rows] / h).astype(np.int64) - first) // stride + 1
        r = np.repeat(rows, count)
        k = first + stride * (np.arange(len(r)) - np.repeat(np.cumsum(count) - count, count))
        vals = f(k * h, r)
        if first == 0:
            vals[k == 0] *= 0.5
        return (h * (np.bincount(r, vals.real, n) + 1j * np.bincount(r, vals.imag, n)),
                h * np.bincount(r, np.abs(vals), n))

    h = _H_FIRST
    s, a = level(h, 0, 1)
    while h > _H_FINEST:
        h *= 0.5
        ds, da = level(h, 1, 2)
        s, s_prev, a = 0.5 * s + ds, s, 0.5 * a + da
        diff = np.abs(s[rows] - s_prev[rows])
        done = diff <= np.maximum(1e-13 * np.abs(s[rows]), 64.0 * _U * a[rows])
        out[rows[done]] = s[rows[done]]
        rows = rows[~done]
        if not len(rows):
            return out
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
    for bit.  No threads are used.

    Respects ``K_nu = K_{-nu}`` and ``K_conj(nu) = conj(K_nu)`` exactly by
    construction.  Raises :class:`ToleranceNotMet` if the truncation point
    of any order exceeds ``MAX_ABSCISSA``, or if the rule for any order is
    still open at its finest step.

    Against mpmath on 3400 random orders (a in [0, 5], mu in [0, 150], z in
    [0.02, 100]): at worst 9.2e-9 relative, at a = 0.59, mu = 99.3, z = 85.4,
    where mu is just above z and the contour stops short of the saddle.
    """
    z = float(z)
    if not z > 0:
        raise ValueError("bessel_k_complex_order requires z > 0")
    shape = nu.shape
    nu = nu.astype(complex).ravel()
    nu = np.where(nu.real < 0, -nu, nu)
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
        return np.exp(-c[r] * np.cosh(u)) * np.cosh(a[r] * u + 1j * (mu[r] * u - zs[r] * np.sinh(u)))

    out = np.empty(len(nu), dtype=complex)
    for i in range(0, len(nu), _K_BLOCK):
        b = np.arange(i, min(i + _K_BLOCK, len(nu)))
        out[b] = _nested_trapezoid(lambda u, r: integrand(u, b[r]), u_hi[b])
    # not in place: numpy's in-place complex product of a one-element array
    # can round differently from its vector loop, and a one-order call
    # must give its array element's bits
    out = np.exp(1j * nu * alpha) * out
    return np.where(conj, out.conjugate(), out).reshape(shape)


# --------------------------------------------------------------------------
# Kummer confluent hypergeometric M(a, b, z)
# --------------------------------------------------------------------------

KUMMER_RADIUS = 200.0   # documented series budget
_KUMMER_KMAX = 1600
_NOISE_PER_TERM = 5e-31  # double-double rounding per term (see _kummer_series_dd)
_KUMMER_BLOCK = 4096     # cells per asymptotic or plain call, which runs to its slowest cell
_HORNER_SCALE = 2 ** 7   # the double-double series sums Q_k (w / 2^7)^k, Q_k = P_k 2^(7k)
# Rounding the double-double sum to double costs at most u|M| (u = eps/2).
# On flipped cells e^z carries at most 5u (exp, cos and sin within one ulp
# each, plus the rounding of their product) and the complex product with
# it sqrt(5) u (Brent, Percival and Zimmermann, Math. Comp. 2007): 8.3u in
# all, which 5 eps = 10u covers with room for the second-order terms.
_ROUNDING_EPS = 5.0 * np.finfo(float).eps
# relative bounds that end the routing on the asymptotic expansion (where
# the double-double series is long) and on the plain series (where it is short)
_ROUTE_REL_TOLS = (1e-10, 1e-13)
_ASYM_RADIUS = 20.0      # the asymptotic route runs from |w| = 2|a| + _ASYM_RADIUS


def _kummer_series_plain(a: complex, b_re: float, w):
    # The power series in complex double, each cell to its own last term,
    # the first k > |w| + 6 with |term_k| <= 1e-20 sum|term|.  Term j is
    # within 8j u (two complex products and the ratio a step), the partial
    # sums S_j add u sum|S_j| <= u sum (k + 1 - j)|term_j|: the bound u (7
    # sum j|term_j| + (k + 2) sum|term|) also covers the tail.  sens bounds
    # |w M'(w)| = |sum j term_j|.
    ks = np.arange(_KUMMER_KMAX, dtype=float)
    ratios = ((a + ks) / ((b_re + ks) * (ks + 1.0))).tolist()  # term_k+1 = term_k w ratio_k
    term, acc, acc_sum = np.ones_like(w), np.ones_like(w), np.ones_like(w)
    sum_abs, sum_j_abs = np.ones(w.size), np.zeros(w.size)
    vals, bounds, sens = np.empty_like(w), np.empty(w.size), np.empty(w.size)
    hump = np.abs(w) + 6.0
    first, left = hump.min(initial=np.inf), w.size
    for k, ratio in enumerate(ratios):
        term = term * w * ratio
        acc = acc + term
        acc_sum = acc_sum + acc
        t_abs = np.abs(term)
        sum_abs += t_abs
        sum_j_abs += (k + 1) * t_abs
        if k <= first:
            continue
        done = ((k > hump) & (t_abs <= 1e-20 * sum_abs)).nonzero()[0]
        if done.size:
            err = _U * (7.0 * sum_j_abs[done] + (k + 3) * sum_abs[done])
            vals[done], bounds[done] = acc[done], err
            # sum_j j term_j = (k + 2) S_k+1 - sum_j S_j over the partial
            # sums S_0..S_k+1, within 3(k + 2) err
            sens[done] = np.abs((k + 2) * acc[done] - acc_sum[done]) + 3.0 * (k + 2) * err
            hump[done] = np.inf
            left -= done.size
            if not left:
                return vals, bounds, sens
    raise ToleranceNotMet("kummer series did not converge within the term budget")


@functools.lru_cache(maxsize=32)
def _kummer_log_gammas(a: complex, b_re: float):
    # log Gamma of b, a and b - a by one call, kept: every one-cell call needs them
    return tuple(log_gamma(np.array([b_re, a, b_re - a])).tolist())


def _kummer_asymptotic(a: complex, b_re: float, w):
    """M(a, b, w), Re w >= 0, by DLMF 13.7.2: M = Gamma(b) [e^w w^(a-b) S1 /
    Gamma(a) + e^(+-i pi a) w^(-a) S2 / Gamma(b-a)] = T1 S1 + T2 S2, upper
    sign for Im w >= 0, S1 and S2 expanding U(b - a, b, -w) and U(a, b, w).

    The bound covers each sum's truncation by DLMF 13.7.5 (C_n = chi(n) <=
    sqrt(pi (n + 1) / 2) for S1, 1 for S2; it needs |w| > |b - 2a|) and
    rounding, 8(n + 2) u sum|term|; as estimates, the rounding of the
    exponents, 4u (|w| + |a - b||log w| + |log Gamma| + 8), and within pi/4
    of ph w = 0, the Stokes line of T2 S2, twice its size under either
    sign.  Otherwise, or where not below |M|, it is infinite.  sens
    estimates |w M'(w)| by (|w| + |a - b|)|T1 S1| + |a||T2 S2|.
    """
    # S1 and S2 as two rows, term_s+1 = term_s x (c1 + s)(c2 + s) / (s + 1),
    # whose size only grows past s = max(|c1|, |c2|): a sum ends before the
    # first term there that the next does not undercut, or below 1e-20 sum|term|.
    c1, c2 = np.array([[1.0 - a], [a]]), np.array([[b_re - a], [a - b_re + 1.0]])
    ss = np.arange(_KUMMER_KMAX, dtype=float)
    x = np.array([[1.0], [-1.0]]) / w
    s_min = np.maximum(np.abs(c1), np.abs(c2))
    term, acc, t_abs, sum_abs = np.ones_like(x), np.zeros_like(x), np.ones(x.shape), np.zeros(x.shape)
    sums, omitted, n, s_abs = np.empty_like(x), np.full(x.shape, np.inf), np.empty(x.shape), np.empty(x.shape)
    live = np.ones(x.shape, dtype=bool)
    for s, ratio in enumerate(((c1 + ss) * (c2 + ss) / (ss + 1.0)).T[:, :, None]):
        nxt = term * x * ratio
        n_abs = np.abs(nxt)
        done = (live & (((n_abs >= t_abs) & (s >= s_min)) | (t_abs <= 1e-20 * sum_abs))).nonzero()
        if done[0].size:
            sums[done], omitted[done], n[done], s_abs[done] = acc[done], t_abs[done], s, sum_abs[done]
            live[done] = False
            if not live.any():
                break
        acc = acc + term
        sum_abs += t_abs
        term, t_abs = nxt, n_abs
    log_w = np.log(w)
    lg_b, lg_a, lg_ba = _kummer_log_gammas(a, b_re)
    t1 = np.exp(lg_b - lg_a + w + (a - b_re) * log_w)
    base2 = np.exp(lg_b - lg_ba - a * log_w)
    t2 = base2 * np.where(w.imag >= 0.0, cmath.exp(1j * math.pi * a), cmath.exp(-1j * math.pi * a))
    p1, p2 = t1 * sums[0], t2 * sums[1]
    m1, m2 = np.abs(p1), np.abs(p2)
    sigma = abs(b_re - 2.0 * a) / np.abs(w)  # sigma, alpha, rho of DLMF 13.7.7, alike for both sums
    alpha = 1.0 / (1.0 - sigma)
    rho = 0.5 * abs(2.0 * a * (a - b_re) + b_re) + sigma * (1.0 + 0.25 * sigma) * alpha * alpha
    c_n = np.stack([np.sqrt(0.5 * math.pi * (n[0] + 1.0)), np.ones(w.size)])
    c_1 = np.array([[0.5 * math.pi], [1.0]])
    trunc = 2.0 * alpha * c_n * omitted * np.exp(2.0 * alpha * rho * c_1 / np.abs(w)) + 8.0 * _U * (n + 2.0) * s_abs
    expo = 4.0 * _U * (m1 * (np.abs(w) + abs(a - b_re) * np.abs(log_w) + abs(lg_a) + abs(lg_b) + 8.0)
                       + m2 * (abs(a) * (np.abs(log_w) + math.pi) + abs(lg_ba) + abs(lg_b) + 8.0))
    stokes = np.where(np.abs(log_w.imag) < 0.25 * math.pi,
                      4.0 * math.cosh(math.pi * a.imag) * np.abs(base2 * sums[1]), 0.0)
    value = p1 + p2
    bound = np.abs(t1) * trunc[0] + np.abs(t2) * trunc[1] + 8.0 * _U * (m1 + m2) + expo + stokes
    sens = (np.abs(w) + abs(a - b_re)) * m1 + abs(a) * m2
    return value, np.where((bound < np.abs(value)) & (sigma < 1.0), bound, np.inf), sens


@functools.lru_cache(maxsize=32)
def _kummer_coeffs(a: complex, b_re: float, n: int):
    """Q_k = P_k 2^(7k), P_k = (a)_k / ((b)_k k!), for k < n: four tuples
    (re_hi, re_lo, im_hi, im_lo), each correctly rounded to double-double
    from exact integers, so no entry depends on n or on earlier tables.
    P_k alone underflows from about k = 150; 1e-87 < |Q_k| < 1e67 for the
    k < 512 that |w| <= 200 needs in the Landau sectors up to E = 40.
    """
    (ar, sr), (ai, si), (bn, sb) = (x.as_integer_ratio() for x in (a.real, a.imag, b_re))
    s = max(sr, si)  # a power of two, like sr, si and sb
    ar, ai = ar * (s // sr), ai * (s // si)
    nr, ni, den = 1, 0, 1  # Q_k = (nr + i ni) / den
    cols = ([], [], [], [])
    for k in range(n):
        for num, hi_col, lo_col in ((nr, cols[0], cols[1]), (ni, cols[2], cols[3])):
            try:
                hi = num / den  # integer true division rounds correctly
                p, q = hi.as_integer_ratio()
                lo = (num * q - p * den) / (den * q)
            except OverflowError:  # the cells that reach Q_k get an infinite bound
                hi, lo = math.inf if (num < 0) == (den < 0) else -math.inf, 0.0
            hi_col.append(hi)
            lo_col.append(lo)
        fr = ar + k * s
        nr, ni = (nr * fr - ni * ai) * _HORNER_SCALE * sb, (nr * ai + ni * fr) * _HORNER_SCALE * sb
        den *= s * (bn + k * sb) * (k + 1)
    return tuple(map(tuple, cols))


def _abs_terms(a: complex, b_re: float, r):
    # (k, |term_k+1|, sum_j<=k+1 |term_j|) for k = 0, 1, ... by the plain-
    # double recurrence |term_k+1| = |term_k| r |a + k| / ((b + k)(k + 1)),
    # for a float r or, with the same bits per element, an array
    t = s = 1.0 if isinstance(r, float) else np.ones(r.size)
    for k in range(_KUMMER_KMAX):
        t = t * r * (math.hypot(a.real + k, a.imag) / ((b_re + k) * (k + 1.0)))
        s = s + t
        yield k, t, s
    raise ToleranceNotMet("kummer series did not converge within the term budget")


def _kummer_last_terms(a: complex, b_re: float, r):
    # Per cell of |w| = r: the last term K, the first index past r + 6 whose
    # |term| is at most 1e-34 times the sum of |term| so far, and that sum
    last, sums, hump = np.zeros(r.size, dtype=int), np.empty(r.size), r + 6.0
    for k, t, s in _abs_terms(a, b_re, r):
        done = ((k > hump) & (t <= 1e-34 * s)).nonzero()[0]
        last[done], sums[done], hump[done] = k + 1, s[done], np.inf
        if last.all():
            return last, sums


def _kummer_horner(a: complex, b_re: float, w):
    """The series sum_k<=K Q_k x^k, x = w 2^-7, by Horner's rule in double-
    double: per cell the four parts (re_hi, re_lo, im_hi, im_lo) and the
    bound ``_NOISE_PER_TERM K sum|term|``.  A one-cell call runs the
    steps of :func:`_horner_block` on Python floats.
    """
    r, x = np.abs(w), w * (1.0 / _HORNER_SCALE)  # the scale is exact
    if w.size > 1:
        return _horner_block(a, b_re, r, x)
    hump = float(r[0]) + 6.0
    for k, t, s in _abs_terms(a, b_re, float(r[0])):
        if k > hump and t <= 1e-34 * s:
            break
    last = k + 1
    q = _kummer_coeffs(a, b_re, 1 << last.bit_length())
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
    q = _kummer_coeffs(a, b_re, 1 << int(last_sorted[0]).bit_length())
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
    """M(a, b, w) by the power series in double-double arithmetic, which
    absorbs the cancellation of strongly complex w.

    Each cell finds its own last term K by a plain-double pass over
    |term_k| (:func:`_abs_terms`), then sums terms K down to 0 by
    Horner's rule on x = w 2^-7 with the cached Q_k = P_k 2^(7k) of
    :func:`_kummer_coeffs`.  The scale is exact, so a cell's bits do not
    depend on the other cells.

    The bound is ``_NOISE_PER_TERM K sum|term|``, 40.6 u^2 K sum|term|
    with u = 2^-53.  A Horner step errs by at most u^2 (17 |acc||x|
    + 5 |Q_k|) (:func:`~rzspec.ddouble.horner_step`) and |acc_k+1||x|^(k+1)
    <= sum_j>k |term_j|, so the steps add at most u^2 (17 K + 5) sum|term|;
    the correctly rounded Q_k add u^2 sum|term|, and 40.6 K u^2 >= (17 K +
    6) u^2 for K >= 1 (K >= 8 here, as K passes |w| + 6).  The slack also
    covers the plain-double sum|term|, within 3Ku of its value, and the
    tail past K, about 1e-34 sum|term|.  The rounding of the result to
    double is not covered.
    Returns (values, bounds, None): |w M'| keeps the plain series' bound.
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
    # (values, bounds, sens) of M(a, b, w), Re w >= 0, each cell from the
    # first route whose bound is within that route's tolerance of |M|, else
    # the smallest bound any route gave
    r = np.abs(w)
    vals, bounds, sens = np.zeros(w.size, dtype=complex), np.full(w.size, np.inf), np.zeros(w.size)
    pending = np.ones(w.size, dtype=bool)
    # the asymptotic expansion needs |w| well above |a|; at a pole of
    # Gamma(a) or Gamma(b - a) M is a polynomial, left to the series
    asym = r >= 2.0 * abs(a) + _ASYM_RADIUS
    if _gamma_pole(np.array([a, b_re - a])).any():
        asym[:] = False
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
    # Kummer transformation M(a,b,z) = e^z M(b-a, b, -z) keeps Re(argument)
    # nonnegative, which minimizes the cancellation of the series.
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
    vals[fold] = vals[fold].conjugate()
    pref = np.ones_like(vals)
    pref[flip] = np.exp(zf[flip])
    m = vals * pref  # out of place: numpy's in-place complex product may round differently
    apref, am = np.abs(pref), np.abs(m)
    bounds *= apref
    bounds += _ROUNDING_EPS * am
    sens *= apref
    sens[flip] += np.abs(zf[flip]) * am[flip]
    out = _KummerGrid((m.reshape(z.shape), bounds.reshape(z.shape)))
    out.sens = sens.reshape(z.shape)
    return out


def kummer_m_grid(a, b, z):
    """Vectorized M(a, b, z) over an array of arguments.

    Returns ``(values, bounds)`` for a scalar a and real b (all uses here
    have b = 1/2 or 3/2).  After the Kummer transformation to Re z >= 0 a
    cell ends on the first route whose bound is small enough: from |z| =
    2|a| + 20 the large-|z| asymptotic expansion (DLMF 13.7.2), within
    1e-10 of |M|; the power series in complex double, within 1e-13; or the
    power series in double-double arithmetic, by Horner's rule on z 2^-7
    with cached coefficients P_k 2^(7k).  It keeps the value with the
    smallest bound.  Where b - a = conj(a), as in both Landau sectors, a
    flipped cell off the real axis is evaluated as conj M(a, b, conj(-z)),
    which every route gives with the bits of M(b - a, b, -z); on a grid
    symmetric under z -> -conj z the flipped half thus reads the values
    of the other.  Each distinct argument is evaluated once.  Every route
    stops each cell at its own last term, so a cell equals its one-cell
    :func:`kummer_m_bounded` call bit for bit.

    A bound covers, for the given double z, the rounding of the route and
    of the result to double, including the factor e^z of the Kummer
    transformation.  It is certified on series cells; on asymptotic cells
    only the truncation is (DLMF 13.7.5).  Cells whose cancellation
    exhausts every route's precision do not raise -- callers decide what
    to do with the bound.  An empty ``z`` gives two empty arrays; a NaN or
    infinite a or z raises ``ValueError``.  The pair also carries ``sens``,
    a bound on |z dM/dz|.
    """
    return _kummer_routed(a, b, z, _ROUTE_REL_TOLS)


def kummer_m_bounded(a, b, z):
    """Scalar M(a, b, z) returning ``(value, abs_error_bound)``."""
    vals, noise = kummer_m_grid(a, b, np.array([complex(z)]))
    return complex(vals[0]), float(noise[0])


def kummer_m(a, b, z, rel_tol: float = 1e-12) -> complex:
    """Confluent hypergeometric M(a, b, z) by every route of
    :func:`kummer_m_grid`, keeping the value with the smallest bound.

    Raises :class:`ToleranceNotMet` when |z| exceeds the documented budget
    ``KUMMER_RADIUS`` or when the error bound exceeds ``rel_tol`` relative
    to the result, rather than returning silently degraded values.  Raises
    :class:`PoleError` for b a non-positive integer.
    """
    vals, bounds = _kummer_routed(a, b, np.array([complex(z)]), (0.0, 0.0))
    value, err = complex(vals[0]), float(bounds[0])
    if err > rel_tol * max(abs(value), 1e-300):
        raise ToleranceNotMet(
            f"kummer_m cancellation leaves error {err:.2e} on |M| = {abs(value):.2e}")
    return value
