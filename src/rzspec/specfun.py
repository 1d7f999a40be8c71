"""Complex special functions used throughout the package.

Three evaluators live here:

* :func:`log_gamma` -- principal-branch log Gamma via a fixed-coefficient
  Lanczos rational approximation (g = 607/128, 15 terms) in the half-plane
  Re z >= 1/2, continued to the left with the reflection formula.

* :func:`bessel_k_complex_order` -- the modified Bessel function
  ``K_nu(z)`` for complex order and real z > 0, computed from

      K_nu(z) = (1/2) * integral exp(-z cosh(beta) + nu*beta) dbeta

  over a horizontal contour Im(beta) = alpha.  Lifting the contour toward
  the saddle height removes the catastrophic oscillatory cancellation that
  makes the real-axis integral useless for |Im nu| >> z, so the evaluator
  stays accurate even where ``|K| ~ exp(-pi*|Im nu|/2)`` underflows the
  integrand scale by dozens of orders of magnitude.

* :func:`kummer_m_grid` -- the confluent hypergeometric function
  M(a, b, z) for ``|z| <= 200``, each cell by the cheapest valid route:
  the power series in complex double, the large-|z| asymptotic expansion
  (DLMF 13.7.2), or the power series in double-double arithmetic, which
  absorbs the cancellation of strongly complex z.  Every value carries an
  absolute error bound, certified on the series routes and, in its
  truncation part, on the asymptotic one.  A one-cell call gives its grid
  cell's bits.

All evaluators are pure functions and safe for concurrent use.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .ddouble import CDD, two_prod
from .errors import PoleError, ToleranceNotMet

__all__ = [
    "QuadratureSpec",
    "log_gamma",
    "bessel_k_complex_order",
    "kummer_m",
    "kummer_m_bounded",
    "kummer_m_grid",
    "panel_integral",
    "oscillatory_edges",
]


# --------------------------------------------------------------------------
# quadrature plumbing
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class QuadratureSpec:
    """Controls for the adaptive contour quadratures.

    max_abscissa bounds the truncation point of the doubly-exponentially
    decaying integrands, node_count is the Gauss-Legendre order per panel,
    and target_abs_tol the absolute accuracy goal.
    """

    max_abscissa: float = 10.0
    node_count: int = 24
    target_abs_tol: float = 1e-12

    def __post_init__(self):
        if self.node_count < 16:
            raise ValueError("node_count must be >= 16")
        if not self.target_abs_tol > 0:
            raise ValueError("target_abs_tol must be positive")
        if not self.max_abscissa > 0:
            raise ValueError("max_abscissa must be positive")


_GL_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _gl_rule(n: int):
    if n not in _GL_CACHE:
        _GL_CACHE[n] = np.polynomial.legendre.leggauss(n)
    return _GL_CACHE[n]


def panel_integral(f, edges, node_count):
    """Composite Gauss-Legendre integral of a vectorized integrand.

    ``edges`` is an increasing 1-d array of panel boundaries; ``f`` maps a
    flat numpy array of abscissae to (possibly complex) values.
    """
    x, w = _gl_rule(node_count)
    edges = np.asarray(edges, dtype=float)
    a, b = edges[:-1], edges[1:]
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    pts = mid[:, None] + half[:, None] * x[None, :]
    vals = f(pts.ravel()).reshape(pts.shape)
    return ((vals * w[None, :]).sum(axis=1) * half).sum()


def _halve(edges):
    mids = 0.5 * (edges[:-1] + edges[1:])
    out = np.empty(2 * len(edges) - 1)
    out[0::2] = edges
    out[1::2] = mids
    return out


def _refine_panels(integrand, edges, node_count, tol, scale=1.0):
    # halve every panel until successive sums agree on the prefactor's scale
    val = panel_integral(integrand, edges, node_count)
    for _ in range(4):
        edges = _halve(edges)
        val2 = panel_integral(integrand, edges, node_count)
        err = abs(val2 - val)
        val = val2
        if err * scale <= max(tol, 1e-13 * abs(val) * scale):
            return val
    raise ToleranceNotMet("panel refinement stalled")


def oscillatory_edges(lo, hi, freq_at, cycles_per_panel, max_panels=40000):
    """Panel edges sized against a local angular-frequency estimate.

    ``freq_at(u)`` returns an upper bound on |d(phase)/du| near u; each
    panel spans at most ``cycles_per_panel`` oscillation cycles and at most
    0.5 in width.
    """
    edges = [lo]
    u = lo
    while u < hi:
        h = min(0.5, 2.0 * math.pi * cycles_per_panel / (freq_at(u) + 1.0))
        u = min(hi, u + h)
        edges.append(u)
        if len(edges) > max_panels:
            raise ToleranceNotMet("oscillatory panel budget exhausted")
    return np.array(edges)


# --------------------------------------------------------------------------
# log Gamma
# --------------------------------------------------------------------------

_LANCZOS_G = 607.0 / 128.0
_LANCZOS_C = (
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
)


def _log_gamma_right(z, log=cmath.log):
    # Lanczos sum for Re z >= 1/2; series argument shifted so the pole
    # terms are z-1+k with k >= 1.  z is a complex, or an array with log=np.log.
    zm1 = z - 1.0
    s = _LANCZOS_C[0]
    for k in range(1, len(_LANCZOS_C)):
        s += _LANCZOS_C[k] / (zm1 + k)
    t = zm1 + _LANCZOS_G + 0.5
    return 0.5 * math.log(2.0 * math.pi) + (zm1 + 0.5) * log(t) - t + log(s)


def _clog1p(x: complex) -> complex:
    if abs(x) < 1e-4:
        return x * (1.0 + x * (-0.5 + x / 3.0))
    return cmath.log(1.0 + x)


def _log_sin_pi(z: complex) -> complex:
    # log sin(pi z) without overflow for large |Im z|.
    if z.imag >= 0:
        w = 2j * math.pi * z
        # sin(pi z) = (i/2) exp(-i pi z)(1 - exp(2 i pi z))
        return (-1j * math.pi * z + _clog1p(-cmath.exp(w))
                - math.log(2.0) + 0.5j * math.pi)
    return _log_sin_pi(z.conjugate()).conjugate()


def _log_sin_pi_array(z: np.ndarray) -> np.ndarray:
    # _log_sin_pi elementwise: its upper half-plane formula, conjugated
    # onto the lower half-plane
    lower = z.imag < 0
    z = np.where(lower, z.conj(), z)
    x = -np.exp(2j * math.pi * z)
    log1p = np.where(np.abs(x) < 1e-4, x * (1.0 + x * (-0.5 + x / 3.0)), np.log(1.0 + x))
    out = -1j * math.pi * z + log1p - math.log(2.0) + 0.5j * math.pi
    return np.where(lower, out.conj(), out)


def _gamma_pole(z: np.ndarray) -> np.ndarray:
    return (z.imag == 0.0) & (z.real == np.floor(z.real)) & (z.real <= 0.0)


def _log_gamma_array(z) -> np.ndarray:
    z = np.asarray(z, dtype=complex)
    if not np.all(np.isfinite(z)):
        raise ValueError("log_gamma needs a finite z")
    pole = _gamma_pole(z)
    if pole.any():
        raise PoleError(f"log_gamma pole at z = {z[pole].flat[0].real:g}")
    right = z.real >= 0.5
    out = _log_gamma_right(np.where(right, z, 1.0 - z), log=np.log)
    left = ~right
    out[left] = math.log(math.pi) - _log_sin_pi_array(z[left]) - out[left]
    return out


def log_gamma(z):
    """Principal-branch log Gamma for complex z, or elementwise for an ndarray.

    ``exp(log_gamma(z)) == Gamma(z)``; raises :class:`PoleError` at the
    poles z = 0, -1, -2, ... and ``ValueError`` for a NaN or infinite z,
    on which the reflection would recurse without end.  An ndarray takes
    the same Lanczos table and reflection as a scalar, so both give the
    branch continuous along vertical lines that theta_rs relies on.
    """
    if isinstance(z, np.ndarray):
        return _log_gamma_array(z)
    z = complex(z)
    if not cmath.isfinite(z):
        raise ValueError("log_gamma needs a finite z")
    if z.imag == 0.0 and z.real == math.floor(z.real) and z.real <= 0.0:
        raise PoleError(f"log_gamma pole at z = {z.real:g}")
    if z.real >= 0.5:
        return _log_gamma_right(z)
    # reflection: log Gamma(z) = log pi - log sin(pi z) - log Gamma(1 - z)
    return math.log(math.pi) - _log_sin_pi(z) - _log_gamma_right(1.0 - z)


# --------------------------------------------------------------------------
# modified Bessel K with complex order
# --------------------------------------------------------------------------

_TRUNC_LOG = -math.log(1e-18)


def _contour_height(a: float, mu: float, z: float) -> float:
    # Height of the integration line.  Below the turning point mu = z the
    # saddle sits at asin(mu/z) and the lifted contour passes through it;
    # above it the saddle parks at pi/2 and we stop a distance delta short,
    # chosen so the residual cancellation stays within ~e^12.
    if mu < 0.99 * z:
        return math.asin(mu / z)
    delta = min(0.8, max(0.02, 12.0 / (mu - z + 2.0)))
    return 0.5 * math.pi - delta


def bessel_k_complex_order(nu, z, q: QuadratureSpec | None = None) -> complex:
    """Modified Bessel function K_nu(z) for complex order nu and real z > 0.

    Respects ``K_nu = K_{-nu}`` and ``K_conj(nu) = conj(K_nu)`` exactly by
    construction.  Raises :class:`ToleranceNotMet` if panel refinement
    stalls before reaching ``q.target_abs_tol``.
    """
    if q is None:
        q = QuadratureSpec()
    z = float(z)
    if not z > 0:
        raise ValueError("bessel_k_complex_order requires z > 0")
    nu = complex(nu)
    if nu.real < 0:
        nu = -nu
    conj_flag = nu.imag < 0
    if conj_flag:
        nu = nu.conjugate()
    a, mu = nu.real, nu.imag

    alpha = _contour_height(a, mu, z)
    c = z * math.cos(alpha)  # decay coefficient of the lifted integrand
    zs = z * math.sin(alpha)

    # integrand magnitude exp(-c cosh u + a u): peak and truncation points
    u_peak = math.asinh(a / c)
    log_peak = -c * math.cosh(u_peak) + a * u_peak
    u_hi = math.acosh(1.0 + (_TRUNC_LOG + abs(a)) / c)
    for _ in range(3):
        u_hi = math.acosh(1.0 + (_TRUNC_LOG + abs(a) * max(u_hi, u_peak + 1.0) - log_peak - c) / c)
    u_hi = max(u_hi, u_peak + 1.0)
    u_lo = -u_hi
    if u_hi > q.max_abscissa:
        raise ToleranceNotMet(
            f"truncation point {u_hi:.2f} exceeds max_abscissa {q.max_abscissa:g}")

    def integrand(u):
        return np.exp(-c * np.cosh(u) + a * u + 1j * (mu * u - zs * np.sinh(u)))

    cycles = q.node_count / 6.0
    freq = lambda u: zs * math.cosh(min(abs(u) + 0.5, u_hi)) + mu
    edges = oscillatory_edges(u_lo, u_hi, freq, cycles)

    prefactor = 0.5 * cmath.exp(1j * nu * alpha)
    val = _refine_panels(integrand, edges, q.node_count, q.target_abs_tol, abs(prefactor))
    result = prefactor * val
    return result.conjugate() if conj_flag else result


# --------------------------------------------------------------------------
# Kummer confluent hypergeometric M(a, b, z)
# --------------------------------------------------------------------------

KUMMER_RADIUS = 200.0   # documented series budget
_KUMMER_KMAX = 1600
_NOISE_PER_TERM = 5e-31  # double-double rounding per term, conservative
_KUMMER_BLOCK = 4096     # cells summed together; each block runs to its slowest cell
# Rounding the double-double sum to double costs at most u|M| (u = eps/2).
# On flipped cells e^z carries at most 5u (exp, cos and sin within one ulp
# each, plus the rounding of their product) and the complex product with
# it sqrt(5) u (Brent, Percival and Zimmermann, Math. Comp. 2007): 8.3u in
# all, which 5 eps = 10u covers with room for the second-order terms.
_ROUNDING_EPS = 5.0 * np.finfo(float).eps
_U = 0.5 * np.finfo(float).eps
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
    lg_b, lg_a, lg_ba = log_gamma(b_re), log_gamma(a), log_gamma(b_re - a)
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


def _kummer_series_dd(a, b_re: float, z):
    """Power series sum_k (a)_k z^k / ((b)_k k!) in double-double arithmetic.

    ``a`` and ``z`` are complex numpy arrays of equal shape, ``b`` real.
    Each cell stops at its own last term, the first k > |z| + 6 with
    |term_k| <= 1e-34 sum_j<=k |term_j|, and its value and bound are those
    of that k, whatever the other cells are: a cell gives the same bits
    alone as in any grid.  The bound is ``_NOISE_PER_TERM`` times the
    number of terms times sum |term|, the double-double rounding of the
    series; it does not cover the rounding of the result to double.
    Cells are summed in blocks of ``_KUMMER_BLOCK`` taken in |z| order, so
    the cells of a block need about as many terms.  Returns (values,
    bounds) of the shape of ``z``.
    """
    z = np.asarray(z, dtype=complex)
    shape = z.shape
    a = np.asarray(a, dtype=complex).ravel()
    z = z.ravel()
    parts = [np.empty(z.size) for _ in range(4)]  # re_hi, re_lo, im_hi, im_lo
    noise = np.empty(z.size)
    order = np.argsort(np.abs(z), kind="stable")
    for start in range(0, z.size, _KUMMER_BLOCK):
        cells = order[start:start + _KUMMER_BLOCK]
        sweep = _kummer_cell if cells.size == 1 else _kummer_block
        for cell, acc, s_abs, k in sweep(a[cells], b_re, z[cells]):
            idx = cells[cell]
            for part, v in zip(parts, (acc.rh, acc.rl, acc.ih, acc.il)):
                part[idx] = v[cell]
            noise[idx] = _NOISE_PER_TERM * (k + 1) * s_abs[cell]
    vals = CDD(*parts).to_complex()
    return vals.reshape(shape), noise.reshape(shape)


def _kummer_block(a, b_re: float, z):
    # Sums all cells of the block every round and yields (cells, acc,
    # sum_abs, k) for the cells whose last term is k; ends with the block.
    term = CDD.from_complex(np.ones_like(z))
    acc = CDD.from_complex(np.ones_like(z))
    sum_abs = np.ones_like(z, dtype=float)
    hump = np.abs(z) + 6.0
    left = z.size
    for k in range(_KUMMER_KMAX):
        fac = a + k  # exact in double for moderate k
        term = term.mul_dc(fac.real, fac.imag)
        term = term.mul_dc(z.real, z.imag)
        dh, dl = two_prod(b_re + k, float(k + 1))
        term = term.div_real(dh, dl)
        acc = acc.add(term)
        t_abs = term.abs_estimate()
        sum_abs += t_abs
        done = np.flatnonzero((k > hump) & (t_abs <= 1e-34 * sum_abs))
        if done.size:
            yield done, acc, sum_abs, k
            hump[done] = np.inf  # a finished cell is never recorded again
            left -= done.size
            if not left:
                return
    raise ToleranceNotMet("kummer series did not converge within the term budget")


def _kummer_cell(a, b_re: float, z):
    # _kummer_block for a block of one cell, on Python floats: the same
    # ddouble operations in the same order give the same bits, without the
    # ~200 ufunc calls per term on 1-element arrays.  abs_estimate keeps
    # np.hypot: math.hypot differs in the last bit and would move the bound.
    a, z = complex(a[0]), complex(z[0])
    term = acc = CDD(1.0, 0.0, 0.0, 0.0)
    sum_abs = 1.0
    hump = float(np.abs(z)) + 6.0
    for k in range(_KUMMER_KMAX):
        fac = a + k
        term = term.mul_dc(fac.real, fac.imag)
        term = term.mul_dc(z.real, z.imag)
        term = term.div_real(*two_prod(b_re + k, float(k + 1)))
        acc = acc.add(term)
        t_abs = float(term.abs_estimate())
        sum_abs += t_abs
        if k > hump and t_abs <= 1e-34 * sum_abs:
            parts = (np.array([v]) for v in (acc.rh, acc.rl, acc.ih, acc.il))
            yield [0], CDD(*parts), np.array([sum_abs]), k
            return
    raise ToleranceNotMet("kummer series did not converge within the term budget")


class _KummerGrid(tuple):
    """(values, bounds), unpacking as a pair, plus ``sens``, a bound on |z dM/dz|."""


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
    r = np.abs(w)
    vals, bounds, sens = np.zeros(w.size, dtype=complex), np.full(w.size, np.inf), np.zeros(w.size)
    pending = np.ones(w.size, dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):
        for a_eff, side in ((a, ~flip), (b.real - a, flip)):
            # the asymptotic expansion needs |w| well above |a|; at a pole of
            # Gamma(a) or Gamma(b - a) M is a polynomial, left to the series
            asym = side & (r >= 2.0 * abs(a_eff) + _ASYM_RADIUS)
            if _gamma_pole(np.array([a_eff, b.real - a_eff])).any():
                asym[:] = False
            for route, tried, tol in zip((_kummer_asymptotic, _kummer_series_plain), (asym, side), rel_tols):
                # _KUMMER_BLOCK cells at a time, in |w| order so that the
                # cells of a block need about as many terms
                cells = np.flatnonzero(pending & tried)
                cells = cells[np.argsort(r[cells], kind="stable")]
                for start in range(0, cells.size, _KUMMER_BLOCK):
                    blk = cells[start:start + _KUMMER_BLOCK]
                    v, e, s = route(a_eff, b.real, w[blk])
                    take = e < bounds[blk]
                    vals[blk[take]], bounds[blk[take]], sens[blk[take]] = v[take], e[take], s[take]
                    pending[blk[take & (e <= tol * np.abs(v))]] = False
    cells = np.flatnonzero(pending)
    v, e = _kummer_series_dd(np.where(flip[cells], b.real - a, a), b.real, w[cells])
    take = e < bounds[cells]
    vals[cells[take]], bounds[cells[take]] = v[take], e[take]
    pref = np.ones_like(vals)
    pref[flip] = np.exp(zf[flip])
    m = vals * pref  # out of place: numpy's in-place complex product may round differently
    apref, am = np.abs(pref), np.abs(m)
    bounds *= apref
    bounds += _ROUNDING_EPS * am
    sens *= apref
    sens[flip] += r[flip] * am[flip]
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
    power series in double-double arithmetic.  It keeps the value with the
    smallest bound.  Every route stops each cell at its own last term, so
    a cell equals its one-cell :func:`kummer_m_bounded` call bit for bit.

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
