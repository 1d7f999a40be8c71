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

* :func:`kummer_m` -- the confluent hypergeometric function M(a, b, z) by
  direct power series, accumulated in double-double arithmetic so that the
  cancellation for strongly complex z (up to the documented budget
  ``|z| <= 200``) is absorbed by the extra precision.  A certified absolute
  error bound accompanies every evaluation.  A grid of cells is summed on
  numpy arrays; a one-cell call runs the same recurrence on Python floats,
  with the same bits at about a tenth of the cost.

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


def _log_gamma_array(z) -> np.ndarray:
    z = np.asarray(z, dtype=complex)
    if not np.all(np.isfinite(z)):
        raise ValueError("log_gamma needs a finite z")
    pole = (z.imag == 0.0) & (z.real == np.floor(z.real)) & (z.real <= 0.0)
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


def kummer_m_grid(a, b, z):
    """Vectorized M(a, b, z) over an array of arguments.

    Returns ``(values, bounds)``.  Each cell is summed to its own last term
    (see ``_kummer_series_dd``), so every cell equals the one-cell
    :func:`kummer_m_bounded` call bit for bit, value and bound, and does
    not depend on the other cells of the array.  A bound covers, for the
    given double z, the double-double rounding of the series and the
    rounding of the result to double, including the factor e^z of the
    Kummer transformation; no
    exception is raised for cells whose cancellation exhausts the working
    precision -- callers decide what to do with the bound.  An empty ``z``
    gives two empty arrays; a NaN or infinite z raises ``ValueError``.  b
    must be real (all uses here have b = 1/2 or 3/2).
    """
    b = complex(b)
    if b.imag == 0.0 and b.real == math.floor(b.real) and b.real <= 0.0:
        raise PoleError(f"kummer_m pole at b = {b.real:g}")
    if b.imag != 0.0:
        raise NotImplementedError("kummer_m_grid supports real b only")
    z = np.asarray(z, dtype=complex)
    if not np.all(np.isfinite(z)):
        raise ValueError("kummer_m_grid needs finite z")
    if z.size and float(np.max(np.abs(z))) > KUMMER_RADIUS:
        raise ToleranceNotMet(f"|z| beyond the documented series budget {KUMMER_RADIUS:g}")
    a_arr = np.broadcast_to(np.asarray(a, dtype=complex), z.shape).copy()
    # Kummer transformation M(a,b,z) = e^z M(b-a, b, -z) keeps Re(argument)
    # nonnegative, which minimizes the cancellation of the series.
    flip = z.real < 0
    a_eff = np.where(flip, b - a_arr, a_arr)
    w = np.where(flip, -z, z)
    vals, noise = _kummer_series_dd(a_eff, b.real, w)
    pref = np.where(flip, np.exp(z), 1.0 + 0j)
    m = vals * pref
    return m, noise * np.abs(pref) + _ROUNDING_EPS * np.abs(m)


def kummer_m_bounded(a, b, z):
    """Scalar M(a, b, z) returning ``(value, certified_abs_error)``."""
    vals, noise = kummer_m_grid(a, b, np.array([complex(z)]))
    return complex(vals[0]), float(noise[0])


def kummer_m(a, b, z, rel_tol: float = 1e-12) -> complex:
    """Confluent hypergeometric M(a, b, z) by direct power series.

    Summed in double-double arithmetic; raises :class:`ToleranceNotMet`
    when |z| exceeds the documented budget ``KUMMER_RADIUS`` or when the
    certified error exceeds ``rel_tol`` relative to the result, rather
    than returning silently degraded values.  Raises :class:`PoleError`
    for b a non-positive integer.
    """
    value, err = kummer_m_bounded(a, b, z)
    if err > rel_tol * max(abs(value), 1e-300):
        raise ToleranceNotMet(
            f"kummer_m cancellation leaves error {err:.2e} on |M| = {abs(value):.2e}")
    return value
