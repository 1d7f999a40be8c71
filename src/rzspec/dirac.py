"""Spectral functions of the bounded-orbit Dirac model and their kin.

Three even, real-valued functions of the real variable t are handled on
an equal footing:

* ``xi_h``        -- K_(1/2 + it/2)(2 pi) + K_(1/2 - it/2)(2 pi), whose zeros
                     are the eigenvalues of the boundary-phase-pi model;
* ``polya_xi_star`` -- 4 pi^2 (K_(9/4 + it/2)(2 pi) + K_(9/4 - it/2)(2 pi)),
                     the classical surrogate with provably real zeros;
* ``riemann_xi``  -- (1/4) s (s-1) Gamma(s/2) pi^(-s/2) zeta(s) on s = 1/2 + it.

Each takes a float t or an ndarray of t; an array is one call of the
array Bessel K (or of the array log Gamma and zeta), so the zero scans
pass their whole grid, and each Newton iteration its open brackets, in
one evaluation, with no threads.

Each also has a Fourier-side evaluation as the cosine transform of a
rapidly decaying kernel, by the nested trapezoidal rule that Bessel K
uses; the two routes agree to quadrature accuracy and are cross-checked
in the test suite.  Note the kernel route for the Riemann case
reproduces the standard completed zeta, which is exactly twice the
quarter-normalized variant used here, so the transform carries a factor
1/2.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .counting import ModelScales
from .errors import ToleranceNotMet
from .roots import level_roots, scan_grid
from .specfun import (_bessel_k, _digamma_right, _nested_trapezoid, _number_or_array,
                      bessel_k_complex_order, log_gamma)
from .zeta import _lattice_scan, zeta

__all__ = [
    "SpectralFunctionKind",
    "BoundaryData",
    "xi_h",
    "eigen_residual",
    "polya_xi_star",
    "polya_xi_star_envelope",
    "riemann_xi",
    "phi_kernel",
    "xi_via_fourier",
    "eigenfunction_xp",
    "find_dirac_zeros",
]

DIRAC_T_BUDGET = 200.0
FOURIER_T_BUDGET = 100.0
_PHASE_PER_STEP = 0.25 * math.pi  # phase move a K scan step is sized for; the guard allows pi/2
_MIN_SLOPE = 0.25  # floor of the sizing slope, whose large-order form falls below 0 for t << x
_BETA_MAX = 5.6  # kernels underflow well before this


class SpectralFunctionKind(Enum):
    XI_RIEMANN = "xi_riemann"
    XI_POLYA_STAR = "xi_polya_star"
    XI_DIRAC_H = "xi_dirac_h"


@dataclass(frozen=True)
class BoundaryData:
    """Self-adjoint-extension phase and the dimensionless mass-radius product."""
    vartheta: float
    m_lx: float

    def __post_init__(self):
        if not (0.0 <= self.vartheta < 2.0 * math.pi):
            raise ValueError("vartheta must lie in [0, 2 pi)")
        if self.m_lx <= 0:
            raise ValueError("m_lx must be positive")


def xi_h(t):
    """K_(1/2+it/2)(2 pi) + K_(1/2-it/2)(2 pi); real and even in t."""
    k = bessel_k_complex_order(0.5 + 0.5j * np.abs(t), 2.0 * math.pi)
    return 2.0 * k.real


def polya_xi_star(t):
    """4 pi^2 (K_(9/4+it/2)(2 pi) + conjugate order); real and even in t."""
    k = bessel_k_complex_order(2.25 + 0.5j * np.abs(t), 2.0 * math.pi)
    return 8.0 * math.pi ** 2 * k.real


def polya_xi_star_envelope(t: float) -> float:
    """Large-t amplitude of polya_xi_star.

    Follows from the uniform K asymptotics
    K_(a+it/2)(z) ~ sqrt(pi/t) (t/z)^a e^(-pi t/4) with a = 9/4, z = 2 pi:
    8 pi^2 sqrt(pi/t) (t/2pi)^(9/4) e^(-pi t/4) = 2^(3/4) pi^(1/4) t^(7/4) e^(-pi t/4).
    """
    return 2.0 ** 0.75 * math.pi ** 0.25 * t ** 1.75 * math.exp(-math.pi * t / 4.0)


def eigen_residual(E, b: BoundaryData):
    """Boundary-condition residual e^{i vartheta} K_(1/2-iE/2)(m l_x)
    - K_(1/2+iE/2)(m l_x); its real zeros are the eigenvalues."""
    kp = bessel_k_complex_order(0.5 + 0.5j * E, b.m_lx)
    return cmath.exp(1j * b.vartheta) * kp.conjugate() - kp


def riemann_xi(t):
    """Quarter-normalized completed zeta on the critical line; even in t."""
    return _riemann_xi_complex(t).real


def _riemann_xi_complex(t):
    s = 0.5 + 1j * t
    log_part = log_gamma(0.5 * s) - 0.5 * s * math.log(math.pi)
    return 0.25 * s * (s - 1.0) * np.exp(log_part) * zeta(s)


# --------------------------------------------------------------------------
# Fourier-side kernels
# --------------------------------------------------------------------------

def _phi_riemann(beta):
    # even by the theta functional equation; the series at |beta| needs no cancellation
    beta = np.abs(np.asarray(beta, dtype=float))
    eb = np.exp(beta)
    # Gaussian decay in n; 0.5 + sqrt(745/(pi e^beta)) terms suffice
    n_max = int(np.ceil(np.sqrt(746.0 / (math.pi * float(eb.min()))))) + 1
    # one row per n, n n and never n^2, since the bits follow the grouping;
    # accumulate adds the rows in order at every shape (reduce would sum a
    # one-element column pairwise), so each beta gets a term loop's bits
    n = np.arange(1.0, n_max + 1.0).reshape((-1,) + (1,) * beta.ndim)
    expo = -math.pi * n * n * eb
    term = np.where(expo < -745.0, 0.0, (2.0 * math.pi * eb * n * n - 3.0) * n * n * np.exp(expo))
    return 2.0 * math.pi * np.exp(1.25 * beta) * np.add.accumulate(term, axis=0)[-1]


def _phi_polya(beta):
    beta = np.asarray(beta, dtype=float)
    return (4.0 * math.pi ** 2 * (np.exp(2.25 * beta) + np.exp(-2.25 * beta))
            * np.exp(-math.pi * (np.exp(beta) + np.exp(-beta))))


def _phi_dirac(beta):
    beta = np.asarray(beta, dtype=float)
    return (np.exp(0.5 * beta) + np.exp(-0.5 * beta)) * np.exp(-2.0 * math.pi * np.cosh(beta))


# kernel and the factor on its transform: the Riemann kernel's transform is
# the standard completed zeta = 2 x the quarter-normalized closed form used here
_PHI = {
    SpectralFunctionKind.XI_RIEMANN: (_phi_riemann, 0.5),
    SpectralFunctionKind.XI_POLYA_STAR: (_phi_polya, 1.0),
    SpectralFunctionKind.XI_DIRAC_H: (_phi_dirac, 1.0),
}


def phi_kernel(kind: SpectralFunctionKind, beta):
    """Cosine-transform kernel of the chosen spectral function at a float
    beta, or elementwise on an ndarray of beta in one evaluation."""
    return _number_or_array(_PHI[kind][0])(beta)


def xi_via_fourier(kind: SpectralFunctionKind, t: float) -> float:
    """Spectral function evaluated as integral_0^inf Phi(beta) cos(t beta / 2).

    Independent of the closed-form route; |t| budget is 100.  The
    integrand is even, so the nested trapezoidal rule on [0, beta_max] with
    weight 1/2 at 0 is the full-line rule.
    """
    if abs(t) > FOURIER_T_BUDGET:
        raise ToleranceNotMet(f"|t| = {abs(t):g} beyond the Fourier budget {FOURIER_T_BUDGET:g}")
    phi, factor = _PHI[kind]
    # beta = u / scale: the first step, 1/(4 scale), puts at least four
    # nodes in each period of the cosine, so no level aliases it to a low
    # frequency (at t = 100 the steps 1/4 and 1/8 would alias it alike)
    scale = 2.0 ** math.ceil(math.log2(max(abs(t) / (4.0 * math.pi), 1.0)))
    val, _ = _nested_trapezoid(lambda u, r: phi(u / scale) * np.cos(0.5 * t * (u / scale)),
                               np.array([_BETA_MAX * scale]))
    return factor * float(val[0, 0].real) / scale


def eigenfunction_xp(E: float, x: float, s: ModelScales) -> complex:
    """Bound-orbit eigenfunction x^(iE/2hbar) K_(1/2 - iE/2hbar)(l_p x / hbar).

    Power-law |psi| ~ x^(-1/2) below the crossover x = E/(2 l_p) and
    exponential decay e^(-l_p x / hbar) beyond it.
    """
    if x <= 0:
        raise ValueError("x must be positive")
    nu = complex(0.5, -0.5 * E / s.hbar)
    k = bessel_k_complex_order(nu, s.l_p * x / s.hbar)
    return cmath.exp(1j * E / (2.0 * s.hbar) * math.log(x)) * k


# --------------------------------------------------------------------------
# zero finding with exact counts
# --------------------------------------------------------------------------

def _k_phase_slope(t, a: float, x: float):
    """arg K_(a+it/2)(x), its t-slope (1/2) Re(dK/dnu / K) and the error of
    the phase implied by K's error estimate, elementwise on an ndarray of t."""
    k, dk, err = _bessel_k(a + 0.5j * t, x)
    return np.angle(k), 0.5 * (dk / k).real, err / np.abs(k)


def _phase_scan(a: float, x: float, t_min: float, t_max: float):
    """Scan grid for arg K_(a+it/2)(x) on [t_min, t_max].

    The step moves the phase by about ``_PHASE_PER_STEP`` at the slope
    (1/2) Re psi(a + i t_max/2) - (1/2) log(x/2) of K ~ Gamma(nu) (x/2)^(-nu) / 2
    (DLMF 10.30.2), floored at ``_MIN_SLOPE``: an estimate, not a bound (for
    a = 1/2 the slope is not monotone, 1.83 against 1.73 on (0, 200] at
    x = 2 pi, and 2.6 times it near t = 2x at x = 90), which the level scan checks.
    """
    s = max(0.5 * _digamma_right(np.array([a + 0.5j * t_max]))[0].real - 0.5 * math.log(0.5 * x),
            _MIN_SLOPE)
    return scan_grid(t_min, t_max, _PHASE_PER_STEP / s)


def find_dirac_zeros(target, t_min: float, t_max: float) -> list[float]:
    """All real zeros of the chosen spectral function in (t_min, t_max),
    checked against an exact count.

    ``target`` is a :class:`SpectralFunctionKind` or :class:`BoundaryData`.
    xi_H, xi* and the boundary residual vanish where arg K_(a+it/2)(x)
    passes c (mod pi), (a, x, c) = (1/2, 2 pi, pi/2), (9/4, 2 pi, pi/2),
    (1/2, m l_x, vartheta/2), on a grid sized from the phase slope
    (:func:`_phase_scan`), checked and counted by :func:`rzspec.roots.level_roots`.
    Newton on the phase less its nearest level, from inverse cubic Hermite seeds on the
    node phases and slopes (dK/dnu on K's own nodes), refines each root
    until its step is below 1e-10 or below the phase error of K's error
    estimate over the slope; K's phase noise over the slope then sets the
    root's error (up to about 1e-9 where the slope is small, at m l_x = 60).
    riemann_xi(t) is Z(t) times a real factor that never vanishes: its zeros
    are those of :func:`rzspec.zeta.find_zeros`, checked by zeta's exact count.
    """
    if not (0.0 <= t_min < t_max <= DIRAC_T_BUDGET):
        raise ValueError(f"zero scan budget is 0 <= t_min < t_max <= {DIRAC_T_BUDGET:g}")
    if target is SpectralFunctionKind.XI_RIEMANN:
        return [r.t for r in _lattice_scan(t_min, t_max)[1] if t_min < r.t < t_max]
    if target is SpectralFunctionKind.XI_DIRAC_H:  # the eigenvalues at vartheta = pi
        target = BoundaryData(math.pi, 2.0 * math.pi)
    a, x, c = ((2.25, 2.0 * math.pi, 0.5 * math.pi) if target is SpectralFunctionKind.XI_POLYA_STAR
               else (0.5, target.m_lx, 0.5 * target.vartheta))
    return level_roots(lambda t: _k_phase_slope(t, a, x), _phase_scan(a, x, t_min, t_max), c)
