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
pass their whole grid, and each Brent iteration its open brackets, in
one evaluation, with no threads.

Each also has a Fourier-side evaluation as the cosine transform of a
rapidly decaying kernel; the two routes agree to quadrature accuracy and
are cross-checked in the test suite.  Note the kernel route for the
Riemann case reproduces the standard completed zeta, which is exactly
twice the quarter-normalized variant used here, so the transform carries
a factor 1/2.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .counting import ModelScales, n_dirac_smooth
from .errors import ToleranceNotMet
from .roots import find_all
from .specfun import (
    QuadratureSpec,
    _refine_panels,
    bessel_k_complex_order,
    log_gamma,
    oscillatory_edges,
)
from .zeta import _count_avoiding_zeros, zeta

__all__ = [
    "SpectralFunctionKind",
    "BoundaryData",
    "xi_h",
    "eigen_residual",
    "polya_xi_star",
    "polya_xi_star_envelope",
    "xi_h_envelope",
    "riemann_xi",
    "phi_kernel",
    "xi_via_fourier",
    "eigenfunction_xp",
    "find_dirac_zeros",
]

DIRAC_T_BUDGET = 200.0
FOURIER_T_BUDGET = 100.0
_SCAN_STEP = {"xi_riemann": 0.05, "xi_polya_star": 0.1, "xi_dirac_h": 0.1}
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


def xi_h(t, q: QuadratureSpec | None = None):
    """K_(1/2+it/2)(2 pi) + K_(1/2-it/2)(2 pi); real and even in t."""
    k = bessel_k_complex_order(0.5 + 0.5j * np.abs(t), 2.0 * math.pi, q)
    return 2.0 * k.real


def polya_xi_star(t, q: QuadratureSpec | None = None):
    """4 pi^2 (K_(9/4+it/2)(2 pi) + conjugate order); real and even in t."""
    k = bessel_k_complex_order(2.25 + 0.5j * np.abs(t), 2.0 * math.pi, q)
    return 8.0 * math.pi ** 2 * k.real


def xi_h_envelope(t: float) -> float:
    """Large-t amplitude of xi_h: 2 sqrt(pi/t) (t/2pi)^(1/2) e^(-pi t/4)."""
    return 2.0 * math.sqrt(math.pi / t) * math.sqrt(t / (2.0 * math.pi)) * math.exp(-math.pi * t / 4.0)


def polya_xi_star_envelope(t: float) -> float:
    """Large-t amplitude of polya_xi_star.

    Follows from the uniform K asymptotics
    K_(a+it/2)(z) ~ sqrt(pi/t) (t/z)^a e^(-pi t/4) with a = 9/4, z = 2 pi:
    8 pi^2 sqrt(pi/t) (t/2pi)^(9/4) e^(-pi t/4) = 2^(3/4) pi^(1/4) t^(7/4) e^(-pi t/4).
    """
    return 2.0 ** 0.75 * math.pi ** 0.25 * t ** 1.75 * math.exp(-math.pi * t / 4.0)


def eigen_residual(E, b: BoundaryData, q: QuadratureSpec | None = None):
    """Boundary-condition residual e^{i vartheta} K_(1/2-iE/2)(m l_x)
    - K_(1/2+iE/2)(m l_x); its real zeros are the eigenvalues."""
    kp = bessel_k_complex_order(0.5 + 0.5j * E, b.m_lx, q)
    km = bessel_k_complex_order(0.5 - 0.5j * E, b.m_lx, q)
    return cmath.exp(1j * b.vartheta) * km - kp


def _eigen_scan_function(E, b: BoundaryData, q=None):
    # The residual vanishes iff arg K_(1/2+iE/2)(m l_x) = vartheta/2 (mod pi);
    # this real function changes sign exactly there and is insensitive to
    # the principal-branch jumps of the argument.
    k = bessel_k_complex_order(0.5 + 0.5j * E, b.m_lx, q)
    return np.sin(np.angle(k) - 0.5 * b.vartheta)


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
    beta = np.asarray(beta, dtype=float)
    eb = np.exp(beta)
    out = np.zeros_like(beta)
    # Gaussian decay in n; 0.5 + sqrt(745/(pi e^beta)) terms suffice
    n_max = int(np.ceil(np.sqrt(746.0 / (math.pi * float(eb.min()))))) + 1
    for n in range(1, n_max + 1):
        expo = -math.pi * n * n * eb
        term = np.where(expo < -745.0, 0.0,
                        (2.0 * math.pi * eb * n * n - 3.0) * n * n * np.exp(expo))
        out += term
    return 2.0 * math.pi * np.exp(1.25 * beta) * out


def _phi_polya(beta):
    beta = np.asarray(beta, dtype=float)
    return (4.0 * math.pi ** 2 * (np.exp(2.25 * beta) + np.exp(-2.25 * beta))
            * np.exp(-math.pi * (np.exp(beta) + np.exp(-beta))))


def _phi_dirac(beta):
    beta = np.asarray(beta, dtype=float)
    return (np.exp(0.5 * beta) + np.exp(-0.5 * beta)) * np.exp(-2.0 * math.pi * np.cosh(beta))


_PHI = {
    SpectralFunctionKind.XI_RIEMANN: _phi_riemann,
    SpectralFunctionKind.XI_POLYA_STAR: _phi_polya,
    SpectralFunctionKind.XI_DIRAC_H: _phi_dirac,
}

# The kernel transform of the Riemann kind reproduces the standard
# completed zeta = 2 x the quarter-normalized closed form used here.
_FOURIER_SCALE = {
    SpectralFunctionKind.XI_RIEMANN: 0.5,
    SpectralFunctionKind.XI_POLYA_STAR: 1.0,
    SpectralFunctionKind.XI_DIRAC_H: 1.0,
}


def phi_kernel(kind: SpectralFunctionKind, beta):
    """Cosine-transform kernel of the chosen spectral function at a float
    beta, or elementwise on an ndarray of beta in one evaluation."""
    if isinstance(beta, np.ndarray):
        return _PHI[kind](beta)
    return float(_PHI[kind](np.array([beta]))[0])


def xi_via_fourier(kind: SpectralFunctionKind, t: float,
                   q: QuadratureSpec | None = None) -> float:
    """Spectral function evaluated as integral_0^inf Phi(beta) cos(t beta / 2).

    Independent of the closed-form route; |t| budget is 100.
    """
    if q is None:
        q = QuadratureSpec()
    if abs(t) > FOURIER_T_BUDGET:
        raise ToleranceNotMet(f"|t| = {abs(t):g} beyond the Fourier budget {FOURIER_T_BUDGET:g}")
    phi = _PHI[kind]
    omega = 0.5 * abs(t)

    def integrand(beta, rows):
        return phi(beta) * np.cos(0.5 * t * beta)

    edges = oscillatory_edges(0.0, _BETA_MAX, lambda u: omega, q.node_count / 6.0)
    val = _refine_panels(integrand, edges, q.node_count, q.target_abs_tol)[0]
    return _FOURIER_SCALE[kind] * float(val.real)


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
# zero finding with count guards
# --------------------------------------------------------------------------

def _smooth_count(kind_or_boundary, t: float) -> float:
    two_pi = 2.0 * math.pi
    if isinstance(kind_or_boundary, BoundaryData):
        scales = ModelScales(l_x=1.0, l_p=kind_or_boundary.m_lx)
        return max(0.0, n_dirac_smooth(t, scales)) if t > 0 else 0.0
    if kind_or_boundary is SpectralFunctionKind.XI_DIRAC_H:
        return max(0.0, n_dirac_smooth(t, ModelScales())) if t > 0 else 0.0
    if kind_or_boundary is SpectralFunctionKind.XI_POLYA_STAR:
        if t <= two_pi:
            return 0.0
        return max(0.0, t / two_pi * (math.log(t / two_pi) - 1.0) + 0.375)
    raise ValueError(kind_or_boundary)


def find_dirac_zeros(target, t_min: float, t_max: float,
                     q: QuadratureSpec | None = None) -> list[float]:
    """All real zeros of the chosen spectral function in (t_min, t_max),
    refined to 1e-9, with a count cross-check.

    ``target`` is a :class:`SpectralFunctionKind` or :class:`BoundaryData`.
    """
    if not (0.0 <= t_min < t_max <= DIRAC_T_BUDGET):
        raise ValueError(f"zero scan budget is 0 <= t_min < t_max <= {DIRAC_T_BUDGET:g}")
    if isinstance(target, BoundaryData):
        f = lambda E: _eigen_scan_function(E, target, q)
        step = 0.1
    else:
        f = {
            SpectralFunctionKind.XI_RIEMANN: riemann_xi,
            SpectralFunctionKind.XI_POLYA_STAR: lambda t: polya_xi_star(t, q),
            SpectralFunctionKind.XI_DIRAC_H: lambda t: xi_h(t, q),
        }[target]
        step = _SCAN_STEP[target.value]
    if target is SpectralFunctionKind.XI_RIEMANN:
        expected = _count_avoiding_zeros(t_max) - _count_avoiding_zeros(t_min)
        return find_all(f, t_min, t_max, step, expected)
    expected = _smooth_count(target, t_max) - _smooth_count(target, t_min)
    return find_all(f, t_min, t_max, step, expected, slack=2.5)
