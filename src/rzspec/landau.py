"""Lowest-Landau-level realization: wavefunctions and box quantization.

The even/odd wavefunctions are Gaussian-damped confluent hypergeometric
functions of the complex combination (x - iy)^2 / (2 l^2); placing the
particle in a box of side L and identifying the outgoing/incoming edges
turns the critical-line phase into the quantization condition

    2 theta(E) - E log(L^2 / (2 pi l^2)) = 0  (mod 2 pi),

whose roots are the levels: where the half phase crosses a multiple of
pi, found and counted by the shared level-crossing scan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ToleranceNotMet
from .roots import level_roots, newton, scan_grid
from .specfun import _trigamma_right, kummer_m_bounded, kummer_m_grid
from .zeta import _theta_prime, theta_rs

__all__ = [
    "LandauGeometry",
    "psi_plus",
    "psi_minus",
    "psi_abs_grid",
    "quantization_residual",
    "landau_levels",
    "n_landau",
]

# level-scan budget: the scan step shrinks as the phase slope grows, so
# E_max = 1e4 at L / l = 1e4 already takes about 1e5 scan points
LANDAU_E_BUDGET = 1e4
# psi_plus / psi_minus refuse a value whose Kummer bound exceeds this, relative
PSI_REL_TOL = 1e-6
PSI_GRID_N_BUDGET = 1000  # side of the landau command's psi grid: 1000^2 cells take 7 s, 214 MB
BOX_RATIO_RANGE = (1e-150, 1e150)  # L / l for which log_cutoff's (L / l)^2 is a finite float > 0


@dataclass(frozen=True)
class LandauGeometry:
    """Magnetic length l and box size L (L >> l for the counting regime)."""
    magnetic_length: float = 1.0
    box_size: float = 100.0

    def __post_init__(self):
        if self.magnetic_length <= 0 or self.box_size <= 0:
            raise ValueError("lengths must be positive")

    @property
    def log_cutoff(self) -> float:
        # log(L^2 / (2 pi l^2))
        return math.log(self.box_size ** 2 / (2.0 * math.pi * self.magnetic_length ** 2))


def _z_arg(x, y, g: LandauGeometry):
    """The Kummer argument z = (x - iy)^2 / 2l^2 at floats, or at arrays
    that broadcast, in real arithmetic: with x and y divided by l, Re z =
    (x^2 - y^2) / 2 and Im z = -xy.  Re z is within 4u|z| and Im z within
    3u|z| (u = eps/2, the divisions included), so z is within 5u|z|.  At
    l = 1 these are the bits of the complex product 0.5 w w, w = x - iy,
    in plain double, up to the sign of a zero Im z; numpy's vector
    complex product may fuse its multiply-adds instead, and then
    z(y, x) = -conj z(x, y) fails."""
    x, y = x / g.magnetic_length, y / g.magnetic_length
    re, im = 0.5 * (x * x - y * y), -(x * y)
    z = np.empty(np.shape(re), dtype=complex)
    z.real, z.imag = re, im
    return z[()]


def _kummer_checked(a: complex, b: float, z: complex) -> complex:
    m, bound = kummer_m_bounded(a, b, z)
    if not bound <= PSI_REL_TOL * abs(m):
        raise ToleranceNotMet(f"Kummer bound {bound:.2e} exceeds {PSI_REL_TOL:g} |M| = {abs(m):.2e}")
    return m


def psi_plus(E: float, x: float, y: float, g: LandauGeometry) -> complex:
    """Even-sector wavefunction e^{-x^2/2l^2} M(1/4 + iE/2, 1/2, (x-iy)^2/2l^2),
    normalization constant set to 1.  Raises :class:`ToleranceNotMet` where
    the Kummer bound exceeds ``PSI_REL_TOL`` relative to M."""
    m = _kummer_checked(complex(0.25, 0.5 * E), 0.5, _z_arg(x, y, g))
    return math.exp(-0.5 * (x / g.magnetic_length) ** 2) * m


def psi_minus(E: float, x: float, y: float, g: LandauGeometry) -> complex:
    """Odd-sector wavefunction (x - iy) e^{-x^2/2l^2} M(3/4 + iE/2, 3/2, ...),
    refused like :func:`psi_plus`."""
    m = _kummer_checked(complex(0.75, 0.5 * E), 1.5, _z_arg(x, y, g))
    return complex(x, -y) * math.exp(-0.5 * (x / g.magnetic_length) ** 2) * m


def psi_abs_grid(E: float, xs, ys, g: LandauGeometry, odd: bool = False):
    """|psi| on the tensor grid xs x ys, plus absolute error bounds.

    z = (x - iy)^2 / 2l^2 is formed in real arithmetic by :func:`_z_arg`,
    as in ``psi_plus``/``psi_minus``, so each M cell has the bits of its
    scalar call.  On a grid with xs = ys, z(y, x) = -conj z(x, y) exactly,
    and ``kummer_m_grid`` reads the flipped cell of each such pair off the
    real axis as the conjugate of the other's series value: the flipped
    half of the grid sums no series.

    A bound is the Kummer bound of ``kummer_m_grid`` (certified on series
    cells, only in its truncation on asymptotic ones) at the double
    argument z, plus the rounding of the inputs: z is within 5u|z| of its
    exact value (u = eps/2), which moves M by at most 5u
    |z dM/dz|, and the Gaussian exponent x^2 / 2l^2 = q within 3uq; the
    Gaussian, the |x - iy| factor and the products add 8u.  Cells whose
    cancellation exhausts every route's precision do not raise; their
    bound lets callers exclude them from, e.g., a ridge search.  Returns
    arrays of shape (len(xs), len(ys)).
    """
    xs = np.asarray(xs, dtype=float)[:, None]
    ys = np.asarray(ys, dtype=float)[None, :]
    a = complex(0.75, 0.5 * E) if odd else complex(0.25, 0.5 * E)
    b = 1.5 if odd else 0.5
    grid = kummer_m_grid(a, b, _z_arg(xs, ys, g))
    M, bound = grid
    q = 0.5 * (xs / g.magnetic_length) ** 2
    gauss = np.exp(-q)
    pref = np.hypot(xs, ys) if odd else 1.0
    # |M| by libm hypot, as abs() of one complex: numpy's SIMD complex abs
    # can differ from it in the last bit
    amp = np.hypot(M.real, M.imag) * gauss * pref
    u = 0.5 * np.finfo(float).eps
    return amp, (bound + 5.0 * u * grid.sens) * gauss * pref + (3.0 * q + 8.0) * u * amp


def _phase(E: float, g: LandauGeometry) -> float:
    return 2.0 * theta_rs(E) - E * g.log_cutoff


def quantization_residual(E: float, g: LandauGeometry) -> float:
    """Box-quantization phase 2 theta(E) - E log(L^2/2 pi l^2), reduced
    mod 2 pi to (-pi, pi]; levels are its zeros."""
    r = math.remainder(_phase(E, g), 2.0 * math.pi)
    if r <= -math.pi:
        r += 2.0 * math.pi
    return r


def n_landau(E, g: LandauGeometry):
    """Smooth level count (E/2 pi) log(L^2/2 pi l^2) + 1 - (theta(E)/pi + 1),
    at a float E or elementwise on an ndarray of E."""
    return E / (2.0 * math.pi) * g.log_cutoff - theta_rs(E) / math.pi


def landau_levels(E_max: float, g: LandauGeometry) -> list[float]:
    """Positive roots of the quantization condition below E_max.

    The levels are where the half phase theta(E) - E log(L^2/2 pi l^2) / 2,
    continuous in E, crosses a multiple of pi (:func:`rzspec.roots.level_roots`).
    Its slope, with theta' in closed form from the digamma function,
    increases with E, so its largest size is at 0 or E_max, and a scan
    step lets at most 0.4 pi of half phase pass; where the slope changes
    sign, the turn 2 theta' = log(L^2/2 pi l^2) is found by Newton on
    theta'' from the trigamma function and becomes a scan node.  A root
    count other than the levels passed raises :class:`MissedZeroError`;
    E_max above ``LANDAU_E_BUDGET`` raises :class:`ToleranceNotMet` first.
    """
    if E_max <= 0:
        raise ValueError("E_max must be positive")
    if E_max > LANDAU_E_BUDGET:
        raise ToleranceNotMet(f"E_max = {E_max:g} beyond the level-scan budget {LANDAU_E_BUDGET:g}")
    half_log = 0.5 * g.log_cutoff

    def half_phase(E):
        # with the rounding of theta and E log(...) / 2 as its error, |theta| <= |half| + |E log(...) / 2|
        half = theta_rs(E) - E * half_log
        return half, _theta_prime(E) - half_log, 2.2e-16 * (np.abs(half) + 4.0 * np.abs(E * half_log))

    def slope(E):
        # the slope and theta'' = -Im psi'(1/4 + iE/2) / 4, with psi'(z) = psi'(z + 1) + 1/z^2
        z = 0.25 + 0.5j * E
        return (_theta_prime(E) - half_log, -0.25 * (_trigamma_right(z + 1.0) + 1.0 / (z * z)).imag,
                np.zeros_like(E))
    ends = slope(np.array([0.0, E_max]))[0]
    # the phase falls, then rises from its turn, near E = L^2 / l^2 since 2 theta'(E) ~ log(E / 2 pi)
    turns = (tuple(newton(slope, [0.0], [E_max], [min((g.box_size / g.magnetic_length) ** 2, E_max)],
                          ends[:1])) if ends[0] < 0.0 < ends[1] else ())
    ts = scan_grid(0.0, E_max, 0.4 * math.pi / float(np.max(np.abs(ends))))
    return level_roots(half_phase, ts, 0.0, turns)
