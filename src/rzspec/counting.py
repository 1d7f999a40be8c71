"""Closed-form level-counting formulas and the bounded classical orbit.

Every function here is elementary arithmetic on top of theta_rs and the
branch-tracked Im log zeta; they exist so the scan-based zero finders
have something exact to reconcile against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError, OnZeroError, SubcriticalEnergy
from .zeta import exact_zero_count, theta_rs

__all__ = [
    "ModelScales",
    "n_berry_keating",
    "n_connes",
    "n_average",
    "n_exact",
    "n_dirac_smooth",
    "n_bk2011",
    "classical_period",
    "classical_trajectory",
    "launch_momentum",
]


@dataclass(frozen=True)
class ModelScales:
    """Phase-space scales: position cutoff l_x, momentum cutoff l_p, hbar,
    and the common cutoff used only by the Connes count."""
    l_x: float = 1.0
    l_p: float = 2.0 * math.pi
    hbar: float = 1.0
    cutoff_lambda: float | None = None

    def __post_init__(self):
        if self.l_x <= 0 or self.l_p <= 0 or self.hbar <= 0:
            raise ValueError("scales must be strictly positive")
        if self.cutoff_lambda is not None and self.cutoff_lambda <= 0:
            raise ValueError("cutoff_lambda must be strictly positive")


def n_berry_keating(E: float, s: ModelScales) -> float:
    """Smooth level count of the constrained-quadrant model:
    E/(2 pi hbar) (log(E / l_x l_p) - 1) + 7/8."""
    if E <= 0:
        raise ValueError("E must be positive")
    return E / (2.0 * math.pi * s.hbar) * (math.log(E / (s.l_x * s.l_p)) - 1.0) + 0.875


def n_connes(E: float, s: ModelScales) -> float:
    """Cutoff-regularized count: (E/2 pi) log(Lambda^2 / 2 pi)
    - (E/2 pi)(log(E/2 pi) - 1)."""
    if E <= 0:
        raise ValueError("E must be positive")
    if s.cutoff_lambda is None:
        raise ValueError("n_connes needs cutoff_lambda")
    two_pi = 2.0 * math.pi
    return (E / two_pi * math.log(s.cutoff_lambda ** 2 / two_pi)
            - E / two_pi * (math.log(E / two_pi) - 1.0))


def n_average(t):
    """Riemann-von Mangoldt smooth count theta(t)/pi + 1, at a float t or
    elementwise on an ndarray of t."""
    if np.any(np.asarray(t) <= 0):
        raise ValueError("t must be positive")
    return theta_rs(t) / math.pi + 1.0


def n_exact(t: float) -> float:
    """Exact zero count below t; integer-valued between zeros.

    Raises :class:`OnZeroError` when t sits close enough to a zero that
    the fluctuating term loses its integrality.
    """
    if t <= 0:
        raise ValueError("t must be positive")
    try:
        return float(exact_zero_count(t))
    except ConsistencyError as exc:
        raise OnZeroError(f"n_exact({t:g}): {exc}") from exc


def n_dirac_smooth(E: float, s: ModelScales) -> float:
    """Smooth count of the bounded-orbit Dirac spectrum:
    E/(2 pi hbar)(log(E / l_x l_p) - 1) - 1/2."""
    if E <= 0:
        raise ValueError("E must be positive")
    return E / (2.0 * math.pi * s.hbar) * (math.log(E / (s.l_x * s.l_p)) - 1.0) - 0.5


def n_bk2011(t: float) -> float:
    """Two-sided-constraint count: t/2pi (log(t/2pi) - 1)
    - (8 pi / t) log(t / 2 pi); displayed terms only."""
    if t <= 2.0 * math.pi:
        raise ValueError("t must exceed 2 pi")
    two_pi = 2.0 * math.pi
    return (t / two_pi * (math.log(t / two_pi) - 1.0)
            - 8.0 * math.pi / t * math.log(t / two_pi))


# --------------------------------------------------------------------------
# classical orbit of H = x (p + l_p^2 / p)
# --------------------------------------------------------------------------

def classical_period(E: float, s: ModelScales) -> float:
    """Orbit period T_E = arccosh(E / (2 l_x l_p))."""
    floor = 2.0 * s.l_x * s.l_p
    if E <= floor:
        raise SubcriticalEnergy(f"need E > {floor:g} for a bounded orbit")
    return math.acosh(E / floor)


def launch_momentum(E: float, s: ModelScales) -> float:
    """Momentum at the wall x = l_x on the high-momentum branch."""
    floor = 2.0 * s.l_x * s.l_p
    if E <= floor:
        raise SubcriticalEnergy(f"need E > {floor:g} for a bounded orbit")
    return (E + math.sqrt(E * E - floor * floor)) / (2.0 * s.l_x)


def classical_trajectory(E: float, t: float, p0: float, s: ModelScales):
    """Point (x, p) at time t on the periodic orbit launched from (l_x, p0).

    p0 must be the launch momentum consistent with E; time is wrapped
    modulo the period, so t = T_E lands back on (l_x, p0) exactly.
    """
    T = classical_period(E, s)
    p_launch = launch_momentum(E, s)
    if not math.isclose(abs(p0), p_launch, rel_tol=1e-6):
        raise ValueError(
            f"p0 = {p0:g} is not the launch momentum {p_launch:g} for E = {E:g}")
    tau = math.fmod(t, T)
    if tau < 0:
        tau += T
    lp2 = s.l_p * s.l_p
    rad = (p0 * p0 + lp2) * math.exp(-2.0 * tau) - lp2
    root = math.sqrt(max(rad, 0.0))
    x = s.l_x / abs(p0) * math.exp(2.0 * tau) * root
    p = math.copysign(root, p0)
    return x, p


def hamiltonian(x: float, p: float, s: ModelScales) -> float:
    """H = x (p + l_p^2 / p)."""
    return x * (p + s.l_p * s.l_p / p)
