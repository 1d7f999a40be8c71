"""Independent references the checks compare against.

Nothing here calls rzspec: the Moebius function comes from a sieve of
Eratosthenes of the benchmark's own, zero ordinates from the published
table parsed here, and special-function values from mpmath at raised
precision.
"""

from __future__ import annotations

import csv
import math
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np

try:
    import mpmath as mp
except ImportError:  # reported by run.py before any measurement
    mp = None


def load_table(root: Path) -> list[float]:
    """Published zero ordinates from tests/data/zeros_1000.txt."""
    lines = (root / "tests" / "data" / "zeros_1000.txt").read_text(encoding="utf-8").splitlines()
    return [float(s) for s in (ln.strip() for ln in lines) if s and not s.startswith("#")]


def moebius(n_max: int) -> np.ndarray:
    """mu(0..n_max) by marking prime multiples and prime-square multiples."""
    mu = np.ones(n_max + 1, dtype=np.int64)
    mu[0] = 0
    is_prime = np.ones(n_max + 1, dtype=bool)
    is_prime[:2] = False
    for p in range(2, math.isqrt(n_max) + 1):
        if is_prime[p]:
            is_prime[p * p::p] = False
    for p in np.flatnonzero(is_prime):
        mu[p::p] *= -1
        mu[p * p::p * p] = 0
    return mu


def read_csv(path: Path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], np.array([[float(v) for v in r] for r in rows[1:]])


def svg_ok(path: Path) -> bool:
    try:
        return ET.parse(path).getroot().tag.endswith("svg")
    except ET.ParseError:
        return False


def dirichlet_partial(mu: np.ndarray, E: float, primed: bool) -> np.ndarray:
    """S(n) = sum_{k<=n} mu(k) k^(-1/2-iE) for n = 1..len(mu)-1, the last
    term half-weighted when ``primed``."""
    k = np.arange(1, len(mu))
    w = mu[1:] * np.exp(-complex(0.5, E) * np.log(k))
    s = np.cumsum(w)
    return s - 0.5 * w if primed else s


def siegel_theta(t: float) -> float:
    return float(mp.siegeltheta(t))


def psi_even(E: float, x: float, y: float) -> complex:
    """e^(-x^2/2) M(1/4 + iE/2, 1/2, (x - iy)^2 / 2) with unit magnetic length."""
    with mp.workdps(30):
        w = mp.mpc(x, -y)
        return complex(mp.exp(-x * x / 2) * mp.hyp1f1(mp.mpc(0.25, E / 2), 0.5, w * w / 2))


def psi_odd(E: float, x: float, y: float) -> complex:
    with mp.workdps(30):
        w = mp.mpc(x, -y)
        return complex(w * mp.exp(-x * x / 2) * mp.hyp1f1(mp.mpc(0.75, E / 2), 1.5, w * w / 2))


def bessel_k(nu: complex, z: float) -> complex:
    return complex(mp.besselk(mp.mpc(nu.real, nu.imag), z))


def zeta_prime_trivial(n: int) -> float:
    """zeta'(-2n) from mpmath's derivative, not the closed form."""
    return float(mp.zeta(-2 * n, 1, 1))


def polya_kernels(beta: float) -> tuple[float, float, float]:
    """(Phi, Phi*, Phi_H) at beta, summed at 30 digits."""
    with mp.workdps(30):
        b = mp.mpf(beta)
        eb = mp.exp(b)
        riemann = 2 * mp.pi * mp.exp(1.25 * b) * mp.nsum(
            lambda n: (2 * mp.pi * eb * n ** 2 - 3) * n ** 2 * mp.exp(-mp.pi * n ** 2 * eb),
            [1, mp.inf])
        polya = 4 * mp.pi ** 2 * 2 * mp.cosh(2.25 * b) * mp.exp(-2 * mp.pi * mp.cosh(b))
        dirac = 2 * mp.cosh(b / 2) * mp.exp(-2 * mp.pi * mp.cosh(b))
        return float(riemann), float(polya), float(dirac)
