"""Semitransparent-mirror array for a massless fermion on the half-line.

Mirrors sit at radii ell_n (square roots of the integers for the Moebius
array), each carrying a reflection amplitude; amplitudes of the piecewise
plane-wave eigenfunction propagate across mirror n through a unit-
determinant transfer matrix.  When the reflections are scaled by a small
epsilon, the ordered matrix product collapses, at first order in the
Magnus expansion, onto the partial Dirichlet sums M_z(n) of the Moebius
function at z = 1/2 + iE, which ties the normalizability of the state at
an ordinate E directly to the behaviour of 1/zeta on the critical line.
The boundary phase that kills the divergent norm component at a zero is
vartheta = -(theta(E) + pi/2 sign Z'(E)).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import BadCharacter, NotAZero, ToleranceNotMet, UnimodularReflection, ZeroModulus
from .perron import _dirichlet_terms, moebius_sieve
from .zeta import theta_rs, z_function, z_prime, zeta

__all__ = [
    "MirrorArray",
    "AmplitudeSequence",
    "moebius_mirrors",
    "rho_from_r",
    "r_from_rho",
    "transfer_matrix",
    "transfer_generator",
    "expm_offdiag",
    "scattering_matrix",
    "l_matrix",
    "propagate_exact",
    "propagate_magnus",
    "wavefunction_at",
    "phase_phi_z",
    "m_z_cumulative",
    "tuned_theta",
    "norm_limit",
    "zero_sensitivity",
    "normalizability_diagnostic",
    "DiagnosticReport",
    "DirichletCharacter",
    "InterferometerLayout",
    "interferometer_layout",
]

DIAGNOSTIC_N_BUDGET = 10 ** 6
DIAGNOSTIC_N_MIN = 1000  # below it the diagnostic's tail n >= 1000 is empty
INTERFEROMETER_N_BUDGET = 10 ** 5  # one Python tuple per mirror: 1e6 of them take about 900 MB
CHARACTER_MODULUS_MAX = 1000  # DirichletCharacter checks q^2 / 2 products: 0.08 s at q = 1009
_DIAGNOSTIC_BLOCK = 2 ** 16  # n per block of the streamed diagnostic
COS_FLOOR = 0.9          # tuned-phase lock threshold (calibration constant)
POWER_FLOOR = 0.1        # divergent-partial growth threshold (calibration constant)
M_GROWTH_FLOOR = 1.5     # |M_z| decade-growth separating zero ordinates (calibration)


# --------------------------------------------------------------------------
# arrays
# --------------------------------------------------------------------------

def rho_from_r(r: complex) -> complex:
    """Map a generator amplitude r to the reflection amplitude
    rho = (r/|r|) tanh(|r|/2); inverse of :func:`r_from_rho`."""
    m = abs(r)
    if m == 0.0:
        return 0.0 + 0.0j
    return r / m * math.tanh(0.5 * m)


def r_from_rho(rho: complex) -> complex:
    """Generator amplitude r = (rho/|rho|) log((1+|rho|)/(1-|rho|))."""
    m = abs(rho)
    if m == 0.0:
        return 0.0 + 0.0j
    if m >= 1.0:
        raise UnimodularReflection("|rho| must be < 1")
    return rho / m * math.log((1.0 + m) / (1.0 - m))


@dataclass(frozen=True)
class MirrorArray:
    """Mirror radii and reflection generators, plus the boundary phase.

    ``positions[k]`` is ell_(k+1) (so positions[0] = ell_1 = 1) and
    ``interval_ends[k]`` is ell_(k+2), the right edge of the k-th
    interval, needed for the norm weights log(ell_(n+1)/ell_n).
    ``reflections_r[k]`` is the unscaled generator r_(k+2) of mirror k+2;
    the physical reflection amplitude is rho = tanh-map of epsilon * r.
    """
    positions: np.ndarray
    interval_ends: np.ndarray
    reflections_r: np.ndarray
    boundary_phase: float = 0.0
    epsilon: float = 1.0

    def __post_init__(self):
        if self.positions[0] != 1.0:
            raise ValueError("ell_1 must equal 1")
        joined = np.concatenate([self.positions, self.interval_ends[-1:]])
        if np.any(np.diff(joined) <= 0):
            raise ValueError("mirror positions must increase strictly")
        if not np.allclose(self.interval_ends[:-1], self.positions[1:]):
            raise ValueError("interval_ends must continue the position ladder")
        if len(self.reflections_r) != len(self.positions) - 1:
            raise ValueError("need one reflection generator per mirror n >= 2")
        if not (0.0 <= self.boundary_phase < 2.0 * math.pi):
            raise ValueError("boundary_phase must lie in [0, 2 pi)")
        if self.epsilon < 0:
            raise ValueError("epsilon must be >= 0")

    def __len__(self):
        return len(self.positions)

    def rho(self, n: int) -> complex:
        """Reflection amplitude of mirror n (n >= 2), |rho| < 1 by the
        tanh map; the boundary mirror n = 1 is the pure phase -e^{-i vartheta}."""
        if n < 2 or n > len(self.positions):
            raise IndexError("mirror index out of range")
        return rho_from_r(self.epsilon * self.reflections_r[n - 2])

    def position(self, n: int) -> float:
        return float(self.positions[n - 1])

    def norm_weight(self, n: int) -> float:
        """log(ell_(n+1) / ell_n), the measure of interval n."""
        right = self.interval_ends[n - 1]
        return float(np.log(right / self.positions[n - 1]))


def moebius_mirrors(n_max: int, epsilon: float = 1.0,
                    boundary_phase: float = 0.0) -> MirrorArray:
    """Mirror n at sqrt(n) with generator r_n = mu(n)/sqrt(n), n = 2..n_max.

    Square-full integers keep a transparent placeholder (r = 0) so the
    mirror index matches n directly.
    """
    if n_max < 2:
        raise ValueError("n_max >= 2 required")
    n = np.arange(1, n_max + 1)
    mu = moebius_sieve(n_max)
    return MirrorArray(
        positions=np.sqrt(n.astype(float)),
        interval_ends=np.sqrt(n.astype(float) + 1.0),
        reflections_r=mu[2:] / np.sqrt(np.arange(2, n_max + 1, dtype=float)),
        boundary_phase=boundary_phase,
        epsilon=epsilon,
    )


# --------------------------------------------------------------------------
# matrices
# --------------------------------------------------------------------------

def _check_subunitary(rho: complex):
    if abs(abs(rho) - 1.0) < 1e-12:
        raise UnimodularReflection(f"|rho| = {abs(rho):.15g} degenerates the matching")


def transfer_matrix(rho: complex, ell: float, E: float) -> np.ndarray:
    """Unit-determinant transfer matrix across one mirror:
    [[1+|rho|^2, 2 rho ell^(-2iE)], [2 conj(rho) ell^(2iE), 1+|rho|^2]] / (1-|rho|^2)."""
    rho = complex(rho)
    _check_subunitary(rho)
    m2 = abs(rho) ** 2
    phase = ell ** (-2j * E)
    return np.array([
        [(1.0 + m2), 2.0 * rho * phase],
        [2.0 * rho.conjugate() / phase, (1.0 + m2)],
    ], dtype=complex) / (1.0 - m2)


def transfer_generator(r: complex, ell: float, E: float) -> np.ndarray:
    """Traceless hermitian-generator tau with transfer_matrix = exp(tau)
    when rho is the tanh image of r."""
    phase = ell ** (-2j * E)
    return np.array([[0.0, r * phase], [r.conjugate() / phase, 0.0]], dtype=complex)


def expm_offdiag(m: np.ndarray) -> np.ndarray:
    """exp of an off-diagonal 2x2 [[0, a], [b, 0]]:
    [[cosh s, (a/s) sinh s], [(b/s) sinh s, cosh s]] with s = sqrt(ab)."""
    a, b = complex(m[0, 1]), complex(m[1, 0])
    s = cmath.sqrt(a * b)
    if s == 0.0:
        return np.eye(2, dtype=complex)
    return np.array([
        [cmath.cosh(s), a / s * cmath.sinh(s)],
        [b / s * cmath.sinh(s), cmath.cosh(s)],
    ], dtype=complex)


def scattering_matrix(rho: complex) -> np.ndarray:
    """Unitary mirror S-matrix
    [[1-|rho|^2, -2i rho], [-2i conj(rho), 1-|rho|^2]] / (1+|rho|^2)."""
    rho = complex(rho)
    m2 = abs(rho) ** 2
    return np.array([
        [(1.0 - m2), -2j * rho],
        [-2j * rho.conjugate(), (1.0 - m2)],
    ], dtype=complex) / (1.0 + m2)


def l_matrix(rho: complex) -> np.ndarray:
    """Left/right matching matrix
    [[1+|rho|^2, 2i rho], [-2i conj(rho), 1+|rho|^2]] / (1-|rho|^2);
    satisfies L(1/conj(rho)) = -L(rho)."""
    rho = complex(rho)
    _check_subunitary(rho)
    m2 = abs(rho) ** 2
    return np.array([
        [(1.0 + m2), 2j * rho],
        [-2j * rho.conjugate(), (1.0 + m2)],
    ], dtype=complex) / (1.0 - m2)


# --------------------------------------------------------------------------
# propagation
# --------------------------------------------------------------------------

@dataclass
class AmplitudeSequence:
    """Piecewise amplitudes A_n = (A_-, A_+) and running norm partial sums.

    ``norm_partials[k]`` accumulates log(ell_(n+1)/ell_n) <A_n|A_n> for
    n <= k+1 (the physical interval measure); ``norm_partials_harmonic``
    uses the 1/n weights of the comparison series.  ``undefined_phase``
    flags entries where a Magnus phase was undefined (M_z = 0).
    """
    E: float
    vartheta: float
    epsilon: float
    amplitudes: np.ndarray
    norm_partials: np.ndarray
    norm_partials_harmonic: np.ndarray
    undefined_phase: np.ndarray | None = None

    def __len__(self):
        return len(self.amplitudes)


def _amp_start(vartheta: float) -> np.ndarray:
    return np.array([1.0, cmath.exp(1j * vartheta)], dtype=complex)


def _sequence(m: MirrorArray, E: float, N: int, amps: np.ndarray, undefined_phase=None):
    # the norm partial sums of the first N interval amplitudes
    sq = np.abs(amps[:, 0]) ** 2 + np.abs(amps[:, 1]) ** 2
    w = np.log(m.interval_ends[:N] / m.positions[:N])
    return AmplitudeSequence(E=E, vartheta=m.boundary_phase, epsilon=m.epsilon, amplitudes=amps,
                             norm_partials=np.cumsum(w * sq),
                             norm_partials_harmonic=np.cumsum(sq / np.arange(1, N + 1)),
                             undefined_phase=undefined_phase)


def propagate_exact(m: MirrorArray, E: float, N: int) -> AmplitudeSequence:
    """Amplitudes by exact sequential transfer, A_n = T_n^(-1) ... T_2^(-1) A_1.

    The inverse of a unit-determinant transfer matrix is the off-diagonal
    sign flip, applied in closed form.
    """
    if not 1 <= N <= len(m):
        raise ValueError("need 1 <= N <= number of mirrors")
    am, ap = _amp_start(m.boundary_phase).tolist()
    r = m.epsilon * m.reflections_r[: N - 1]
    live = np.flatnonzero(r)  # a mirror with r = 0 leaves the amplitudes as they are
    steps = [(am, ap)]
    for rk, ell in zip(r[live].tolist(), m.positions[live + 1].tolist()):
        rho = rho_from_r(rk)
        if rho != 0.0:
            m2 = abs(rho) ** 2
            inv = 1.0 / (1.0 - m2)
            diag = (1.0 + m2) * inv
            off = 2.0 * rho * ell ** (-2j * E) * inv
            am, ap = diag * am - off * ap, -off.conjugate() * am + diag * ap
        steps.append((am, ap))
    # row n - 1 holds the amplitudes after the last mirror k <= n with r_k != 0
    amps = np.array(steps, dtype=complex)[np.searchsorted(live, np.arange(-1, N - 1), side="right")]
    return _sequence(m, E, N, amps)


def m_z_cumulative(m: MirrorArray, E: float, N: int) -> np.ndarray:
    """Partial generator sums M_z(n) = 1 + sum_{k=2..n} r_k ell_k^(-2iE)
    for n = 1..N (unscaled by epsilon)."""
    ell = m.positions[1:N]
    terms = m.reflections_r[: N - 1] * np.exp(-2j * E * np.log(ell))
    out = np.ones(N, dtype=complex)
    out[1:] += np.cumsum(terms)
    return out


def propagate_magnus(m: MirrorArray, E: float, N: int) -> AmplitudeSequence:
    """First-order Magnus amplitudes: the ordered product of transfer
    inverses collapses to exp of the summed generators, giving

        A_-,n = cosh(eps |G|) - e^{i(vt - Phi)} sinh(eps |G|),
        A_+,n = e^{i vt} (cosh(eps |G|) - e^{-i(vt - Phi)} sinh(eps |G|)),

    with G = G(n) the generator sum and e^{-i Phi} = G/|G|.  G differs
    from the partial Dirichlet sum M_z(n) by the constant n = 1 term,
    which does not belong to the matrix product; keeping it would spoil
    the O(eps^2) agreement with the exact propagation.  Entries with
    G = 0 exactly are flagged (phase undefined) and carry A_n = A_1.
    """
    if not 1 <= N <= len(m):
        raise ValueError("need 1 <= N <= number of mirrors")
    vt = m.boundary_phase
    gen = m_z_cumulative(m, E, N) - 1.0
    mod = np.abs(gen)
    flagged = mod == 0.0
    delta = vt + np.angle(np.where(flagged, 1.0, gen))  # vt - Phi(n)
    ch = np.cosh(m.epsilon * mod)
    sh = np.sinh(m.epsilon * mod)
    eid = np.exp(1j * delta)
    am = ch - eid * sh
    ap = cmath.exp(1j * vt) * (ch - sh / eid)
    amps = np.stack([am, ap], axis=1)
    amps[flagged] = _amp_start(vt)
    return _sequence(m, E, N, amps, undefined_phase=flagged)


def wavefunction_at(seq: AmplitudeSequence, m: MirrorArray, rho: float):
    """Spinor components (chi_-, chi_+) at radius rho from the interval
    amplitudes: chi_-/+ = e^{+-i pi/4} A_-/+,n rho^(-1/2 +- iE)."""
    n = int(np.searchsorted(m.positions, rho * (1 + 1e-15), side="right"))
    if n < 1 or n > len(seq):
        raise ValueError("rho outside the propagated region")
    am, ap = seq.amplitudes[n - 1]
    E = seq.E
    chi_m = cmath.exp(1j * math.pi / 4) * am * rho ** complex(-0.5, E)
    chi_p = cmath.exp(-1j * math.pi / 4) * ap * rho ** complex(-0.5, -E)
    return chi_m, chi_p


# --------------------------------------------------------------------------
# phase tuning and the normalizability dichotomy
# --------------------------------------------------------------------------

def phase_phi_z(n: int, E: float) -> float:
    """Phase Phi_z(n) with e^{-i Phi_z(n)} = M_z(n)/|M_z(n)| of the Moebius
    array, unwrapped by minimal-jump continuation in n."""
    mz = np.cumsum(_dirichlet_terms(moebius_sieve(n)[1:], E))
    if mz[-1] == 0.0:
        raise ZeroModulus(f"M_z({n}) = 0: phase undefined")
    return float(np.unwrap(-np.angle(mz))[-1])


def tuned_theta(E: float) -> float:
    """Boundary phase -(theta(E) + pi/2 sign Z'(E)) mod 2 pi that removes
    the divergent norm component at a verified zero ordinate E."""
    if abs(z_function(E)) > 1e-6:
        raise NotAZero(f"|Z({E:g})| = {abs(z_function(E)):.3e} > 1e-6")
    zp = z_prime(E)
    return (-(theta_rs(E) + 0.5 * math.pi * math.copysign(1.0, zp))) % (2.0 * math.pi)


def norm_limit(E: float, epsilon: float) -> float:
    """Closed-form limit of the tuned norm series: 2 zeta(1 + 2 eps/|Z'(E)|)."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if abs(z_function(E)) > 1e-6:
        raise NotAZero(f"E = {E:g} is not a verified zero ordinate")
    return 2.0 * zeta(complex(1.0 + 2.0 * epsilon / abs(z_prime(E)), 0.0)).real


def zero_sensitivity(E: float) -> complex:
    """First-order motion of the eigenvalue with the mirror strength:
    dE/d eps at eps = 0 equals 2 e^{i(vartheta + theta(E))} / Z'(E) with
    the tuned vartheta, that is -2i / |Z'(E)|."""
    if abs(z_function(E)) > 1e-6:
        raise NotAZero(f"E = {E:g} is not a verified zero ordinate")
    return -2j / abs(z_prime(E))


@dataclass
class DiagnosticReport:
    """Normalizability diagnostic at fixed (E, epsilon, vartheta).

    Partial sums use the harmonic (1/n) weights of the comparison norm
    series.  ``divergent_partials`` accumulates only the component
    weighted by e^{+2 eps |M_z|}; its growth exponent and the running
    minimum of cos(vartheta - Phi_z(n)) over the tail drive the
    classification.  The thresholds are calibration constants.
    """
    E: float
    epsilon: float
    vartheta: float
    checkpoints: list[int]
    norm_partials: list[float]
    divergent_partials: list[float]
    cos_phase: list[float]
    cos_tail_min: float
    growth_exponent: float
    classification: str
    cos_floor: float = COS_FLOOR
    power_floor: float = POWER_FLOOR

    def to_json_dict(self) -> dict:
        doc = asdict(self)
        doc["calibration"] = {k: doc.pop(k) for k in ("cos_floor", "power_floor")}
        return doc


@np.errstate(over="ignore", invalid="ignore")  # an overflow is refused below
def normalizability_diagnostic(E: float, epsilon: float, N: int,
                               vartheta: float) -> DiagnosticReport:
    """Norm-series behaviour of the Moebius array state at ordinate E.

    Returns a report unless e^{2 eps |M_z|} or a norm partial sum leaves
    the floats (ToleranceNotMet); the classification separates a tuned bound
    state (phase locked, divergent component suppressed), a detuned
    ordinate (divergent component grows like a power), and the generic
    scattering-like case of bounded M_z.  N >= 1000, so that the tail
    n >= max(1000, N/100) is not empty.  The sums run over n in blocks of
    2^16, carrying M_z and both norm partial sums from block to block, so
    memory stays flat in N.
    """
    if not DIAGNOSTIC_N_MIN <= N <= DIAGNOSTIC_N_BUDGET:
        raise ValueError(f"need {DIAGNOSTIC_N_MIN} <= N <= {DIAGNOSTIC_N_BUDGET}")
    if epsilon < 0:
        raise ValueError("epsilon must be >= 0")
    checkpoints = sorted({min(int(c), N) for c in np.geomspace(10, N, 12)})
    # growth exponent of the divergent component over the last two decades
    ks = np.array(sorted({int(k) for k in np.geomspace(max(10, N // 100), N, 16)}))
    picks = np.array(sorted(set(checkpoints).union(ks.tolist())))  # the n whose values the report keeps
    kept = np.empty((3, len(picks)))  # at picks: cos(vartheta - Phi_z), divergent and norm partials
    t0 = max(1000, N // 100)  # the tail is n >= t0
    cos_tail_min, tail_sum = math.inf, 0.0
    mz_carry, carry = 0j, np.zeros(2)
    mu = moebius_sieve(N)
    for lo in range(1, N + 1, _DIAGNOSTIC_BLOCK):
        hi = min(lo + _DIAGNOSTIC_BLOCK, N + 1)  # this block is n = lo .. hi - 1
        mz = _dirichlet_terms(mu[lo:hi], E, lo)
        mz[0] += mz_carry
        np.cumsum(mz, out=mz)
        mz_carry = mz[-1]
        mod = np.abs(mz)
        # cos(vartheta - Phi_z(n)) = Re(e^{i vartheta} M_z) / |M_z|, cos vartheta at M_z = 0
        mz.real *= math.cos(vartheta)
        mz.imag *= math.sin(vartheta)
        cosd = mz.real - mz.imag
        del mz  # its 16 bytes per n go before the norm arrays are built
        np.divide(cosd, mod, out=cosd, where=mod > 0.0)
        cosd[mod == 0.0] = math.cos(vartheta)
        if lo == 1:
            head_mean = mod[9:max(100, N // 1000)].mean()
        if hi > t0:
            cos_tail_min = min(cos_tail_min, cosd[max(t0 - lo, 0):].min())
            tail_sum += mod[max(t0 - lo, 0):].sum()
        sel = slice(*np.searchsorted(picks, [lo, hi]))
        kept[0, sel] = cosd[picks[sel] - lo]
        # norm terms (1 + cos) / (e^{2 eps |M|} n) plus the divergent part e^{2 eps |M|} (1 - cos) / n
        grow = np.exp(np.multiply(mod, 2.0 * epsilon, out=mod), out=mod)
        parts = np.empty((2, hi - lo))  # the divergent part and the whole norm term
        np.multiply(1.0 - cosd, grow, out=parts[0])
        np.divide(np.add(cosd, 1.0, out=cosd), grow, out=parts[1])
        parts /= np.arange(lo, hi)
        parts[1] += parts[0]
        parts[:, 0] += carry
        np.cumsum(parts, axis=1, out=parts)
        carry = parts[:, -1].copy()
        if not np.isfinite(carry).all():  # nondecreasing sums: a finite carry, finite partials
            raise ToleranceNotMet(f"e^(2 eps |M_z|) or a norm partial sum overflows at eps = {epsilon:g}")
        kept[1:, sel] = parts[:, picks[sel] - lo]
    # a zero ordinate announces itself through growing |M_z|;
    # bounded |M_z| means the generic scattering-like continuum
    m_growth = float(tail_sum / (N - t0 + 1) / max(head_mean, 1e-300))
    at = np.searchsorted(picks, checkpoints)
    A = np.vstack([np.log(ks), np.ones_like(ks, dtype=float)]).T
    div_at_ks = kept[1, np.searchsorted(picks, ks)]
    (alpha, _), *_ = np.linalg.lstsq(A, np.log(div_at_ks + 1e-300), rcond=None)
    if cos_tail_min > COS_FLOOR:
        cls = "tuned"
    elif m_growth < M_GROWTH_FLOOR:
        cls = "scattering"
    elif alpha > POWER_FLOOR:
        cls = "detuned"
    else:
        cls = "scattering"
    return DiagnosticReport(
        E=E, epsilon=epsilon, vartheta=vartheta,
        checkpoints=[int(c) for c in checkpoints],
        norm_partials=kept[2, at].tolist(),
        divergent_partials=kept[1, at].tolist(),
        cos_phase=kept[0, at].tolist(),
        cos_tail_min=float(cos_tail_min),
        growth_exponent=float(alpha),
        classification=cls,
    )


# --------------------------------------------------------------------------
# interferometer layout
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class DirichletCharacter:
    """Completely multiplicative character mod q, given by its value table
    on residues 0..q-1; validated on construction."""
    modulus: int
    values: tuple

    def __post_init__(self):
        q = self.modulus
        if q < 1 or len(self.values) != q:
            raise BadCharacter("value table must have length equal to the modulus")
        vals = [complex(v) for v in self.values]
        for r in range(q):
            if math.gcd(r, q) > 1:
                if vals[r] != 0:
                    raise BadCharacter(f"chi({r}) must vanish on gcd({r},{q}) > 1")
            elif vals[r] == 0:
                raise BadCharacter(f"chi({r}) must not vanish on units")
        if vals[1 % q] != 1:
            raise BadCharacter("chi(1) must equal 1")
        for a in range(q):
            for b in range(a, q):
                if abs(vals[(a * b) % q] - vals[a] * vals[b]) > 1e-12:
                    raise BadCharacter("value table is not completely multiplicative")

    def __call__(self, n: int) -> complex:
        return complex(self.values[n % self.modulus])


@dataclass(frozen=True)
class InterferometerLayout:
    """Flat-coordinate mirror layout: boundary at x = 0, mirrors at
    d_n = (1/2) log n with amplitudes r_n = mu(n) chi(n) / sqrt(n)."""
    boundary_phase: float
    entries: tuple  # (n, d_n, r_n)

    def to_json_dict(self) -> dict:
        return {
            "boundary_phase": self.boundary_phase,
            "mirrors": [
                {"n": n, "position": d, "reflection_re": r.real, "reflection_im": r.imag}
                for n, d, r in self.entries
            ],
        }


def interferometer_layout(n_max: int, character: DirichletCharacter | None = None,
                          boundary_phase: float = 0.0) -> InterferometerLayout:
    """Mirror layout in the log coordinate, skipping square-full n and n
    with chi(n) = 0."""
    if n_max < 2:
        raise ValueError("n_max >= 2 required")
    mu = moebius_sieve(n_max)
    entries = []
    for n in range(2, n_max + 1):
        if mu[n] == 0:
            continue
        chi = 1.0 + 0.0j if character is None else character(n)
        if chi == 0:
            continue
        entries.append((n, 0.5 * math.log(n), mu[n] * chi / math.sqrt(n)))
    return InterferometerLayout(boundary_phase=boundary_phase, entries=tuple(entries))
