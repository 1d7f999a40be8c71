"""Riemann zeta on and off the critical line, and the zero machinery.

The evaluator is Euler-Maclaurin throughout the half-plane Re s >= 0,

    zeta(s) = sum_{n<N} n^-s + N^-s/2 + N^(1-s)/(s-1)
              + sum_k B_2k/(2k)! * (s)_(2k-1) * N^(-s-2k+1),

with N chosen so the correction series converges at better than 1e-17
for |Im s| up to a few thousand; the functional equation continues it to
Re s < 0.  On top of the evaluator sit the Riemann-Siegel theta, the
Hardy Z function, numerically differentiated derivatives, the branch
tracker for Im log zeta(1/2 + it), the sign-change zero finder, and a
small persistent database of zero records.
"""

from __future__ import annotations

import cmath
import json
import logging
import math
import os
import threading
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

_log = logging.getLogger(__name__)

from .errors import (
    ConsistencyError,
    FormatError,
    MonotonicityError,
    PoleError,
)
from .roots import find_all
from .specfun import _log_sin_pi_array, log_gamma

__all__ = [
    "zeta",
    "theta_rs",
    "z_function",
    "z_prime",
    "zeta_prime",
    "zeta_second_prime",
    "im_log_zeta_half",
    "find_zeros",
    "zeta_prime_at_zero",
    "ZeroRecord",
    "ZeroDatabase",
    "ingest_zeros",
    "persist_zeros",
]

T_BUDGET = 500.0          # zero-scan budget for computed (not ingested) zeros
ZERO_GRID_STEP = 0.05     # safely below the minimal zero gap at desk scale
_ZP_STEP = 1e-4           # Z'(t) five-point stencil width


def _bernoulli_over_factorial(count):
    # B_{2k}/(2k)! for k = 1..count, exactly, via the defining recurrence
    # sum_{j<=m} C(m+1, j) B_j = 0.
    bern = [Fraction(1), Fraction(-1, 2)]
    for m in range(2, 2 * count + 1):
        acc = Fraction(0)
        for j in range(m):
            acc += Fraction(math.comb(m + 1, j)) * bern[j]
        bern.append(-acc / (m + 1))
    return [float(bern[2 * k] / Fraction(math.factorial(2 * k))) for k in range(1, count + 1)]


_EM_COEF = _bernoulli_over_factorial(30)


def _em_cutoff(abs_s):
    # cutoff N of the main sum for |s|, a float or an array; the correction
    # series then converges at better than 1e-17 for |Im s| up to a few thousand
    q = (abs_s + 55.0) / 2.6
    if isinstance(q, np.ndarray):
        return np.maximum(18, q.astype(np.int64) + 1)
    return max(18, int(q) + 1)


def _zeta_em(s: complex) -> complex:
    n_base = _em_cutoff(abs(s))
    n = np.arange(1, n_base)
    acc = np.exp(-s * np.log(n)).sum()
    acc += 0.5 * n_base ** (-s) + n_base ** (1.0 - s) / (s - 1.0)
    rising = s  # (s)_{2k-1} built incrementally
    npow = n_base ** (-s - 1.0)
    inv_n2 = 1.0 / (n_base * n_base)
    prev = math.inf
    for k, coef in enumerate(_EM_COEF, start=1):
        term = coef * rising * npow
        mag = abs(term)
        if mag > prev:
            break  # asymptotic tail started to diverge
        acc += term
        if mag < 1e-18 * abs(acc):
            break
        prev = mag
        rising *= (s + 2 * k - 1) * (s + 2 * k)
        npow *= inv_n2
    return complex(acc)


_ZETA_BLOCK = 512  # points per main-sum block; its 512 x N temporary is 1.7 MB at t = 500


def _zeta_em_array(s: np.ndarray) -> np.ndarray:
    # _zeta_em on a 1-d array with Re s >= 0.  The main sum runs over the
    # points that share a cutoff N, a block at a time, each row summed as the
    # scalar path sums it; every point stops its correction series on its
    # own, by the scalar rules.
    n_base = _em_cutoff(np.abs(s))
    acc = np.empty(len(s), dtype=complex)
    order = np.argsort(n_base, kind="stable")
    for grp in np.split(order, np.flatnonzero(np.diff(n_base[order])) + 1):
        if not len(grp):
            continue
        log_n = np.log(np.arange(1, n_base[grp[0]]))
        for b in range(0, len(grp), _ZETA_BLOCK):
            idx = grp[b:b + _ZETA_BLOCK]
            acc[idx] = np.exp(-s[idx, None] * log_n).sum(axis=1)
    nb = n_base.astype(float)
    acc += 0.5 * nb ** (-s) + nb ** (1.0 - s) / (s - 1.0)
    live = np.arange(len(s))  # points whose series is still running
    rising = s.copy()
    npow = nb ** (-s - 1.0)
    inv_n2 = 1.0 / (nb * nb)
    prev = np.full(len(s), math.inf)
    for k, coef in enumerate(_EM_COEF, start=1):
        term = coef * rising * npow
        mag = np.abs(term)
        add = ~(mag > prev)  # a diverging tail stops before its term
        acc[live[add]] += term[add]
        more = add & ~(mag < 1e-18 * np.abs(acc[live]))
        if not more.any():
            break
        live, prev = live[more], mag[more]
        sl = s[live]
        rising = rising[more] * ((sl + 2 * k - 1) * (sl + 2 * k))
        npow = npow[more] * inv_n2[live]
    return acc


def zeta(s):
    """zeta(s) for complex s != 1, or elementwise for an ndarray of s;
    raises :class:`PoleError` at s = 1."""
    if isinstance(s, np.ndarray):
        return _zeta_array(s)
    s = complex(s)
    if s == 1.0:
        raise PoleError("zeta pole at s = 1")
    if s.real >= 0.0:
        return _zeta_em(s)
    # functional equation in log space: the sine and Gamma factors overflow
    # separately long before their product does.
    w = 1.0 - s
    log_chi = (s * math.log(2.0) + (s - 1.0) * math.log(math.pi)
               + _log_sin_half_pi(s) + log_gamma(w))
    return cmath.exp(log_chi) * _zeta_em(w)


def _zeta_array(s) -> np.ndarray:
    s = np.asarray(s, dtype=complex)
    if np.any(s == 1.0):
        raise PoleError("zeta pole at s = 1")
    flat = s.ravel()
    out = np.empty(flat.shape, dtype=complex)
    right = flat.real >= 0.0
    out[right] = _zeta_em_array(flat[right])
    if not right.all():
        sl = flat[~right]
        w = 1.0 - sl
        log_chi = (sl * math.log(2.0) + (sl - 1.0) * math.log(math.pi)
                   + _log_sin_pi_array(sl / 2.0) + log_gamma(w))
        out[~right] = np.exp(log_chi) * _zeta_em_array(w)
    return out.reshape(s.shape)


def _log_sin_half_pi(s: complex) -> complex:
    # log sin(pi s / 2), stable for large |Im s|
    from .specfun import _log_sin_pi
    return _log_sin_pi(s / 2.0)


def theta_rs(t):
    """Riemann-Siegel theta, the phase of zeta on the critical line.

    Continuous branch with theta(0) = 0; odd in t.  ``t`` is a float or an
    ndarray (elementwise).
    """
    return log_gamma(0.25 + 0.5j * t).imag - 0.5 * t * math.log(math.pi)


def z_function(t):
    """Hardy Z(t) = e^{i theta(t)} zeta(1/2 + it); real and even for real t.

    ``t`` is a float or an ndarray (elementwise, one array evaluation).
    The imaginary residue of the product is expected below 1e-9; larger
    residues are reported, and beyond 1e-6 the evaluation is rejected.
    """
    if isinstance(t, np.ndarray):
        return _z_array(t)
    w = cmath.exp(1j * theta_rs(t)) * zeta(complex(0.5, t))
    if abs(w.imag) > 1e-6:
        raise ConsistencyError(f"Z({t:g}): imaginary residue {w.imag:.3e}")
    if abs(w.imag) > 1e-9:
        _log.debug("Z(%g): imaginary residue %.3e above the 1e-9 watermark", t, w.imag)
    return w.real


def _z_array(t: np.ndarray) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    w = np.exp(1j * theta_rs(t)) * zeta(0.5 + 1j * t)
    resid = np.abs(w.imag)
    if np.any(resid > 1e-6):
        k = int(np.argmax(resid.ravel()))
        raise ConsistencyError(
            f"Z({t.flat[k]:g}): imaginary residue {w.imag.flat[k]:.3e}")
    if np.any(resid > 1e-9):
        _log.debug("Z: %d imaginary residues above the 1e-9 watermark",
                   int(np.count_nonzero(resid > 1e-9)))
    return w.real


def _diff5(f, x, h: float):
    # five-point central first difference; an ndarray x takes one call of f
    pts = [x + k * h for k in (2, 1, -1, -2)]
    a, b, c, d = f(np.stack(pts)) if isinstance(x, np.ndarray) else map(f, pts)
    return (-a + 8.0 * b - 8.0 * c + d) / (12.0 * h)


def z_prime(t, h: float = _ZP_STEP):
    """Z'(t) by a five-point central difference; ``t`` is a float or an
    ndarray (elementwise, one array evaluation of Z at all four offsets)."""
    return _diff5(z_function, t, h)


def zeta_prime(s, h: float = 1e-2) -> complex:
    """zeta'(s) by Richardson-extrapolated central differences."""
    s = complex(s)
    if abs(s - 1.0) <= 0.01:
        raise PoleError("zeta_prime too close to the pole at s = 1")
    d1 = _diff5(zeta, s, h)
    d2 = _diff5(zeta, s, h / 2.0)
    return (16.0 * d2 - d1) / 15.0


def zeta_second_prime(s, h: float = 1e-3) -> complex:
    """zeta''(s) by a five-point second-difference stencil."""
    s = complex(s)
    if abs(s - 1.0) <= 0.01:
        raise PoleError("zeta_second_prime too close to the pole at s = 1")
    f = [zeta(s + k * h) for k in (-2, -1, 0, 1, 2)]
    return (-f[0] + 16.0 * f[1] - 30.0 * f[2] + 16.0 * f[3] - f[4]) / (12.0 * h * h)


# --------------------------------------------------------------------------
# Im log zeta on the critical line, tracked from Re s = 2
# --------------------------------------------------------------------------

def im_log_zeta_half(t: float) -> float:
    """Im log zeta(1/2 + it), branch tracked along the segment from 2 + it.

    On Re s = 2 zeta stays within the unit disk around 1 so the principal
    argument there is the continuous branch; walking the horizontal
    segment to 1/2 + it unwraps the phase.  Ill-conditioned exactly on a
    zero ordinate.
    """
    if t == 0.0:
        return 0.0
    sigmas = [2.0, 1.6, 1.3, 1.1, 0.95, 0.85, 0.75, 0.675, 0.6, 0.55, 0.52, 0.5]
    vals = [zeta(complex(sg, t)) for sg in sigmas]
    phase = cmath.phase(vals[0])
    for k in range(len(sigmas) - 1):
        phase += _delta_arg(vals[k], vals[k + 1],
                            complex(sigmas[k], t), complex(sigmas[k + 1], t), 0)
    return phase


def _delta_arg(za, zb, sa, sb, depth):
    d = cmath.phase(zb / za)
    if abs(d) < 0.75:
        return d
    if depth > 48:
        raise ConsistencyError("phase tracking lost near a zeta zero")
    sm = 0.5 * (sa + sb)
    zm = zeta(sm)
    return (_delta_arg(za, zm, sa, sm, depth + 1)
            + _delta_arg(zm, zb, sm, sb, depth + 1))


def exact_zero_count(t: float) -> int:
    """Number of critical-line zeros with ordinate in (0, t], by the exact
    counting formula; t must not sit on a zero."""
    if t <= 1.0:
        return 0
    raw = theta_rs(t) / math.pi + 1.0 + im_log_zeta_half(t) / math.pi
    k = round(raw)
    # integral to ~1e-10 off a zero (t <= 1420); past 1e-6 within ~1e-7 of one
    if abs(raw - k) > 1e-6:
        raise ConsistencyError(
            f"count formula at t={t:g} is {raw:.8f}, not integral; too close to a zero")
    return int(k)


def _count_avoiding_zeros(t: float) -> int:
    for shift in (0.0, 0.013, -0.013, 0.031, -0.031):
        try:
            return exact_zero_count(t + shift)
        except ConsistencyError:
            continue
    raise ConsistencyError(f"could not evaluate the counting formula near t={t:g}")


# --------------------------------------------------------------------------
# zero records
# --------------------------------------------------------------------------

@dataclass
class ZeroRecord:
    """One nontrivial zero: ordinate t, Z'(t), and zeta'(1/2 + it)."""
    index: int
    t: float
    z_prime: float | None = None
    zeta_prime_at_rho: complex | None = None


def zeta_prime_at_zero(rec: ZeroRecord) -> complex:
    """zeta'(1/2 + it) at a zero, from the phase relation
    zeta'(rho) = -i e^{-i theta(t)} Z'(t) for the upper zero."""
    zp = rec.z_prime if rec.z_prime is not None else z_prime(rec.t)
    return -1j * cmath.exp(-1j * theta_rs(rec.t)) * zp


def _fill_derivatives(records) -> None:
    # the missing Z' values come from one array evaluation of z_prime
    pending = [rec for rec in records if rec.z_prime is None]
    if pending:
        zps = z_prime(np.array([rec.t for rec in pending]))
        for rec, zp in zip(pending, zps.tolist()):
            if zp == 0.0:
                raise ConsistencyError(f"Z'({rec.t:g}) vanished; zero not simple?")
            rec.z_prime = zp
    for rec in records:
        if rec.zeta_prime_at_rho is None:
            rec.zeta_prime_at_rho = zeta_prime_at_zero(rec)


@dataclass
class ZeroDatabase:
    """Ordered zero records plus the ordinate up to which the count is verified."""
    records: list[ZeroRecord] = field(default_factory=list)
    source: str = "computed"
    t_max_verified: float = 0.0

    def __len__(self):
        return len(self.records)

    def ordinates(self) -> np.ndarray:
        return np.array([r.t for r in self.records])

    def ensure_derivatives(self, upto: int | None = None) -> None:
        """Fill Z' and zeta'(rho) lazily for the first ``upto`` records."""
        _fill_derivatives(self.records[: upto if upto is not None else len(self.records)])

    def check_invariants(self) -> None:
        ts = self.ordinates()
        if len(ts) and (np.any(ts <= 0) or np.any(np.diff(ts) <= 0)):
            raise MonotonicityError("zero ordinates must be positive and increasing")
        if self.t_max_verified > 0:
            n_below = int(np.sum(ts <= self.t_max_verified))
            expected = _count_avoiding_zeros(self.t_max_verified)
            if n_below != expected:
                raise ConsistencyError(
                    f"zero count {n_below} below t={self.t_max_verified:g} "
                    f"disagrees with the counting formula ({expected})")
        filled = [r.z_prime for r in self.records if r.z_prime is not None]
        signs = np.sign(filled)
        if len(signs) > 1 and len(filled) == len(self.records):
            if np.any(signs[:-1] * signs[1:] >= 0):
                raise ConsistencyError("Z' must alternate in sign between simple zeros")


def find_zeros(t_min: float, t_max: float) -> list[ZeroRecord]:
    """All zeros of Z in (t_min, t_max), refined to |dt| < 1e-9.

    The count is cross-checked against the exact counting formula; a
    mismatch raises :class:`MissedZeroError`.
    """
    if not (0.0 <= t_min < t_max <= T_BUDGET):
        raise ValueError(f"zero scan budget is 0 <= t_min < t_max <= {T_BUDGET:g}")
    lo = _count_avoiding_zeros(t_min)
    roots = find_all(z_function, t_min, t_max, ZERO_GRID_STEP,
                     _count_avoiding_zeros(t_max) - lo)
    records = [ZeroRecord(index=lo + k + 1, t=t) for k, t in enumerate(roots)]
    _fill_derivatives(records)
    return records


def build_database(t_max: float) -> ZeroDatabase:
    """Compute, verify, and package all zeros with ordinate below t_max."""
    db = ZeroDatabase(records=find_zeros(0.0, t_max), source="computed",
                      t_max_verified=t_max)
    db.check_invariants()
    return db


# --------------------------------------------------------------------------
# persistence
# --------------------------------------------------------------------------

def persist_zeros(db: ZeroDatabase, path) -> None:
    """Write the database as a JSON document (floats round-trip exactly).

    The document goes to a temporary file in the same directory, which then
    replaces ``path`` in one step: a failed write leaves the previous file
    as it was.
    """
    doc = {
        "zeros": [
            {
                "index": r.index,
                "t": r.t,
                "z_prime": r.z_prime,
                "zeta_prime_re": None if r.zeta_prime_at_rho is None else r.zeta_prime_at_rho.real,
                "zeta_prime_im": None if r.zeta_prime_at_rho is None else r.zeta_prime_at_rho.imag,
            }
            for r in db.records
        ],
        "t_max_verified": db.t_max_verified,
        "source": db.source,
    }
    path = Path(path)
    # one name per process and thread, so concurrent writers never share it
    tmp = path.with_name(f".{path.name}.{os.getpid()}-{threading.get_ident()}.tmp")
    try:
        tmp.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _parse_text_table(text: str) -> list[float]:
    ts = []
    for ln, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            v = float(line)
        except ValueError as exc:
            raise FormatError(f"line {ln}: not a decimal ordinate: {line!r}") from exc
        if not math.isfinite(v) or v <= 0:
            raise FormatError(f"line {ln}: ordinate must be finite and positive")
        ts.append(v)
    return ts


def ingest_zeros(path) -> ZeroDatabase:
    """Load a zero table: either a plain-text ordinate list (one ascending
    value per line, '#' comments allowed) or a previously persisted JSON
    document.  The count-consistency invariant is enforced on load."""
    text = Path(path).read_text(encoding="utf-8")
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            doc = json.loads(text)
            records = [
                ZeroRecord(
                    index=e["index"],
                    t=e["t"],
                    z_prime=e.get("z_prime"),
                    zeta_prime_at_rho=(
                        None if e.get("zeta_prime_re") is None
                        else complex(e["zeta_prime_re"], e["zeta_prime_im"])),
                )
                for e in doc["zeros"]
            ]
            db = ZeroDatabase(records=records, source=doc.get("source", "ingested"),
                              t_max_verified=doc["t_max_verified"])
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            raise FormatError(f"malformed zero-record document: {exc}") from exc
    else:
        ts = _parse_text_table(text)
        if any(b <= a for a, b in zip(ts, ts[1:])):
            raise MonotonicityError("ordinates must be strictly increasing")
        records = [ZeroRecord(index=i + 1, t=t) for i, t in enumerate(ts)]
        # margin must stay below the gap to the first zero missing from the
        # table; 0.01 is far under the minimal gap at any ingestable height
        t_max = ts[-1] + 0.01 if ts else 0.0
        db = ZeroDatabase(records=records, source="ingested", t_max_verified=t_max)
    db.check_invariants()
    return db
