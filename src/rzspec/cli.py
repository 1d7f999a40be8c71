"""Command-line harness producing the figure-style CSV/SVG/JSON artifacts.

Subcommands: zeros, xih, polya, landau, mirror, perron, mertens,
interferometer.  Outputs are deterministic: each CSV column has one
format, integers as integers and floats with 17 significant digits, no
timestamps are embedded, and rerunning a command with the same
configuration reproduces identical bytes.  The options are one table
(_OPTIONS), defaults and ranges per command where they differ: a flag is
an option's name with dashes and a JSON config-file key its name, null
means the default where no option-wide one is set, and every value is
checked against its command's range before any write.  Precedence is
flags > config file > defaults; the environment contributes only
RZ_CACHE_DIR, the zero-cache directory.  A command that needs more zeros
extends the cache to a multiple of 0.05 (zeta.extend_database): its
records depend on that height alone, not on the commands that built it,
and an append counts the zeros once at each height.

Flag conventions: --t-min/--t-max bound the sweep variable of the
command (ordinate t, energy E, or level range); for the perron command
--t-min is the fixed critical-line height while n sweeps, and for
mertens --n-max bounds the x sweep.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import counting, dirac, landau, mirrors, perron, svg
from . import zeta as zeta_mod
from .errors import NotAZero, RZError
from .roots import newton

# The one option list, name: (type, default, accepted range, help); the flag is the name with
# dashes and the config key the name.  A dict gives a default or range per command, None for the
# others; a default of None means the command tunes a value or takes none, and null is accepted
# only for an option that is None outside its dict.
_OPTIONS = {
    "t_min": (float, 0.0, None, "lower sweep bound; fixed height E for perron/mirror"),
    "t_max": (float, {"zeros": 50.0, "xih": 60.0, "landau": 20.0}, None, "upper sweep bound"),
    "epsilon": (float, 0.1, (0, math.inf), "mirror strength scale"),
    "vartheta": (float, {"interferometer": 0.0}, (0, math.nextafter(2.0 * math.pi, 0.0)),  # [0, 2 pi)
                 "boundary phase in [0, 2pi); tuned automatically if omitted"),
    "n_max": (int, {"landau": 200, "mirror": 100000, "perron": 50, "mertens": 100, "interferometer": 30},
              {"landau": (1, landau.PSI_GRID_N_BUDGET), "perron": (3, perron.SWEEP_N_BUDGET),
               "mertens": (4, perron.SWEEP_N_BUDGET), "interferometer": (2, mirrors.INTERFEROMETER_N_BUDGET),
               "mirror": (mirrors.DIAGNOSTIC_N_MIN, mirrors.DIAGNOSTIC_N_BUDGET)},
              "mirror count / sweep end / grid size, per command"),
    "n_zeros": (int, 100, (0, math.inf), "nontrivial zeros in residue series"),
    "n_trivial": (int, 20, (0, perron.TRIVIAL_ZEROS_MAX), "trivial zeros in residue series"),
    "l_over_ell": (float, 100.0, landau.BOX_RATIO_RANGE, "box size over magnetic length (landau)"),
    "character_modulus": (int, None, (3, mirrors.CHARACTER_MODULUS_MAX),
                          "modulus of the built-in quadratic character (4 or odd prime)"),
    "out": (str, ".", None, "output directory"),
    "cache": (str, None, None, "zero-cache JSON path"),
}

# The commands start no threads; the value stays because the benchmark's
# host record (perfbench/run.py) reports it.
_WORKERS = min(8, os.cpu_count() or 1)

_CSV_BLOCK = 4096  # CSV lines formatted by one % call and written at once


@dataclass
class RunConfig:
    """Resolved options of one CLI invocation."""
    command: str
    t_min: float
    t_max: float | None
    epsilon: float
    vartheta: float | None
    n_max: int | None
    n_zeros: int
    n_trivial: int
    l_over_ell: float
    character_modulus: int | None
    out: Path
    cache: Path


def _write_csv(path: Path, header, columns) -> None:
    # one format per column, from its type: an integer array is written as
    # integers, a float array to 17 significant digits and a list of str as
    # it is; each block of _CSV_BLOCK lines is formatted by one % call
    fmts = [{"i": "%d", "u": "%d", "f": "%.17g"}.get(c.dtype.kind) if isinstance(c, np.ndarray)
            else "%s" if isinstance(c, list) and all(isinstance(v, str) for v in c) else None
            for c in columns]
    if None in fmts:
        raise TypeError(f"CSV columns {[getattr(c, 'dtype', type(c)) for c in columns]}: "
                        "each must be an integer or float array or a list of str")
    if len(set(map(len, columns))) > 1:
        raise ValueError(f"CSV columns of unequal lengths {[len(c) for c in columns]}")
    row = ",".join(fmts) + "\n"
    with path.open("w", encoding="utf-8") as f:
        f.write(",".join(header) + "\n")
        for start in range(0, len(columns[0]) if columns else 0, _CSV_BLOCK):
            block = [c[start:start + _CSV_BLOCK] for c in columns]
            block = [c.tolist() if isinstance(c, np.ndarray) else c for c in block]
            f.write(row * len(block[0]) % tuple(itertools.chain.from_iterable(zip(*block))))


def _write_json(path: Path, doc) -> None:
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def _height_sweep(lo: float, hi: float, step: float) -> np.ndarray:
    # lo, lo + step, ... <= hi, refused before any write unless it has the two points of a plot
    ts = np.arange(lo, hi + 1e-9, step)
    if len(ts) < 2:
        raise RZError(f"heights {lo:g} .. {hi:g} in steps of {step:g}: need t_max >= t_min + {step:g}")
    return ts


# --------------------------------------------------------------------------
# zero cache
# --------------------------------------------------------------------------

def _t_for_count(n: int) -> float:
    # the Gram point g_(n+1), theta(t) = (n + 1) pi, where n_average(t) = n + 2: Newton on theta from the
    # budget down, where theta is convex and rising, in [10, T_BUDGET] since theta(10) < 0 < (n + 1) pi
    if counting.n_average(zeta_mod.T_BUDGET) < n + 2:
        raise RZError(
            f"{n} zeros exceed the computed-scan budget (t <= {zeta_mod.T_BUDGET:g}); "
            "ingest a published table instead")
    gram = lambda t: (zeta_mod.theta_rs(t) - (n + 1) * math.pi, zeta_mod._theta_prime(t), np.zeros_like(t))
    return float(newton(gram, [10.0], [zeta_mod.T_BUDGET], [zeta_mod.T_BUDGET], [-1.0])[0])


def _ensure_zeros(cfg: RunConfig, t_needed: float | None = None,
                  count_needed: int | None = None) -> zeta_mod.ZeroDatabase:
    """Load the cache and extend it (append-only) to cover the request."""
    db = zeta_mod.ingest_zeros(cfg.cache) if cfg.cache.is_file() else None
    if count_needed is not None:
        # a cache holding enough zeros serves as is, even past the scan budget
        if db is not None and len(db) >= count_needed:
            return db
        t_needed = _t_for_count(count_needed)
    if db is not None and db.t_max_verified >= t_needed:
        return db
    if t_needed > zeta_mod.T_BUDGET:
        raise RZError(f"zeros to t = {t_needed:g}: past the scan budget and the cache; ingest a table")
    db = zeta_mod.extend_database(db, t_needed)
    cfg.cache.parent.mkdir(parents=True, exist_ok=True)
    zeta_mod.persist_zeros(db, cfg.cache)
    return db


# --------------------------------------------------------------------------
# commands
# --------------------------------------------------------------------------

def _cmd_zeros(cfg: RunConfig) -> None:
    ts = _height_sweep(max(cfg.t_min, 0.0), cfg.t_max, 0.05)
    db = _ensure_zeros(cfg, t_needed=cfg.t_max)
    recs = [r for r in db.records if cfg.t_min <= r.t <= cfg.t_max]
    zeta_mod._fill_derivatives(recs)  # only the rows written: the cache is not rewritten
    zp = np.array([r.zeta_prime_at_rho for r in recs], dtype=complex)
    _write_csv(cfg.out / "zeros.csv",
               ["index", "t", "z_prime", "zeta_prime_re", "zeta_prime_im"],
               [np.array([r.index for r in recs], dtype=int), np.array([r.t for r in recs]),
                np.array([r.z_prime for r in recs]), zp.real, zp.imag])
    svg.line_plot(cfg.out / "zeros.svg", ts, [zeta_mod._z_scan(ts)], labels=["Z(t)"],
                  title="Hardy Z on the critical line", x_label="t", y_label="Z")


def _cmd_xih(cfg: RunConfig) -> None:
    ts = _height_sweep(cfg.t_min, cfg.t_max, 0.25)
    cols = [dirac.xi_h(ts), dirac.polya_xi_star(ts), dirac.riemann_xi(ts)]
    _write_csv(cfg.out / "xih.csv", ["t", "xi_h", "xi_polya_star", "xi_riemann"], [ts, *cols])
    svg.line_plot(cfg.out / "xih.svg", ts, cols,
                  labels=["xi_H", "xi*", "xi"], title="spectral functions",
                  x_label="t", y_label="xi", y_log=True)


def _cmd_polya(cfg: RunConfig) -> None:
    betas = np.arange(-3.0, 3.0 + 1e-9, 0.02)
    betas[:150] = -betas[:150:-1]  # mirrored, so the even kernels write equal rows at -beta and beta
    kinds = [dirac.SpectralFunctionKind.XI_RIEMANN,
             dirac.SpectralFunctionKind.XI_POLYA_STAR,
             dirac.SpectralFunctionKind.XI_DIRAC_H]
    cols = [dirac.phi_kernel(k, betas) for k in kinds]
    _write_csv(cfg.out / "polya.csv", ["beta", "phi_riemann", "phi_polya_star", "phi_dirac_h"],
               [betas, *cols])
    svg.line_plot(cfg.out / "polya.svg", betas, cols,
                  labels=["Phi", "Phi*", "Phi_H"], title="cosine-transform kernels",
                  x_label="beta", y_label="Phi")


def _cmd_landau(cfg: RunConfig) -> None:
    geom = landau.LandauGeometry(magnetic_length=1.0, box_size=cfg.l_over_ell)
    levels = landau.landau_levels(cfg.t_max, geom)
    _write_csv(cfg.out / "landau_levels.csv", ["k", "E"],
               [np.arange(1, len(levels) + 1), np.asarray(levels, dtype=float)])
    es = np.linspace(0.0, cfg.t_max, 200)
    svg.line_plot(cfg.out / "landau.svg", es,
                  [landau.n_landau(es, geom), np.searchsorted(levels, es)],
                  labels=["smooth count", "levels"], title="box-quantized level count",
                  x_label="E", y_label="n")
    xs = np.linspace(-10.0, 10.0, cfg.n_max)
    amp, bound = landau.psi_abs_grid(10.0, xs, xs, geom)
    # the grid coordinates are formatted once, as strings
    coords = ["%.17g" % v for v in xs.tolist()]
    _write_csv(cfg.out / "landau_psi.csv", ["x", "y", "abs_psi", "abs_psi_bound"],
               [[x for x in coords for _ in coords], coords * cfg.n_max, amp.ravel(), bound.ravel()])


_SNAP_WINDOW = 1e-3  # a height this close to a cached zero, given to a few decimals, is that zero


def _snap_to_ordinate(e_val: float, db) -> float:
    # the cached zero nearest e_val if within _SNAP_WINDOW, else e_val
    ts = db.ordinates()
    near = float(ts[np.argmin(np.abs(ts - e_val))]) if len(ts) else math.inf
    return near if abs(near - e_val) < _SNAP_WINDOW else e_val


def _cmd_mirror(cfg: RunConfig) -> None:
    if cfg.vartheta is None and cfg.t_min > 0:  # the tuned phase needs a zero near t_min
        if np.prod(zeta_mod.z_function(cfg.t_min + np.array([-_SNAP_WINDOW, _SNAP_WINDOW]))) > 0:
            raise NotAZero(f"Z keeps its sign on {cfg.t_min:g} +- {_SNAP_WINDOW:g}: no zero to tune to")
    # a tuned phase needs the zero in the table; a given one reads the table to the budget at most
    cap = zeta_mod.T_BUDGET if cfg.vartheta is not None else max(zeta_mod.T_BUDGET, cfg.t_min + _SNAP_WINDOW)
    db = _ensure_zeros(cfg, t_needed=min(max(15.0, cfg.t_min + 1.0), cap))
    e_val = _snap_to_ordinate(cfg.t_min, db) if cfg.t_min > 0 else db.records[0].t
    vt = mirrors.tuned_theta(e_val) if cfg.vartheta is None else cfg.vartheta
    report = mirrors.normalizability_diagnostic(e_val, cfg.epsilon, cfg.n_max, vt)
    _write_json(cfg.out / "mirror_diagnostic.json", report.to_json_dict())
    svg.line_plot(cfg.out / "mirror.svg", report.checkpoints,
                  [report.norm_partials, report.divergent_partials],
                  labels=["norm partial", "divergent part"],
                  title=f"norm partial sums at E = {e_val:.6f} ({report.classification})",
                  x_label="n (checkpoints)", y_label="partial sum")


def _cmd_perron(cfg: RunConfig) -> None:
    db = _ensure_zeros(cfg, count_needed=cfg.n_zeros)
    e_val = _snap_to_ordinate(cfg.t_min if cfg.t_min > 0 else 20.0, db)  # on a zero: at-zero head
    rcfg = perron.ResidueExpansionConfig(db, cfg.n_zeros, cfg.n_trivial)
    ns = np.arange(2, cfg.n_max + 1)
    terms = perron._dirichlet_terms(perron.moebius_sieve(cfg.n_max)[1:], e_val)
    direct = np.cumsum(terms)[1:] - 0.5 * terms[1:]  # half-weighted last term
    resid = perron.m_z_perron(ns, e_val, rcfg)
    # np.hypot, not np.abs: only it has the bits of abs() of each complex scalar
    mags = [np.hypot(v.real, v.imag) for v in (direct, resid)]
    _write_csv(cfg.out / "perron.csv",
               ["n_or_x", "direct_re", "direct_im", "perron_re", "perron_im",
                "abs_direct", "abs_perron"],
               [ns, direct.real, direct.imag, resid.real, resid.imag, *mags])
    svg.line_plot(cfg.out / "perron.svg", ns, mags,
                  labels=["|direct|", "|residue series|"],
                  title=f"partial Dirichlet sums at E = {e_val:g}"
                        + (" (at-zero mode)" if e_val in db.ordinates() else ""),
                  x_label="n", y_label="|M_z|")


def _cmd_mertens(cfg: RunConfig) -> None:
    db = _ensure_zeros(cfg, count_needed=cfg.n_zeros)
    rcfg = perron.ResidueExpansionConfig(db, cfg.n_zeros, cfg.n_trivial)
    ks = np.arange(2, cfg.n_max)
    xs = ks + 0.5
    exact = np.cumsum(perron.moebius_sieve(cfg.n_max - 1))[ks]
    recon = perron.mertens_residue(xs, rcfg)
    _write_csv(cfg.out / "mertens.csv",
               ["x", "mertens_exact", "mertens_residue", "abs_error"],
               [xs, exact, recon, np.abs(recon - exact)])
    svg.line_plot(cfg.out / "mertens.svg", xs, [exact, recon],
                  labels=["M(x)", "residue series"], title="Mertens reconstruction",
                  x_label="x", y_label="M")


def _cmd_interferometer(cfg: RunConfig) -> None:
    character = None if cfg.character_modulus is None else _quadratic_character(cfg.character_modulus)
    layout = mirrors.interferometer_layout(cfg.n_max, character, boundary_phase=cfg.vartheta)
    _write_json(cfg.out / "interferometer.json", layout.to_json_dict())


def _quadratic_character(q: int) -> mirrors.DirichletCharacter:
    """The real quadratic character mod q for q = 4 or an odd prime."""
    if q == 4:
        return mirrors.DirichletCharacter(4, (0, 1, 0, -1))
    if q < 3 or q % 2 == 0 or any(q % p == 0 for p in range(3, int(math.isqrt(q)) + 1, 2)):
        raise RZError(
            f"modulus {q}: only 4 and odd primes have a built-in character; "
            "construct a DirichletCharacter value table for other moduli")
    vals = [0] * q
    for r in range(1, q):
        ls = pow(r, (q - 1) // 2, q)
        vals[r] = 1 if ls == 1 else -1
    return mirrors.DirichletCharacter(q, tuple(vals))


_COMMANDS = {
    "zeros": _cmd_zeros,
    "xih": _cmd_xih,
    "polya": _cmd_polya,
    "landau": _cmd_landau,
    "mirror": _cmd_mirror,
    "perron": _cmd_perron,
    "mertens": _cmd_mertens,
    "interferometer": _cmd_interferometer,
}


# --------------------------------------------------------------------------
# argument handling
# --------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="rzspec",
        description="Critical-line spectral toolkit: zero tables, spectral "
                    "functions, Landau levels, mirror diagnostics, and "
                    "residue-series reconstructions as CSV/SVG/JSON artifacts.")
    p.add_argument("command", choices=sorted(_COMMANDS))
    for key, (typ, _, _, text) in _OPTIONS.items():
        p.add_argument("--" + key.replace("_", "-"), type=typ, default=None, help=text)
    p.add_argument("--config", type=str, default=None,
                   help="JSON file of option defaults (flags win)")
    return p


def _per(command: str | None, entry):
    # an _OPTIONS default or range for the command; a dict gives one per command
    return entry.get(command) if isinstance(entry, dict) else entry


def _check_config(opts, command: str) -> None:
    # option values from a config file or from flags; a bad one for the
    # command is refused here, before any directory, cache or artifact write
    if not isinstance(opts, dict):
        raise RZError("a config file holds one JSON object of option values")
    unknown = set(opts) - set(_OPTIONS)
    if unknown:
        raise RZError(f"unknown config keys: {sorted(unknown)}")
    for key, val in opts.items():
        typ, default, rng, _ = _OPTIONS[key]
        if val is None and _per(None, default) is None:
            continue
        if typ is str:
            ok, kind = isinstance(val, str), "a string"
        else:
            lo, hi = _per(command, rng) or (-math.inf, math.inf)
            # the bound is false for NaN, the infinities and ints no float holds
            ok = (isinstance(val, (typ, int)) and not isinstance(val, bool)
                  and abs(val) <= sys.float_info.max and lo <= val <= hi)
            kind = "an integer" if typ is int else "a finite number"
            kind += f" in [{lo}, {hi}]" if _per(command, rng) else ""
        if not ok:
            raise RZError(f"option {key!r}: expected {kind}, got {json.dumps(val)}")


def resolve_config(argv) -> RunConfig:
    args = build_parser().parse_args(argv)
    flags = {k: v for k, v in vars(args).items() if k in _OPTIONS and v is not None}
    _check_config(flags, args.command)
    file_cfg = json.loads(Path(args.config).read_text(encoding="utf-8")) if args.config else {}
    _check_config(file_cfg, args.command)
    opts = {k: _per(args.command, default) for k, (_, default, _, _) in _OPTIONS.items()}
    # flags > config file > defaults, where a null config key means the default
    opts |= {k: _OPTIONS[k][0](v) for k, v in (file_cfg | flags).items() if v is not None}
    opts["t_min"] += 0.0  # a sweep from -0 starts at +0
    out, cache = Path(opts.pop("out")), opts.pop("cache")
    if cache is None:
        cache = Path(os.environ.get("RZ_CACHE_DIR", out)) / "zeros_cache.json"
    return RunConfig(args.command, out=out, cache=Path(cache), **opts)


def main(argv=None) -> int:
    try:
        cfg = resolve_config(argv if argv is not None else sys.argv[1:])
        cfg.out.mkdir(parents=True, exist_ok=True)
        _COMMANDS[cfg.command](cfg)
        return 0
    except (RZError, ValueError, OSError) as exc:  # json.JSONDecodeError is a ValueError
        sys.stderr.write(json.dumps(
            {"error": type(exc).__name__, "message": str(exc)}) + "\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
