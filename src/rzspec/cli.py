"""Command-line harness producing the figure-style CSV/SVG/JSON artifacts.

Subcommands: zeros, xih, polya, landau, mirror, perron, mertens,
interferometer.  Outputs are deterministic: floats are rendered with 17
significant digits, no timestamps are embedded, and rerunning a command
with the same configuration reproduces identical bytes.  Option
precedence is command-line flags > JSON config file > built-in defaults;
the environment contributes only RZ_CACHE_DIR, the directory of the
zero-record cache.

Flag conventions: --t-min/--t-max bound the sweep variable of the
command (ordinate t, energy E, or level range); for the perron command
--t-min is the fixed critical-line height while n sweeps, and for
mertens --n-max bounds the x sweep.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import counting, dirac, landau, mirrors, perron, svg
from . import zeta as zeta_mod
from .errors import RZError

_DEFAULTS = {
    "t_min": 0.0,
    "t_max": None,       # per-command fallback
    "epsilon": 0.1,
    "vartheta": None,    # tuned when omitted
    "n_max": None,       # per-command fallback
    "n_zeros": 100,
    "n_trivial": 20,
    "l_over_ell": 100.0,
    "character_modulus": None,
    "out": ".",
    "cache": None,
}

# The commands start no threads; the value stays because the benchmark's
# host record (perfbench/run.py) reports it.
_WORKERS = min(8, os.cpu_count() or 1)

# config-file options that take an integer or a string; the others take a
# number, and null is accepted only where the default is null
_CONFIG_INTS = {"n_max", "n_zeros", "n_trivial", "character_modulus"}
_CONFIG_STRS = {"out", "cache"}


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


def _write_csv(path: Path, header, rows) -> None:
    # an int value is written as an int, any other as a float to 17
    # significant digits; one format string per row's tuple of types
    formats = {}
    lines = [",".join(header)]
    for row in rows:
        row = tuple(row)
        kinds = tuple(map(type, row))
        if kinds not in formats:
            formats[kinds] = ",".join("%d" if isinstance(v, (int, np.integer)) else "%.17g"
                                      for v in row)
        lines.append(formats[kinds] % row)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_json(path: Path, doc) -> None:
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def _require_n_max(n_max: int, least: int, what: str) -> None:
    # checked before any artifact or cache write, so a refused run leaves nothing
    if n_max < least:
        raise RZError(f"--n-max {n_max}: the {what} needs n_max >= {least}")


# --------------------------------------------------------------------------
# zero cache
# --------------------------------------------------------------------------

def _t_for_count(n: int) -> float:
    # smallest t with n_average(t) comfortably above n, by bisection
    lo, hi = 10.0, zeta_mod.T_BUDGET
    if counting.n_average(hi) < n + 2:
        raise RZError(
            f"{n} zeros exceed the computed-scan budget (t <= {zeta_mod.T_BUDGET:g}); "
            "ingest a published table instead")
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if counting.n_average(mid) < n + 2:
            lo = mid
        else:
            hi = mid
    return hi


def _load_cache(path: Path) -> zeta_mod.ZeroDatabase | None:
    if path.is_file():
        return zeta_mod.ingest_zeros(path)
    return None


def _ensure_zeros(cfg: RunConfig, t_needed: float | None = None,
                  count_needed: int | None = None) -> zeta_mod.ZeroDatabase:
    """Load the cache and extend it (append-only) to cover the request."""
    db = _load_cache(cfg.cache)
    if count_needed is not None:
        # a cache holding enough zeros serves as is, even past the scan budget
        if db is not None and len(db) >= count_needed and t_needed is None:
            return db
        t_needed = max(t_needed or 0.0, _t_for_count(count_needed))
    if t_needed is None:
        raise ValueError("nothing requested")
    t_needed = min(float(t_needed), zeta_mod.T_BUDGET)
    if db is not None and db.t_max_verified >= t_needed:
        return db
    if db is None or len(db) == 0:
        db = zeta_mod.build_database(t_needed)
    else:
        extra = zeta_mod.find_zeros(db.t_max_verified, t_needed)
        base = len(db.records)
        for k, rec in enumerate(extra):
            rec.index = base + k + 1
        db = zeta_mod.ZeroDatabase(records=db.records + extra, source=db.source,
                                   t_max_verified=t_needed)
        db.check_invariants()
    cfg.cache.parent.mkdir(parents=True, exist_ok=True)
    zeta_mod.persist_zeros(db, cfg.cache)
    return db


# --------------------------------------------------------------------------
# commands
# --------------------------------------------------------------------------

def _cmd_zeros(cfg: RunConfig) -> None:
    t_max = cfg.t_max if cfg.t_max is not None else 50.0
    db = _ensure_zeros(cfg, t_needed=t_max)
    db.ensure_derivatives()
    rows = [
        (r.index, r.t, r.z_prime, r.zeta_prime_at_rho.real, r.zeta_prime_at_rho.imag)
        for r in db.records if cfg.t_min <= r.t <= t_max
    ]
    _write_csv(cfg.out / "zeros.csv",
               ["index", "t", "z_prime", "zeta_prime_re", "zeta_prime_im"], rows)
    ts = np.arange(max(cfg.t_min, 0.0), t_max + 1e-9, 0.05)
    svg.line_plot(cfg.out / "zeros.svg", ts, [zeta_mod.z_function(ts)], labels=["Z(t)"],
                  title="Hardy Z on the critical line", x_label="t", y_label="Z")


def _cmd_xih(cfg: RunConfig) -> None:
    t_max = cfg.t_max if cfg.t_max is not None else 60.0
    ts = np.arange(cfg.t_min, t_max + 1e-9, 0.25)
    cols = [dirac.xi_h(ts), dirac.polya_xi_star(ts), dirac.riemann_xi(ts)]
    _write_csv(cfg.out / "xih.csv", ["t", "xi_h", "xi_polya_star", "xi_riemann"],
               zip(ts.tolist(), *(c.tolist() for c in cols)))
    svg.line_plot(cfg.out / "xih.svg", ts, cols,
                  labels=["xi_H", "xi*", "xi"], title="spectral functions",
                  x_label="t", y_label="xi", y_log=True)


def _cmd_polya(cfg: RunConfig) -> None:
    betas = np.arange(-3.0, 3.0 + 1e-9, 0.02)
    kinds = [dirac.SpectralFunctionKind.XI_RIEMANN,
             dirac.SpectralFunctionKind.XI_POLYA_STAR,
             dirac.SpectralFunctionKind.XI_DIRAC_H]
    cols = [dirac.phi_kernel(k, betas) for k in kinds]
    _write_csv(cfg.out / "polya.csv", ["beta", "phi_riemann", "phi_polya_star", "phi_dirac_h"],
               zip(betas.tolist(), *(c.tolist() for c in cols)))
    svg.line_plot(cfg.out / "polya.svg", betas, cols,
                  labels=["Phi", "Phi*", "Phi_H"], title="cosine-transform kernels",
                  x_label="beta", y_label="Phi")


def _cmd_landau(cfg: RunConfig) -> None:
    e_max = cfg.t_max if cfg.t_max is not None else 20.0
    grid_n = cfg.n_max if cfg.n_max is not None else 200
    _require_n_max(grid_n, 1, "|psi| grid")
    geom = landau.LandauGeometry(magnetic_length=1.0, box_size=cfg.l_over_ell)
    levels = landau.landau_levels(e_max, geom)
    _write_csv(cfg.out / "landau_levels.csv", ["k", "E"],
               list(enumerate(levels, start=1)))
    es = np.linspace(0.0, e_max, 200)
    smooth = [landau.n_landau(float(e), geom) for e in es]
    stair = [float(np.searchsorted(levels, e)) for e in es]
    svg.line_plot(cfg.out / "landau.svg", es, [smooth, stair],
                  labels=["smooth count", "levels"], title="box-quantized level count",
                  x_label="E", y_label="n")
    xs = np.linspace(-10.0, 10.0, grid_n)
    amp, bound = landau.psi_abs_grid(10.0, xs, xs, geom)
    rows = ((xs[i], xs[j], amp[i, j], bound[i, j])
            for i in range(grid_n) for j in range(grid_n))
    _write_csv(cfg.out / "landau_psi.csv", ["x", "y", "abs_psi", "abs_psi_bound"], rows)


def _snap_to_ordinate(e_val: float, db, window: float = 1e-3) -> float:
    # a height given to a few decimals that lands near a cached zero is
    # meant to be that zero; snap so the at-zero machinery engages exactly
    ts = db.ordinates()
    if len(ts):
        j = int(np.argmin(np.abs(ts - e_val)))
        if abs(float(ts[j]) - e_val) < window:
            return float(ts[j])
    return e_val


def _cmd_mirror(cfg: RunConfig) -> None:
    n_max = cfg.n_max if cfg.n_max is not None else 100000
    if cfg.t_min > 0:
        db = _ensure_zeros(cfg, t_needed=max(15.0, cfg.t_min + 1.0))
        e_val = _snap_to_ordinate(cfg.t_min, db)
    else:
        db = _ensure_zeros(cfg, t_needed=15.0)
        e_val = db.records[0].t
    vt = cfg.vartheta if cfg.vartheta is not None else mirrors.tuned_theta(e_val)
    report = mirrors.normalizability_diagnostic(e_val, cfg.epsilon, n_max, vt)
    _write_json(cfg.out / "mirror_diagnostic.json", report.to_json_dict())
    svg.line_plot(cfg.out / "mirror.svg", report.checkpoints,
                  [report.norm_partials, report.divergent_partials],
                  labels=["norm partial", "divergent part"],
                  title=f"norm partial sums at E = {e_val:.6f} ({report.classification})",
                  x_label="n (checkpoints)", y_label="partial sum")


def _cmd_perron(cfg: RunConfig) -> None:
    e_val = cfg.t_min if cfg.t_min > 0 else 20.0
    n_max = cfg.n_max if cfg.n_max is not None else 50
    _require_n_max(n_max, 3, "n sweep from 2 to n_max")
    db = _ensure_zeros(cfg, count_needed=cfg.n_zeros)
    e_val = _snap_to_ordinate(e_val, db)
    ts = db.ordinates()
    at_zero = bool(len(ts)) and float(np.min(np.abs(ts - e_val))) < 1e-6
    rcfg = perron.ResidueExpansionConfig(db, cfg.n_zeros, cfg.n_trivial,
                                         at_zero_mode=at_zero)
    ns = np.arange(2, n_max + 1)
    terms = perron._dirichlet_terms(max(n_max, 1), e_val)
    direct = np.cumsum(terms)[1:] - 0.5 * terms[1:]  # half-weighted last term
    resid = perron.m_z_perron(ns, e_val, rcfg)
    rows = [(n, d.real, d.imag, p.real, p.imag, abs(d), abs(p))
            for n, d, p in zip(ns, direct, resid)]
    _write_csv(cfg.out / "perron.csv",
               ["n_or_x", "direct_re", "direct_im", "perron_re", "perron_im",
                "abs_direct", "abs_perron"], rows)
    svg.line_plot(cfg.out / "perron.svg", [r[0] for r in rows],
                  [[r[5] for r in rows], [r[6] for r in rows]],
                  labels=["|direct|", "|residue series|"],
                  title=f"partial Dirichlet sums at E = {e_val:g}"
                        + (" (at-zero mode)" if at_zero else ""),
                  x_label="n", y_label="|M_z|")


def _cmd_mertens(cfg: RunConfig) -> None:
    x_max = cfg.n_max if cfg.n_max is not None else 100
    _require_n_max(x_max, 4, "x sweep from 2.5 to n_max - 0.5")
    db = _ensure_zeros(cfg, count_needed=cfg.n_zeros)
    rcfg = perron.ResidueExpansionConfig(db, cfg.n_zeros, cfg.n_trivial)
    ks = np.arange(2, int(x_max))
    xs = ks + 0.5
    exact = np.cumsum(perron.moebius_sieve(max(int(x_max) - 1, 1)))[ks]
    recon = perron.mertens_residue(xs, rcfg)
    rows = [(x, m, r, abs(r - m)) for x, m, r in zip(xs, exact, recon)]
    _write_csv(cfg.out / "mertens.csv",
               ["x", "mertens_exact", "mertens_residue", "abs_error"], rows)
    svg.line_plot(cfg.out / "mertens.svg", xs, [exact, recon],
                  labels=["M(x)", "residue series"], title="Mertens reconstruction",
                  x_label="x", y_label="M")


def _cmd_interferometer(cfg: RunConfig) -> None:
    n_max = cfg.n_max if cfg.n_max is not None else 30
    character = None
    if cfg.character_modulus is not None:
        character = _quadratic_character(cfg.character_modulus)
    vt = cfg.vartheta if cfg.vartheta is not None else 0.0
    layout = mirrors.interferometer_layout(n_max, character, boundary_phase=vt)
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
    p.add_argument("--t-min", type=float, default=None,
                   help="lower sweep bound; fixed height E for perron/mirror")
    p.add_argument("--t-max", type=float, default=None, help="upper sweep bound")
    p.add_argument("--epsilon", type=float, default=None, help="mirror strength scale")
    p.add_argument("--vartheta", type=float, default=None,
                   help="boundary phase in [0, 2pi); tuned automatically if omitted")
    p.add_argument("--n-max", type=int, default=None,
                   help="mirror count / sweep end / grid size, per command")
    p.add_argument("--n-zeros", type=int, default=None,
                   help="nontrivial zeros in residue series")
    p.add_argument("--n-trivial", type=int, default=None,
                   help="trivial zeros in residue series")
    p.add_argument("--l-over-ell", type=float, default=None,
                   help="box size over magnetic length (landau)")
    p.add_argument("--character-modulus", type=int, default=None,
                   help="modulus of the built-in quadratic character (4 or odd prime)")
    p.add_argument("--out", type=str, default=None, help="output directory")
    p.add_argument("--cache", type=str, default=None, help="zero-cache JSON path")
    p.add_argument("--config", type=str, default=None,
                   help="JSON file of option defaults (flags win)")
    return p


def _check_config(opts) -> None:
    # option values from a config file or from flags; a bad one is refused
    # here, before any cache or artifact write
    if not isinstance(opts, dict):
        raise RZError("a config file holds one JSON object of option values")
    unknown = set(opts) - set(_DEFAULTS)
    if unknown:
        raise RZError(f"unknown config keys: {sorted(unknown)}")
    for key, val in opts.items():
        if val is None and _DEFAULTS[key] is None:
            continue
        if key in _CONFIG_STRS:
            ok, kind = isinstance(val, str), "a string"
        elif key in _CONFIG_INTS:
            ok, kind = isinstance(val, int) and not isinstance(val, bool), "an integer"
        else:
            # the bound is false for NaN, the infinities and ints no float holds
            ok = (isinstance(val, (int, float)) and not isinstance(val, bool)
                  and abs(val) <= sys.float_info.max)
            kind = "a finite number"
        if not ok:
            raise RZError(f"option {key!r}: expected {kind}, got {json.dumps(val)}")


def resolve_config(argv) -> RunConfig:
    args = build_parser().parse_args(argv)
    _check_config({k: v for k, v in vars(args).items() if k in _DEFAULTS and v is not None})
    file_cfg = {}
    if args.config:
        file_cfg = json.loads(Path(args.config).read_text(encoding="utf-8"))
        _check_config(file_cfg)

    def pick(name):
        flag = getattr(args, name)
        if flag is not None:
            return flag
        if name in file_cfg:
            return file_cfg[name]
        return _DEFAULTS[name]

    out = Path(pick("out"))
    cache = pick("cache")
    if cache is None:
        cache_dir = os.environ.get("RZ_CACHE_DIR", str(out))
        cache = Path(cache_dir) / "zeros_cache.json"
    return RunConfig(
        command=args.command,
        t_min=float(pick("t_min") or 0.0),
        t_max=None if pick("t_max") is None else float(pick("t_max")),
        epsilon=float(pick("epsilon")),
        vartheta=None if pick("vartheta") is None else float(pick("vartheta")),
        n_max=None if pick("n_max") is None else int(pick("n_max")),
        n_zeros=int(pick("n_zeros")),
        n_trivial=int(pick("n_trivial")),
        l_over_ell=float(pick("l_over_ell")),
        character_modulus=(None if pick("character_modulus") is None
                           else int(pick("character_modulus"))),
        out=out,
        cache=Path(cache),
    )


def main(argv=None) -> int:
    try:
        cfg = resolve_config(argv if argv is not None else sys.argv[1:])
        cfg.out.mkdir(parents=True, exist_ok=True)
        _COMMANDS[cfg.command](cfg)
        return 0
    except RZError as exc:
        sys.stderr.write(json.dumps(
            {"error": type(exc).__name__, "message": str(exc)}) + "\n")
        return 1
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        sys.stderr.write(json.dumps(
            {"error": type(exc).__name__, "message": str(exc)}) + "\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
