"""The four workloads: set-up, the operations of one pass, and their checks.

Each workload is a closed loop of one caller: an operation (one CLI command
or one library call) starts only when the previous one has returned.  The
seed picks only the sampled points (dual-route heights, scalar psi points
and the off-zero perron height); the fixed sweeps do not depend on it.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import reference as ref

KUMMER_REL_TOL = 1e-6        # stated tolerance of a Kummer value, relative
KUMMER_KNOWN_OVER = 3532     # over-budget cells of the default landau grid at the seed
ORDINATE_TOL = 1e-6          # zero ordinates against the published table
DUAL_ROUTE_TOL = {"XI_DIRAC_H": 1e-8, "XI_POLYA_STAR": 1e-8, "XI_RIEMANN": 1e-6}
PERRON_TOL = 0.1             # residue series vs direct sum over n in [10, 50], 100 zeros
MERTENS_1000_TOL = 0.5       # Mertens residue series with 1000 zeros

KNOWN_DEFECTS = {
    "kummer-budget": "Kummer series values whose certified bound exceeds 1e-6 relative are "
                     f"returned without the bound ({KUMMER_KNOWN_OVER} of the 40000 landau_psi.csv "
                     "cells at the seed; scalar psi_plus/psi_minus drop it too)",
    "cli-n-zeros-1000": "rzspec mertens/perron --n-zeros 1000 is refused by cli._t_for_count "
                        "before the cache is read, even when the cache is the published table",
}


@dataclass
class Op:
    name: str
    fn: Callable[[], object]
    out: Path | None = None          # directory whose files are the op's artifacts
    extra: tuple = ()                # further artifact files


@dataclass
class Ctx:
    root: Path
    work: Path
    seed: int
    rz: object                       # the rzspec package
    table: list = field(default_factory=list)
    state: dict = field(default_factory=dict)


class Checker:
    """Reference-check outcomes per operation name."""

    def __init__(self):
        self.checks: dict[str, list] = {}
        self.known_seen: dict[str, str] = {}

    def cond(self, op, label, ok, known=None, detail=""):
        self.checks.setdefault(op, []).append((label, bool(ok), None, known, detail))

    def tol(self, op, label, err, tol, known=None):
        ratio = float(err) / tol
        ok = math.isfinite(ratio) and ratio <= 1.0
        self.checks.setdefault(op, []).append((label, ok, ratio, known, f"err {err:.3g} tol {tol:g}"))

    def status(self, op) -> str:
        """'ok', 'known' (every failed check is a listed known defect) or 'failed'."""
        failed = [c for c in self.checks.get(op, []) if not c[1]]
        if not failed:
            return "ok"
        return "known" if all(c[3] for c in failed) else "failed"

    def err_ratio_max(self):
        best = (0.0, "")
        for op, cs in self.checks.items():
            for label, _ok, ratio, _k, _d in cs:
                if ratio is not None and ratio > best[0]:
                    best = (ratio, f"{op}: {label}")
        return best

    def failures(self):
        return [(op, label, known, detail) for op, cs in self.checks.items()
                for label, ok, _r, known, detail in cs if not ok]


def cli_op(ctx: Ctx, name: str, args: list, out: Path, extra: tuple = ()) -> Op:
    argv = [str(a) for a in args] + ["--out", str(out)]

    def fn():
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = ctx.rz.cli.main(argv)
        if code != 0:
            raise RuntimeError(f"exit code {code}: {err.getvalue().strip()}")
        return code
    return Op(name, fn, out, extra)


def _warm_cache(ctx: Ctx, path: Path, n_zeros: int) -> None:
    """Build the zero cache a first CLI call with --n-zeros would build."""
    cli = ctx.rz.cli
    cfg = cli.resolve_config(["zeros", "--cache", str(path), "--out", str(ctx.work)])
    cli._ensure_zeros(cfg, count_needed=n_zeros)


def _svgs_ok(ck, op, out: Path):
    for p in sorted(out.glob("*.svg")):
        ck.cond(op, f"{p.name} parses as SVG", ref.svg_ok(p))


def _ordinates(ck, op, ts, table, label):
    n = len(ts)
    ck.cond(op, f"{label}: {n} zeros, table has {len(table)}", n == len(table))
    if n and n == len(table):
        ck.tol(op, f"{label}: ordinates vs table", np.max(np.abs(np.asarray(ts) - table)),
               ORDINATE_TOL)


def _cache_zeta_primes(cache: Path, count: int):
    doc = json.loads(cache.read_text(encoding="utf-8"))["zeros"][:count]
    return (np.array([e["t"] for e in doc]),
            np.array([complex(e["zeta_prime_re"], e["zeta_prime_im"]) for e in doc]))


def _mertens_series(xs, ts, zps, n_trivial):
    """-2 + sum over zero pairs of x^rho/(rho zeta'(rho)) + trivial tail, vectorized."""
    xs = np.asarray(xs, dtype=float)[:, None]
    rho = 0.5 + 1j * ts[None, :]
    pair = np.exp(rho * np.log(xs)) / (rho * zps[None, :])
    total = -2.0 + 2.0 * pair.real.sum(axis=1)
    for n in range(1, n_trivial + 1):
        total += xs[:, 0] ** (-2.0 * n) / (-2.0 * n * ref.zeta_prime_trivial(n))
    return total


def _perron_csv(ck, op, path: Path, E: float, mu):
    _, rows = ref.read_csv(path)
    ns = rows[:, 0].astype(int)
    own = ref.dirichlet_partial(mu[: ns[-1] + 1], E, primed=True)[ns - 1]
    direct = rows[:, 1] + 1j * rows[:, 2]
    ck.tol(op, "direct sums vs own sieve", np.max(np.abs(direct - own) / np.maximum(1, np.abs(own))),
           1e-10)
    window = (ns >= 10) & (ns <= 50)
    resid = rows[window, 3] + 1j * rows[window, 4]
    ck.tol(op, "residue series vs direct, n in [10, 50]",
           np.max(np.abs(resid - direct[window])), PERRON_TOL)


def _mertens_csv(ck, op, path: Path, cache: Path, n_zeros: int, n_trivial: int):
    _, rows = ref.read_csv(path)
    xs = rows[:, 0]
    mu = ref.moebius(int(xs[-1]))
    m_own = np.cumsum(mu)[np.floor(xs).astype(int)]
    ck.cond(op, f"exact Mertens values at {len(xs)} x", np.array_equal(rows[:, 1], m_own))
    ts, zps = _cache_zeta_primes(cache, n_zeros)
    ck.tol(op, "residue column vs own evaluation of the series",
           np.max(np.abs(rows[:, 2] - _mertens_series(xs, ts, zps, n_trivial))), 1e-8)


# ----------------------------------------------------------------------
# figures
# ----------------------------------------------------------------------

FIGURE_COMMANDS = [
    # the artifact set and sizes of scripts/reproduce_figures.py
    ("zeros", ["--t-max", "60"]),
    ("xih", ["--t-max", "60"]),
    ("polya", []),
    ("landau", ["--t-max", "20", "--l-over-ell", "100", "--n-max", "200"]),
    ("mirror", ["--epsilon", "0.1", "--n-max", "100000"]),
    ("perron", ["--t-min", "20", "--n-max", "50", "--n-zeros", "100"]),
    ("mertens", ["--n-max", "100", "--n-zeros", "100"]),
    ("interferometer", ["--n-max", "30"]),
]


def figures_prepare(ctx):
    ctx.state["cache"] = ctx.work / "figures_cache.json"
    _warm_cache(ctx, ctx.state["cache"], 100)


def figures_ops(ctx, pdir):
    cache = ["--cache", ctx.state["cache"]]
    return [cli_op(ctx, f"cli {cmd}", [cmd] + args + cache, pdir / cmd)
            for cmd, args in FIGURE_COMMANDS]


def figures_check(ctx, ck, pdir, values):
    rz, table = ctx.rz, np.array(ctx.table)
    for cmd, _ in FIGURE_COMMANDS:
        _svgs_ok(ck, f"cli {cmd}", pdir / cmd)

    _, z = ref.read_csv(pdir / "zeros" / "zeros.csv")
    _ordinates(ck, "cli zeros", z[:, 1], table[table <= 60.0], "t <= 60")

    op = "cli xih"
    _, xih = ref.read_csv(pdir / "xih" / "xih.csv")
    kinds = rz.dirac.SpectralFunctionKind
    for col, kind in ((1, kinds.XI_DIRAC_H), (2, kinds.XI_POLYA_STAR), (3, kinds.XI_RIEMANN)):
        rows = xih[xih[:, 0] <= 50.0]
        dev = max(abs(rz.dirac.xi_via_fourier(kind, float(t)) - v) for t, v in zip(rows[:, 0], rows[:, col]))
        ck.tol(op, f"{kind.name} closed form vs kernel transform on t <= 50", dev,
               DUAL_ROUTE_TOL[kind.name])

    op = "cli polya"
    _, pol = ref.read_csv(pdir / "polya" / "polya.csv")
    want = np.array([ref.polya_kernels(b) for b in pol[:, 0]])
    # absolute on the scale of each kernel's peak: the theta series behind Phi
    # cancels at negative beta, where values far below the peak carry no
    # relative accuracy in double precision
    ck.tol(op, "kernels vs 30-digit evaluation, relative to each kernel's peak",
           np.max(np.abs(pol[:, 1:] - want) / np.max(np.abs(want), axis=0)), 1e-12)

    op = "cli landau"
    geom = rz.landau.LandauGeometry(magnetic_length=1.0, box_size=100.0)
    _, lv = ref.read_csv(pdir / "landau" / "landau_levels.csv")
    cut = math.log(100.0 ** 2 / (2.0 * math.pi))
    smooth = 20.0 / (2.0 * math.pi) * cut - ref.siegel_theta(20.0) / math.pi
    ck.cond(op, f"{len(lv)} levels vs smooth count {smooth:.2f} (+-1)",
            abs(len(lv) - round(smooth)) <= 1)
    ck.tol(op, "quantization residual at each level",
           max(abs(math.remainder(2.0 * ref.siegel_theta(e) - e * cut, 2.0 * math.pi))
               for e in lv[:, 1]), 1e-8)
    _, psi = ref.read_csv(pdir / "landau" / "landau_psi.csv")
    xs = np.linspace(-10.0, 10.0, 200)
    amp, bound = rz.landau.psi_abs_grid(10.0, xs, xs, geom)
    ck.cond(op, "landau_psi.csv equals psi_abs_grid", np.array_equal(psi[:, 2], amp.ravel()))
    rel = (bound / amp).ravel()
    over = int(np.count_nonzero(rel > KUMMER_REL_TOL))
    ck.cond(op, f"cells with certified bound above {KUMMER_REL_TOL:g} relative: {over} of {rel.size}",
            over == 0, known="kummer-budget" if over <= KUMMER_KNOWN_OVER else None)
    sample = sorted(set(np.argsort(rel)[-8:].tolist() + list(range(0, rel.size, 2500))))
    for k in sample:
        x, y = psi[k, 0], psi[k, 1]
        want = abs(ref.psi_even(10.0, x, y))
        ck.tol(op, f"|psi| at ({x:.3f}, {y:.3f}) vs mpmath", abs(psi[k, 2] - want) / want,
               KUMMER_REL_TOL, known="kummer-budget" if rel[k] > KUMMER_REL_TOL else None)
    i, j = np.unravel_index(np.argmax(amp), amp.shape)
    x0, y0 = xs[i], xs[j]
    ck.tol(op, "ridge argmax distance from xy = 10", abs(x0 * y0 - 10.0) / math.hypot(x0, y0), 0.5)

    op = "cli mirror"
    rep = json.loads((pdir / "mirror" / "mirror_diagnostic.json").read_text())
    ck.cond(op, f"classification {rep['classification']} is tuned", rep["classification"] == "tuned")
    ck.cond(op, "cos_tail_min > 0.9", rep["cos_tail_min"] > 0.9)
    ck.tol(op, "E is the first zero", abs(rep["E"] - table[0]), ORDINATE_TOL)

    mu = ref.moebius(100)
    _perron_csv(ck, "cli perron", pdir / "perron" / "perron.csv", 20.0, mu)
    _mertens_csv(ck, "cli mertens", pdir / "mertens" / "mertens.csv", ctx.state["cache"], 100, 20)

    op = "cli interferometer"
    lay = json.loads((pdir / "interferometer" / "interferometer.json").read_text())["mirrors"]
    ns = [n for n in range(2, 31) if mu[n] != 0]
    ck.cond(op, "mirrors at the squarefree n <= 30", [e["n"] for e in lay] == ns)
    if len(lay) == len(ns):
        ck.tol(op, "positions and reflections vs 0.5 log n and mu(n)/sqrt(n)", max(
            max(abs(e["position"] - 0.5 * math.log(n)),
                abs(e["reflection_re"] - mu[n] / math.sqrt(n)), abs(e["reflection_im"]))
            for e, n in zip(lay, ns)), 1e-14)


# ----------------------------------------------------------------------
# zero_table
# ----------------------------------------------------------------------

ZERO_STEPS = (100, 200, 300, 400, 500)


def zero_table_prepare(ctx):
    pass


def zero_table_ops(ctx, pdir):
    cache = pdir / "zeros_cache.json"
    return [cli_op(ctx, f"cli zeros --t-max {t}",
                   ["zeros", "--t-max", t, "--cache", cache], pdir / f"step_{t}",
                   (cache,) if t == ZERO_STEPS[-1] else ())
            for t in ZERO_STEPS]


def zero_table_check(ctx, ck, pdir, values):
    table = np.array(ctx.table)
    for t in ZERO_STEPS:
        op = f"cli zeros --t-max {t}"
        _, z = ref.read_csv(pdir / f"step_{t}" / "zeros.csv")
        _ordinates(ck, op, z[:, 1], table[table <= t], f"t <= {t}")
        ck.cond(op, "indices run 1..n", np.array_equal(z[:, 0], np.arange(1, len(z) + 1)))
        _svgs_ok(ck, op, pdir / f"step_{t}")
    op = f"cli zeros --t-max {ZERO_STEPS[-1]}"
    doc = json.loads((pdir / "zeros_cache.json").read_text())
    ck.cond(op, f"cache holds {len(doc['zeros'])} zeros below t = 500, expected 269",
            len(doc["zeros"]) == 269 and doc["t_max_verified"] == 500.0)


# ----------------------------------------------------------------------
# dirichlet
# ----------------------------------------------------------------------

MERTENS_XS = [k + 0.5 for k in range(2, 201)]


def dirichlet_prepare(ctx):
    rz, st = ctx.rz, ctx.state
    st["cache"] = ctx.work / "dirichlet_cache.json"
    _warm_cache(ctx, st["cache"], 100)
    st["t1"] = rz.zeta.ingest_zeros(st["cache"]).records[0].t
    st["detuned"] = (rz.mirrors.tuned_theta(st["t1"]) + 0.5 * math.pi) % (2.0 * math.pi)
    st["table_copy"] = ctx.work / "zeros_1000.txt"
    shutil.copyfile(ctx.root / "tests" / "data" / "zeros_1000.txt", st["table_copy"])
    rng = np.random.default_rng(ctx.seed)
    while True:  # an off-zero height at least 0.3 from every ordinate
        e = float(rng.uniform(16.0, 40.0))
        if min(abs(e - t) for t in ctx.table[:12]) >= 0.3:
            st["e_off"] = e
            break
    st["golden"] = json.loads((ctx.root / "tests" / "data" / "golden_propagation.json").read_text())


def dirichlet_ops(ctx, pdir):
    rz, st = ctx.rz, ctx.state
    cache = ["--cache", st["cache"]]
    ops = [
        cli_op(ctx, "cli mertens", ["mertens", "--n-max", 4000] + cache, pdir / "mertens"),
        cli_op(ctx, "cli perron off-zero", ["perron", "--t-min", repr(st["e_off"]),
                                            "--n-max", 2000] + cache, pdir / "perron_off"),
        cli_op(ctx, "cli perron at-zero", ["perron", "--t-min", f"{st['t1']:.6f}",
                                           "--n-max", 2000] + cache, pdir / "perron_zero"),
        cli_op(ctx, "cli mirror tuned", ["mirror", "--epsilon", 0.1, "--n-max", 1000000] + cache,
               pdir / "mirror_tuned"),
        cli_op(ctx, "cli mirror detuned", ["mirror", "--epsilon", 0.1, "--n-max", 1000000,
                                           "--vartheta", repr(st["detuned"])] + cache,
               pdir / "mirror_detuned"),
    ]
    box = {}

    def ingest():
        box["db"] = rz.zeta.ingest_zeros(st["table_copy"])
        box["cfg"] = rz.perron.ResidueExpansionConfig(box["db"], 1000, 20)
        return [r.t for r in box["db"].records]
    ops.append(Op("lib ingest_zeros", ingest))
    ops += [Op(f"lib mertens_residue({x})", lambda x=x: rz.perron.mertens_residue(x, box["cfg"]))
            for x in MERTENS_XS]

    def golden():
        g = st["golden"]
        m = rz.mirrors.moebius_mirrors(g["N"], epsilon=g["epsilon"], boundary_phase=g["vartheta"])
        seq = rz.mirrors.propagate_exact(m, g["E"], g["N"])
        idx = np.array(g["checkpoints"]) - 1
        return (seq.amplitudes[idx].tolist(), seq.norm_partials[idx].tolist())
    ops.append(Op("lib propagate_exact golden", golden))
    return ops


def dirichlet_check(ctx, ck, pdir, values):
    rz, st, table = ctx.rz, ctx.state, np.array(ctx.table)
    _mertens_csv(ck, "cli mertens", pdir / "mertens" / "mertens.csv", st["cache"], 100, 20)
    mu = ref.moebius(2000)
    _perron_csv(ck, "cli perron off-zero", pdir / "perron_off" / "perron.csv", st["e_off"], mu)
    _perron_csv(ck, "cli perron at-zero", pdir / "perron_zero" / "perron.csv", st["t1"], mu)
    ck.cond("cli perron at-zero", "ran in at-zero mode",
            "at-zero mode" in (pdir / "perron_zero" / "perron.svg").read_text())
    tuned = json.loads((pdir / "mirror_tuned" / "mirror_diagnostic.json").read_text())
    detuned = json.loads((pdir / "mirror_detuned" / "mirror_diagnostic.json").read_text())
    ck.cond("cli mirror tuned", f"classification {tuned['classification']} is tuned",
            tuned["classification"] == "tuned" and tuned["cos_tail_min"] > 0.9)
    ck.cond("cli mirror detuned", f"classification {detuned['classification']} is detuned",
            detuned["classification"] == "detuned")
    ratio = detuned["norm_partials"][-1] / tuned["norm_partials"][-1]
    ck.cond("cli mirror detuned", f"detuned/tuned norm ratio {ratio:.1f} > 10", ratio > 10.0)
    for name, out in (("cli mertens", "mertens"), ("cli perron off-zero", "perron_off"),
                      ("cli perron at-zero", "perron_zero"), ("cli mirror tuned", "mirror_tuned"),
                      ("cli mirror detuned", "mirror_detuned")):
        _svgs_ok(ck, name, pdir / out)

    ts = values.get("lib ingest_zeros")
    ck.cond("lib ingest_zeros", "1000 ordinates equal to the table",
            ts is not None and np.array_equal(np.array(ts), table))
    m_own = np.cumsum(ref.moebius(int(MERTENS_XS[-1])))
    for x in MERTENS_XS:
        op = f"lib mertens_residue({x})"
        if op in values:
            ck.tol(op, "1000-zero series vs exact Mertens", abs(values[op] - m_own[int(x)]),
                   MERTENS_1000_TOL)
    op = "lib propagate_exact golden"
    if op in values:
        g = st["golden"]
        amps, norms = values[op]
        want = np.array([[complex(a, b), complex(c, d)] for a, b, c, d in zip(
            g["amp_minus_re"], g["amp_minus_im"], g["amp_plus_re"], g["amp_plus_im"])])
        ck.tol(op, "amplitudes vs golden_propagation.json", np.max(np.abs(np.array(amps) - want)),
               1e-12)
        ck.tol(op, "norm partials vs golden_propagation.json",
               np.max(np.abs(np.array(norms) / np.array(g["norm_partials"]) - 1.0)), 1e-12)

    # the known CLI refusal, outside the counted operations
    for cmd in ("mertens", "perron"):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = rz.cli.main([cmd, "--n-zeros", "1000", "--n-max", "50", "--cache",
                                str(st["table_copy"]), "--out", str(ctx.work / f"refused_{cmd}")])
        ck.known_seen["cli-n-zeros-1000"] = ck.known_seen.get("cli-n-zeros-1000", "") + f"{cmd}: " + (
            f"reproduced (exit {code}, {err.getvalue().strip()}); " if code != 0
            else "no longer reproduces, the command succeeded; ")


# ----------------------------------------------------------------------
# bound_state
# ----------------------------------------------------------------------

N_HEIGHTS = 16
PSI_GRID = 5
PSI_E = 10.0
BOUNDARY = (1.0, 2.0 * math.pi)     # vartheta, m l_x


def bound_state_prepare(ctx):
    rng = np.random.default_rng(ctx.seed)
    ctx.state["heights"] = sorted(rng.uniform(0.0, 50.0, N_HEIGHTS).tolist())
    # one seeded point in each cell of a 5 x 5 partition of the landau grid's
    # square [-10, 10]^2: the series length grows with |x - iy|, so stratifying
    # keeps the work per pass nearly seed-independent while every part of the
    # square, its over-budget corners included, is sampled
    side = 20.0 / PSI_GRID
    cells = [(i, j) for i in range(PSI_GRID) for j in range(PSI_GRID)]
    jitter = rng.uniform(0.0, side, (len(cells), 2))
    ctx.state["points"] = [(-10.0 + i * side + dx, -10.0 + j * side + dy)
                           for (i, j), (dx, dy) in zip(cells, jitter.tolist())]


def bound_state_ops(ctx, pdir):
    rz, st = ctx.rz, ctx.state
    d = rz.dirac
    geom = rz.landau.LandauGeometry(magnetic_length=1.0, box_size=100.0)
    targets = [(k.name, k) for k in d.SpectralFunctionKind]
    targets.append(("BoundaryData", d.BoundaryData(*BOUNDARY)))
    ops = [Op(f"lib find_dirac_zeros {n}", lambda t=t: d.find_dirac_zeros(t, 0.0, 100.0))
           for n, t in targets]
    ops += [Op(f"lib xi_via_fourier {k.name} {h!r}", lambda k=k, h=h: d.xi_via_fourier(k, h))
            for h in st["heights"] for k in d.SpectralFunctionKind]
    ops.append(Op("lib landau_levels 200", lambda: rz.landau.landau_levels(200.0, geom)))
    for i, (x, y) in enumerate(st["points"]):
        ops.append(Op(f"lib psi_plus {i}", lambda x=x, y=y: rz.landau.psi_plus(PSI_E, x, y, geom)))
        ops.append(Op(f"lib psi_minus {i}", lambda x=x, y=y: rz.landau.psi_minus(PSI_E, x, y, geom)))
    return ops


def bound_state_check(ctx, ck, pdir, values):
    rz, st = ctx.rz, ctx.state
    d = rz.dirac
    table = np.array(ctx.table)
    op = "lib find_dirac_zeros XI_RIEMANN"
    if op in values:
        _ordinates(ck, op, values[op], table[table < 100.0], "t < 100")
    for name, fn, smooth, slack in (
            ("XI_DIRAC_H", d.xi_h, 100.0 / (2 * math.pi) * (math.log(100.0 / (2 * math.pi)) - 1) - 0.5, 2.0),
            ("XI_POLYA_STAR", d.polya_xi_star,
             100.0 / (2 * math.pi) * (math.log(100.0 / (2 * math.pi)) - 1) + 0.375, 2.5)):
        op = f"lib find_dirac_zeros {name}"
        if op not in values:
            continue
        zs = values[op]
        ck.cond(op, f"{len(zs)} zeros vs smooth count {smooth:.2f} (+-{slack:g})",
                abs(len(zs) - smooth) <= slack)
        ck.cond(op, "every zero is a sign change", all(fn(z - 1e-6) * fn(z + 1e-6) < 0 for z in zs))
    op = "lib find_dirac_zeros BoundaryData"
    if op in values:
        vt, mlx = BOUNDARY
        zs = values[op]
        smooth = 100.0 / (2 * math.pi) * (math.log(100.0 / mlx) - 1) - 0.5
        ck.cond(op, f"{len(zs)} eigenvalues vs smooth count {smooth:.2f} (+-2.5)",
                abs(len(zs) - smooth) <= 2.5)
        ck.tol(op, "boundary condition residual with mpmath K", max(
            abs(math.sin(math.atan2(k.imag, k.real) - 0.5 * vt))
            for k in (ref.bessel_k(complex(0.5, 0.5 * e), mlx) for e in zs)), 1e-7)
    closed = {"XI_DIRAC_H": d.xi_h, "XI_POLYA_STAR": d.polya_xi_star, "XI_RIEMANN": d.riemann_xi}
    for h in st["heights"]:
        for k in d.SpectralFunctionKind:
            op = f"lib xi_via_fourier {k.name} {h!r}"
            if op in values:
                ck.tol(op, "kernel transform vs closed form", abs(values[op] - closed[k.name](h)),
                       DUAL_ROUTE_TOL[k.name])
    op = "lib landau_levels 200"
    if op in values:
        cut = math.log(100.0 ** 2 / (2.0 * math.pi))
        smooth = 200.0 / (2.0 * math.pi) * cut - ref.siegel_theta(200.0) / math.pi
        lv = values[op]
        ck.cond(op, f"{len(lv)} levels vs smooth count {smooth:.2f} (+-1)",
                abs(len(lv) - round(smooth)) <= 1)
        ck.tol(op, "quantization residual at each level", max(
            abs(math.remainder(2.0 * ref.siegel_theta(e) - e * cut, 2.0 * math.pi)) for e in lv), 1e-8)
    spec = rz.specfun
    for i, (x, y) in enumerate(st["points"]):
        w = complex(x, -y)
        for sector, a, b, oracle in (("plus", 0.25, 0.5, ref.psi_even), ("minus", 0.75, 1.5, ref.psi_odd)):
            op = f"lib psi_{sector} {i}"
            if op not in values:
                continue
            m, bound = spec.kummer_m_bounded(complex(a, 0.5 * PSI_E), b, 0.5 * w * w)
            over = bound > KUMMER_REL_TOL * abs(m)
            known = "kummer-budget" if over else None
            ck.cond(op, f"certified bound {bound / abs(m):.2e} relative (tolerance {KUMMER_REL_TOL:g})",
                    not over, known=known)
            want = oracle(PSI_E, x, y)
            ck.tol(op, "value vs mpmath", abs(values[op] - want) / abs(want), KUMMER_REL_TOL,
                   known=known)


@dataclass
class Workload:
    name: str
    prepare: Callable
    ops: Callable
    check: Callable


WORKLOADS = {
    "figures": Workload("figures", figures_prepare, figures_ops, figures_check),
    "zero_table": Workload("zero_table", zero_table_prepare, zero_table_ops, zero_table_check),
    "dirichlet": Workload("dirichlet", dirichlet_prepare, dirichlet_ops, dirichlet_check),
    "bound_state": Workload("bound_state", bound_state_prepare, bound_state_ops, bound_state_check),
}
