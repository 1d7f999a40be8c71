"""Catalogue of the benchmark's workloads and metrics.

This module is the single source of the names that ``BENCHMARK.json``
lists, of the reason each workload exists, and of the end-to-end metric
each per-layer metric is expected to move.  ``run.py`` checks that
``BENCHMARK.json`` agrees with it before measuring.
"""

RUN_SECONDS = 20

WORKLOADS = {
    "figures": "the full scripted artifact set users run; the Kummer grid behind landau dominates, "
               "so it shows specfun/ddouble and CLI/SVG/CSV output cost",
    "zero_table": "empty cache extended to t=500 in five zeros steps; zeta, log_gamma, roots and the "
                  "count guard dominate, and it is the only workload that writes the zero cache",
    "dirichlet": "mertens/perron/mirror at stress sizes plus the 1000-zero Mertens reconstruction; "
                 "per-x re-sieving and the N=1e6 mirror arrays dominate time and memory",
    "bound_state": "Dirac/Polya library path: Bessel K of complex order, dual-route transforms, "
                   "Landau levels and scalar Kummer calls that the grid-heavy figures hides",
}

# Reported on every workload with tracing off.  Only the metrics that are
# never zero and steady across seeds are gated; fail_frac and
# err_ratio_max are printed in the report but are zero or seed-dependent on
# most workloads, so they cannot carry a relative bound.
END_TO_END = [
    # name, unit, better, bound
    ("wall_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
]

def _calls_self(prefix, moves):
    return [(f"{prefix}.calls", "count", "lower", moves),
            (f"{prefix}.self_s", "s", "lower", moves)]


_FIG = "wall_s on figures"
_ZT = "wall_s on zero_table"
_DIR = "wall_s on dirichlet"
_BS = "wall_s on bound_state"

# name, unit, better, which end-to-end metric it should move on which workload
PER_LAYER = (
    [("specfun.kummer_m_grid.calls", "count", "lower", _FIG),
     ("specfun.kummer_m_grid.cells", "count", "lower", _FIG),
     ("specfun.kummer_m_grid.self_s", "s", "lower", _FIG),
     ("ddouble.self_s", "s", "lower", _FIG),
     ("specfun.kummer_terms", "count", "lower", _FIG),
     ("specfun.kummer_cells_over_budget", "count", "lower", "fail_frac and err_ratio_max on figures")]
    + _calls_self("specfun.kummer_m_bounded", _BS)
    + _calls_self("specfun.bessel_k_complex_order", _BS)
    + [("specfun.panels_per_bessel_k", "count", "lower", _BS)]
    + _calls_self("specfun.log_gamma", _ZT)
    + _calls_self("zeta.zeta", _ZT)
    + [("zeta.z_function.calls", "count", "lower", _ZT),
       ("zeta.z_evals_per_zero", "count", "lower", _ZT),
       ("zeta.im_log_zeta_half.calls", "count", "lower", _ZT),
       ("zeta.count_retries", "count", "lower", _ZT)]
    + _calls_self("zeta.persist_zeros", _ZT)
    + [("zeta.persist_zeros.bytes", "B", "lower", _ZT)]
    + _calls_self("zeta.ingest_zeros", "setup_s on figures and dirichlet")
    + [("cli.cache_hits", "count", "higher", "wall_s on every workload that runs CLI commands"),
       ("cli.cache_extends", "count", "lower", _ZT),
       ("cli.cache_builds", "count", "lower", _ZT),
       ("roots.brent.calls", "count", "lower", "wall_s on zero_table and bound_state"),
       ("roots.brent.fevals", "count", "lower", "wall_s on zero_table and bound_state"),
       ("roots.scan_sign_changes.fevals", "count", "lower", "wall_s on zero_table and bound_state"),
       ("counting.n_exact.calls", "count", "lower", "wall_s on bound_state and setup_s"),
       ("counting.n_average.calls", "count", "lower", "wall_s on bound_state and setup_s")]
    + [m for fn in ("find_dirac_zeros", "xi_via_fourier", "xi_h", "polya_xi_star", "riemann_xi")
       for m in _calls_self(f"dirac.{fn}", _BS)]
    + [("landau.psi_abs_grid.self_s", "s", "lower", _FIG),
       ("landau.landau_levels.self_s", "s", "lower", _FIG),
       ("landau.psi_plus.calls", "count", "lower", _BS),
       ("landau.psi_minus.calls", "count", "lower", _BS),
       ("perron.moebius_sieve.calls", "count", "lower", _DIR),
       ("perron.moebius_sieve.n_total", "count", "lower", _DIR),
       ("perron.moebius_sieve.self_s", "s", "lower", _DIR),
       ("perron.sieve_useful_ratio", "ratio", "higher", _DIR)]
    + [m for fn in ("m_z_direct", "m_z_perron", "mertens_residue")
       for m in _calls_self(f"perron.{fn}", _DIR)]
    + [("perron.residue_terms", "count", "lower", _DIR),
       ("mirrors.normalizability_diagnostic.self_s", "s", "lower",
        "wall_s and peak_rss_mb on dirichlet")]
    + [(f"cli.{cmd}.s", "s", "lower", f"wall_s on every workload that runs {cmd}")
       for cmd in ("zeros", "xih", "polya", "landau", "mirror", "perron", "mertens",
                   "interferometer")]
    + [("cli.bytes_written", "B", "lower", _FIG),
       ("svg.line_plot.calls", "count", "lower", _FIG),
       ("svg.line_plot.points", "count", "lower", _FIG),
       ("svg.line_plot.self_s", "s", "lower", _FIG),
       ("trace.overhead_s", "s", "lower", "none: traced minus untraced wall_s of one pass"),
       ("trace.self_sum_s", "s", "lower",
        "none: main-thread self times of one traced pass, layers and benchmark together"),
       ("trace.worker_busy_s", "s", "lower", "none: span time spent on cli._map_ordered threads")]
)


def benchmark_doc():
    """The content ``BENCHMARK.json`` must hold."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bd}
                       for n, u, b, bd in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b, _ in PER_LAYER],
    }

