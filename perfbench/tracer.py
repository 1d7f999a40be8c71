"""Span tracer installed from outside the package.

It wraps the public functions (and public methods of classes) of the
instrumented rzspec modules, plus the few private CLI entry points the
per-layer metrics need, and re-binds every name under which another rzspec
module imported them (``landau.theta_rs``, ``specfun.two_prod``, the
``cli._COMMANDS`` table, ...).  ``uninstall`` restores every original.

Each call records a span (name, start, end, parent, pass id) in compact
in-memory arrays; self time is the span's duration minus the durations of
its direct children on the same thread.  Calls made on ``cli._map_ordered``
worker threads overlap the main thread's waiting, so their self time is
reported as worker busy time instead of being added to the main thread's
pass.
"""

from __future__ import annotations

import enum
import inspect
import json
import os
import sys
import threading
from array import array
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("specfun", "ddouble", "zeta", "roots", "counting", "dirac", "landau",
          "mirrors", "perron", "cli", "svg")

# private names wrapped because a per-layer metric is defined on them
_PRIVATE = {
    "cli": {"_cmd_zeros", "_cmd_xih", "_cmd_polya", "_cmd_landau", "_cmd_mirror",
            "_cmd_perron", "_cmd_mertens", "_cmd_interferometer", "_ensure_zeros",
            "_write_csv", "_write_json", "_map_ordered"},
}

ROOT_SPAN = "bench.pass"
KUMMER_REL_BUDGET = 1e-6


class Tracer:
    """Install with ``install(package)``, run each traced pass through
    ``run_pass``, read ``per_layer()`` at the end."""

    def __init__(self):
        self._names: list[str] = []
        self._name_id: dict[str, int] = {}
        # span store: one entry per call
        self.sp_name = array("i")
        self.sp_parent = array("i")
        self.sp_pass = array("i")
        self.sp_start = array("d")
        self.sp_end = array("d")
        self.calls = Counter()
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self.raised = Counter()
        self.sieve_max = 0
        self.worker_busy_s = 0.0
        self.pass_walls: list[float] = []
        self.pass_self_sums: list[float] = []
        self._pass_id = -1
        self._pass_self = 0.0
        self._main = threading.get_ident()
        self._local = threading.local()
        self._main_stack = self._local.stack = []
        self._lock = threading.Lock()
        self._restore: list = []

    # ------------------------------------------------------------------
    # installation
    # ------------------------------------------------------------------

    def install(self, package) -> None:
        originals = {}
        for layer in LAYERS:
            mod = getattr(package, layer, None) or __import__(
                f"{package.__name__}.{layer}", fromlist=["_"])
            extra = _PRIVATE.get(layer, set())
            for name, obj in list(vars(mod).items()):
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and (not name.startswith("_") or name in extra)):
                    originals[obj] = self._wrap(f"{layer}.{name}", obj)
                elif (isinstance(obj, type) and obj.__module__ == mod.__name__
                      and not issubclass(obj, (enum.Enum, BaseException))):
                    self._wrap_methods(f"{layer}.{name}", obj)
        for mod_name, mod in list(_package_modules(package)):
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in originals:
                    self._patch(mod, name, originals[obj])
                elif isinstance(obj, dict):
                    for key, val in list(obj.items()):
                        if inspect.isfunction(val) and val in originals:
                            obj[key] = originals[val]
                            self._restore.append(lambda d=obj, k=key, v=val: d.__setitem__(k, v))

    def uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()

    def _patch(self, owner, name, new):
        old = owner.__dict__[name]
        setattr(owner, name, new)
        self._restore.append(lambda: setattr(owner, name, old))

    def _wrap_methods(self, prefix, cls):
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            if isinstance(raw, classmethod):
                self._patch(cls, attr, classmethod(self._wrap(f"{prefix}.{attr}", raw.__func__)))
            elif isinstance(raw, staticmethod):
                self._patch(cls, attr, staticmethod(self._wrap(f"{prefix}.{attr}", raw.__func__)))
            elif inspect.isfunction(raw):
                self._patch(cls, attr, self._wrap(f"{prefix}.{attr}", raw))

    def _wrap(self, name, fn):
        special = _SPECIAL.get(name)
        tracer = self

        if special is None:
            def wrapper(*args, **kwargs):
                return tracer.span(name, fn, args, kwargs)
        else:
            def wrapper(*args, **kwargs):
                return special(tracer, name, fn, args, kwargs)
        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    # ------------------------------------------------------------------
    # spans
    # ------------------------------------------------------------------

    def _id(self, name):
        i = self._name_id.get(name)
        if i is None:
            with self._lock:
                i = self._name_id.setdefault(name, len(self._names))
                if i == len(self._names):
                    self._names.append(name)
        return i

    def _stack(self):
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def parent_name(self) -> str | None:
        st = self._stack()
        return self._names[self.sp_name[st[-1][0]]] if st else None

    def span(self, name, fn, args, kwargs):
        if self._pass_id < 0:
            return fn(*args, **kwargs)
        nid = self._id(name)
        st = self._stack()
        with self._lock:
            idx = len(self.sp_name)
            self.sp_name.append(nid)
            # a worker thread's top-level span hangs under the main thread's
            # current span (cli._map_ordered), without adding to its child time
            parent = st[-1][0] if st else (self._main_stack[-1][0] if self._main_stack else -1)
            self.sp_parent.append(parent)
            self.sp_pass.append(self._pass_id)
            self.sp_start.append(0.0)
            self.sp_end.append(0.0)
        frame = [idx, 0.0]  # span index, time covered by direct children
        st.append(frame)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        except BaseException as exc:
            with self._lock:
                self.raised[(name, type(exc).__name__)] += 1
            raise
        finally:
            t1 = perf_counter()
            st.pop()
            dur = t1 - t0
            own = dur - frame[1]
            if st:
                st[-1][1] += dur
            with self._lock:
                self.sp_start[idx] = t0
                self.sp_end[idx] = t1
                self.calls[name] += 1
                self.total_s[name] += dur
                self.self_s[name] += own
                if threading.get_ident() == self._main:
                    self._pass_self += own
                else:
                    self.worker_busy_s += own

    def count(self, key, n=1):
        with self._lock:
            self.counts[key] += n

    # ------------------------------------------------------------------
    # passes
    # ------------------------------------------------------------------

    def run_pass(self, pass_id, body):
        """Run ``body()`` as one traced pass under a root span."""
        self._pass_id = pass_id
        self._pass_self = 0.0
        root = len(self.sp_name)
        try:
            return self.span(ROOT_SPAN, body, (), {})
        finally:
            self.pass_walls.append(self.sp_end[root] - self.sp_start[root])
            self.pass_self_sums.append(self._pass_self)
            self._pass_id = -1

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------

    def per_layer(self, overhead_s: float) -> dict:
        """Per-pass values of every per-layer metric."""
        n = max(1, len(self.pass_walls))
        c, s = self.calls, self.self_s

        def per(v):
            return v / n

        m = {}
        for name in list(c):
            m[f"{name}.calls"] = per(c[name])
            m[f"{name}.self_s"] = per(s[name])
        m["ddouble.self_s"] = per(sum(v for k, v in s.items() if k.startswith("ddouble.")))
        grid_calls = c["specfun.kummer_m_grid"]
        m["specfun.kummer_m_grid.cells"] = per(self.counts["kummer_cells"])
        m["specfun.kummer_terms"] = self.counts["kummer_terms"] / grid_calls if grid_calls else 0.0
        m["specfun.kummer_cells_over_budget"] = per(self.counts["kummer_over_budget"])
        bk = c["specfun.bessel_k_complex_order"]
        m["specfun.panels_per_bessel_k"] = self.counts["bessel_k_panels"] / bk if bk else 0.0
        zeros = self.counts["zeros_found"]
        m["zeta.z_evals_per_zero"] = c["zeta.z_function"] / zeros if zeros else 0.0
        m["zeta.count_retries"] = per(self.raised[("zeta.exact_zero_count", "ConsistencyError")]
                                      + self.raised[("counting.n_exact", "OnZeroError")])
        m["zeta.persist_zeros.bytes"] = per(self.counts["persist_bytes"])
        for k in ("cache_hits", "cache_extends", "cache_builds", "bytes_written"):
            m[f"cli.{k}"] = per(self.counts[k])
        m["roots.brent.fevals"] = per(self.counts["brent_fevals"])
        m["roots.scan_sign_changes.fevals"] = per(self.counts["scan_fevals"])
        n_sieved = self.counts["sieve_n_total"]
        m["perron.moebius_sieve.n_total"] = per(n_sieved)
        m["perron.sieve_useful_ratio"] = self.sieve_max * n / n_sieved if n_sieved else 0.0
        m["perron.residue_terms"] = per(self.counts["residue_terms"])
        for cmd in ("zeros", "xih", "polya", "landau", "mirror", "perron", "mertens",
                    "interferometer"):
            m[f"cli.{cmd}.s"] = per(self.total_s[f"cli._cmd_{cmd}"])
        m["svg.line_plot.points"] = per(self.counts["svg_points"])
        m["trace.overhead_s"] = overhead_s
        m["trace.self_sum_s"] = per(sum(self.pass_self_sums))
        m["trace.worker_busy_s"] = per(self.worker_busy_s)
        return m

    def self_sum_residual(self) -> float:
        """Largest |sum of main-thread self times - pass wall| over traced passes."""
        return max((abs(a - b) for a, b in zip(self.pass_self_sums, self.pass_walls)),
                   default=0.0)

    def n_spans(self) -> int:
        return len(self.sp_name)

    def write_spans(self, path) -> None:
        """One JSON object per span: name, start, end, parent, pass."""
        with open(path, "w", encoding="utf-8") as fh:
            for i in range(len(self.sp_name)):
                fh.write(json.dumps({
                    "name": self._names[self.sp_name[i]], "start": self.sp_start[i],
                    "end": self.sp_end[i], "parent": self.sp_parent[i],
                    "pass": self.sp_pass[i]}) + "\n")


def _package_modules(package):
    prefix = package.__name__ + "."
    for name, mod in list(sys.modules.items()):
        if mod is not None and (name == package.__name__ or name.startswith(prefix)):
            yield name, mod


# ----------------------------------------------------------------------
# wrappers that also count work
# ----------------------------------------------------------------------

def _fevals(key):
    """Count the evaluations of the function passed as first argument."""
    def hook(tr, name, fn, args, kwargs):
        f = args[0]

        def counted(*a, **k):
            tr.count(key)
            return f(*a, **k)
        return tr.span(name, fn, (counted,) + tuple(args[1:]), kwargs)
    return hook


def _kummer_grid(tr, name, fn, args, kwargs):
    import numpy as np
    vals, bounds = out = tr.span(name, fn, args, kwargs)
    if tr._pass_id >= 0:
        tr.count("kummer_cells", int(np.size(vals)))
        over = np.asarray(bounds) > KUMMER_REL_BUDGET * np.abs(vals)
        tr.count("kummer_over_budget", int(np.count_nonzero(over)))
    return out


def _two_prod(tr, name, fn, args, kwargs):
    # the series loop makes exactly one direct two_prod call per term
    if tr.parent_name() == "specfun.kummer_m_grid":
        tr.count("kummer_terms")
    return tr.span(name, fn, args, kwargs)


def _panel_integral(tr, name, fn, args, kwargs):
    if tr.parent_name() == "specfun.bessel_k_complex_order":
        tr.count("bessel_k_panels")
    return tr.span(name, fn, args, kwargs)


def _find_zeros(tr, name, fn, args, kwargs):
    out = tr.span(name, fn, args, kwargs)
    tr.count("zeros_found", len(out))
    return out


def _persist(tr, name, fn, args, kwargs):
    out = tr.span(name, fn, args, kwargs)
    tr.count("persist_bytes", os.path.getsize(args[1]))
    return out


def _ensure_zeros(tr, name, fn, args, kwargs):
    builds, finds = tr.calls["zeta.build_database"], tr.calls["zeta.find_zeros"]
    out = tr.span(name, fn, args, kwargs)
    if tr.calls["zeta.build_database"] > builds:
        tr.count("cache_builds")
    elif tr.calls["zeta.find_zeros"] > finds:
        tr.count("cache_extends")
    else:
        tr.count("cache_hits")
    return out


def _written(tr, name, fn, args, kwargs):
    out = tr.span(name, fn, args, kwargs)
    tr.count("bytes_written", os.path.getsize(args[0]))
    return out


def _line_plot(tr, name, fn, args, kwargs):
    out = _written(tr, name, fn, args, kwargs)
    xs, series = args[1], args[2]
    tr.count("svg_points", len(xs) * len(series))
    return out


def _sieve(tr, name, fn, args, kwargs):
    n = int(args[0])
    tr.count("sieve_n_total", n)
    with tr._lock:
        tr.sieve_max = max(tr.sieve_max, n)
    return tr.span(name, fn, args, kwargs)


def _residue(cfg_pos):
    def hook(tr, name, fn, args, kwargs):
        cfg = args[cfg_pos]
        tr.count("residue_terms", 2 * cfg.n_nontrivial + cfg.n_trivial)
        return tr.span(name, fn, args, kwargs)
    return hook


_SPECIAL = {
    "roots.brent": _fevals("brent_fevals"),
    "roots.scan_sign_changes": _fevals("scan_fevals"),
    "specfun.kummer_m_grid": _kummer_grid,
    "ddouble.two_prod": _two_prod,
    "specfun.panel_integral": _panel_integral,
    "zeta.find_zeros": _find_zeros,
    "zeta.persist_zeros": _persist,
    "cli._ensure_zeros": _ensure_zeros,
    "cli._write_csv": _written,
    "cli._write_json": _written,
    "svg.line_plot": _line_plot,
    "perron.moebius_sieve": _sieve,
    "perron.m_z_perron": _residue(2),
    "perron.mertens_residue_complex": _residue(1),
}
