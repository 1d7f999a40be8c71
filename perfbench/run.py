#!/usr/bin/env python3
"""rzspec benchmark: time, memory and verified correctness per workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload figures --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

``--workload all`` runs every workload in this one process.  With
``--trace 0`` the timed passes run with no instrumentation and the result
line carries the end-to-end metrics; with ``--trace 1`` half of the time
runs untraced and half with span wrappers installed on every layer, and the
result line carries the per-layer metrics (per pass) plus the tracing
overhead.  The last line of standard output is one JSON object with keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are the human-readable report.  Every artifact goes to a temporary
directory under ``.perfbench_tmp/`` that is removed at exit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_SAMPLES = 7     # fresh interpreters per run for setup_s
MIN_PASSES = 3        # untraced passes per run, at least
CAL_EVERY_S = 0.3     # operation time between two speed calibrations
CAL_WINDOW_S = 2.0    # calibrations this close to a segment set its speed
CAL_REF_S = 0.019     # calibration time at the reference speed (shared 2-vCPU Xeon VM)
ALL_ORDER = ("bound_state", "zero_table", "figures", "dirichlet")  # ascending peak memory


def _fail(msg: str) -> int:
    sys.stderr.write(f"perfbench: {msg}\n")
    return 2


def _import_rzspec():
    sys.path.insert(0, str(SRC))
    import rzspec
    import rzspec.cli  # noqa: F401  (not imported by the package itself)
    if Path(rzspec.__file__).resolve().parent != (SRC / "rzspec").resolve():
        raise ImportError(f"rzspec imported from {rzspec.__file__}, not from this checkout")
    return rzspec


def _git_rev() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        text = head.read_text().strip()
        if text.startswith("ref: "):
            return (ROOT / ".git" / text[5:]).read_text().strip()
        return text
    except OSError:
        return "unknown (not a git checkout)"


def _host(rz) -> dict:
    import numpy
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_rev": _git_rev(),
        "map_ordered_threads": rz.cli._WORKERS,
        "loop": "closed, one caller, one process",
    }


# ----------------------------------------------------------------------
# host speed
# ----------------------------------------------------------------------

def calibrate(buffers) -> float:
    """Seconds for a fixed mix of the kinds of work the workloads do:
    interpreter loops, numpy calls on tiny arrays, and numpy passes over a
    cache-sized and a memory-sized array (``buffers``, allocated once so the
    kernel adds nothing to the peak memory but their constant size).
    Best of two."""
    import math
    import numpy as np
    best = math.inf
    for _ in range(2):
        t0 = perf_counter()
        acc = 0.0
        for i in range(30000):
            acc += math.sin(i * 0.001)
        a = np.linspace(0.0, 1.0, 8)
        for _ in range(1500):
            a = np.sqrt(a * 1.0001 + 1.0)
        for b, reps in zip(buffers, (75, 16)):
            b.fill(0.5)
            for _ in range(reps):
                np.multiply(b, 1.0001, out=b)
                np.add(b, 1.0, out=b)
                np.sqrt(b, out=b)
        best = min(best, perf_counter() - t0)
    return best


class Speed:
    """Host speed sampled all through one run.

    The CPU speed of a shared virtual machine drifts by tens of percent within a
    minute as other tenants load the host.  Every timed segment (at most
    CAL_EVERY_S of operations, one longer operation, or one set-up) is
    bracketed by calibrations, and its time is also reported scaled to the
    reference speed: raw * CAL_REF_S / median of the calibrations taken
    within CAL_WINDOW_S of the segment (at least the three nearest).
    """

    def __init__(self):
        import numpy as np
        self.samples: list[tuple[float, float]] = []
        self._buffers = (np.empty(40000), np.empty(250000))

    def sample(self) -> None:
        self.samples.append((perf_counter(), calibrate(self._buffers)))

    def scaled(self, segments) -> float:
        """Scaled total of segments given as (start, end, raw seconds)."""
        total = 0.0
        for t0, t1, raw in segments:
            near = [c for t, c in self.samples if t0 - CAL_WINDOW_S <= t <= t1 + CAL_WINDOW_S]
            if len(near) < 3:
                mid = 0.5 * (t0 + t1)
                near = [c for _, c in sorted(self.samples, key=lambda s: abs(s[0] - mid))[:3]]
            total += raw * CAL_REF_S / statistics.median(near)
        return total


# ----------------------------------------------------------------------
# set-up time
# ----------------------------------------------------------------------

def _probe_setup(workload: str, seed: int) -> int:
    """Child side: import, prepare, report readiness, clean up."""
    rz = _import_rzspec()
    import workloads as W
    work = Path(tempfile.mkdtemp(dir=_work_root(), prefix=f"setup-{workload}-"))
    try:
        ctx = W.Ctx(root=ROOT, work=work, seed=seed, rz=rz, table=_table())
        W.WORKLOADS[workload].prepare(ctx)
        print("ready", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


def measure_setup(workload: str, seed: int, speed: Speed) -> list[tuple]:
    """Segments from launching a fresh interpreter until the workload is ready."""
    times = []
    speed.sample()
    for _ in range(SETUP_SAMPLES):
        t0 = perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "run.py"), "--probe-setup", "--workload", workload,
             "--seed", str(seed)], cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True)
        try:
            line = proc.stdout.readline()
            t1 = perf_counter()
            _, err = proc.communicate(timeout=170)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed: {err.strip()}")
        speed.sample()
        times.append((t0, t1, t1 - t0))
    return times


# ----------------------------------------------------------------------
# passes
# ----------------------------------------------------------------------

def _work_root() -> Path:
    p = ROOT / ".perfbench_tmp"
    p.mkdir(exist_ok=True)
    return p


def _table():
    import reference
    return reference.load_table(ROOT)


def run_pass(ctx, wl, k, speed, tracer=None):
    """One pass, its timed segments bracketed by calibrations; returns the
    segments (start, end, raw seconds), the per-operation results and the
    pass directory."""
    pdir = ctx.work / f"pass_{k}"
    pdir.mkdir()
    ops = wl.ops(ctx, pdir)
    results, segments = [], []

    def body():
        speed.sample()
        start, raw = None, 0.0
        for i, op in enumerate(ops):
            t0 = perf_counter()
            try:
                value, err = op.fn(), None
            except Exception as exc:  # an operation that raises is a failed operation
                value, err = None, f"{type(exc).__name__}: {exc}"
            t1 = perf_counter()
            results.append((op, value, err, t1 - t0))
            start = t0 if start is None else start
            raw += t1 - t0
            if raw >= CAL_EVERY_S or i == len(ops) - 1:
                segments.append((start, t1, raw))
                speed.sample()
                start, raw = None, 0.0

    if tracer is None:
        body()
    else:
        tracer.run_pass(k, body)
    return segments, results, pdir


def _fingerprint(op, value, pdir) -> str:
    h = hashlib.sha256(repr(value).encode())
    files = sorted(p for p in op.out.rglob("*") if p.is_file()) if op.out else []
    for p in files + [Path(e) for e in op.extra]:
        h.update(str(p.relative_to(pdir)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def _median(xs):
    return statistics.median(xs) if xs else float("nan")


def _timing_line(label, scaled, raw, what):
    return (f"  {label:<13} {_median(scaled):.4f} s   median of {len(raw)} {what}, scaled to the "
            f"reference speed (range {min(scaled):.4f}-{max(scaled):.4f}); raw median "
            f"{_median(raw):.4f} s (range {min(raw):.4f}-{max(raw):.4f})")


def run_workload(name, seed, seconds, trace, rz, cumulative_rss=False, spans=None):
    import workloads as W
    from metrics import END_TO_END, PER_LAYER
    wl = W.WORKLOADS[name]
    ctx = W.Ctx(root=ROOT, work=Path(tempfile.mkdtemp(dir=_work_root(), prefix=f"{name}-")),
                seed=seed, rz=rz, table=_table())
    try:
        speed = Speed()
        setup = [] if trace else measure_setup(name, seed, speed)
        wl.prepare(ctx)
        budget = seconds / 2.0 if trace else float(seconds)
        passes = []
        t_start = perf_counter()
        while len(passes) < (1 if trace else MIN_PASSES) or perf_counter() - t_start < budget:
            passes.append(run_pass(ctx, wl, len(passes), speed))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        n_untraced = len(passes)

        tracer = None
        if trace:
            from tracer import Tracer
            tracer = Tracer()
            tracer.install(rz)
            try:
                t_start = perf_counter()
                while len(passes) == n_untraced or perf_counter() - t_start < budget:
                    passes.append(run_pass(ctx, wl, len(passes), speed, tracer))
            finally:
                tracer.uninstall()

        # checks, outside every timed region
        ck = W.Checker()
        _, first, pdir0 = passes[0]
        values = {op.name: v for op, v, err, _ in first if err is None}
        try:
            wl.check(ctx, ck, pdir0, values)
        except Exception as exc:  # a check that cannot run is a failed check
            ck.cond("checks", f"check code raised {type(exc).__name__}: {exc}", False)
        ref_fp = {op.name: _fingerprint(op, v, pdir0) for op, v, err, _ in first}
        attempted = n_known = n_failed = 0
        exec_errors = {}
        for _, results, pdir in passes:
            for op, v, err, _ in results:
                attempted += 1
                status = ck.status(op.name)
                if err is not None:
                    exec_errors.setdefault(op.name, err)
                    status = "failed"
                elif _fingerprint(op, v, pdir) != ref_fp[op.name]:
                    exec_errors.setdefault(op.name, "output differs from the first pass")
                    status = "failed"
                n_known += status == "known"
                n_failed += status == "failed"
        if "checks" in ck.checks:
            n_failed += 1
        err_ratio, err_where = ck.err_ratio_max()

        lines = [f"== workload {name}  seed {seed}  ({len(first)} operations per pass)"]
        raw = {k: [sum(seg[2] for seg in p[0]) for p in ps] for k, ps in
               (("untraced", passes[:n_untraced]), ("traced", passes[n_untraced:]))}
        scaled = {k: [speed.scaled(p[0]) for p in ps] for k, ps in
                  (("untraced", passes[:n_untraced]), ("traced", passes[n_untraced:]))}
        setup_scaled = [speed.scaled([seg]) for seg in setup]
        e2e = {
            "wall_s": _median(scaled["untraced"]),
            "setup_s": _median(setup_scaled),
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {}
        if not trace:
            units = {n: u for n, u, _, _ in END_TO_END}
            metrics = {n: {"value": e2e[n], "unit": units[n]} for n in units}
        cals = [c for _, c in speed.samples]
        lines.append(f"  speed         {len(cals)} calibrations, median {_median(cals):.4f} s "
                     f"(range {min(cals):.4f}-{max(cals):.4f}); reference {CAL_REF_S} s")
        lines.append(_timing_line("wall_s", scaled["untraced"], raw["untraced"], "untraced passes"))
        if setup:
            lines.append(_timing_line("setup_s", setup_scaled, [seg[2] for seg in setup],
                                      "fresh interpreters, import + preparation"))
        lines.append(f"  peak_rss_mb   {peak_rss_mb:.1f} MB  process high-water mark after the "
                     "untraced passes" + (" (cumulative over workloads)" if cumulative_rss else ""))
        lines.append(f"  fail_frac     {(n_known + n_failed) / attempted:.4f}     "
                     f"{n_known + n_failed} of {attempted} operations failed: {n_known} from known "
                     f"defects, {n_failed} unexpected")
        lines.append(f"  err_ratio_max {err_ratio:.4g}     over {sum(len(c) for c in ck.checks.values())} "
                     f"reference checks; worst: {err_where}")
        op_times = {}
        for _, results, _ in passes[:n_untraced]:
            for op, _, _, dt in results:
                op_times.setdefault(op.name, []).append(dt)
        slow = sorted(op_times.items(), key=lambda kv: -_median(kv[1]))[:8]
        lines.append("  slowest operations (median s over untraced passes): " + ", ".join(
            f"{k} {_median(v):.3f}" for k, v in slow))
        failures = ck.failures()
        for known in sorted({k for _, _, k, _ in failures if k}):
            lines.append(f"  known defect {known}: {W.KNOWN_DEFECTS[known]}")
        for op_name, label, known, detail in failures:
            tag = f"known defect {known}" if known else "FAILED"
            lines.append(f"  [{tag}] {op_name}: {label} ({detail})")
        for op_name, err in exec_errors.items():
            lines.append(f"  [FAILED] {op_name}: {err}")
        for key, text in ck.known_seen.items():
            lines.append(f"  [known defect {key}, not counted] {W.KNOWN_DEFECTS[key]}: {text}")

        correct = n_failed == 0
        if tracer is not None:
            layer = tracer.per_layer(_median(scaled["traced"]) - e2e["wall_s"])
            metrics = {n: {"value": float(layer.get(n, 0.0)), "unit": u} for n, u, _, _ in PER_LAYER}
            residual = tracer.self_sum_residual()
            correct = correct and residual < 1e-6
            lines.append(_timing_line("traced wall_s", scaled["traced"], raw["traced"],
                                      "traced passes"))
            lines.append(f"  tracing overhead {layer['trace.overhead_s']:.4f} s per pass (scaled); "
                         f"{tracer.n_spans()} spans")
            lines.append(f"  layer self times sum to the traced pass within {residual:.2e} s; "
                         f"worker-thread busy time {layer['trace.worker_busy_s']:.4f} s per pass")
            top = sorted(((n, v) for n, v in layer.items() if n.endswith(".self_s")),
                         key=lambda kv: -kv[1])[:10]
            lines.append("  largest self times (s per pass): " + ", ".join(
                f"{n[:-7]} {v:.4f}" for n, v in top))
            if spans:
                tracer.write_spans(Path(spans).with_suffix(f".{name}.jsonl"))
        print("\n".join(lines), flush=True)
        return {"correct": correct, "attempted": attempted, "failed": n_failed,
                "metrics": metrics}
    finally:
        shutil.rmtree(ctx.work, ignore_errors=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["figures", "zero_table", "dirichlet", "bound_state", "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measuring time per workload (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--spans", default=None,
                    help="with --trace 1, write every span as JSON lines to PATH.<workload>.jsonl")
    ap.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    ns = ap.parse_args(argv)

    if not (SRC / "rzspec" / "__init__.py").is_file():
        return _fail(f"no rzspec sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(HERE))
    if ns.probe_setup:
        return _probe_setup(ns.workload, ns.seed)

    import metrics
    try:
        doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        return _fail(f"cannot read BENCHMARK.json: {exc}")
    if doc != metrics.benchmark_doc():
        return _fail("BENCHMARK.json disagrees with perfbench/metrics.py")
    try:
        import mpmath  # noqa: F401  (reference oracle of the checks)
    except ImportError:
        return _fail("mpmath is required for the reference checks (pip install -e .[test])")
    try:
        rz = _import_rzspec()
    except ImportError as exc:
        return _fail(str(exc))

    seconds = ns.seconds if ns.seconds is not None else doc["run_seconds"]
    names = ALL_ORDER if ns.workload == "all" else (ns.workload,)
    print("host " + json.dumps(_host(rz), sort_keys=True), flush=True)
    work_root = _work_root()
    try:
        results = {n: run_workload(n, ns.seed, seconds, bool(ns.trace), rz,
                                   cumulative_rss=len(names) > 1, spans=ns.spans)
                   for n in names}
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
    if len(names) == 1:
        metrics_out = results[names[0]]["metrics"]
    else:
        metrics_out = {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics_out,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
