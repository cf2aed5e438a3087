"""Timed passes of a workload, untraced or traced, reduced to metrics.

Imported by run.py only after it has capped the BLAS/OpenMP thread
counts, because importing the workloads loads numpy.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import workloads  # first: puts the checkout's src/ on sys.path
import tracer  # noqa: I001

HERE = Path(__file__).resolve().parent
OUT_DIR = workloads.ROOT / ".perfbench_out"

# Fresh-process set-up: import, the default sampling grid, one certificate.
SETUP_CODE = """
from time import perf_counter
t0 = perf_counter()
import harmconv
from harmconv import convo, geochk
geochk.DiskGrid().points
convo.certify_bounded(convo.even_mobius_convolution_dilatation(0.5))
print(perf_counter() - t0)
"""
# Set-up is timed this many times before the first pass, then once after
# each pass up to SETUP_MAX samples, so the median spans the whole run.
SETUP_FIRST, SETUP_MAX = 3, 9


def setup_time() -> float:
    """Seconds a fresh interpreter spends importing harmconv and setting up."""
    env = dict(os.environ, PYTHONPATH=str(workloads.ROOT / "src"))
    out = subprocess.run(
        [sys.executable, "-c", SETUP_CODE],
        env=env, cwd=workloads.ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(out.stdout.strip().splitlines()[-1])


def percentile(values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks, q in [0, 100]."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def time_boxed(seconds: float, step, min_passes: int) -> int:
    """Call step(i) for i = 0, 1, ... until `seconds` have elapsed and at
    least `min_passes` calls are done; return the number of calls."""
    t_end = perf_counter() + seconds
    i = 0
    while i < min_passes or perf_counter() < t_end:
        step(i)
        i += 1
    return i


def pass_metrics(result) -> dict[str, float]:
    lat_ms = [t * 1e3 for t in result.latencies_s]
    return {
        "wall_s": result.wall_s,
        "throughput_per_s": result.attempted / result.wall_s,
        "latency_p50_ms": percentile(lat_ms, 50),
        "latency_p90_ms": percentile(lat_ms, 90),
        "latency_p99_ms": percentile(lat_ms, 99),
    }


def end_to_end(workload, seed: int, seconds: float):
    """Each timing metric is that of the best pass of the run.

    Other load on the host slows everything for stretches of seconds (see
    DESIGN.md); the best of several passes is the figure least disturbed
    by it, and it is still one measured pass.
    """
    setup = [setup_time() for _ in range(SETUP_FIRST)]
    results = []

    def step(i):
        outdir = OUT_DIR / f"pass{i}"
        results.append(workload.run_pass(workload.inputs(seed, i), outdir))
        workloads.clear(outdir)
        if len(setup) < SETUP_MAX:
            setup.append(setup_time())

    time_boxed(seconds, step, workload.min_passes)
    per_pass = [pass_metrics(r) for r in results]
    metrics = {
        name: (max if name == "throughput_per_s" else min)(p[name] for p in per_pass)
        for name in per_pass[0]
    }
    metrics["setup_s"] = statistics.median(setup)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    samples = {"passes": len(results), "latency_samples_per_pass": [len(r.latencies_s) for r in results],
               "setup_samples": setup, "per_pass": per_pass}
    return metrics, results, samples


def traced(workload, seed: int, seconds: float):
    """Alternate untraced and traced passes over the pass-0 inputs.

    Every traced pass sees the same inputs, so counts are per pass and
    repeat exactly; times are averaged over the traced passes.  The
    overhead is the best traced minus the best untraced pass time.
    """
    tracer_ = tracer.Tracer()
    inputs = workload.inputs(seed, 0)
    plain, timed = [], []

    def step(i):
        outdir = OUT_DIR / f"pair{i}"
        plain.append(workload.run_pass(inputs, outdir / "untraced"))
        with tracer.installed(tracer_):
            timed.append(workload.run_pass(inputs, outdir / "traced"))
        workloads.clear(outdir)

    pairs = time_boxed(seconds, step, min_passes=1)
    metrics = tracer.layer_metrics(tracer_.stats, pairs)
    metrics["trace.overhead_s"] = min(r.wall_s for r in timed) - min(r.wall_s for r in plain)
    return metrics, plain + timed, {"pairs": pairs}


def measure(workload, seed: int, seconds: float, trace: bool):
    """(metrics, pass results, sample counts) of one benchmark run."""
    if isinstance(workload, workloads.Repro):
        workload.load_state()
    workloads.clear(OUT_DIR)
    try:
        if trace:
            out = traced(workload, seed, seconds)
        else:
            out = end_to_end(workload, seed, seconds)
    finally:
        workloads.clear(OUT_DIR)
    if isinstance(workload, workloads.Repro):
        workload.save_state()
    return out


def coverage_failures(name: str, metrics: dict[str, float]) -> list[str]:
    """Layers that read 0 where layers.json expects work, or work where 0."""
    spec = json.loads((HERE / "layers.json").read_text())["layers"]
    bad = []
    for layer, entry in spec.items():
        if name in entry["work_on"] and not metrics[entry["guard"]] > 0:
            bad.append(f"{layer}: {entry['guard']} is 0 on {name}")
        if name in entry["zero_on"]:
            bad += [f"{layer}: {m} is {metrics[m]} on {name}, expected 0"
                    for m in entry["metrics"] if metrics[m] != 0]
    return bad
