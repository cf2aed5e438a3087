#!/usr/bin/env python3
"""harmconv benchmark runner.

    python3 perfbench/run.py --workload {repro,certify-scan,verify-cli}
                             --seed N --seconds S --trace {0,1}

Run from the repository root.  With --trace 0 it prints every end-to-end
metric of BENCHMARK.json, each from the best of the passes that repeat
until S seconds have gone by; with --trace 1 every per-layer metric.  The last line of stdout is the result object; the line before it
records the environment, per-pass figures, report digests and sample
counts.
Exit codes: 0 result printed, 2 the package or the benchmark files are
missing, 3 the trace failed its coverage guard.  See perfbench/DESIGN.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def cap_threads() -> dict[str, str]:
    """Cap BLAS/OpenMP threads at nproc before numpy loads; return the settings."""
    nproc = os.cpu_count() or 1
    for var in THREAD_VARS:
        try:
            value = int(os.environ.get(var, nproc))
        except ValueError:
            value = nproc
        os.environ[var] = str(max(1, min(value, nproc)))
    return {var: os.environ[var] for var in THREAD_VARS}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in (ROOT / "src" / "harmconv" / "__init__.py", ROOT / "BENCHMARK.json",
                           HERE / "reference.json", HERE / "layers.json") if not p.is_file()]
    if missing:
        print(f"error: missing {', '.join(map(str, missing))}; run from a full "
              "checkout of the repository", file=sys.stderr)
        return 2
    threads = cap_threads()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    declared = bench["per_layer" if args.trace else "end_to_end"]

    import measure  # loads numpy, so only after cap_threads

    workload = measure.workloads.WORKLOADS[args.workload]()
    values, results, samples = measure.measure(workload, args.seed, args.seconds, bool(args.trace))

    names = {m["name"] for m in declared}
    if set(values) != names:
        print(f"error: emitted metrics differ from BENCHMARK.json: "
              f"{sorted(set(values) ^ names)}", file=sys.stderr)
        return 2
    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "failed_frac": failed / attempted,
        **samples,
        "passes_detail": [
            {"attempted": r.attempted, "failed": r.failed, **r.info} for r in results
        ],
        "environment": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": measure.workloads.np.__version__,
            "threads": threads,
            "machine": platform.machine(),
            "host_drift": "pass times drift between sittings on shared hosts; "
            "compare parent and change in alternating pairs, not sitting against sitting",
        },
    }
    if args.trace:
        bad = measure.coverage_failures(args.workload, values)
        if bad:
            print("error: trace coverage guard failed:\n  " + "\n  ".join(bad), file=sys.stderr)
            print(json.dumps({"record": record}, sort_keys=True))
            return 3
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
