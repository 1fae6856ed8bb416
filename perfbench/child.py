"""One timed iteration of a workload, in a fresh interpreter.

The catalog keeps a module-global exit cache and ``ru_maxrss`` covers a
whole process, so every iteration starts its own interpreter.  Prints one
JSON line: the set-up and run times, CPU time, peak memory, the checked
ops and, with ``--trace 1``, the per-layer metrics.

    python3 perfbench/child.py --workload table2 --seed 20240817 \
        --paths 4096 --trace 0 --work DIR
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--paths", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--work", type=Path, required=True)
    args = parser.parse_args(argv)

    start = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import numpy
    import scipy

    import qbsde  # noqa: F401  (set-up time covers the package import)
    import spans
    import workloads

    recorder = None
    if args.trace:
        recorder = spans.Recorder()
        spans.install(recorder)
    setup, run = workloads.WORKLOADS[args.workload]
    args.work.mkdir(parents=True, exist_ok=True)
    state = setup(ROOT, args.seed, args.paths, args.work)
    setup_s = time.perf_counter() - start

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        cpu0 = os.times()
        t0 = time.perf_counter()
        ops, artifact_bytes = run(state)
        run_s = time.perf_counter() - t0
        cpu1 = os.times()
    fallbacks = sum(1 for w in caught
                    if str(w.message).startswith("regression condition number"))

    record = {
        "setup_s": setup_s,
        "run_s": run_s,
        "cpu_s": (cpu1.user - cpu0.user) + (cpu1.system - cpu0.system),
        # ru_maxrss is in KiB on Linux.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "ops": [vars(op) for op in ops],
        "env": {"python": platform.python_version(), "numpy": numpy.__version__,
                "scipy": scipy.__version__},
        "layers": None,
    }
    if recorder is not None:
        record["layers"] = spans.layer_metrics(recorder.spans, {
            "solver.lstsq_fallbacks": fallbacks,
            "cli.artifact_bytes": artifact_bytes,
        })
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
