"""One workload pass in a fresh interpreter.

    python3 perfbench/worker.py --workload solve-corpus --seed 1 [--trace]
    python3 perfbench/worker.py --workload solve-corpus --setup-only

Set-up is the package import plus loading the workload's problems; the pass
is timed on its own.  Prints one JSON line: setup_s, wall_s, the seconds
each timed part of an item took (item_s), peak_rss_mb, the environment, the per-item
observations and, with --trace, the per-layer numbers; the traced spans go
to ``.perfbench/spans-<workload>.json``.  Run from the root of a checkout
(the package is imported from ``src``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPANS_DIR = ROOT / ".perfbench"


def environment() -> dict:
    import approxlaws

    return {
        "backend": approxlaws.KERNEL_BACKEND,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--entries", default=None, help="comma-separated corpus entries")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    entries = args.entries.split(",") if args.entries else workloads.DEFAULT_ENTRIES[args.workload]

    t0 = time.perf_counter()
    import approxlaws.cli  # noqa: F401  (the whole program, as the CLI imports it)

    tracer = None
    if args.trace:
        from layertrace import Tracer

        tracer = Tracer()
        tracer.install()
    state = workloads.SETUP[args.workload](entries)
    t1 = time.perf_counter()
    result = {"setup_s": t1 - t0, "env": environment()}
    if not args.setup_only:
        raw = workloads.PASS[args.workload](state, args.seed)
        t2 = time.perf_counter()
        result["wall_s"] = t2 - t1
        result["item_s"] = {
            f"{item}/{part}": seconds
            for item, v in raw.items()
            for part, seconds in v.pop("seconds", {}).items()
        }
        result["items"] = workloads.observe(args.workload, raw)
        if tracer is not None:
            result["layers"] = tracer.layer_metrics()
            SPANS_DIR.mkdir(exist_ok=True)
            with open(SPANS_DIR / f"spans-{args.workload}.json", "w", encoding="utf-8") as fh:
                json.dump(tracer.spans, fh)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
