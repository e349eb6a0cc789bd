"""Record the per-item reference outputs the benchmark checks against.

    python3 perfbench/make_reference.py

Runs one untraced pass of every workload and writes ``reference.json``:
for each item its solution dimension, basis and report digests and law
statuses.  Run it only on a commit whose outputs are known to be right;
the committed file was recorded on the commit that added the benchmark.
"""

from __future__ import annotations

import json
import sys

from run import REFERENCE, WORKLOADS, run_worker


def main() -> int:
    reference = {}
    for workload in WORKLOADS:
        res = run_worker(workload, 0)
        errors = {k: v for k, v in res["items"].items() if "error" in v}
        if errors:
            print(f"error: {workload}: {errors}", file=sys.stderr)
            return 1
        reference[workload] = res["items"]
    reference["env"] = res["env"]
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
