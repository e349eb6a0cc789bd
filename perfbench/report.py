"""Summarise benchmark records.

    python3 perfbench/report.py [RECORDS]

``run.py`` appends every result, with its environment, to
``.perfbench/records.jsonl``; that file is the default.  For each workload
this prints every metric's median and spread (interquartile range as a
share of the median) and the tracing overhead, the traced ``trace.wall_s``
minus the untraced ``wall_s``.  Records from different kernel backends,
Python versions or core counts are refused (exit code 2).
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict

from run import RECORDS


def load(path) -> list:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def medians(records) -> dict:
    """(workload, metric) -> (median, spread, sample count)."""
    values = defaultdict(list)
    for rec in records:
        for name, m in rec["metrics"].items():
            values[rec["workload"], name].append(m["value"])
    out = {}
    for key, vals in values.items():
        med = statistics.median(vals)
        spread = 0.0
        if len(vals) >= 2 and med:
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / abs(med)
        out[key] = (med, spread, len(vals))
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) > 1:
        print(__doc__, file=sys.stderr)
        return 2
    records = load(argv[0] if argv else RECORDS)
    envs = {json.dumps(rec["env"], sort_keys=True) for rec in records}
    if len(envs) > 1:
        print("error: records come from different environments, refusing to compare:", file=sys.stderr)
        for env in sorted(envs):
            print(f"  {env}", file=sys.stderr)
        return 2
    summary = medians(records)
    print(f"env {envs.pop() if envs else '{}'}")
    for workload in sorted({w for w, _ in summary}):
        print(f"{workload}:")
        for (w, name), (med, spread, n) in sorted(summary.items()):
            if w == workload:
                print(f"  {name:40s} {med:12.6g}  spread {spread:6.1%}  n={n}")
        if (workload, "trace.wall_s") in summary and (workload, "wall_s") in summary:
            overhead = summary[workload, "trace.wall_s"][0] - summary[workload, "wall_s"][0]
            print(f"  tracing overhead (trace.wall_s - wall_s) {overhead:.3f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
