"""Pipeline benchmark: solve-corpus, certify-corpus and compare-kdv.

    python3 perfbench/run.py --workload solve-corpus --seed 1 --seconds 36 --trace 0

Run from the root of a checkout.  Each pass runs in a fresh interpreter
(``worker.py``); passes are repeated while the next one is expected to end
within ``--seconds`` (at least one pass).  Every item of every pass is
checked against ``reference.json``.  With ``--trace 0`` the end-to-end
metrics are printed (``wall_s`` from each timed part's fastest time, the
others medians), with ``--trace 1`` the per-layer metrics of traced passes
(medians over passes).  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
Every result is also appended, with its environment (kernel backend,
Python version, nproc), to ``.perfbench/records.jsonl`` for ``report.py``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
REFERENCE = HERE / "reference.json"
BENCHMARK = ROOT / "BENCHMARK.json"
RECORDS = ROOT / ".perfbench" / "records.jsonl"

SETUP_SAMPLES = 15  # set-up is sampled in at least this many fresh interpreters per run
RUN_LIMIT_S = 165  # a pass still running after this is killed and fails

# The end-to-end metric each per-layer metric should move, and on which
# workloads; names, units and directions come from BENCHMARK.json.
SHOULD_MOVE = {
    "kernel.poly_mul.calls": ("wall_s", "solve-corpus, compare-kdv"),
    "kernel.poly_mul.self_s": ("wall_s", "solve-corpus, compare-kdv"),
    "kernel.derive.calls": ("wall_s", "solve-corpus, compare-kdv"),
    "kernel.derive.self_s": ("wall_s", "solve-corpus, compare-kdv"),
    "jets.euler.calls": ("wall_s", "solve-corpus"),
    "jets.euler.self_s": ("wall_s", "solve-corpus"),
    "jets.total_derivative.calls": ("wall_s", "certify-corpus"),
    "jets.total_derivative.self_s": ("wall_s", "certify-corpus"),
    "jets.expand_epsilon.self_s": ("wall_s", "compare-kdv"),
    "printer.print_poly.self_s": ("wall_s", "compare-kdv"),
    "multipliers.determining_system.calls": ("wall_s", "solve-corpus, compare-kdv"),
    "multipliers.determining_system.self_s": ("wall_s", "solve-corpus, compare-kdv"),
    "multipliers.classify.self_s": ("wall_s", "solve-corpus, compare-kdv"),
    "multipliers.system.rows": ("peak_rss_mb, wall_s", "solve-corpus"),
    "multipliers.system.distinct_rows": ("peak_rss_mb, wall_s", "solve-corpus"),
    "multipliers.system.unknowns": ("peak_rss_mb, wall_s", "solve-corpus"),
    "multipliers.system.nnz": ("peak_rss_mb, wall_s", "solve-corpus"),
    "multipliers.system.distinct_ratio": ("peak_rss_mb, wall_s", "solve-corpus"),
    "linalg.rref.calls": ("wall_s", "solve-corpus, compare-kdv"),
    "linalg.rref.self_s": ("wall_s", "solve-corpus, compare-kdv"),
    "linalg.rank": ("wall_s", "solve-corpus, compare-kdv"),
    "linalg.rank_ratio": ("wall_s", "solve-corpus, compare-kdv"),
    "linalg.solve_particular.calls": ("wall_s", "certify-corpus"),
    "linalg.solve_particular.self_s": ("wall_s", "certify-corpus"),
    "fluxes.reconstruct.calls": ("wall_s, ok_frac", "certify-corpus"),
    "fluxes.reconstruct.self_s": ("wall_s, ok_frac", "certify-corpus"),
    "fluxes.reconstruct.failed": ("wall_s, ok_frac", "certify-corpus"),
    "verify.full_report.self_s": ("wall_s", "certify-corpus"),
    "verify.spot_check.self_s": ("wall_s", "certify-corpus"),
    "verify.verify_on_solutions.self_s": ("wall_s", "certify-corpus"),
    "problem.reduce_on_solutions.self_s": ("wall_s", "certify-corpus"),
    "corpus.load.self_s": ("setup_s", "all"),
    "trace.wall_s": ("tracing overhead = trace.wall_s - wall_s", "all"),
}


def declared_metrics(trace: bool) -> list:
    """(name, unit) of the metrics BENCHMARK.json declares for this mode."""
    bench = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    return [(m["name"], m["unit"]) for m in bench["per_layer" if trace else "end_to_end"]]


class WorkerFailed(Exception):
    pass


def run_worker(workload, seed, *, trace=False, setup_only=False, entries=None, timeout=None):
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed)]
    if trace:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    if entries:
        cmd += ["--entries", ",".join(entries)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
        raise WorkerFailed(f"worker timed out after {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerFailed(f"worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def expected_items(reference, workload, entries=None) -> dict:
    ref = reference[workload]
    if not entries:
        return ref
    return {k: v for k, v in ref.items() if k.split("/")[0] in entries}


def check_items(workload, items: dict, expected: dict) -> list:
    """Names of the failed items: missing, unexpected, raised, differing from
    the reference or (certify-corpus) certified with a status other than the
    fixture's published one."""
    failed = []
    for name in sorted(set(expected) | set(items)):
        obs = items.get(name)
        if obs is None or name not in expected or obs != expected[name]:
            failed.append(name)
        elif workload == "certify-corpus" and obs["status"] != obs["expected_status"]:
            failed.append(name)
    return failed


def quiet_pass_s(passes) -> float:
    """A pass at the host's quiet speed: each timed part's fastest time in
    the run, summed over the parts.  Other load on the host only ever adds
    time, in spells of seconds to minutes; the fastest of many short timings
    is steady from run to run where the median, or a long pass, is not."""
    best = {}
    for p in passes:
        for part, seconds in p["item_s"].items():
            best[part] = min(seconds, best.get(part, seconds))
    return sum(best.values())


def measure(workload, seed, seconds, trace, entries=None, log=print):
    """Run passes for ``seconds`` and return (attempted, failed, metrics, env)."""
    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
    expected = expected_items(reference, workload, entries)
    start = time.perf_counter()
    passes, setups, envs = [], [], []
    attempted = failed = 0
    last = 0.0
    while True:
        elapsed = time.perf_counter() - start
        if passes and elapsed + last > seconds:  # the next pass would overrun
            break
        t = time.perf_counter()
        try:
            res = run_worker(workload, seed, trace=trace, entries=entries,
                             timeout=RUN_LIMIT_S + 10 - elapsed)
        except WorkerFailed as exc:
            log(f"pass {len(passes) + 1}: {exc}")
            attempted += len(expected)
            failed += len(expected)
            break
        log(f"pass {len(passes) + 1}: wall_s {res['wall_s']:.4f}")
        bad = check_items(workload, res["items"], expected)
        for name in bad:
            log(f"pass {len(passes) + 1}: item {name} failed: {res['items'].get(name)}")
        attempted += len(set(expected) | set(res["items"]))
        failed += len(bad)
        passes.append(res)
        setups.append(res["setup_s"])
        envs.append(res["env"])
        last = time.perf_counter() - t
    if not passes:
        raise WorkerFailed("no pass completed")
    while not trace and len(setups) < SETUP_SAMPLES:
        res = run_worker(workload, seed, setup_only=True, entries=entries, timeout=60)
        setups.append(res["setup_s"])
        envs.append(res["env"])
    if any(env != envs[0] for env in envs):
        raise WorkerFailed(f"environment changed between passes: {envs}")

    quiet = quiet_pass_s(passes)
    if trace:
        metrics = {}
        for name, unit in declared_metrics(True):
            if name == "trace.wall_s":
                value = quiet
            else:
                value = statistics.median(p["layers"].get(name, 0) for p in passes)
            metrics[name] = {"value": value, "unit": unit}
    else:
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": quiet,
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
            "ok_frac": 1 - failed / attempted,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in declared_metrics(False)}
    log(f"{workload}: {len(passes)} passes, {len(setups)} set-ups, seed {seed}, trace {int(trace)}")
    return attempted, failed, metrics, envs[0]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "approxlaws" / "__init__.py").is_file() or not REFERENCE.is_file():
        print(f"error: {ROOT} is not an approxlaws checkout (src/approxlaws missing)", file=sys.stderr)
        return 2
    try:
        attempted, failed, metrics, env = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print("env " + json.dumps(env, sort_keys=True))
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(f"failed_frac {failed / attempted:.6g} ({failed} of {attempted} items)")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "env": env, **result}
    RECORDS.parent.mkdir(exist_ok=True)
    with open(RECORDS, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
