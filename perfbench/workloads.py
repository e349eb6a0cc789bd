"""The benchmark's workloads: set-up and one pass each, run inside a worker.

A pass returns raw outputs per item, with the ``seconds`` each timed part
of it took (a ``solve_multipliers`` call, the rest of a CLI call, a law's
certification); ``observe`` turns them into the comparable observations
(dimensions, digests, statuses) after the timed region.  Every item's observation is
checked against ``reference.json``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import time
from pathlib import Path

CORPUS_ENTRIES = (
    "diffusion-consistent",
    "diffusion-approach-a",
    "diffusion-approach-b",
    "kdv-burgers",
    "wave",
    "nls2",
    "nls3",
    "kaup-newell",
)
COMPARE_ENTRY = "kdv-burgers"

METHOD_FLAGS = {"consistent": "consistent", "approach_a": "a", "approach_b": "b"}
HINT_FLAGS = ("mult_deps", "mult_degree", "mult_xdegree", "laurent")
TRIALS = 5  # the CLI's default number of spot-check trials
# The hint ansatz's multiplier degree is capped, per command.  At the hints'
# degrees (3 to 5) a solve of nls2, nls3 or kaup-newell, or a compare of
# kdv-burgers, takes 8 to 40 s.  The host's speed swings by up to 1.5x for
# tens of seconds, and only the fastest of many timings of short items was
# steady from run to run: items of 0.5-1 s (nls3 and kaup-newell at degree
# 2) still moved wall_s by 20-50% between runs, items under 0.3 s by under
# 8%.  The capped systems keep their shape: tall, singleton-rich rows for
# the NLS family, denser approach-B rows for compare-kdv.
MULT_DEGREE_CAP = {"solve": 1, "compare": 2}

WORKLOADS = ("solve-corpus", "certify-corpus", "compare-kdv")


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def basis_digest(basis) -> str:
    return sha256(json.dumps([[str(x) for x in vec] for vec in basis]))


def data_path(entry_id: str) -> Path:
    from approxlaws import corpus

    return Path(corpus.__file__).parent / "data" / f"{entry_id}.prob"


def cli_argv(command: str, entry_id: str) -> list:
    """The `approxlaws <command>` arguments that run an entry from its hint
    ansatz, degree capped by MULT_DEGREE_CAP, with its own method, reporting
    in JSON; the pass adds --seed."""
    from approxlaws.problem import load_problem_file

    path = data_path(entry_id)
    pf = load_problem_file(path)
    argv = [command, str(path), "--format", "json", "--trials", str(TRIALS)]
    if command == "solve":
        argv += ["--method", METHOD_FLAGS[pf.method]]
    for key in HINT_FLAGS:
        if key in pf.hints:
            value = pf.hints[key]
            if key == "mult_degree":
                value = str(min(int(value), MULT_DEGREE_CAP[command]))
            argv += ["--" + key.replace("_", "-"), value]
    return argv


@contextlib.contextmanager
def capture(module, attr: str, sink: list):
    """Record every ``(result, seconds)`` of ``module.attr`` while the block runs."""
    fn = getattr(module, attr)

    def recording(*args, **kwargs):
        t = time.perf_counter()
        out = fn(*args, **kwargs)
        sink.append((out, time.perf_counter() - t))
        return out

    setattr(module, attr, recording)
    try:
        yield sink
    finally:
        setattr(module, attr, fn)


def run_cli(argv) -> tuple[int, str]:
    from approxlaws import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


# --- solve-corpus ----------------------------------------------------------


def setup_solve(entries):
    from approxlaws import corpus

    for eid in entries:
        corpus.load(eid)
    return [(eid, cli_argv("solve", eid)) for eid in entries]


def pass_solve(state, seed):
    from approxlaws import cli

    out = {}
    for eid, argv in state:
        t = time.perf_counter()
        try:
            with capture(cli, "solve_multipliers", []) as solved:
                code, text = run_cli(argv + ["--seed", str(seed)])
            ((result, solve_s),) = solved
            rest_s = time.perf_counter() - t - solve_s
            out[eid] = {"code": code, "text": text, "basis": result.basis,
                        "seconds": {"solve": solve_s, "rest": rest_s}}
        except Exception as exc:  # a crash is a failed item, not a failed run
            out[eid] = {"error": f"{type(exc).__name__}: {exc}"}
    return out


def observe_solve(raw):
    report = json.loads(raw["text"])
    return {
        "exit_code": raw["code"],
        "dimension": report["solution_dimension"],
        "basis_sha256": basis_digest(raw["basis"]),
        "report_sha256": sha256(raw["text"]),
        "statuses": [law["verification"]["status"] for law in report["laws"]],
        "reconstruction_failures": len(report["reconstruction_failures"]),
    }


# --- certify-corpus --------------------------------------------------------


def setup_certify(entries):
    from approxlaws import corpus

    return [corpus.load(eid) for eid in entries]


def pass_certify(entries, seed):
    from approxlaws.fluxes import reconstruct
    from approxlaws.printer import print_poly
    from approxlaws.verify import full_report

    out = {}
    for entry in entries:
        problem = entry.problem
        names = [s.name for s in problem.table.indep]
        for cl in entry.laws:
            item = f"{entry.id}/{cl.label}"
            t = time.perf_counter()
            try:
                law = reconstruct(problem, cl.law.mult)
                fluxes = {
                    name: [print_poly(s, problem.table) for s in row]
                    for name, row in zip(names, law.fluxes)
                }
                status = full_report(problem, cl.law, trials=TRIALS, seed=seed)["status"]
                out[item] = {"fluxes": fluxes, "status": status, "expected": cl.expected_status,
                             "seconds": {"certify": time.perf_counter() - t}}
            except Exception as exc:  # ReconstructionError included
                out[item] = {"error": f"{type(exc).__name__}: {exc}"}
    return out


def observe_certify(raw):
    return {
        "fluxes_sha256": sha256(json.dumps(raw["fluxes"], sort_keys=True)),
        "status": raw["status"],
        "expected_status": raw["expected"],
    }


# --- compare-kdv -----------------------------------------------------------


def setup_compare(entries):
    from approxlaws import corpus

    (entry_id,) = entries
    return corpus.load(entry_id), cli_argv("compare", entry_id)


def pass_compare(state, seed):
    """`approxlaws compare`, then certify every law it reconstructed."""
    from approxlaws import cli
    from approxlaws.verify import full_report

    entry, argv = state
    out = {}
    t = time.perf_counter()
    try:
        with capture(cli, "solve_multipliers", []) as solved, capture(cli, "reconstruct", []) as laws:
            code, text = run_cli(argv + ["--seed", str(seed)])
    except Exception as exc:
        return {"report": {"error": f"{type(exc).__name__}: {exc}"}}
    seconds = {result.method: solve_s for result, solve_s in solved}
    seconds["rest"] = time.perf_counter() - t - sum(seconds.values())
    out["report"] = {"code": code, "text": text, "seconds": seconds}
    for result, _ in solved:
        out[f"basis/{result.method}"] = {"basis": result.basis}
    for i, (law, _) in enumerate(laws):
        t = time.perf_counter()
        try:
            status = full_report(entry.problem, law, trials=TRIALS, seed=seed)["status"]
            out[f"law/{law.method}/{i}"] = {"status": status, "seconds": {"certify": time.perf_counter() - t}}
        except Exception as exc:
            out[f"law/{law.method}/{i}"] = {"error": f"{type(exc).__name__}: {exc}"}
    return out


def observe_compare(raw):
    if "text" in raw:
        report = json.loads(raw["text"])
        return {
            "exit_code": raw["code"],
            "dimensions": {m: b["solution_dimension"] for m, b in report["blocks"].items()},
            "report_sha256": sha256(raw["text"]),
        }
    if "basis" in raw:
        return {"dimension": len(raw["basis"]), "basis_sha256": basis_digest(raw["basis"])}
    return {"status": raw["status"]}


SETUP = {"solve-corpus": setup_solve, "certify-corpus": setup_certify, "compare-kdv": setup_compare}
PASS = {"solve-corpus": pass_solve, "certify-corpus": pass_certify, "compare-kdv": pass_compare}
OBSERVE = {"solve-corpus": observe_solve, "certify-corpus": observe_certify, "compare-kdv": observe_compare}
DEFAULT_ENTRIES = {"solve-corpus": CORPUS_ENTRIES, "certify-corpus": CORPUS_ENTRIES, "compare-kdv": (COMPARE_ENTRY,)}


def observe(workload, raw_items) -> dict:
    out = {}
    for item, raw in raw_items.items():
        if "error" in raw:
            out[item] = {"error": raw["error"]}
            continue
        try:
            out[item] = OBSERVE[workload](raw)
        except (KeyError, ValueError) as exc:
            out[item] = {"error": f"unreadable output: {exc}"}
    return out
