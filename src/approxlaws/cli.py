"""Command-line front end.

Subcommands: solve (multipliers + fluxes + verification for one problem
file), compare (the three methods side by side), verify (check the
multiplier/flux blocks recorded in a problem file), expand (series expansion
of one expression), audit (run the verifier over the built-in corpus).

Exit codes: 0 success, 2 input error, 3 incomplete flux reconstruction
(multipliers still emitted), 4 verification failure.  Output is
deterministic: identical flags give byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import corpus
from .expr import UnsupportedFormError
from .fluxes import ReconstructionError, reconstruct
from .jets import expand_epsilon, join_eps
from .multipliers import parse_ansatz, solve_multipliers
from .parser import ParseError, parse
from .printer import print_poly
from .problem import HINT_DEFAULTS, MAX_ORDER, METHODS, PdeProblem, ProblemError, load_problem_file
from .verify import DEFAULT_SEED, DEFAULT_TRIALS, MAX_TRIALS, full_report

OK, INPUT_ERROR, INCOMPLETE, VERIFY_FAILED = 0, 2, 3, 4

_METHOD_FLAGS = {"consistent": "consistent", "a": "approach_a", "b": "approach_b"}


class CliError(Exception):
    """A flag value or request the command refuses; an input error (exit 2)."""


def _check_args(args):
    """Reject flag values argparse's types let through (exit 2)."""
    order = getattr(args, "order", None)
    if order is not None and not 1 <= order <= MAX_ORDER:
        raise CliError(f"--order must be in 1..{MAX_ORDER}")
    if not 1 <= args.trials <= MAX_TRIALS:
        raise CliError(f"--trials must be in 1..{MAX_TRIALS}")


def _load_problem(args):
    """The problem file's problem, truncated at ``--order`` if given."""
    problem = load_problem_file(args.input).problem
    if args.order and args.order != problem.p:
        problem = PdeProblem(problem.table, problem.eqns, problem.leading, args.order, name=problem.name)
    return problem


def _ansatz_from_args(args, problem):
    return parse_ansatz(problem.table, args.mult_deps, args.mult_degree, args.mult_xdegree,
                        args.laurent)


def _mult_json(cm, table, index, style):
    comps = []
    hierarchy = cm.mult.method == "approach_b"
    for nu, row in enumerate(cm.mult.slots):
        comp = {
            "equation": nu + 1,
            "slots": [print_poly(s, table, style) for s in row],
        }
        if not hierarchy:
            # eps-series methods admit a combined rendering; approach-b slots
            # are the exact per-hierarchy-member multipliers
            comp["combined"] = print_poly(join_eps(row), table, style)
        comps.append(comp)
    return {
        "index": index,
        "trivial": cm.trivial,
        "eps_shift": cm.eps_shift,
        "stable": cm.stable,
        "components": comps,
    }


def _law_json(law, table, style):
    return {
        name: [print_poly(s, table, style) for s in row]
        for name, row in zip((s.name for s in table.indep), law.fluxes)
    }


def _report_verification(problem, law, trials, seed):
    fr = full_report(problem, law, trials=trials, seed=seed)
    out = {"status": fr["status"]}
    for name, rep in fr["reports"].items():
        out[name] = rep.passed
    return out


def run_solve(args) -> tuple[dict, int]:
    problem = _load_problem(args)
    method = _METHOD_FLAGS[args.method]
    spec = _ansatz_from_args(args, problem)
    result = solve_multipliers(problem, spec, method)
    table = problem.table
    style = "human" if args.format == "text" else "machine"
    report = {
        "command": "solve",
        "problem": _problem_json(problem),
        "method": method,
        "ansatz": {
            "generators": [print_poly(g, table) for g in spec.generators],
            "degree": spec.degree,
            "xdegree": spec.xdeg,
        },
        "solution_dimension": len(result.basis),
        "multipliers": [],
        "laws": [],
        "reconstruction_failures": [],
    }
    code = OK
    for i, cm in enumerate(result.classified, 1):
        report["multipliers"].append(_mult_json(cm, table, i, style))
        try:
            law = reconstruct(problem, cm.mult)
        except ReconstructionError as exc:
            report["reconstruction_failures"].append({"multiplier_index": i, "error": str(exc)})
            code = INCOMPLETE
            continue
        ver = _report_verification(problem, law, args.trials, args.seed)
        report["laws"].append(
            {"multiplier_index": i, "fluxes": _law_json(law, table, style), "verification": ver}
        )
        if ver["status"] != "identity" and code == OK:
            code = VERIFY_FAILED
    return report, code


def run_compare(args) -> tuple[dict, int]:
    problem = _load_problem(args)
    table = problem.table
    spec = _ansatz_from_args(args, problem)
    style = "human" if args.format == "text" else "machine"
    report = {
        "command": "compare",
        "problem": _problem_json(problem),
        "blocks": {},
        "expansion_notes": [],
    }
    results = {}
    for method in METHODS:
        result = solve_multipliers(problem, spec, method)
        results[method] = result
        block = {
            "solution_dimension": len(result.basis),
            "nontrivial": sum(1 for cm in result.classified if not cm.trivial),
            "multipliers": [
                _mult_json(cm, table, i, style) for i, cm in enumerate(result.classified, 1)
            ],
        }
        report["blocks"][method] = block
    # which consistent laws are expansions of approach-a laws
    try:
        cons_laws, a_laws = (
            [(i, reconstruct(problem, cm.mult))
             for i, cm in enumerate(results[method].classified, 1) if not cm.trivial]
            for method in ("consistent", "approach_a")
        )
    except ReconstructionError as exc:
        report["reconstruction_failures"] = [str(exc)]
        return report, INCOMPLETE
    # an approach-a law that does not expand has no consistent counterpart
    a_expanded = []
    for j, alaw in a_laws:
        try:
            a_expanded.append((j, [expand_epsilon(join_eps(row), problem.p) for row in alaw.mult.slots],
                               [expand_epsilon(join_eps(row), problem.p) for row in alaw.fluxes]))
        except UnsupportedFormError:
            continue
    for i, claw in cons_laws:
        for j, am, af in a_expanded:
            if am == [list(row) for row in claw.mult.slots]:
                same = af == [list(row) for row in claw.fluxes]
                report["expansion_notes"].append(
                    {
                        "consistent_index": i,
                        "approach_a_index": j,
                        "fluxes_are_expansion": same,
                    }
                )
    return report, OK


def _verify_laws(problem, laws, args) -> tuple[list, int]:
    """Each recorded law of ``laws`` with its verification summary, and the
    exit code: 4 when a law achieves another status than it records."""
    rows = [(cl, _report_verification(problem, cl.law, args.trials, args.seed)) for cl in laws]
    failed = any(ver["status"] != cl.expected_status for cl, ver in rows)
    return rows, VERIFY_FAILED if failed else OK


def run_verify(args) -> tuple[dict, int]:
    pf = load_problem_file(args.input)
    problem = pf.problem
    if not pf.expected:
        raise CliError(f"{args.input}: no multiplier/flux blocks to verify")
    rows, code = _verify_laws(problem, corpus.recorded_laws(pf), args)
    report = {
        "command": "verify",
        "problem": _problem_json(problem),
        "method": pf.method,
        "laws": [
            {"label": cl.label, "expected": cl.expected_status, "achieved": ver["status"], "verification": ver}
            for cl, ver in rows
        ],
    }
    return report, code


def run_expand(args) -> tuple[dict, int]:
    pf = load_problem_file(args.input)
    problem = pf.problem
    if not args.expr:
        raise CliError("expand requires --expr")
    p = args.order or problem.p
    try:
        slots = expand_epsilon(parse(args.expr, problem.table), p)
    except UnsupportedFormError as exc:
        raise CliError(f"--expr: {exc}") from exc
    table = problem.table
    style = "human" if args.format == "text" else "machine"
    report = {
        "command": "expand",
        "expression": args.expr,
        "order": p,
        "slots": [print_poly(c, table, style) for c in slots],
        "expansion": print_poly(join_eps(slots), table, style),
    }
    return report, OK


def run_audit(args) -> tuple[dict, int]:
    """``verify`` of every law the selected corpus entries record."""
    ids = args.entries or corpus.ENTRY_IDS
    for eid in ids:
        if eid not in corpus.ENTRY_IDS:
            raise CliError(f"unknown corpus entry {eid!r}")
    report = {"command": "audit", "entries": {}, "errata": []}
    code = OK
    for eid in ids:
        entry = corpus.load(eid)
        rows, entry_code = _verify_laws(entry.problem, entry.laws, args)
        code = max(code, entry_code)
        for cl, ver in rows:
            achieved = ver["status"]
            report["entries"].setdefault(eid, []).append(
                {"law": cl.label, "expected": cl.expected_status, "achieved": achieved,
                 "certified": achieved != "fail"})
            if achieved != "identity":
                report["errata"].append(
                    {"entry": eid, "law": cl.label, "achieved": achieved, "expected": cl.expected_status})
    return report, code


def _problem_json(problem) -> dict:
    table = problem.table
    return {
        "name": problem.name,
        "independent": [s.name for s in table.indep],
        "dependent": list(table.dep_names),
        "parameters": [s.name for s in table.params],
        "functions": [f"{f}({table.dep_names[d]})" for f, d in table.funcs.items()],
        "order": problem.p,
        "equations": [print_poly(e, table) for e in problem.eqns],
        "leading": [print_poly(lead, table) for lead in problem.leading],
    }


# --- rendering ----------------------------------------------------------------


def _render_text(report) -> str:
    lines = []
    cmd = report["command"]
    if cmd == "expand":
        lines.append(f"expansion of {report['expression']} to order {report['order']}:")
        for k, s in enumerate(report["slots"]):
            lines.append(f"  O(\u03b5^{k}): {s}")
        lines.append(f"  total: {report['expansion']}")
        return "\n".join(lines) + "\n"
    if cmd == "audit":
        lines.append("corpus audit")
        for eid, rows in report["entries"].items():
            lines.append(f"  {eid}:")
            for row in rows:
                mark = "ok" if row["achieved"] == row["expected"] else "FAIL"
                lines.append(
                    f"    law {row['law']:8s} expected={row['expected']:10s} "
                    f"achieved={row['achieved']:10s} [{mark}]"
                )
        if report["errata"]:
            lines.append("  non-identity outcomes (documented errata):")
            for e in report["errata"]:
                lines.append(f"    {e['entry']} law {e['law']}: {e['achieved']}")
        else:
            lines.append("  all laws identity-verified")
        return "\n".join(lines) + "\n"
    if cmd == "verify":
        lines.append(f"verification of {report['problem']['name'] or 'problem'} ({report['method']})")
        for row in report["laws"]:
            mark = "ok" if row["achieved"] == row["expected"] else "FAIL"
            lines.append(f"  law {row['label']:8s} achieved={row['achieved']:10s} [{mark}]")
        return "\n".join(lines) + "\n"

    def mult_block(m):
        flag = []
        if m["trivial"]:
            flag.append("trivial")
        if m["eps_shift"]:
            flag.append("eps-shift")
        if m["stable"]:
            flag.append("stable")
        tag = (" (" + ", ".join(flag) + ")") if flag else ""
        lines.append(f"  multiplier {m['index']}{tag}:")
        for comp in m["components"]:
            if "combined" in comp:
                lines.append(f"    \u039b^{comp['equation']} = {comp['combined']}")
            else:
                for k, s in enumerate(comp["slots"]):
                    lines.append(f"    \u039b^{comp['equation']}[{k}] = {s}")

    if cmd == "solve":
        lines.append(f"solve {report['problem']['name'] or 'problem'} [{report['method']}]")
        lines.append(f"  solution space dimension: {report['solution_dimension']}")
        for m in report["multipliers"]:
            mult_block(m)
        for law in report["laws"]:
            lines.append(f"  fluxes for multiplier {law['multiplier_index']}"
                         f" [{law['verification']['status']}]:")
            for var, slots in law["fluxes"].items():
                for k, s in enumerate(slots):
                    lines.append(f"    \u03a6^{var}[{k}] = {s}")
        for fail in report["reconstruction_failures"]:
            lines.append(f"  reconstruction failed for multiplier {fail['multiplier_index']}: {fail['error']}")
        return "\n".join(lines) + "\n"
    lines.append(f"compare {report['problem']['name'] or 'problem'}")
    for method, block in report["blocks"].items():
        lines.append(f"  == {method}: dimension {block['solution_dimension']}, "
                     f"{block['nontrivial']} non-trivial")
        for m in block["multipliers"]:
            mult_block(m)
    for note in report["expansion_notes"]:
        rel = "are the expansion of" if note["fluxes_are_expansion"] else "differ from the expansion of"
        lines.append(
            f"  consistent law {note['consistent_index']} fluxes {rel} "
            f"approach-a law {note['approach_a_index']} fluxes"
        )
    for error in report.get("reconstruction_failures", ()):
        lines.append(f"  reconstruction failed: {error}")
    return "\n".join(lines) + "\n"


def _emit(report, code, args):
    if args.format == "json":
        report["exit_code"] = code
        text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    else:
        text = _render_text(report)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return code


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="approxlaws",
        description="Approximate conservation laws of perturbed PDE systems",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, with_input=True):
        if with_input:
            p.add_argument("input", help="problem file")
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--out", default=None, help="write the report to a file")
        p.add_argument("--seed", type=int, default=DEFAULT_SEED)
        p.add_argument("--trials", type=int, default=DEFAULT_TRIALS, help="spot-check trials")

    def ansatz(p):
        p.add_argument("--method", choices=_METHOD_FLAGS, default="consistent")
        p.add_argument("--order", type=int, default=None, help="override the truncation order")
        p.add_argument("--mult-deps", default=HINT_DEFAULTS["mult_deps"],
                       help="comma-separated ansatz generators")
        p.add_argument("--mult-degree", type=int, default=HINT_DEFAULTS["mult_degree"])
        p.add_argument("--mult-xdegree", type=int, default=HINT_DEFAULTS["mult_xdegree"])
        p.add_argument("--laurent", default=HINT_DEFAULTS["laurent"],
                       help="Laurent generators, e.g. 'u[0]:-2'")

    p = sub.add_parser("solve", help="find multipliers and reconstruct fluxes")
    common(p)
    ansatz(p)
    p.set_defaults(func=run_solve)

    p = sub.add_parser("compare", help="run all three methods side by side")
    common(p)
    ansatz(p)
    p.set_defaults(func=run_compare)

    p = sub.add_parser("verify", help="verify multiplier/flux blocks from a problem file")
    common(p)
    p.set_defaults(func=run_verify)

    p = sub.add_parser("expand", help="epsilon-expand one expression")
    common(p)
    p.add_argument("--expr", required=True)
    p.add_argument("--order", type=int, default=None)
    p.set_defaults(func=run_expand)

    p = sub.add_parser("audit", help="verify the built-in corpus")
    p.add_argument("entries", nargs="*", help="corpus entry ids (default: all)")
    common(p, with_input=False)
    p.set_defaults(func=run_audit)
    return ap


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser: parsing never changes it, so every
    :func:`main` call reuses it."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        _check_args(args)
        report, code = args.func(args)
        return _emit(report, code, args)
    except (CliError, ProblemError, ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
