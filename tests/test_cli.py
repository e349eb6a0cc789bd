"""Command-line interface: subcommands, exit codes, determinism."""

import json
import subprocess
import sys
from importlib import resources

import pytest

from approxlaws import corpus, fluxes, normalize, parse
from approxlaws.cli import main
from approxlaws.problem import hint_flags, load_problem_file, parse_problem_text


def fixture_path(entry_id):
    return str(resources.files("approxlaws.corpus").joinpath("data", f"{entry_id}.prob"))


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_solve_diffusion_reports_published_multipliers(capsys):
    code, out, _ = run_cli(
        capsys, "solve", fixture_path("diffusion-consistent"),
        "--mult-deps", "t,x,u[0]", "--mult-degree", "2", "--trials", "1",
    )
    assert code == 0
    assert "x + ε*(t + x²/2)" in out
    assert "dimension: 4" in out


def test_solve_degree_zero_only_unit(capsys):
    code, out, _ = run_cli(
        capsys, "solve", fixture_path("diffusion-consistent"),
        "--mult-deps", "t,x,u[0]", "--mult-degree", "0", "--mult-xdegree", "0",
        "--trials", "1", "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    nontrivial = [m for m in data["multipliers"] if not m["trivial"]]
    assert len(nontrivial) == 1
    assert nontrivial[0]["components"][0]["combined"] == "1"
    assert data["solution_dimension"] == 2  # {1, eps}


def test_solve_empty_nullspace_toy(tmp_path, capsys):
    toy = tmp_path / "toy.prob"
    toy.write_text(
        "independent = t, x\ndependent = u\norder = 1\n"
        "equation = u_t + u^2\nleading = u_t\n"
    )
    code, out, _ = run_cli(
        capsys, "solve", str(toy), "--mult-deps", "t,x", "--mult-degree", "0",
        "--format", "json", "--trials", "1",
    )
    assert code == 0
    data = json.loads(out)
    assert data["solution_dimension"] == 0
    assert data["multipliers"] == [] and data["laws"] == []


def test_solve_order_override(capsys):
    code, out, _ = run_cli(
        capsys, "solve", fixture_path("diffusion-consistent"),
        "--order", "2", "--mult-deps", "t,x", "--mult-degree", "0",
        "--format", "json", "--trials", "1",
    )
    assert code == 0
    data = json.loads(out)
    assert data["problem"]["order"] == 2
    assert data["solution_dimension"] == 3  # {1, eps, eps^2}
    for law in data["laws"]:
        assert len(law["fluxes"]["t"]) == 3


def test_solve_method_flags(capsys):
    for flag, dim in (("a", 4), ("b", 4)):
        code, out, _ = run_cli(
            capsys, "solve", fixture_path("diffusion-consistent"),
            "--method", flag, "--mult-deps", "t,x,u[0]", "--mult-degree", "2",
            "--format", "json", "--trials", "1",
        )
        assert code == 0
        assert json.loads(out)["solution_dimension"] == dim


def test_compare_diffusion_blocks(capsys):
    code, out, _ = run_cli(
        capsys, "compare", fixture_path("diffusion-consistent"),
        "--mult-deps", "t,x,u[0]", "--mult-degree", "2", "--format", "json",
        "--trials", "1",
    )
    assert code == 0
    data = json.loads(out)
    assert set(data["blocks"]) == {"consistent", "approach_a", "approach_b"}
    assert data["blocks"]["approach_b"]["nontrivial"] == 4
    assert data["blocks"]["consistent"]["nontrivial"] == 2
    assert data["blocks"]["approach_a"]["nontrivial"] == 2
    # the consistent fluxes are the expansions of the approach-a fluxes
    notes = data["expansion_notes"]
    assert notes and all(n["fluxes_are_expansion"] for n in notes)
    assert len(notes) == 2


def test_expand_taylor(capsys):
    code, out, _ = run_cli(
        capsys, "expand", fixture_path("wave"), "--expr", "f(u)", "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    pb = parse_problem_text(open(fixture_path("wave")).read()).problem
    got = normalize(parse(data["expansion"], pb.table))
    want = normalize(parse("f(u[0]) + eps*f'(u[0])*u[1]", pb.table))
    assert got == want
    assert data["slots"][0] == "f(u[0])"


def test_verify_wave(capsys):
    code, out, _ = run_cli(capsys, "verify", fixture_path("wave"), "--trials", "1")
    assert code == 0
    assert "[ok]" in out and "FAIL" not in out


def test_verify_failure_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.prob"
    text = open(fixture_path("diffusion-consistent")).read()
    bad.write_text(text.replace("flux.1.t.0 = u[0]", "flux.1.t.0 = u[0] + u[0]^2"))
    code, out, _ = run_cli(capsys, "verify", str(bad), "--trials", "1")
    assert code == 4


def test_audit_exit_zero(capsys):
    code, out, _ = run_cli(capsys, "audit", "diffusion-consistent", "wave", "--trials", "1")
    assert code == 0
    assert "all laws identity-verified" in out


def test_audit_lists_errata(capsys):
    code, out, _ = run_cli(capsys, "audit", "kdv-burgers", "--trials", "1", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["errata"] == [
        {"entry": "kdv-burgers", "law": "4", "achieved": "onsolution", "expected": "onsolution"}
    ]


def test_audit_text_lists_errata(capsys):
    code, out, _ = run_cli(capsys, "audit", "kdv-burgers", "--trials", "1")
    assert code == 0
    assert out.splitlines()[-2:] == ["  non-identity outcomes (documented errata):", "    kdv-burgers law 4: onsolution"]


def test_audit_counts_an_entry_named_twice_once(capsys):
    flags = ("--format", "json", "--trials", "1")
    _, once, _ = run_cli(capsys, "audit", "kdv-burgers", "diffusion-consistent", *flags)
    code, twice, _ = run_cli(capsys, "audit", "kdv-burgers", "diffusion-consistent", "kdv-burgers",
                             "diffusion-consistent", *flags)
    assert code == 0 and twice == once
    data = json.loads(twice)
    assert sorted(data["entries"]) == ["diffusion-consistent", "kdv-burgers"]
    assert [row["law"] for row in data["entries"]["diffusion-consistent"]] == ["1", "2", "1*eps", "2*eps"]
    assert len(data["errata"]) == 1


def test_out_writes_the_bytes_stdout_would(tmp_path, capsys):
    for fmt in ("text", "json"):
        argv = ("solve", fixture_path("diffusion-consistent"), "--mult-degree", "1", "--trials", "1", "--format", fmt)
        code, printed, _ = run_cli(capsys, *argv)
        path = tmp_path / f"report.{fmt}"
        assert run_cli(capsys, *argv, "--out", str(path)) == (code, "", "")
        assert path.read_bytes() == printed.encode("utf-8")
        assert ("\u039b" in printed) == (fmt == "text")  # the text report is not ASCII


def test_singular_generator_exit_code(capsys):
    code, _, err = run_cli(
        capsys, "solve", fixture_path("kdv-burgers"),
        "--mult-deps", "t,u[0]_t", "--mult-degree", "1",
    )
    assert code == 2
    assert "leading derivative" in err


def test_input_error_exit_code(tmp_path, capsys):
    missing = tmp_path / "none.prob"
    code, _, err = run_cli(capsys, "solve", str(missing))
    assert code == 2
    bad = tmp_path / "bad.prob"
    bad.write_text("independent = t, x\ndependent = u\norder = 1\nequation = u_t + w\nleading = u_t\n")
    code, _, err = run_cli(capsys, "solve", str(bad))
    assert code == 2
    # a file that cannot be read or decoded, and a report that cannot be written
    code, _, err = run_cli(capsys, "verify", str(tmp_path))
    assert code == 2 and err.startswith("error: ")
    undecodable = tmp_path / "latin1.prob"
    undecodable.write_bytes(b"name = caf\xe9\n")
    code, _, err = run_cli(capsys, "verify", str(undecodable))
    assert code == 2 and err.startswith(f"error: {undecodable}: ")
    code, out, err = run_cli(capsys, "verify", fixture_path("wave"), "--trials", "1",
                             "--out", str(tmp_path / "missing" / "x.txt"))
    assert code == 2 and out == "" and err.startswith("error: ")
    code, _, err = run_cli(capsys, "expand", fixture_path("wave"), "--expr", "1/(u+1)")
    assert code == 2 and err.startswith("error: ")
    code, _, err = run_cli(capsys, "expand", fixture_path("wave"), "--expr", "u", "--order", "4")
    assert code == 2 and err.startswith("error: ")
    # an ansatz on a leading derivative is singular on solutions
    code, _, err = run_cli(capsys, "solve", fixture_path("kdv-burgers"),
                           "--mult-deps", "u[0],u[0]_t", "--mult-degree", "1")
    assert code == 2 and "leading derivative of equation 1" in err
    # two equations solved for u_t, and a Laurent floor on x where x is no generator
    shared = tmp_path / "shared.prob"
    shared.write_text("independent = t, x\ndependent = u, v\norder = 1\nequation = u_t - u_xx - eps*v\n"
                      "leading = u_t\nequation = u_t - v_x\nleading = u_t\n")
    code, out, err = run_cli(capsys, "solve", str(shared), "--mult-degree", "1")
    assert code == 2 and out == "" and "equations 1 and 2: one leading derivative" in err
    code, out, err = run_cli(capsys, "solve", fixture_path("diffusion-consistent"),
                             "--mult-deps", "t,u[0]", "--mult-degree", "1", "--laurent", "x:-1")
    assert code == 2 and out == "" and "Laurent floor x:-1" in err
    # an ansatz error names the floor or generator as the flags write it
    for eid, flags, message in (
        ("diffusion-consistent", ("--mult-deps", "t,x", "--laurent", "u[0]:-1"),
         "the Laurent floor u[0]:-1 is not on an ansatz generator"),
        ("wave", ("--mult-deps", "t,f(u)"), "unsupported ansatz generator 'f(u)'"),
        ("wave", ("--mult-deps", "t,,x"), "'': unexpected end of input (at position 0)"),
        ("wave", ("--mult-deps", "t,x,u[1]"), "unsupported ansatz generator 'u[1]'"),
        # a Laurent item with no atom, and a generator floored twice
        ("diffusion-consistent", ("--laurent", ":-1"), "'': unexpected end of input (at position 0)"),
        ("diffusion-consistent", ("--laurent", "u[0]:-1,u[0]:-3"), "the Laurent floor on 'u[0]' is given twice"),
        ("diffusion-consistent", ("--laurent", "u:-1,u[0]:-2"),
         "the Laurent floors u:-1 and u[0]:-2 bound one generator"),
    ):
        code, out, err = run_cli(capsys, "solve", fixture_path(eid), *flags, "--mult-degree", "1")
        assert (code, out, err) == (2, "", f"error: {message}\n")
    # compare raises its ansatz error in its first solve, before any output
    code, out, err = run_cli(capsys, "compare", fixture_path("wave"), "--mult-deps", "t,f(u)", "--mult-degree", "1")
    assert (code, out, err) == (2, "", "error: unsupported ansatz generator 'f(u)'\n")
    # a declared name the parser could never read back
    bad_name = tmp_path / "bad-name.prob"
    bad_name.write_text("independent = t, x\ndependent = u\nparameters = a b\norder = 1\n"
                        "equation = u_t - u_xx\nleading = u_t\n")
    code, out, err = run_cli(capsys, "solve", str(bad_name))
    assert (code, out, err) == (2, "", f"error: {bad_name}:3: 'a b' is not a name: a letter, then letters and digits\n")


def test_options_no_command_reads_are_refused(capsys):
    # compare always runs all three methods, and expand makes no spot check
    for argv in (
        ["compare", fixture_path("wave"), "--method", "b"],
        ["expand", fixture_path("wave"), "--expr", "u", "--seed", "1"],
        ["expand", fixture_path("wave"), "--expr", "u", "--trials", "1"],
        ["expand", fixture_path("wave"), "--expr", "u", "--trials", "0"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        assert "unrecognized arguments: " + " ".join(argv[-2:]) in capsys.readouterr().err


def test_reconstruction_failure_exit_code(tmp_path, capsys, monkeypatch):
    toy = tmp_path / "toy.prob"
    toy.write_text(open(fixture_path("diffusion-consistent")).read())
    monkeypatch.setattr(fluxes, "MAX_ROUNDS", 0)
    code, out, _ = run_cli(
        capsys, "solve", str(toy), "--mult-deps", "t,x,u[0]", "--mult-degree", "2",
        "--format", "json", "--trials", "1",
    )
    assert code == 3
    data = json.loads(out)
    assert data["reconstruction_failures"]
    assert data["multipliers"]  # multipliers still emitted


def test_solve_text_reports_reconstruction_failure(tmp_path, capsys, monkeypatch):
    # f(u) u_x needs the order-1 flux jets that only an escalation reaches
    # (see test_fluxes::test_function_advection_flux_uses_time_weighting)
    advection = tmp_path / "advection.prob"
    advection.write_text("independent = t, x\ndependent = u\nfunctions = f(u)\norder = 1\n"
                         "equation = u_t - f(u)*u_x\nleading = u_t\n")
    monkeypatch.setattr(fluxes, "ESCALATIONS", 0)
    code, out, _ = run_cli(capsys, "solve", str(advection), "--mult-deps", "t,x", "--mult-degree", "0",
                           "--trials", "1")
    assert code == 3
    assert [line for line in out.splitlines() if "reconstruction failed" in line] == [
        f"  reconstruction failed for multiplier {i}: no flux over jets of order <= 0 for series slot {k}; "
        "the flux needs terms outside the generator set" for i, k in ((1, 0), (2, 1))]


def test_compare_text_reports_reconstruction_failure(capsys, monkeypatch):
    monkeypatch.setattr(fluxes, "MAX_ROUNDS", 0)
    code, out, _ = run_cli(
        capsys, "compare", fixture_path("diffusion-consistent"),
        "--mult-deps", "t,x,u[0]", "--mult-degree", "1", "--trials", "1",
    )
    assert code == 3
    failures = [line for line in out.splitlines() if "reconstruction failed" in line]
    assert failures == ["  reconstruction failed: no flux over jets of order <= 2 for series slot 0; "
                        "the flux needs terms outside the generator set"]


def test_json_expressions_roundtrip(capsys):
    # machine-style strings in the JSON report re-parse to equal normal forms
    code, out, _ = run_cli(
        capsys, "solve", fixture_path("diffusion-consistent"),
        "--mult-deps", "t,x,u[0]", "--mult-degree", "2", "--format", "json",
        "--trials", "1",
    )
    assert code == 0
    data = json.loads(out)
    pb = parse_problem_text(open(fixture_path("diffusion-consistent")).read()).problem
    from approxlaws.fluxes import ConservationLaw, identity_residuals
    from approxlaws.multipliers import MultiplierSet
    from test_verify import law_slots

    P = lambda s: normalize(parse(s, pb.table))
    laws = {law["multiplier_index"]: law for law in data["laws"]}
    for m in data["multipliers"]:
        slots = tuple(tuple(P(s) for s in comp["slots"]) for comp in m["components"])
        mult = MultiplierSet("consistent", slots)
        law = laws[m["index"]]
        fluxes = tuple(tuple(P(s) for s in law["fluxes"][var]) for var in ("t", "x"))
        rebuilt = ConservationLaw(mult, fluxes)
        assert all(r.is_zero() for r in identity_residuals(*law_slots(pb, rebuilt)))


def test_run_config_validation(capsys):
    from approxlaws.cli import build_parser

    for flags in (["--order", "0"], ["--mult-degree", "-1"], ["--trials", "100000000"]):
        code, _, err = run_cli(capsys, "solve", fixture_path("wave"), *flags)
        assert code == 2 and err.startswith("error: ")
    args = build_parser().parse_args(["solve", fixture_path("wave")])
    assert args.seed == 2023 and args.format == "text"


def test_byte_identical_reports(tmp_path):
    cmds = [
        ["solve", fixture_path("diffusion-consistent"), "--mult-deps", "t,x,u[0]",
         "--mult-degree", "2", "--format", "json", "--trials", "2"],
        ["expand", fixture_path("wave"), "--expr", "u^-1", "--format", "json"],
        ["audit", "diffusion-approach-b", "--format", "json", "--trials", "1"],
    ]
    for cmd in cmds:
        outs = []
        for _ in range(2):
            res = subprocess.run(
                [sys.executable, "-m", "approxlaws.cli", *cmd],
                capture_output=True, check=False,
            )
            outs.append(res.stdout)
        assert outs[0] == outs[1] and outs[0]


@pytest.mark.parametrize(
    "old, new",
    [
        ("epsilon_shifts = 1, 2", "epsilon_shifts = 9"),
        ("epsilon_shifts = 1, 2", "epsilon_shifts = 1.0"),
        ("method = consistent", "method = approach_b"),
        ("order = 1", "order = two"),
        ("multiplier.1.0 = 1", "multiplier.one.0 = 1"),
        ("flux.1.t.0 = u[0]", "flux.1.t.zero = u[0]"),
        ("expected.1.status", "expected.one.status"),
        ("equation = u_t - u^-2*u_xx", "equation = u_t - 1/(u+1) - u^-2*u_xx"),
        ("dependent = u", "dependent = u, u"),
        ("independent = t, x", "independent = t, eps"),
        ("name = diffusion-consistent", "functions = f(v)"),
        ("multiplier.1.0 = 1", "multiplier.1.0 = eps"),
        ("multiplier.1.0 = 1", "multiplier.1.0 = u"),
        ("multiplier.1.1 = 0", "multiplier.1.9 = 1"),
        ("flux.1.t.1 = u[1]", "flux.1.t.9 = u[1]"),
        ("order = 1", "order = 7"),
        ("equation = u_t - u^-2*u_xx", "equation = -u^-2*u_xx"),
        ("equation = u_t - u^-2*u_xx", "equation = u_t - eps^-1*u - u^-2*u_xx"),
        ("equation = u_t - u^-2*u_xx", "functions = f(u)\nequation = u_t + f(u[0])*u_x - u^-2*u_xx"),
        ("multiplier.1.1 = 0", "multiplier.1.1 = 0\nmultiplier.1.1 = 1"),
        ("expected.2.status = identity", "expected.2.status = identity\nexpected.3.status = identity"),
        ("epsilon_shifts = 1, 2", "epsilon_shifts = 1, 1"),
    ],
)
def test_malformed_problem_file_exit_code(tmp_path, capsys, old, new):
    # malformed problem files are input errors (exit 2), never tracebacks
    bad = tmp_path / "bad.prob"
    text = open(fixture_path("diffusion-consistent")).read()
    assert old in text
    bad.write_text(text.replace(old, new))
    code, _, err = run_cli(capsys, "verify", str(bad), "--trials", "1")
    assert code == 2
    assert err.startswith("error: ")
    assert str(bad) in err


def test_order_violating_consistent_multiplier_is_an_input_error(tmp_path, capsys):
    # multiplier slot k of the consistent method holds coordinates of order <= k only
    text = open(fixture_path("diffusion-consistent")).read()
    bad = tmp_path / "bad.prob"
    bad.write_text(text.replace("multiplier.1.0 = 1\n", "multiplier.1.0 = u[1]\n"))
    code, out, err = run_cli(capsys, "verify", str(bad), "--trials", "1")
    assert code == 2 and out == ""
    assert err == f"error: {bad}: law 1: slot 0 contains a perturbation-order-1 coordinate\n"


def test_misspelt_hint_is_an_input_error(tmp_path, capsys):
    # a hint key outside the four the format defines is refused, not dropped
    text = open(fixture_path("diffusion-consistent")).read()
    lineno = text.splitlines().index("hint.mult_degree = 2") + 1
    bad = tmp_path / "bad.prob"
    bad.write_text(text.replace("hint.mult_degree = 2", "hint.mult_degre = 2"))
    ansatz = ["--mult-deps", "t,x,u[0]", "--mult-degree", "1", "--trials", "1"]
    for argv in (["verify", str(bad), "--trials", "1"], ["solve", str(bad), *ansatz]):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith(f"error: {bad}:{lineno}: unknown hint 'hint.mult_degre'"), err


def test_fixture_values_parsed_only_where_laws_are_built(tmp_path, capsys):
    # solve, compare and expand never read a law's values; verify does
    text = open(fixture_path("diffusion-consistent")).read()
    lineno = text.splitlines().index("flux.1.t.0 = u[0]") + 1
    clean, bad = tmp_path / "clean.prob", tmp_path / "bad.prob"
    clean.write_text(text)
    bad.write_text(text.replace("flux.1.t.0 = u[0]", "flux.1.t.0 = u[0] +"))
    ansatz = ["--mult-deps", "t,x,u[0]", "--mult-degree", "1", "--trials", "1"]
    for argv in (["solve", *ansatz], ["compare", *ansatz], ["expand", "--expr", "u^-1"]):
        outs = []
        for path in (clean, bad):
            code, out, err = run_cli(capsys, argv[0], str(path), *argv[1:])
            assert code == 0 and err == "", (argv, err)
            outs.append(out)
        assert outs[0] == outs[1] and outs[0], argv
    code, _, err = run_cli(capsys, "verify", str(bad), "--trials", "1")
    assert code == 2
    assert err.startswith(f"error: {bad}:{lineno}: ")


@pytest.mark.parametrize(
    "flags",
    [
        ["--laurent", "u[0]:x"],
        ["--mult-deps", "t,2*x"],
        ["--mult-deps", "1/(u+1)"],
        ["--mult-deps", "x/0"],
        ["--laurent", "1/(u+1):-1"],
        ["--laurent", "u[0]:3"],
    ],
)
def test_malformed_ansatz_flags_exit_code(capsys, flags):
    code, _, err = run_cli(capsys, "solve", fixture_path("diffusion-consistent"), *flags,
                           "--mult-degree", "1", "--trials", "1")
    assert code == 2
    assert err.startswith("error: ")


def test_laurent_floor_below_the_degree_bound(capsys):
    # exponents below -degree cannot occur, so a far lower floor gives the
    # same basis, found without walking the range down to the floor
    solve = ["solve", fixture_path("kdv-burgers"), "--mult-degree", "1", "--trials", "1"]
    far = run_cli(capsys, *solve, "--laurent", "u[0]:-1000000000")
    near = run_cli(capsys, *solve, "--laurent", "u[0]:-1")
    assert far == near and far[0] == 0


# a product of 17 two-term sums of distinct jets expands to 2^17 terms
_JET_SUM_PRODUCT = (
    "(u+u_t)*(u_x+u_tt)*(u_tx+u_xx)*(u_ttt+u_ttx)*(u_txx+u_xxx)*(u_tttt+u_tttx)"
    "*(u_ttxx+u_txxx)*(u_xxxx+u_ttttt)*(u_ttttx+u_tttxx)*(u_ttxxx+u_txxxx)"
    "*(u_xxxxx+u_tttttt)*(u_tttttx+u_ttttxx)*(u_tttxxx+u_ttxxxx)*(u_txxxxx+u_xxxxxx)"
    "*(u_ttttttt+u_ttttttx)*(u_tttttxx+u_ttttxxx)*(u_tttxxxx+u_ttxxxxx)"
)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["solve", fixture_path("wave"), "--mult-deps", "u +"],
         "error: 'u +': unexpected end of input (at position 3)\n"),
        (["solve", fixture_path("kdv-burgers"), "--mult-deps", "x/0"],
         "error: 'x/0': division by zero\n"),
        (["expand", fixture_path("wave"), "--expr", "(" * 3000 + "u" + ")" * 3000],
         "error: expression nested too deeply\n"),
        (["expand", fixture_path("wave"), "--expr", "u^7^7^7"],
         "error: exponent tower exceeds 1000 (at position 5)\n"),
        (["expand", fixture_path("wave"), "--expr", "(u+u_x+u_xx)^200"],
         "error: power exceeds 1000 terms (at position 12)\n"),
        (["expand", fixture_path("wave"), "--expr", _JET_SUM_PRODUCT],
         "error: product exceeds 1000 terms (at position 125)\n"),
        # literals past the interpreter's 4,300-digit integer-string limit
        (["expand", fixture_path("wave"), "--expr", "u^" + "9" * 5000],
         "error: integer literal of 5000 digits is too long (at position 2)\n"),
        (["expand", fixture_path("wave"), "--expr", "9" * 5000 + "*u_x"],
         "error: integer literal of 5000 digits is too long (at position 0)\n"),
        # coefficients past parser.MAX_DIGITS, refused before the kernel
        # expands a power, once a product is formed, or once the sum is parsed
        (["expand", fixture_path("wave"), "--expr", "9" * 3000 + "^2*u"],
         "error: coefficient exceeds 4000 digits (at position 3000)\n"),
        (["expand", fixture_path("wave"), "--expr", "(" + "9" * 1000 + "*u)^999"],
         "error: coefficient exceeds 4000 digits (at position 1004)\n"),
        (["expand", fixture_path("wave"), "--expr", "9" * 3000 + "*" + "9" * 3000 + "*u"],
         "error: coefficient exceeds 4000 digits (at position 3000)\n"),
        (["expand", fixture_path("wave"), "--expr", "u/2^7000 + u/3^5000"],
         "error: coefficient exceeds 4000 digits\n"),
        (["expand", fixture_path("wave"), "--expr", "(10^3000)*(10^3000)*u"],
         "error: coefficient exceeds 4000 digits (at position 9)\n"),
        # refused at its first product, however long the chain
        (["expand", fixture_path("wave"), "--expr", "*".join(["9" * 3999] * 200) + "*u"],
         "error: coefficient exceeds 4000 digits (at position 3999)\n"),
        # an ansatz past multipliers.MAX_UNKNOWNS is refused as soon as its basis passes the bound
        (["solve", fixture_path("kaup-newell"), "--mult-deps", "t,x,u[0],v[0],u[0]_x,v[0]_x,u[0]_xx,v[0]_xx",
          "--mult-degree", "40"],
         "error: the ansatz has more than 50000 unknowns (basis size x equations x series slots); "
         "lower its degree or drop generators\n"),
    ],
    ids=["end-of-input", "division-by-zero", "deep-nesting", "exponent-tower", "large-power",
         "large-product", "long-exponent", "long-coefficient", "huge-power-coefficient",
         "huge-power-of-product", "huge-product-coefficient", "huge-sum-coefficient",
         "huge-parenthesized-product", "long-huge-product", "oversized-ansatz"],
)
def test_parser_input_errors(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (2, "", message)


def test_product_whose_fractions_cancel(capsys):
    code, out, err = run_cli(capsys, "expand", fixture_path("wave"), "--expr", "10^3000/3/10^3000*u")
    assert (code, err) == (0, "")
    assert "total: u₀/3 + ε*u₁/3" in out


METHOD_FLAGS = {"consistent": "consistent", "approach_a": "a", "approach_b": "b"}


@pytest.mark.parametrize("eid", corpus.ENTRY_IDS)
def test_solved_laws_round_trip_through_a_problem_file(tmp_path, capsys, eid):
    # the laws solve prints from the hint ansatz (degree capped at 1), written
    # as law lines under the entry's own declarations, verify to the statuses
    # solve reported: what the printer writes, the parser reads back as the
    # same law
    path = fixture_path(eid)
    pf = load_problem_file(path)
    argv = ["solve", path, "--method", METHOD_FLAGS[pf.method], "--format", "json", "--trials", "1",
            *hint_flags(pf.hints), "--mult-degree", "1"]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    solved = json.loads(out)
    assert solved["laws"]
    law_keys = ("multiplier.", "flux.", "expected.", "epsilon_shifts")
    lines = [line for line in open(path).read().splitlines() if not line.startswith(law_keys)]
    components = {m["index"]: m["components"] for m in solved["multipliers"]}
    statuses = {}
    for law in solved["laws"]:
        n = law["multiplier_index"]
        for comp in components[n]:
            nu = f".{comp['equation']}" if len(components[n]) > 1 else ""
            lines += [f"multiplier.{n}{nu}.{k} = {s}" for k, s in enumerate(comp["slots"])]
        for var, slots in law["fluxes"].items():
            lines += [f"flux.{n}.{var}.{k} = {s}" for k, s in enumerate(slots)]
        statuses[str(n)] = law["verification"]["status"]
        lines.append(f"expected.{n}.status = {statuses[str(n)]}")
    written = tmp_path / f"{eid}.prob"
    written.write_text("\n".join(lines) + "\n")
    code, out, _ = run_cli(capsys, "verify", str(written), "--format", "json", "--trials", "1")
    assert code == 0
    assert {law["label"]: law["achieved"] for law in json.loads(out)["laws"]} == statuses


@pytest.mark.parametrize("eid", corpus.ENTRY_IDS)
def test_audit_and_verify_agree_law_by_law(capsys, eid):
    # audit is verify's loop over the corpus: the same laws achieve the same status
    flags = ("--format", "json", "--trials", "1", "--seed", "7")
    _, audited, _ = run_cli(capsys, "audit", eid, *flags)
    _, verified, _ = run_cli(capsys, "verify", fixture_path(eid), *flags)
    assert ([(row["law"], row["achieved"]) for row in json.loads(audited)["entries"][eid]]
            == [(law["label"], law["achieved"]) for law in json.loads(verified)["laws"]])


ON_SOLUTION_LAW = ("independent = t, x\ndependent = u\norder = 1\nequation = {}\nleading = u_t\n"
                   "multiplier.1.0 = 0\nflux.1.x.0 = {}\n")


def test_an_on_solution_reduction_outside_the_normal_forms_is_a_failed_check(tmp_path, capsys):
    # the divergence holds u[0]_t^-2, and u[0]_t's image u[0]_xx + u[0]_x is a sum
    bad = tmp_path / "bad.prob"
    bad.write_text(ON_SOLUTION_LAW.format("u_t - u_xx - u_x", "u[0]_t^-1"))
    code, out, err = run_cli(capsys, "verify", str(bad), "--format", "json", "--trials", "1")
    assert (code, err) == (4, "")
    assert [law["achieved"] for law in json.loads(out)["laws"]] == ["fail"]


@pytest.mark.parametrize("equation, flux", [
    pytest.param("u_t - u_xx - u_x - u", "u[0]_t^1000", id="u[0]_t^1000"),
    pytest.param("u_t - u_xx - u_x - u", "u[0]_t^40*u[0]_tx^40", id="u[0]_t^40*u[0]_tx^40"),
    pytest.param("u_t - 10^3999*u_xx", "u[0]_t^1000*u[0]_tx^1000", id="10^3999*u_xx"),
])
def test_an_on_solution_reduction_past_the_term_bound_ends(tmp_path, equation, flux):
    # expanding (u_xx + u_x + u)^999, or 861 terms each to the 40th, would run
    # for minutes, and so would raising 10^3999 to the 999th, one term with a
    # coefficient of millions of digits: the substitution is bounded first, in
    # terms and in digits, and refused.  In a process, so that a hang fails
    # this test instead of stalling the suite
    bad = tmp_path / "bad.prob"
    bad.write_text(ON_SOLUTION_LAW.format(equation, flux))
    res = subprocess.run([sys.executable, "-m", "approxlaws.cli", "verify", str(bad), "--trials", "1"],
                         capture_output=True, check=False, timeout=20)
    assert (res.returncode, res.stderr) == (4, b"")
    assert b"achieved=fail" in res.stdout
