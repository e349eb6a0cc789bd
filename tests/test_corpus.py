"""Corpus fixtures: loading, completeness, and the audit."""

import json

import pytest

from approxlaws import corpus, normalize, parse
from approxlaws.cli import build_parser, main
from approxlaws.expr import negate
from approxlaws.multipliers import parse_ansatz
from approxlaws.problem import ProblemError, parse_problem_text


def test_entry_ids_complete():
    assert corpus.ENTRY_IDS == [
        "diffusion-consistent",
        "diffusion-approach-a",
        "diffusion-approach-b",
        "kdv-burgers",
        "wave",
        "nls2",
        "nls3",
        "kaup-newell",
    ]
    for eid in corpus.ENTRY_IDS:
        entry = corpus.load(eid)
        assert entry.problem.p == 1
        assert entry.laws


def test_unknown_id():
    with pytest.raises(KeyError):
        corpus.load("heat")


def test_diffusion_consistent_contents():
    entry = corpus.load("diffusion-consistent")
    tab = entry.problem.table
    P = lambda s: normalize(parse(s, tab))
    laws = {cl.label: cl.law for cl in entry.laws}
    assert laws["1"].mult.slots[0][0] == P("1")
    assert laws["2"].mult.slots[0] == (P("x"), P("t + x^2/2"))
    # the eps-shift family is expanded at load time
    assert laws["1*eps"].mult.slots[0] == (P("0"), P("1"))
    assert entry.ansatz_hint is not None and entry.ansatz_hint.degree == 2


def test_law_counts_match_published_families():
    counts = {
        "diffusion-consistent": 2 + 2,
        "diffusion-approach-a": 2 + 2,
        "diffusion-approach-b": 4,
        "kdv-burgers": 4 + 3,
        "wave": 3 + 3,
        "nls2": 4 + 4,
        "nls3": 4 + 4,
        "kaup-newell": 6 + 6,
    }
    for eid, n in counts.items():
        assert len(corpus.load(eid).laws) == n, eid


def test_nls2_rotation_convention():
    # stored pairs are the i-rotation of the published component pairs; the
    # published law 3 pair is (v, -u), stored as (u, v)
    entry = corpus.load("nls2")
    tab = entry.problem.table
    P = lambda s: normalize(parse(s, tab))
    law3 = next(cl.law for cl in entry.laws if cl.label == "3")
    assert law3.mult.slots[0] == (P("u[0]"), P("u[1]"))
    assert law3.mult.slots[1] == (P("v[0]"), P("v[1]"))
    published = ((P("v[0]"), P("v[1]")), (P("-u[0]"), P("-u[1]")))
    rotated = (tuple(negate(s) for s in published[1]), published[0])
    assert law3.mult.slots == rotated


def test_kaup_newell_unit_multipliers_verbatim():
    entry = corpus.load("kaup-newell")
    tab = entry.problem.table
    P = lambda s: normalize(parse(s, tab))
    law5 = next(cl.law for cl in entry.laws if cl.label == "5")
    assert law5.mult.slots[0][0] == P("1") and law5.mult.slots[1][0].is_zero()
    law6 = next(cl.law for cl in entry.laws if cl.label == "6")
    assert law6.mult.slots[0][0].is_zero() and law6.mult.slots[1][0] == P("1")


def test_nls3_records_third_order_note():
    entry = corpus.load("nls3")
    assert any("trivial" in n for n in entry.notes)


def audit_rows(capsys, *entries, trials):
    """The (entry id, row) pairs of the JSON report of ``audit`` over ``entries``."""
    main(["audit", *entries, "--trials", str(trials), "--format", "json"])
    report = json.loads(capsys.readouterr().out)
    return [(eid, row) for eid, rows in report["entries"].items() for row in rows]


def test_audit_all_entries_certify(capsys):
    audits = audit_rows(capsys, trials=1)
    assert len(audits) == 53
    for eid, row in audits:
        assert row["certified"], (eid, row["law"])
        assert row["achieved"] == row["expected"], (eid, row["law"], row["achieved"])
    # the only non-identity outcome is the documented KdV factor-2 erratum
    non_identity = [(eid, row["law"]) for eid, row in audits if row["achieved"] != "identity"]
    assert non_identity == [("kdv-burgers", "4")]


def test_audit_stable_under_reruns(capsys):
    a = [(eid, row["law"], row["achieved"]) for eid, row in audit_rows(capsys, "wave", trials=2)]
    b = [(eid, row["law"], row["achieved"]) for eid, row in audit_rows(capsys, "wave", trials=2)]
    assert a == b


def test_corrupted_fixture_flagged():
    text = corpus._entry_text("diffusion-consistent")
    bad = text.replace("flux.1.t.0 = u[0]", "flux.1.t.0 = u[0] + u[0]^3")
    pf = parse_problem_text(bad, source="corrupted")
    law = corpus._law_from_expected(pf.problem, pf.method, pf.expected[0])
    from approxlaws.verify import full_report

    fr = full_report(pf.problem, law, trials=1)
    assert fr["status"] == "fail"


def test_load_raises_on_a_malformed_fixture_value(monkeypatch):
    text = corpus._entry_text("diffusion-consistent")
    lineno = text.splitlines().index("flux.1.t.0 = u[0]") + 1
    bad = text.replace("flux.1.t.0 = u[0]", "flux.1.t.0 = u[0] +")
    monkeypatch.setattr(corpus, "_entry_text", lambda entry_id: bad)
    with pytest.raises(ProblemError, match=f"^diffusion-consistent:{lineno}: "):
        corpus.load("diffusion-consistent")


@pytest.mark.parametrize("hint_line, flags", [
    ("hint.mult_deps = x, u[0]", ["--mult-deps", "x, u[0]"]),
    ("hint.mult_degree = 1", ["--mult-degree", "1"]),
], ids=["mult_deps-only", "mult_degree-only"])
def test_a_missing_hint_key_reads_as_its_cli_default(monkeypatch, hint_line, flags):
    # load reads a file's hint.* keys as the CLI reads the same keys written
    # as flags: a key the file omits means that flag's default
    lines = [line for line in corpus._entry_text("diffusion-consistent").splitlines()
             if not line.startswith("hint.")]
    monkeypatch.setattr(corpus, "_entry_text", lambda entry_id: "\n".join(lines + [hint_line]) + "\n")
    entry = corpus.load("diffusion-consistent")
    args = build_parser().parse_args(["solve", "in.prob", *flags])
    cli = parse_ansatz(entry.problem.table, args.mult_deps, args.mult_degree, args.mult_xdegree, args.laurent)
    hint = entry.ansatz_hint
    assert hint is not None
    assert (hint.generators, hint.degree, hint.xdegree, hint.laurent) == \
        (cli.generators, cli.degree, cli.xdegree, cli.laurent)
