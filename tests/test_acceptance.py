"""Acceptance criteria, one test per criterion.

All tolerances are exact (normal-form zero / exact rational equality); the
stated runtime limits are asserted.  Each test prints one pass line; a
failing assertion is the fail line.
"""

import json
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from approxlaws import (
    Jet,
    euler,
    expand_epsilon,
    normalize,
    parse,
    total_derivative,
)
from approxlaws import corpus
from approxlaws.expr import NormalForm, as_poly
from approxlaws.fluxes import ConservationLaw, equivalent, reconstruct
from approxlaws.linalg import in_span
from approxlaws.multipliers import (
    AnsatzSpec,
    MultiplierSet,
    contraction,
    euler_residuals,
    solve_multipliers,
)
from approxlaws.verify import spot_check, verify_euler, verify_identity

from conftest import coefficient_vector, expand_epsilon_substitution
from test_corpus import audit_rows
from test_multipliers import span_of_vectors
from test_properties import TABLE, rand_poly
from test_verify import law_slots


def _gens(problem, names):
    out = []
    for n in names:
        nf = normalize(parse(n, problem.table))
        out.append(list(nf.terms())[0][1][0][0])
    return tuple(out)


def _published(problem, texts):
    tab = problem.table
    P = lambda s: normalize(parse(s, tab))
    per_eq = len(texts) // problem.q
    rows = []
    for nu in range(problem.q):
        rows.append(tuple(P(s) for s in texts[nu * per_eq : (nu + 1) * per_eq]))
    return MultiplierSet("consistent", tuple(rows))


def test_criterion_1_diffusion_consistent():
    t0 = time.monotonic()
    entry = corpus.load("diffusion-consistent")
    pb = entry.problem
    spec = AnsatzSpec(_gens(pb, ["t", "x", "u[0]"]), 2)
    res = solve_multipliers(pb, spec, "consistent")
    tab = pb.table
    P = lambda s: normalize(parse(s, tab))

    # the non-trivial space is exactly span{1, x + eps(t + x^2/2)} mod shifts,
    # and the canonical basis reproduces the published multipliers verbatim
    assert len(res.basis) == 4
    nontrivial = [cm for cm in res.classified if not cm.trivial]
    assert [cm.mult.slots for cm in nontrivial] == [
        ((P("1"), P("0")),),
        ((P("x"), P("t + x^2/2")),),
    ]
    shifts = [cm for cm in res.classified if cm.trivial]
    assert all(cm.eps_shift for cm in shifts) and len(shifts) == 2

    published_vecs = []
    for texts in (["1", "0"], ["x", "t + x^2/2"], ["0", "1"], ["0", "x"]):
        vec = coefficient_vector(_published(pb, texts), res.ansatz)
        assert vec is not None and span_of_vectors(res.basis, vec) is not None
        published_vecs.append(vec)
    for vec in res.basis:
        assert span_of_vectors(published_vecs, vec) is not None

    # reconstructed fluxes are equivalent to the published ones
    corpus_laws = {cl.label: cl.law for cl in entry.laws}
    for idx, cm in enumerate(nontrivial, 1):
        law = reconstruct(pb, cm.mult)
        assert equivalent(law, corpus_laws[str(idx)], pb) == "equivalent"

    elapsed = time.monotonic() - t0
    assert elapsed < 10
    print(f"\nPASS criterion 1 (diffusion consistent, {elapsed:.2f}s < 10s)")


def test_criterion_2_diffusion_compare():
    t0 = time.monotonic()
    entry = corpus.load("diffusion-consistent")
    pb = entry.problem
    tab = pb.table
    P = lambda s: normalize(parse(s, tab))
    spec = AnsatzSpec(_gens(pb, ["t", "x", "u[0]"]), 2)

    res_a = solve_multipliers(pb, spec, "approach_a")
    nontrivial = [cm for cm in res_a.classified if not cm.trivial]
    assert [cm.mult.slots for cm in nontrivial] == [
        ((P("1"), P("0")),),
        ((P("x"), P("t + x^2/2")),),
    ]

    res_b = solve_multipliers(pb, spec, "approach_b")
    assert len(res_b.basis) == 4
    assert sum(1 for cm in res_b.classified if not cm.trivial) == 4
    published_b = [
        ["t + x^2/2", "x"],
        ["x", "0"],
        ["1", "0"],
        ["0", "1"],
    ]
    vecs = []
    for texts in published_b:
        m = MultiplierSet("approach_b", ((P(texts[0]), P(texts[1])),))
        vec = coefficient_vector(m, res_b.ansatz)
        assert vec is not None and span_of_vectors(res_b.basis, vec) is not None
        vecs.append(vec)
    for vec in res_b.basis:
        assert span_of_vectors(vecs, vec) is not None

    # compare mode itself emits the three blocks side by side
    from importlib import resources

    from approxlaws.cli import build_parser, run_compare

    args = build_parser().parse_args([
        "compare",
        str(resources.files("approxlaws.corpus").joinpath("data", "diffusion-consistent.prob")),
        "--mult-deps", "t,x,u[0]",
        "--mult-degree", "2",
        "--format", "json",
        "--trials", "1",
    ])
    report, code = run_compare(args)
    assert code == 0
    assert report["blocks"]["approach_a"]["nontrivial"] == 2
    assert report["blocks"]["approach_b"]["nontrivial"] == 4
    combined_a = {
        m["components"][0]["combined"]
        for m in report["blocks"]["approach_a"]["multipliers"]
        if not m["trivial"]
    }
    assert combined_a == {"1", "x + eps*(t + x^2/2)"}
    slots_b = {
        tuple(m["components"][0]["slots"])
        for m in report["blocks"]["approach_b"]["multipliers"]
    }
    assert slots_b == {("t + x^2/2", "x"), ("x", "0"), ("1", "0"), ("0", "1")}
    assert report["expansion_notes"] and all(
        note["fluxes_are_expansion"] for note in report["expansion_notes"]
    )

    elapsed = time.monotonic() - t0
    assert elapsed < 30
    print(f"\nPASS criterion 2 (diffusion approaches A and B, {elapsed:.2f}s < 30s)")


def test_criterion_3_kdv_burgers():
    t0 = time.monotonic()
    entry = corpus.load("kdv-burgers")
    pb = entry.problem
    laws = {cl.label: cl.law for cl in entry.laws}

    # all four published multipliers pass the Euler conditions
    for label in ("1", "2", "3", "4"):
        assert verify_euler(euler_residuals(pb, laws[label].mult.method, contraction(pb, laws[label].mult))).passed, label

    spec = AnsatzSpec(_gens(pb, ["t", "x", "u[0]", "u[0]_x", "u[0]_xx"]), 3)
    res = solve_multipliers(pb, spec, "consistent")
    for label in ("1", "2", "3", "4"):
        vec = coefficient_vector(laws[label].mult, res.ansatz)
        assert vec is not None, label
        assert span_of_vectors(res.basis, vec) is not None, label

    # reconstructed fluxes are equivalent to the published ones; the published
    # law 4 fluxes carry a documented factor-2 erratum (their divergence is
    # twice the contraction), so the comparison is at the corrected scale and
    # the raw pair is checked for linear dependence instead
    for label in ("1", "2", "3"):
        mine = reconstruct(pb, laws[label].mult)
        assert equivalent(mine, laws[label], pb) == "equivalent", label
    mine4 = reconstruct(pb, laws["4"].mult)
    half = ConservationLaw(
        laws["4"].mult,
        tuple(tuple(Fraction(1, 2) * s for s in row) for row in laws["4"].fluxes),
    )
    assert equivalent(mine4, half, pb) == "equivalent"
    combo = ConservationLaw(
        laws["4"].mult,
        tuple(
            tuple(a - Fraction(1, 2) * b for a, b in zip(ra, rb))
            for ra, rb in zip(mine4.fluxes, laws["4"].fluxes)
        ),
    )
    assert all(d.is_zero() for d in combo.divergence_slots())

    elapsed = time.monotonic() - t0
    assert elapsed < 120
    print(f"\nPASS criterion 3 (KdV-Burgers, {elapsed:.2f}s < 120s)")


def test_criterion_4_wave():
    entry = corpus.load("wave")
    pb = entry.problem
    for cl in entry.laws:
        assert verify_euler(euler_residuals(pb, cl.law.mult.method, contraction(pb, cl.law.mult))).passed, cl.label
        rep = verify_identity(*law_slots(pb, cl.law))
        assert rep.passed, cl.label  # identically in c, lambda and f
    print("\nPASS criterion 4 (wave equation, identities exact in c, lambda, f)")


def test_criterion_5_schroedinger_and_kaup_newell(capsys):
    t0 = time.monotonic()
    audits = audit_rows(capsys, "nls2", "nls3", "kaup-newell", trials=2)
    errata = []
    for eid, row in audits:
        assert row["certified"], (eid, row["law"])
        assert row["achieved"] == row["expected"], (eid, row["law"])
        if row["achieved"] != "identity":
            errata.append((eid, row["law"], row["achieved"]))
    # the errata ledger for these entries is empty (all typeset defects were
    # resolved to exact identities, documented in the fixtures)
    assert errata == []
    elapsed = time.monotonic() - t0
    assert elapsed < 300
    print(f"\nPASS criterion 5 (NLS2/NLS3/Kaup-Newell audit, {elapsed:.2f}s < 300s)")


def test_criterion_6_eps_shift_in_solution_space():
    for eid in corpus.ENTRY_IDS:
        entry = corpus.load(eid)
        if entry.method == "approach_b":
            continue
        for cl in entry.laws:
            shifted = cl.law.mult.eps_shifted()
            assert verify_euler(euler_residuals(entry.problem, shifted.method, contraction(entry.problem, shifted))).passed, (eid, cl.label)
    # explicit nullspace membership where the solver bounds admit the shift
    for eid, gens, deg in (
        ("diffusion-consistent", ["t", "x", "u[0]"], 2),
        ("kdv-burgers", ["t", "x", "u[0]", "u[0]_x", "u[0]_xx"], 3),
    ):
        entry = corpus.load(eid)
        pb = entry.problem
        res = solve_multipliers(pb, AnsatzSpec(_gens(pb, gens), deg), "consistent")
        for cl in entry.laws:
            shifted = cl.law.mult.eps_shifted()
            if all(s.is_zero() for row in shifted.slots for s in row):
                continue
            vec = coefficient_vector(shifted, res.ansatz)
            assert vec is not None, (eid, cl.label)
            assert span_of_vectors(res.basis, vec) is not None, (eid, cl.label)
    print("\nPASS criterion 6 (eps-shifted multipliers stay in the solution space)")


def _coefficients(mult):
    return {(nu, k, mono): c
            for nu, row in enumerate(mult.slots)
            for k, slot in enumerate(row)
            for mono, c in as_poly(slot).items()}


def _hint_span(eid):
    """Solve an entry from its hint ansatz; return the entry, the solution
    and a span check: the coordinates of a multiplier set over the solved
    basis, or None."""
    entry = corpus.load(eid)
    res = solve_multipliers(entry.problem, entry.ansatz_hint, entry.method)
    members = [_coefficients(cm.mult) for cm in res.classified]
    return entry, res, lambda mult: in_span(members, _coefficients(mult))


@pytest.mark.parametrize("eid, dimension", [("nls2", 8), ("kaup-newell", 12)])
def test_criterion_6b_heavy_entries_rediscovered_from_hints(eid, dimension):
    # every published law and its eps-shift lies in the space solved from
    # the hint ansatz at full degree
    entry, res, coordinates = _hint_span(eid)
    assert len(res.basis) == dimension
    for cl in entry.laws:
        assert coordinates(cl.law.mult) is not None, (eid, cl.label)
        assert coordinates(cl.law.mult.eps_shifted()) is not None, (eid, cl.label)
    print(f"\nPASS criterion 6b ({eid} from its hint: dimension {dimension}, every law and shift)")


def test_criterion_6c_nls3_from_hint_and_the_parameter_gap():
    entry, res, coordinates = _hint_span("nls3")
    assert len(res.basis) == 5
    laws = {cl.label: cl.law.mult for cl in entry.laws}
    assert sorted(laws) == ["1", "1*eps", "2", "2*eps", "3", "3*eps", "4", "4*eps"]
    for label in ("1*eps", "2*eps", "3*eps", "4*eps"):
        assert coordinates(laws[label]) is not None, label
    # Known gap, not a pass: nls3 laws 1-4 (b1-b3 in their order-1 slots)
    # and wave law 3 (c^2 t u_x) have coefficients polynomial in the
    # parameters, which an ansatz with rational coefficients cannot hold.
    # A parameter-aware ansatz closes the gap; this pin then fails and goes.
    for label in ("1", "2", "3", "4"):
        assert coefficient_vector(laws[label], res.ansatz) is None, label
    wave, res_w, _ = _hint_span("wave")
    gap = [cl for cl in wave.laws if cl.label in ("3", "3*eps")]
    assert len(gap) == 2
    for cl in gap:
        assert coefficient_vector(cl.law.mult, res_w.ansatz) is None, cl.label
    print("\nPASS criterion 6c (nls3 from its hint: dimension 5 and the four shifts; gap pinned)")


def test_criterion_7a_euler_annihilates_200_divergences():
    rng = random.Random(202)
    for name, expanded in (("consistent", True), ("unexpanded", False), ("per-order", True)):
        for trial in range(200):
            pt = rand_poly(rng, tagged=expanded)
            px = rand_poly(rng, tagged=expanded)
            dv = total_derivative(pt, 0) + total_derivative(px, 1)
            alpha = trial % 2
            order = {"consistent": 0, "unexpanded": None}.get(name, alpha)
            assert euler(dv, Jet(alpha, order, ())).is_zero(), (name, trial)
    print("\nPASS criterion 7a (3 x 200 random divergences annihilated)")


def test_criterion_7b_recursion_equals_substitution_200():
    rng = random.Random(203)
    u = TABLE.jet("u")
    for trial in range(200):
        e = rand_poly(rng, tagged=False, laurent_atoms=(u,))
        if trial % 4 == 0:
            e = e + normalize(TABLE.eps) * rand_poly(rng, tagged=False, with_func=False)
        p = 1 + trial % 2
        rec = expand_epsilon(e, p)
        sub = expand_epsilon_substitution(e, p)
        assert rec == sub, trial
    print("\nPASS criterion 7b (200 recursion-vs-substitution expansions, p in {1,2})")


def test_criterion_7c_total_derivatives_commute_200():
    rng = random.Random(204)
    for trial in range(200):
        e = rand_poly(rng, laurent_atoms=(TABLE.jet("u", 0),))
        assert total_derivative(total_derivative(e, 0), 1) == total_derivative(
            total_derivative(e, 1), 0
        ), trial
    print("\nPASS criterion 7c (200 commuting D_t D_x checks)")


def test_criterion_7d_spot_checks_on_corpus():
    # spot checks evaluate the divergence identity, so they apply to the
    # identity-verified laws; the one on-solution law (the documented KdV
    # factor-2 erratum) is checked for its exact published relation instead
    for eid in corpus.ENTRY_IDS:
        entry = corpus.load(eid)
        for cl in entry.laws:
            rep = spot_check(*law_slots(entry.problem, cl.law), trials=5, seed=2023)
            if cl.expected_status == "identity":
                assert rep.passed, (eid, cl.label)
            else:
                assert (eid, cl.label) == ("kdv-burgers", "4")
                for check in rep.checks:
                    w = check.witness
                    assert w and w["rhs"] == 2 * w["lhs"]
    print("\nPASS criterion 7d (exact spot checks on all corpus laws, fixed seed)")


def _mutation_targets(law, rng, limit):
    slots = [
        (i, k)
        for i, row in enumerate(law.fluxes)
        for k, s in enumerate(row)
        if not s.is_zero()
    ]
    monos = [
        (i, k, mono)
        for (i, k) in slots
        for mono in sorted(as_poly(law.fluxes[i][k]), key=lambda m: repr(m))
    ]
    if limit is not None and len(monos) > limit:
        monos = rng.sample(monos, limit)
    return monos


def test_criterion_7e_mutation_testing():
    rng = random.Random(205)
    for eid in corpus.ENTRY_IDS:
        entry = corpus.load(eid)
        big = eid in ("nls2", "nls3", "kaup-newell")
        for cl in entry.laws:
            if cl.expected_status != "identity":
                continue
            limit = 6 if big else None
            for (i, k, mono) in _mutation_targets(cl.law, rng, limit):
                fluxes = [list(row) for row in cl.law.fluxes]
                mutated = dict(as_poly(fluxes[i][k]))
                mutated[mono] = mutated[mono] + 1
                fluxes[i][k] = NormalForm(mutated)
                bad = ConservationLaw(cl.law.mult, tuple(tuple(r) for r in fluxes))
                rep = verify_identity(*law_slots(entry.problem, bad))
                assert not rep.passed, (eid, cl.label, i, k)
    print("\nPASS criterion 7e (single-coefficient mutations always detected)")


def test_criterion_8_byte_identical_runs(tmp_path):
    from importlib import resources

    fixture = str(resources.files("approxlaws.corpus").joinpath("data", "diffusion-consistent.prob"))
    commands = [
        ["solve", fixture, "--mult-deps", "t,x,u[0]", "--mult-degree", "2",
         "--format", "json", "--trials", "2"],
        ["compare", fixture, "--mult-deps", "t,x,u[0]", "--mult-degree", "2",
         "--format", "json", "--trials", "1"],
        ["verify", fixture, "--format", "text", "--trials", "2"],
        ["expand", fixture, "--expr", "u^-2*u_x", "--format", "json"],
        ["audit", "wave", "--format", "json", "--trials", "1"],
    ]
    for cmd in commands:
        runs = []
        for _ in range(2):
            res = subprocess.run(
                [sys.executable, "-m", "approxlaws.cli", *cmd],
                capture_output=True, check=False,
            )
            runs.append((res.returncode, res.stdout))
        assert runs[0] == runs[1] and runs[0][1], cmd
    print("\nPASS criterion 8 (byte-identical reports across runs)")
