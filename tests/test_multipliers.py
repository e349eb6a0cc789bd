"""Ansatz construction, determining systems, nullspace, classification."""

import math
import random
import time
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from approxlaws import (
    FuncAtom, Jet, UnsupportedFormError, atoms_of, corpus, join_eps, kernel, multipliers, normalize, parse, partial,
)
from approxlaws.atoms import intern, mono_atoms
from approxlaws.expr import as_poly
from approxlaws.linalg import canonical_basis, in_span, nullspace
from approxlaws.multipliers import (
    MAX_UNKNOWNS,
    AnsatzError,
    AnsatzSpec,
    MultiplierSet,
    SingularAnsatzError,
    build_ansatz,
    classify,
    contraction,
    determining_system,
    enumerate_basis,
    euler_coordinates,
    euler_residuals,
    instantiate,
    parse_ansatz,
    solve_multipliers,
    staged_nullspace,
)
from approxlaws.multipliers import _column, _contract, _determining_rows, _series
from approxlaws.problem import PdeProblem, parse_problem_text

from conftest import KDV, coefficient_vector, expand_epsilon_substitution, slot_coefficients


def span_of_vectors(basis, vec):
    """``in_span`` for coefficient tuples: component i is row key i."""
    return in_span([dict(enumerate(b)) for b in basis], dict(enumerate(vec)))


def spec_for(problem, gens, degree, xdegree=None, laurent=None):
    tab = problem.table

    def atom(g):
        return list(normalize(parse(g, tab)).terms())[0][1][0][0]

    laurent = {atom(g): lo for g, lo in (laurent or {}).items()}
    return AnsatzSpec(tuple(atom(g) for g in gens), degree, xdegree, laurent)


def test_ansatz_inherits_derivative_term(diffusion):
    spec = spec_for(diffusion, ["t", "x", "u[0]"], 2)
    ansatz = build_ansatz(diffusion, spec)
    tab = diffusion.table
    u1 = tab.jet("u", 1)
    # slot 1 must contain (d Lambda_0 / d u0) u1 beside the order-1
    # coefficients, which are free of u1: at any coefficient vector the
    # u1-partial of slot 1 is the u0-partial of slot 0
    n = 2 * len(ansatz.basis)
    (mult,) = instantiate(ansatz, [[Fraction(i + 1, 3) * (-1) ** i for i in range(n)]])
    inherited = partial(mult.slots[0][1], u1)
    assert not inherited.is_zero()
    assert inherited == partial(mult.slots[0][0], tab.jet("u", 0))


def test_ansatz_degree_zero(diffusion):
    spec = AnsatzSpec((), 0)
    ansatz = build_ansatz(diffusion, spec)
    assert ansatz.basis == ((),)
    (mult,) = instantiate(ansatz, [(3, 5)])
    assert mult.slots == ((normalize(3), normalize(5)),)


def test_ansatz_covers_kdv_second_multiplier(kdv):
    spec = spec_for(kdv, ["t", "x", "u[0]", "u[0]_x", "u[0]_xx"], 3)
    ansatz = build_ansatz(kdv, spec)
    tab = kdv.table
    target = MultiplierSet(
        "consistent",
        ((normalize(parse("t*u[0] - x", tab)),
          normalize(parse("2*t^2*u[0]_xx + (t*u[0] - x)^2 + t*u[1]", tab))),),
    )
    assert coefficient_vector(target, ansatz) is not None


KDV_GENS = ["t", "x", "u[0]", "u[0]_x", "u[0]_xx"]


@pytest.mark.parametrize(
    "name, gens, method, laurent",
    [
        pytest.param("diffusion", ["t", "x", "u[0]"], "consistent", None, id="diffusion-gens0-consistent"),
        pytest.param("diffusion", ["t", "x", "u[0]"], "approach_a", None, id="diffusion-gens1-approach_a"),
        pytest.param("diffusion", ["t", "x", "u[0]"], "approach_b", None, id="diffusion-gens2-approach_b"),
        pytest.param("kdv", KDV_GENS, "consistent", None, id="kdv-gens3-consistent"),
        pytest.param("wave", ["t", "x", "u[0]", "u[0]_t", "u[0]_x"], "consistent", None, id="wave-gens4-consistent"),
        pytest.param("kdv", KDV_GENS, "approach_a", None, id="kdv-approach_a"),
        pytest.param("kdv", KDV_GENS, "approach_b", None, id="kdv-approach_b"),
        pytest.param("nls2", ["t", "x", "u[0]", "v[0]"], "approach_b", None, id="nls2-approach_b"),
        pytest.param("diffusion", ["t", "x", "u[0]"], "consistent", {"u[0]": -2}, id="diffusion-laurent-consistent"),
        pytest.param("diffusion", ["t", "x", "u[0]"], "approach_b", {"u[0]": -2}, id="diffusion-laurent-approach_b"),
    ],
)
def test_determining_system_columns_are_unit_multiplier_residuals(request, name, gens, method, laurent):
    # oracle: column j holds the Euler residuals of the contraction of the
    # ansatz instantiated at the unit vector e_j, one row per (Euler
    # coordinate, slot, monomial); rows carry no labels, so the two matrices
    # are compared up to row order.  The cases cover every method, two
    # dependent variables (nls2: four approach-B Euler coordinates), function
    # atoms (wave) and negative exponents (the Laurent floor)
    pb = corpus.load(name).problem if name == "nls2" else request.getfixturevalue(name)
    ansatz = build_ansatz(pb, spec_for(pb, gens, 1, laurent=laurent), method)
    system = determining_system(pb, ansatz)
    n = len(system.unknowns)
    columns: dict = {}
    for j in range(n):
        (mult,) = instantiate(ansatz, [tuple(int(i == j) for i in range(n))])
        for v, k, res in euler_residuals(pb, method, contraction(pb, mult)):
            for mono, c in as_poly(res).items():
                columns.setdefault((v, k, mono), {})[j] = c
    assert system.rows and all(system.rows)
    assert Counter(frozenset(r.items()) for r in system.rows) == Counter(
        frozenset(r.items()) for r in columns.values()
    )


def test_euler_coordinates_are_dependent_major():
    problem = corpus.load("nls2").problem  # order 1
    jet = problem.table.jet
    assert euler_coordinates(problem, "consistent") == [jet("u", 0), jet("v", 0)]
    assert euler_coordinates(problem, "approach_a") == [jet("u"), jet("v")]
    assert euler_coordinates(problem, "approach_b") == [jet("u", 0), jet("u", 1), jet("v", 0), jet("v", 1)]


def test_repeated_generator_gives_the_same_basis(diffusion):
    # "u" and "u[0]" are the same generator under the consistent method, and
    # a generator named twice counts once, under a Laurent floor too
    tab = diffusion.table
    for laurent, once_text, twice_text in (
        (None, "t, x, u[0]", "u, t, x, u[0], x"),
        ("u[0]:-1", "t, x, u[0]", "u, t, x, u[0]"),
    ):
        once = solve_multipliers(diffusion, parse_ansatz(tab, once_text, 2, laurent=laurent), "consistent")
        twice = solve_multipliers(diffusion, parse_ansatz(tab, twice_text, 2, laurent=laurent), "consistent")
        assert twice.ansatz == once.ansatz
        assert twice.basis == once.basis
    assert len(once.ansatz.basis) * (once.ansatz.p + 1) == 48  # 24 monomials x 2 series slots


def test_enumerate_basis_merges_repeats_and_refuses_past_the_bound():
    tab = corpus.load("wave").problem.table
    u = tab.jet("u", 0)
    t, x = tab.indep[:2]
    assert len(enumerate_basis((u, u), 2, 0, {u: -1}, 1)) == 4  # u^-1 .. u^2
    # refused in the jet group, in the x group, and at their product, where
    # each group alone is under the bound; each stops just past the bound
    for gens, degree, xdegree in (
        ((u,), 10**12, 0),
        ((t,), 0, 10**12),
        ((t, x, u), 10, 200),  # 20,301 x-monomials x 11 jet monomials
    ):
        start = time.perf_counter()
        with pytest.raises(AnsatzError, match=f"more than {MAX_UNKNOWNS} unknowns"):
            enumerate_basis(gens, degree, xdegree, {}, 1)
        assert time.perf_counter() - start < 1.0


def test_empty_generators_with_positive_degree():
    with pytest.raises(AnsatzError):
        AnsatzSpec((), 2)


def test_leading_dependence_rejected(kdv):
    spec = spec_for(kdv, ["t", "u[0]_t"], 1)
    with pytest.raises(SingularAnsatzError, match="equation 1"):
        solve_multipliers(kdv, spec, "consistent")
    # refused where the ansatz is built, before any system is assembled
    with pytest.raises(SingularAnsatzError, match="equation 1"):
        build_ansatz(kdv, spec)


def test_constant_multiplier_unconstrained_when_divergence():
    # Delta = u_t is itself a divergence: no constraints on a constant ansatz
    pb = parse_problem_text(
        "independent = t, x\ndependent = u\norder = 1\nequation = u_t\nleading = u_t\n"
    ).problem
    res = solve_multipliers(pb, AnsatzSpec((), 0), "consistent")
    assert len(res.basis) == 2  # {1, eps}
    assert sum(1 for cm in res.classified if not cm.trivial) == 1


def test_diffusion_consistent_nullspace(diffusion):
    spec = spec_for(diffusion, ["t", "x", "u[0]"], 2)
    res = solve_multipliers(diffusion, spec, "consistent")
    tab = diffusion.table
    assert len(res.basis) == 4
    P = lambda s: normalize(parse(s, tab))
    published = [
        MultiplierSet("consistent", ((P("1"), P("0")),)),
        MultiplierSet("consistent", ((P("x"), P("t + x^2/2")),)),
        MultiplierSet("consistent", ((P("0"), P("1")),)),
        MultiplierSet("consistent", ((P("0"), P("x")),)),
    ]
    for m in published:
        vec = coefficient_vector(m, res.ansatz)
        assert vec is not None
        assert span_of_vectors(res.basis, vec) is not None
    # canonical basis reproduces the published non-trivial multipliers verbatim
    nontrivial = [cm for cm in res.classified if not cm.trivial]
    assert [cm.mult.slots for cm in nontrivial] == [m.slots for m in published[:2]]


def test_diffusion_approach_a(diffusion):
    spec = spec_for(diffusion, ["t", "x", "u"], 2)
    res = solve_multipliers(diffusion, spec, "approach_a")
    tab = diffusion.table
    P = lambda s: normalize(parse(s, tab))
    assert len(res.basis) == 4
    nontrivial = [cm for cm in res.classified if not cm.trivial]
    assert [cm.mult.slots for cm in nontrivial] == [
        ((P("1"), P("0")),),
        ((P("x"), P("t + x^2/2")),),
    ]


def test_diffusion_approach_b(diffusion):
    spec = spec_for(diffusion, ["t", "x", "u[0]"], 2)
    res = solve_multipliers(diffusion, spec, "approach_b")
    tab = diffusion.table
    P = lambda s: normalize(parse(s, tab))
    assert len(res.basis) == 4
    assert sum(1 for cm in res.classified if not cm.trivial) == 4
    published = [
        ((P("t + x^2/2"), P("x")),),
        ((P("x"), P("0")),),
        ((P("1"), P("0")),),
        ((P("0"), P("1")),),
    ]
    for slots in published:
        m = MultiplierSet("approach_b", slots)
        vec = coefficient_vector(m, res.ansatz)
        assert vec is not None
        assert span_of_vectors(res.basis, vec) is not None


def test_slots_must_be_eps_free(diffusion):
    tab = diffusion.table
    with pytest.raises(UnsupportedFormError):
        MultiplierSet("consistent", ((normalize(parse("eps*u[0]", tab)), normalize(0)),))


def test_slot_coordinate_language_enforced(diffusion):
    tab = diffusion.table
    with pytest.raises(UnsupportedFormError):
        # unexpanded coordinate in a consistent-method slot
        MultiplierSet("consistent", ((normalize(parse("u", tab)), normalize(0)),))
    with pytest.raises(UnsupportedFormError):
        # order-tagged coordinate in an approach-a slot
        MultiplierSet("approach_a", ((normalize(parse("u[0]", tab)), normalize(0)),))


def test_consistent_slots_hold_no_order_above_their_index(table):
    # Lambda_k of the consistent expansion depends on u[0]..u[k] only: a set
    # that breaks the rule is refused where it is made
    P = lambda s: normalize(parse(s, table))
    f_of_u1 = normalize(FuncAtom("f", 0, table.jet("u", 1)))
    for row, k, order in (
        ((P("u[1]"), P("0")), 0, 1),
        ((P("u[0]"), P("u[2]_x"), P("0")), 1, 2),
        ((f_of_u1, P("0")), 0, 1),
    ):
        with pytest.raises(UnsupportedFormError, match=f"slot {k} contains a perturbation-order-{order} "):
            MultiplierSet("consistent", (row,))
    # approach B's member k may hold any order
    MultiplierSet("approach_b", ((P("u[1]"), P("0")),))
    # an ansatz member reaches order k in slot k, and its eps-multiple one
    # slot later
    kdv2 = parse_problem_text(KDV.replace("order = 1", "order = 2")).problem
    ansatz = build_ansatz(kdv2, spec_for(kdv2, ["t", "x", "u[0]"], 2))
    (mult,) = instantiate(ansatz, [range(1, 3 * len(ansatz.basis) + 1)])
    for k, slot in enumerate(mult.slots[0]):
        assert max(a.order for a in atoms_of(slot) if isinstance(a, Jet)) == k
    shifted = mult.eps_shifted()
    assert shifted.slots[0][1:] == mult.slots[0][:-1]


def test_approach_a_shift_classification(diffusion):
    spec = spec_for(diffusion, ["t", "x", "u"], 2)
    res = solve_multipliers(diffusion, spec, "approach_a")
    assert [(cm.trivial, cm.eps_shift) for cm in res.classified] == [
        (False, False), (False, False), (True, True), (True, True),
    ]


def test_classification_flags(diffusion):
    spec = spec_for(diffusion, ["t", "x", "u[0]"], 2)
    res = solve_multipliers(diffusion, spec, "consistent")
    flags = [(cm.trivial, cm.eps_shift, cm.stable) for cm in res.classified]
    assert flags == [
        (False, False, True),
        (False, False, True),
        (True, True, False),
        (True, True, False),
    ]


def _is_eps_shift_by_slots(mult, members):
    """The eps-shift test on the slots: the set's slots 1..p, moved down one,
    lie in the span of every member's slots 0..p-1."""
    target = {(nu, k - 1, mono): c for (nu, k, mono), c in slot_coefficients(mult).items() if k}
    return in_span([slot_coefficients(m, mult.p - 1) for m in members], target) is not None


@pytest.mark.parametrize("p", [1, 2, 3])
@pytest.mark.parametrize("method", ["consistent", "approach_a"])
def test_eps_shift_flags_match_the_slot_space_check(method, p):
    # classify reads eps-shifts off coefficient vectors; the oracle tests the
    # multiplier sets' slots.  Every corpus entry's hint ansatz, degree capped
    # at 2, at truncation orders 1..3
    shifts = 0
    for eid in corpus.ENTRY_IDS:
        entry = corpus.load(eid)
        hint = entry.ansatz_hint
        spec = AnsatzSpec(hint.generators, min(hint.degree, 2), hint.xdegree, hint.laurent)
        res = solve_multipliers(_at_order(entry.problem, p), spec, method)
        members = [cm.mult for cm in res.classified]
        assert [cm.eps_shift for cm in res.classified] == [
            cm.trivial and _is_eps_shift_by_slots(cm.mult, members) for cm in res.classified
        ], eid
        shifts += sum(cm.eps_shift for cm in res.classified)
    assert shifts
    # sets no corpus space holds, where the order weights of an eps-multiple
    # show: a random set, its eps-multiple and a random trivial set
    problem = _at_order(corpus.load("kdv-burgers").problem, p)
    ansatz = build_ansatz(problem, spec_for(problem, ["x", "u[0]", "u[0]_x"], 1), method)
    n = len(ansatz.basis)
    rng = random.Random(f"{method}-{p}")
    vec = tuple(rng.choice([-1, 1]) * rng.randint(1, 5) for _ in range((p + 1) * n))
    (mult,) = instantiate(ansatz, [vec])
    trivial = tuple(0 if j < n else x for j, x in enumerate(reversed(vec)))
    classified = classify([vec, coefficient_vector(mult.eps_shifted(), ansatz), trivial], ansatz)
    members = [cm.mult for cm in classified]
    assert [cm.eps_shift for cm in classified] == [False, True, False]
    assert [cm.trivial and _is_eps_shift_by_slots(cm.mult, members) for cm in classified] == [False, True, False]


def test_kdv_trivial_but_independent(kdv):
    spec = spec_for(kdv, ["t", "x", "u[0]", "u[0]_x", "u[0]_xx"], 3)
    res = solve_multipliers(kdv, spec, "consistent")
    assert len(res.basis) == 7
    tab = kdv.table
    P = lambda s: normalize(parse(s, tab))
    special = [
        cm for cm in res.classified
        if cm.trivial and not cm.eps_shift
    ]
    # Lambda^4: trivial by definition yet not an eps-shift; retained as distinct
    assert len(special) == 1
    assert special[0].mult.slots[0][1] == P("u[0]_xx + u[0]^2/2")


def test_eps_closure_property(diffusion):
    spec = spec_for(diffusion, ["t", "x", "u[0]"], 2)
    res = solve_multipliers(diffusion, spec, "consistent")
    for cm in res.classified:
        shifted = cm.mult.eps_shifted()
        if all(s.is_zero() for row in shifted.slots for s in row):
            continue
        vec = coefficient_vector(shifted, res.ansatz)
        assert vec is not None
        assert span_of_vectors(res.basis, vec) is not None


def test_stability_order_zero_slots_solve_unperturbed(diffusion):
    # the eps^0 slots of consistent solutions are exact multipliers of the
    # unperturbed equation computed directly
    from approxlaws.jets import euler

    spec = spec_for(diffusion, ["t", "x", "u[0]"], 2)
    res = solve_multipliers(diffusion, spec, "consistent")
    d0 = diffusion.expanded_slots(0)[0]
    for cm in res.classified:
        lam0 = cm.mult.slots[0][0]
        assert euler(lam0 * d0, diffusion.table.jet("u", 0)).is_zero()


def test_soundness_every_nullspace_member_annihilated(diffusion, kdv):
    # re-verified independently of system assembly, via the Euler residuals
    from approxlaws.verify import verify_euler

    for pb, gens, deg in (
        (diffusion, ["t", "x", "u[0]"], 2),
        (kdv, ["t", "x", "u[0]", "u[0]_x", "u[0]_xx"], 3),
    ):
        spec = spec_for(pb, gens, deg)
        for method in ("consistent", "approach_a", "approach_b"):
            res = solve_multipliers(pb, spec, method)
            for cm in res.classified:
                assert verify_euler(euler_residuals(pb, cm.mult.method, contraction(pb, cm.mult))).passed, method


def test_determinism(diffusion):
    spec = spec_for(diffusion, ["t", "x", "u[0]"], 2)
    a = solve_multipliers(diffusion, spec, "consistent")
    b = solve_multipliers(diffusion, spec, "consistent")
    assert a.basis == b.basis
    assert [cm.mult.slots for cm in a.classified] == [cm.mult.slots for cm in b.classified]


def test_parse_ansatz_text_forms(diffusion):
    tab = diffusion.table
    spec = parse_ansatz(tab, "t, x, u[0]", "2", None, "u[0]:-1, x")
    assert spec.generators == (tab.indep[0], tab.indep[1], tab.jet("u", 0))
    assert spec.degree == 2 and spec.laurent == {tab.jet("u", 0): -1, tab.indep[1]: -2}
    default = parse_ansatz(tab, None, 1)
    assert default.generators == spec.generators
    # generators and Laurent floors meet at order 0
    for gen, floor in (("u", "u[0]"), ("u[0]", "u"), ("u", "u[1]")):
        assert parse_ansatz(tab, f"t, {gen}", 1, laurent=f"{floor}:-1").laurent == {tab.jet("u", 0): -1}
    for bad in (
        dict(mult_deps="t, 2*x", degree=1),
        dict(mult_deps="u[0]^2", degree=1),
        dict(mult_deps="1/(u+1)", degree=1),
        dict(mult_deps="t", degree="two"),
        dict(mult_deps="t", degree=1, xdegree="1.5"),
        dict(mult_deps="t", degree=1, laurent="u[0]:x"),
        dict(mult_deps="t", degree=1, laurent="t + x:-1"),
        # a floor on an atom no basis monomial holds would bound nothing
        dict(mult_deps="t, u[0]", degree=1, laurent="x:-1"),
        dict(mult_deps="t, u[0]", degree=1, laurent="u[0]_x:-1"),
    ):
        with pytest.raises(AnsatzError):
            parse_ansatz(tab, **bad)
    with pytest.raises(AnsatzError, match="the Laurent floor x:-1 is not on an ansatz generator"):
        spec_for(diffusion, ["t", "u[0]"], 1, laurent={"x": -1})


# --- the factored assembly against the per-monomial Euler oracle ---------------


def _determining_rows_per_monomial(problem, ansatz, coefficient, only=None):
    """The determining-system rows as one Euler pass over the full
    column-vector contraction of the ansatz, every basis monomial carrying
    its own columns through the operators: the assembly that
    ``_determining_rows`` factors over the x-monomials."""
    parts = _contract(problem, ansatz.method, _series(ansatz, coefficient, only), only)
    return {(v, k, mono): row
            for v, k, res in euler_residuals(problem, ansatz.method, parts)
            for mono, row in as_poly(res).items()}


def _assert_rows_match_per_monomial_oracle(problem, ansatz, coefficient, only=None):
    rows = _determining_rows(problem, ansatz, coefficient, only)
    oracle = _determining_rows_per_monomial(problem, ansatz, coefficient, only)
    # equal as dicts: the same row under the same (coordinate, slot, monomial)
    # key, so also the same multiset of rows
    assert rows == oracle


def _unit_columns(ansatz):
    return lambda nu, k, i: {_column(ansatz, nu, k, i): 1}


def _lift_columns(ansatz, space):
    """The staged lift's coefficients: each unknown's column vector over the
    members of ``space``, vectors over the ansatz's columns."""
    columns: dict = {}
    for y, vec in enumerate(space):
        for col, x in enumerate(vec):
            if x:
                columns.setdefault(col, {})[y] = x
    return lambda nu, k, i: columns.get(_column(ansatz, nu, k, i))


_CORPUS_ASSEMBLY_CASES = [(eid, corpus.load(eid).method) for eid in corpus.ENTRY_IDS] + [
    ("kdv-burgers", "approach_a"), ("kdv-burgers", "approach_b"),
    ("diffusion-consistent", "approach_a"), ("diffusion-consistent", "approach_b"),
]


@pytest.mark.parametrize("p", [1, 2])
@pytest.mark.parametrize("eid, method", _CORPUS_ASSEMBLY_CASES)
def test_factored_rows_match_per_monomial_euler_on_corpus(eid, method, p):
    # the 8 entries with their own methods, kdv-burgers and diffusion under all
    # three, hint degree capped at 2: the monolithic system's unit columns,
    # and for the eps-series methods A_0 and an order-p lift of the solved space
    entry = corpus.load(eid)
    hint = entry.ansatz_hint
    problem = _at_order(entry.problem, p)
    ansatz = build_ansatz(problem, AnsatzSpec(hint.generators, min(hint.degree, 2), hint.xdegree, hint.laurent),
                          method)
    _assert_rows_match_per_monomial_oracle(problem, ansatz, _unit_columns(ansatz))
    if method == "approach_b":
        return
    n = len(ansatz.basis)
    _assert_rows_match_per_monomial_oracle(problem, ansatz, lambda nu, k, i: {nu * n + i: 1}, 0)
    space = staged_nullspace(problem, ansatz)
    assert space
    _assert_rows_match_per_monomial_oracle(problem, ansatz, _lift_columns(ansatz, space), p)


@pytest.mark.parametrize("p", [1, 2])
@pytest.mark.parametrize("eid", corpus.ENTRY_IDS)
def test_one_slot_of_the_contraction_is_that_slot_of_the_full_one(eid, p):
    # the window the staged solve assembles through, on the vector slots of
    # both eps-series methods, hint degree capped at 2: slot k formed alone,
    # from the full series or from the series cut at slot k
    entry = corpus.load(eid)
    hint = entry.ansatz_hint
    problem = _at_order(entry.problem, p)
    spec = AnsatzSpec(hint.generators, min(hint.degree, 2), hint.xdegree, hint.laurent)
    for method in ("consistent", "approach_a"):
        ansatz = build_ansatz(problem, spec, method)
        series = _series(ansatz, _unit_columns(ansatz))
        full = _contract(problem, method, series)
        assert len(full) == p + 1 and any(full)
        for k in range(p + 1):
            assert _contract(problem, method, series, only=k) == [full[k]]
            assert _contract(problem, method, _series(ansatz, _unit_columns(ansatz), k), only=k) == [full[k]]


@pytest.mark.parametrize("method", ["consistent", "approach_a", "approach_b"])
def test_factored_rows_match_per_monomial_euler_under_a_laurent_floor_on_x(diffusion, method):
    # x^-1 in the basis: every (alpha)_L is nonzero, and only the slots'
    # derivative order bounds L
    spec = parse_ansatz(diffusion.table, "t,x,u[0]", 2, laurent="x:-1")
    ansatz = build_ansatz(diffusion, spec, method)
    assert any(e < 0 for mono in ansatz.basis for a, e in mono_atoms(mono) if a == diffusion.table.indep[1])
    _assert_rows_match_per_monomial_oracle(diffusion, ansatz, _unit_columns(ansatz))


@pytest.mark.parametrize("method", ["consistent", "approach_a", "approach_b"])
def test_factored_rows_match_per_monomial_euler_with_explicit_t_and_x(method):
    # the equation's own t and x (x^-1 among them) meet the x-parts of the
    # basis in the residual monomials, where exponents add and may cancel
    pb = parse_problem_text("independent = t, x\ndependent = u\norder = 2\nleading = u_t\n"
                            "equation = u_t - x^2*u_xx - t*u*u_x + eps*(x^-1*u_x - t*x*u^2)\n").problem
    ansatz = build_ansatz(pb, spec_for(pb, ["t", "x", "u[0]", "u[0]_x"], 2, laurent={"x": -1}), method)
    _assert_rows_match_per_monomial_oracle(pb, ansatz, _unit_columns(ansatz))


def test_factored_rows_of_an_empty_lift_are_empty(kdv):
    ansatz = build_ansatz(kdv, spec_for(kdv, KDV_GENS, 1), "consistent")
    assert _determining_rows(kdv, ansatz, lambda nu, k, i: None, 0) == {}


# --- the staged solve against the monolithic oracle ----------------------------


def _at_order(problem, p):
    return PdeProblem(problem.table, problem.eqns, problem.leading, p, name=problem.name)


def _assert_staged_is_monolithic(problem, spec, method):
    ansatz = build_ansatz(problem, spec, method)
    unknowns, rows = determining_system(problem, ansatz)
    assert staged_nullspace(problem, ansatz) == nullspace(rows, len(unknowns))


@pytest.mark.parametrize("p", [1, 2, 3])
@pytest.mark.parametrize("degree", [1, 2])
@pytest.mark.parametrize("eid", [e for e in corpus.ENTRY_IDS if e != "diffusion-approach-b"])
def test_staged_basis_is_monolithic_basis_on_corpus(eid, degree, p):
    # the corpus entries' hint ansatz, degree capped, at truncation orders
    # 1..3: orders >= 2 exercise the 1/k! of slot k and the lift of a lifted space
    entry = corpus.load(eid)
    hint = entry.ansatz_hint
    spec = AnsatzSpec(hint.generators, min(hint.degree, degree), hint.xdegree, hint.laurent)
    _assert_staged_is_monolithic(_at_order(entry.problem, p), spec, entry.method)


@st.composite
def _small_ansatz(draw):
    """A corpus problem (Laurent terms in diffusion, the function f(u) in
    wave) at order 1..3, with a small random ansatz: some non-leading
    generators, degree bounds up to 2 and an optional Laurent floor."""
    eid = draw(st.sampled_from(["diffusion-consistent", "kdv-burgers", "wave"]))
    problem = _at_order(corpus.load(eid).problem, draw(st.integers(1, 3)))
    names = ["t", "x", "u[0]", "u[0]_x"] + (["u[0]_t"] if eid == "wave" else [])
    gens = draw(st.lists(st.sampled_from(names), min_size=1, max_size=4, unique=True))
    atoms = spec_for(problem, gens, 0).generators
    laurent = {}
    if draw(st.booleans()):
        laurent[draw(st.sampled_from(atoms))] = draw(st.integers(-2, -1))
    spec = AnsatzSpec(atoms, draw(st.integers(0, 2)), draw(st.sampled_from([None, 0, 1, 2])), laurent)
    return problem, spec, draw(st.sampled_from(["consistent", "approach_a"]))


def _diffusion_order_2():
    # its order-2 lift needs c_2 != 0, so it tells 1/2! in slot 2 from 1
    problem = _at_order(corpus.load("diffusion-consistent").problem, 2)
    return problem, spec_for(problem, ["t", "x"], 0, 2), "consistent"


@settings(max_examples=40, deadline=None)
@given(_small_ansatz())
@example(_diffusion_order_2())
def test_staged_basis_is_monolithic_basis_on_random_ansatze(case):
    _assert_staged_is_monolithic(*case)


# --- the consistent ansatz's series weights and truncation ---------------------


def _unexpanded(mono):
    """The monomial with every order-0 jet renamed to its unexpanded one."""
    out = ()
    for a, e in mono_atoms(mono):
        out = kernel.mono_mul(out, (intern(a.with_order(None) if isinstance(a, Jet) else a), e))
    return out


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("eid, floor", [("diffusion-consistent", -2), ("kdv-burgers", None), ("wave", None)])
def test_consistent_ansatz_is_the_weighted_series_of_its_orders(eid, floor, p):
    # the consistent ansatz at a coefficient vector v is the expansion of
    # sum_j eps^j P_j(u) / j!, where P_j is the order-j part of v over the
    # basis: checked against the substitution oracle, which neither builds
    # the slots with the recursion operator nor knows the 1/j! weights
    entry = corpus.load(eid)
    problem = _at_order(entry.problem, p)
    hint = entry.ansatz_hint
    laurent = {problem.table.jet("u", 0): floor} if floor else hint.laurent
    spec = AnsatzSpec(hint.generators, hint.degree, hint.xdegree, laurent)
    ansatz = build_ansatz(problem, spec, "consistent")
    basis = ansatz.basis
    rng = random.Random(f"{eid}-{p}")
    values = {}
    for nu in range(problem.q):
        for j in range(p + 1):
            for i in rng.sample(range(len(basis)), min(5, len(basis))):
                values[(nu, j, i)] = Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 4))
    vec = [0] * (problem.q * (p + 1) * len(basis))
    for (nu, j, i), c in values.items():
        vec[multipliers._column(ansatz, nu, j, i)] = c
    (mult,) = instantiate(ansatz, [vec])
    for nu, row in enumerate(mult.slots):
        parts = [{} for _ in range(p + 1)]
        for (eq, j, i), c in values.items():
            if eq == nu:
                kernel.poly_iadd(parts[j], {_unexpanded(basis[i]): c}, Fraction(1, math.factorial(j)))
        assert list(row) == expand_epsilon_substitution(join_eps(parts), p)


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("eid", ["kdv-burgers", "diffusion-consistent", "diffusion-approach-a", "wave"])
def test_order_p_space_truncates_into_the_order_below(eid, p):
    # the contraction's slots 0..p-1 hold the multiplier's slots 0..p-1 only,
    # so every order-p multiplier set, cut to p slots, is an order-(p-1) one
    entry = corpus.load(eid)
    upper = solve_multipliers(_at_order(entry.problem, p), entry.ansatz_hint, entry.method)
    lower = solve_multipliers(_at_order(entry.problem, p - 1), entry.ansatz_hint, entry.method)
    for cm in upper.classified:
        cut = MultiplierSet(entry.method, [row[:p] for row in cm.mult.slots])
        vec = coefficient_vector(cut, lower.ansatz)
        assert vec is not None
        assert span_of_vectors(lower.basis, vec) is not None


# --- approach A against the consistent space ------------------------------------


@pytest.mark.parametrize("p", [1, 2])
def test_approach_a_space_is_the_consistent_space(p):
    # the consistent order-k unknown is k! times the approach-A one: the
    # expansion u -> u[0] + eps u[1] + ... is one-to-one and commutes with
    # every D_i, and E_u[j] of slot k is E_u[0] of slot k - j, so the two
    # determining systems differ by that column scaling only.  Every corpus
    # entry's hint ansatz, degree capped at 2
    for eid in corpus.ENTRY_IDS:
        entry = corpus.load(eid)
        hint = entry.ansatz_hint
        spec = AnsatzSpec(hint.generators, min(hint.degree, 2), hint.xdegree, hint.laurent)
        problem = _at_order(entry.problem, p)
        consistent = solve_multipliers(problem, spec, "consistent")
        a = solve_multipliers(problem, spec, "approach_a")
        n = len(a.ansatz.basis)
        assert [_unexpanded(mono) for mono in consistent.ansatz.basis] == list(a.ansatz.basis), eid
        scaled = [{col: math.factorial(col // n % (p + 1)) * x for col, x in enumerate(vec) if x}
                  for vec in a.basis]
        assert canonical_basis(scaled, n * problem.q * (p + 1)) == consistent.basis, eid
        if p == 1:
            assert a.basis == consistent.basis, eid
        assert [(cm.trivial, cm.eps_shift, cm.stable) for cm in a.classified] == [
            (cm.trivial, cm.eps_shift, cm.stable) for cm in consistent.classified
        ], eid


# --- approach B against the reversed consistent space --------------------------


@pytest.mark.parametrize("eid, members", [("diffusion-consistent", 4), ("kdv-burgers", 7), ("wave", 4),
                                          ("nls2", 6), ("nls3", 4), ("kaup-newell", 6)])
def test_reversed_consistent_members_are_approach_b_multipliers(eid, members):
    # the eps^p slot of a consistent contraction, sum over k of
    # Lambda_(p-k) * Delta_k, is a divergence: so the reversal
    # Lambda^B_k = Lambda_(p-k) of every member is an approach-B multiplier
    entry = corpus.load(eid)
    hint = entry.ansatz_hint
    spec = AnsatzSpec(hint.generators, min(hint.degree, 2), hint.xdegree, hint.laurent)
    result = solve_multipliers(entry.problem, spec, "consistent")
    assert len(result.basis) == members
    for cm in result.classified:
        reversal = MultiplierSet("approach_b", [row[::-1] for row in cm.mult.slots])
        assert all(res.is_zero() for _, _, res in euler_residuals(
            entry.problem, "approach_b", contraction(entry.problem, reversal)))
        assert contraction(entry.problem, reversal) == [contraction(entry.problem, cm.mult)[entry.problem.p]]


def test_approach_b_can_be_larger_than_the_reversed_consistent_space():
    # for the eps-free u_t + u_x, every Lambda^B_k may depend on u[1]: B holds
    # (u[1]^2, 2 u[0] u[1]), the multiplier of D_t(u[0] u[1]^2) + D_x(u[0] u[1]^2),
    # whose reversal puts u[1] in slot 0, which no consistent member may
    pb = parse_problem_text("independent = t, x\ndependent = u\norder = 1\n"
                            "equation = u_t + u_x\nleading = u_t\n").problem
    P = lambda s: normalize(parse(s, pb.table))
    spec = spec_for(pb, ["u[0]"], 2, 0)
    consistent = solve_multipliers(pb, spec, "consistent")
    b = solve_multipliers(pb, spec, "approach_b")
    assert (len(consistent.basis), len(b.basis)) == (6, 9)
    member = MultiplierSet("approach_b", [(P("u[1]^2"), P("2*u[0]*u[1]"))])
    assert span_of_vectors(b.basis, coefficient_vector(member, b.ansatz)) is not None
    with pytest.raises(UnsupportedFormError):
        MultiplierSet("consistent", [(P("2*u[0]*u[1]"), P("u[1]^2"))])
    # with eps*u_x the order-1 equation couples u[1] to u[0], and the two agree
    pb = parse_problem_text("independent = t, x\ndependent = u\norder = 1\n"
                            "equation = u_t + u_x + eps*u_x\nleading = u_t\n").problem
    for degree, dim in [(2, 6), (3, 8), (4, 10)]:
        spec = spec_for(pb, ["u[0]"], degree, 0)
        assert len(solve_multipliers(pb, spec, "consistent").basis) == dim
        assert len(solve_multipliers(pb, spec, "approach_b").basis) == dim
