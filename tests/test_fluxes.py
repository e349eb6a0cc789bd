"""Flux reconstruction and equivalence."""

import random

import pytest

from approxlaws import corpus, fluxes, normalize, parse
from approxlaws.expr import NormalForm
from approxlaws.fluxes import (
    ConservationLaw,
    ReconstructionError,
    equivalent,
    identity_residuals,
    reconstruct,
)
from approxlaws.jets import total_derivative
from approxlaws.multipliers import AnsatzSpec, MultiplierSet, solve_multipliers
from approxlaws.printer import print_poly
from approxlaws.problem import PdeProblem, parse_problem_text
from test_verify import law_slots


def mult(problem, *slot_texts):
    tab = problem.table
    P = lambda s: normalize(parse(s, tab))
    q = problem.q
    rows = []
    texts = list(slot_texts)
    per_eq = len(texts) // q
    for nu in range(q):
        rows.append(tuple(P(s) for s in texts[nu * per_eq : (nu + 1) * per_eq]))
    return MultiplierSet("consistent", tuple(rows))


def test_diffusion_unit_multiplier_fluxes(diffusion):
    tab = diffusion.table
    P = lambda s: normalize(parse(s, tab))
    law = reconstruct(diffusion, mult(diffusion, "1", "0"))
    assert all(r.is_zero() for r in identity_residuals(*law_slots(diffusion, law)))
    assert law.fluxes[0][0] == P("u[0]")
    assert law.fluxes[0][1] == P("u[1]")
    assert law.fluxes[1][0] == P("-u[0]^-2*u[0]_x")
    assert law.fluxes[1][1] == P(
        "2*u[0]^-3*u[1]*u[0]_x - u[0]^-2*u[1]_x - u[0] + u[0]^-1"
    )


def test_zero_multiplier_zero_fluxes(diffusion):
    law = reconstruct(diffusion, mult(diffusion, "0", "0"))
    assert all(f.is_zero() for row in law.fluxes for f in row)


def test_non_multiplier_rejected(diffusion):
    with pytest.raises(ReconstructionError):
        reconstruct(diffusion, mult(diffusion, "u[0]_t", "0"))


def test_reconstruction_ceiling_reached(diffusion, monkeypatch):
    # the unit multiplier needs the flux u[0] in the t direction; with no
    # rounds of the candidate closure no block has a candidate
    monkeypatch.setattr(fluxes, "MAX_ROUNDS", 0)
    with pytest.raises(ReconstructionError):
        reconstruct(diffusion, mult(diffusion, "1", "0"))


def test_function_advection_flux_uses_time_weighting(monkeypatch):
    # f(u) u_x has no antiderivative in the language, yet it is a divergence:
    # D_t(-t f u_x) + D_x(t f u_t) = -f u_x on free jets.  Multiplier 1 caps
    # the flux basis at jet order max(0, r - 1) = 0, but that flux needs
    # order-1 jets: only the bounds widened by one escalation hold it
    text = "independent = t, x\ndependent = u\nfunctions = f(u)\norder = 1\nequation = u_t - f(u)*u_x\nleading = u_t\n"
    pb = parse_problem_text(text).problem
    law = reconstruct(pb, mult(pb, "1", "0"))
    assert all(r.is_zero() for r in identity_residuals(*law_slots(pb, law)))
    assert [print_poly(row[0], pb.table) for row in law.fluxes] == ["u[0] - t*u[0]_x*f(u[0])", "t*u[0]_t*f(u[0])"]
    monkeypatch.setattr(fluxes, "ESCALATIONS", 0)
    pb = parse_problem_text(text).problem  # a fresh problem, with no solved block kept
    with pytest.raises(ReconstructionError, match=r"order <= 0 "):
        reconstruct(pb, mult(pb, "1", "0"))


def test_kdv_unit_multiplier_equivalent_to_canonical(kdv):
    tab = kdv.table
    P = lambda s: normalize(parse(s, tab))
    law = reconstruct(kdv, mult(kdv, "1", "0"))
    # canonical pair (u, u^2/2 + u_xx - eps u_x), expanded into slots
    canonical = ConservationLaw(
        mult(kdv, "1", "0"),
        (
            (P("u[0]"), P("u[1]")),
            (P("u[0]^2/2 + u[0]_xx"), P("u[0]*u[1] + u[1]_xx - u[0]_x")),
        ),
    )
    assert all(r.is_zero() for r in identity_residuals(*law_slots(kdv, canonical)))
    assert equivalent(law, canonical, kdv) == "equivalent"


def test_equivalent_self_and_curl(diffusion):
    tab = diffusion.table
    P = lambda s: normalize(parse(s, tab))
    law = reconstruct(diffusion, mult(diffusion, "x", "t + x^2/2"))
    assert equivalent(law, law, diffusion) == "equivalent"
    rng = random.Random(7)
    for _ in range(5):
        h = NormalForm({})
        pool = ["t*u[0]^2", "x*u[1]", "u[0]_x*u[0]", "t*x", "u[0]^-1"]
        for txt in rng.sample(pool, 3):
            h = h + rng.randint(-3, 3) * P(txt)
        gauged = ConservationLaw(
            law.mult,
            (
                tuple(f + total_derivative(h, 1) for f in law.fluxes[0]),
                tuple(f - total_derivative(h, 0) for f in law.fluxes[1]),
            ),
        )
        assert all(r.is_zero() for r in identity_residuals(*law_slots(diffusion, gauged)))
        assert equivalent(law, gauged, diffusion) == "equivalent"


@pytest.mark.parametrize("method, t1, t2", [
    ("approach_a", "u_t - u_xx", "-u_x"),
    ("consistent", "u[0]_t - u[0]_xx", "u[1]_t - u[1]_xx - u[0]_x"),
])
def test_fluxes_differing_by_the_equation_are_equivalent(method, t1, t2):
    # law 2's t flux adds the slots of the equation to law 1's zero fluxes;
    # in approach A the eps*u_x that eliminating u_t leaves in slot 0 cancels
    # slot 1 only when the slots are reduced as one series, as their
    # expansion does
    pf = parse_problem_text(
        f"method = {method}\nindependent = t, x\ndependent = u\norder = 1\n"
        "equation = u_t - u_xx - eps*u_x\nleading = u_t\n"
        "multiplier.1.0 = 0\nmultiplier.2.0 = 0\n"
        f"flux.2.t.0 = {t1}\nflux.2.t.1 = {t2}\n"
    )
    a, b = (cl.law for cl in corpus.recorded_laws(pf))
    assert equivalent(a, b, pf.problem) == "equivalent"


def test_distinct_laws(diffusion):
    a = reconstruct(diffusion, mult(diffusion, "1", "0"))
    b = reconstruct(diffusion, mult(diffusion, "x", "t + x^2/2"))
    assert equivalent(a, b, diffusion) == "distinct"


def test_round_trip_on_solver_results(diffusion, kdv):
    cases = [
        (diffusion, (diffusion.table.indep[0], diffusion.table.indep[1], diffusion.table.jet("u", 0)), 2),
        (kdv, (kdv.table.indep[0], kdv.table.indep[1], kdv.table.jet("u", 0),
               kdv.table.jet("u", 0, ("x",)), kdv.table.jet("u", 0, ("x", "x"))), 3),
    ]
    for pb, gens, deg in cases:
        res = solve_multipliers(pb, AnsatzSpec(gens, deg), "consistent")
        for cm in res.classified:
            law = reconstruct(pb, cm.mult)
            assert all(r.is_zero() for r in identity_residuals(*law_slots(pb, law)))


def test_order_consistency_of_flux_slots(kdv):
    from approxlaws.atoms import Jet
    from approxlaws.expr import atoms_of

    law = reconstruct(
        kdv, mult(kdv, "t*u[0] - x", "2*t^2*u[0]_xx + (t*u[0] - x)^2 + t*u[1]")
    )
    for row in law.fluxes:
        for k, slot in enumerate(row):
            for a in atoms_of(slot):
                if isinstance(a, Jet):
                    assert a.order <= k


def test_second_order_truncation_end_to_end():
    # the machinery is order-generic: at p = 2 the unit multiplier still
    # solves, reconstructs, and identity-verifies with three series slots
    pb = parse_problem_text(
        "independent = t, x\ndependent = u\norder = 2\n"
        "equation = u_t - u^-2*u_xx + 2*u^-3*u_x^2 - eps*(1 + u^-2)*u_x\n"
        "leading = u_t\n"
    ).problem
    res = solve_multipliers(pb, AnsatzSpec((), 0), "consistent")
    assert len(res.basis) == 3  # {1, eps, eps^2}
    unit = next(cm for cm in res.classified if not cm.trivial)
    law = reconstruct(pb, unit.mult)
    assert len(law.fluxes[0]) == 3
    assert all(r.is_zero() for r in identity_residuals(*law_slots(pb, law)))


def test_approach_a_reconstruction(diffusion):
    tab = diffusion.table
    P = lambda s: normalize(parse(s, tab))
    m = MultiplierSet("approach_a", ((P("x"), P("t + x^2/2")),))
    law = reconstruct(diffusion, m)
    assert all(r.is_zero() for r in identity_residuals(*law_slots(diffusion, law)))


def test_approach_b_reconstruction(diffusion):
    tab = diffusion.table
    P = lambda s: normalize(parse(s, tab))
    m = MultiplierSet("approach_b", ((P("t + x^2/2"), P("x")),))
    law = reconstruct(diffusion, m)
    assert all(r.is_zero() for r in identity_residuals(*law_slots(diffusion, law)))
    assert len(law.fluxes[0]) == 1


def test_non_identity_reconstruction_is_a_typed_error(diffusion, monkeypatch):
    import approxlaws.fluxes as fluxes

    monkeypatch.setattr(fluxes, "identity_residuals", lambda targets, divs: [normalize(1)])
    with pytest.raises(ReconstructionError, match="non-identity"):
        reconstruct(diffusion, mult(diffusion, "1", "0"))


def _printed(law, table):
    return [[print_poly(s, table) for s in row] for row in law.fluxes]


@pytest.mark.parametrize("entry_id", corpus.ENTRY_IDS)
def test_memo_of_inverted_blocks_changes_no_flux(entry_id):
    # each law reconstructed on a fresh problem prints the fluxes it prints on
    # one problem that first inverted every law of the entry, eps-multiples
    # included
    entry = corpus.load(entry_id)
    warm = entry.problem
    added = {}
    for cl in entry.laws:
        before = len(warm.inverted_blocks)
        reconstruct(warm, cl.law.mult)
        added[cl.label] = len(warm.inverted_blocks) - before
    for cl in entry.laws:
        fresh = PdeProblem(warm.table, warm.eqns, warm.leading, warm.p, name=warm.name)
        cold_law = reconstruct(fresh, cl.law.mult)
        warm_law = reconstruct(warm, cl.law.mult)
        assert _printed(warm_law, warm.table) == _printed(cold_law, warm.table), cl.label
    # an eps-multiple's slot k+1 is its source law's slot k, inverted once
    shifted = {label: n for label, n in added.items() if label.endswith("*eps")}
    assert shifted == dict.fromkeys(shifted, 0)
    if entry_id == "kdv-burgers":
        assert list(shifted) == ["1*eps", "2*eps", "3*eps"]
        assert all(added[n] > 0 for n in ("1", "2", "3"))
