"""Verification checks: identity, Euler, on-solutions, spot checks."""

import pytest

from approxlaws import normalize, parse
from approxlaws.expr import NormalForm
from approxlaws.fluxes import ConservationLaw, equivalent, reconstruct
from approxlaws.multipliers import MultiplierSet, certified_contraction, contraction, euler_residuals
from approxlaws.problem import parse_problem_text
from approxlaws.verify import (
    full_report,
    spot_check,
    verify_euler,
    verify_identity,
    verify_on_solutions,
)
from approxlaws import corpus


def law_of(entry_id, label):
    entry = corpus.load(entry_id)
    cl = next(c for c in entry.laws if c.label == label)
    return entry.problem, cl.law


def law_slots(pb, law):
    """A law's contraction targets and flux divergence, the slots the checks read."""
    return contraction(pb, law.mult), law.divergence_slots()


def test_diffusion_law2_identity():
    pb, law = law_of("diffusion-consistent", "2")
    assert verify_identity(*law_slots(pb, law)).passed


def test_mutated_flux_fails():
    pb, law = law_of("diffusion-consistent", "2")
    bad_row = (law.fluxes[0][0] + normalize(parse("u[0]", pb.table)), law.fluxes[0][1])
    bad = ConservationLaw(law.mult, (bad_row, law.fluxes[1]))
    rep = verify_identity(*law_slots(pb, bad))
    assert not rep.passed
    assert any(c.residual is not None and not c.residual.is_zero() for c in rep.failures())


def test_wave_identity_in_symbolic_parameters():
    pb, law = law_of("wave", "3")
    assert verify_identity(*law_slots(pb, law)).passed
    assert verify_euler(euler_residuals(pb, law.mult.method, contraction(pb, law.mult))).passed


def test_euler_diffusion_unit():
    pb, law = law_of("diffusion-consistent", "1")
    assert verify_euler(euler_residuals(pb, law.mult.method, contraction(pb, law.mult))).passed


def test_euler_rejects_time_derivative_multiplier(diffusion):
    tab = diffusion.table
    m = MultiplierSet(
        "consistent",
        ((normalize(parse("u[0]_t", tab)), NormalForm({})),),
    )
    assert not verify_euler(euler_residuals(diffusion, m.method, contraction(diffusion, m))).passed


def test_euler_zero_multiplier_vacuous(diffusion):
    m = MultiplierSet("consistent", ((NormalForm({}), NormalForm({})),))
    assert verify_euler(euler_residuals(diffusion, m.method, contraction(diffusion, m))).passed


def test_on_solutions_from_identity():
    pb, law = law_of("diffusion-consistent", "2")
    assert verify_on_solutions(pb, law.method, law.divergence_slots()).passed


def test_on_solutions_canonical_kdv(kdv):
    tab = kdv.table
    P = lambda s: normalize(parse(s, tab))
    m = MultiplierSet("consistent", ((P("1"), P("0")),))
    law = ConservationLaw(
        m,
        (
            (P("u[0]"), P("u[1]")),
            (P("u[0]^2/2 + u[0]_xx"), P("u[0]*u[1] + u[1]_xx - u[0]_x")),
        ),
    )
    assert verify_on_solutions(kdv, law.method, law.divergence_slots()).passed


def test_on_solutions_not_conserved(kdv):
    tab = kdv.table
    P = lambda s: normalize(parse(s, tab))
    m = MultiplierSet("consistent", ((P("1"), P("0")),))
    law = ConservationLaw(m, ((P("u[0]"), P("u[1]")), (NormalForm({}), NormalForm({}))))
    assert not verify_on_solutions(kdv, law.method, law.divergence_slots()).passed


def test_a_law_or_a_spot_check_with_missing_flux_slots_is_refused():
    # kdv-burgers law 2 with every flux row cut to slot 0: paired by zip with
    # the two contraction slots, the unmatched slot 1 would drop out of every
    # check and the law would certify as an identity
    pb, law = law_of("kdv-burgers", "2")
    cut = tuple(row[:1] for row in law.fluxes)
    with pytest.raises(ValueError, match="needs 2 slots"):
        ConservationLaw(law.mult, cut)
    targets, divs = law_slots(pb, law)
    with pytest.raises(ValueError, match="2 contraction slots against 1 divergence slots"):
        spot_check(targets, divs[:1])
    # an approach-B law holds one exact flux slot per direction
    pb, law = law_of("diffusion-approach-b", "1")
    with pytest.raises(ValueError, match="needs 1 slots"):
        ConservationLaw(law.mult, tuple(row * 2 for row in law.fluxes))


def test_spot_check_exact_zeros():
    pb, law = law_of("diffusion-consistent", "1")
    rep = spot_check(*law_slots(pb, law), trials=20, seed=11)
    assert rep.passed and len(rep.checks) == 20


def test_spot_check_finds_witness():
    pb, law = law_of("diffusion-consistent", "1")
    bad_row = (law.fluxes[0][0] + normalize(parse("u[0]^2", pb.table)), law.fluxes[0][1])
    bad = ConservationLaw(law.mult, (bad_row, law.fluxes[1]))
    rep = spot_check(*law_slots(pb, bad), trials=3, seed=11)
    assert not rep.passed
    assert any(c.witness for c in rep.failures())


def test_spot_check_resamples_an_evaluation_singularity(monkeypatch, table):
    # the first draw of each check sets every function sample to zero, a
    # singularity of f(u[0])^-1; a second attempt resamples past it
    from approxlaws import verify
    from approxlaws.atoms import intern

    side = [NormalForm({(intern(table.func_atom("f", 0, 0)), -1): 1})]
    draw = verify._sample_point
    calls = []

    def zero_first(atoms, laurent, rng):
        point, fvals = draw(atoms, laurent, rng)
        calls.append(rng)
        return point, (fvals if len(calls) > 1 else dict.fromkeys(fvals, 0))

    monkeypatch.setattr(verify, "_sample_point", zero_first)
    for max_retries, witness in ((1, "evaluation singularity persisted across retries"), (2, None)):
        calls.clear()
        monkeypatch.setattr(verify, "MAX_RETRIES", max_retries)
        (check,) = spot_check(side, side, trials=1).checks
        assert (check.passed, check.witness) == (witness is None, witness)
        assert len(calls) == max_retries


def test_spot_check_deterministic():
    pb, law = law_of("wave", "1")
    a = spot_check(*law_slots(pb, law), trials=4, seed=5)
    b = spot_check(*law_slots(pb, law), trials=4, seed=5)
    assert [c.passed for c in a.checks] == [c.passed for c in b.checks]
    # distinct seeds explore distinct points: compare recorded witnesses via a
    # mutated law
    bad_row = (law.fluxes[0][0] + normalize(parse("u[0]", pb.table)), law.fluxes[0][1])
    bad = ConservationLaw(law.mult, (bad_row, law.fluxes[1]))
    wa = spot_check(*law_slots(pb, bad), trials=2, seed=5)
    wb = spot_check(*law_slots(pb, bad), trials=2, seed=5)
    assert [c.witness for c in wa.checks] == [c.witness for c in wb.checks]


def test_euler_check_names_follow_the_coordinates():
    # one check per (coordinate, slot); an approach-B contraction has one slot
    names = {
        "nls2": ["<jet d0[0]>, slot 0", "<jet d0[0]>, slot 1", "<jet d1[0]>, slot 0", "<jet d1[0]>, slot 1"],
        "diffusion-approach-a": ["<jet d0>, slot 0", "<jet d0>, slot 1"],
        "diffusion-approach-b": ["<jet d0[0]>, slot 0", "<jet d0[1]>, slot 0"],
    }
    for eid, want in names.items():
        pb, law = law_of(eid, "1")
        checks = full_report(pb, law, trials=1)["reports"]["euler"].checks
        assert [c.name for c in checks] == [f"euler[{n}]" for n in want], eid


def test_implication_chain_on_corpus():
    # identity pass -> on-solutions pass -> spot pass, across one entry per kind
    for eid in ("diffusion-consistent", "wave", "nls2"):
        entry = corpus.load(eid)
        for cl in entry.laws:
            idrep = verify_identity(*law_slots(entry.problem, cl.law))
            if idrep.passed:
                assert verify_on_solutions(entry.problem, cl.law.method, cl.law.divergence_slots()).passed
                assert spot_check(*law_slots(entry.problem, cl.law), trials=2).passed


def test_contraction_and_divergence_computed_once_per_law(monkeypatch):
    # reconstruct and full_report of one multiplier set share its contraction
    # and Euler residuals; a law's divergence is computed once however often
    # it is read
    import approxlaws.fluxes as fluxes
    import approxlaws.multipliers as multipliers

    calls = {"contraction": 0, "euler_residuals": 0, "divergence": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("contraction", "euler_residuals"):
        monkeypatch.setattr(multipliers, name, counted(name, getattr(multipliers, name)))
    monkeypatch.setattr(fluxes, "_divergence", counted("divergence", fluxes._divergence))
    for entry_id, label, status in (("diffusion-consistent", "2", "identity"),
                                    ("kdv-burgers", "4", "onsolution")):
        pb, law = law_of(entry_id, label)
        mult = MultiplierSet(law.mult.method, law.mult.slots)  # nothing computed yet
        law = ConservationLaw(mult, law.fluxes)
        calls.update(contraction=0, euler_residuals=0, divergence=0)
        rebuilt = reconstruct(pb, mult)
        rebuilt.divergence_slots()
        assert calls == {"contraction": 1, "euler_residuals": 1, "divergence": 1}
        assert full_report(pb, law, trials=2)["status"] == status
        assert full_report(pb, rebuilt, trials=2)["status"] == "identity"
        law.divergence_slots()
        assert calls == {"contraction": 1, "euler_residuals": 1, "divergence": 2}


def _report_digest(fr):
    return fr["status"], {
        name: [(c.name, c.passed, c.residual, c.witness) for c in rep.checks]
        for name, rep in fr["reports"].items()
    }


def test_full_report_after_reconstruct_equals_fresh_report():
    # the shared contraction and residuals are exactly what a fresh multiplier
    # set computes: every check's name, pass flag, residual and witness agree
    for entry_id in corpus.ENTRY_IDS:
        entry = corpus.load(entry_id)
        for cl in entry.laws:
            mult = cl.law.mult
            fresh = ConservationLaw(MultiplierSet(mult.method, mult.slots), cl.law.fluxes)
            reconstruct(entry.problem, mult)
            shared = full_report(entry.problem, cl.law, trials=2)
            assert _report_digest(shared) == _report_digest(full_report(entry.problem, fresh, trials=2))


def test_one_multiplier_set_certified_against_two_problems():
    # the set keeps the first problem's contraction; the second problem
    # still gets its own targets
    p1 = parse_problem_text("independent = t, x\ndependent = u\norder = 1\n"
                            "equation = u_t - u_xx - eps*u_x\nleading = u_t\n").problem
    p2 = parse_problem_text("independent = t, x\ndependent = u\norder = 1\n"
                            "equation = u_t - u_xx - eps*u^2\nleading = u_t\n").problem
    m = MultiplierSet("consistent", ((normalize(parse("u[0]", p1.table)), NormalForm({})),))
    for pb in (p1, p2, p1, p2):
        targets, residuals = certified_contraction(pb, m)
        assert targets == contraction(pb, m)
        assert [r for _, _, r in residuals] == [r for _, _, r in euler_residuals(pb, m.method, targets)]
    assert certified_contraction(p1, m)[0] != certified_contraction(p2, m)[0]


def test_full_report_statuses(kdv):
    # the published KdV law 4 certifies on-solution, not identity
    pb, law = law_of("kdv-burgers", "4")
    fr = full_report(pb, law, trials=2)
    assert fr["status"] == "onsolution"


# The zero multiplier with the fluxes (u_x, -u_xx - eps*u_x) of
# u_t - u_xx - eps*u_x: the divergence is D_x of the equation, so the law holds
# on solutions only.  Eliminating u_t from slot 0 of the divergence brings an
# eps*u_xx term that belongs to slot 1, where it cancels.
DRIFT_LAW = {
    "approach_a": ("u_x", "0", "-u_xx", "-u_x"),
    "consistent": ("u[0]_x", "u[1]_x", "-u[0]_xx", "-u[1]_xx - u[0]_x"),
}


@pytest.mark.parametrize("method", sorted(DRIFT_LAW))
def test_on_solutions_carries_eps_terms_to_later_slots(method):
    t0, t1, x0, x1 = DRIFT_LAW[method]
    pf = parse_problem_text(
        f"method = {method}\nindependent = t, x\ndependent = u\norder = 1\n"
        "equation = u_t - u_xx - eps*u_x\nleading = u_t\n"
        "multiplier.1.0 = 0\nmultiplier.1.1 = 0\n"
        f"flux.1.t.0 = {t0}\nflux.1.t.1 = {t1}\nflux.1.x.0 = {x0}\nflux.1.x.1 = {x1}\n"
        "expected.1.status = onsolution\n"
    )
    (cl,) = corpus.recorded_laws(pf)
    assert verify_on_solutions(pf.problem, method, cl.law.divergence_slots()).passed
    assert full_report(pf.problem, cl.law, trials=1)["status"] == cl.expected_status


# A t flux that is the KdV-Burgers equation itself, slot by slot: its
# divergence D_t(equation) holds u_tt and u_txxx, and u_txxx, past the
# prolongation bound, cancels once u_tt is substituted
KDV_FLUX = {
    "approach_a": ("u_t + u*u_x + u_xxx", "-u_xx"),
    "consistent": ("u[0]_t + u[0]*u[0]_x + u[0]_xxx", "u[1]_t + u[0]*u[1]_x + u[1]*u[0]_x + u[1]_xxx - u[0]_xx"),
}


@pytest.mark.parametrize("method", sorted(KDV_FLUX))
def test_a_jet_past_the_prolongation_bound_that_cancels_leaves_the_check_conclusive(method):
    t0, t1 = KDV_FLUX[method]
    pf = parse_problem_text(
        f"method = {method}\nindependent = t, x\ndependent = u\norder = 1\n"
        "equation = u_t + u*u_x + u_xxx - eps*u_xx\nleading = u_t\n"
        f"multiplier.1.0 = 0\nflux.1.t.0 = {t0}\nflux.1.t.1 = {t1}\n"
    )
    (cl,) = corpus.recorded_laws(pf)
    assert full_report(pf.problem, cl.law, trials=1)["status"] == "onsolution"


def test_an_on_solution_reduction_outside_the_normal_forms_fails_the_check():
    # identity fails, and eliminating u[0]_t would raise the sum
    # u[0]_xx + u[0]_x to the -1: the check fails with the reason as its
    # witness, and a flux difference that needs that reduction is distinct
    # with a warning
    pf = parse_problem_text("independent = t, x\ndependent = u\norder = 1\n"
                            "equation = u_t - u_xx - u_x\nleading = u_t\n"
                            "multiplier.1.0 = 0\nflux.1.x.0 = u[0]_t^-1\n")
    (cl,) = corpus.recorded_laws(pf)
    (check,) = verify_on_solutions(pf.problem, cl.law.method, cl.law.divergence_slots()).checks
    assert not check.passed and "negative powers" in check.witness
    assert full_report(pf.problem, cl.law, trials=1)["status"] == "fail"
    zero = ConservationLaw(cl.law.mult, [[NormalForm({})] * 2] * 2)
    assert equivalent(cl.law, zero, pf.problem) == "distinct-with-warning"
