"""Problem loading, Cauchy-Kovalevskaya validation, on-solution reduction."""

import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from approxlaws import corpus, normalize, parse, problem
from approxlaws.parser import ParseError
from approxlaws.atoms import FuncAtom, Jet
from approxlaws.expr import NormalForm, atom_poly, partial, pow_int
from approxlaws.jets import collect_eps, expand_epsilon, join_eps, total_derivative
from approxlaws.problem import (
    InconclusiveReduction,
    PdeProblem,
    ProblemError,
    load_problem_file,
    parse_problem_text,
)


def test_expanded_slots_match_hand_expansion(diffusion):
    tab = diffusion.table
    P = lambda s: normalize(parse(s, tab))
    d0, d1 = diffusion.expanded_slots(0)
    assert d0 == P("u[0]_t - u[0]^-2*u[0]_xx + 2*u[0]^-3*u[0]_x^2")
    assert d1 == P(
        "u[1]_t + 2*u[0]^-3*u[1]*u[0]_xx - u[0]^-2*u[1]_xx"
        " - 6*u[0]^-4*u[1]*u[0]_x^2 + 4*u[0]^-3*u[0]_x*u[1]_x - (u[0]^-2 + 1)*u[0]_x"
    )


def test_unexpanded_slots_recombine_to_the_equation(diffusion, kdv):
    for pb in (diffusion, kdv):
        assert join_eps(pb.unexpanded_slots(0)) == pb.eqns[0]
    # at a higher truncation order the slots above the eps-degree are zero
    pb2 = PdeProblem(kdv.table, kdv.eqns, kdv.leading, 2)
    slots = pb2.unexpanded_slots(0)
    assert len(slots) == 3 and slots[2].is_zero()
    assert join_eps(slots) == kdv.eqns[0]


def test_missing_leading_rejected():
    with pytest.raises(ProblemError):
        parse_problem_text(
            "independent = t, x\ndependent = u\norder = 1\n"
            "equation = u_x + u^2\nleading = u_t\n"
        )


def test_nonlinear_leading_rejected():
    with pytest.raises(ProblemError):
        parse_problem_text(
            "independent = t, x\ndependent = u\norder = 1\n"
            "equation = u_t^2 - u_x\nleading = u_t\n"
        )


def test_cauchy_kovalevskaya_violation():
    # remainder contains a derivative of the leading jet
    with pytest.raises(ProblemError):
        parse_problem_text(
            "independent = t, x\ndependent = u\norder = 1\n"
            "equation = u_t - u_tx\nleading = u_t\n"
        )


@pytest.mark.parametrize("lead1, lead2", [("u_t", "u_t"), ("u_t", "u_tx"), ("u_tx", "u_t")])
def test_a_leading_derivative_shared_or_derived_by_another_equation_is_rejected(lead1, lead2):
    # the reduction substitutes one equation per leading-derived jet, so one
    # of the two equations would never be used
    text = ("independent = t, x\ndependent = u, v\norder = 1\n"
            f"equation = {lead1} - u_xx - eps*v\nleading = {lead1}\nequation = {lead2} - v_x\nleading = {lead2}\n")
    with pytest.raises(ProblemError, match="equations 1 and 2: one leading derivative is the other"):
        parse_problem_text(text)


def test_eps_degree_above_order_rejected():
    with pytest.raises(ProblemError):
        parse_problem_text(
            "independent = t, x\ndependent = u\norder = 1\n"
            "equation = u_t + eps^2*u_x\nleading = u_t\n"
        )


def test_order_cap():
    with pytest.raises(ProblemError):
        parse_problem_text(
            "independent = t, x\ndependent = u\norder = 7\n"
            "equation = u_t + u_x\nleading = u_t\n"
        )


def test_unknown_key_rejected():
    with pytest.raises(ProblemError):
        parse_problem_text(
            "independent = t, x\ndependent = u\norder = 1\n"
            "equation = u_t + u_x\nleading = u_t\nbogus = 1\n"
        )


def test_reduce_on_solutions_equation_itself(diffusion):
    for slot in diffusion.expanded_slots(0):
        assert diffusion.reduce_on_solutions(slot).is_zero()


def test_reduce_on_solutions_with_consequences(kdv):
    tab = kdv.table
    P = lambda s: normalize(parse(s, tab))
    # D_x of the order-0 equation vanishes on solutions (one prolongation)
    d0 = kdv.expanded_slots(0)[0]
    assert kdv.reduce_on_solutions(total_derivative(d0, 1)).is_zero()
    # a non-conserved expression does not reduce to zero
    assert not kdv.reduce_on_solutions(P("u[0]_t")).is_zero()


def test_reduce_depth_bound(kdv, monkeypatch):
    # u_txxx alone needs the consequence u_txxx = D_xxx(rest): depth 3
    tab = kdv.table
    deep = normalize(parse("u[0]_txxx", tab))
    monkeypatch.setattr(problem, "MAX_PROLONGATION", 2)
    with pytest.raises(InconclusiveReduction):
        kdv.reduce_on_solutions(deep)
    monkeypatch.setattr(problem, "MAX_PROLONGATION", 3)
    assert kdv.reduce_on_solutions(deep) == normalize(parse(
        "-(u[0]*u[0]_xxxx + 4*u[0]_x*u[0]_xxx + 3*u[0]_xx^2) - u[0]_xxxxxx", tab))
    # D_t of the equation holds u_txxx too, but substituting u_tt first
    # cancels it: a jet past the bound is substituted only when no other is left
    d0 = kdv.expanded_slots(0)[0]
    dt = total_derivative(d0, 0)
    monkeypatch.setattr(problem, "MAX_PROLONGATION", 2)
    assert kdv.reduce_on_solutions(dt).is_zero()


def test_unexpanded_reduction_truncates(diffusion):
    # the unexpanded equation, as an approach-A series, reduces to zero modulo eps^2
    slots = collect_eps(diffusion.eqns[0], diffusion.p)
    assert all(red.is_zero() for red in diffusion.reduce_series_on_solutions(slots, "approach_a"))


def test_an_approach_a_series_that_does_not_expand_is_inconclusive():
    # f(u_x) has a derived argument, which the expansion refuses
    pb = parse_problem_text("independent = t, x\ndependent = u\nfunctions = f(u)\norder = 1\n"
                            "equation = u_t - u_xx\nleading = u_t\n").problem
    fux = NormalForm(atom_poly(FuncAtom("f", 0, Jet(0, None, (1,)))))
    with pytest.raises(InconclusiveReduction, match="expanding the series"):
        pb.reduce_series_on_solutions([fux, NormalForm({})], "approach_a")


def test_wave_leading_coefficient(wave):
    # leading u_tt carries coefficient -1/c^2; the rules are parameter-exact
    tab = wave.table
    P = lambda s: normalize(parse(s, tab))
    rest = expand_epsilon(P("c^2*(u_xx - lambda*u^3 - eps*f(u))"), wave.p)
    assert wave.solution_rules() == [(tab.jet("u", k, "tt"), rest[k]) for k in range(wave.p + 1)]


@pytest.mark.parametrize("p", [1, 2, 3])
@pytest.mark.parametrize("entry_id", corpus.ENTRY_IDS)
def test_solution_rules_are_the_expanded_remainders(entry_id, p):
    # the rules read off the equations' expansion are the slots of the
    # expanded remainder (q*lead - eqn)/q, q the leading coefficient
    pb = load_problem_file(f"{corpus.__path__[0]}/data/{entry_id}.prob").problem
    pb = PdeProblem(pb.table, pb.eqns, pb.leading, p)
    expected = []
    for eqn, lead in zip(pb.eqns, pb.leading):
        q = partial(eqn, lead)
        rest = expand_epsilon((q * lead - eqn) * pow_int(q, -1), p)
        expected += [(lead.with_order(k), rest[k]) for k in range(p + 1)]
    assert pb.solution_rules() == expected


def test_multi_equation_expected_blocks():
    pf = parse_problem_text(
        "independent = t, x\ndependent = u, v\norder = 1\n"
        "equation = u_t + v_x\nequation = v_t + u_x\n"
        "leading = u_t\nleading = v_t\n"
        "multiplier.1.1.0 = u[0]\nmultiplier.1.2.0 = v[0]\n"
        "flux.1.t.0 = u[0]^2/2 + v[0]^2/2\nflux.1.x.0 = u[0]*v[0]\n"
    )
    law = pf.expected[0]
    assert law.mult == {(0, 0): ("<problem>:8", "u[0]"), (1, 0): ("<problem>:9", "v[0]")}
    assert (0, 0) in law.flux and (1, 0) in law.flux


def test_load_parses_only_equations_and_leading(monkeypatch):
    # a law's multiplier and flux texts wait for corpus.recorded_laws
    path = corpus.__path__[0] + "/data/kaup-newell.prob"
    lines = [line.partition("=") for line in open(path, encoding="utf-8")]
    header = [v.strip() for k, _, v in lines if k.strip() in ("equation", "leading")]
    parsed = []
    real = problem.parse

    def recording(text, table):
        parsed.append(text)
        return real(text, table)

    monkeypatch.setattr(problem, "parse", recording)
    pf = load_problem_file(path)
    assert sorted(parsed) == sorted(header) and len(header) == 4
    assert len(pf.expected) > 0


_LAW = "independent = t, x\ndependent = u\norder = 1\nequation = u_t + u_x\nleading = u_t\n"


@pytest.mark.parametrize(
    "extra, message",
    [
        ("order = 2\n", "<problem>:6: order is already given on line 3"),
        ("dependent = v\n", "<problem>:6: dependent is already given on line 2"),
        ("hint.mult_degree = 1\nhint.mult_degree = 2\n",
         "<problem>:7: hint.mult_degree is already given on line 6"),
        ("multiplier.1.0 = 1\nmultiplier.1.0 = 2\n", "<problem>:7: multiplier.1.0 is already given on line 6"),
        ("multiplier.1.0 = 1\nmultiplier.1.1.0 = 2\n", "<problem>:7: multiplier.1.1.0 is already given on line 6"),
        ("multiplier.1.0 = 1\nflux.1.t.0 = u[0]\nflux.1.t.0 = 0\n",
         "<problem>:8: flux.1.t.0 is already given on line 7"),
        ("multiplier.1.0 = 1\nexpected.1.status = identity\nexpected.1.status = onsolution\n",
         "<problem>:8: expected.1.status is already given on line 7"),
        ("expected.2.status = identity\n", "law 2 has no multiplier.2.* line"),
        ("flux.1.t.0 = u[0]\n", "law 1 has no multiplier.1.* line"),
        ("multiplier.1.0 = 1\nepsilon_shifts = 1, 1\n", "<problem>:7: epsilon_shifts names law 1 twice"),
    ],
)
def test_repeated_or_empty_law_entries_rejected(extra, message):
    with pytest.raises(ProblemError, match=re.escape(message)):
        parse_problem_text(_LAW + extra)


_DECLS = ("name = d\nindependent = t, x\ndependent = u\nparameters = c\nfunctions = f(u)\n"
          "order = 1\nequation = u_t - u_xx\nleading = u_t\n")


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("functions = f(u)", "functions = f(u", "<problem>:5: malformed function declaration 'f(u'"),
        ("functions = f(u)", "functions = f(v)", "<problem>:5: function f argument 'v' is not a dependent"),
        ("dependent = u", "dependent = u, u", "<problem>:3: duplicate symbol name 'u'"),
        ("independent = t, x", "independent = t, eps", "<problem>:2: 'eps' is a reserved word"),
        ("parameters = c", "parameters = der", "<problem>:4: 'der' is a reserved word"),
        ("parameters = c", "parameters = x", "<problem>:4: duplicate symbol name 'x'"),
        ("functions = f(u)", "functions = f(u), f(u)", "<problem>:5: duplicate symbol name 'f'"),
        ("functions = f(u)", "functions = c(u)", "<problem>:5: duplicate symbol name 'c'"),
        # a declared name the parser could never read back
        ("parameters = c", "parameters = a b", "<problem>:4: 'a b' is not a name"),
        ("parameters = c", "parameters = a-b", "<problem>:4: 'a-b' is not a name"),
        ("dependent = u", "dependent = u, v[0]", "<problem>:3: 'v[0]' is not a name"),
        ("independent = t, x", "independent = t, 2x", "<problem>:2: '2x' is not a name"),
        ("functions = f(u)", "functions = f_1(u)", "<problem>:5: 'f_1' is not a name"),
    ],
)
def test_declaration_errors_name_their_line(old, new, message):
    with pytest.raises(ProblemError, match=re.escape(message)):
        parse_problem_text(_DECLS.replace(old, new))


def test_repeated_name_names_the_later_declaration():
    text = "parameters = t\n" + _DECLS.replace("parameters = c\n", "")
    with pytest.raises(ProblemError, match=re.escape("<problem>:3: duplicate symbol name 't'")):
        parse_problem_text(text)


def test_unknown_hint_rejected():
    text = _DECLS + "hint.mult_deps = t, x, u[0]\nhint.mult_degre = 2\n"
    with pytest.raises(ProblemError, match=re.escape("<problem>:10: unknown hint 'hint.mult_degre'")):
        parse_problem_text(text)
    hints = parse_problem_text(_DECLS + "hint.mult_xdegree = 1\nhint.laurent = u[0]:-2\n").hints
    assert hints == {"mult_xdegree": "1", "laurent": "u[0]:-2"}


_HEADER = "independent = t, x\ndependent = u, v\nparameters = c\nfunctions = f(u)\norder = 1\n"
_KEYS = (
    "name", "method", "independent", "dependent", "parameters", "functions", "order",
    "equation", "leading", "epsilon_shifts", "note", "hint.mult_deps", "multiplier.1.0",
    "multiplier.1.2.1", "multiplier.x", "flux.1.x.0", "flux.1.y.0", "expected.1.status",
)
_TOKENS = (
    "u", "v", "t", "x", "c", "w", "u_t", "u_x", "v_xx", "u_y", "eps", "f(u)", "f'(v)", "f(",
    "der(u, x)", "der(u)", "der(", "u[0]", "u[1]_x", "u[", "[2]", "+", "-", "*", "/", "^",
    "0", "2", "-1", "7", "(", ")", " ", ",", ":", "_", "'", "#", "=", "consistent", "identity",
)
_values = st.one_of(st.text(max_size=20), st.lists(st.sampled_from(_TOKENS), max_size=12).map("".join))
_lines = st.one_of(
    st.text(max_size=30),
    st.tuples(st.one_of(st.sampled_from(_KEYS), st.text(max_size=8)), _values).map(" = ".join),
)


@settings(max_examples=300, deadline=None)
@given(st.booleans(), st.lists(_lines, max_size=8))
@example(True, ["equation = u^\u00b2"])  # a digit int() rejects
def test_problem_text_fuzz_raises_only_input_errors(header, lines):
    text = (_HEADER if header else "") + "\n".join(lines)
    try:
        corpus.recorded_laws(parse_problem_text(text))
    except (ProblemError, ParseError):
        pass


def _drift_problem(equation):
    return parse_problem_text("independent = t, x\ndependent = u\norder = 1\n"
                              f"equation = {equation}\nleading = u_t\n").problem


def test_a_substitution_outside_the_normal_forms_is_inconclusive():
    # u[0]_t -> u[0]_xx + u[0]_x cannot be raised to the -1
    pb = _drift_problem("u_t - u_xx - u_x")
    with pytest.raises(InconclusiveReduction, match="negative powers"):
        pb.reduce_on_solutions(parse("u[0]_t^-1", pb.table))


def test_a_substitution_is_counted_before_it_expands(monkeypatch):
    # u[0]_t -> u[0]_xx + u[0]_x (k = 2) in u[0]_t^2 + u[0]_x makes at most
    # C(2+1, 1) + 1 = 4 terms, the parser's power count; a bound of 3 refuses it
    pb = _drift_problem("u_t - u_xx - u_x")
    e = parse("u[0]_t^2 + u[0]_x", pb.table)
    monkeypatch.setattr(problem, "MAX_TERMS", 3)
    with pytest.raises(InconclusiveReduction, match="more than 3 terms"):
        pb.reduce_on_solutions(e)
    monkeypatch.setattr(problem, "MAX_TERMS", 4)
    assert pb.reduce_on_solutions(e) == parse("(u[0]_xx + u[0]_x)^2 + u[0]_x", pb.table)


def test_a_substitution_is_bounded_in_digits_before_it_expands():
    # u[0]_t -> 10^3999*u[0]_xx: squared, its coefficient would pass MAX_DIGITS,
    # the bound a parsed power is held to; to the first power it substitutes
    pb = _drift_problem("u_t - 10^3999*u_xx")
    with pytest.raises(InconclusiveReduction, match="more than 4000 digits"):
        pb.reduce_on_solutions(parse("u[0]_t^2", pb.table))
    assert pb.reduce_on_solutions(parse("u[0]_t", pb.table)) == parse("10^3999*u[0]_xx", pb.table)
