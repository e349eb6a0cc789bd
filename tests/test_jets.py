"""Jet-space operators: total derivatives, expansion, recursion, Euler."""

import pytest

from approxlaws import (
    FuncAtom,
    Jet,
    UnsupportedFormError,
    collect_eps,
    euler,
    expand_epsilon,
    join_eps,
    mul,
    normalize,
    recursion_R,
    total_derivative,
)
from approxlaws import kernel
from approxlaws.expr import as_poly
from approxlaws.jets import series_mul

from conftest import expand_epsilon_substitution


def test_total_derivative_chain(table, P):
    assert total_derivative(P("u[0]^2"), 1) == P("2*u[0]*u[0]_x")


def test_total_derivative_of_coordinate(table):
    x = table.indep[1]
    assert total_derivative(normalize(x), 0).is_zero()
    assert total_derivative(normalize(x), 1) == normalize(1)


def test_total_derivative_product(table, P):
    # brute-force term-by-term differentiation of (t u0 - x) u0_x in t
    e = P("(t*u[0] - x)*u[0]_x")
    expected = P("u[0]*u[0]_x + t*u[0]_t*u[0]_x + (t*u[0] - x)*u[0]_tx")
    assert total_derivative(e, 0) == expected


def test_total_derivative_function_chain(table, P):
    assert total_derivative(P("f(u[0])"), 1) == P("f'(u[0])*u[0]_x")


def test_expand_square(P):
    s = expand_epsilon(P("u^2"), 1)
    assert s[0] == P("u[0]^2")
    assert s[1] == P("2*u[0]*u[1]")


def test_expand_laurent(P):
    # geometric-series oracle: (1+w)^-1 = 1 - w + O(w^2)
    s = expand_epsilon(P("u - u^-1"), 1)
    assert s[0] == P("u[0] - u[0]^-1")
    assert s[1] == P("u[1] + u[0]^-2*u[1]")


def test_expand_function_taylor(P):
    s = expand_epsilon(P("f(u)"), 1)
    assert s[0] == P("f(u[0])")
    assert s[1] == P("f'(u[0])*u[1]")


def test_expand_laurent_second_order(P):
    # (1+w)^-2 expansion through eps^2 against hand-computed slots
    s = expand_epsilon(P("u^-2"), 2)
    assert s[0] == P("u[0]^-2")
    assert s[1] == P("-2*u[0]^-3*u[1]")
    assert s[2] == P("-2*u[0]^-3*u[2] + 3*u[0]^-4*u[1]^2")


def test_expand_rejects_mixed(P):
    with pytest.raises(UnsupportedFormError):
        expand_epsilon(P("u + u[0]"), 1)


def test_expand_collect_only_checks_order_invariant(P):
    with pytest.raises(UnsupportedFormError):
        expand_epsilon(P("u[1]"), 1)  # order-1 jet in slot 0


def test_expand_rejects_what_recursion_would_misread(P):
    # R chains a function only through an underived argument; a derived
    # one is refused before R is applied
    derived = FuncAtom("f", 0, Jet(0, None, (1,)))
    with pytest.raises(UnsupportedFormError, match="underived"):
        expand_epsilon(normalize(derived), 1)


def test_expand_negative_eps_power_rejected(table):
    from approxlaws.expr import poly_pow, as_poly, NormalForm

    bad = NormalForm(poly_pow(as_poly(normalize(table.eps)), -1))
    with pytest.raises(UnsupportedFormError):
        collect_eps(bad)


def test_recursion_on_jets(table):
    u0, u1, u2 = (table.jet("u", k) for k in range(3))
    assert recursion_R(u0) == normalize(u1)
    assert recursion_R(u1) == mul(2, u2)
    assert recursion_R(normalize(7)).is_zero()
    assert recursion_R(table.indep[0]).is_zero()


def test_recursion_function_chain(table):
    f = table.func_atom("f", 0, order=0)
    u1 = table.jet("u", 1)
    f1 = table.func_atom("f", 1, order=0)
    assert recursion_R(f) == mul(f1, u1)


def test_euler_annihilates_divergence(P):
    pt = P("t*u[0]^2*u[0]_x + u[1]*u[0]_tx - v[0]^3")
    px = P("x^2*u[0]_t*u[1]_x - u[0]*v[0]_x")
    dv = total_derivative(pt, 0) + total_derivative(px, 1)
    for alpha in (0, 1):
        assert euler(dv, Jet(alpha, 0, ())).is_zero()


def test_euler_unexpanded_kdv_core(P, table):
    assert euler(P("u_t + u*u_x + u_xxx"), table.jet("u")).is_zero()


def test_euler_term_by_term(P, table):
    # E_{u0}(u0_t * u1) = -u1_t
    e = mul(table.jet("u", 0, ("t",)), table.jet("u", 1))
    assert euler(e, table.jet("u", 0)) == P("-u[1]_t")


def test_euler_per_order(P, table):
    # E_{u1}(u1_t * u0) = -u0_t
    e = P("u[1]_t*u[0]")
    assert euler(e, table.jet("u", 1)) == P("-u[0]_t")


def test_recursive_expansion_matches_direct(P):
    cases = ["u^2*v - t*u_x", "u - u^-1 + eps*u*v", "f(u)*u_x + eps*x", "c*u^3 - eps^1*v_t*u",
             "u_x^-2", "f''(u)*u_x^-1*v", "v^-3 + eps*u_xx^-1"]
    for text in cases:
        e = P(text)
        for p in (1, 2, 3):
            a = expand_epsilon(e, p)
            b = expand_epsilon_substitution(e, p)
            assert a == b, text


def test_series_reconstruct(P, table):
    e = P("u^2 - eps*u")
    s = expand_epsilon(e, 2)
    direct = P("u[0]^2 + 2*eps*u[0]*u[1] + eps^2*(u[1]^2 + 2*u[0]*u[2]) - eps*u[0] - eps^2*u[1]")
    assert join_eps(s) == direct


def test_series_mul_from_a_first_slot_forms_no_lower_product(P, monkeypatch):
    # slots first..p of the Cauchy product, with no product of slots
    # i + j < first formed
    s1 = [as_poly(P(t)) for t in ("u[0]", "x", "0", "u[0]^2")]
    s2 = [as_poly(P(t)) for t in ("1 + u[0]", "t", "u[1]")]
    p = 3
    full = series_mul(s1, s2, p)
    products = []
    poly_mul = kernel.poly_mul
    monkeypatch.setattr(kernel, "poly_mul", lambda a, b: products.append(1) or poly_mul(a, b))
    for first in range(p + 2):
        products.clear()
        assert series_mul(s1, s2, p, first) == full[first:]
        nonzero = [i + j for i, a in enumerate(s1) if a for j, b in enumerate(s2) if b]
        assert len(products) == sum(first <= k <= p for k in nonzero)
