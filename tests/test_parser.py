"""Grammar front-end: token forms, precedence, error positions."""

import pytest

from approxlaws import NormalForm, SymbolTable, UnsupportedFormError, normalize, parse
from approxlaws.parser import ParseError


def test_precedence_and_right_assoc_power(table):
    assert normalize(parse("2^3^2", table)) == normalize(512)
    assert normalize(parse("3/2*x", table)) == normalize(parse("(3/2)*x", table))
    assert normalize(parse("-u^2", table)) == normalize(parse("-(u^2)", table))
    assert normalize(parse("1 - 2 - 3", table)) == normalize(-4)


def test_rational_literals(table):
    assert normalize(parse("3/4", table)) == normalize(parse("6/8", table))


def test_derivative_shorthand_equals_der(table):
    assert normalize(parse("u_tx", table)) == normalize(parse("der(u, t, x)", table))
    assert normalize(parse("u_xt", table)) == normalize(parse("u_tx", table))
    assert normalize(parse("u[1]_x", table)) == normalize(parse("der(u[1], x)", table))


def test_expansion_components(table):
    u0 = table.jet("u", 0)
    u1x = table.jet("u", 1, ("x",))
    assert normalize(parse("u[0]", table)) == normalize(u0)
    assert normalize(parse("u[1]_x", table)) == normalize(u1x)


def test_function_primes(table):
    f2 = table.func_atom("f", 2)
    assert normalize(parse("f''(u)", table)) == normalize(f2)


def test_parse_builds_normal_forms(table):
    assert isinstance(parse("u*(u + 1) - 2/4", table), NormalForm)
    with pytest.raises(UnsupportedFormError):
        parse("1/(u+1)", table)


def test_eps_reserved():
    with pytest.raises(ValueError):
        SymbolTable(["t"], ["eps"])


def test_undeclared_identifier(table):
    with pytest.raises(ParseError) as err:
        parse("u + w", table)
    assert "undeclared" in str(err.value)
    assert err.value.pos is not None


def test_derivative_of_non_dependent(table):
    with pytest.raises(ParseError) as err:
        parse("x_t", table)
    assert "non-dependent" in str(err.value)


def test_syntax_error_position(table):
    with pytest.raises(ParseError) as err:
        parse("u + ", table)
    assert err.value.pos is not None


def test_exponent_must_be_literal(table):
    with pytest.raises(ParseError):
        parse("u^x", table)


def test_bad_suffix_letter(table):
    with pytest.raises(ParseError):
        parse("u_ty", table)  # y is not an independent variable


def test_function_argument_validation(table):
    with pytest.raises(ParseError):
        parse("f(v)", table)  # f was declared on u
    with pytest.raises(ParseError):
        parse("f(u[1])", table)
    with pytest.raises(ParseError, match=r"^function argument must be an underived dependent variable "
                                         r"\(at position 3\)$"):
        parse("f(u_x)", table)
    with pytest.raises(ParseError, match=r"^der\(\) subject must be an underived dependent variable "
                                         r"\(at position 5\)$"):
        parse("der(u_x, t)", table)


@pytest.mark.parametrize("text, pos", [("u[x]", 2), ("der(u[x], x)", 6), ("f(u[x])", 4)])
def test_expansion_order_must_be_an_integer(table, text, pos):
    with pytest.raises(ParseError, match=rf"^expansion order must be an integer \(at position {pos}\)$"):
        parse(text, table)


def test_coefficient_digit_bound(table):
    # a coefficient of MAX_DIGITS digits parses and prints; one digit more,
    # or a power or product that reaches it, is a ParseError
    from approxlaws import print_poly
    from approxlaws.parser import MAX_DIGITS

    top = "9" * MAX_DIGITS
    for text in (top + "*u", "u/" + top, "(" + top + ")^1", "2^13287*u", "(1/2)^13287*u"):
        e = parse(text, table)
        assert parse(print_poly(e, table), table) == e
    for text in ("9" * (MAX_DIGITS + 1) + "*u", "2^13288*u", top + "*10", "(" + top + "*u)^2",
                 "u/" + top + " + u/" + "7" * MAX_DIGITS, "(10^3000)*(10^3000)*u"):
        with pytest.raises(ParseError):
            parse(text, table)
    # a product is bounded once formed, so its fractions may cancel
    assert parse("10^3000/3/10^3000*u", table) == parse("u/3", table)
