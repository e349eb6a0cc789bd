from fractions import Fraction

import pytest

from approxlaws import FuncAtom, Jet, NormalForm, SymbolTable, collect_eps, normalize, parse, recursion_R, substitute
from approxlaws import kernel, linalg
from approxlaws.atoms import atom_at
from approxlaws.expr import as_poly, poly_atom_ids
from approxlaws.multipliers import _decompose_by_unknown, _keyed_coefficients, _slot_coefficients
from approxlaws.problem import parse_problem_text

DIFFUSION = """
name = diffusion
independent = t, x
dependent = u
order = 1
equation = u_t - u^-2*u_xx + 2*u^-3*u_x^2 - eps*(1 + u^-2)*u_x
leading = u_t
"""

KDV = """
name = kdv-burgers
independent = t, x
dependent = u
order = 1
equation = u_t + u*u_x + u_xxx - eps*u_xx
leading = u_t
"""

WAVE = """
name = wave
independent = t, x
dependent = u
parameters = c, lambda
functions = f(u)
order = 1
equation = u_xx - 1/c^2*u_tt - lambda*u^3 - eps*f(u)
leading = u_tt
"""


@pytest.fixture
def table():
    return SymbolTable(["t", "x"], ["u", "v"], ["c"], [("f", "u")])


@pytest.fixture
def diffusion():
    return parse_problem_text(DIFFUSION).problem


@pytest.fixture
def kdv():
    return parse_problem_text(KDV).problem


@pytest.fixture
def wave():
    return parse_problem_text(WAVE).problem


@pytest.fixture
def P(table):
    """Parse + normalize in the shared two-variable context."""
    return lambda s: normalize(parse(s, table))


def expand_epsilon_recursive(e, p: int) -> list:
    """An oracle for :func:`approxlaws.expand_epsilon`: the expansion built by
    the recursion operator instead of substitution.  Slot 0 is e at eps=0
    with variables replaced by their order-0 coordinates, and slot k+1 =
    R[slot k]/(k+1).  Explicit eps content is collected first and shifted
    in."""
    out = [dict() for _ in range(p + 1)]
    subs0 = {}

    def order0(poly):
        for aid in poly_atom_ids(poly):
            a = atom_at(aid)
            if isinstance(a, Jet) and a.order is None:
                subs0[a] = a.with_order(0)
            elif isinstance(a, FuncAtom) and a.arg.order is None:
                subs0[a] = FuncAtom(a.fname, a.nd, a.arg.with_order(0))
        return substitute(NormalForm(poly), subs0)

    for shift, part in enumerate(collect_eps(e, p)):
        slot = order0(part)
        kernel.poly_iadd(out[shift], as_poly(slot))
        for k in range(p - shift):
            slot = NormalForm(kernel.poly_scale(as_poly(recursion_R(slot)), Fraction(1, k + 1)))
            kernel.poly_iadd(out[shift + k + 1], as_poly(slot))
    return [NormalForm(d) for d in out]


# the ansatz last passed to coefficient_vector -> its keyed coefficient
# columns; tests check many sets against one ansatz in a row
_columns: dict = {}


def coefficient_vector(mult, ansatz, unknowns) -> tuple | None:
    """Express a concrete multiplier set in the ansatz coefficient space, or
    None if it does not fit (used for span-membership tests)."""
    columns = _columns.get(ansatz)
    if columns is None:
        _columns.clear()
        columns = _columns[ansatz] = {
            s: _keyed_coefficients(pieces) for s, pieces in _decompose_by_unknown(ansatz).items()
        }
    return linalg.in_span([columns[s] for s in unknowns], _slot_coefficients(mult))
