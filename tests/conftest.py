import math
from fractions import Fraction

import pytest

from approxlaws import FuncAtom, Jet, NormalForm, SymbolTable, collect_eps, normalize, parse
from approxlaws import kernel, linalg
from approxlaws.atoms import atom_at, intern
from approxlaws.expr import UnsupportedFormError, as_poly, atom_poly
from approxlaws.jets import series_mul
from approxlaws.multipliers import _column, _series
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


def _series_pow(s, n, p):
    out = [{(): 1}] + [dict() for _ in range(p)]
    base = s
    while n:
        if n & 1:
            out = series_mul(out, base, p)
        n >>= 1
        if n:
            base = series_mul(base, base, p)
    return out


def _gen_binom(n: int, j: int) -> int:
    num = 1
    for i in range(j):
        num *= n - i
    return num // math.factorial(j)


def _jet_series_pow(jet: Jet, exp: int, p: int):
    base = [atom_poly(jet.with_order(k)) for k in range(p + 1)]
    if exp >= 0:
        return _series_pow(base, exp, p)
    u0 = jet.with_order(0)
    u0_id = intern(u0)
    # u^exp = u0^exp * (1 + w)^exp, w = sum_{k>=1} eps^k u_(k)/u0
    w = [dict()] + [{kernel.mono_mul((intern(jet.with_order(k)), 1), (u0_id, -1)): 1} for k in range(1, p + 1)]
    out = [{(): 1}] + [dict() for _ in range(p)]
    wj = [{(): 1}] + [dict() for _ in range(p)]
    for j in range(1, p + 1):
        wj = series_mul(wj, w, p)
        c = _gen_binom(exp, j)
        for k in range(p + 1):
            kernel.poly_iadd(out[k], wj[k], c)
    return [kernel.poly_mul(slot, {(u0_id, exp): 1}) for slot in out]


def _func_series(fa: FuncAtom, p: int):
    if fa.arg.deriv:
        raise UnsupportedFormError("function arguments must be underived dependent variables")
    u0 = fa.arg.with_order(0)
    out = [atom_poly(FuncAtom(fa.fname, fa.nd, u0))] + [dict() for _ in range(p)]
    z = [dict()] + [atom_poly(fa.arg.with_order(k)) for k in range(1, p + 1)]
    zj = [{(): 1}] + [dict() for _ in range(p)]
    fact = 1
    for j in range(1, p + 1):
        zj = series_mul(zj, z, p)
        fact *= j
        fj = intern(FuncAtom(fa.fname, fa.nd + j, u0))
        for k in range(p + 1):
            kernel.poly_iadd(out[k], kernel.poly_mul(zj[k], {(fj, 1): Fraction(1, fact)}))
    return out


def expand_epsilon_substitution(e, p: int) -> list:
    """An oracle for :func:`approxlaws.expand_epsilon` over unexpanded
    variables: the expansion built by substitution instead of the recursion
    operator.  Every dependent variable is replaced by its power series,
    powers of it by their binomial series and function applications by
    their Taylor series; the products are collected by powers of eps and
    truncated at order ``p``.  Explicit eps content is collected first and
    shifted in."""
    out = [dict() for _ in range(p + 1)]
    for shift, part in enumerate(collect_eps(e, p)):
        for mono, c in part.items():
            factors = []
            plain = []
            for j in range(0, len(mono), 2):
                aid, exp = mono[j], mono[j + 1]
                a = atom_at(aid)
                if isinstance(a, Jet):
                    factors.append(_jet_series_pow(a, exp, p))
                elif isinstance(a, FuncAtom):
                    factors.append(_series_pow(_func_series(a, p), exp, p))
                else:
                    plain.append(aid)
                    plain.append(exp)
            s = [{tuple(plain): c}] + [dict() for _ in range(p)]
            for f in factors:
                s = series_mul(s, f, p)
            for k in range(p + 1 - shift):
                kernel.poly_iadd(out[k + shift], s[k])
    return [NormalForm(d) for d in out]


# the ansatz last passed to coefficient_vector -> its keyed coefficient
# columns; tests check many sets against one ansatz in a row
_columns: dict = {}


def coefficient_vector(mult, ansatz) -> tuple | None:
    """Express a concrete multiplier set in the ansatz coefficient space, or
    None if it does not fit (used for span-membership tests).  Column j is
    read off the ansatz's unit-column slots, transposed."""
    columns = _columns.get(ansatz)
    if columns is None:
        _columns.clear()
        columns = _columns[ansatz] = [{} for _ in range(ansatz.q * (ansatz.p + 1) * len(ansatz.basis))]
        for nu, row in enumerate(_series(ansatz, lambda nu, k, i: {_column(ansatz, nu, k, i): 1})):
            for k, slot in enumerate(row):
                for mono, vec in slot.items():
                    for j, c in vec.items():
                        columns[j][(nu, k, mono)] = c
    return linalg.in_span(columns, slot_coefficients(mult))


def slot_coefficients(mult, upto=None) -> dict:
    """The set's coefficients keyed by (nu, k, monomial), slots k <= upto
    (default all)."""
    return {(nu, k, mono): c
            for nu, row in enumerate(mult.slots)
            for k, slot in enumerate(row[:None if upto is None else upto + 1])
            for mono, c in as_poly(slot).items()}
