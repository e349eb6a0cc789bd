"""Algebraic identity properties: ring laws, Leibniz rules, commuting total
derivatives, expansion equivalence, Euler annihilation, the factoring of the
Euler operator by the higher Euler operators, evaluation morphism."""

import random
import sys
from fractions import Fraction
from itertools import combinations_with_replacement

from hypothesis import example, given, settings
from hypothesis import strategies as st

from approxlaws import (
    SymbolTable,
    add,
    eval_rational,
    euler,
    expand_epsilon,
    mul,
    normalize,
    parse,
    partial,
    pow_int,
    print_poly,
    recursion_R,
    substitute,
    total_derivative,
)
from approxlaws import kernel, verify
from approxlaws.atoms import INDEP, FuncAtom, Jet, Sym, atom_at, atom_key, intern, mono_atoms, mono_sort_key
from approxlaws.expr import EvalError, NormalForm, as_poly, atoms_of, poly_atom_ids
from approxlaws.fluxes import _antiderive_candidates, _mono_edit
from approxlaws.jets import higher_eulers
from approxlaws.verify import CheckResult, _rand_rational, spot_check

from conftest import expand_epsilon_substitution

TABLE = SymbolTable(["t", "x"], ["u", "v"], ["c"], [("f", "u")])


def _atom_pool(tagged: bool, with_func: bool = True):
    tab = TABLE
    pool = [tab.indep[0], tab.indep[1], tab.params[0]]
    if tagged:
        for dep in ("u", "v"):
            for k in (0, 1):
                pool += [tab.jet(dep, k), tab.jet(dep, k, ("x",)), tab.jet(dep, k, ("t",))]
        pool.append(tab.jet("u", 0, ("x", "x")))
        if with_func:
            pool.append(FuncAtom("f", 0, tab.jet("u", 0)))
            pool.append(FuncAtom("f", 1, tab.jet("u", 0)))
    else:
        for dep in ("u", "v"):
            pool += [tab.jet(dep), tab.jet(dep, None, ("x",)), tab.jet(dep, None, ("t",))]
        pool.append(tab.jet("u", None, ("x", "x")))
        if with_func:
            pool.append(FuncAtom("f", 0, tab.jet("u")))
    return pool


def rand_poly(rng, tagged=True, terms=4, max_exp=3, laurent_atoms=(), with_func=True):
    pool = _atom_pool(tagged, with_func)
    out = {}
    p = NormalForm(out)
    acc = NormalForm({})
    for _ in range(rng.randint(1, terms)):
        mono = normalize(Fraction(rng.randint(-6, 6), rng.randint(1, 4)))
        for _ in range(rng.randint(0, 3)):
            a = rng.choice(pool)
            e = rng.randint(1, max_exp)
            if a in laurent_atoms and rng.random() < 0.5:
                e = -rng.randint(1, 2)
            mono = mul(mono, pow_int(a, e))
        acc = acc + mono
    return acc


# --- hypothesis: ring laws over small expression trees -----------------------

_atoms_st = st.sampled_from(_atom_pool(True, with_func=False))


@st.composite
def exprs(draw, depth=3):
    if depth == 0:
        branch = draw(st.integers(0, 1))
        if branch == 0:
            return normalize(Fraction(draw(st.integers(-4, 4)), draw(st.integers(1, 4))))
        return normalize(draw(_atoms_st))
    branch = draw(st.integers(0, 3))
    if branch == 0:
        return draw(exprs(depth=depth - 1))
    if branch == 1:
        return add(draw(exprs(depth=depth - 1)), draw(exprs(depth=depth - 1)))
    if branch == 2:
        return mul(draw(exprs(depth=depth - 1)), draw(exprs(depth=depth - 1)))
    return pow_int(draw(exprs(depth=depth - 1)), draw(st.integers(0, 2)))


@settings(max_examples=120, deadline=None)
@given(exprs(), exprs(), exprs())
def test_ring_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@settings(max_examples=80, deadline=None)
@given(exprs())
def test_normalize_idempotent_and_congruent(e):
    assert normalize(normalize(e)) == normalize(e)
    assert pow_int(e, 2) == e * e


@settings(max_examples=80, deadline=None)
@given(exprs())
def test_print_parse_roundtrip(e):
    assert parse(print_poly(e, TABLE), TABLE) == e


# --- hypothesis: column-vector coefficients ----------------------------------

# a few atoms and small monomials over them, Laurent exponents included, so
# that derived and added terms often land on the same key and cancel
_VEC_ATOMS = [intern(a) for a in _atom_pool(True)[:6]]
_VEC_MONOS = [()] + [(a, e) for a in _VEC_ATOMS for e in (-1, 1, 2)] + [
    kernel.mono_mul((a, 1), (b, e)) for a in _VEC_ATOMS[:3] for b in _VEC_ATOMS[3:] for e in (-1, 1)
]
_vec_coeffs = st.sampled_from([1, -1, 2, -2, Fraction(1, 2), Fraction(-3, 2)])
_scalar_polys = st.dictionaries(st.sampled_from(_VEC_MONOS), _vec_coeffs, max_size=3)
_column_polys = st.dictionaries(
    st.sampled_from(_VEC_MONOS),
    st.dictionaries(st.integers(0, 3), _vec_coeffs, min_size=1, max_size=4),
    max_size=6,
)


def _column(p, j):
    """The scalar polynomial of column j of a column-vector polynomial."""
    return {m: vec[j] for m, vec in p.items() if j in vec}


def _by_columns(p, f):
    """The column-vector polynomial whose column j is ``f`` of column j of ``p``."""
    out = {}
    for j in sorted({j for vec in p.values() for j in vec}):
        for m, c in f(_column(p, j)).items():
            out.setdefault(m, {})[j] = c
    return out


def _no_stored_zero(p):
    # rref would take a stored zero entry as a pivot
    return all(vec and all(vec.values()) for vec in p.values())


_A, _B = _VEC_ATOMS[:2]


@settings(max_examples=150, deadline=None)
@given(_column_polys, st.dictionaries(st.sampled_from(_VEC_ATOMS), _scalar_polys, max_size=4))
# a -> a, b -> -b: the two Leibniz terms of a*b cancel, those of a*b^2 only in part
@example({kernel.mono_mul((_A, 1), (_B, 1)): {0: 1, 2: Fraction(1, 2)}, kernel.mono_mul((_A, 1), (_B, 2)): {1: 3}},
         {_A: {(_A, 1): 1}, _B: {(_B, 1): -1}})
def test_derive_on_column_vectors_matches_each_column(p, images):
    out = kernel.derive(p, images)
    assert out == _by_columns(p, lambda q: kernel.derive(q, images))
    assert _no_stored_zero(out)


@settings(max_examples=150, deadline=None)
@given(_column_polys, _column_polys, st.sampled_from([1, -1, 2, Fraction(-1, 2)]), st.sampled_from(_VEC_MONOS),
       _scalar_polys, _scalar_polys)
def test_poly_iadd_on_column_vectors_matches_each_column(acc, p, c, mono, scalar_acc, scalar_p):
    snapshot = {m: dict(vec) for m, vec in p.items()}
    expected = {}
    for j in range(4):
        for m, x in kernel.poly_iadd(_column(acc, j), _column(p, j), c, mono).items():
            expected.setdefault(m, {})[j] = x
    out = {m: dict(vec) for m, vec in acc.items()}
    kernel.poly_iadd(out, p, c, mono)
    assert out == expected
    assert _no_stored_zero(out)
    # adding c * mono * p is adding c times the product of p with mono
    assert out == kernel.poly_iadd({m: dict(vec) for m, vec in acc.items()}, kernel.poly_mul(p, {mono: 1}), c)
    scalar_snapshot = dict(scalar_p)
    scalar = kernel.poly_iadd(dict(scalar_acc), scalar_p, c, mono)
    assert scalar == kernel.poly_iadd(dict(scalar_acc), kernel.poly_mul(scalar_p, {mono: 1}), c)
    by_hand = dict(scalar_acc)
    for m, v in scalar_p.items():
        key = kernel.mono_mul(m, mono)
        by_hand[key] = by_hand.get(key, 0) + c * v
    assert scalar == {m: v for m, v in by_hand.items() if v}
    assert all(scalar.values())
    assert scalar_p == scalar_snapshot
    # the sum owns its vectors: adding again leaves p as it was
    kernel.poly_iadd(out, p, c, mono)
    assert p == snapshot
    # and p minus itself leaves nothing behind
    assert kernel.poly_iadd({m: dict(vec) for m, vec in p.items()}, p, -1) == {}


@settings(max_examples=150, deadline=None)
@given(_column_polys, _scalar_polys)
# (a + 1)(a - 1): the a terms cancel in every column, so the key a goes
@example({(_A, 1): {0: 1, 1: 2}, (): {0: 1, 1: 2}}, {(_A, 1): 1, (): -1})
# (a + 1)(a - 1) in column 0 but 2a(a - 1) in column 1: the key a keeps column 1
@example({(_A, 1): {0: 1, 1: 2}, (): {0: 1}}, {(_A, 1): 1, (): -1})
def test_poly_mul_on_column_vectors_matches_each_column(p1, p2):
    snapshots = {m: dict(vec) for m, vec in p1.items()}, dict(p2)
    out = kernel.poly_mul(p1, p2)
    expected = {}
    for j in range(4):
        for m, x in kernel.poly_mul(_column(p1, j), p2).items():
            expected.setdefault(m, {})[j] = x
    assert out == expected
    assert _no_stored_zero(out)
    # the product owns its vectors: adding to it leaves both factors as they were
    kernel.poly_iadd(out, p1)
    assert (p1, p2) == snapshots


# --- the kernel's fast paths against the products written out -----------------


def _without_zeros(p):
    """``p`` with its zero coefficients, zero vector entries and empty vectors dropped."""
    out = {}
    for m, v in p.items():
        if type(v) is dict:
            v = {j: x for j, x in v.items() if x}
        if v:
            out[m] = v
    return out


def _add_term(acc, key, v, scale):
    """``acc[key] += scale * v`` for a scalar or column-vector ``v``, always
    multiplying."""
    if type(v) is dict:
        w = acc.setdefault(key, {})
        for j, x in v.items():
            w[j] = w.get(j, 0) + scale * x
    else:
        acc[key] = acc.get(key, 0) + scale * v


def _derive_by_products(p, images):
    """kernel.derive as the Leibniz rule written out: every key merged by
    mono_mul, every coefficient multiplied by its exponent and its image
    coefficient."""
    out = {}
    for mono, c in p.items():
        for i in range(0, len(mono), 2):
            rest = kernel.mono_mul(mono, (mono[i], -1))
            for m2, c2 in images.get(mono[i], {}).items():
                _add_term(out, kernel.mono_mul(rest, m2), c, mono[i + 1] * c2)
    return _without_zeros(out)


# one-atom images with exponents -1, 1 and 2: an image atom may be absent
# from the key it lands in, present in it, or cancel there to exponent 0
_one_atom_images = st.dictionaries(
    st.sampled_from(_VEC_ATOMS),
    st.dictionaries(st.sampled_from([(a, e) for a in _VEC_ATOMS for e in (-1, 1, 2)]), _vec_coeffs,
                    min_size=1, max_size=2),
    max_size=4,
)
_C = _VEC_ATOMS[2]


@settings(max_examples=200, deadline=None)
@given(st.one_of(_scalar_polys, _column_polys), _one_atom_images)
# the image atom b is absent from the key: a^2 -> 2 a b, coefficient 1
@example({(_A, 2): 1}, {_A: {(_B, 1): 1}})
# present in it: a^2 b -> 2 a b^2 * 3/2 and b -> c^-1 * -1, coefficient 1/2
@example({kernel.mono_mul((_A, 2), (_B, 1)): Fraction(1, 2)}, {_A: {(_B, 1): Fraction(3, 2)}, _B: {(_C, -1): -1}})
# cancelled to exponent 0: a b^-1 -> b b^-1 = 1, and a column vector
@example({kernel.mono_mul((_A, 1), (_B, -1)): {0: Fraction(1, 2), 3: -2}}, {_A: {(_B, 1): 1}})
# images that meet on one key: a c + b c -> (1 - 1) c^2 cancels
@example({kernel.mono_mul((_A, 1), (_C, 1)): 1, kernel.mono_mul((_B, 1), (_C, 1)): 1},
         {_A: {(_C, 1): 1}, _B: {(_C, 1): -1}})
def test_derive_matches_the_leibniz_rule_written_out(p, images):
    snapshot = {m: dict(v) if type(v) is dict else v for m, v in p.items()}
    # the reference drops zeros, so a stored zero fails the comparison too
    assert kernel.derive(p, images) == _derive_by_products(p, images)
    assert p == snapshot


@settings(max_examples=150, deadline=None)
@given(_scalar_polys, _scalar_polys, _column_polys, _column_polys, st.sampled_from(_VEC_MONOS))
# a - a and a * (1/2) - a * (1/2) cancel, vector entries too
@example({(_A, 1): 2}, {(_A, 1): 2}, {(_A, 1): {0: Fraction(1, 2), 1: 1}}, {(_A, 1): {0: Fraction(1, 2)}}, ())
def test_poly_iadd_negates_as_minus_one_times(scalar_acc, scalar_p, acc, p, mono):
    for acc0, p0 in ((scalar_acc, scalar_p), (acc, p)):
        expected = {m: dict(v) if type(v) is dict else v for m, v in acc0.items()}
        for m, v in p0.items():
            _add_term(expected, kernel.mono_mul(m, mono), v, -1)
        out = kernel.poly_iadd({m: dict(v) if type(v) is dict else v for m, v in acc0.items()}, p0, -1, mono)
        assert out == _without_zeros(expected)


# --- seeded bulk properties ---------------------------------------------------


def test_congruence_500_random_pairs():
    # normal-form equality is a congruence for add/mul/pow over expression
    # trees: 500 random pairs over 5 atoms, depth <= 4
    rng = random.Random(500)
    tab = TABLE
    atoms5 = [tab.indep[0], tab.indep[1], tab.jet("u", 0), tab.jet("u", 0, ("x",)), tab.jet("v", 0)]

    def tree(depth):
        if depth == 0 or rng.random() < 0.3:
            if rng.random() < 0.4:
                return normalize(Fraction(rng.randint(-5, 5), rng.randint(1, 3)))
            return normalize(rng.choice(atoms5))
        op = rng.randint(0, 2)
        if op == 0:
            return add(tree(depth - 1), tree(depth - 1))
        if op == 1:
            return mul(tree(depth - 1), tree(depth - 1))
        return pow_int(tree(depth - 1), rng.randint(0, 2))

    for _ in range(500):
        a = tree(4)
        b = tree(4)
        a2 = a + NormalForm(dict(normalize(0)._p))  # same value, fresh object
        assert (a == b) == (as_strings(a) == as_strings(b))
        assert a + b == b + a and a * b == b * a
        assert a2 * b == a * b and a2 + b == a + b


def as_strings(e):
    return tuple(sorted((m, str(c)) for m, c in e._p.items()))


def test_partial_linear_and_leibniz():
    rng = random.Random(101)
    u0 = TABLE.jet("u", 0)
    for _ in range(120):
        a = rand_poly(rng)
        b = rand_poly(rng)
        assert partial(a * b, u0) == partial(a, u0) * b + a * partial(b, u0)
        assert partial(a + b, u0) == partial(a, u0) + partial(b, u0)


def test_total_derivatives_commute_200():
    rng = random.Random(7)
    for _ in range(200):
        e = rand_poly(rng, laurent_atoms=(TABLE.jet("u", 0),))
        dtx = total_derivative(total_derivative(e, 0), 1)
        dxt = total_derivative(total_derivative(e, 1), 0)
        assert dtx == dxt


def test_total_derivative_leibniz():
    rng = random.Random(13)
    for _ in range(100):
        a = rand_poly(rng)
        b = rand_poly(rng)
        for i in (0, 1):
            assert total_derivative(a * b, i) == (
                total_derivative(a, i) * b + a * total_derivative(b, i)
            )


def test_recursion_leibniz():
    rng = random.Random(17)
    for _ in range(100):
        a = rand_poly(rng)
        b = rand_poly(rng)
        assert recursion_R(a * b) == recursion_R(a) * b + a * recursion_R(b)


def test_expansion_recursion_equals_substitution_200():
    rng = random.Random(23)
    u = TABLE.jet("u")
    for trial in range(200):
        e = rand_poly(rng, tagged=False, laurent_atoms=(u,))
        if trial % 3 == 0:
            e = e + normalize(TABLE.eps) * rand_poly(rng, tagged=False, with_func=False)
        p = 1 + (trial % 2)
        rec = expand_epsilon(e, p)
        sub = expand_epsilon_substitution(e, p)
        assert rec == sub


def test_expansion_cauchy_product():
    rng = random.Random(29)
    for _ in range(60):
        a = rand_poly(rng, tagged=False)
        b = rand_poly(rng, tagged=False)
        p = 2
        sa, sb, sab = (expand_epsilon(z, p) for z in (a, b, a * b))
        for k in range(p + 1):
            conv = NormalForm({})
            for i in range(k + 1):
                conv = conv + sa[i] * sb[k - i]
            assert conv == sab[k]


def test_every_euler_kind_annihilates_divergences_200():
    rng = random.Random(31)
    # E_u[0] is both the consistent operator and approach B's order-0 one
    orders = [(0, True), (None, False), (1, True)]
    per_order = 50
    for order, expanded in orders:
        for _ in range(per_order):
            pt = rand_poly(rng, tagged=expanded)
            px = rand_poly(rng, tagged=expanded)
            dv = total_derivative(pt, 0) + total_derivative(px, 1)
            for alpha in (0, 1):
                res = euler(dv, Jet(alpha, order, ()))
                assert res.is_zero(), (order, alpha)


def test_substitute_commutes_with_normalize():
    rng = random.Random(37)
    u0, v0 = TABLE.jet("u", 0), TABLE.jet("v", 0)
    image = normalize(parse("t + u[1]^2", TABLE))
    for _ in range(60):
        e = rand_poly(rng, with_func=False)
        lhs = substitute(normalize(e), {u0: image, v0: normalize(3)})
        rhs = normalize(substitute(e, {u0: image, v0: normalize(3)}))
        assert lhs == rhs


def test_eval_ring_morphism():
    rng = random.Random(41)
    for _ in range(60):
        a = rand_poly(rng, with_func=False)
        b = rand_poly(rng, with_func=False)
        c = rand_poly(rng, with_func=False)
        atoms = atoms_of(a) | atoms_of(b) | atoms_of(c)
        point = {}
        for atom in sorted(atoms, key=lambda s: s.sort_key()):
            point[atom] = Fraction(rng.choice([n for n in range(-9, 10) if n]), rng.randint(1, 9))
        ev = lambda e: eval_rational(e, point)
        assert ev(a * b + c) == ev(a) * ev(b) + ev(c)


# --- oracles for the integer evaluation and the Horner-folded Euler operator --


def _eval_fraction_by_fraction(e, point, fvals=None):
    """eval_rational as the plain loop: Fraction arithmetic per monomial."""
    total = Fraction(0)
    for mono, c in e._p.items():
        v = Fraction(c)
        for a, exp in mono_atoms(mono):
            if isinstance(a, FuncAtom):
                if a.arg not in point:
                    raise EvalError(f"unbound atom {a.arg!r}")
                key = (a.fname, a.nd, Fraction(point[a.arg]))
                if fvals is None or key not in fvals:
                    raise EvalError(f"no value for function sample {key}")
                base = Fraction(fvals[key])
            else:
                if a not in point:
                    raise EvalError(f"unbound atom {a!r}")
                base = Fraction(point[a])
            if exp < 0 and base == 0:
                raise EvalError(f"zero base for negative exponent on {a!r}")
            v *= base**exp
        total += v
    return total


def _outcome(f, *args):
    try:
        return ("value", f(*args))
    except EvalError as exc:
        return ("error", str(exc))


def test_eval_rational_matches_fraction_oracle_400():
    rng = random.Random(43)
    u0, v1 = TABLE.jet("u", 0), TABLE.jet("v", 1)
    errors = set()
    for trial in range(400):
        e = rand_poly(rng, terms=6, laurent_atoms=(u0, v1, TABLE.indep[1]))
        point = {}
        for atom in sorted(atoms_of(e), key=lambda s: s.sort_key()):
            target = atom.arg if isinstance(atom, FuncAtom) else atom
            # negative values, so negative bases meet negative exponents
            point[target] = Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 9))
        fvals = {(a.fname, a.nd, point[a.arg]): Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                 for a in atoms_of(e) if isinstance(a, FuncAtom)}
        case = trial % 4
        if case == 1 and point:  # an unbound atom
            del point[rng.choice(sorted(point, key=lambda s: s.sort_key()))]
        elif case == 2:  # a zero base, under a negative exponent when there is one
            point[rng.choice((u0, v1, TABLE.indep[1]))] = Fraction(0)
        elif case == 3 and fvals:  # a missing function sample
            del fvals[rng.choice(sorted(fvals))]
        got = _outcome(eval_rational, e, point, fvals)
        assert got == _outcome(_eval_fraction_by_fraction, e, point, fvals)
        if got[0] == "error":
            errors.add(got[1].split(" ")[0])
    assert errors == {"unbound", "zero", "no"}


# multi-indices that branch in the Euler fold's prefix trie: t, tt and tx
# share t; x, xx and xxx share x
_BRANCHING_DERIVS = ((), ("t",), ("x",), ("t", "x"), ("x", "x"), ("x", "x", "x"), ("t", "t"))


def _branching_pool(order):
    tab = TABLE
    orders = (None,) if order is None else (0, 1)
    pool = [tab.indep[0], tab.indep[1], tab.params[0]]
    for dep in ("u", "v"):
        for k in orders:
            pool += [tab.jet(dep, k, d) for d in _BRANCHING_DERIVS]
    arg = tab.jet("u", None if order is None else 0)
    pool += [FuncAtom("f", 0, arg), FuncAtom("f", 1, arg)]
    return pool


def _branching_poly(rng, order, terms=5):
    pool = _branching_pool(order)
    laurent = {TABLE.jet("u", None if order is None else 0)}
    acc = NormalForm({})
    for _ in range(rng.randint(1, terms)):
        mono = normalize(Fraction(rng.randint(-6, 6), rng.randint(1, 4)))
        for _ in range(rng.randint(0, 3)):
            a = rng.choice(pool)
            e = -rng.randint(1, 2) if a in laurent and rng.random() < 0.3 else rng.randint(1, 3)
            mono = mul(mono, pow_int(a, e))
        acc = acc + mono
    return acc


def _total_derivative_uncached(e, i):
    """D_i with every atom's image built afresh."""
    p = e._p
    images = {}
    for aid in poly_atom_ids(p):
        a = atom_at(aid)
        if isinstance(a, Jet):
            images[aid] = {(intern(a.lifted(i)), 1): 1}
        elif isinstance(a, FuncAtom):
            chain = FuncAtom(a.fname, a.nd + 1, a.arg)
            images[aid] = {kernel.mono_mul((intern(chain), 1), (intern(a.arg.lifted(i)), 1)): 1}
        elif a.kind == INDEP and a.pos == i:
            images[aid] = {(): 1}
    return NormalForm(kernel.derive(p, images))


def _euler_per_multi_index(e, v):
    """The Euler operator as written: sum over J of (-1)^|J| D_J d/dv_J, one
    partial derivative of the whole operand and one D-chain per J."""
    multi_indices = set()
    for a in atoms_of(e):
        if isinstance(a, FuncAtom):
            a = a.arg
        if isinstance(a, Jet) and a.dep == v.dep and a.order == v.order:
            multi_indices.add(a.deriv)
    out = NormalForm({})
    for J in sorted(multi_indices):
        term = partial(e, Jet(v.dep, v.order, J))
        for i in J:
            term = _total_derivative_uncached(term, i)
        out = out + (-term if len(J) % 2 else term)
    return out


def test_total_derivative_matches_uncached_images_200():
    rng = random.Random(47)
    for trial in range(200):
        e = _branching_poly(rng, (None, 0)[trial % 2])
        for i in (0, 1):
            assert total_derivative(e, i) == _total_derivative_uncached(e, i)


def test_horner_euler_matches_per_multi_index_sum():
    rng = random.Random(53)
    # (pool order, coordinate order): the expanded pool holds orders 0 and 1
    for pool, order in ((0, 0), (None, None), (0, 1)):
        for _ in range(30):
            e = _branching_poly(rng, pool)
            e = e + _branching_poly(rng, pool) * total_derivative(_branching_poly(rng, pool), 1)
            for alpha in (0, 1):
                v = Jet(alpha, order, ())
                assert euler(e, v) == _euler_per_multi_index(e, v), v


# --- higher Euler operators factor the Euler operator over x-monomials --------

_TABLES = {2: TABLE, 3: SymbolTable(["t", "x", "y"], ["u", "v"], ["c"], [("f", "u")])}


def _multi_indices_up_to(n_indep, top):
    return [L for k in range(top + 1) for L in combinations_with_replacement(range(n_indep), k)]


@st.composite
def _factored_euler_cases(draw):
    """(table, P, F, v): P a polynomial over the independent variables with
    exponents -1..2, F over jets of u and v up to derivative order 3 (with
    f(u), a parameter, t and x), v an Euler coordinate of F's order."""
    n = draw(st.sampled_from([2, 3]))
    tab = _TABLES[n]
    coeff = st.sampled_from([1, -1, 2, Fraction(1, 2), Fraction(-3, 4)])
    P = NormalForm({})
    for c, exps in draw(st.lists(st.tuples(coeff, st.lists(st.integers(-1, 2), min_size=n, max_size=n)),
                                 min_size=1, max_size=4)):
        term = normalize(c)
        for a, e in zip(tab.indep, exps):
            if e:
                term = mul(term, pow_int(a, e))
        P = P + term
    order = draw(st.sampled_from([None, 0, 1]))
    orders = (None,) if order is None else (0, 1)
    derivs = [tuple(tab.indep[i].name for i in L) for L in _multi_indices_up_to(n, 3)]
    pool = [tab.indep[0], tab.indep[1], tab.params[0], FuncAtom("f", 0, tab.jet("u", orders[0]))]
    pool += [tab.jet(dep, k, d) for dep in ("u", "v") for k in orders for d in derivs]
    F = NormalForm({})
    for c, factors in draw(st.lists(st.tuples(coeff, st.lists(
            st.tuples(st.sampled_from(pool), st.integers(1, 3)), max_size=3)), min_size=1, max_size=4)):
        term = normalize(c)
        for a, e in factors:
            term = mul(term, pow_int(a, e))
        F = F + term
    F = F + mul(normalize(draw(st.sampled_from([0, 1, 2]))), pow_int(tab.jet("u", orders[0]), -1))
    v = Jet(draw(st.sampled_from([0, 1])), order if order is None else draw(st.sampled_from(orders)), ())
    return tab, P, F, v


@settings(max_examples=60, deadline=None)
@given(_factored_euler_cases())
def test_higher_eulers_factor_the_euler_operator_over_x_monomials(case):
    # E_v(P F) = sum over L of (-1)^|L| d_L P E^L_v(F), in 1+1 and 2+1
    # dimensions, and E^() is the Euler operator
    tab, P, F, v = case
    Ls = _multi_indices_up_to(len(tab.indep), 3)
    higher = higher_eulers(F, v, Ls)
    assert higher[()] == euler(F, v)
    rhs = NormalForm({})
    for L in Ls:
        dP = P
        for i in L:
            dP = partial(dP, tab.indep[i])
        term = mul(dP, higher[L])
        rhs = rhs + (-term if len(L) % 2 else term)
    assert euler(mul(P, F), v) == rhs


# --- oracles for the certification layer's shared work ------------------------


def _sample_atoms_per_scan(exprs):
    """The atoms to draw as spot_check found them before it read them off its
    evaluation plan: a scan of every monomial of ``exprs`` for the atoms in
    canonical order, and the set of those under a negative exponent."""
    ids = set()
    laurent = set()
    for e in exprs:
        for mono in as_poly(e):
            for j in range(0, len(mono), 2):
                ids.add(mono[j])
                if mono[j + 1] < 0:
                    laurent.add(atom_at(mono[j]))
    return [atom_at(i) for i in sorted(ids, key=atom_key)], laurent


def _sample_point_per_call(atoms, laurent, rng):
    """verify._sample_point as it was: every function-sample key wraps the
    argument's value in a new Fraction.  A key's sample is nonzero when a
    function atom with that key is a Laurent base."""
    point = {}
    fsamples = []
    for a in atoms:
        if isinstance(a, FuncAtom):
            fsamples.append(a)
            if a.arg not in point:
                point[a.arg] = _rand_rational(rng, True)
        elif isinstance(a, (Sym, Jet)):
            if a not in point:
                point[a] = _rand_rational(rng, a in laurent)
    keys = [(a.fname, a.nd, Fraction(point[a.arg])) for a in fsamples]
    nonzero = {key for key, a in zip(keys, fsamples) if a in laurent}
    fvals = {}
    for key in keys:
        if key not in fvals:
            fvals[key] = _rand_rational(rng, key in nonzero)
    return point, fvals


def _spot_check_per_call(targets, divs, trials, seed, max_retries, retries):
    """spot_check as the loop it replaces: each slot of each side evaluated
    by its own eval_rational call, which resolves its own atom powers.
    Counts the evaluation singularities in ``retries``."""
    atoms, laurent = _sample_atoms_per_scan(list(targets) + list(divs))
    checks = []
    for trial in range(trials):
        rng = random.Random(f"{seed}:{trial}")
        ok, witness = True, None
        for _ in range(max_retries):
            try:
                point, fvals = _sample_point_per_call(atoms, laurent, rng)
                for k, (t, d) in enumerate(zip(targets, divs)):
                    lhs = eval_rational(t, point, fvals)
                    rhs = eval_rational(d, point, fvals)
                    if lhs != rhs:
                        ok = False
                        witness = {
                            "slot": k, "lhs": lhs, "rhs": rhs,
                            "point": {repr(a): v for a, v in sorted(point.items(), key=lambda av: av[0].sort_key())},
                        }
                        break
                break
            except EvalError:
                retries.append(trial)
                continue
        else:
            ok, witness = False, "evaluation singularity persisted across retries"
        checks.append(CheckResult(f"spot[{trial}]", ok, witness=witness))
    return checks


def _laurent_function_slots(rng):
    """Two slot lists over f, f' and f'' of u[0] under negative exponents:
    a function sample of zero would be an evaluation singularity, so these
    samples are drawn nonzero."""
    u0 = TABLE.jet("u", 0)
    funcs = [intern(FuncAtom("f", nd, u0)) for nd in range(3)]
    sides = []
    for _ in range(2):
        slots = []
        for _ in range(2):
            poly = dict(rand_poly(rng, laurent_atoms=(u0,))._p)
            for _ in range(rng.randint(1, 3)):
                mono = kernel.mono_mul(rng.choice(list(poly) or [()]), (rng.choice(funcs), -rng.randint(1, 2)))
                poly[mono] = Fraction(rng.randint(1, 5), rng.randint(1, 3))
            slots.append(NormalForm(poly))
        sides.append(slots)
    return sides


def test_spot_check_matches_per_call_evaluation(monkeypatch):
    from approxlaws import corpus
    from approxlaws.multipliers import contraction

    cases = []
    for entry_id in corpus.ENTRY_IDS:
        entry = corpus.load(entry_id)
        for cl in entry.laws:
            targets, divs = contraction(entry.problem, cl.law.mult), cl.law.divergence_slots()
            cases.append((targets, divs))
            # a perturbed divergence: the target's first monomial added again
            k = max(range(len(targets)), key=lambda k: len(targets[k]))
            mono = min(targets[k]._p, key=mono_sort_key)
            bad = list(divs)
            bad[k] = bad[k] + NormalForm({mono: 1})
            cases.append((targets, bad))
    rng = random.Random(59)
    cases += [tuple(_laurent_function_slots(rng)) for _ in range(40)]
    retries = []
    persisted = witnessed = 0
    for n, (targets, divs) in enumerate(cases):
        for max_retries in (1, 5):
            monkeypatch.setattr(verify, "MAX_RETRIES", max_retries)
            got = spot_check(targets, divs, trials=3, seed=n).checks
            assert got == _spot_check_per_call(targets, divs, 3, n, max_retries, retries), n
            persisted += sum(c.witness == "evaluation singularity persisted across retries" for c in got)
            witnessed += sum(isinstance(c.witness, dict) for c in got)
    # Laurent bases, function samples included, are drawn nonzero: no retries
    assert not retries and not persisted and witnessed

    # draws from -1, 0 and 1 that ignore ``nonzero`` half of the time, made by
    # both loops: arguments often draw equal values, and Laurent bases zero
    def coarse(rng, nonzero):
        return Fraction(rng.choice((-1, 0, 1) if not nonzero or rng.random() < 0.5 else (-1, 1)))

    module = sys.modules[__name__]
    monkeypatch.setattr(verify, "_rand_rational", coarse)
    monkeypatch.setattr(module, "_rand_rational", coarse)
    draw, shared = _sample_point_per_call, []

    def counting(atoms, laurent, rng):
        point, fvals = draw(atoms, laurent, rng)
        shared.append(len(fvals) < sum(isinstance(a, FuncAtom) for a in atoms))
        return point, fvals

    monkeypatch.setattr(module, "_sample_point_per_call", counting)
    u0, u1 = intern(TABLE.jet("u", 0)), intern(TABLE.jet("u", 1))
    f0, f1 = intern(FuncAtom("f", 0, TABLE.jet("u", 0))), intern(FuncAtom("f", 0, TABLE.jet("u", 1)))

    def mono(*pairs, c=1):
        """c times the monomial of the (atom id, exponent) pairs."""
        key = ()
        for pair in pairs:
            key = kernel.mono_mul(key, pair)
        return NormalForm({key: c})

    zero = NormalForm({})
    cases = [
        # slot 0 never matches; slot 1 is singular at u[0] = 0, which the
        # mismatch must not let through
        ([mono((u0, 1)) + mono(), mono((u0, -1))], [mono((u0, 1)), mono((u0, -1))]),
        # slot 0 matches at u[0] = 0 and 1 only, and slot 1 is singular at 0
        ([mono((u0, 2)), mono((f0, 1), (u0, -2))], [mono((u0, 1)), mono((f0, 1), (u0, -2))]),
        # f(u[0]) and f(u[1]) share one sample where u[0] and u[1] draw equal
        # values, a sample asked to be nonzero, as f(u[0]) is a Laurent base
        ([mono((f0, 1)) + mono((f1, 1), c=-1), mono((f0, -1), (f1, 1))], [zero, mono((f0, -1), (f1, 1))]),
        # empty slots, on both sides and on one
        ([zero, mono((u0, 1))], [zero, mono((u0, 1))]),
        ([zero], [mono((u1, 1), (f1, 1))]),
    ]
    retries.clear()
    outcomes = set()
    for n, (targets, divs) in enumerate(cases):
        for seed in range(20):
            for max_retries in (1, 5):
                monkeypatch.setattr(verify, "MAX_RETRIES", max_retries)
                got = spot_check(targets, divs, trials=3, seed=seed).checks
                assert got == _spot_check_per_call(targets, divs, 3, seed, max_retries, retries), (n, seed)
                outcomes.update((n, c.passed, type(c.witness).__name__) for c in got)
    assert retries and any(shared)
    # case 0 fails on its slot-0 mismatch alone, never on its singular slot 1;
    # case 1 meets both; the empty slots of case 3 match
    assert {o for o in outcomes if o[0] == 0} == {(0, False, "dict")}
    assert {(1, False, "dict"), (1, False, "str"), (2, True, "NoneType"), (4, False, "dict")} <= outcomes
    assert {o for o in outcomes if o[0] == 3} == {(3, True, "NoneType")}


def _antiderive_candidates_as_built(mono, problem):
    """fluxes._antiderive_candidates as it was: atoms read as (atom,
    exponent) pairs, every edited atom interned afresh."""
    def drop_one(deriv, i):
        dropped = False
        for j, v in enumerate(deriv):
            if v == i and not dropped:
                dropped = True
                continue
            yield j, v
        if not dropped:
            raise ValueError("direction not present")

    out = []
    pairs = list(mono_atoms(mono))
    for a, e in pairs:
        if isinstance(a, Jet) and a.deriv and e >= 1:
            for i in sorted(set(a.deriv)):
                stripped = Jet(a.dep, a.order, tuple(v for j, v in drop_one(a.deriv, i)))
                out.append((i, _mono_edit(mono, (intern(a), -1), (intern(stripped), 1))))
        elif isinstance(a, FuncAtom) and a.nd >= 1 and e >= 1:
            for b, eb in pairs:
                if (isinstance(b, Jet) and b.dep == a.arg.dep and b.order == a.arg.order
                        and len(b.deriv) == 1 and eb >= 1):
                    lower = FuncAtom(a.fname, a.nd - 1, a.arg)
                    out.append((b.deriv[0], _mono_edit(mono, (intern(a), -1), (intern(lower), 1), (intern(b), -1))))
    for i in range(problem.table.n_indep):
        out.append((i, _mono_edit(mono, (intern(problem.table.indep[i]), 1))))
    return out


def test_antiderive_candidates_match_construction_on_corpus_targets():
    # every target monomial of the corpus laws, and the next frontier of the
    # inversion closure: the D_i images of their candidates, where mixed
    # derivatives such as u_tx can be stripped in either direction
    from approxlaws import corpus
    from approxlaws.multipliers import contraction

    mixed = 0
    for entry_id in corpus.ENTRY_IDS:
        entry = corpus.load(entry_id)
        monos = {mono for cl in entry.laws
                 for target in contraction(entry.problem, cl.law.mult) for mono in target._p}
        frontier = {m for mono in monos for i, cand in _antiderive_candidates_as_built(mono, entry.problem)
                    for m in total_derivative(NormalForm({cand: 1}), i)._p}
        for mono in sorted(monos | frontier):
            got = _antiderive_candidates(mono, entry.problem)
            assert got == _antiderive_candidates_as_built(mono, entry.problem), mono
            mixed += any(isinstance(a, Jet) and len(set(a.deriv)) > 1 for a, _ in mono_atoms(mono))
    assert mixed
