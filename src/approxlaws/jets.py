"""Jet-space operators.

Total derivatives thread through every jet coordinate (all perturbation
orders at once); epsilon expansion turns expressions over unexpanded
variables into truncated series over order-tagged coordinates; and the
Euler operator of an underived dependent coordinate v annihilates total
divergences: v is u[k] at one perturbation order k, or u unexpanded.
Equations and the consistent multiplier ansatz are expanded by one loop,
:func:`recursion_series`, which takes a slot list of parts.

The higher Euler operators E^L_v (:func:`higher_eulers`, E^() being
:func:`euler`) factor the Euler operator over any factor free of the
dependent variables, such as a monomial in the independent ones:
E_v(P e) = sum over L of (-1)^|L| (d_L P) E^L_v(e).  Determining-system
assembly runs them once per jet part of the ansatz.  Both operators share
one partial-derivative step and one Horner fold of the total derivatives.

A series truncated at order p is the list of its p+1 eps-free slots, slot k
the coefficient of eps^k.  This module alone converts between slots and the
eps atom: :func:`collect_eps` splits an expression into its slots and
:func:`join_eps` joins them; the Cauchy product of two slot lists is
:func:`series_mul`.  :func:`check_slots` checks the slot-list form where a
series is made: eps-free slots in one coordinate language and, for the
consistent expansion, slot k free of coordinates of perturbation order
above k (the order-k part depends on u[0]..u[k] only).
"""

from __future__ import annotations

import math
from fractions import Fraction

from . import kernel
from .atoms import EPS, EPS_SYM, FuncAtom, INDEP, Jet, Sym, atom_at, intern
from .expr import NormalForm, UnsupportedFormError, as_poly, atom_poly, poly_atom_ids


# i -> {atom id: D_i image of the atom ({} when it derives to zero)}.  Atoms
# are interned for the life of the process, so the memo holds at most one
# entry per atom and independent variable.
_total_images: dict = {}

# (atom id, i) -> id of the jet with one derivative in direction i fewer:
# the jet whose D_i image is the given one, which flux inversion asks for
# once per candidate.
_stripped_jets: dict = {}


def stripped_jet(aid: int, i: int) -> int:
    """The id of jet ``aid`` with one derivative in direction ``i`` taken
    off; raises ValueError if it has none in that direction."""
    sid = _stripped_jets.get((aid, i))
    if sid is None:
        a = atom_at(aid)
        deriv = list(a.deriv)
        deriv.remove(i)
        sid = _stripped_jets[(aid, i)] = intern(Jet(a.dep, a.order, tuple(deriv)))
    return sid


def _total_image(aid: int, i: int) -> dict:
    a = atom_at(aid)
    if isinstance(a, Jet):
        return atom_poly(a.lifted(i))
    if isinstance(a, FuncAtom):
        chain = FuncAtom(a.fname, a.nd + 1, a.arg)
        return {kernel.mono_mul((intern(chain), 1), (intern(a.arg.lifted(i)), 1)): 1}
    if a.kind == INDEP and a.pos == i:
        return {(): 1}
    return {}


def total_derivative(e, i: int) -> NormalForm:
    """D_i: partial in x_i plus threading through all jet coordinates.  One
    scan of the operand adds the images of atoms not yet met to the D_i
    memo, which is then the derivation's atom map."""
    p = as_poly(e)
    images = _total_images.get(i)
    if images is None:
        images = _total_images[i] = {}
    for mono in p:
        for j in range(0, len(mono), 2):
            if mono[j] not in images:
                images[mono[j]] = _total_image(mono[j], i)
    return NormalForm(kernel.derive(p, images))


def total_derivative_chain(e: NormalForm, idxs) -> NormalForm:
    for i in idxs:
        e = total_derivative(e, i)
    return e


def max_jet_order(exprs) -> int:
    """The highest derivative order of a jet coordinate in ``exprs``, 0 when
    none holds one."""
    r = 0
    for e in exprs:
        for aid in poly_atom_ids(as_poly(e)):
            a = atom_at(aid)
            if isinstance(a, Jet):
                r = max(r, len(a.deriv))
    return r


# --- epsilon expansion ------------------------------------------------------


def series_mul(s1, s2, p, first: int = 0):
    """Cauchy product of two slot lists of plain polynomial dicts: its slots
    ``first``..``p``, so no product of slots i + j < first is formed."""
    out = [dict() for _ in range(first, p + 1)]
    for i, a in enumerate(s1):
        if not a:
            continue
        for j in range(max(first - i, 0), min(len(s2), p - i + 1)):
            b = s2[j]
            if b:
                kernel.poly_iadd(out[i + j - first], kernel.poly_mul(a, b))
    return out


def eps_powers(e) -> dict:
    """Split by powers of eps, of either sign: ``{k: coefficient polynomial
    of eps^k}``."""
    eid = intern(EPS_SYM)
    out: dict[int, dict] = {}
    for mono, c in as_poly(e).items():
        k = 0
        rest = []
        for j in range(0, len(mono), 2):
            if mono[j] == eid:
                k = mono[j + 1]
            else:
                rest.append(mono[j])
                rest.append(mono[j + 1])
        out.setdefault(k, {})[tuple(rest)] = c
    return out


def collect_eps(e, pmax: int | None = None) -> list:
    """Split a series into its slot list: slot k = coefficient polynomial of
    eps^k.  Truncates above ``pmax`` when given; negative powers of eps are
    rejected."""
    powers = eps_powers(e)
    if any(k < 0 for k in powers):
        raise UnsupportedFormError("negative power of eps")
    top = max(powers, default=0) if pmax is None else pmax
    return [powers.get(k, {}) for k in range(top + 1)]


def join_eps(slots) -> NormalForm:
    """Join a slot list into the series sum_k eps^k slots[k]."""
    out = {}
    eid = intern(EPS_SYM)
    for k, slot in enumerate(slots):
        kernel.poly_iadd(out, as_poly(slot), 1, (eid, k) if k else ())
    return NormalForm(out)


def expansion_state(e) -> tuple:
    """(has unexpanded, has order-tagged): whether ``e`` holds unexpanded
    dependent coordinates (or function applications of them), and whether
    it holds order-tagged ones."""
    has_unexp = has_exp = False
    for aid in poly_atom_ids(as_poly(e)):
        a = atom_at(aid)
        if isinstance(a, FuncAtom):
            a = a.arg
        if isinstance(a, Jet):
            if a.order is None:
                has_unexp = True
            else:
                has_exp = True
    return has_unexp, has_exp


def check_slots(slots, unexpanded: bool, capped: bool) -> None:
    """Check a slot list's form: every slot eps-free (the slot index carries
    the power) and in one coordinate language, unexpanded jets when
    ``unexpanded`` (approach A) and order-tagged ones otherwise; mixing is
    rejected rather than guessed at.  With ``capped``, slot k holds no
    coordinate of perturbation order above k, as a consistent expansion
    requires.  Raises UnsupportedFormError."""
    for k, slot in enumerate(slots):
        for aid in poly_atom_ids(as_poly(slot)):
            a = atom_at(aid)
            if isinstance(a, Sym) and a.kind == EPS:
                raise UnsupportedFormError("series slots are eps-free; the slot index carries the power")
            if isinstance(a, FuncAtom):
                a = a.arg
            if not isinstance(a, Jet):
                continue
            if unexpanded and a.order is not None:
                raise UnsupportedFormError("approach-a slots use unexpanded coordinates")
            if not unexpanded and a.order is None:
                raise UnsupportedFormError("series slots use order-tagged coordinates")
            if capped and a.order > k:
                raise UnsupportedFormError(f"slot {k} contains a perturbation-order-{a.order} coordinate")


def expand_epsilon(e, p: int) -> list:
    """The p+1 slots of ``e``'s eps-series, truncated at order ``p``.

    Over unexpanded dependent variables, slot 0 is ``e`` over order-0
    coordinates (every jet and function argument renamed), then R
    (:func:`recursion_series`); explicit powers of eps are split off first
    and shift their part's series.  Functions of derived arguments are
    rejected.

    Expressions over already-expanded coordinates are collected only (slot
    k may hold coordinates of perturbation order at most k, see
    :func:`check_slots`); mixing expanded and unexpanded atoms in one
    expression is rejected.
    """
    poly = as_poly(e)
    has_unexp, has_exp = expansion_state(poly)
    if has_unexp and has_exp:
        raise UnsupportedFormError("expression mixes expanded and unexpanded dependent variables")
    if not has_unexp:
        slots = [NormalForm(s) for s in collect_eps(poly, p)]
        check_slots(slots, False, True)
        return slots
    order0 = {}
    for aid in poly_atom_ids(poly):
        a = atom_at(aid)
        if isinstance(a, Jet):
            order0[aid] = intern(a.with_order(0))
        elif isinstance(a, FuncAtom):
            if a.arg.deriv:
                raise UnsupportedFormError("function arguments must be underived dependent variables")
            order0[aid] = intern(FuncAtom(a.fname, a.nd, a.arg.with_order(0)))
    renamed = {}
    for mono, c in poly.items():
        pairs = sorted((order0.get(mono[j], mono[j]), mono[j + 1]) for j in range(0, len(mono), 2))
        renamed[tuple(x for pair in pairs for x in pair)] = c
    return [NormalForm(d) for d in recursion_series(collect_eps(renamed, p), p)]


# --- recursion operator -----------------------------------------------------


def recursion_R(e) -> NormalForm:
    """The linear Leibniz operator generating slot k+1 of an expansion from
    slot k: order-tagged jets shift up with a factor (order+1), and function
    applications chain through the first-order coordinate of their argument.
    Coefficients may be column vectors (see :mod:`.kernel`)."""
    p = as_poly(e)
    images = {}
    for aid in poly_atom_ids(p):
        a = atom_at(aid)
        if isinstance(a, Jet):
            if a.order is None:
                raise UnsupportedFormError("recursion operator needs order-tagged coordinates")
            images[aid] = atom_poly(a.with_order(a.order + 1), c=a.order + 1)
        elif isinstance(a, FuncAtom):
            if a.arg.order != 0:
                raise UnsupportedFormError("recursion operator needs order-0 function arguments")
            chain = FuncAtom(a.fname, a.nd + 1, a.arg)
            u1 = a.arg.with_order(1)
            images[aid] = {kernel.mono_mul((intern(chain), 1), (intern(u1), 1)): 1}
    return NormalForm(kernel.derive(p, images))


def recursion_series(parts, p: int) -> list:
    """The one expansion loop, which equations (:func:`expand_epsilon`) and
    the consistent multiplier ansatz call: the p+1 slots (dicts) of sum over
    j of eps^j S_j for the slot list ``parts`` over order-tagged coordinates,
    S_j's slot 0 being part j and its slot m+1 R[slot m]/(m+1).  Empty parts
    are skipped; coefficients may be column vectors."""
    out = [{} for _ in range(p + 1)]
    for j, part in enumerate(parts):
        slot = as_poly(part)
        if not slot:
            continue
        kernel.poly_iadd(out[j], slot)
        for m in range(1, p - j + 1):
            slot = kernel.poly_iadd({}, as_poly(recursion_R(slot)), Fraction(1, m))
            kernel.poly_iadd(out[j + m], slot)
    return out


# --- Euler operators --------------------------------------------------------


def _partials(p, v: Jet) -> dict:
    """{J: de/dv_J} for each multi-index J of the coordinate ``v`` in the
    polynomial ``p``, each a fresh dict.

    One scan of the operand's atoms gives each partial d/dv_J its atom map
    (v_J -> 1 and each function application f^(n)(v_J) -> f^(n+1)(v_J)),
    and one scan of its monomials splits off the part holding each v_J, so
    each partial derivative reads only its part."""
    family = {}  # atom id -> multi-index J of the coordinate v_J it holds
    images = {}  # J -> the atom map of d/dv_J
    for aid in poly_atom_ids(p):
        a = atom_at(aid)
        b = a.arg if isinstance(a, FuncAtom) else a
        if isinstance(b, Jet) and b.dep == v.dep and b.order == v.order:
            family[aid] = b.deriv
            # the chain rule makes f^(n)(v_J) derive to f^(n+1)(v_J)
            images.setdefault(b.deriv, {})[aid] = (
                atom_poly(FuncAtom(a.fname, a.nd + 1, b)) if a is not b else {(): 1})
    parts = {J: {} for J in images}
    for mono, c in p.items():
        for j in range(0, len(mono), 2):
            J = family.get(mono[j])
            if J is not None:
                parts[J][mono] = c
    return {J: kernel.derive(part, images[J]) for J, part in parts.items()}


def _fold(terms: dict) -> dict:
    """sum over K of (-D)_K terms[K], folded Horner-style over the prefix
    trie of the multi-indices K: A_K = terms[K] - sum over children K+i of
    D_i A_(K+i), and the sum is A_().  Each trie edge costs one D_i, where
    the sum as written costs |K| per K.  The dicts of ``terms`` are
    consumed: a term is added into in place."""
    acc = {K[:k]: {} for K in terms for k in range(len(K) + 1)}
    acc[()] = {}
    acc.update(terms)
    # deepest first: each A_K is complete before it is folded into its parent
    for K in sorted(acc, key=len, reverse=True):
        if K:
            kernel.poly_iadd(acc[K[:-1]], as_poly(total_derivative(acc.pop(K), K[-1])), -1)
    return acc[()]


def euler(e, v: Jet) -> NormalForm:
    """E_v(e) = sum over multi-indices J of (-D)_J (de/dv_J) for the
    underived dependent coordinate ``v``: u[k] at one perturbation order k,
    or u unexpanded.  Total derivatives run over every order, so the
    consistent method's operator E_u[0] is approach B's order-0 operator.

    Each partial d/dv_J reads only the monomials holding v_J
    (:func:`_partials`), and the total derivatives are folded Horner-style
    over the prefix trie of the multi-indices (:func:`_fold`).  This is
    :func:`higher_eulers` at L = () alone, without its bookkeeping; the
    certification of every law calls it.  The coefficients of ``e`` may be
    column vectors (see :mod:`.kernel`).
    """
    return NormalForm(_fold(_partials(as_poly(e), v)))


def higher_eulers(e, v: Jet, multi_indices) -> dict:
    """{L: E^L_v(e)} for each multi-index L (a sorted tuple of directions)
    in ``multi_indices``: the higher Euler operators

        E^L_v(e) = sum over J >= L of C(J, L) (-D)_(J-L) (de/dv_J),

    with J - L the multiset difference and C(J, L) the product over the
    directions of the binomials of their counts (Olver, Applications of Lie
    Groups to Differential Equations, 2nd ed., 1993, section 5.4).  E^() is
    :func:`euler`.  They factor the Euler operator over a factor P free of
    the dependent variables and their derivatives:

        E_v(P e) = sum over L of (-1)^|L| (d_L P) E^L_v(e),

    which determining-system assembly uses to run the operators once per
    jet part of the ansatz.  Each partial de/dv_J is taken once and shared
    by every L, and each L gets its own Horner fold over J - L; an L that
    no J contains gets the zero polynomial.  Coefficients may be column
    vectors."""
    partials = _partials(as_poly(e), v)
    out = {}
    for L in multi_indices:
        if not L:
            continue  # E^() comes last, as its fold may consume the partials
        terms = {}
        for J, d in partials.items():
            K = list(J)
            for i in L:
                if i not in K:
                    break
                K.remove(i)
            else:
                c = math.prod(math.comb(J.count(i), L.count(i)) for i in set(L))
                terms[tuple(K)] = kernel.poly_iadd({}, d, c)
        out[L] = NormalForm(_fold(terms) if terms else {})
    if () in multi_indices:
        out[()] = NormalForm(_fold(partials))
    return out
