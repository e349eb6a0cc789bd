"""Expressions as canonical normal forms.

Every expression is a :class:`NormalForm`: a finite sum of monomials, each a
rational coefficient times integer (possibly negative) powers of atoms.  The
parser builds normal forms directly; :func:`normalize` lifts an atom or a
rational to one.  Engine operations accept normal forms, atoms and rationals
and return normal forms.

Laurent (negative) exponents are permitted on symbols and jet coordinates
only; negative powers of sums or of function applications are rejected as
unsupported forms (none occur in practice).
"""

from __future__ import annotations

import math
from fractions import Fraction

from . import kernel
from .atoms import FuncAtom, Jet, Sym, atom_at, atom_key, intern, mono_sort_key


class ExprError(Exception):
    pass


class UnsupportedFormError(ExprError):
    """Raised for forms outside the normal-form language (e.g. (u+1)^-1)."""


class EvalError(ExprError):
    pass


class NormalForm:
    """Canonical monomial sum; the empty sum is the zero expression."""

    __slots__ = ("_p",)

    def __init__(self, p=None):
        self._p = {} if p is None else p

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    # one pass over the subtrahend; dict() copies no column vector, which
    # poly_iadd would change in place, so ``-`` takes scalar coefficients
    def __sub__(self, other):
        return NormalForm(kernel.poly_iadd(dict(self._p), as_poly(other), -1))

    def __rsub__(self, other):
        return NormalForm(kernel.poly_iadd(dict(as_poly(other)), self._p, -1))

    def __neg__(self):
        return negate(self)

    def __pow__(self, n):
        return pow_int(self, n)

    def __eq__(self, other):
        if isinstance(other, (NormalForm, int, Fraction, Sym, Jet, FuncAtom)):
            return self._p == as_poly(other)
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self._p.items()))

    def is_zero(self) -> bool:
        return not self._p

    def terms(self):
        """Monomials in canonical presentation order as
        ``(coefficient, [(atom, exponent), ...])`` pairs."""
        for mono in sorted(self._p, key=mono_sort_key):
            order = sorted(range(0, len(mono), 2), key=lambda j: atom_key(mono[j]))
            yield Fraction(self._p[mono]), [(atom_at(mono[j]), mono[j + 1]) for j in order]

    def __len__(self):
        return len(self._p)

    def __bool__(self):
        return bool(self._p)

    def __repr__(self):
        if not self._p:
            return "NormalForm(0)"
        parts = []
        for c, pairs in self.terms():
            mono = "*".join(
                f"{a!r}" + (f"^{e}" if e != 1 else "") for a, e in pairs
            )
            parts.append(f"{c}" + (f"*{mono}" if mono else ""))
        return "NormalForm(" + " + ".join(parts) + ")"


def _coeff(x):
    if isinstance(x, int):
        return x
    if isinstance(x, Fraction):
        return int(x) if x.denominator == 1 else x
    raise UnsupportedFormError(f"not a rational coefficient: {x!r}")


def atom_poly(atom, c=1):
    """The single-monomial normal-form dict ``c * atom``."""
    return {(intern(atom), 1): c}


def const_poly(c):
    c = _coeff(c)
    return {(): c} if c else {}


def as_poly(x) -> dict:
    """Normal-form dict of a normal form, an atom or a rational (shared, do
    not mutate)."""
    if isinstance(x, NormalForm):
        return x._p
    if isinstance(x, dict):
        return x
    if isinstance(x, (Sym, Jet, FuncAtom)):
        return atom_poly(x)
    if isinstance(x, (int, Fraction)):
        return const_poly(x)
    raise UnsupportedFormError(f"cannot normalize {x!r}")


def mono_inv(mono):
    """Invert a monomial key; Laurent bases must be symbols or jets."""
    out = []
    for j in range(0, len(mono), 2):
        a = atom_at(mono[j])
        if isinstance(a, FuncAtom):
            raise UnsupportedFormError(
                "negative powers of function applications are unsupported"
            )
        out.append(mono[j])
        out.append(-mono[j + 1])
    return tuple(out)


def poly_pow(p, n: int) -> dict:
    if not isinstance(n, int):
        raise UnsupportedFormError(f"non-integer exponent {n!r}")
    if n == 0:
        return {(): 1}
    if n < 0:
        if not p:
            raise UnsupportedFormError("division by zero")
        if len(p) != 1:
            raise UnsupportedFormError(
                "negative powers are only supported on atomic (single-monomial) bases"
            )
        ((mono, c),) = p.items()
        inv = {mono_inv(mono): _coeff(Fraction(1) / Fraction(c))}
        return poly_pow(inv, -n)
    # binary exponentiation
    out = {(): 1}
    base = p
    while n:
        if n & 1:
            out = kernel.poly_mul(out, base)
        n >>= 1
        if n:
            base = kernel.poly_mul(base, base)
    return out


def normalize(x) -> NormalForm:
    """Expanded canonical monomial sum of ``x``; idempotent."""
    if isinstance(x, NormalForm):
        return x
    return NormalForm(as_poly(x))


def add(*es) -> NormalForm:
    out = {}
    for e in es:
        kernel.poly_iadd(out, as_poly(e))
    return NormalForm(out)


def mul(*es) -> NormalForm:
    out = {(): 1}
    for e in es:
        out = kernel.poly_mul(out, as_poly(e))
    return NormalForm(out)


def negate(e) -> NormalForm:
    return NormalForm(kernel.poly_iadd({}, as_poly(e), -1))


def pow_int(e, n: int) -> NormalForm:
    return NormalForm(poly_pow(as_poly(e), n))


def poly_atom_ids(p) -> set:
    ids = set()
    for mono in p:
        for j in range(0, len(mono), 2):
            ids.add(mono[j])
    return ids


def atoms_of(e) -> set:
    """The set of atoms occurring in ``e``."""
    return {atom_at(i) for i in poly_atom_ids(as_poly(e))}


def partial(e, a) -> NormalForm:
    """Formal partial derivative with respect to atom ``a``; all other atoms
    are treated as independent, except that differentiating through a
    function application raises its derivative count (chain rule)."""
    p = as_poly(e)
    images = {intern(a): {(): 1}}
    for i in poly_atom_ids(p):
        at = atom_at(i)
        if isinstance(at, FuncAtom) and at.arg == a:
            images[i] = atom_poly(FuncAtom(at.fname, at.nd + 1, at.arg))
    return NormalForm(kernel.derive(p, images))


def substitute(e, bindings: dict) -> NormalForm:
    """Simultaneous substitution atom -> expression; unbound atoms unchanged.
    Substitution does not reach inside function-application atoms."""
    p = as_poly(e)
    imgs = {intern(a): as_poly(v) for a, v in bindings.items()}
    if not any(i in imgs for i in poly_atom_ids(p)):
        return normalize(e)
    out = {}
    for mono, c in p.items():
        factor = {(): c}
        plain = []
        for j in range(0, len(mono), 2):
            img = imgs.get(mono[j])
            if img is None:
                plain.append(mono[j])
                plain.append(mono[j + 1])
            else:
                factor = kernel.poly_mul(factor, poly_pow(img, mono[j + 1]))
        kernel.poly_iadd(out, factor, 1, tuple(plain))
    return NormalForm(out)


def evaluation_plan(exprs) -> tuple:
    """The integer evaluation plan of the polynomials ``exprs``, built once
    for any number of points: ``(atoms, monos, polys)``, the atoms met,
    each distinct monomial as a list of (atom index, exponent) pairs, and
    each polynomial as a list of (monomial index, numerator, denominator)
    terms."""
    atom_index = {}  # atom id -> the index of its atom in atoms
    mono_index = {}  # monomial key -> its index in monos
    monos = []
    polys = []
    for e in exprs:
        terms = []
        for mono, c in as_poly(e).items():
            k = mono_index.get(mono)
            if k is None:
                k = mono_index[mono] = len(monos)
                monos.append([(atom_index.setdefault(mono[j], len(atom_index)), mono[j + 1])
                              for j in range(0, len(mono), 2)])
            if type(c) is int:
                terms.append((k, c, 1))
            else:
                terms.append((k, c.numerator, c.denominator))
        polys.append(terms)
    return [atom_at(aid) for aid in atom_index], monos, polys


def plan_values(plan, point: dict, fvals: dict | None = None):
    """The value of each polynomial of the :func:`evaluation_plan` ``plan``
    at one point, yielded in order as an integer pair (numerator, nonzero
    denominator); ``point`` and ``fvals`` bind atoms as for
    :func:`eval_rational`.

    Evaluation is lazy: an atom's value is resolved, and a monomial's
    integer pair formed, the first time a yielded polynomial needs it, and
    shared by the later ones, so a consumer that stops early never meets a
    singularity of a later polynomial.  Numerators are summed per distinct
    denominator, with no gcd per term, and the sums meet over their least
    common multiple; the pair is not reduced."""
    atoms, monos, polys = plan
    bases = [None] * len(atoms)  # atom index -> (numerator, denominator)
    values = [None] * len(monos)  # monomial index -> (numerator, denominator)
    for terms in polys:
        # denominator -> sum of numerators over it; a negative base under a
        # negative exponent leaves a negative denominator, which math.lcm absorbs
        sums = {}
        for k, cn, cd in terms:
            v = values[k]
            if v is None:
                n = d = 1
                for a, e in monos[k]:
                    b = bases[a]
                    if b is None:
                        b = bases[a] = _atom_base(atoms[a], point, fvals)
                    bn, bd = b
                    if e == 1:
                        n *= bn
                        d *= bd
                    elif e > 0:
                        n *= bn**e
                        d *= bd**e
                    elif bn:
                        n *= bd**-e
                        d *= bn**-e
                    else:
                        raise EvalError(f"zero base for negative exponent on {atoms[a]!r}")
                v = values[k] = (n, d)
            d = cd * v[1]
            sums[d] = sums.get(d, 0) + cn * v[0]
        den = math.lcm(*sums)
        yield sum(n * (den // d) for d, n in sums.items()), den


def eval_rational(e, point: dict, fvals: dict | None = None) -> Fraction:
    """Exact rational value of ``e``: the one-polynomial case of
    :func:`plan_values`, so one ``Fraction`` (one gcd) is built per call.

    ``point`` binds every symbol/jet atom to a rational; ``fvals`` binds
    ``(function-name, derivative-count, argument-value)`` triples.  Laurent
    exponents require nonzero base values.
    """
    ((n, d),) = plan_values(evaluation_plan([e]), point, fvals)
    return Fraction(n, d)


def _rational(v):
    """``v`` as an int or a Fraction; those two are used as they are."""
    return v if type(v) is int or type(v) is Fraction else Fraction(v)


def _atom_base(a, point, fvals):
    """The value of atom ``a`` as an integer pair (numerator, denominator)."""
    if isinstance(a, FuncAtom):
        if a.arg not in point:
            raise EvalError(f"unbound atom {a.arg!r}")
        key = (a.fname, a.nd, _rational(point[a.arg]))
        if fvals is None or key not in fvals:
            raise EvalError(f"no value for function sample {key}")
        base = _rational(fvals[key])
    else:
        if a not in point:
            raise EvalError(f"unbound atom {a!r}")
        base = _rational(point[a])
    return base.numerator, base.denominator
