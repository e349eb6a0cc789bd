"""Multiplier ansatz construction, determining systems, and classification.

The unknown multiplier coefficient functions are realized as bounded-degree
polynomials over a generator set (independent variables and order-0 jet
coordinates, optionally Laurent in designated atoms) with unknown rational
coefficients.  An :class:`Ansatz` is that monomial basis; its unknowns are
columns, never atoms.  One builder makes a multiplier set's slots from the
values of the unknowns: fed a solution vector it instantiates the set, fed
unit columns ``{column: 1}`` it gives the ansatz's slots with column-vector
coefficients.  A multiplier set is one whose truncated contraction with
the equations the Euler operators of the method's coordinates
(:func:`euler_coordinates`) annihilate.  The contraction of the vector
slots is linear in the unknowns by construction, and each monomial of its
Euler residuals, keyed by the Euler coordinate and slot, has a vector that
is a row of the determining system.  Its nullspace basis is the solution
space.  Every basis monomial is an x-part (a monomial in the independent
variables) times a jet part, and the x-part passes through the series and
the contraction, so assembly (:func:`_determining_rows`) contracts the jet
parts alone, runs the higher Euler operators on each slot once, and maps
the residuals back to the unknowns through the x-parts.  The contraction
and Euler residuals of a concrete multiplier set certify it and give the
targets of flux reconstruction.

The eps-series methods (consistent, approach A) solve that system order by
order, as the multiplier splits into Lambda_0 + eps Lambda_1 + ...: the
slot-0 rows A_0 over the order-0 unknowns are assembled once, and each
order k lifts the order-(k-1) space beside the same A_0, order 0 lifting
the empty space (see :func:`staged_nullspace`).  A lift is one series too,
its coefficients the columns of the transposed space.  For the consistent
method Lambda_k depends on u[0]..u[k] only, which every
:class:`MultiplierSet` is checked for when it is made.  Approach B, one
exact contraction of the hierarchy, is solved in one piece by
:func:`determining_system`, which for the eps-series methods is the
monolithic form the staged solve must agree with.  Eps-shifts are read off
the solutions' coefficient vectors (:func:`classify`).
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from itertools import combinations_with_replacement

from . import kernel, linalg
from .atoms import INDEP, Jet, Sym, atom_at, intern, mono_atoms, mono_sort_key
from .expr import NormalForm, UnsupportedFormError, as_poly, normalize
from .jets import check_slots, euler, higher_eulers, max_jet_order, recursion_series, series_mul
from .parser import parse, single_atom
from .problem import METHODS, PdeProblem, ProblemError


# Bound on the unknowns of a multiplier ansatz (basis size x equations x
# series slots), checked as the basis is built: assembly and elimination
# of the determining system grow with it, so an oversized ansatz would run
# for hours instead of failing.  nls2 at order 3 has 11,088 unknowns from
# its hint and solves in ~0.8 s, peaking at ~40 MB; at degree 6 and
# x-degree 2 it has 44,352 and solves in ~4 s, peaking at ~120 MB (one
# core of a 2-core Intel Xeon VM, CPython 3.11).
MAX_UNKNOWNS = 50000


class AnsatzError(ProblemError):
    pass


class SingularAnsatzError(AnsatzError):
    """The ansatz depends on a declared leading derivative."""


class AnsatzSpec:
    """Polynomial multiplier ansatz shape.

    ``generators`` are independent variables and order-0 jet coordinates;
    ``degree`` bounds the total degree of the jet part and ``xdegree`` (default
    ``degree``) that of the independent-variable part.  ``laurent`` maps a
    generator to its minimum (negative) exponent; Laurent exponents count by
    absolute value towards the jet degree.  A floor on an atom that is not a
    generator, jets compared at order 0, raises AnsatzError.
    """

    __slots__ = ("generators", "degree", "xdegree", "laurent")

    def __init__(self, generators, degree: int, xdegree: int | None = None, laurent: dict | None = None):
        self.generators = tuple(generators)
        self.degree = degree
        self.xdegree = xdegree
        if degree < 0 or (xdegree is not None and xdegree < 0):
            raise AnsatzError("degree bounds must be nonnegative")
        if not self.generators and degree > 0:
            raise AnsatzError("empty generator set with a positive degree bound")
        laurent = laurent or {}
        if any(v > 0 for v in laurent.values()):
            raise AnsatzError("Laurent floors must be nonpositive")
        self.laurent = {(k.with_order(0) if isinstance(k, Jet) else k): v for k, v in laurent.items()}
        gens = {g.with_order(0) if isinstance(g, Jet) else g for g in self.generators}
        for k, v in self.laurent.items():
            if k not in gens:
                raise AnsatzError(f"the Laurent floor {k!r}:{v} is not on an ansatz generator")

    @property
    def xdeg(self) -> int:
        return self.degree if self.xdegree is None else self.xdegree


def _ansatz_int(text, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise AnsatzError(f"{what} must be an integer, got {text!r}") from None


def _generator_atom(text: str, table):
    text = text.strip()
    try:
        atom = single_atom(parse(text, table))
    except UnsupportedFormError as exc:
        raise AnsatzError(f"{text!r}: {exc}") from exc
    if atom is None:
        raise AnsatzError(f"{text!r} is not a single generator atom")
    return atom


def parse_ansatz(table, mult_deps: str | None, degree, xdegree=None,
                 laurent: str | None = None) -> AnsatzSpec:
    """An ansatz from its text form, as the CLI flags and the problem-file
    hints write it: comma-separated generator atoms (default: every
    independent variable and order-0 dependent coordinate) and Laurent items
    ``atom:min`` (``min`` defaults to -2).  Degree bounds may be text."""
    if mult_deps:
        gens = [_generator_atom(g, table) for g in mult_deps.split(",")]
    else:
        gens = list(table.indep) + [table.jet(name, 0) for name in table.dep_names]
    bounds = {}
    for item in (laurent or "").split(","):
        atom_txt, _, lo = item.strip().partition(":")
        if atom_txt:
            bounds[_generator_atom(atom_txt, table)] = _ansatz_int(lo, "a Laurent bound") if lo else -2
    return AnsatzSpec(
        tuple(gens),
        _ansatz_int(degree, "the multiplier degree"),
        None if xdegree is None else _ansatz_int(xdegree, "the multiplier x-degree"),
        bounds,
    )


class MultiplierSet:
    """Per-equation series slots of one multiplier set.

    ``slots[nu][k]`` is the order-k component for equation ``nu``: for the
    consistent method the k-th expansion coefficient over expanded jets,
    free of coordinates of perturbation order above k, for approach A the
    k-th eps coefficient over unexpanded jets, for approach B the multiplier
    of hierarchy member k.  :func:`~approxlaws.jets.check_slots` checks each
    row at construction and raises UnsupportedFormError.
    """

    __slots__ = ("method", "slots", "_certified")

    def __init__(self, method: str, slots):
        if method not in METHODS:
            raise ValueError(f"unknown method {method!r}")
        self.method = method
        self.slots = tuple(tuple(normalize(s) for s in row) for row in slots)
        for row in self.slots:
            check_slots(row, method == "approach_a", method == "consistent")
        # (problem, contraction, Euler residuals) from the first
        # certification, which flux reconstruction and verification share
        self._certified = None

    @property
    def p(self) -> int:
        return len(self.slots[0]) - 1

    def eps_shifted(self) -> "MultiplierSet":
        """The multiplier multiplied by eps, re-truncated at the same order."""
        if self.method == "approach_b":
            raise ValueError("approach-b multipliers carry no eps series")
        rows = tuple(
            (NormalForm({}),) + tuple(row[:-1]) for row in self.slots
        )
        return MultiplierSet(self.method, rows)


def shape_generators(generators, method: str, p: int):
    """Adapt order-0 generators to the method's variable set: approach A uses
    unexpanded jets, approach B per-order copies of every jet generator."""
    gens = []
    for g in generators:
        if isinstance(g, Jet):
            if g.order not in (0, None):
                raise AnsatzError("ansatz jet generators must be order-0 coordinates")
            if method == "approach_a":
                gens.append(g.with_order(None))
            elif method == "approach_b":
                gens.extend(g.with_order(k) for k in range(p + 1))
            else:
                gens.append(g.with_order(0))
        elif isinstance(g, Sym) and g.kind == INDEP:
            gens.append(g)
        else:
            raise AnsatzError(f"unsupported ansatz generator {g!r}")
    return tuple(gens)


def enumerate_basis(gens, degree: int, xdegree: int, laurent: dict, per_monomial: int) -> list:
    """Deterministic monomial basis over the generators ``gens``, a repeated
    generator counted once: jet-part total degree <= degree (Laurent
    exponents counted by absolute value, floors looked up by order-0
    coordinate), independent-part <= xdegree.

    Each monomial carries ``per_monomial`` unknowns.  AnsatzError is raised
    as soon as the basis being built passes MAX_UNKNOWNS unknowns, so the
    walk stops just past the bound however large the degree bounds are."""
    gens = list(dict.fromkeys(gens))
    limit = MAX_UNKNOWNS // per_monomial

    def check(n):
        if n > limit:
            raise AnsatzError(f"the ansatz has more than {MAX_UNKNOWNS} unknowns "
                              "(basis size x equations x series slots); lower its degree or drop generators")

    def powers(gen_list, bound):
        out = [()]
        for g in gen_list:
            lo = laurent.get(g.with_order(0) if isinstance(g, Jet) else g, 0)
            new = []
            for combo in out:
                used = sum(abs(e) for _, e in combo)
                for e in range(max(lo, used - bound), bound - used + 1):
                    new.append(combo + ((g, e),) if e else combo)
                    check(len(new))
            out = new
        return out

    xs = powers([g for g in gens if isinstance(g, Sym)], xdegree)
    js = powers([g for g in gens if not isinstance(g, Sym)], degree)
    check(len(xs) * len(js))
    monos = []
    for xc in xs:
        for jc in js:
            mono = ()
            for g, e in xc + jc:
                mono = kernel.mono_mul(mono, (intern(g), e))
            monos.append(mono)
    return sorted(monos, key=mono_sort_key)


# Unknown (nu, k, i) of an ansatz, the coefficient of basis monomial i in
# the order-k part of equation nu's multiplier, is column
# (nu * (p + 1) + k) * len(basis) + i of its determining system.
Ansatz = namedtuple("Ansatz", "method basis q p")


def build_ansatz(problem: PdeProblem, spec: AnsatzSpec, method: str = "consistent") -> Ansatz:
    """The multiplier ansatz of ``method``: the monomial basis over the
    generators shaped to the method's variables, with one unknown per
    equation, series slot and basis monomial.  Raises SingularAnsatzError,
    before any assembly, if the basis depends on a declared leading
    derivative."""
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    p = problem.p
    gens = shape_generators(spec.generators, method, p)
    basis = enumerate_basis(gens, spec.degree, spec.xdeg, spec.laurent, problem.q * (p + 1))
    for mono in basis:
        for a, _ in mono_atoms(mono):
            nu = problem.leading_equation(a) if isinstance(a, Jet) else None
            if nu is not None:
                raise SingularAnsatzError(
                    f"ansatz depends on the leading derivative of equation {nu + 1}; "
                    "multipliers would be singular on solutions"
                )
    return Ansatz(method, tuple(basis), problem.q, p)


def _column(ansatz: Ansatz, nu: int, k: int, i: int) -> int:
    return (nu * (ansatz.p + 1) + k) * len(ansatz.basis) + i


def _series(ansatz: Ansatz, coefficient, upto: int | None = None) -> list:
    """Per-equation slots 0..upto (default p) of the ansatz with unknown
    (nu, j, i) set to ``coefficient(nu, j, i)``, a rational or a column
    vector (falsy for zero): unit columns give the ansatz's vector slots.

    Each order's part is P_j = sum over i of the coefficient times basis
    monomial i.  Approaches A and B take slot k = P_k.  The consistent
    method expands sum over j of eps^j P_j(u) / j! in u = u[0] + eps u[1] +
    ...: :func:`~approxlaws.jets.recursion_series` expands each P_j / j! and
    shifts it by j, so slot k = sum over j <= k of (1/j!) R^(k-j)[P_j] /
    (k-j)!, which inherits the derivative terms of the lower orders and
    brings in the order-k coefficients.  This is R^k[slot 0] / k! when R also takes each
    coefficient function of order j to the one of order j + 1."""
    p = ansatz.p if upto is None else upto
    consistent = ansatz.method == "consistent"
    rows = []
    for nu in range(ansatz.q):
        parts = []
        for j in range(p + 1):
            part = {}
            for i, mono in enumerate(ansatz.basis):
                c = coefficient(nu, j, i)
                if c:
                    part[mono] = c
            parts.append(kernel.poly_iadd({}, part, Fraction(1, math.factorial(j))) if consistent else part)
        rows.append(recursion_series(parts, p) if consistent else parts)
    return rows


def instantiate(ansatz: Ansatz, vectors) -> list:
    """The multiplier set of each coefficient vector, a sequence over the
    ansatz's columns."""
    out = []
    for vec in vectors:
        rows = _series(ansatz, lambda nu, k, i: vec[_column(ansatz, nu, k, i)])
        out.append(MultiplierSet(ansatz.method, rows))
    return out


# --- contraction and Euler residuals -----------------------------------------


def contraction(problem: PdeProblem, mult: MultiplierSet) -> list:
    """The truncated product of the multiplier set with the equations: the
    targets a law's flux divergence must equal.

    Consistent / approach A: the Cauchy product of each multiplier row with
    its equation's slots, summed over the equations: T_k = sum over nu,
    l <= k of (multiplier slot l) * (equation slot k-l), k = 0..p.  Approach
    B: one exact contraction sum over nu, k of (multiplier slot k) *
    (expanded equation slot k), slot p of the Cauchy product of the row
    reversed, so an approach-B row holds p + 1 slots, one per member.  All
    slots are eps-free (the slot index carries the power), so no further
    eps truncation is needed.
    """
    return _contract(problem, mult.method, mult.slots)


def _contract(problem: PdeProblem, method: str, rows, only: int | None = None) -> list:
    """:func:`contraction` of the per-equation slot lists ``rows``, whose
    coefficients may be column vectors: slot T_only alone, the others never
    formed, or every slot T_0..T_p when ``only`` is None.  Approach B
    reverses each row of p + 1 slots and forms slot p alone."""
    p = problem.p if only is None else only
    first = 0 if only is None else p
    if method == "approach_b":
        rows, first = [row[::-1] for row in rows], p
    parts = [{} for _ in range(first, p + 1)]
    for nu, row in enumerate(rows):
        dsl = problem.unexpanded_slots(nu) if method == "approach_a" else problem.expanded_slots(nu)
        for part, term in zip(parts, series_mul([as_poly(a) for a in row], [as_poly(d) for d in dsl], p, first)):
            kernel.poly_iadd(part, term)
    return [NormalForm(part) for part in parts]


def certified_contraction(problem: PdeProblem, mult: MultiplierSet) -> tuple:
    """The contraction of ``mult`` with the equations and its Euler
    residuals, the pair that both flux reconstruction and certification
    read.  The set keeps the pair from its first computation and hands it
    out again for the same problem object; another problem gets its own
    pair, computed afresh."""
    memo = mult._certified
    if memo is not None and memo[0] is problem:
        return memo[1], memo[2]
    targets = contraction(problem, mult)
    residuals = euler_residuals(problem, mult.method, targets)
    if memo is None:
        mult._certified = (problem, targets, residuals)
    return targets, residuals


def euler_coordinates(problem: PdeProblem, method: str) -> list[Jet]:
    """The coordinates whose Euler operators the method's multiplier sets
    must satisfy, dependent variable by dependent variable: u[0] for the
    consistent method, u unexpanded for approach A, u[0]..u[p] for approach
    B."""
    orders = {"consistent": (0,), "approach_a": (None,)}.get(method, range(problem.p + 1))
    return [Jet(a, k, ()) for a in range(problem.table.n_dep) for k in orders]


def euler_residuals(problem: PdeProblem, method: str, parts: list) -> list:
    """Euler-operator images of the contraction slots ``parts``; all must
    vanish for a multiplier set.  Returns (coordinate, slot index, residual)
    triples."""
    return [(v, k, euler(part, v))
            for v in euler_coordinates(problem, method)
            for k, part in enumerate(parts)]


# --- determining system -------------------------------------------------------


# Homogeneous exact linear system over the ansatz coefficients: the unknowns
# (nu, k, i) in column order and one {column: coefficient} dict per row.
LinearSystem = namedtuple("LinearSystem", "unknowns rows")


def _split(mono) -> tuple:
    """A basis monomial as (x-part, jet part): its independent-variable
    atoms and the rest, each a monomial key."""
    x, jet = [], []
    for j in range(0, len(mono), 2):
        a = atom_at(mono[j])
        (x if isinstance(a, Sym) else jet).extend(mono[j:j + 2])
    return tuple(x), tuple(jet)


def _determining_rows(problem: PdeProblem, ansatz: Ansatz, coefficient, only: int | None = None) -> dict:
    """The Euler residuals of contraction slot ``only``, or of every slot
    when it is None, of ``_series(ansatz, coefficient, only)``, whose
    coefficients are column vectors: one row (column -> coefficient) per
    (Euler coordinate, slot index among those formed, monomial), the one
    assembly of every determining system.

    Basis monomial i is x^alpha_i times a jet part.  The x-part is free of
    the dependent variables and passes through the series and the
    contraction, and the Euler operators factor over it through the higher
    Euler operators (:func:`~approxlaws.jets.higher_eulers`):

        E_v(x^alpha F) = sum over L of (-1)^|L| (alpha)_L x^(alpha-L) E^L_v(F),

    with (alpha)_L the product of the falling factorials of the exponents.
    So a reduced ansatz over the jet parts gets one unit column per (nu, k,
    jet part) that ``coefficient`` reaches, each slot of its contraction
    runs through every E^L_v once, and a residual term c m of E^L_v in
    reduced column (nu, k, j) adds (-1)^|L| c m d_L P to the rows, where P =
    sum over alpha of coefficient(nu, k, i) x^alpha over the basis monomials
    x^alpha j.  E^L_v vanishes past the slots' derivative order, which
    bounds L where a Laurent floor keeps every d_L x^alpha nonzero."""
    p = ansatz.p if only is None else only
    split = [_split(mono) for mono in ansatz.basis]
    jet_parts = list(dict.fromkeys(jet for _, jet in split))
    jet_index = {jet: j for j, jet in enumerate(jet_parts)}
    columns: dict = {}  # (nu, k, jet part index) -> its column of the reduced ansatz
    polys: list = []  # reduced column -> its P, with column-vector coefficients
    for nu in range(ansatz.q):
        for k in range(p + 1):
            for i, (x, jet) in enumerate(split):
                c = coefficient(nu, k, i)
                if c:
                    key = (nu, k, jet_index[jet])
                    if key not in columns:
                        columns[key] = len(polys)
                        polys.append({})
                    polys[columns[key]][x] = c
    if not polys:
        return {}
    reduced = Ansatz(ansatz.method, tuple(jet_parts), ansatz.q, ansatz.p)
    series = _series(reduced, lambda nu, k, j: {columns[nu, k, j]: 1} if (nu, k, j) in columns else None, only)
    parts = _contract(problem, ansatz.method, series, only)
    # derivs[L][column] = d_L P, along the prefix trie of L over the basis's
    # independent variables
    images = {atom_at(x[j]).pos: {x[j]: {(): 1}} for x, _ in split for j in range(0, len(x), 2)}
    derivs = {(): polys}
    for size in range(1, max_jet_order(parts) + 1):
        for L in combinations_with_replacement(sorted(images), size):
            derivs[L] = [kernel.derive(P, images[L[-1]]) if P else P for P in derivs[L[:-1]]]
    multi_indices = [L for L, Ps in derivs.items() if any(Ps)]
    rows = {}
    for v in euler_coordinates(problem, ansatz.method):
        for s, part in enumerate(parts):
            acc: dict = {}
            for L, res in higher_eulers(part, v, multi_indices).items():
                Ps = derivs[L]
                sign = -1 if len(L) % 2 else 1
                for m, vec in as_poly(res).items():
                    for col, c in vec.items():
                        if Ps[col]:
                            kernel.poly_iadd(acc, Ps[col], sign * c, m)
            for mono, row in acc.items():
                rows[(v, s, mono)] = row
    return rows


def determining_system(problem: PdeProblem, ansatz: Ansatz) -> LinearSystem:
    """The homogeneous linear system whose solutions are the multiplier sets
    of the ansatz's method: the Euler residuals of the contraction of the
    ansatz's vector slots (every unknown a unit column), one row per key
    (Euler coordinate v, slot s, monomial m), m a monomial of E_v(T_s).
    :func:`_determining_rows` forms m as a residual monomial of a jet part's
    higher Euler operator times a monomial of the independent variables,
    and sums every product that gives the same key.  Approach B is solved
    from it; for the eps-series methods it is the monolithic form of
    :func:`staged_nullspace`."""
    rows = _determining_rows(problem, ansatz, lambda nu, k, i: {_column(ansatz, nu, k, i): 1})
    n = len(ansatz.basis)
    unknowns = [(nu, k, i) for nu in range(ansatz.q) for k in range(ansatz.p + 1) for i in range(n)]
    return LinearSystem(unknowns, list(rows.values()))


def staged_nullspace(problem: PdeProblem, ansatz: Ansatz) -> list[tuple]:
    """The canonical basis of an eps-series ansatz's solution space, solved
    order by order; identical to the nullspace of
    ``determining_system(problem, ansatz)``.

    Slot k of the contraction holds the order-k unknowns c_k only through
    (multiplier slot k) * (equation slot 0), and there c_k multiplies the
    same basis as c_0 does in slot 0, times 1/k! for the consistent method
    and times 1 for approach A (see :func:`_series`).  So the system is
    block lower triangular with one diagonal block, a0: the slot-0 rows
    over the order-0 unknowns, with local column nu * n + i for unknown
    (nu, 0, i).  Column i of a0 is then the i-th order-k unknown in column
    order, for every k.  Order k lifts the order-(k-1) space N (order 0
    lifts the empty space): N transposed sets each unknown to the column
    vector of its entries in N's members, column n0 + y for member y, and
    the slot-k Euler residuals of that one series (c_k = 0) are N's columns
    beside a0 for c_k.
    """
    n = len(ansatz.basis)
    n0 = ansatz.q * n
    a0 = _determining_rows(problem, ansatz, lambda nu, j, i: {nu * n + i: 1}, 0)
    space: list = []  # vectors over the global columns
    for k in range(ansatz.p + 1):
        columns: dict = {}
        for y, vec in enumerate(space, n0):
            for col, x in vec.items():
                columns.setdefault(col, {})[y] = x
        # keyed as a0's rows: slot k is slot 0 of [T_k]
        lifted = _determining_rows(problem, ansatz, lambda nu, j, i: columns.get(_column(ansatz, nu, j, i)), k)
        rows = [row | lifted.pop(key) if key in lifted else row for key, row in a0.items()]
        rows.extend(lifted.values())
        # the c_k rows are a0/k!; a0 itself, shared unscaled, solves
        # for c_k/k!, so the c_k part is scaled back
        scale = math.factorial(k) if ansatz.method == "consistent" else 1
        nxt = []
        for vec in linalg.kernel_basis(rows, n0 + len(space)):
            out: dict = {}
            for i, x in vec.items():
                if i < n0:
                    out[_column(ansatz, i // n, k, i % n)] = scale * x
                else:
                    kernel.poly_iadd(out, space[i - n0], x)
            nxt.append(out)
        space = nxt
    return linalg.canonical_basis(space, n0 * (ansatz.p + 1))


# --- solve + classify ----------------------------------------------------------


ClassifiedMultiplier = namedtuple("ClassifiedMultiplier", "mult trivial eps_shift stable")

SolveResult = namedtuple("SolveResult", "method ansatz basis classified")


def _eps_multiple(ansatz: Ansatz, vec) -> dict:
    """The coefficient vector of eps times the multiplier set of ``vec``,
    truncated: order k moves to k + 1, times k + 1 for the consistent
    method (eps^(k+1) P_k / k! is (k+1) eps^(k+1) P_k / (k+1)!)."""
    n, p = len(ansatz.basis), ansatz.p
    out = {}
    for col, x in enumerate(vec):
        k = col // n % (p + 1)
        if x and k < p:
            out[col + n] = (k + 1) * x if ansatz.method == "consistent" else x
    return out


def classify(result_basis, ansatz: Ansatz) -> list:
    """Annotate basis multipliers: trivial (vanishing order-0 part), eps-shift
    duplicates of space members, stability of the order-0 part; non-trivial
    sets are ordered first.

    Triviality and eps-shifts are read off the coefficient vectors.  A set
    is trivial when all its order-0 columns (slot 0 is P_0) are zero; an
    approach-B member, a nonzero exact multiplier of the hierarchy, never
    is.  A trivial set is an eps-shift when its coefficient vector is in the
    span of the members' eps-multiples.  :func:`_series` is linear and one-to-one (slot k's part
    over order-0 coordinates alone is P_k/k!, as R^m raises the perturbation
    weight by m), so that is the test on the slots."""
    order0 = [_column(ansatz, nu, 0, i) for nu in range(ansatz.q) for i in range(len(ansatz.basis))]
    mults = instantiate(ansatz, result_basis)
    classified = []
    shifts = None  # the members' eps-multiples, built on the first shift check
    for vec, m in zip(result_basis, mults):
        trivial = m.method != "approach_b" and not any(vec[col] for col in order0)
        shift = False
        if trivial:
            if shifts is None:
                shifts = [_eps_multiple(ansatz, member) for member in result_basis]
            shift = linalg.in_span(shifts, {col: x for col, x in enumerate(vec) if x}) is not None
        # the stability notion (the order-0 part survives the perturbation)
        # belongs to the eps-series methods
        stable = not trivial and m.method != "approach_b"
        classified.append(ClassifiedMultiplier(m, trivial, shift, stable))
    order = sorted(range(len(classified)), key=lambda i: (classified[i].trivial, i))
    return [classified[i] for i in order]


def solve_multipliers(problem: PdeProblem, spec: AnsatzSpec, method: str = "consistent") -> SolveResult:
    ansatz = build_ansatz(problem, spec, method)
    if method == "approach_b":
        unknowns, rows = determining_system(problem, ansatz)
        basis = linalg.nullspace(rows, len(unknowns))
    else:
        basis = staged_nullspace(problem, ansatz)
    return SolveResult(method, ansatz, basis, classify(basis, ansatz))
