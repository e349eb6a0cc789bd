"""Multiplier ansatz construction, determining systems, and classification.

The unknown multiplier coefficient functions are realized as bounded-degree
polynomials over a generator set (independent variables and order-0 jet
coordinates, optionally Laurent in designated atoms) with unknown rational
coefficients.  A multiplier set is one whose truncated contraction with the
equations the Euler operators of the method's coordinates
(:func:`euler_coordinates`) annihilate.  The determining system is
``verify_euler``'s residuals of the symbolic ansatz, split by unknown:
each contraction term holds one unknown (the column) times a free jet
monomial, so the Euler operators run on the contraction with column-vector
coefficients and each residual monomial (with the Euler coordinate and
slot) is a row.  Its nullspace basis is the solution space.  The same
contraction and Euler residuals certify a concrete multiplier set and give
the targets of flux reconstruction.

The eps-series methods (consistent, approach A) solve that system order by
order, as the multiplier splits into Lambda_0 + eps Lambda_1 + ...: the
slot-0 rows A_0 over the order-0 unknowns give the exact multipliers of
the unperturbed system, and each order k lifts the order-(k-1) space
through the same A_0 (see :func:`staged_nullspace`).  For the consistent
method Lambda_k depends on u[0]..u[k] only, which every
:class:`MultiplierSet` is checked for when it is made.  Approach B, one
exact contraction of the hierarchy, is solved in one piece by
:func:`determining_system`, which for the eps-series methods is the
monolithic form the staged solve must agree with.
"""

from __future__ import annotations

import math
from collections import namedtuple

from . import kernel, linalg
from .atoms import COEFF, INDEP, Jet, Sym, atom_at, coeff_sym, intern, mono_sort_key
from .expr import NormalForm, UnsupportedFormError, as_poly, atoms_of, normalize
from .jets import check_slots, euler, recursion_series, series_mul
from .parser import parse, single_atom
from .problem import METHODS, PdeProblem, ProblemError


# Bound on the unknowns of a multiplier ansatz (basis size x equations x
# series slots), checked as the basis is built: assembly and elimination
# of the determining system grow with it, so an oversized ansatz would run
# for hours instead of failing.  nls2 at order 3 has 11,088 unknowns from
# its hint and solves in ~5 s; at degree 6 and x-degree 2 it has 44,352
# and solves in ~24 s, peaking at ~350 MB (one core of a 2-core Intel Xeon
# VM, CPython 3.11).
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
    absolute value towards the jet degree.
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
        self.laurent = {
            (k.with_order(0) if isinstance(k, Jet) else k): v
            for k, v in laurent.items()
        }

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

    __slots__ = ("method", "slots", "_memo")

    def __init__(self, method: str, slots):
        if method not in METHODS:
            raise ValueError(f"unknown method {method!r}")
        self.method = method
        self.slots = tuple(tuple(normalize(s) for s in row) for row in slots)
        for row in self.slots:
            check_slots(row, method == "approach_a", method == "consistent")
        # work on this set read by more than one caller, done once per
        # object: "certified" holds (problem, contraction, Euler residuals)
        # from the first certification; an ansatz keeps "pieces", its
        # per-unknown decomposition
        self._memo = {}

    @property
    def q(self) -> int:
        return len(self.slots)

    @property
    def p(self) -> int:
        return len(self.slots[0]) - 1

    def is_zero(self) -> bool:
        return all(s.is_zero() for row in self.slots for s in row)

    def is_trivial(self) -> bool:
        """Trivial iff every order-0 component vanishes.  Approach-B sets are
        exact multipliers of the coupled hierarchy, so only the zero set is
        trivial there."""
        if self.method == "approach_b":
            return self.is_zero()
        return all(row[0].is_zero() for row in self.slots)

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


def build_ansatz(problem: PdeProblem, spec: AnsatzSpec, method: str = "consistent") -> MultiplierSet:
    """Multiplier ansatz with fresh unknown coefficients.

    Consistent method: slot 0 is the degree-bounded polynomial over the
    generators, and each next slot is the recursion-operator image of the
    previous one divided by the slot index, which both inherits the
    derivative terms of lower orders and introduces the fresh next-order
    coefficient function (coefficient tags shift).  Approaches A and B take
    fresh independent polynomials per slot over their own variable sets.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    p = problem.p
    gens = shape_generators(spec.generators, method, p)
    basis = enumerate_basis(gens, spec.degree, spec.xdeg, spec.laurent, problem.q * (p + 1))
    rows = []
    for nu in range(problem.q):
        if method == "consistent":
            slot0 = _linear_combo(basis, [coeff_sym(nu, 0, m) for m in range(len(basis))])
            slots = recursion_series(slot0, p)
        else:
            slots = [
                NormalForm(_linear_combo(basis, [coeff_sym(nu, k, m) for m in range(len(basis))]))
                for k in range(p + 1)
            ]
        rows.append(tuple(slots))
    return MultiplierSet(method, tuple(rows))


def _linear_combo(basis, syms):
    out = {}
    for mono, s in zip(basis, syms):
        out[kernel.mono_mul(mono, (intern(s), 1))] = 1
    return out


# --- contraction and Euler residuals -----------------------------------------


def contraction(problem: PdeProblem, mult: MultiplierSet, upto: int | None = None) -> list:
    """The truncated product of the multiplier set with the equations: the
    targets a law's flux divergence must equal.

    Consistent / approach A: the Cauchy product of each multiplier row with
    its equation's slots, summed over the equations: T_k = sum over nu,
    l <= k of (multiplier slot l) * (equation slot k-l), k = 0..p.  Approach
    B: one exact contraction sum over nu, k of (multiplier slot k) *
    (expanded equation slot k).  All slots are eps-free (the slot index
    carries the power), so no further eps truncation is needed.  ``upto``
    truncates the series slots lower, at T_upto.
    """
    p = problem.p if upto is None else upto
    if mult.method == "approach_b":
        out = {}
        for nu, row in enumerate(mult.slots):
            dsl = problem.expanded_slots(nu)
            for k, a in enumerate(row):
                kernel.poly_iadd(out, kernel.poly_mul(as_poly(a), as_poly(dsl[k])))
        return [NormalForm(out)]
    parts = [{} for _ in range(p + 1)]
    for nu, row in enumerate(mult.slots):
        dsl = problem.expanded_slots(nu) if mult.method == "consistent" else problem.unexpanded_slots(nu)
        for part, term in zip(parts, series_mul([as_poly(a) for a in row], [as_poly(d) for d in dsl], p)):
            kernel.poly_iadd(part, term)
    return [NormalForm(part) for part in parts]


def certified_contraction(problem: PdeProblem, mult: MultiplierSet) -> tuple:
    """The contraction of ``mult`` with the equations and its Euler
    residuals, the pair that both flux reconstruction and certification
    read.  The set keeps the pair from its first computation and hands it
    out again for the same problem object; another problem gets its own
    pair, computed afresh."""
    memo = mult._memo.get("certified")
    if memo is not None and memo[0] is problem:
        return memo[1], memo[2]
    targets = contraction(problem, mult)
    residuals = euler_residuals(problem, mult.method, targets)
    mult._memo.setdefault("certified", (problem, targets, residuals))
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


# Homogeneous exact linear system over the ansatz coefficients: the
# coefficient symbols and one {column: coefficient} dict per row.
LinearSystem = namedtuple("LinearSystem", "unknowns rows")


class _UnknownColumns(dict):
    """Atom id -> the label of its unknown (a column index or the symbol,
    as ``label`` maps a coefficient symbol) or None for a free atom, each
    atom classified on its first lookup.  A coefficient symbol that
    ``label`` maps to None raises AnsatzError."""

    def __init__(self, label):
        super().__init__()
        self.label = label

    def __missing__(self, aid):
        a = atom_at(aid)
        x = None
        if isinstance(a, Sym) and a.kind == COEFF:
            x = self.label(a)
            if x is None:
                raise AnsatzError(f"ansatz unknown {a!r} is not a column of the system")
        self[aid] = x
        return x


def _split_term(mono, columns: _UnknownColumns) -> tuple:
    """The label of the one unknown in the monomial ``mono``, looked up in
    ``columns``, and the rest of the monomial.  Raises AnsatzError unless
    ``mono`` holds exactly one unknown, to the first power."""
    col = at = None
    for j in range(0, len(mono), 2):
        x = columns[mono[j]]
        if x is not None:
            if col is not None or mono[j + 1] != 1:
                raise AnsatzError("ansatz is not linear in its unknowns")
            col, at = x, j
    if col is None:
        raise AnsatzError("ansatz term without an unknown coefficient")
    return col, mono[:at] + mono[at + 2:]


def _decompose_by_unknown(mult: MultiplierSet) -> dict:
    """Split each slot into per-unknown contribution polynomials:
    contrib[sym][(nu, k)] is a plain polynomial dict.  Computed once per
    ansatz; callers read it and do not mutate it."""
    contrib = mult._memo.get("pieces")
    if contrib is None:
        contrib = mult._memo["pieces"] = {}
        columns = _UnknownColumns(lambda sym: sym)
        for nu, row in enumerate(mult.slots):
            for k, slot in enumerate(row):
                for mono, c in as_poly(slot).items():
                    sym, rest = _split_term(mono, columns)
                    contrib.setdefault(sym, {}).setdefault((nu, k), {})[rest] = c
    return contrib


def _unknowns(problem: PdeProblem, ansatz: MultiplierSet) -> list:
    """The ansatz's coefficient symbols in tag order (equation, order,
    index).  Raises SingularAnsatzError, before any assembly, if the ansatz
    depends on a declared leading derivative."""
    syms = set()
    for row in ansatz.slots:
        for slot in row:
            for a in atoms_of(slot):
                nu = problem.leading_equation(a) if isinstance(a, Jet) else None
                if nu is not None:
                    raise SingularAnsatzError(
                        f"ansatz depends on the leading derivative of equation {nu + 1}; "
                        "multipliers would be singular on solutions"
                    )
                if isinstance(a, Sym) and a.kind == COEFF:
                    syms.add(a)
    return sorted(syms, key=lambda s: s.tag)


def _euler_rows(problem: PdeProblem, method: str, parts: list, column: dict) -> dict:
    """The Euler residuals of the symbolic contraction slots ``parts``, split
    by unknown: one row (column -> coefficient) per (Euler coordinate,
    slot, free monomial).  Each contraction term's unknown is split off
    first, so the Euler operators run on polynomials whose coefficients are
    column vectors, and each residual monomial's vector is its row."""
    columns = _UnknownColumns(column.get)
    vector_parts = []
    for part in parts:
        vp: dict = {}
        for mono, c in as_poly(part).items():
            col, rest = _split_term(mono, columns)
            vp.setdefault(rest, {})[col] = c
        vector_parts.append(vp)
    return {(v, k, mono): row
            for v, k, res in euler_residuals(problem, method, vector_parts)
            for mono, row in as_poly(res).items()}


def determining_system(problem: PdeProblem, ansatz: MultiplierSet) -> LinearSystem:
    """The homogeneous linear system whose solutions are the multiplier sets
    of the ansatz's method: the Euler residuals of the ansatz's contraction,
    split by unknown, one row per (Euler coordinate, slot, free monomial).
    Approach B is solved from it; for the eps-series methods it is the
    monolithic form of :func:`staged_nullspace`."""
    unknowns = _unknowns(problem, ansatz)
    column = {s: j for j, s in enumerate(unknowns)}
    rows = _euler_rows(problem, ansatz.method, contraction(problem, ansatz), column)
    return LinearSystem(unknowns, list(rows.values()))


def staged_nullspace(problem: PdeProblem, ansatz: MultiplierSet, unknowns: list) -> list[tuple]:
    """The canonical basis of an eps-series ansatz's solution space, solved
    order by order; identical to the nullspace of
    ``determining_system(problem, ansatz)``, whose ``unknowns`` it takes.

    Slot k of the contraction holds the order-k unknowns c_k only through
    (multiplier slot k) * (equation slot 0), and there c_k multiplies the
    same basis as c_0 does in slot 0, times 1/k! for the consistent method
    (slot k is R^k(slot 0)/k!) and times 1 for approach A.  So the system
    is block lower triangular with one diagonal block, a0: the slot-0 rows
    over the order-0 unknowns, the only rows assembled symbolically.
    ``build_ansatz`` gives every order the same (equation, basis index)
    unknowns, so the i-th order-k unknown in tag order is column i of a0.
    The solve takes a0's kernel, then for k = 1..p lifts the order-(k-1)
    space N: its columns are the slot-k Euler residuals of N's multiplier
    sets (c_k = 0) beside a0 for c_k.
    """
    orders = [[] for _ in range(ansatz.p + 1)]
    for j, s in enumerate(unknowns):
        orders[s.tag[1]].append(j)
    n0 = len(orders[0])
    column = {unknowns[j]: i for i, j in enumerate(orders[0])}
    a0 = _euler_rows(problem, ansatz.method, contraction(problem, ansatz, 0), column)
    # vectors over the global unknown index
    space = [{orders[0][i]: v for i, v in vec.items()}
             for vec in linalg.kernel_basis(list(a0.values()), n0)]
    lower = orders[0]
    for k in range(1, ansatz.p + 1):
        syms = [unknowns[j] for j in lower]
        mults = instantiate(ansatz, syms, [tuple(vec.get(j, 0) for j in lower) for vec in space])
        lifted: dict = {}  # keyed as a0's rows: slot k is slot 0 of [T_k]
        for y, mult in enumerate(mults, n0):
            for v, _, res in euler_residuals(problem, ansatz.method, contraction(problem, mult, k)[k:]):
                for mono, c in as_poly(res).items():
                    lifted.setdefault((v, 0, mono), {})[y] = c
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
                    out[orders[k][i]] = scale * x
                else:
                    kernel.poly_iadd(out, space[i - n0], x)
            nxt.append(out)
        space = nxt
        lower = lower + orders[k]
    return linalg.canonical_basis(space, len(unknowns))


def instantiate(ansatz: MultiplierSet, unknowns, vectors) -> list:
    """Substitute each coefficient vector into the ansatz: the multiplier set
    is the linear combination of the per-unknown pieces."""
    contrib = _decompose_by_unknown(ansatz)
    out = []
    for vector in vectors:
        slots = [[{} for _ in row] for row in ansatz.slots]
        for sym, v in zip(unknowns, vector):
            for (nu, k), piece in contrib[sym].items():
                kernel.poly_iadd(slots[nu][k], piece, v)
        rows = tuple(tuple(NormalForm(s) for s in row) for row in slots)
        out.append(MultiplierSet(ansatz.method, rows))
    return out


# --- solve + classify ----------------------------------------------------------


ClassifiedMultiplier = namedtuple("ClassifiedMultiplier", "mult vector trivial eps_shift stable")

SolveResult = namedtuple("SolveResult", "problem method ansatz unknowns basis classified")


def _keyed_coefficients(slots: dict) -> dict:
    """Flatten ``{(nu, k): polynomial}`` into ``{(nu, k, monomial): coefficient}``."""
    return {(nu, k, mono): c for (nu, k), pol in slots.items() for mono, c in pol.items()}


def _slot_coefficients(mult: MultiplierSet, upto: int | None = None) -> dict:
    """The multiplier's coefficients keyed by (nu, k, monomial), slots k <= upto."""
    return _keyed_coefficients({
        (nu, k): as_poly(slot)
        for nu, row in enumerate(mult.slots)
        for k, slot in enumerate(row)
        if upto is None or k <= upto
    })


def classify(result_basis, ansatz: MultiplierSet, unknowns) -> list:
    """Annotate basis multipliers: trivial (vanishing order-0 part), eps-shift
    duplicates of space members, stability of the order-0 part; non-trivial
    sets are ordered first."""
    mults = instantiate(ansatz, unknowns, result_basis)
    classified = []
    span = None  # the members' slots 0..p-1, built on the first shift check
    for vec, m in zip(result_basis, mults):
        trivial = m.is_trivial()
        shift = False
        if trivial and not m.is_zero() and m.method != "approach_b":
            if span is None:
                span = [_slot_coefficients(member, m.p - 1) for member in mults]
            shift = _is_eps_shift(m, span)
        # the stability notion (the order-0 part survives the perturbation)
        # belongs to the eps-series methods
        stable = not trivial and m.method != "approach_b"
        classified.append(ClassifiedMultiplier(m, vec, trivial, shift, stable))
    order = sorted(range(len(classified)), key=lambda i: (classified[i].trivial, i))
    return [classified[i] for i in order]


def _is_eps_shift(m: MultiplierSet, span: list) -> bool:
    """Is there a space member whose eps-multiple equals m (slotwise, the last
    slot of the member being beyond truncation)?  ``span`` holds the space
    members' coefficients on slots 0..p-1."""
    # unshift: candidate slots k = m slots k+1 for k < p; match against
    # combinations of the basis on slots 0..p-1.
    target = {(nu, k - 1, mono): c for (nu, k, mono), c in _slot_coefficients(m).items() if k}
    return linalg.in_span(span, target) is not None


def solve_multipliers(problem: PdeProblem, spec: AnsatzSpec, method: str = "consistent") -> SolveResult:
    ansatz = build_ansatz(problem, spec, method)
    if method == "approach_b":
        unknowns, rows = determining_system(problem, ansatz)
        basis = linalg.nullspace(rows, len(unknowns))
    else:
        unknowns = _unknowns(problem, ansatz)
        basis = staged_nullspace(problem, ansatz, unknowns)
    classified = classify(basis, ansatz, unknowns)
    return SolveResult(problem, method, ansatz, unknowns, basis, classified)
