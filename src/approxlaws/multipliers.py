"""Multiplier ansatz construction, determining systems, and classification.

The unknown multiplier coefficient functions are realized as bounded-degree
polynomials over a generator set (independent variables and order-0 jet
coordinates, optionally Laurent in designated atoms) with unknown rational
coefficients.  Applying the Euler operators to the truncated contraction of
the ansatz with the equations and collecting coefficients of the free jet
monomials turns the determining conditions into one homogeneous exact linear
system; its nullspace basis is the solution space.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from . import kernel, linalg
from .atoms import COEFF, INDEP, FuncAtom, Jet, Sym, atom_at, coeff_sym, intern, mono_sort_key
from .expr import NormalForm, as_poly, atoms_of, normalize
from .jets import (
    EulerKind,
    consistent_euler,
    euler,
    per_order_euler,
    recursion_R,
    unexpanded_euler,
)
from .parser import parse
from .problem import PdeProblem, ProblemError, _multiset_contains

METHODS = ("consistent", "approach_a", "approach_b")


class AnsatzError(ProblemError):
    pass


class SingularAnsatzError(AnsatzError):
    """Generators depend on a declared leading derivative."""


@dataclass
class AnsatzSpec:
    """Polynomial multiplier ansatz shape.

    ``generators`` are independent variables and order-0 jet coordinates;
    ``degree`` bounds the total degree of the jet part and ``xdegree`` (default
    ``degree``) that of the independent-variable part.  ``laurent`` maps a
    generator to its minimum (negative) exponent; Laurent exponents count by
    absolute value towards the jet degree.
    """

    generators: tuple
    degree: int
    xdegree: int | None = None
    laurent: dict = field(default_factory=dict)
    allow_leading: bool = False

    def __post_init__(self):
        self.generators = tuple(self.generators)
        if self.degree < 0 or (self.xdegree is not None and self.xdegree < 0):
            raise AnsatzError("degree bounds must be nonnegative")
        if not self.generators and self.degree > 0:
            raise AnsatzError("empty generator set with a positive degree bound")
        self.laurent = {
            (k.with_order(0) if isinstance(k, Jet) else k): v
            for k, v in self.laurent.items()
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
    terms = list(normalize(parse(text.strip(), table)).terms())
    if len(terms) != 1 or terms[0][0] != 1 or len(terms[0][1]) != 1 or terms[0][1][0][1] != 1:
        raise AnsatzError(f"{text.strip()!r} is not a single generator atom")
    return terms[0][1][0][0]


def parse_ansatz(table, mult_deps: str | None, degree, xdegree=None,
                 laurent: str | None = None, allow_leading: bool = False) -> AnsatzSpec:
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
        allow_leading=allow_leading,
    )


@dataclass
class MultiplierSet:
    """Per-equation series slots of one multiplier set.

    ``slots[nu][k]`` is the order-k component for equation ``nu``: for the
    consistent method the k-th expansion coefficient over expanded jets, for
    approach A the k-th eps coefficient over unexpanded jets, for approach B
    the multiplier of hierarchy member k.
    """

    method: str
    slots: tuple
    provenance: str = "solver"

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        self.slots = tuple(tuple(normalize(s) for s in row) for row in self.slots)
        unexpanded = self.method == "approach_a"
        for row in self.slots:
            for slot in row:
                _check_slot_language(slot, unexpanded)


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
        return MultiplierSet(self.method, rows, provenance=self.provenance)


def _check_slot_language(slot, unexpanded: bool):
    """Series slots are eps-free (the slot index carries the power) and use
    one coordinate language: unexpanded jets for approach A, order-tagged
    ones otherwise.  Mixing is rejected rather than guessed at."""
    for a in atoms_of(slot):
        if isinstance(a, Sym) and a.kind == "eps":
            raise ValueError("series slots are eps-free; the slot index carries the power")
        order = None
        if isinstance(a, Jet):
            order = a.order
        elif isinstance(a, FuncAtom):
            order = a.arg.order
        else:
            continue
        if unexpanded and order is not None:
            raise ValueError("approach-a slots use unexpanded coordinates")
        if not unexpanded and order is None:
            raise ValueError("series slots use order-tagged coordinates")


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


def _guard_leading(problem: PdeProblem, gens, allow_leading: bool):
    if allow_leading:
        return
    for g in gens:
        if isinstance(g, Jet):
            for lead in problem.leading:
                if g.dep == lead.dep and _multiset_contains(g.deriv, lead.deriv):
                    raise SingularAnsatzError(
                        f"generator depends on the leading derivative of equation "
                        f"{problem.leading.index(lead) + 1} (pass allow_leading to override)"
                    )


def enumerate_basis(gens, degree: int, xdegree: int, laurent: dict) -> list:
    """Deterministic monomial basis: jet-part total degree <= degree (Laurent
    exponents counted by absolute value), independent-part <= xdegree."""
    xgens = [g for g in gens if isinstance(g, Sym)]
    jgens = [g for g in gens if not isinstance(g, Sym)]

    def powers(gen_list, bound):
        out = [()]
        for g in gen_list:
            lo = laurent.get(g, laurent.get(_order0(g), 0))
            new = []
            for combo in out:
                used = sum(abs(e) for _, e in combo)
                for e in range(lo, bound - used + 1):
                    if abs(e) + used <= bound:
                        new.append(combo + ((g, e),) if e else combo)
            out = _dedup(new)
        return out

    monos = set()
    for xc in powers(xgens, xdegree):
        for jc in powers(jgens, degree):
            mono = ()
            for g, e in xc + jc:
                mono = kernel.mono_mul(mono, (intern(g), e))
            monos.add(mono)
    return sorted(monos, key=mono_sort_key)


def _order0(g):
    return g.with_order(0) if isinstance(g, Jet) else g


def _dedup(seq):
    seen = set()
    out = []
    for s in seq:
        key = tuple(s)
        if key not in seen:
            seen.add(key)
            out.append(s)
    return out


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
    _guard_leading(problem, gens, spec.allow_leading)
    basis = enumerate_basis(gens, spec.degree, spec.xdeg, spec.laurent)
    rows = []
    for nu in range(problem.q):
        if method == "consistent":
            slot = NormalForm(
                _linear_combo(basis, [coeff_sym(nu, 0, m) for m in range(len(basis))])
            )
            slots = [slot]
            for k in range(p):
                nxt = kernel.poly_scale(as_poly(recursion_R(slots[k])), Fraction(1, k + 1))
                slots.append(NormalForm(nxt))
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


def contraction(problem: PdeProblem, mult: MultiplierSet) -> list:
    """The truncated product of the multiplier set with the equations.

    Consistent / approach A: the Cauchy-product slots T_k = sum over
    nu, l <= k of slots[nu][l] * (equation slot k-l), k = 0..p.  Approach B:
    a single exact contraction sum over nu, k of slots[nu][k] * (expanded
    equation slot k).

    These are the targets a law's flux divergence must equal, for every
    method.  Multiplier slots and equation slots are eps-free (the slot index
    carries the power), so the slots need no further eps truncation.
    """
    p = problem.p
    if mult.method == "approach_b":
        out = {}
        for nu in range(problem.q):
            dsl = problem.expanded_slots(nu)
            for k in range(p + 1):
                kernel.poly_iadd(out, as_poly(mult.slots[nu][k] * dsl[k]))
        return [NormalForm(out)]
    slots = []
    for k in range(p + 1):
        out = {}
        for nu in range(problem.q):
            dsl = (
                problem.expanded_slots(nu)
                if mult.method == "consistent"
                else problem.unexpanded_slots(nu)
            )
            for ell in range(k + 1):
                kernel.poly_iadd(out, as_poly(mult.slots[nu][ell] * dsl[k - ell]))
        slots.append(NormalForm(out))
    return slots


def euler_kinds(problem: PdeProblem, method: str) -> list[EulerKind]:
    m = problem.table.n_dep
    if method == "consistent":
        return [consistent_euler(a) for a in range(m)]
    if method == "approach_a":
        return [unexpanded_euler(a) for a in range(m)]
    return [per_order_euler(a, k) for a in range(m) for k in range(problem.p + 1)]


def euler_residuals(problem: PdeProblem, mult: MultiplierSet) -> list:
    """Euler-operator images of the contraction; all must vanish for ``mult``
    to be a multiplier set.  Returns (kind, slot index, residual) triples."""
    parts = contraction(problem, mult)
    out = []
    for kind in euler_kinds(problem, mult.method):
        for k, part in enumerate(parts):
            out.append((kind, k, euler(part, kind)))
    return out


# --- determining system -------------------------------------------------------


@dataclass
class LinearSystem:
    """Homogeneous exact linear system over the ansatz coefficients."""

    unknowns: list
    rows: list
    labels: list

    def nullspace(self) -> list[tuple]:
        return linalg.nullspace(self.rows, len(self.unknowns))


def _decompose_by_unknown(mult: MultiplierSet):
    """Split each slot, linear in the coefficient symbols, into per-unknown
    contribution polynomials.  Returns (ordered unknowns, contrib) with
    contrib[sym][(nu, k)] a plain polynomial dict."""
    contrib: dict = {}
    syms = set()
    for nu, row in enumerate(mult.slots):
        for k, slot in enumerate(row):
            for mono, c in as_poly(slot).items():
                csym = None
                rest = []
                for j in range(0, len(mono), 2):
                    a = atom_at(mono[j])
                    if isinstance(a, Sym) and a.kind == COEFF:
                        if csym is not None or mono[j + 1] != 1:
                            raise AnsatzError("ansatz is not linear in its unknowns")
                        csym = a
                    else:
                        rest.append(mono[j])
                        rest.append(mono[j + 1])
                if csym is None:
                    raise AnsatzError("ansatz term without an unknown coefficient")
                syms.add(csym)
                bucket = contrib.setdefault(csym, {})
                kernel.poly_iadd(bucket.setdefault((nu, k), {}), {tuple(rest): c})
    unknowns = sorted(syms, key=lambda s: s.tag)
    return unknowns, contrib


def determining_system(problem: PdeProblem, ansatz: MultiplierSet, method: str | None = None) -> LinearSystem:
    """Assemble the homogeneous linear system whose solutions are the
    multiplier sets: apply every Euler operator of the method's family to the
    truncated contraction and collect coefficients of each free monomial."""
    method = method or ansatz.method
    if method != ansatz.method:
        raise ValueError("ansatz shape does not match the requested method")
    for row in ansatz.slots:
        for slot in row:
            for a in atoms_of(slot):
                if isinstance(a, Jet) and problem._is_leading_like(a):
                    raise SingularAnsatzError(
                        "ansatz depends on a leading derivative; multipliers would be "
                        "singular on solutions"
                    )
    p = problem.p
    unknowns, contrib = _decompose_by_unknown(ansatz)
    uindex = {s: j for j, s in enumerate(unknowns)}
    kinds = euler_kinds(problem, method)

    rows_by_key: dict = {}
    for sym in unknowns:
        j = uindex[sym]
        pieces = contrib[sym]
        if method == "approach_b":
            targets = {}
            for (nu, k), a_poly in pieces.items():
                dsl = problem.expanded_slots(nu)
                kernel.poly_iadd(targets.setdefault(0, {}), kernel.poly_mul(a_poly, as_poly(dsl[k])))
        else:
            targets = {}
            for (nu, ell), a_poly in pieces.items():
                dsl = (
                    problem.expanded_slots(nu)
                    if method == "consistent"
                    else problem.unexpanded_slots(nu)
                )
                for k in range(ell, p + 1):
                    kernel.poly_iadd(
                        targets.setdefault(k, {}),
                        kernel.poly_mul(a_poly, as_poly(dsl[k - ell])),
                    )
        for kind in kinds:
            for k, tgt in sorted(targets.items()):
                res = euler(NormalForm(tgt), kind)
                for mono, c in as_poly(res).items():
                    key = (kinds.index(kind), k, mono)
                    rows_by_key.setdefault(key, {})[j] = c

    labels = sorted(rows_by_key, key=lambda key: (key[0], key[1], mono_sort_key(key[2])))
    rows = [rows_by_key[key] for key in labels]
    return LinearSystem(unknowns, rows, labels)


def instantiate(ansatz: MultiplierSet, unknowns, vector) -> MultiplierSet:
    """Substitute a coefficient vector into the ansatz."""
    values = dict(zip(unknowns, vector))
    rows = []
    for row in ansatz.slots:
        new_row = []
        for slot in row:
            out = {}
            for mono, c in as_poly(slot).items():
                rest = []
                v = c
                for j in range(0, len(mono), 2):
                    a = atom_at(mono[j])
                    if isinstance(a, Sym) and a.kind == COEFF:
                        v = v * values.get(a, 0)
                    else:
                        rest.append(mono[j])
                        rest.append(mono[j + 1])
                if v:
                    kernel.poly_iadd(out, {tuple(rest): v})
            new_row.append(NormalForm(out))
        rows.append(tuple(new_row))
    return MultiplierSet(ansatz.method, tuple(rows))


# --- solve + classify ----------------------------------------------------------


@dataclass
class ClassifiedMultiplier:
    mult: MultiplierSet
    vector: tuple
    trivial: bool
    eps_shift: bool
    stable: bool

    @property
    def nontrivial(self) -> bool:
        return not self.trivial


@dataclass
class SolveResult:
    problem: PdeProblem
    method: str
    ansatz: MultiplierSet
    system: LinearSystem
    basis: list
    classified: list


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


def classify(result_basis, ansatz: MultiplierSet, unknowns, problem: PdeProblem) -> list:
    """Annotate basis multipliers: trivial (vanishing order-0 part), eps-shift
    duplicates of space members, stability of the order-0 part; non-trivial
    sets are ordered first."""
    mults = [instantiate(ansatz, unknowns, v) for v in result_basis]
    classified = []
    for vec, m in zip(result_basis, mults):
        trivial = m.is_trivial()
        shift = False
        if trivial and not m.is_zero() and m.method != "approach_b":
            shift = _is_eps_shift(m, mults)
        # the stability notion (the order-0 part survives the perturbation)
        # belongs to the eps-series methods
        stable = not trivial and m.method != "approach_b"
        classified.append(ClassifiedMultiplier(m, vec, trivial, shift, stable))
    order = sorted(range(len(classified)), key=lambda i: (classified[i].trivial, i))
    return [classified[i] for i in order]


def _is_eps_shift(m: MultiplierSet, space: list) -> bool:
    """Is there a space member whose eps-multiple equals m (slotwise, the last
    slot of the member being beyond truncation)?"""
    p = m.p
    # unshift: candidate slots k = m slots k+1 for k < p; match against
    # combinations of the basis on slots 0..p-1.
    target = {(nu, k - 1, mono): c for (nu, k, mono), c in _slot_coefficients(m).items() if k}
    columns = [_slot_coefficients(member, p - 1) for member in space]
    return linalg.in_span(columns, target) is not None


def solve_multipliers(problem: PdeProblem, spec: AnsatzSpec, method: str = "consistent") -> SolveResult:
    ansatz = build_ansatz(problem, spec, method)
    system = determining_system(problem, ansatz, method)
    basis = system.nullspace()
    classified = classify(basis, ansatz, system.unknowns, problem)
    return SolveResult(problem, method, ansatz, system, basis, classified)


def coefficient_vector(mult: MultiplierSet, ansatz: MultiplierSet, unknowns) -> tuple | None:
    """Express a concrete multiplier set in the ansatz coefficient space, or
    None if it does not fit (used for span-membership tests)."""
    _, contrib = _decompose_by_unknown(ansatz)
    columns = [_keyed_coefficients(contrib[s]) for s in unknowns]
    return linalg.in_span(columns, _slot_coefficients(mult))
