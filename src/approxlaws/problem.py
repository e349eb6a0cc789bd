"""Problem definition, the problem-file format, and on-solution reduction.

On-solution reduction eliminates leading derivatives.  A series (the list
of its eps-free slots, see :mod:`approxlaws.jets`) reduces slot by slot
over expanded coordinates; an approach-A series over unexpanded ones is
expanded first.  That is exact: expansion is one-to-one on series truncated
at the problem order, commutes with every total derivative, and maps the
rule u_lead -> rest to the rules u[k]_lead -> slot k of rest's expansion,
so the expanded slots reduce to zero exactly when the joined series does
modulo eps^(p+1).

A problem is a system of equations over unexpanded dependent variables,
polynomial in the small parameter up to the truncation order, each solved
with respect to a declared leading derivative (Cauchy-Kovalevskaya form):
the remainder must be free of every equation's leading derivative and of
their further derivatives, and no equation's leading derivative may be
another's or a derivative of it.

Problem files are line-oriented ``key = value`` text.  Declarations::

    name = diffusion-consistent
    method = consistent
    independent = t, x
    dependent = u
    parameters = c, lambda
    functions = f(u)
    order = 1
    equation = u_t - u^-2*u_xx + 2*u^-3*u_x^2 - eps*(1 + u^-2)*u_x
    leading = u_t

Optional expected-result blocks carry published multiplier/flux sets::

    multiplier.N.K = <expr>          (single equation; K = series slot)
    multiplier.N.NU.K = <expr>       (systems; NU = equation index)
    flux.N.VAR.K = <expr>            (VAR = independent variable name)
    expected.N.status = identity | onsolution
    epsilon_shifts = N, M            (laws whose eps-multiples are also listed results)
    hint.mult_deps = t, x, u[0]      (ansatz reproducing the results)
    hint.mult_degree = 2
    hint.laurent = u[0]:-2
    hint.mult_xdegree = 1
    note = free-text documentation

``#`` starts a comment line.  Slot expressions for the consistent and
approach-b methods use expanded coordinates (``u[0]``, ``u[1]``); approach-a
slot expressions use unexpanded ones.  A consistent ``multiplier.N.K`` holds
coordinates of perturbation order at most K only, as the expansion
Lambda_0 + eps Lambda_1 + ... requires.  A slot that breaks either rule is
an input error (the CLI exits 2).  ``equation``, ``leading`` and ``note``
may repeat; every other key, and every multiplier, flux or status slot, is
given once.  Each law has at least one ``multiplier`` line.  The four
``hint`` keys above are the only ones; any other is an error, so a misspelt
hint cannot be dropped unseen.  A hint a file omits takes the default of
its CLI flag (:data:`HINT_DEFAULTS`).

Every key is checked when a file is parsed, but a multiplier or flux value is
kept as ``(where, text)``, its raw text with its ``source:lineno``: only
:func:`approxlaws.corpus.recorded_laws`, where laws are built, parses it, so
commands that never read the recorded laws do not pay for them.
"""

from __future__ import annotations

from collections import namedtuple

from .atoms import DeclarationError, Jet, Sym, SymbolTable, mono_atoms
from .expr import (
    NormalForm,
    UnsupportedFormError,
    as_poly,
    atoms_of,
    normalize,
    partial,
    pow_int,
    substitute,
)
from .jets import (collect_eps, expand_epsilon, expansion_state, join_eps, max_jet_order,
                   total_derivative_chain)
from .parser import MAX_DIGITS, MAX_TERMS, ParseError, parse, power_passes_digits, power_terms, single_atom

MAX_ORDER = 3  # configuration cap on the truncation order
# Bound on the substitution rounds of one on-solution reduction
MAX_REDUCTION_ROUNDS = 40
# Bound on the extra derivatives of a leading derivative's differential
# consequence that one on-solution reduction may substitute
MAX_PROLONGATION = 2
METHODS = ("consistent", "approach_a", "approach_b")


class ProblemError(Exception):
    pass


class InconclusiveReduction(Exception):
    """On-solution reduction hit a bound (prolongation, rounds, parser.MAX_TERMS terms, parser.MAX_DIGITS
    digits) or left the normal forms."""


def _extra_derivatives(jet: Jet, lead: Jet) -> tuple | None:
    """The multi-index of the derivatives ``jet`` takes beyond ``lead`` when
    it is ``lead`` or a derivative of it, at any perturbation order; None
    otherwise."""
    if jet.dep != lead.dep:
        return None
    rest = list(jet.deriv)
    for i in lead.deriv:
        if i not in rest:
            return None
        rest.remove(i)
    return tuple(rest)


class PdeProblem:
    __slots__ = ("table", "eqns", "leading", "p", "name", "_rest", "_exp_cache", "inverted_blocks")

    def __init__(self, table: SymbolTable, eqns: list, leading: list, p: int, name: str = ""):
        if not (1 <= p <= MAX_ORDER):
            raise ProblemError(f"truncation order must be in 1..{MAX_ORDER}")
        if len(eqns) != len(leading):
            raise ProblemError("one leading derivative per equation is required")
        self.table = table
        self.eqns = [normalize(e) for e in eqns]
        self.leading = leading
        self.p = p
        self.name = name
        self._exp_cache = {}
        # flux blocks inverted by approxlaws.fluxes.reconstruct, keyed by the
        # exact input of their inversion; they die with the problem
        self.inverted_blocks = {}
        self._rest = []
        for nu, (eqn, lead) in enumerate(zip(self.eqns, self.leading)):
            if not isinstance(lead, Jet) or lead.order is not None:
                raise ProblemError("leading derivatives are unexpanded jet coordinates")
            for mu, other in enumerate(self.leading[:nu]):
                if _extra_derivatives(lead, other) is not None or _extra_derivatives(other, lead) is not None:
                    raise ProblemError(f"equations {mu + 1} and {nu + 1}: one leading derivative is the other's "
                                       "or a derivative of it")
            if expansion_state(eqn)[1]:
                raise ProblemError("equations are written over unexpanded variables")
            q = partial(eqn, lead)
            if q.is_zero():
                raise ProblemError(f"equation {nu + 1} does not contain its leading derivative")
            for a in atoms_of(q):
                if not (isinstance(a, Sym) and a.kind == "param"):
                    raise ProblemError(
                        f"equation {nu + 1}: leading derivative must occur linearly with a "
                        "parameter-monomial coefficient"
                    )
            if len(as_poly(q)) != 1:
                raise ProblemError(f"equation {nu + 1}: leading coefficient must be a monomial")
            rest = (q * lead - eqn) * pow_int(q, -1)
            self._rest.append(rest)
        # Cauchy-Kovalevskaya: every rest free of all leading jets and their derivatives
        for nu, rest in enumerate(self._rest):
            for a in atoms_of(rest):
                if isinstance(a, Jet) and self.leading_equation(a) is not None:
                    raise ProblemError(
                        f"equation {nu + 1} is not in Cauchy-Kovalevskaya form: "
                        f"remainder contains a leading-derived coordinate"
                    )
        for nu, eqn in enumerate(self.eqns):
            if len(collect_eps(eqn)) - 1 > self.p:
                raise ProblemError(f"equation {nu + 1} has eps-degree above the truncation order")

    # -- basic facts -------------------------------------------------------

    @property
    def q(self) -> int:
        return len(self.eqns)

    @property
    def r(self) -> int:
        """Maximum derivative order over all equations."""
        return max_jet_order(self.eqns)

    def leading_equation(self, jet: Jet) -> int | None:
        """Index of the equation whose leading derivative ``jet`` is, or is
        a derivative of; None if there is none.  There is at most one, since
        no leading derivative is another's or a derivative of it."""
        for nu, lead in enumerate(self.leading):
            if _extra_derivatives(jet, lead) is not None:
                return nu
        return None

    def expanded_slots(self, nu: int) -> list:
        """Slots of the expansion of equation ``nu`` at the problem order."""
        if nu not in self._exp_cache:
            self._exp_cache[nu] = expand_epsilon(self.eqns[nu], self.p)
        return self._exp_cache[nu]

    def unexpanded_slots(self, nu: int) -> list:
        """The eps-power slots 0..p of equation ``nu`` without expanding
        variables, read off the equation when approach A's contraction asks."""
        return [NormalForm(s) for s in collect_eps(self.eqns[nu], self.p)]

    # -- on-solution reduction ----------------------------------------------

    def solution_rules(self):
        """Leading-derivative elimination images over expanded coordinates:
        per order k the slot equation gives ``u_(k),J_lead -> rest slot k``."""
        rules = []
        for nu in range(self.q):
            rest_slots = expand_epsilon(self._rest[nu], self.p)
            for k in range(self.p + 1):
                rules.append((self.leading[nu].with_order(k), rest_slots[k]))
        return rules

    def reduce_on_solutions(self, e) -> NormalForm:
        """Substitute leading derivatives and their differential consequences
        (prolongations up to ``MAX_PROLONGATION`` extra derivatives) in the
        expression ``e`` over expanded coordinates until none remain.

        Raises :class:`InconclusiveReduction` if every jet left to substitute
        needs a prolongation past the bound, the rewriting does not settle within
        ``MAX_REDUCTION_ROUNDS`` substitutions, or a substitution would pass
        ``MAX_TERMS`` terms (counted first), make a coefficient of more than
        ``MAX_DIGITS`` digits (bounded first, as the parser bounds a power)
        or raise a sum to a negative power.
        """
        rules = self.solution_rules()
        cur = normalize(e)
        for _ in range(MAX_REDUCTION_ROUNDS):
            # the first leading-derived jet within the prolongation bound, or
            # else the first one, with its rule and extra derivatives: a jet
            # past the bound may cancel once the others are substituted
            found = ((a, rest, extra) for a in atoms_of(cur) if isinstance(a, Jet) for lead, rest in rules
                     if a.order == lead.order and (extra := _extra_derivatives(a, lead)) is not None)
            match = min(found, key=lambda m: len(m[2]) > MAX_PROLONGATION, default=None)
            if match is None:
                return cur
            a, rest, extra = match
            if len(extra) > MAX_PROLONGATION:
                raise InconclusiveReduction(f"prolongation depth {len(extra)} exceeds bound {MAX_PROLONGATION}")
            image = as_poly(total_derivative_chain(rest, extra))
            k = max(len(image), 1)  # a^n in a monomial makes power_terms(k, n) terms
            powers = [dict(mono_atoms(m)).get(a, 0) for m in as_poly(cur)]
            if sum(power_terms(k, n) for n in powers) > MAX_TERMS:
                raise InconclusiveReduction(f"substituting {a!r} would make more than {MAX_TERMS} terms")
            if any(power_passes_digits(image, n) for n in powers):
                raise InconclusiveReduction(f"substituting {a!r} would make a coefficient of more than "
                                            f"{MAX_DIGITS} digits")
            try:
                cur = substitute(cur, {a: image})
            except UnsupportedFormError as exc:
                raise InconclusiveReduction(f"substituting {a!r}: {exc}") from exc
        raise InconclusiveReduction("rewriting did not settle within the round bound")

    def reduce_series_on_solutions(self, slots, method: str) -> list:
        """The slots of the series ``slots`` of a ``method`` law, reduced on
        solutions slot by slot over expanded coordinates.  Approach-A slots,
        over unexpanded coordinates, are expanded at the problem order
        first; that is exact (see the module docstring), so their residuals
        are the expanded slots' residuals.

        Raises :class:`InconclusiveReduction` as :meth:`reduce_on_solutions`,
        and when an approach-A series does not expand.
        """
        if method == "approach_a":
            try:
                slots = expand_epsilon(join_eps(slots), self.p)
            except UnsupportedFormError as exc:
                raise InconclusiveReduction(f"expanding the series: {exc}") from exc
        return [self.reduce_on_solutions(s) for s in slots]


# --- problem-file format -----------------------------------------------------


class ExpectedLaw:
    """Raw expected-result block from a problem file."""

    __slots__ = ("index", "mult", "flux", "status")

    def __init__(self, index: int):
        self.index = index
        self.mult = {}   # (nu, k) -> (where, text), where = "source:lineno"
        self.flux = {}   # (direction index, k) -> (where, text)
        self.status = None


# keys given at most once, as are hint.* keys and each multiplier, flux and status slot;
# equation, leading and note lines repeat
_SINGLE_KEYS = ("independent", "dependent", "parameters", "functions", "name", "method", "order",
                "epsilon_shifts")

# the hint.* keys, the flags of the ansatz that reproduces a file's laws, each
# with its flag's default: a key a file omits reads as the flag left unset
HINT_DEFAULTS = {"mult_deps": None, "mult_degree": 2, "mult_xdegree": None, "laurent": None}


def hint_flags(hints: dict) -> list[str]:
    """The CLI flags of the hint keys ``hints`` gives, ``["--mult-deps", value,
    ...]``; a later flag overrides an earlier one, so callers append theirs."""
    return [arg for key in HINT_DEFAULTS if key in hints for arg in ("--" + key.replace("_", "-"), hints[key])]

ProblemFile = namedtuple("ProblemFile", "source problem method expected epsilon_shifts hints notes")


def _split_list(value: str) -> list[str]:
    return [v.strip() for v in value.split(",") if v.strip()]


def _int(text: str, where: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ProblemError(f"{where}: expected an integer, got {text!r}") from None


def parse_problem_text(text: str, source: str = "<problem>") -> ProblemFile:
    decls = {"independent": [], "dependent": [], "parameters": [], "functions": []}
    entries = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ProblemError(f"{source}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        entries.append((lineno, key.strip(), value.strip()))

    seen: dict = {}  # single-valued key or slot -> line number of its value

    def once(slot, lineno: int, key: str) -> None:
        first = seen.setdefault(slot, lineno)
        if first != lineno:
            raise ProblemError(f"{source}:{lineno}: {key} is already given on line {first}")

    for lineno, key, value in entries:
        if key in _SINGLE_KEYS or key.startswith("hint."):
            once(key, lineno, key)
        if key in decls:
            decls[key] = _split_list(value)

    funcs = []
    for decl in decls["functions"]:
        if "(" not in decl or not decl.endswith(")"):
            raise ProblemError(f"{source}:{seen['functions']}: malformed function declaration {decl!r}")
        fname, arg = decl[:-1].split("(", 1)
        funcs.append((fname.strip(), arg.strip()))
    if not decls["independent"] or not decls["dependent"]:
        raise ProblemError(f"{source}: independent and dependent variables are required")
    try:
        table = SymbolTable(decls["independent"], decls["dependent"], decls["parameters"], funcs)
    except DeclarationError as exc:
        # of two declarations that repeat a name, the later line is at fault
        raise ProblemError(f"{source}:{max(seen[d] for d in exc.decls)}: {exc}") from exc

    name = ""
    method = "consistent"
    order = None
    eqn_texts = []
    leading = []
    expected: dict[int, ExpectedLaw] = {}
    shifts: list[int] = []
    hints: dict = {}
    notes: list[str] = []

    def law(n: int) -> ExpectedLaw:
        return expected.setdefault(n, ExpectedLaw(n))

    for lineno, key, value in entries:
        where = f"{source}:{lineno}"
        try:
            if key in decls:
                continue
            elif key == "name":
                name = value
            elif key == "method":
                if value not in METHODS:
                    raise ProblemError(f"{where}: unknown method {value!r}")
                method = value
            elif key == "order":
                order = _int(value, where)
            elif key == "equation":
                eqn_texts.append(value)
            elif key == "leading":
                lead = single_atom(parse(value, table))
                if not isinstance(lead, Jet):
                    raise ProblemError(f"{where}: leading must be a single jet coordinate")
                leading.append(lead)
            elif key == "epsilon_shifts":
                shifts = [_int(v, where) for v in _split_list(value)]
                for i, n in enumerate(shifts):
                    if n in shifts[:i]:
                        raise ProblemError(f"{where}: epsilon_shifts names law {n} twice")
            elif key == "note":
                notes.append(value)
            elif key.startswith("hint."):
                if key[5:] not in HINT_DEFAULTS:
                    raise ProblemError(f"{where}: unknown hint {key!r}; the hints are "
                                       + ", ".join("hint." + h for h in HINT_DEFAULTS))
                hints[key[5:]] = value
            elif key.startswith("multiplier."):
                parts = key.split(".")
                if len(parts) == 3:
                    n, k = _int(parts[1], where), _int(parts[2], where)
                    nu = 0
                elif len(parts) == 4:
                    n, nu, k = _int(parts[1], where), _int(parts[2], where) - 1, _int(parts[3], where)
                else:
                    raise ProblemError(f"{where}: malformed multiplier key")
                once(("multiplier", n, nu, k), lineno, key)
                law(n).mult[(nu, k)] = (where, value)
            elif key.startswith("flux."):
                parts = key.split(".")
                if len(parts) != 4:
                    raise ProblemError(f"{where}: malformed flux key")
                n, var, k = _int(parts[1], where), parts[2], _int(parts[3], where)
                i = table.indep_index(var)
                if i is None:
                    raise ProblemError(f"{where}: {var!r} is not an independent variable")
                once(("flux", n, i, k), lineno, key)
                law(n).flux[(i, k)] = (where, value)
            elif key.startswith("expected."):
                parts = key.split(".")
                if len(parts) != 3 or parts[2] != "status":
                    raise ProblemError(f"{where}: malformed expected key")
                if value not in ("identity", "onsolution"):
                    raise ProblemError(f"{where}: unknown status {value!r}")
                n = _int(parts[1], where)
                once(("expected", n), lineno, key)
                law(n).status = value
            else:
                raise ProblemError(f"{where}: unknown key {key!r}")
        except (ParseError, UnsupportedFormError) as exc:
            raise ProblemError(f"{where}: {exc}") from exc

    if order is None:
        raise ProblemError(f"{source}: order is required")
    if not eqn_texts:
        raise ProblemError(f"{source}: at least one equation is required")
    eqns = []
    for txt in eqn_texts:
        try:
            eqns.append(parse(txt, table))
        except (ParseError, UnsupportedFormError) as exc:
            raise ProblemError(f"{source}: {exc}") from exc
    try:
        problem = PdeProblem(table, eqns, leading, order, name=name)
    except (ProblemError, UnsupportedFormError) as exc:
        raise ProblemError(f"{source}: {exc}") from exc
    for n in shifts:
        if n not in expected:
            raise ProblemError(f"{source}: epsilon_shifts names law {n}, which the file does not record")
    if shifts and method == "approach_b":
        raise ProblemError(f"{source}: approach-b laws carry no eps series to shift")
    nslots = 1 if method == "approach_b" else problem.p + 1
    for n, exp in expected.items():
        if not exp.mult:
            raise ProblemError(f"{source}: law {n} has no multiplier.{n}.* line")
        for (nu, k) in exp.mult:
            if not (0 <= nu < problem.q and 0 <= k <= problem.p):
                raise ProblemError(f"{source}: multiplier {n} names equation {nu + 1}, slot {k}, "
                                   "outside the problem")
        for (_, k) in exp.flux:
            if not 0 <= k < nslots:
                raise ProblemError(f"{source}: flux {n} names slot {k}, outside the problem")
    laws = [expected[n] for n in sorted(expected)]
    return ProblemFile(source, problem, method, laws, shifts, hints, notes)


def load_problem_file(path) -> ProblemFile:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ProblemError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from exc
    return parse_problem_text(text, source=str(path))
