"""Independent certification of multiplier/flux pairs.

Four checks, in decreasing strength: the symbolic divergence identity, the
Euler-annihilation conditions on the multipliers alone, on-solution
vanishing of the divergence after leading-derivative elimination (slot by
slot over expanded coordinates; an approach-A divergence is expanded first,
which is exact since expansion is one-to-one on truncated series and
commutes with total derivatives and the elimination), and exact
numeric spot checks at random rational jet points, evaluated in integer
arithmetic (:func:`~approxlaws.expr.plan_values`).  Identity implies
on-solution implies spot-check success.  The checks read a law's contraction
targets, their Euler residuals and the flux divergence, and each is computed
once per law: the contraction and residuals once per multiplier set
(:func:`~approxlaws.multipliers.certified_contraction`, shared with flux
reconstruction), the divergence once per law
(:meth:`~approxlaws.fluxes.ConservationLaw.divergence_slots`).  A spot
check makes one evaluation plan of the slots of both sides per call and, at
each sample point, evaluates each distinct monomial of the plan once, as an
integer pair; a ``Fraction`` is built only for a witness.
"""

from __future__ import annotations

import random
from collections import namedtuple
from fractions import Fraction

from .atoms import FuncAtom, Jet, Sym
from .expr import EvalError, evaluation_plan, plan_values
from .fluxes import ConservationLaw, identity_residuals
from .multipliers import certified_contraction
from .problem import InconclusiveReduction, PdeProblem

DEFAULT_SEED = 2023
# The spot-check trials of one law when a caller names no count
DEFAULT_TRIALS = 5
# The most spot-check trials the CLI accepts: at this bound the slowest
# corpus verify (kaup-newell) takes about 1.4 s on a 2-core VM, while an
# unbounded count could run for days
MAX_TRIALS = 1000
# How many sample points one spot-check trial may draw before an evaluation
# singularity at each of them fails the trial
MAX_RETRIES = 5


CheckResult = namedtuple("CheckResult", "name passed residual witness", defaults=(None, None))


class VerificationReport:
    __slots__ = ("checks",)

    def __init__(self, checks: list):
        self.checks = checks

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self):
        return [c for c in self.checks if not c.passed]


def verify_identity(targets, divs) -> VerificationReport:
    """The truncated contraction ``targets`` equals the flux divergence
    ``divs``, slot by slot, as normal forms."""
    checks = []
    for k, res in enumerate(identity_residuals(targets, divs)):
        checks.append(CheckResult(f"identity[{k}]", res.is_zero(), residual=res))
    return VerificationReport(checks)


def verify_euler(residuals) -> VerificationReport:
    """One check per (coordinate, slot, residual) triple of
    :func:`~approxlaws.multipliers.euler_residuals`: every Euler operator of
    the method annihilates the truncated contraction."""
    return VerificationReport([CheckResult(f"euler[{v!r}, slot {k}]", res.is_zero(), residual=res)
                               for v, k, res in residuals])


def verify_on_solutions(problem: PdeProblem, method: str, divs) -> VerificationReport:
    """The flux divergence ``divs`` of a ``method`` law vanishes after
    substituting the leading derivatives (and their differential
    consequences up to the prolongation depth), slot by slot over expanded
    coordinates; approach-A slots are expanded first
    (:meth:`~approxlaws.problem.PdeProblem.reduce_series_on_solutions`)."""
    try:
        reds = problem.reduce_series_on_solutions(divs, method)
    except InconclusiveReduction as exc:
        return VerificationReport([CheckResult("on-solutions", False, witness=str(exc))])
    return VerificationReport([CheckResult(f"on-solutions[{k}]", red.is_zero(), residual=red)
                               for k, red in enumerate(reds)])


# the numerators a sample point draws from, built once
_NUMERATORS = tuple(range(-9, 10))
_NONZERO_NUMERATORS = tuple(n for n in _NUMERATORS if n)


def _rand_rational(rng: random.Random, nonzero: bool) -> Fraction:
    num = rng.choice(_NONZERO_NUMERATORS if nonzero else _NUMERATORS)
    den = rng.randint(1, 9)
    return Fraction(num, den)


def _sample_point(atoms, laurent, rng: random.Random):
    """Random rational values for ``atoms`` (canonically ordered); Laurent
    bases and function arguments get nonzero values; function samples are
    drawn per (name, derivative count) at the argument's value, nonzero when
    a function atom with that key is a Laurent base."""
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
    keys = [(a.fname, a.nd, point[a.arg]) for a in fsamples]
    nonzero = {key for key, a in zip(keys, fsamples) if a in laurent}
    fvals = {}
    for key in keys:
        if key not in fvals:
            fvals[key] = _rand_rational(rng, key in nonzero)
    return point, fvals


def spot_check(targets, divs, trials: int = DEFAULT_TRIALS, seed: int = DEFAULT_SEED) -> VerificationReport:
    """Evaluate both sides of the divergence identity, the contraction
    ``targets`` and the flux divergence ``divs``, at random rational jet
    points; exact equality required.  Seeded and reproducible; evaluation
    singularities are resampled up to ``MAX_RETRIES`` times.  The two slot
    lists must be equally long (ValueError otherwise).

    One :func:`~approxlaws.expr.evaluation_plan` of the slots of both
    sides is made per call, and the atoms to draw are read off it: its
    atoms, drawn in canonical atom order by every trial, and as Laurent
    bases those under a negative exponent in its distinct monomials.
    :func:`~approxlaws.expr.plan_values` evaluates each distinct monomial
    once per point, lazily in slot order, so a singularity in a later slot
    never overrides a mismatch in an earlier one.  Each side is an integer
    pair, compared with the other by cross-multiplication; a ``Fraction``
    is built only for a witness."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if len(targets) != len(divs):
        raise ValueError(f"{len(targets)} contraction slots against {len(divs)} divergence slots")
    plan = evaluation_plan([e for pair in zip(targets, divs) for e in pair])
    atoms = sorted(plan[0], key=lambda a: a.sort_key())
    laurent = {plan[0][a] for mono in plan[1] for a, e in mono if e < 0}
    checks = []
    for trial in range(trials):
        rng = random.Random(f"{seed}:{trial}")
        ok = True
        witness = None
        for attempt in range(MAX_RETRIES):
            try:
                point, fvals = _sample_point(atoms, laurent, rng)
                values = plan_values(plan, point, fvals)
                # the values alternate: slot k's lhs, then its rhs
                for k, ((ln, ld), (rn, rd)) in enumerate(zip(values, values)):
                    if ln * rd != rn * ld:
                        ok = False
                        witness = {
                            "slot": k,
                            "lhs": Fraction(ln, ld),
                            "rhs": Fraction(rn, rd),
                            "point": {repr(a): v for a, v in sorted(point.items(), key=lambda av: av[0].sort_key())},
                        }
                        break
                break
            except EvalError:
                continue
        else:
            ok = False
            witness = "evaluation singularity persisted across retries"
        checks.append(CheckResult(f"spot[{trial}]", ok, witness=witness))
    return VerificationReport(checks)


def full_report(problem: PdeProblem, law: ConservationLaw, trials: int = DEFAULT_TRIALS,
                seed: int = DEFAULT_SEED) -> dict:
    """All four checks; on-solution is attempted only when identity fails
    (identity success implies it).  Returns a dict of reports plus the
    certification outcome: 'identity', 'onsolution', or 'fail'.

    The contraction, its Euler residuals and the divergence are read from
    the multiplier set and the law, which compute each once; after
    :func:`~approxlaws.fluxes.reconstruct` of the same multiplier set none
    of them is computed again."""
    targets, residuals = certified_contraction(problem, law.mult)
    divs = law.divergence_slots()
    reports = {
        "identity": verify_identity(targets, divs),
        "euler": verify_euler(residuals),
        "spot": spot_check(targets, divs, trials=trials, seed=seed),
    }
    if reports["identity"].passed:
        status = "identity"
    else:
        reports["onsolution"] = verify_on_solutions(problem, law.method, divs)
        status = "onsolution" if reports["onsolution"].passed else "fail"
    return {"status": status, "reports": reports}
