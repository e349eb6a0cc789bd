"""Flux reconstruction (divergence inversion) and flux equivalence.

Reconstruction uses undetermined coefficients over a generated monomial
basis.  Total derivatives respect several exact gradings (per-dependent jet
counts, per-function-symbol counts, parameter exponents, jet perturbation
weight, and derivative weight minus coordinate degree), so the target splits
into independent blocks.  :func:`_invert_block` inverts one block: its
candidate flux monomials come from the inverse-single-derivative closure of
the block's monomials (strip one derivative letter, undo one chain-rule
step, or raise one coordinate power), bounded by what one scan of the block
gives: the jet-order cap, Laurent floors one below the block's lowest jet
exponents, its largest function-derivative count, and no negative
coordinate power.  The saturated set is complete: any flux supported on
jets up to the order cap can be rewritten into it.  When no flux lies
within the bounds, an escalation widens the first three by one; of all the
laws the corpus and its hint solves reconstruct, none escalates, and a flux
that needs jets above the cap, like t*f(u)*u_t for u_t = f(u)*u_x, does.

A problem inverts each block once.  ``PdeProblem.inverted_blocks`` keeps
every solved block under the exact input of its inversion, the block and
its jet-order cap, so an eps-multiple's slot k+1 reads the block its source
law solved in slot k.  No perturbation-order cap is needed: slot k of a
consistent contraction holds coordinates of order <= k only (its multiplier
set and the expanded equations are checked for that where they are made),
and no step of the inversion raises an order.
"""

from __future__ import annotations

from . import kernel, linalg
from .atoms import FuncAtom, INDEP, Jet, atom_at, atom_key, intern, mono_sort_key
from .expr import NormalForm, as_poly, normalize
from .jets import check_slots, max_jet_order, stripped_jet, total_derivative
from .multipliers import MultiplierSet, certified_contraction
from .problem import InconclusiveReduction, PdeProblem


class ReconstructionError(Exception):
    """The flux ansatz ceiling was reached; the flux needs terms outside the
    generated basis."""


# How many times reconstruction may widen a block's flux-basis bounds by one
# (the jet-order cap, default max(multiplier order, r - 1), the Laurent floors
# and the function-derivative cap) before it gives up.
ESCALATIONS = 1

# How many generations of the candidate closure one block inversion grows,
# with a solve attempt after each, before it gives up.
MAX_ROUNDS = 12


class ConservationLaw:
    """A multiplier set with per-direction flux components.

    ``fluxes[i]`` is the tuple of series slots for direction i: p + 1 of
    them, one per slot of the multiplier's series, or a single entry for
    approach-b laws, whose fluxes are exact.  Any other count raises
    ValueError, since the checks pair flux and contraction slots one to one.
    """

    __slots__ = ("mult", "fluxes", "_divs")

    def __init__(self, mult: MultiplierSet, fluxes):
        self.mult = mult
        self.fluxes = tuple(tuple(normalize(f) for f in row) for row in fluxes)
        nslots = 1 if mult.method == "approach_b" else mult.p + 1
        if any(len(row) != nslots for row in self.fluxes):
            raise ValueError(f"each flux row of a {mult.method} law of order {mult.p} needs {nslots} slots, "
                             f"not {[len(row) for row in self.fluxes]}")
        # a flux slot may carry curl terms of any perturbation order
        for row in self.fluxes:
            check_slots(row, mult.method == "approach_a", False)
        self._divs = None  # the divergence slots, computed on their first read

    @property
    def method(self) -> str:
        return self.mult.method

    def divergence_slots(self) -> list:
        """Slots of sum_i D_i Phi^i, matching the contraction slots; computed
        once per law."""
        if self._divs is None:
            self._divs = _divergence(self.fluxes)
        return list(self._divs)

    def eps_shifted(self) -> "ConservationLaw":
        shifted_fluxes = tuple(
            (NormalForm({}),) + tuple(row[:-1]) for row in self.fluxes
        )
        return ConservationLaw(self.mult.eps_shifted(), shifted_fluxes)


def _divergence(fluxes) -> list:
    """Slots of sum_i D_i Phi^i of the flux rows ``fluxes``."""
    out = []
    for k in range(len(fluxes[0])):
        acc = {}
        for i, row in enumerate(fluxes):
            kernel.poly_iadd(acc, as_poly(total_derivative(row[k], i)))
        out.append(NormalForm(acc))
    return out


# --- grading ------------------------------------------------------------------


def _grade(mono, ndeps: int):
    """Exact total-derivative invariants of a monomial: per-dependent counts,
    per-function counts, parameter exponents, jet perturbation weight, and
    (derivative weight - coordinate degree)."""
    counts = [0] * ndeps
    fcounts: dict = {}
    params = []
    epsw = 0
    w = 0
    for j in range(0, len(mono), 2):
        a = atom_at(mono[j])
        e = mono[j + 1]
        if isinstance(a, Jet):
            counts[a.dep] += e
            w += len(a.deriv) * e
            epsw += (a.order or 0) * e
        elif isinstance(a, FuncAtom):
            counts[a.arg.dep] -= a.nd * e
            fcounts[a.fname] = fcounts.get(a.fname, 0) + e
            epsw += (a.arg.order or 0) * e
        elif a.kind == INDEP:
            w -= e
        else:
            params.append((atom_key(mono[j]), e))
    return (tuple(counts), tuple(sorted(fcounts.items())), tuple(sorted(params)), epsw, w)


def _split_blocks(poly: dict, ndeps: int) -> dict:
    blocks: dict = {}
    for mono, c in poly.items():
        blocks.setdefault(_grade(mono, ndeps), {})[mono] = c
    return blocks


# --- candidate generation -------------------------------------------------------


def _mono_edit(mono, *changes):
    """Multiply by atom-id/exponent deltas."""
    delta = []
    for aid, de in sorted(changes):
        delta.append(aid)
        delta.append(de)
    return kernel.mono_mul(mono, tuple(delta))


def _antiderive_candidates(mono, problem: PdeProblem):
    """Monomials whose D_i image contains ``mono``, per direction i."""
    out = []
    factors = [(mono[j], atom_at(mono[j]), mono[j + 1]) for j in range(0, len(mono), 2)]
    for aid, a, e in factors:
        if isinstance(a, Jet) and a.deriv and e >= 1:
            for i in sorted(set(a.deriv)):
                out.append((i, _mono_edit(mono, (aid, -1), (stripped_jet(aid, i), 1))))
        elif isinstance(a, FuncAtom) and a.nd >= 1 and e >= 1:
            # undo one chain-rule step: f^(d) * u_(0),i  <-  D_i f^(d-1)
            for bid, b, eb in factors:
                if (
                    isinstance(b, Jet)
                    and b.dep == a.arg.dep
                    and b.order == a.arg.order
                    and len(b.deriv) == 1
                    and eb >= 1
                ):
                    lower = intern(FuncAtom(a.fname, a.nd - 1, a.arg))
                    out.append((b.deriv[0], _mono_edit(mono, (aid, -1), (lower, 1), (bid, -1))))
    for i, xi in enumerate(problem.table.indep):
        out.append((i, _mono_edit(mono, (intern(xi), 1))))
    return out


def _admissible(block, jet_cap: int):
    """The bounds of the candidate closure of ``block``, read off one scan
    of it, as a predicate ``admits(mono, slack)`` (see the module docstring):
    without them the closure runs away through Laurent descent (u^-n),
    chain-rule ascent (f^(n)), or coordinate-degree growth."""
    floors: dict = {}
    nd_cap = 0
    for mono in block:
        for j in range(0, len(mono), 2):
            a = atom_at(mono[j])
            e = mono[j + 1]
            if isinstance(a, Jet) and e < 0:
                floors[mono[j]] = min(floors.get(mono[j], 0), e)
            elif isinstance(a, FuncAtom):
                nd_cap = max(nd_cap, a.nd)

    def admits(mono, slack: int) -> bool:
        for j in range(0, len(mono), 2):
            a = atom_at(mono[j])
            e = mono[j + 1]
            if isinstance(a, Jet):
                if len(a.deriv) > jet_cap + slack:
                    return False
                if e < 0 and (mono[j] not in floors or e < floors[mono[j]] - 1 - slack):
                    return False
            elif isinstance(a, FuncAtom):
                if a.nd > nd_cap + slack:
                    return False
            elif e < 0 and a.kind == INDEP:
                return False
        return True

    return admits


def _invert_block(block, problem: PdeProblem, jet_cap: int):
    """Per-direction flux dicts whose total divergence equals the block, or
    None.  A solved block is kept in ``problem.inverted_blocks`` and its
    fluxes are shared, so callers only read them; a failure is not kept,
    and the caller raises.

    Under the bounds of :func:`_admissible`, widened by one up to
    ``ESCALATIONS`` times, the closure grows one generation at a time, for
    at most ``MAX_ROUNDS`` generations, with a solve over the (direction,
    candidate) unknowns after each: real fluxes live within a couple of
    generations, while full saturation of a high-degree block can run to
    tens of thousands of monomials.  Saturation (no new candidates) is still
    the limit, so a solvable block within the bounds is always solved.
    """
    key = (frozenset(block.items()), jet_cap)
    solved = problem.inverted_blocks.get(key)
    if solved is not None:
        return solved
    admits = _admissible(block, jet_cap)
    for slack in range(ESCALATIONS + 1):
        images = {}
        seen = set(block)
        frontier = list(block)
        for _ in range(MAX_ROUNDS):
            before = len(images)
            next_frontier = []
            for m in frontier:
                for i, cand in _antiderive_candidates(m, problem):
                    if (i, cand) in images or not admits(cand, slack):
                        continue
                    img = as_poly(total_derivative(NormalForm({cand: 1}), i))
                    images[(i, cand)] = img
                    for m2 in img:
                        if m2 not in seen:
                            seen.add(m2)
                            next_frontier.append(m2)
            if len(images) == before:
                break
            unknowns = sorted(images, key=lambda u: (u[0], mono_sort_key(u[1])))
            sol = linalg.in_span([images[u] for u in unknowns], block)
            if sol is not None:
                solved = [dict() for _ in range(problem.table.n_indep)]
                for (i, m), v in zip(unknowns, sol):
                    if v:
                        solved[i][m] = v
                problem.inverted_blocks[key] = solved
                return solved
            frontier = next_frontier
    return None


def reconstruct(problem: PdeProblem, mult: MultiplierSet) -> ConservationLaw:
    """Invert the divergence: find flux components whose total divergence
    equals the truncated contraction of ``mult`` with the equations,
    order by order.  Raises :class:`ReconstructionError` when the basis
    ceiling is reached.

    The contraction and its Euler residuals come from
    :func:`~approxlaws.multipliers.certified_contraction`, so a later
    :func:`~approxlaws.verify.full_report` of the same multiplier set reads
    them again instead of recomputing them; the law's divergence, computed
    here for the identity check, is kept on the law the same way."""
    targets, residuals = certified_contraction(problem, mult)
    if not all(res.is_zero() for _, _, res in residuals):
        raise ReconstructionError(
            "multiplier set fails the Euler-annihilation check; "
            "fluxes exist only for multipliers"
        )
    base_cap = max(max_jet_order(slot for row in mult.slots for slot in row), problem.r - 1)
    n = problem.table.n_indep

    flux_slots = [[] for _ in range(n)]
    for k, tgt in enumerate(targets):
        acc = [dict() for _ in range(n)]
        blocks = _split_blocks(as_poly(tgt), problem.table.n_dep)
        for grade_key in sorted(blocks):
            solved = _invert_block(blocks[grade_key], problem, base_cap)
            if solved is None:
                raise ReconstructionError(
                    f"no flux over jets of order <= {base_cap + ESCALATIONS} "
                    f"for series slot {k}; the flux needs terms outside the generator set"
                )
            for i in range(n):
                kernel.poly_iadd(acc[i], solved[i])
        for i in range(n):
            flux_slots[i].append(NormalForm(acc[i]))

    law = ConservationLaw(mult, tuple(tuple(col) for col in flux_slots))
    if not all(r.is_zero() for r in identity_residuals(targets, law.divergence_slots())):
        raise ReconstructionError("reconstruction produced a non-identity")
    return law


def identity_residuals(targets, divs) -> list:
    """Per-slot residual of the divergence identity, a law's contraction
    ``targets`` minus its divergence ``divs``; all-zero means the law is
    identity-verified."""
    return [t - d for t, d in zip(targets, divs)]


def equivalent(a: ConservationLaw, b: ConservationLaw, problem: PdeProblem) -> str:
    """Equivalence of two laws over the same problem: their difference must
    be a trivial law, i.e. its divergence vanishes identically (curl terms),
    or every difference flux component itself vanishes after
    leading-derivative elimination with differential consequences up to the
    prolongation bound.  Returns 'equivalent', 'distinct', or
    'distinct-with-warning' when the reduction is inconclusive."""
    if a.method != b.method:
        raise ValueError("laws use different methods")
    if len(a.fluxes) != len(b.fluxes) or len(a.fluxes[0]) != len(b.fluxes[0]):
        raise ValueError("laws have different flux shapes")
    diff = [[fa - fb for fa, fb in zip(ra, rb)] for ra, rb in zip(a.fluxes, b.fluxes)]
    if all(d.is_zero() for d in _divergence(diff)):
        return "equivalent"
    try:
        for row in diff:
            if not all(r.is_zero() for r in problem.reduce_series_on_solutions(row, a.method)):
                return "distinct"
    except InconclusiveReduction:
        return "distinct-with-warning"
    return "equivalent"
