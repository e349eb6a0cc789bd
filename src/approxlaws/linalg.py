"""Exact sparse linear algebra over the rationals.

Rows are dicts column-index -> nonzero coefficient (int or Fraction).  The
reduced row echelon form is unique for a given row space, so results do not
depend on row input order; columns are processed in their numeric order,
which callers arrange to be the canonical unknown order.

:func:`rref` is the one elimination.  A singleton presolve comes first
(Davis, *Direct Methods for Sparse Linear Systems*, 2006): a one-entry row
forces its column to zero, the forced column is struck from the other
rows, and a row left with one entry forces its column in turn.  The
determining systems here are full of such rows, and most of their pivots
come from them.  The rows that keep two or more entries are eliminated
sparsest first: short rows become pivots that reduce the longer rows
cheaply, where dense rows first would fill in every later row.
"""

from __future__ import annotations

from fractions import Fraction


def _q(x):
    if isinstance(x, Fraction) and x.denominator == 1:
        return int(x)
    return x


def _row_sub(r: dict, pr: dict, c):
    """r -= c * pr in place."""
    for k, v in pr.items():
        w = r.get(k, 0) - c * v
        if w:
            r[k] = _q(w)
        else:
            r.pop(k, None)


def rref(rows) -> dict:
    """Reduced row echelon form of the row space; returns a map from pivot
    column to its (fully reduced, pivot coefficient 1) row.  The caller's
    rows are never mutated.

    The singleton presolve runs first.  A one-entry row forces its column
    to zero, so its pivot row is the unit row ``{c: 1}``, and the forced
    column is struck from every other row (in a copy); a row left with one
    entry forces its column in turn, until no row is.  Only the rows that
    keep two or more entries go through Gauss-Jordan, sparsest first, and
    their pivot rows never hold a forced column.  A row there that reduces
    to one entry is not forced: it reduces on like any other, since its
    column may already be a pivot."""
    pivots: dict[int, dict] = {}
    rest = []
    for r in rows:
        if len(r) == 1:
            (c,) = r
            pivots[c] = {c: 1}
        elif r:
            rest.append(r)
    forced = bool(pivots)
    while forced:
        forced = False
        kept = []
        for r in rest:
            if not pivots.keys().isdisjoint(r):
                r = {k: v for k, v in r.items() if k not in pivots}
                if len(r) == 1:
                    (c,) = r
                    pivots[c] = {c: 1}
                    forced = True
                if len(r) < 2:
                    continue
            kept.append(r)
        rest = kept
    eliminated = []
    for r0 in sorted(rest, key=len):
        r = dict(r0)
        while r:
            lead = min(r)
            pr = pivots.get(lead)
            if pr is None:
                c = r[lead]
                if c != 1:
                    inv = Fraction(1) / Fraction(c)
                    r = {k: _q(inv * v) for k, v in r.items()}
                pivots[lead] = r
                eliminated.append(lead)
                break
            _row_sub(r, pr, r[lead])
    # back-substitution: make every eliminated pivot row free of later pivots
    for lead in sorted(eliminated, reverse=True):
        row = pivots[lead]
        for other in list(row):
            if other != lead and other in pivots:
                _row_sub(row, pivots[other], row[other])
    return pivots


def kernel_basis(rows, ncols: int) -> list[dict]:
    """A basis of the solution space of the homogeneous system, one sparse
    vector (column -> value) per free column: that column 1, the other free
    columns 0.  The pivot rows are read in one pass: every non-pivot entry
    of a reduced pivot row is a free column's."""
    pivots = rref(rows)
    vecs = {f: {f: 1} for f in range(ncols) if f not in pivots}
    for lead, pr in pivots.items():
        for c, v in pr.items():
            if c != lead:
                vecs[c][lead] = _q(-v)
    return list(vecs.values())


def canonical_basis(vecs, ncols: int) -> list[tuple]:
    """The canonical reduced basis (leading entries 1, zero above and below)
    of the span of the sparse vectors ``vecs``, in the given column order.
    It depends on the span only, not on the spanning vectors."""
    canon = rref(vecs)
    return [
        tuple(_q(canon[lead].get(c, 0)) for c in range(ncols))
        for lead in sorted(canon)
    ]


def nullspace(rows, ncols: int) -> list[tuple]:
    """Deterministic basis of the solution space of the homogeneous system:
    its canonical reduced basis."""
    return canonical_basis(kernel_basis(rows, ncols), ncols)


def solve_particular(rows, rhs: dict, ncols: int):
    """One exact solution of ``A x = b`` with free unknowns set to zero, or
    ``None`` if inconsistent.  ``rows`` index equations; ``rhs`` maps an
    equation index to its right-hand side.  Only the rows that take a
    right-hand side are copied: :func:`rref` never mutates its input."""
    aug = []
    for i, r in enumerate(rows):
        b = rhs.get(i, 0)
        if b:
            r = dict(r)
            r[ncols] = -b
        if r:
            aug.append(r)
    pivots = rref(aug)
    if ncols in pivots:
        return None
    x = [0] * ncols
    for lead, row in pivots.items():
        x[lead] = _q(-row.get(ncols, 0))
    return tuple(x)


def in_span(columns, target):
    """Coefficients expressing ``target`` as a combination of ``columns`` (a
    tuple, free coefficients zero), or None.  Columns and target are sparse
    maps from a row key to a coefficient; keys need only be hashable.  Each
    row key is one equation of :func:`solve_particular`.  The canonical RREF
    is unique, so the order of the rows cannot change the answer."""
    rows: dict = {key: {} for key in target}
    for j, col in enumerate(columns):
        for key, v in col.items():
            if v:
                rows.setdefault(key, {})[j] = v
    rhs = {i: target.get(key, 0) for i, key in enumerate(rows)}
    return solve_particular(list(rows.values()), rhs, len(columns))
