"""Exact sparse linear algebra over the rationals.

Rows are dicts column-index -> nonzero coefficient (int or Fraction).  The
reduced row echelon form is unique for a given row space, so results do not
depend on row input order; columns are processed in their numeric order,
which callers arrange to be the canonical unknown order.  Elimination takes
the rows sparsest first: short rows become pivots that reduce the longer
rows cheaply, where dense rows first would fill in every later row.
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
    column to its (fully reduced, pivot coefficient 1) row."""
    pivots: dict[int, dict] = {}
    for r0 in sorted(rows, key=len):
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
                break
            _row_sub(r, pr, r[lead])
    # back-substitution: make every pivot row free of later pivots
    leads = sorted(pivots)
    for lead in reversed(leads):
        row = pivots[lead]
        for other in list(row):
            if other != lead and other in pivots:
                _row_sub(row, pivots[other], row[other])
    return pivots


def kernel_basis(rows, ncols: int) -> list[dict]:
    """A basis of the solution space of the homogeneous system, one sparse
    vector (column -> value) per free column: that column 1, the other free
    columns 0."""
    pivots = rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    vecs = []
    for f in free:
        row = {f: 1}
        for lead, pr in pivots.items():
            v = pr.get(f)
            if v:
                row[lead] = _q(-v)
        vecs.append(row)
    return vecs


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
    equation index to its right-hand side."""
    aug = []
    for i, r in enumerate(rows):
        row = dict(r)
        b = rhs.get(i, 0)
        if b:
            row[ncols] = -b
        if row:
            aug.append(row)
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
