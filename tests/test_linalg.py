"""Exact rational linear algebra."""

import random
from fractions import Fraction

import pytest

from approxlaws.linalg import in_span, nullspace, rref, solve_particular


def test_nullspace_single_relation():
    # {a + b = 0} over (a, b)
    assert nullspace([{0: 1, 1: 1}], 2) == [(1, -1)]


def test_nullspace_empty_system():
    assert nullspace([], 1) == [(1,)]


def test_nullspace_full_rank():
    rows = [{0: 1}, {1: 2}]
    assert nullspace(rows, 2) == []


def test_nullspace_is_canonical_and_input_order_independent():
    rows = [{0: 2, 1: 4, 2: 6}, {1: 1, 2: 5}]
    a = nullspace(rows, 3)
    b = nullspace(list(reversed(rows)), 3)
    assert a == b
    for vec in a:
        assert all(not r or sum(r.get(i, 0) * v for i, v in enumerate(vec)) == 0 for r in rows)


def test_rref_unique():
    rows = [{0: 1, 1: 1}, {0: 1, 1: -1}]
    piv = rref(rows)
    assert piv[0] == {0: 1} and piv[1] == {1: 1}


def test_solve_particular():
    # x + y = 3, y = 1 -> x = 2 (free vars zero)
    rows = [{0: 1, 1: 1}, {1: 1}]
    assert solve_particular(rows, {0: 3, 1: 1}, 2) == (2, 1)


def test_solve_inconsistent():
    rows = [{0: 1}, {0: 1}]
    assert solve_particular(rows, {0: 1, 1: 2}, 1) is None


def test_solve_rational_pivots():
    rows = [{0: Fraction(2, 3)}]
    assert solve_particular(rows, {0: 1}, 1) == (Fraction(3, 2),)


def test_in_span():
    basis = [{0: 1, 2: 2}, {1: 1, 2: -1}]
    assert in_span(basis, {0: 2, 1: 3, 2: 1}) == (2, 3)
    assert in_span(basis, {2: 1}) is None


def test_in_span_ignores_row_order():
    # rows are taken in dict order, unsorted: the canonical RREF makes the
    # particular solution independent of it
    rng = random.Random(7)
    for _ in range(50):
        keys = [("k", i) for i in range(6)]
        columns = [
            {k: Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for k in rng.sample(keys, 3)}
            for _ in range(4)
        ]
        target = {k: sum(c.get(k, 0) * w for c, w in zip(columns, (1, 0, 2, -1))) for k in keys}
        answer = in_span(columns, target)
        assert answer is not None
        for _ in range(3):
            order = rng.sample(keys, len(keys))
            shuffled = [{k: col[k] for k in order if k in col} for col in columns]
            assert in_span(shuffled, {k: target[k] for k in order}) == answer


def _in_span_by_dense_rref(columns, target):
    """An oracle for in_span on the dense RREF: reduce the augmented matrix
    [A | b] over the sorted row keys; a pivot in the last column means no
    solution, otherwise each pivot column takes its value from the last
    column and the free columns are zero."""
    n = len(columns)
    keys = sorted({key for col in columns for key in col} | set(target))
    matrix = [[col.get(key, 0) for col in columns] + [target.get(key, 0)] for key in keys]
    reduced, pivots = _dense_rref(matrix, n + 1)
    if n in pivots:
        return None
    coefficients = [Fraction(0)] * n
    for row, p in zip(reduced, pivots):
        coefficients[p] = row[n]
    return tuple(coefficients)


@pytest.mark.parametrize(
    "columns, target",
    [
        ([{"a": 1, "b": 0}, {"b": 2}], {"a": 3, "b": 4}),  # a zero column entry
        ([{"a": 1}, {"b": 0}], {"a": 2, "b": 0}),  # zero entries on both sides
        ([{"a": 1}], {"a": 2, "c": 0}),  # a zero under a key no column has
        ([{"a": 1}], {"a": 2, "c": 5}),  # a key no column has: not in the span
        ([{"a": 1}, {"a": 2}], {}),  # the empty target: every coefficient zero
        ([{"a": Fraction(1, 3)}], {}),
        ([], {}),
        ([], {"a": 1}),
        ([{}, {"a": 0}], {"a": 0}),
        ([{"a": 2, "b": 4}, {"a": 1, "b": 2}], {"a": 1, "b": 2}),  # dependent columns
        ([{"a": 2, "b": 4}], {"a": 1, "b": 3}),
    ],
)
def test_in_span_edge_cases_match_solve_particular(columns, target):
    assert in_span(columns, target) == _in_span_by_dense_rref(columns, target)


def test_in_span_matches_solve_particular_with_zero_entries():
    rng = random.Random(11)
    keys = [("k", i) for i in range(7)]
    for _ in range(200):
        columns = [
            {k: Fraction(rng.randint(-2, 2), rng.randint(1, 3)) for k in rng.sample(keys, rng.randint(0, 4))}
            for _ in range(rng.randint(0, 5))
        ]
        target = {k: Fraction(rng.randint(-2, 2), rng.randint(1, 2)) for k in rng.sample(keys, rng.randint(0, 7))}
        if rng.random() < 0.5:
            # half the targets are in the span, some of them with explicit zeros
            weights = [rng.randint(-2, 2) for _ in columns]
            target = {k: sum(c.get(k, 0) * w for c, w in zip(columns, weights)) for k in keys}
        assert in_span(columns, target) == _in_span_by_dense_rref(columns, target)


def _dense_rref(matrix, ncols):
    """Dense Gauss-Jordan over Fraction: the nonzero rows of the reduced
    row echelon form, with their pivot columns."""
    mat = [[Fraction(x) for x in row] for row in matrix]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        p = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if p is None:
            continue
        mat[r], mat[p] = mat[p], mat[r]
        mat[r] = [x / mat[r][c] for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
    return mat[:len(pivots)], pivots


def _dense_nullspace(rows, ncols):
    reduced, pivots = _dense_rref([[row.get(c, 0) for c in range(ncols)] for row in rows], ncols)
    basis = []
    for f in range(ncols):
        if f not in pivots:
            v = [Fraction(0)] * ncols
            v[f] = Fraction(1)
            for row, p in zip(reduced, pivots):
                v[p] = -row[f]
            basis.append(v)
    canon, _ = _dense_rref(basis, ncols)
    return [tuple(v) for v in canon]


def _random_sparse_system(rng):
    """Sparse rational rows plus planted singleton rows (each forces an
    unknown to zero), empty rows, and duplicates, some of them rescaled."""
    ncols = rng.randint(1, 12)

    def coeff():
        return Fraction(rng.choice([-1, 1]) * rng.randint(1, 5), rng.randint(1, 4))

    rows = [
        {c: coeff() for c in rng.sample(range(ncols), rng.randint(1, min(4, ncols)))}
        for _ in range(rng.randint(0, 10))
    ]
    rows += [{rng.randrange(ncols): coeff()} for _ in range(rng.randint(0, 3))]
    rows += [{} for _ in range(rng.randint(0, 1))]
    for _ in range(rng.randint(0, 4)):
        if rows:
            row, scale = rng.choice(rows), rng.choice([1, 1, coeff()])
            rows.append({c: v * scale for c, v in row.items()})
    return rows, ncols


def test_nullspace_matches_dense_oracle_under_row_shuffles():
    rng = random.Random(2023)
    for _ in range(300):
        rows, ncols = _random_sparse_system(rng)
        expected = _dense_nullspace(rows, ncols)
        for _ in range(4):
            assert nullspace(rng.sample(rows, len(rows)), ncols) == expected


def _singleton_rich_system(rng):
    """Rows that drive rref's singleton presolve through each of its cases:
    a planted chain, where each column is forced only after the one before
    it is struck; three rows of which one reduces to a single entry at a
    column that is already a pivot; sparse rows; exact and rescaled
    duplicates; and empty rows.  The chain's one-entry row comes first."""
    ncols = rng.randint(3, 12)

    def coeff():
        return Fraction(rng.choice([-1, 1]) * rng.randint(1, 5), rng.randint(1, 4))

    chain = rng.sample(range(ncols), rng.randint(1, min(5, ncols)))
    rows = [{chain[0]: coeff()}]
    for n, c in enumerate(chain[1:], 1):
        # the column forced just before, and maybe others forced earlier
        struck = {chain[n - 1]} | set(rng.sample(chain[:n], rng.randint(0, n - 1)))
        rows.append({c: coeff(), **{k: coeff() for k in struck}})
    # with these three in this order, the third reduces by the second to a
    # single entry at b, the first row's pivot: it must be reduced again,
    # never installed over that pivot
    a, b, c = sorted(rng.sample(range(ncols), 3))
    s, t = coeff(), coeff()
    rows += [{b: s, c: coeff()}, {a: t, b: 2 * t}, {a: s, b: s}]
    rows += [
        {c: coeff() for c in rng.sample(range(ncols), rng.randint(1, min(4, ncols)))}
        for _ in range(rng.randint(0, 5))
    ]
    for _ in range(rng.randint(0, 3)):
        row, scale = rng.choice(rows), rng.choice([1, coeff()])
        rows.append({c: v * scale for c, v in row.items()})
    rows += [{} for _ in range(rng.randint(0, 2))]
    return rows, ncols


def _as_dense_rref(pivots, ncols):
    leads = sorted(pivots)
    for lead in leads:
        assert pivots[lead][lead] == 1 and all(v for v in pivots[lead].values())
    return [[Fraction(pivots[lead].get(c, 0)) for c in range(ncols)] for lead in leads], leads


def _dense_solve(rows, rhs, ncols):
    matrix = [[row.get(c, 0) for c in range(ncols)] + [rhs.get(i, 0)] for i, row in enumerate(rows)]
    reduced, pivots = _dense_rref(matrix, ncols + 1)
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for row, p in zip(reduced, pivots):
        x[p] = row[ncols]
    return tuple(x)


def test_rref_with_singleton_presolve_matches_dense_oracle():
    rng = random.Random(4099)
    for _ in range(300):
        rows, ncols = _singleton_rich_system(rng)
        expected = _dense_rref([[row.get(c, 0) for c in range(ncols)] for row in rows], ncols)
        # the planted row order first, then shuffles
        for order in [rows] + [rng.sample(rows, len(rows)) for _ in range(3)]:
            snapshot = [dict(row) for row in order]
            assert _as_dense_rref(rref(order), ncols) == expected
            assert order == snapshot
        rhs = {i: Fraction(rng.randint(-3, 3)) for i in rng.sample(range(len(rows)), rng.randint(0, len(rows)))}
        snapshot = [dict(row) for row in rows]
        assert solve_particular(rows, rhs, ncols) == _dense_solve(rows, rhs, ncols)
        assert rows == snapshot
        # a forced right-hand side: a copy of the chain's first row, or an
        # empty row, asked to equal a nonzero value
        for extra in (dict(rows[0]), {}):
            forced = rows + [extra]
            assert solve_particular(forced, {len(rows): rng.choice([-2, 1, Fraction(1, 3)])}, ncols) is None


def test_rref_one_entry_row_at_an_existing_pivot():
    # sparsest first keeps this order: {1, 2} and {0, 1} become pivot rows,
    # then {0: 1, 1: 1} reduces by {0: 1, 1: 2} to {1: -1}, one entry at
    # column 1, already a pivot; reduced by that pivot row it leaves {2: 1},
    # so the rows have full rank
    rows = [{1: 1, 2: 1}, {0: 1, 1: 2}, {0: 1, 1: 1}]
    assert rref(rows) == {0: {0: 1}, 1: {1: 1}, 2: {2: 1}}
    assert rows == [{1: 1, 2: 1}, {0: 1, 1: 2}, {0: 1, 1: 1}]
