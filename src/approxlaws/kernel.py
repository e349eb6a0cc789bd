"""Normal-form arithmetic kernel: four functions, :func:`mono_mul`,
:func:`poly_iadd`, :func:`poly_mul` and :func:`derive`.

A polynomial (normal form) is a dict mapping a monomial key to a nonzero
exact rational coefficient (int where integral, fractions.Fraction
otherwise).  A monomial key is a flat tuple ``(id0, e0, id1, e1, ...)`` of
atom-id/exponent pairs sorted by atom id, with no zero exponents; the empty
tuple is the constant monomial.  :func:`mono_mul` multiplies two keys.
``c * p`` is ``poly_iadd({}, p, c)``, and ``acc += c * mono * p`` is
``poly_iadd(acc, p, c, mono)``: the one multiply-accumulate, which shifts
each term of ``p`` by ``mono`` as it adds it.

In a multiplier ansatz a coefficient may instead be a column vector: a
dict mapping an unknown's column to its nonzero rational coefficient.
:func:`poly_iadd`, :func:`poly_mul` (its first factor) and :func:`derive`
(whose atom images stay scalar) accept such polynomials, each with one
body for both kinds.  :func:`poly_iadd` and :func:`derive` tell the kinds
apart once per call from the first coefficient, and differ only in their
innermost add: an inline scalar add, or ``_vec_iadd``, the one
column-vector merge, which drops zero entries and empty vectors.
:func:`poly_mul` is one :func:`poly_iadd` of ``p1`` per term of ``p2``.
So the ansatz's series, its contraction with the equations, their higher
Euler residuals and the determining-system rows mapped back from them are
all built with column-vector coefficients.

Neither :func:`poly_iadd` nor :func:`derive` builds a product that cannot
change its factor: a scale ``c`` of 1 is skipped and one of -1 negates, and
:func:`derive` skips an exponent or an image coefficient of 1.

These functions are the hot inner loop of the whole engine.  Callers use
them as ``kernel.<fn>(...)`` so that the module's bindings stay the single
place to instrument them.
"""


def mono_mul(m1, m2):
    """Merge two monomial keys, summing exponents and dropping zeros."""
    if not m1:
        return m2
    if not m2:
        return m1
    n1 = len(m1)
    n2 = len(m2)
    out = []
    i = j = 0
    while i < n1 and j < n2:
        a = m1[i]
        b = m2[j]
        if a == b:
            e = m1[i + 1] + m2[j + 1]
            if e:
                out.append(a)
                out.append(e)
            i += 2
            j += 2
        elif a < b:
            out.append(a)
            out.append(m1[i + 1])
            i += 2
        else:
            out.append(b)
            out.append(m2[j + 1])
            j += 2
    if i < n1:
        out.extend(m1[i:])
    elif j < n2:
        out.extend(m2[j:])
    return tuple(out)


def _vec_iadd(acc, m, vec, c):
    """``acc[m] += c * vec`` for a column vector ``vec``; drops cancelled
    entries, and ``m`` once its vector is empty.  ``vec`` is never stored."""
    if c == -1:
        vec = {j: -x for j, x in vec.items()}
    elif c != 1:
        vec = {j: c * x for j, x in vec.items()}
    w = acc.get(m)
    if w is None:
        acc[m] = dict(vec) if c == 1 else vec
        return
    for j, x in vec.items():
        y = w.get(j)
        if y is None:
            w[j] = x
        else:
            y = y + x
            if y:
                w[j] = y
            else:
                del w[j]
    if not w:
        del acc[m]


def poly_iadd(acc, p, c=1, mono=()):
    """In-place ``acc += c * mono * p``, each term of ``p`` shifted by the
    monomial key ``mono`` as it is added; drops cancelled terms.
    Column-vector coefficients are added entrywise (``c`` stays scalar)."""
    if not c or not p:
        return acc
    if type(next(iter(p.values()))) is dict:
        for m, vec in p.items():
            _vec_iadd(acc, mono_mul(m, mono) if mono else m, vec, c)
        return acc
    negate = c == -1
    scale = c != 1 and not negate
    for m, v in p.items():
        if mono:
            m = mono_mul(m, mono)
        if negate:
            v = -v
        elif scale:
            v = c * v
        w = acc.get(m)
        if w is None:
            acc[m] = v
        else:
            w = w + v
            if w:
                acc[m] = w
            else:
                del acc[m]
    return acc


def poly_mul(p1, p2):
    """``p1 * p2``, one :func:`poly_iadd` of ``p1`` per term of ``p2``; ``p1``
    alone may have column-vector coefficients."""
    if not p1 or not p2:
        return {}
    if len(p1) < len(p2) and type(next(iter(p1.values()))) is not dict:
        p1, p2 = p2, p1
    out = {}
    for m2, c2 in p2.items():
        poly_iadd(out, p1, c2, m2)
    return out


def derive(p, images):
    """Extend the atom map ``images`` (atom id -> polynomial dict) to a
    derivation of the whole algebra by the Leibniz rule and apply it to
    ``p``.  Atoms absent from ``images`` derive to zero.  Total derivatives,
    formal partials and the series recursion operator are all instances.
    Column-vector coefficients of ``p`` are scaled and added entrywise.

    No product is formed by an exponent or an image coefficient of 1."""
    out = {}
    vector = bool(p) and type(next(iter(p.values()))) is dict
    for mono, c in p.items():
        n = len(mono)
        for i in range(0, n, 2):
            img = images.get(mono[i])
            if not img:
                continue
            e = mono[i + 1]
            if e == 1:
                rest = mono[:i] + mono[i + 2:]
            else:
                rest = mono[:i] + (mono[i], e - 1) + mono[i + 2:]
            ce = e if vector else c if e == 1 else c * e
            for m2, c2 in img.items():
                key = mono_mul(rest, m2)
                v = ce if c2 == 1 else ce * c2
                if vector:
                    _vec_iadd(out, key, c, v)
                    continue
                w = out.get(key)
                if w is None:
                    out[key] = v
                else:
                    w = w + v
                    if w:
                        out[key] = w
                    else:
                        del out[key]
    return out
