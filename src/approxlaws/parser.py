"""Recursive-descent parser for the machine expression grammar.

    identifiers   [A-Za-z][A-Za-z0-9]*
    numbers       integer literals; rationals via the `/` operator
    operators     + - * / ^   (standard precedence, ^ binds an integer
                  literal exponent only, right-associative; the value of
                  an exponent tower such as 2^3^2 is at most MAX_EXPONENT;
                  a product or power expands to at most MAX_TERMS terms;
                  a coefficient has at most MAX_DIGITS digits)
    derivatives   u_tx  == der(u, t, x) for a declared dependent u and
                  single-letter independents; explicit form der(u, t, x)
    expansions    u[0], u[1], with derivatives u[1]_x / der(u[1], x)
    functions     f(u), f'(u), f''(u) for a declared function symbol
    eps           reserved small-parameter symbol

Parsing resolves every derivative notation to jet atoms and builds the
canonical normal form while it descends: sums, products and powers are
combined with the kernel as soon as their operands are parsed.  Forms
outside the normal-form language, such as ``1/(u+1)`` or ``x/0``, raise
:class:`UnsupportedFormError` from :func:`parse` itself.
"""

from __future__ import annotations

import math

from . import kernel
from .atoms import FuncAtom, Jet, SymbolTable, atom_at
from .expr import NormalForm, as_poly, atom_poly, const_poly, poly_pow


# Bound on the value of an exponent tower such as 2^3^2, far above the
# corpus's largest exponent (4): a tower's value grows so fast that an
# unbounded one makes the parser hang.
MAX_EXPONENT = 1000

# Bound on the terms one product or power may expand to, far above the
# corpus's largest product (16 terms): a product of sums, or a power of a
# k-term sum (:func:`power_terms`), grows so fast that an unbounded one
# makes the parser hang.  Checked before the kernel expands.
MAX_TERMS = 1000

# Bound on the decimal digits of a coefficient's numerator or denominator,
# below the interpreter's 4,300-digit integer-string limit, past which a
# coefficient can be neither read nor printed.  A power is checked before
# the kernel expands it, on its base's coefficient bit length times the
# exponent.  A product, whose fractions may cancel, is checked digit for
# digit once formed: its factors are within the bound, so forming it is
# cheap.  Literals and the parsed result are checked digit for digit too.
MAX_DIGITS = 4000
_DIGITS_BOUND = 10**MAX_DIGITS
_MAX_LOG2 = int(MAX_DIGITS * math.log2(10))  # 2**(_MAX_LOG2 + 1) > _DIGITS_BOUND


class ParseError(Exception):
    def __init__(self, msg, pos=None):
        self.pos = pos
        if pos is not None:
            msg = f"{msg} (at position {pos})"
        super().__init__(msg)


# token kinds
_NUM, _NAME, _SUFFIX, _PRIMES, _OP, _END = "num", "name", "suffix", "primes", "op", "end"

_OPS = set("+-*/^()[],")


def _tokenize(text):
    toks = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
        elif c.isdecimal():
            j = i
            while j < n and text[j].isdecimal():
                j += 1
            if j - i > MAX_DIGITS:
                raise ParseError(f"integer literal of {j - i} digits is too long", i)
            toks.append((_NUM, int(text[i:j]), i))
            i = j
        elif c.isalpha():
            j = i
            while j < n and text[j].isalnum():
                j += 1
            toks.append((_NAME, text[i:j], i))
            i = j
        elif c == "_":
            j = i + 1
            while j < n and text[j].isalnum():
                j += 1
            if j == i + 1:
                raise ParseError("dangling underscore", i)
            toks.append((_SUFFIX, text[i + 1 : j], i))
            i = j
        elif c == "'":
            j = i
            while j < n and text[j] == "'":
                j += 1
            toks.append((_PRIMES, j - i, i))
            i = j
        elif c in _OPS:
            toks.append((_OP, c, i))
            i += 1
        else:
            raise ParseError(f"unexpected character {c!r}", i)
    toks.append((_END, None, n))
    return toks


def _coeff_bits(p: dict) -> int:
    """The largest bit length of a numerator or denominator in ``p``, less
    one: the floor of its log2, so that a unit coefficient counts zero and
    times an exponent it bounds the power's bit length from below."""
    bits = 1
    for c in p.values():
        b = c.bit_length() if type(c) is int else max(c.numerator.bit_length(), c.denominator.bit_length())
        if b > bits:
            bits = b
    return bits - 1


def power_terms(k: int, n: int) -> int:
    """C(|n|+k-1, k-1), the terms of a ``k``-term sum to the ``n``: the count
    a parsed power and an on-solution substitution are both bounded by."""
    return math.comb(abs(n) + k - 1, k - 1)


def power_passes_digits(base: dict, n: int) -> bool:
    """Whether ``base`` to the ``n`` may hold a coefficient past
    ``MAX_DIGITS`` digits, judged before it is expanded: the exponent times
    the base's coefficient bit length, the bound a parsed power and an
    on-solution substitution are both held to."""
    return abs(n) > 1 and abs(n) * _coeff_bits(base) > _MAX_LOG2


def _check_digits(p: dict, pos=None):
    for c in p.values():
        if abs(c.numerator) >= _DIGITS_BOUND or c.denominator >= _DIGITS_BOUND:
            raise ParseError(f"coefficient exceeds {MAX_DIGITS} digits", pos)


class _Parser:
    def __init__(self, text, table: SymbolTable):
        self.table = table
        self.toks = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.toks[self.i]

    def next(self):
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect_op(self, op):
        kind, val, pos = self.next()
        if kind != _OP or val != op:
            raise ParseError(f"expected {op!r}", pos)

    def at_op(self, *ops):
        kind, val, _ = self.peek()
        return kind == _OP and val in ops

    # grammar: each rule returns a normal-form dict that no other value
    # shares, so a sum can accumulate into its first term in place --------

    def parse(self) -> dict:
        e = self.sum_()
        kind, val, pos = self.peek()
        if kind != _END:
            raise ParseError(f"unexpected {val!r}", pos)
        # a sum's coefficients can outgrow the bounds of their terms
        _check_digits(e)
        return e

    def sum_(self):
        out = self.product()
        while self.at_op("+", "-"):
            _, op, _ = self.next()
            kernel.poly_iadd(out, self.product(), 1 if op == "+" else -1)
        return out

    def product(self):
        out = self.unary()
        while self.at_op("*", "/"):
            _, op, pos = self.next()
            f = self.unary()
            if op == "/":
                f = poly_pow(f, -1)
            if len(out) * len(f) > MAX_TERMS:
                raise ParseError(f"product exceeds {MAX_TERMS} terms", pos)
            out = kernel.poly_mul(out, f)
            _check_digits(out, pos)
        return out

    def unary(self):
        sign = 1
        while self.at_op("+", "-"):
            _, op, _ = self.next()
            if op == "-":
                sign = -sign
        e = self.power()
        return e if sign == 1 else kernel.poly_iadd({}, e, -1)

    def power(self):
        base = self.primary()
        if self.at_op("^"):
            pos = self.next()[2]
            n, k = self.exponent(), len(base)
            if n > 1 and k > 1 and power_terms(k, n) > MAX_TERMS:
                raise ParseError(f"power exceeds {MAX_TERMS} terms", pos)
            if power_passes_digits(base, n):
                raise ParseError(f"coefficient exceeds {MAX_DIGITS} digits", pos)
            return poly_pow(base, n)
        return base

    def exponent(self) -> int:
        """Integer literal exponent, optionally signed or parenthesized;
        chained ^ is right-associative."""
        if self.at_op("("):
            self.next()
            n = self.exponent()
            self.expect_op(")")
        else:
            sign = 1
            while self.at_op("+", "-"):
                _, op, _ = self.next()
                if op == "-":
                    sign = -sign
            kind, val, pos = self.next()
            if kind != _NUM:
                raise ParseError("exponent must be an integer literal", pos)
            n = sign * val
        if self.at_op("^"):
            pos = self.next()[2]
            m = self.exponent()
            if m < 0 or (n == 0 and m == 0):
                raise ParseError("unsupported exponent tower", self.peek()[2])
            # |n| >= 2 passes the bound once m reaches its bit length, so
            # n**m is computed only when it is small
            if abs(n) > 1 and (m >= MAX_EXPONENT.bit_length() or abs(n) ** m > MAX_EXPONENT):
                raise ParseError(f"exponent tower exceeds {MAX_EXPONENT}", pos)
            n = n**m
        return n

    def primary(self):
        kind, val, pos = self.next()
        if kind == _NUM:
            return const_poly(val)
        if kind == _OP and val == "(":
            e = self.sum_()
            self.expect_op(")")
            return e
        if kind == _NAME:
            return self.named(val, pos)
        raise ParseError("unexpected end of input" if kind == _END else f"unexpected {val!r}", pos)

    def named(self, name, pos):
        t = self.table
        if name == "eps":
            return atom_poly(t.eps)
        if name == "der":
            return self.der(pos)
        if name in t.funcs:
            nd = 0
            if self.peek()[0] == _PRIMES:
                nd = self.next()[1]
            self.expect_op("(")
            arg = self.depref("function argument")
            self.expect_op(")")
            if arg.order not in (None, 0):
                raise ParseError("function argument must be u or u[0]", pos)
            if arg.dep != t.funcs[name]:
                raise ParseError(
                    f"function {name} was declared on {t.dep_names[t.funcs[name]]!r}", pos
                )
            return atom_poly(FuncAtom(name, nd, arg))
        if t.dep_index(name) is not None:
            return atom_poly(self.jetref(name))
        i = t.indep_index(name)
        if i is not None:
            self.no_suffix(name, pos)
            return atom_poly(t.indep[i])
        p = t.param(name)
        if p is not None:
            self.no_suffix(name, pos)
            return atom_poly(p)
        kind, val, pos2 = self.peek()
        if kind == _SUFFIX:
            raise ParseError(f"derivative of a non-dependent symbol {name!r}", pos2)
        raise ParseError(f"undeclared identifier {name!r}", pos)

    def no_suffix(self, name, pos):
        if self.peek()[0] in (_SUFFIX,) or self.at_op("["):
            raise ParseError(f"derivative of a non-dependent symbol {name!r}", pos)

    def expansion_order(self):
        """The order ``k`` of a ``[k]`` that follows a dependent variable, or
        None (unexpanded) if none follows."""
        if not self.at_op("["):
            return None
        self.next()
        kind, val, pos = self.next()
        if kind != _NUM:
            raise ParseError("expansion order must be an integer", pos)
        self.expect_op("]")
        return val

    def jetref(self, name) -> Jet:
        order = self.expansion_order()
        deriv = ()
        if self.peek()[0] == _SUFFIX:
            _, suffix, pos2 = self.next()
            deriv = tuple(suffix)
            for ch in deriv:
                if self.table.indep_index(ch) is None:
                    raise ParseError(f"{ch!r} in derivative suffix is not an independent variable", pos2)
        return self.table.jet(name, order, deriv)

    def depref(self, what) -> Jet:
        kind, val, pos = self.next()
        if kind != _NAME or self.table.dep_index(val) is None:
            raise ParseError(f"{what} must be a dependent variable", pos)
        order = self.expansion_order()
        kind, _, pos = self.peek()
        if kind == _SUFFIX:
            raise ParseError(f"{what} must be an underived dependent variable", pos)
        return self.table.jet(val, order, ())

    def der(self, pos) -> dict:
        self.expect_op("(")
        jet = self.depref("der() subject")
        names = []
        while self.at_op(","):
            self.next()
            kind, val, pos2 = self.next()
            if kind != _NAME or self.table.indep_index(val) is None:
                raise ParseError(f"der() direction {val!r} is not an independent variable", pos2)
            names.append(val)
        self.expect_op(")")
        if not names:
            raise ParseError("der() needs at least one direction", pos)
        out = jet
        for n in names:
            out = out.lifted(self.table.indep_index(n))
        return atom_poly(out)


def parse(text: str, table: SymbolTable) -> NormalForm:
    """The normal form of ``text`` over the declared symbols; raises
    :class:`ParseError` with a position on malformed input or undeclared
    identifiers, and :class:`UnsupportedFormError` on forms outside the
    normal-form language."""
    try:
        return NormalForm(_Parser(text, table).parse())
    except RecursionError:
        # parentheses and exponent towers nest by recursion
        raise ParseError("expression nested too deeply") from None


def single_atom(e: NormalForm):
    """The atom ``a`` if ``e`` is exactly ``a`` (one term, coefficient 1,
    exponent 1), else None."""
    if len(e) == 1:
        ((mono, c),) = as_poly(e).items()
        if c == 1 and len(mono) == 2 and mono[1] == 1:
            return atom_at(mono[0])
    return None
