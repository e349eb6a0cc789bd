"""Expression printing.

Machine style emits the bit-exact grammar accepted by :mod:`approxlaws.parser`
(round-trip guaranteed); terms are grouped by powers of the small parameter
and sorted canonically, so equal normal forms print identically.  Human style
is for reports only: unicode subscripts for expansion orders and derivative
letters, superscript exponents, and an epsilon sign.
"""

from __future__ import annotations

from fractions import Fraction

from .atoms import EPS_SYM, FuncAtom, Jet, Sym, SymbolTable
from .expr import NormalForm, as_poly
from .jets import eps_powers

_SUPERSCRIPTS = str.maketrans("0123456789-", "⁰¹²³⁴⁵⁶⁷⁸⁹⁻")
_SUBSCRIPTS = str.maketrans("0123456789", "₀₁₂₃₄₅₆₇₈₉")
_SUB_LETTERS = dict(zip("aehijklmnoprstuvx", "ₐₑₕᵢⱼₖₗₘₙₒₚᵣₛₜᵤᵥₓ"))


def _sup(n: int) -> str:
    return str(n).translate(_SUPERSCRIPTS)


def _atom_str(atom, table: SymbolTable, human: bool) -> str:
    if isinstance(atom, Sym):
        if atom is EPS_SYM or atom.name == "eps":
            return "ε" if human else "eps"
        return atom.name
    if isinstance(atom, Jet):
        dep = table.dep_names[atom.dep]
        letters = [table.indep[i].name for i in atom.deriv]
        if human:
            s = dep + ("" if atom.order is None else str(atom.order).translate(_SUBSCRIPTS))
            if letters:
                if all(ch in _SUB_LETTERS for ch in "".join(letters)):
                    s += "," + "".join(_SUB_LETTERS[ch] for ch in "".join(letters))
                else:
                    s += ",(" + "".join(letters) + ")"
            return s
        s = dep + ("" if atom.order is None else f"[{atom.order}]")
        if letters:
            if all(len(n) == 1 for n in letters):
                s += "_" + "".join(letters)
            else:
                return f"der({s}, " + ", ".join(letters) + ")"
        return s
    if isinstance(atom, FuncAtom):
        return atom.fname + "'" * atom.nd + "(" + _atom_str(atom.arg, table, human) + ")"
    raise TypeError(f"not an atom: {atom!r}")


def _term_str(c: Fraction, pairs, table, human) -> tuple[int, str]:
    """Sign and the unsigned rendering of one monomial term."""
    sign = -1 if c < 0 else 1
    num, den = abs(c.numerator), c.denominator
    parts = []
    if num != 1 or not pairs:
        parts.append(str(num))
    for a, e in pairs:
        s = _atom_str(a, table, human)
        if e != 1:
            s += _sup(e) if human else f"^{e}"
        parts.append(s)
    body = "*".join(parts)
    if den != 1:
        body += f"/{den}"
    return sign, body


def _join_terms(items) -> str:
    out = []
    for sign, body in items:
        if not out:
            out.append(("-" if sign < 0 else "") + body)
        else:
            out.append(("- " if sign < 0 else "+ ") + body)
    return " ".join(out)


def print_poly(e, table: SymbolTable, style: str = "machine") -> str:
    """Render an expression.  Machine style round-trips through the parser."""
    human = style == "human"
    p = as_poly(e)
    if not p:
        return "0"
    slots = eps_powers(p)
    items = []
    for k in sorted(slots):
        sub = slots[k]
        if k == 0:
            prefix = ""
        elif human:
            prefix = "ε" + ("" if k == 1 else _sup(k))
        else:
            prefix = "eps" + ("" if k == 1 else f"^{k}")
        terms = [_term_str(c, pairs, table, human) for c, pairs in NormalForm(sub).terms()]
        if not prefix:
            items.extend(terms)
        elif len(terms) == 1:
            sign, body = terms[0]
            items.append((sign, prefix + "*" + body if body != "1" else prefix))
        else:
            items.append((1, prefix + "*(" + _join_terms(terms) + ")"))
    return _join_terms(items)
