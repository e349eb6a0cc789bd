"""Atomic symbols of the jet-space expression language.

Three kinds of atoms occur in normal forms:

* :class:`Sym` -- independent variables, named parameters and the small
  parameter;
* :class:`Jet` -- derivative coordinates ``u[k]_J`` of a dependent variable
  (``k`` is the perturbation order, ``None`` meaning "not yet expanded");
* :class:`FuncAtom` -- an uninterpreted function application ``f''(u[0])``
  carrying a formal derivative count.

Atoms are immutable named tuples, interned into a process-wide registry;
normal forms store integer atom ids only.  An atom hashes and compares as the
tuple of its fields, in C, so interning costs no Python-level method call.
No two atoms of different types are equal: a :class:`Jet` starts with an
integer where the others start with a name, and a :class:`Sym`'s second
field is its kind's name where a :class:`FuncAtom`'s is an integer count.
The registry is append-only (guarded by a lock during problem loading) so
expressions can be shared freely between threads.  The unknowns of a
multiplier ansatz are not atoms but the columns of vector coefficients
(see :mod:`.kernel`).
"""

from __future__ import annotations

import threading
from collections import namedtuple

# Sym.kind values
INDEP = "indep"
PARAM = "param"
EPS = "eps"

_KIND_RANK = {INDEP: 0, PARAM: 1, EPS: 2}


class Sym(namedtuple("Sym", "name kind pos", defaults=(0,))):
    """A named scalar symbol.  ``pos`` is the declaration position within its
    kind and fixes the canonical ordering."""

    __slots__ = ()

    def sort_key(self):
        return (_KIND_RANK[self.kind], self.pos, self.name)

    def __repr__(self):
        return self.name


class Jet(namedtuple("Jet", "dep order deriv")):
    """Derivative coordinate of dependent variable ``dep`` (an index into the
    problem's dependent list).  ``order`` is the perturbation order, ``None``
    for an unexpanded variable.  ``deriv`` is the multi-index as a sorted
    tuple of independent-variable indices (mixed partials commute)."""

    __slots__ = ()

    def __new__(cls, dep: int, order: int | None, deriv):
        return tuple.__new__(cls, (dep, order, tuple(sorted(deriv))))

    def sort_key(self):
        k = -1 if self.order is None else self.order
        return (4, self.dep, k, len(self.deriv), self.deriv)

    def lifted(self, i: int) -> "Jet":
        """The coordinate with one more derivative in direction ``i``."""
        return Jet(self.dep, self.order, self.deriv + (i,))

    def with_order(self, k: int | None) -> "Jet":
        return Jet(self.dep, k, self.deriv)

    def __repr__(self):
        o = "" if self.order is None else f"[{self.order}]"
        d = ("_" + ",".join(map(str, self.deriv))) if self.deriv else ""
        return f"<jet d{self.dep}{o}{d}>"


def deriv_minus(J: tuple, L: tuple) -> tuple | None:
    """The multiset difference J - L of two multi-indices (sorted tuples of
    directions), itself sorted; None when L is not contained in J."""
    rest = list(J)
    for i in L:
        if i not in rest:
            return None
        rest.remove(i)
    return tuple(rest)


class FuncAtom(namedtuple("FuncAtom", "fname nd arg")):
    """``nd``-th formal derivative of function symbol ``fname`` applied to a
    plain (underived) dependent-variable coordinate."""

    __slots__ = ()

    def sort_key(self):
        return (5, self.fname, self.nd, self.arg.sort_key())

    def __repr__(self):
        return f"<{self.fname}{self.nd * chr(39)}({self.arg!r})>"


# --- registry -------------------------------------------------------------

_atoms: list = []
_keys: list = []  # _keys[i] is _atoms[i].sort_key()
_ids: dict = {}
_lock = threading.Lock()


def intern(atom) -> int:
    """Return the stable id of ``atom``, registering it if new."""
    i = _ids.get(atom)
    if i is None:
        with _lock:
            i = _ids.get(atom)
            if i is None:
                i = len(_atoms)
                _atoms.append(atom)
                _keys.append(atom.sort_key())
                _ids[atom] = i  # published last: a visible id has its atom and key
    return i


def atom_at(i: int):
    return _atoms[i]


def atom_key(i: int):
    """The canonical sort key of atom id ``i``, computed at registration."""
    return _keys[i]


def mono_atoms(mono):
    """Iterate ``(atom, exponent)`` pairs of a flat monomial key."""
    for j in range(0, len(mono), 2):
        yield _atoms[mono[j]], mono[j + 1]


def mono_sort_key(mono):
    """Canonical presentation key: graded, then lexicographic in the canonical
    atom order.  Laurent exponents count by absolute value in the grade."""
    keys = _keys
    pairs = sorted([(keys[mono[j]], mono[j + 1]) for j in range(0, len(mono), 2)])
    return (sum(abs(e) for _, e in pairs), tuple(pairs))


EPS_SYM = Sym("eps", EPS)

_RESERVED = {"eps", "der"}


class DeclarationError(ValueError):
    """A symbol declaration a :class:`SymbolTable` refuses.  ``decls`` names
    the declaration lists that hold the offending name, among
    ``independent``, ``dependent``, ``parameters`` and ``functions``."""

    def __init__(self, msg: str, *decls: str):
        super().__init__(msg)
        self.decls = decls


class SymbolTable:
    """Declared symbols of one problem: the parsing/printing context.

    Append-only after construction; dependent variables are referred to by
    index in :class:`Jet` atoms.
    """

    def __init__(self, indep, dep, params=(), funcs=()):
        """``funcs`` is a sequence of ``(function-name, dependent-name)``
        declarations, e.g. ``[("f", "u")]`` for ``f(u)``."""
        self.indep = [Sym(n, INDEP, i) for i, n in enumerate(indep)]
        self.dep_names = list(dep)
        self.params = [Sym(n, PARAM, i) for i, n in enumerate(params)]
        self.eps = EPS_SYM
        self.funcs = {}
        for fname, argname in funcs:
            if argname not in self.dep_names:
                raise DeclarationError(f"function {fname} argument {argname!r} is not a dependent variable",
                                       "functions")
            self.funcs[fname] = self.dep_names.index(argname)
        names = ([(s.name, "independent") for s in self.indep] + [(n, "dependent") for n in self.dep_names]
                 + [(s.name, "parameters") for s in self.params] + [(f, "functions") for f, _ in funcs])
        seen = {}  # name -> its declaration list
        for n, decl in names:
            if not (n.isalnum() and n[0].isalpha()):  # the tokenizer's identifier rule
                raise DeclarationError(f"{n!r} is not a name: a letter, then letters and digits", decl)
            if n in _RESERVED:
                raise DeclarationError(f"{n!r} is a reserved word", decl)
            if n in seen:
                raise DeclarationError(f"duplicate symbol name {n!r}", seen[n], decl)
            seen[n] = decl

    @property
    def n_indep(self):
        return len(self.indep)

    @property
    def n_dep(self):
        return len(self.dep_names)

    def indep_index(self, name):
        for s in self.indep:
            if s.name == name:
                return s.pos
        return None

    def dep_index(self, name):
        try:
            return self.dep_names.index(name)
        except ValueError:
            return None

    def param(self, name):
        for s in self.params:
            if s.name == name:
                return s
        return None

    def jet(self, dep_name, order=None, deriv_names=()):
        """Jet atom from names, e.g. ``jet("u", 0, ("t", "x"))``."""
        d = self.dep_index(dep_name)
        if d is None:
            raise ValueError(f"{dep_name!r} is not a dependent variable")
        idxs = []
        for n in deriv_names:
            i = self.indep_index(n)
            if i is None:
                raise ValueError(f"{n!r} is not an independent variable")
            idxs.append(i)
        return Jet(d, order, idxs)

    def func_atom(self, fname, nd=0, order=None):
        d = self.funcs.get(fname)
        if d is None:
            raise ValueError(f"{fname!r} is not a declared function")
        return FuncAtom(fname, nd, Jet(d, order, ()))
