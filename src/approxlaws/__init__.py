"""Approximate conservation laws of perturbed PDE systems.

Computes and verifies multiplier/flux pairs for systems containing a small
parameter, in three flavors: the consistent direct method (expanded
dependent variables, one approximate Euler operator per dependent variable),
the unexpanded-multiplier method (approach A), and the fully-expanded
hierarchy method (approach B).  All arithmetic is exact rational.
"""

from .atoms import FuncAtom, Jet, Sym, SymbolTable
from .expr import (
    EvalError,
    ExprError,
    NormalForm,
    UnsupportedFormError,
    add,
    atoms_of,
    eval_rational,
    mul,
    negate,
    normalize,
    partial,
    pow_int,
    substitute,
)
from .jets import (
    collect_eps,
    euler,
    expand_epsilon,
    join_eps,
    recursion_R,
    total_derivative,
)
from .parser import ParseError, parse
from .printer import print_poly

__version__ = "0.1.0"

# The normal-form kernel is pure Python; benchmark records carry this name.
KERNEL_BACKEND = "python"

__all__ = [
    "EvalError",
    "ExprError",
    "FuncAtom",
    "Jet",
    "KERNEL_BACKEND",
    "NormalForm",
    "ParseError",
    "Sym",
    "SymbolTable",
    "UnsupportedFormError",
    "add",
    "atoms_of",
    "collect_eps",
    "euler",
    "eval_rational",
    "expand_epsilon",
    "join_eps",
    "mul",
    "negate",
    "normalize",
    "parse",
    "partial",
    "pow_int",
    "print_poly",
    "recursion_R",
    "substitute",
    "total_derivative",
]
