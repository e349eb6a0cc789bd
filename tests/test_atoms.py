"""Atoms: immutable named tuples, hashed as their fields; a start-up that
generates no class code; the package's public names."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import approxlaws
from approxlaws.atoms import EPS, INDEP, PARAM, FuncAtom, Jet, Sym, intern

U = Jet(0, None, ())
ATOMS = [
    Sym("x", INDEP, 1),
    Sym("x", PARAM, 1),
    Sym("eps", EPS),
    U,
    Jet(0, 0, ()),
    Jet(1, 0, (0, 1)),
    FuncAtom("f", 0, U),
    FuncAtom("f", 2, U),
]


def test_cli_import_loads_no_dataclasses_or_inspect():
    env = dict(os.environ, PYTHONPATH=str(Path(approxlaws.__file__).parents[1]))
    res = subprocess.run(
        [sys.executable, "-c",
         "import sys, approxlaws.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"],
        capture_output=True, text=True, check=True, env=env,
    )
    assert res.stdout == "[]\n"


def test_public_names_resolve():
    # every name the package exports exists, and a star import brings them all
    for name in approxlaws.__all__:
        assert hasattr(approxlaws, name), name
    namespace = {}
    exec("from approxlaws import *", namespace)
    assert set(approxlaws.__all__) <= set(namespace)


def test_jet_sorts_its_multi_index():
    assert Jet(0, 1, (1, 0, 1)).deriv == (0, 1, 1)
    assert Jet(0, 1, [1, 0]) == Jet(0, 1, (0, 1))
    assert Jet(0, 1, (1,)).lifted(0).deriv == (0, 1)


@pytest.mark.parametrize("value", ATOMS, ids=repr)
def test_fields_are_read_only(value):
    for name in value._fields:
        with pytest.raises(AttributeError):
            setattr(value, name, 0)
    with pytest.raises(AttributeError):
        value.extra = 0


def test_hash_is_the_field_tuple_hash():
    # as under a frozen dataclass, so set iteration orders do not move
    assert hash(Sym("x", INDEP, 1)) == hash(("x", INDEP, 1))
    assert hash(Jet(1, 0, (1, 0))) == hash((1, 0, (0, 1)))
    assert hash(FuncAtom("f", 2, U)) == hash(("f", 2, (0, None, ())))
    for a in ATOMS:
        assert hash(a) == hash(tuple(getattr(a, name) for name in a._fields))


def test_atoms_of_different_types_differ():
    # a Jet starts with an integer; a Sym's second field is a name, a FuncAtom's an integer
    for i, a in enumerate(ATOMS):
        for j, b in enumerate(ATOMS):
            assert (a == b) == (i == j)
    assert len({intern(a) for a in ATOMS}) == len(ATOMS)
