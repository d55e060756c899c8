from pathlib import Path

import pytest

from iomlat.algebras import FiniteAlgebra, load_algtab
from iomlat.ortho import load_ortlat

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

ALG_FIXTURES = ("b2", "b4", "b8", "mo2", "o6", "l3")
IOML_FIXTURES = ("b2", "b4", "b8", "mo2")
LAT_FIXTURES = ("b2", "b4", "b8", "mo2", "benzene")


def fixture_path(name: str) -> Path:
    return FIXTURES / name


def load_alg(name: str):
    return load_algtab(FIXTURES / f"{name}.alg")


def load_lat(name: str):
    return load_ortlat(FIXTURES / f"{name}.olt")


def relabeled(alg, perm):
    """The algebra with element a moved to index perm[a]; zero, one and the
    names move with their elements."""
    n = alg.size
    old = [0] * n
    for a, new in enumerate(perm):
        old[new] = a
    table = tuple(
        tuple(perm[alg.table[old[i]][old[j]]] for j in range(n)) for i in range(n)
    )
    names = tuple(alg.names[old[i]] for i in range(n))
    return FiniteAlgebra(names=names, table=table, one=perm[alg.one], zero=perm[alg.zero])


@pytest.fixture(scope="session")
def o6():
    return load_alg("o6")


@pytest.fixture(scope="session")
def mo2():
    return load_alg("mo2")


@pytest.fixture(scope="session")
def b2():
    return load_alg("b2")


@pytest.fixture(scope="session")
def b4():
    return load_alg("b4")


@pytest.fixture(scope="session")
def b8():
    return load_alg("b8")


@pytest.fixture(scope="session")
def l3():
    return load_alg("l3")


@pytest.fixture(scope="session")
def benzene():
    return load_lat("benzene")
