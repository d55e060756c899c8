"""Axiom families, per-axiom checking, and whole-algebra classification.

Every axiom is stored as a statement in the term language and checked by the
shared evaluation engine in `terms`, never by a bespoke loop, so the same
data drives this module, the theorem bank, and the CLI.
"""

from __future__ import annotations

import enum
import functools
import itertools
from dataclasses import dataclass

from .algebras import FiniteAlgebra
from .errors import ConsistencyError
from . import terms


class Axiom(enum.Enum):
    BE1 = "be1"
    BE2 = "be2"
    BE3 = "be3"
    BE4 = "be4"
    BOUNDED = "bounded"
    INVOLUTIVE = "involutive"
    IMPL = "impl"
    IG = "ig"
    IABS_I = "iabs_i"
    PIMPL = "pimpl"
    IOM = "iom"
    IOM_P = "iom_p"
    IOM_PP = "iom_pp"
    QW = "qw"
    QW1 = "qw1"
    QW2 = "qw2"
    IDIV = "idiv"
    IDIS = "idis"


# Statement source per axiom id.  IDIS is the one composite: both
# distributivity identities quantified over all triples.
AXIOM_SOURCES: dict[Axiom, tuple[str, ...]] = {
    Axiom.BE1: ("x -> x = 1",),
    Axiom.BE2: ("x -> 1 = 1",),
    Axiom.BE3: ("1 -> x = x",),
    Axiom.BE4: ("x -> (y -> z) = y -> (x -> z)",),
    Axiom.BOUNDED: ("0 -> x = 1",),
    Axiom.INVOLUTIVE: ("x'' = x",),
    Axiom.IMPL: ("(x -> y) -> x = x",),
    Axiom.IG: ("x' -> x = x",),
    Axiom.IABS_I: ("(x -> (x -> y)) -> x = x",),
    Axiom.PIMPL: ("x -> (x -> y) = x -> y",),
    Axiom.IOM: ("x & (y -> x) = x",),
    Axiom.IOM_P: ("x & (x' -> y) = x",),
    Axiom.IOM_PP: ("x | (x -> y)' = x",),
    Axiom.QW: ("x -> ((x & y) & (z & x)) = (x -> y) & (x -> z)",),
    Axiom.QW1: ("x -> (x & y) = x -> y",),
    Axiom.QW2: ("x -> (y & (z & x)) = (x -> y) & (x -> z)",),
    Axiom.IDIV: ("x -> (x -> y)' = x -> y'",),
    Axiom.IDIS: (
        "((x' -> y) -> z')' = (x -> z') -> (y -> z')'",
        "((x -> y') -> z)' = (z' -> x) -> (z' -> y)'",
    ),
}


@functools.lru_cache(maxsize=None)
def axiom_statements(axiom: Axiom) -> tuple[terms.Statement, ...]:
    return tuple(terms.parse_statement(src) for src in AXIOM_SOURCES[axiom])


@dataclass(frozen=True)
class CheckResult:
    axiom: Axiom
    passed: bool
    witness: dict[str, int] | None = None
    witness_vars: tuple[str, ...] = ()

    def __bool__(self) -> bool:
        return self.passed


def check_axiom(alg: FiniteAlgebra, axiom: Axiom) -> CheckResult:
    """Exhaustively evaluate one axiom; on failure carry the first witness."""
    for stmt in axiom_statements(axiom):
        result = terms.holds(stmt, alg)
        if not result.ok:
            return CheckResult(axiom, False, result.witness, stmt.vars)
    return CheckResult(axiom, True)


# The class chain by label: each class is exactly its defining axioms,
# written in `Axiom` order.  Every class membership test reads this table.
_BE = (Axiom.BE1, Axiom.BE2, Axiom.BE3, Axiom.BE4)
_IMPLICATIVE_INVOLUTIVE = _BE + (Axiom.BOUNDED, Axiom.INVOLUTIVE, Axiom.IMPL)
CLASS_AXIOMS: dict[str, tuple[Axiom, ...]] = {
    "BE": _BE,
    "BOUNDED_BE": _BE + (Axiom.BOUNDED,),
    "INVOLUTIVE_BE": _BE + (Axiom.BOUNDED, Axiom.INVOLUTIVE),
    "IMPLICATIVE_INVOLUTIVE_BE": _IMPLICATIVE_INVOLUTIVE,
    "IOML": _IMPLICATIVE_INVOLUTIVE + (Axiom.IOM,),
    "IMPLICATIVE_BOOLEAN": _IMPLICATIVE_INVOLUTIVE + (Axiom.IDIV,),
}


def failed_axioms(alg: FiniteAlgebra, label: str) -> tuple[Axiom, ...]:
    """The defining axioms of class `label` that `alg` breaks, in `Axiom`
    order; empty exactly when `alg` belongs to the class."""
    return tuple(a for a in CLASS_AXIOMS[label] if not check_axiom(alg, a).passed)


@dataclass(frozen=True)
class ClassificationReport:
    """Per-axiom verdicts plus the derived class labels."""

    algebra: FiniteAlgebra
    results: dict[Axiom, CheckResult]
    degenerate: bool

    def member(self, label: str) -> bool:
        return all(self.results[a].passed for a in CLASS_AXIOMS[label])

    @property
    def is_be(self) -> bool:
        return self.member("BE")

    @property
    def is_bounded_be(self) -> bool:
        return self.member("BOUNDED_BE")

    @property
    def is_involutive_be(self) -> bool:
        return self.member("INVOLUTIVE_BE")

    @property
    def is_implicative_involutive_be(self) -> bool:
        return self.member("IMPLICATIVE_INVOLUTIVE_BE")

    @property
    def is_ioml(self) -> bool:
        return self.member("IOML")

    @property
    def is_implicative_boolean(self) -> bool:
        return self.member("IMPLICATIVE_BOOLEAN")

    def labels(self) -> tuple[str, ...]:
        return tuple(label for label in CLASS_AXIOMS if self.member(label))


def classify(alg: FiniteAlgebra) -> ClassificationReport:
    """Check every axiom family and derive the class labels."""
    results = {axiom: check_axiom(alg, axiom) for axiom in Axiom}
    report = ClassificationReport(alg, results, degenerate=alg.is_degenerate)
    if report.is_implicative_involutive_be:
        forms = [results[a].passed for a in (Axiom.IOM, Axiom.IOM_P, Axiom.IOM_PP)]
        if len(set(forms)) != 1:
            raise ConsistencyError(
                "the three orthomodularity forms disagree on an implicative "
                f"involutive table: IOM={forms[0]} IOM_P={forms[1]} IOM_PP={forms[2]}"
            )
    return report


# -- pointwise distributivity ------------------------------------------------


def distributive_triple(alg: FiniteAlgebra, x: int, y: int, z: int) -> bool:
    """Both IDIS identities under all six orderings of (x, y, z): 12 instances."""
    alg._check(x, y, z)
    checks = [terms.checker(eq, alg) for eq in axiom_statements(Axiom.IDIS)]
    return all(check(p) for p in itertools.permutations((x, y, z)) for check in checks)
