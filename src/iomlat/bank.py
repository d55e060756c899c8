"""Catalog of executable checks, one per statement in the built-in law index.

Entry ids are structured (family, number, optional item) and stable; the
formal content of each entry is data: either term-language statements, an
agreement requirement between named axiom verdicts, or a small procedure
over the structural operations.  `run_bank` evaluates everything applicable
to one table; `run_bank_enumerated` quantifies the bank over all enumerated
models of a class and aggregates.

The procedures read relations that `run_bank` builds at most once per table,
in an object it makes per call: commutation as one bitmask per element,
from which the center and every subset's commutor are intersections, and
the two IDIS identities at every ordered triple.  The distributivity entries
(T4.16, C4.17, R5.3) scan only the triples where `distributive_triple`
fails, in lexicographic order; the commutor entries (P5.9.1, P5.9.2) check
each distinct commutor once, at the first subset that has it.  Either way
the first witness is the one the pointwise sweep would report.

Statuses: PASS, FAIL (with the first witness), SKIP (model outside the
entry's class tier, or a class-level entry run per-model), and FLAG for the
one entry whose literal form is known to fail off the Boolean case; FLAG
lines carry the witness but do not count as failures.
"""

from __future__ import annotations

import enum
import functools
import itertools
import operator
from dataclasses import dataclass

from .algebras import FiniteAlgebra, RelationKind
from .axioms import Axiom, ClassificationReport, axiom_statements, classify
from . import catalog, modelsearch, structure, terms


class Status(enum.Enum):
    PASS = "PASS"
    FAIL = "FAIL"
    SKIP = "SKIP"
    FLAG = "FLAG"


# bank tier -> its label in `axioms.CLASS_AXIOMS`
_TIERS = {
    "be": "BE",
    "bounded": "BOUNDED_BE",
    "invbe": "INVOLUTIVE_BE",
    "implinvbe": "IMPLICATIVE_INVOLUTIVE_BE",
    "ioml": "IOML",
}


@dataclass(frozen=True)
class Component:
    """One side of an agreement: a conjunction of axiom or statement atoms."""

    label: str
    atoms: tuple[tuple[str, object], ...]


def _axiom(label: str, *axs: Axiom) -> Component:
    return Component(label, tuple(("axiom", a) for a in axs))


def _stmt(label: str, *sources: str) -> Component:
    return Component(label, tuple(("stmt", s) for s in sources))


@dataclass(frozen=True)
class BankEntry:
    entry_id: str
    about: str
    required: str
    statements: tuple[str, ...] = ()
    agreement: tuple[Component, ...] = ()
    implication: tuple[Component, Component] | None = None
    procedure: str | None = None
    class_level: bool = False
    expect_refuted_on: str | None = None
    note: str | None = None

    def __post_init__(self):
        assert self.required in _TIERS


ENTRIES: tuple[BankEntry, ...] = (
    # -- arrow basics ------------------------------------------------------
    BankEntry("L2.1.1", "weakening", "be", statements=("x -> (y -> x) = 1",)),
    BankEntry("L2.1.2", "bound below the double application", "be",
              statements=("x <= (x -> y) -> y",)),
    BankEntry("L2.1.3", "contraposition into the bottom", "bounded",
              statements=("x -> y' = y -> x'",)),
    BankEntry("L2.1.4", "bound below double negation", "bounded",
              statements=("x <= x''",)),
    BankEntry("L2.1.5", "negated antecedent exchange", "invbe",
              statements=("x' -> y = y' -> x",)),
    BankEntry("L2.1.6", "full contraposition", "invbe",
              statements=("x' -> y' = y -> x",)),
    BankEntry("L2.1.7", "negated arrow as antecedent", "invbe",
              statements=("(x -> y)' -> z = x -> (y' -> z)",)),
    BankEntry("L2.1.8", "nested arrow compression", "invbe",
              statements=("x -> (y -> z) = (x -> y')' -> z",)),
    BankEntry("L2.1.9", "cross pairing of negated arrows", "invbe",
              statements=("(x' -> y)' -> (x' -> y) = (x' -> x)' -> (y' -> y)",)),
    BankEntry("L2.2", "four-variable pairing identity", "invbe",
              statements=("(x1 -> y1')' -> (x2 -> y2') = (x1 -> x2')' -> (y1 -> y2')",)),
    BankEntry("P2.3.1", "meet-order gives reversed meet and join absorption", "invbe",
              statements=("x <=q y |- x = y & x", "x <=q y |- y = x | y")),
    BankEntry("P2.3.2", "meet-order is reflexive and antisymmetric", "invbe",
              statements=("x <=q x", "x <=q y, y <=q x |- x = y")),
    BankEntry("P2.3.3", "De Morgan between the derived operations", "invbe",
              statements=("x & y = (x' | y')'", "x | y = (x' & y')'")),
    BankEntry("P2.3.4", "meet-order implies the arrow relation", "invbe",
              statements=("x <=q y |- x <= y",)),
    BankEntry("P2.3.5", "cancellation under a common upper bound", "invbe",
              statements=("x <=q z, y <=q z, z -> x = z -> y |- x = y",)),
    BankEntry("P2.3.6", "join shifted through the arrow", "invbe",
              statements=("x -> ((y -> x')' | z) = y | (x -> z)",)),
    BankEntry("L2.4.1", "arrow relation fails transitivity somewhere in the class", "invbe",
              procedure="arrow_not_transitive", class_level=True),
    BankEntry("L2.4.2", "l-order implies the arrow relation", "invbe",
              statements=("x <=l y |- x <= y",)),
    BankEntry("L2.4.3", "l-order is an order relation", "invbe",
              statements=("x <=l x",
                          "x <=l y, y <=l x |- x = y",
                          "x <=l y, y <=l z |- x <=l z")),
    BankEntry("L2.4.4", "l-order lower bounds close under the derived meet", "invbe",
              statements=("z <=l x, z <=l y |- z <=l (x -> y')'",)),
    # -- the implicative class --------------------------------------------
    BankEntry("L3.2", "derived laws of the implicative class", "implinvbe",
              statements=("x' -> x = x", "x -> x' = x'",
                          "(x -> (x -> y)) -> x = x", "x -> (x -> y) = x -> y")),
    BankEntry("L3.3", "implicativity against its two axiom bases", "invbe",
              agreement=(_axiom("impl", Axiom.IMPL),
                         _axiom("ig+iabs", Axiom.IG, Axiom.IABS_I),
                         _axiom("pimpl+iabs", Axiom.PIMPL, Axiom.IABS_I))),
    BankEntry("L3.4.1", "l-order reverses under negation", "implinvbe",
              statements=("x <=l y |- y' <=l x'", "y' <=l x' |- x <=l y")),
    BankEntry("L3.4.2", "meet-order implies l-order", "implinvbe",
              statements=("x <=q y |- x <=l y",)),
    BankEntry("L3.5", "three orthomodularity forms coincide", "invbe",
              agreement=(_axiom("iom", Axiom.IOM),
                         _axiom("iom'", Axiom.IOM_P),
                         _axiom("iom''", Axiom.IOM_PP))),
    BankEntry("P3.7.1", "absorption both ways", "ioml",
              statements=("x & (y | x) = x", "x | (y & x) = x")),
    BankEntry("P3.7.2", "join absorbs below, negation reverses", "ioml",
              statements=("x <=q y |- y | x = y", "x <=q y |- y' <=q x'")),
    BankEntry("P3.7.3", "arrow monotonicity in both arguments", "ioml",
              statements=("x <=q y |- y -> z <=q x -> z",
                          "x <=q y |- z -> x <=q z -> y")),
    BankEntry("P3.7.4", "meet and join monotonicity", "ioml",
              statements=("x <=q y |- x & z <=q y & z",
                          "x <=q y |- x | z <=q y | z")),
    BankEntry("P3.8.1", "meet under the arrow collapses", "ioml",
              statements=("x -> (y & x) = x -> y",)),
    BankEntry("P3.8.2", "join against the negated arrow", "ioml",
              statements=("(x | y) -> (x -> y)' = y'",)),
    BankEntry("P3.8.3", "double meet absorption", "ioml",
              statements=("x & ((y -> x) & (z -> x)) = x",)),
    BankEntry("P3.8.4", "arrow into the reversed meet recovers the antecedent", "ioml",
              statements=("(x -> y) -> (y & x) = x",)),
    BankEntry("P3.8.5", "meet-order is an order relation", "ioml",
              statements=("x <=q x",
                          "x <=q y, y <=q x |- x = y",
                          "x <=q y, y <=q z |- x <=q z")),
    BankEntry("P3.8.6", "meet-order below plus arrow relation above forces equality", "ioml",
              statements=("x <=q y, y <= x |- x = y",)),
    BankEntry("P3.8.7", "meet below, join above", "ioml",
              statements=("x & y <=q y", "y <=q x | y")),
    BankEntry("L3.9.1", "negated-arrow monotonicity", "ioml",
              statements=("x <=q y |- (x -> z')' <=q (y -> z')'",)),
    BankEntry("L3.9.2", "joined lower bounds stay below", "ioml",
              statements=("y <=q x, z <=q x |- y' -> z <=q x",)),
    BankEntry("L3.9.3", "pairwise monotone combination", "ioml",
              statements=("x1 <=q y1, x2 <=q y2 |- x1' -> x2 <=q y1' -> y2",)),
    BankEntry("L3.9.4", "commutation witness stays below", "ioml",
              statements=("(x -> y') -> (x -> y)' <=q x",)),
    BankEntry("L3.9.5", "double-arrow complement stays below the join", "ioml",
              statements=("(z -> (z -> x')')' <=q z' -> x",)),
    BankEntry("T3.10", "orthomodularity against the three quantum identities", "implinvbe",
              agreement=(_axiom("iom", Axiom.IOM), _axiom("qw1", Axiom.QW1),
                         _axiom("qw2", Axiom.QW2), _axiom("qw", Axiom.QW))),
    BankEntry("C3.11", "the full quantum identity on the lattice class", "ioml",
              statements=("x -> ((x & y) & (z & x)) = (x -> y) & (x -> z)",)),
    BankEntry("P3.12.1", "meet order-reversal gives comparability", "ioml",
              statements=("(x & y) -> (y & x) = 1",)),
    BankEntry("P3.12.2", "join order-reversal gives comparability", "ioml",
              statements=("(x | y) -> (y | x) = 1",)),
    BankEntry("T3.13", "orthomodularity against order collapse", "implinvbe",
              agreement=(_axiom("iom", Axiom.IOM),
                         _stmt("lel-to-leq", "x <=l y |- x <=q y"),
                         _stmt("join-absorbs-lel", "x <=l y |- y = y | x"))),
    BankEntry("C3.14", "the two derived orders coincide", "ioml",
              statements=("x <=q y |- x <=l y", "x <=l y |- x <=q y")),
    # -- commutation and distributivity -----------------------------------
    BankEntry("L4.2", "pairwise divisibility turns the arrow relation into l-order",
              "implinvbe",
              statements=("x -> (x -> y)' = x -> y', x <= y |- x <=l y",)),
    BankEntry("L4.4.1", "commutation with self, bounds, and complement", "implinvbe",
              statements=("x C x", "x C 0", "0 C x", "x C 1", "1 C x",
                          "x C x'", "x' C x")),
    BankEntry("L4.4.2", "l-order below an element or its complement commutes",
              "implinvbe",
              statements=("x <=l y |- x C y", "x <=l y' |- x C y")),
    BankEntry("L4.4.3", "meet-order below an element or its complement commutes",
              "implinvbe",
              statements=("x <=q y |- x C y", "x <=q y' |- x C y")),
    BankEntry("L4.4.4", "everything commutes with arrows into itself", "implinvbe",
              statements=("x C (y -> x)",)),
    BankEntry("P4.5", "commuting pairs compute the meet directly", "ioml",
              statements=("x C y |- x & y = (x -> y')'",)),
    BankEntry("C4.6", "global commutation forces orthomodularity", "implinvbe",
              implication=(_stmt("all-commute", "x C y"), _axiom("iom", Axiom.IOM))),
    BankEntry("T4.7", "orthomodularity is exactly symmetry of commutation", "implinvbe",
              agreement=(_axiom("iom", Axiom.IOM),
                         _stmt("C-symmetric", "x C y |- y C x"))),
    BankEntry("L4.8", "commutation is stable under complements", "ioml",
              statements=("x C y |- x C y'", "x C y |- x' C y", "x C y |- x' C y'")),
    BankEntry("P4.9", "commutation is pairwise divisibility", "ioml",
              statements=("x C y |- x -> (x -> y)' = x -> y'",
                          "x -> (x -> y)' = x -> y' |- x C y")),
    BankEntry("P4.10", "commutation computes the reversed meet", "ioml",
              statements=("x C y |- y & x = (x -> y')'",
                          "y & x = (x -> y')' |- x C y")),
    BankEntry("C4.11", "commutation is meet commutativity", "ioml",
              statements=("x C y |- x & y = y & x", "x & y = y & x |- x C y")),
    BankEntry("D4.13", "the two distributivity forms swap under negation", "invbe",
              statements=(
                  "((x' -> y) -> z')' = (x -> z') -> (y -> z')'"
                  " |- ((x' -> y) -> z')' = (z -> x') -> (z -> y')'",
                  "((x' -> y) -> z')' = (z -> x') -> (z -> y')'"
                  " |- ((x' -> y) -> z')' = (x -> z') -> (y -> z')'",
              )),
    BankEntry("T4.16", "one element commuting with the other two makes the triple distributive",
              "ioml", procedure="commuting_triple_distributivity"),
    BankEntry("C4.17", "pairwise comparable triples are distributive", "ioml",
              procedure="comparable_triples"),
    BankEntry("P4.18", "divisibility at a common element gives the first distributivity form",
              "ioml",
              statements=("z -> (z -> x)' = z -> x', z -> (z -> y)' = z -> y'"
                          " |- ((x' -> y) -> z')' = (x -> z') -> (y -> z')'",),
              note="tiered ioml, as Section 4's distributivity results (T4.16, C4.17, "
                   "T4.19) are: its hypotheses say z commutes with x and with y only "
                   "through P4.9, which needs orthomodularity. Off that class the "
                   "literal form is false: it fails on the implicative involutive, "
                   "non-orthomodular model `implinvbe` n=8 #2 at z=b x=e y=f."),
    BankEntry("T4.19", "distributive exactly when divisible", "ioml",
              agreement=(_axiom("idis", Axiom.IDIS), _axiom("idiv", Axiom.IDIV))),
    # -- center, complements, commutor -------------------------------------
    BankEntry("P5.1", "commuting with a third element is closed under the arrow",
              "ioml", statements=("x C z, y C z |- (x -> y) C z",)),
    BankEntry("R5.3", "triples through the center are distributive", "ioml",
              procedure="center_triples"),
    BankEntry("T5.4", "the center is a divisible implicative subalgebra", "ioml",
              procedure="center_subalgebra"),
    BankEntry("C5.5", "global commutation forces divisibility", "ioml",
              implication=(_stmt("all-commute", "x C y"), _axiom("idiv", Axiom.IDIV))),
    BankEntry("T5.6.1", "the constructed complement really is one", "ioml",
              statements=("x -> ((z -> (z -> x')') -> (z' -> x)')' = 1",
                          "x' -> ((z -> (z -> x')') -> (z' -> x)') = 1")),
    BankEntry("T5.6.2", "every complement is reached by the construction at itself",
              "ioml",
              statements=("x -> y' = 1, x' -> y = 1"
                          " |- (y -> (y -> x')') -> (y' -> x)' = y",)),
    BankEntry("T5.6.3", "the construction degenerates exactly on commuting pairs",
              "ioml",
              statements=("(z -> (z -> x')') -> (z' -> x)' = x' |- x C z",
                          "x C z |- (z -> (z -> x')') -> (z' -> x)' = x'")),
    BankEntry("C5.7", "central elements are exactly those with a unique complement",
              "ioml", procedure="center_vs_complements"),
    BankEntry("P5.9.1", "every commutor is a subalgebra containing the bounds", "ioml",
              procedure="commutor_sublattice"),
    BankEntry("P5.9.2", "every commutor contains the center", "ioml",
              procedure="commutor_contains_center"),
    BankEntry("P5.9.3", "the commutor of the whole carrier, literal form", "ioml",
              procedure="commutor_whole_carrier", expect_refuted_on="mo2"),
    # -- applications -------------------------------------------------------
    BankEntry("T6.1", "orthomodularity via the single two-variable identity", "implinvbe",
              agreement=(_axiom("iom", Axiom.IOM),
                         _stmt("identity", "((x' -> y') -> (x' -> y)')' = x' -> (x & y')"))),
    BankEntry("R6.2", "the identity agrees with its meet/join translation pointwise",
              "implinvbe",
              statements=(
                  "((x' -> y') -> (x' -> y)')' = x' -> (x & y')"
                  " |- x' -> (y' -> (x' -> y)')' = ((x' -> y') -> (x' -> y)')'",
                  "x' -> (y' -> (x' -> y)')' = ((x' -> y') -> (x' -> y)')'"
                  " |- ((x' -> y') -> (x' -> y)')' = x' -> (x & y')",
              )),
    BankEntry("P6.3", "negation inside the guarded meet is invisible", "ioml",
              statements=("x' -> (x & y') = x' -> (x & y)",)),
    BankEntry("E6.4", "the benzene table: implicative, involutive, not orthomodular",
              "implinvbe", procedure="benzene_fixture_facts"),
    BankEntry("R6.5", "no subalgebra is a benzene ring", "ioml",
              procedure="no_benzene_subalgebra"),
    BankEntry("P6.6", "guarded-meet collapse is symmetric", "ioml",
              statements=("x -> (x' & y') = x' |- y -> (y' & x') = y'",)),
    BankEntry("P6.7.1", "meet under the arrow collapses (re-proof)", "ioml",
              statements=("x -> (y & x) = x -> y",)),
    BankEntry("P6.7.2", "arrow into the reversed meet recovers the antecedent (re-proof)",
              "ioml", statements=("(x -> y) -> (y & x) = x",)),
    BankEntry("P6.7.3", "the converse arrow absorbs", "ioml",
              statements=("(x -> y) -> (y -> x) = y -> x",)),
    BankEntry("P6.7.4", "join against the negated arrow (re-proof)", "ioml",
              statements=("(x | y) -> (x -> y)' = y'",)),
)

ENTRY_IDS = tuple(e.entry_id for e in ENTRIES)


# -- procedures ----------------------------------------------------------------


def _fmt_elems(alg: FiniteAlgebra, **kw) -> str:
    return " ".join(f"{k}={alg.names[v]}" for k, v in kw.items())


class _Relations:
    """The relations of one table that the procedures read.

    `run_bank` makes one per call; each relation is built the first time an
    applicable procedure asks for it and then shared by the others.  Element
    sets are bitmasks (bit x for element x) until a procedure needs a
    frozenset, which `_elements` builds the way `structure.commutor` does.
    """

    def __init__(self, alg: FiniteAlgebra):
        self.alg = alg

    @functools.cached_property
    def commutors(self) -> tuple[int, ...]:
        """C({y}) per element y: bit x is set when x commutes with y."""
        alg, n = self.alg, self.alg.size
        return tuple(
            sum(1 << x for x in range(n) if alg._commutes(x, y)) for y in range(n)
        )

    @functools.cached_property
    def center_mask(self) -> int:
        """The center, which is also the commutor of the whole carrier."""
        return functools.reduce(operator.and_, self.commutors)

    @functools.cached_property
    def center(self) -> frozenset[int]:
        return _elements(self.alg, self.center_mask)

    @functools.cached_property
    def subset_commutors(self) -> dict[int, int]:
        """Each distinct commutor C(S), mapped to the first nonempty subset S
        that has it, both as masks; subsets go in increasing mask order, and
        C(S) = C(S without s) & C({s}) with s the lowest element of S."""
        n = self.alg.size
        single = self.commutors
        by_subset = [(1 << n) - 1]
        first: dict[int, int] = {}
        for subset in range(1, 1 << n):
            low = subset & -subset
            com = by_subset[subset ^ low] & single[low.bit_length() - 1]
            by_subset.append(com)
            first.setdefault(com, subset)
        return first

    @functools.cached_property
    def nondistributive(self) -> tuple[tuple[int, int, int], ...]:
        """The triples, in lexicographic order, where `distributive_triple`
        fails: some ordering breaks one of the two IDIS identities."""
        n = self.alg.size
        checks = [terms.checker(eq, self.alg) for eq in axiom_statements(Axiom.IDIS)]
        broken = [t for t in itertools.product(range(n), repeat=3)
                  if not all(check(t) for check in checks)]
        return tuple(sorted({p for t in broken for p in itertools.permutations(t)}))


def _elements(alg: FiniteAlgebra, mask: int) -> frozenset[int]:
    return frozenset(x for x in range(alg.size) if mask >> x & 1)


def _proc_commuting_triple_distributivity(alg: FiniteAlgebra, report, rel: _Relations):
    single = rel.commutors
    for x, y, z in rel.nondistributive:
        if single[x] >> z & 1 and single[y] >> z & 1:
            return Status.FAIL, _fmt_elems(alg, x=x, y=y, z=z)
    return Status.PASS, ""


def _proc_comparable_triples(alg: FiniteAlgebra, report, rel: _Relations):
    leq = alg.relation_matrix(RelationKind.LE_Q).bits
    for x1, x2, y in rel.nondistributive:
        if (leq[x1][y] or leq[y][x1]) and (leq[x2][y] or leq[y][x2]):
            return Status.FAIL, _fmt_elems(alg, x1=x1, x2=x2, y=y)
    return Status.PASS, ""


def _proc_center_triples(alg: FiniteAlgebra, report, rel: _Relations):
    cent = rel.center
    for x1, x2, y in rel.nondistributive:
        if (x1 in cent and x2 in cent) or y in cent:
            return Status.FAIL, _fmt_elems(alg, x1=x1, x2=x2, y=y)
    return Status.PASS, ""


def _proc_center_subalgebra(alg: FiniteAlgebra, report, rel: _Relations):
    cent = rel.center
    if alg.zero not in cent or alg.one not in cent:
        return Status.FAIL, "center misses a bound"
    for a in cent:
        if alg._neg(a) not in cent:
            return Status.FAIL, f"center not closed under negation at {alg.names[a]}"
        for b in cent:
            if alg._imp(a, b) not in cent:
                return Status.FAIL, f"center not closed under -> at {_fmt_elems(alg, a=a, b=b)}"
    sub = structure.restrict(alg, cent)
    sub_report = classify(sub)
    if not sub_report.is_implicative_boolean:
        return Status.FAIL, "restriction to the center is not divisible implicative"
    if not sub_report.results[Axiom.IDIS].passed:
        return Status.FAIL, "restriction to the center is not distributive"
    return Status.PASS, ""


def _proc_center_vs_complements(alg: FiniteAlgebra, report, rel: _Relations):
    cent = rel.center
    for x in range(alg.size):
        unique = structure.complements(alg, x) == frozenset((alg.neg(x),))
        if (x in cent) != unique:
            return Status.FAIL, _fmt_elems(alg, x=x)
    return Status.PASS, ""


def _proc_commutor_sublattice(alg: FiniteAlgebra, report, rel: _Relations):
    # every commutor member is an index of alg, so the loops run the
    # unchecked operations; a commutor shared by several subsets is checked
    # once, at the first of them, which is where the subset sweep would fail
    for mask, subset in rel.subset_commutors.items():
        com = _elements(alg, mask)
        if alg.zero not in com or alg.one not in com:
            return Status.FAIL, f"commutor of {{{_subset_names(alg, subset)}}} misses a bound"
        for a in com:
            if alg._neg(a) not in com:
                return Status.FAIL, (
                    f"commutor of {{{_subset_names(alg, subset)}}} not closed "
                    f"under negation at {alg.names[a]}"
                )
            for b in com:
                for v in (alg._imp(a, b), alg._cap(a, b), alg._cup(a, b)):
                    if v not in com:
                        return Status.FAIL, (
                            f"commutor of {{{_subset_names(alg, subset)}}} not closed "
                            f"at {_fmt_elems(alg, a=a, b=b)}"
                        )
    return Status.PASS, ""


def _proc_commutor_contains_center(alg: FiniteAlgebra, report, rel: _Relations):
    cent = rel.center_mask
    for mask, subset in rel.subset_commutors.items():
        if cent & ~mask:
            return Status.FAIL, f"center escapes the commutor of {{{_subset_names(alg, subset)}}}"
    return Status.PASS, ""


def _proc_commutor_whole_carrier(alg: FiniteAlgebra, report, rel: _Relations):
    n = alg.size
    com = rel.center_mask
    if com == (1 << n) - 1:
        return Status.PASS, ""
    missing = min(x for x in range(n) if not com >> x & 1)
    partner = min(b for b in range(n) if not rel.commutors[b] >> missing & 1)
    return Status.FLAG, (
        f"literal form fails: {_fmt_elems(alg, x=missing, y=partner)} do not commute "
        "(expected off the Boolean case; see the l3/mo2 notes in the index)"
    )


def _proc_benzene_facts(alg: FiniteAlgebra, report, rel: _Relations):
    iso = structure.is_isomorphic(alg, catalog.o6())
    if iso is None:
        return Status.SKIP, "not the benzene table"
    if not report.is_implicative_involutive_be:
        return Status.FAIL, "benzene table not classified implicative involutive"
    if report.results[Axiom.IOM].passed:
        return Status.FAIL, "benzene table classified orthomodular"
    inv = {v: k for k, v in iso.items()}
    x, y = inv[1], inv[2]
    if alg.neg(alg.imp(x, alg.neg(y))) != x:
        return Status.FAIL, "l-order fact fails on the benzene table"
    if alg.cap(x, y) != y:
        return Status.FAIL, "meet fact fails on the benzene table"
    return Status.PASS, ""


def _proc_no_benzene_subalgebra(alg: FiniteAlgebra, report, rel: _Relations):
    found = structure.find_o6_subalgebra(alg)
    if found is None:
        return Status.PASS, ""
    elems, _ = found
    return Status.FAIL, "benzene subalgebra on " + " ".join(alg.names[e] for e in elems)


def _subset_names(alg: FiniteAlgebra, subset: int) -> str:
    return ",".join(alg.names[i] for i in range(alg.size) if subset >> i & 1)


_PROCEDURES = {
    "commuting_triple_distributivity": _proc_commuting_triple_distributivity,
    "comparable_triples": _proc_comparable_triples,
    "center_triples": _proc_center_triples,
    "center_subalgebra": _proc_center_subalgebra,
    "center_vs_complements": _proc_center_vs_complements,
    "commutor_sublattice": _proc_commutor_sublattice,
    "commutor_contains_center": _proc_commutor_contains_center,
    "commutor_whole_carrier": _proc_commutor_whole_carrier,
    "benzene_fixture_facts": _proc_benzene_facts,
    "no_benzene_subalgebra": _proc_no_benzene_subalgebra,
}

# transitivity of the arrow relation; the witness search always runs to the
# fixed desk bound below, independent of the enumeration's size limit
_ARROW_TRANSITIVITY = "x <= y, y <= z |- x <= z"
_ARROW_SEARCH_BOUND = 6


def _class_level_arrow():
    found = modelsearch.find_counterexample(_ARROW_TRANSITIVITY, "invbe", _ARROW_SEARCH_BOUND)
    if found is None:
        return Status.FAIL, f"no non-transitive witness up to n={_ARROW_SEARCH_BOUND}"
    alg, witness = found
    stmt = terms.parse_statement(_ARROW_TRANSITIVITY)
    return Status.PASS, (
        f"witness at n={alg.size}: {terms.format_witness(witness, alg, stmt.vars)}"
    )


# -- evaluation ------------------------------------------------------------------


@dataclass(frozen=True)
class EntryResult:
    entry_id: str
    status: Status
    detail: str = ""

    def line(self) -> str:
        return f"{self.entry_id} {self.status.value}" + (f" {self.detail}" if self.detail else "")


@dataclass(frozen=True)
class BankReport:
    results: tuple[EntryResult, ...]
    context: str = ""

    def counts(self) -> dict[str, int]:
        out = {s: 0 for s in Status}
        for r in self.results:
            out[r.status] += 1
        return {s.value.lower(): k for s, k in out.items()}

    def summary(self) -> str:
        c = self.counts()
        base = f"total={len(self.results)} pass={c['pass']} fail={c['fail']} skip={c['skip']}"
        if c["flag"]:
            base += f" flag={c['flag']}"
        return base

    def lines(self) -> list[str]:
        out = [r.line() for r in self.results]
        if self.context:
            out.append(self.context)
        out.append(self.summary())
        return out

    @property
    def failed(self) -> bool:
        return any(r.status is Status.FAIL for r in self.results)


@functools.lru_cache(maxsize=None)
def _parse_stmt(source: str):
    return terms.parse_statement(source)


def _eval_component(alg: FiniteAlgebra, report, comp: Component):
    """Truth value of a component plus the first witness when false."""
    for kind, payload in comp.atoms:
        if kind == "axiom":
            res = report.results[payload]
            if not res.passed:
                return False, terms.format_witness(res.witness, alg, res.witness_vars)
        else:
            stmt = _parse_stmt(payload)
            res = terms.holds(stmt, alg)
            if not res.ok:
                return False, terms.format_witness(res.witness, alg, stmt.vars)
    return True, ""


def _eval_entry(alg: FiniteAlgebra, report, rel: _Relations, entry: BankEntry) -> EntryResult:
    if entry.class_level:
        return EntryResult(entry.entry_id, Status.SKIP, "class-level check; run over an enumeration")
    if not report.member(_TIERS[entry.required]):
        return EntryResult(entry.entry_id, Status.SKIP, f"needs class {entry.required}")
    if entry.procedure is not None:
        status, detail = _PROCEDURES[entry.procedure](alg, report, rel)
        if status is Status.FAIL and entry.expect_refuted_on:
            status = Status.FLAG
        return EntryResult(entry.entry_id, status, detail)
    if entry.agreement:
        verdicts = []
        for comp in entry.agreement:
            value, witness = _eval_component(alg, report, comp)
            verdicts.append((comp.label, value, witness))
        detail = " ".join(
            f"{label}={'yes' if value else 'no'}" + (f"[{wit}]" if wit else "")
            for label, value, wit in verdicts
        )
        agree = len({value for _, value, _ in verdicts}) == 1
        return EntryResult(entry.entry_id, Status.PASS if agree else Status.FAIL, detail)
    if entry.implication:
        premise, conclusion = entry.implication
        pv, _ = _eval_component(alg, report, premise)
        if not pv:
            return EntryResult(entry.entry_id, Status.PASS,
                               f"{premise.label}=no; nothing to conclude")
        cv, wit = _eval_component(alg, report, conclusion)
        if cv:
            return EntryResult(entry.entry_id, Status.PASS,
                               f"{premise.label}=yes {conclusion.label}=yes")
        return EntryResult(entry.entry_id, Status.FAIL,
                           f"{premise.label}=yes but {conclusion.label}=no[{wit}]")
    for src in entry.statements:
        stmt = _parse_stmt(src)
        res = terms.holds(stmt, alg)
        if not res.ok:
            detail = f"{src}  at  {terms.format_witness(res.witness, alg, stmt.vars)}"
            status = Status.FLAG if entry.expect_refuted_on else Status.FAIL
            return EntryResult(entry.entry_id, status, detail)
    return EntryResult(entry.entry_id, Status.PASS)


def run_bank(alg: FiniteAlgebra, report: ClassificationReport | None = None) -> BankReport:
    """Evaluate every applicable entry on one table."""
    if report is None:
        report = classify(alg)
    rel = _Relations(alg)
    return BankReport(tuple(_eval_entry(alg, report, rel, e) for e in ENTRIES))


@dataclass(frozen=True)
class EnumeratedBankReport:
    klass: str
    max_size: int
    models: tuple[tuple[int, int, FiniteAlgebra], ...]  # (size, index, model)
    per_model: tuple[BankReport, ...]
    aggregated: tuple[EntryResult, ...]
    halted_context: str = ""

    def lines(self) -> list[str]:
        out = [r.line() for r in self.aggregated]
        if self.halted_context:
            out.append(self.halted_context)
        counts = {s: 0 for s in Status}
        for r in self.aggregated:
            counts[r.status] += 1
        base = (f"total={len(self.aggregated)} pass={counts[Status.PASS]} "
                f"fail={counts[Status.FAIL]} skip={counts[Status.SKIP]}")
        if counts[Status.FLAG]:
            base += f" flag={counts[Status.FLAG]}"
        out.append(f"models={len(self.models)} " + base)
        return out

    @property
    def failed(self) -> bool:
        return any(r.status is Status.FAIL for r in self.aggregated)


_AGG_ORDER = {Status.FAIL: 0, Status.FLAG: 1, Status.PASS: 2, Status.SKIP: 3}


def run_bank_enumerated(klass: str, max_size: int) -> EnumeratedBankReport:
    """Quantify the bank over every enumerated model of the class.

    Any FAIL halts the run immediately and the report carries the offending
    model in full; class-level entries are evaluated once over the whole
    class rather than per model.
    """
    from .algebras import format_algtab

    models = []
    reports = []
    best: dict[str, EntryResult] = {}
    halted = ""
    stop = False
    for n in range(2, max_size + 1):
        if stop:
            break
        task = modelsearch.EnumerationTask(
            size=n, klass=klass, modulo_iso=True, max_size=max(n, modelsearch.DEFAULT_MAX_SIZE)
        )
        for index, alg in enumerate(modelsearch.enumerate_models(task)):
            models.append((n, index, alg))
            rep = run_bank(alg)
            reports.append(rep)
            for res in rep.results:
                tagged = res
                if res.status in (Status.FAIL, Status.FLAG) and res.detail:
                    tagged = EntryResult(res.entry_id, res.status,
                                         f"n={n}#{index}: {res.detail}")
                prev = best.get(res.entry_id)
                if prev is None or _AGG_ORDER[tagged.status] < _AGG_ORDER[prev.status]:
                    best[res.entry_id] = tagged
            if rep.failed:
                halted = ("halted on failing model:\n"
                          + format_algtab(alg, comment=f"class={klass} n={n} index={index}"))
                stop = True
                break
    for entry in ENTRIES:
        if entry.class_level:
            status, detail = _class_level_arrow()
            best[entry.entry_id] = EntryResult(entry.entry_id, status, detail)
        best.setdefault(entry.entry_id, EntryResult(entry.entry_id, Status.SKIP, "no applicable model"))
    aggregated = tuple(best[e.entry_id] for e in ENTRIES)
    return EnumeratedBankReport(
        klass=klass, max_size=max_size, models=tuple(models),
        per_model=tuple(reports), aggregated=aggregated, halted_context=halted,
    )


# -- index and statement export ---------------------------------------------------


def index_text() -> str:
    """The bank index: one block per entry with tier and formal content."""
    out = ["# Law index", "",
           "One block per catalogued check: tier, then the formal content.",
           "Statements use the term-language surface syntax.", ""]
    for e in ENTRIES:
        out.append(f"## {e.entry_id} — {e.about}")
        out.append(f"- tier: {e.required}" + (" (class-level)" if e.class_level else ""))
        for src in e.statements:
            out.append(f"- `{src}`")
        for comp in e.agreement:
            parts = [f"{kind}:{getattr(p, 'value', p)}" for kind, p in comp.atoms]
            out.append(f"- agree[{comp.label}]: " + "; ".join(f"`{p}`" for p in parts))
        if e.implication:
            prem, conc = e.implication
            out.append(f"- implies: `{prem.label}` => `{conc.label}`")
        if e.procedure:
            out.append(f"- procedure: {e.procedure}")
        if e.expect_refuted_on:
            out.append(f"- literal form refuted on fixture: {e.expect_refuted_on}")
        if e.note:
            out.append(f"- note: {e.note}")
        out.append("")
    return "\n".join(out)


def statement_lines() -> list[str]:
    """Every equational/conditional statement in the bank, one per line."""
    out = []
    for e in ENTRIES:
        for src in e.statements:
            out.append(f"{src}  # {e.entry_id}")
        for comp in e.agreement:
            for kind, payload in comp.atoms:
                if kind == "stmt":
                    out.append(f"{payload}  # {e.entry_id} [{comp.label}]")
        if e.implication:
            for comp in e.implication:
                for kind, payload in comp.atoms:
                    if kind == "stmt":
                        out.append(f"{payload}  # {e.entry_id} [{comp.label}]")
    return out
