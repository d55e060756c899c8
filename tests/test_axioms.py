import itertools
import random

from iomlat import terms
from iomlat.axioms import (
    CLASS_AXIOMS,
    Axiom,
    axiom_statements,
    check_axiom,
    classify,
    distributive_triple,
    failed_axioms,
)
from iomlat.algebras import FiniteAlgebra
from iomlat.modelsearch import EnumerationTask, enumerate_models

from conftest import ALG_FIXTURES, IOML_FIXTURES, load_alg, relabeled


def test_o6_passes_the_implicative_involutive_suite(o6):
    for axiom in (Axiom.BE1, Axiom.BE2, Axiom.BE3, Axiom.BE4,
                  Axiom.BOUNDED, Axiom.INVOLUTIVE, Axiom.IMPL):
        assert check_axiom(o6, axiom).passed, axiom


def test_o6_orthomodularity_fails_with_expected_witness(o6):
    res = check_axiom(o6, Axiom.IOM_P)
    assert not res.passed
    assert res.witness == {"x": o6.index("x"), "y": o6.index("y")}
    res_iom = check_axiom(o6, Axiom.IOM)
    assert res_iom.witness == {"x": o6.index("x"), "y": o6.index("y*")}


def test_b2_satisfies_everything(b2):
    for axiom in Axiom:
        assert check_axiom(b2, axiom).passed, axiom


def test_labels(o6, mo2, b4, l3):
    assert classify(o6).labels() == (
        "BE", "BOUNDED_BE", "INVOLUTIVE_BE", "IMPLICATIVE_INVOLUTIVE_BE")
    assert classify(mo2).labels() == (
        "BE", "BOUNDED_BE", "INVOLUTIVE_BE", "IMPLICATIVE_INVOLUTIVE_BE", "IOML")
    assert classify(b4).labels() == (
        "BE", "BOUNDED_BE", "INVOLUTIVE_BE", "IMPLICATIVE_INVOLUTIVE_BE",
        "IOML", "IMPLICATIVE_BOOLEAN")
    assert classify(l3).labels() == ("BE", "BOUNDED_BE", "INVOLUTIVE_BE")


def _membership_cases():
    cases = [FiniteAlgebra(names=("e",), table=((0,),), one=0, zero=0)]
    for name in ALG_FIXTURES:
        alg = load_alg(name)
        rng = random.Random(name)
        cases.append(alg)
        cases += [relabeled(alg, rng.sample(range(alg.size), alg.size)) for _ in range(4)]
    # be stops at 5: its size-6 enumeration takes minutes
    for klass, top in (("be", 5), ("invbe", 6), ("implinvbe", 6), ("ioml", 6), ("iboolean", 6)):
        for n in range(2, top + 1):
            cases += enumerate_models(EnumerationTask(size=n, klass=klass))
    return cases


def test_class_axioms_agree_with_classify():
    # fixtures, relabelings and enumerated models, members of some classes
    # and not of the stricter ones
    for alg in _membership_cases():
        rep = classify(alg)
        labels = rep.labels()
        for label, defining in CLASS_AXIOMS.items():
            failing = failed_axioms(alg, label)
            assert (not failing) == (label in labels), (label, alg.table)
            assert failing == tuple(a for a in Axiom
                                    if a in defining and not rep.results[a].passed)


def test_degenerate_flagged():
    single = FiniteAlgebra(names=("e",), table=((0,),), one=0, zero=0)
    report = classify(single)
    assert report.degenerate
    assert report.is_implicative_boolean  # everything holds on one point


def _idiv_at(alg, x, y):
    (idiv,) = axiom_statements(Axiom.IDIV)
    return terms.atom_holds(idiv, alg, {"x": x, "y": y})


def _idis_at(alg, x, y, z):
    """Each IDIS identity at the single triple (x, y, z)."""
    return tuple(terms.atom_holds(eq, alg, {"x": x, "y": y, "z": z})
                 for eq in axiom_statements(Axiom.IDIS))


def test_mo2_fails_divisibility_on_cross_block_atoms(mo2):
    a, b = mo2.index("a"), mo2.index("b")
    assert not _idiv_at(mo2, a, b)
    assert not classify(mo2).is_implicative_boolean


def test_commuting_pairs_are_divisible_on_orthomodular_fixtures():
    for name in IOML_FIXTURES:
        alg = load_alg(name)
        for x, y in itertools.product(range(alg.size), repeat=2):
            if alg.commutes(x, y):
                assert _idiv_at(alg, x, y)


def test_diagonal_divisibility_on_implicative_fixtures(o6, mo2, b8):
    for alg in (o6, mo2, b8):
        for x in range(alg.size):
            assert _idiv_at(alg, x, x)


def test_distributivity_forms_swap_under_negation(mo2, o6):
    for alg in (mo2, o6):
        for x, y, z in itertools.product(range(alg.size), repeat=3):
            nx, ny, nz = alg.neg(x), alg.neg(y), alg.neg(z)
            assert _idis_at(alg, x, y, z)[0] == _idis_at(alg, nx, ny, nz)[1]


def test_triple_examples(mo2, b4, b2):
    a, b, one = mo2.index("a"), mo2.index("b"), mo2.one
    assert distributive_triple(mo2, a, b, one)
    for x, y, z in itertools.product(range(b4.size), repeat=3):
        assert distributive_triple(b4, x, y, z)
    for x, y, z in itertools.product(range(b2.size), repeat=3):
        assert _idis_at(b2, x, y, z) == (True, True)


def test_mo2_is_not_distributive(mo2):
    assert not check_axiom(mo2, Axiom.IDIS).passed
    assert not check_axiom(mo2, Axiom.IDIV).passed


def test_distributive_exactly_when_divisible_on_orthomodular_fixtures():
    # T4.19: on the lattice class IDIS and IDIV are equivalent
    for name in IOML_FIXTURES:
        rep = classify(load_alg(name))
        assert rep.results[Axiom.IDIS].passed == rep.results[Axiom.IDIV].passed, name


def test_orthomodularity_forms_agree_on_fixtures(o6, mo2, b8):
    for alg in (o6, mo2, b8):
        rep = classify(alg)
        verdicts = {rep.results[a].passed for a in (Axiom.IOM, Axiom.IOM_P, Axiom.IOM_PP)}
        assert len(verdicts) == 1


def test_quantum_identities_agree_with_orthomodularity(o6, mo2, b4):
    for alg in (o6, mo2, b4):
        rep = classify(alg)
        base = rep.results[Axiom.IOM].passed
        for axiom in (Axiom.QW, Axiom.QW1, Axiom.QW2):
            assert rep.results[axiom].passed == base
