import itertools

import pytest

from iomlat import structure
from iomlat.algebras import FiniteAlgebra
from iomlat.errors import InputError
from iomlat.structure import ClassWarning

from conftest import IOML_FIXTURES, load_alg, relabeled

LUKA4 = FiniteAlgebra(
    names=("0", "a", "b", "1"),
    table=((3, 3, 3, 3), (2, 3, 3, 3), (1, 2, 3, 3), (0, 1, 2, 3)),
    one=3,
    zero=0,
)


def test_center_of_boolean_is_everything(b4):
    assert structure.center(b4) == frozenset(range(4))


def test_center_of_mo2_is_the_bounds(mo2):
    assert structure.center(mo2) == frozenset((mo2.zero, mo2.one))


def test_center_warns_off_class(o6):
    with pytest.warns(ClassWarning):
        structure.center(o6)


def test_bounds_are_central_on_orthomodular_fixtures():
    for name in IOML_FIXTURES:
        alg = load_alg(name)
        cent = structure.center(alg, check_class=False)
        assert alg.zero in cent and alg.one in cent


def test_commutor_examples(mo2):
    a = mo2.index("a")
    members = structure.commutor(mo2, {a})
    assert members == frozenset((mo2.zero, mo2.one, a, mo2.neg(a)))
    with pytest.raises(InputError):
        structure.commutor(mo2, frozenset())


def test_commutor_contains_center_and_is_closed(mo2):
    cent = structure.center(mo2, check_class=False)
    n = mo2.size
    for bits in range(1, 1 << n):
        subset = frozenset(i for i in range(n) if bits >> i & 1)
        com = structure.commutor(mo2, subset, check_class=False)
        assert cent <= com
        assert mo2.zero in com and mo2.one in com
        for x, y in itertools.product(com, repeat=2):
            assert mo2.imp(x, y) in com


def test_commutor_of_everything_is_the_center():
    for name in IOML_FIXTURES:
        alg = load_alg(name)
        full = frozenset(range(alg.size))
        assert structure.commutor(alg, full, check_class=False) == structure.center(
            alg, check_class=False
        )


def test_complements_examples(b4, mo2):
    a4 = b4.index("a")
    assert structure.complements(b4, a4) == frozenset((b4.neg(a4),))
    a = mo2.index("a")
    expected = {mo2.neg(a), mo2.index("b"), mo2.index("b*")}
    assert structure.complements(mo2, a) == frozenset(expected)
    for alg in (b4, mo2):
        for x in range(alg.size):
            assert alg.neg(x) in structure.complements(alg, x)


def test_complement_witness_properties(mo2):
    for x, z in itertools.product(range(mo2.size), repeat=2):
        wit = structure.complement_witness(mo2, x, z, check_class=False)
        assert wit.value in structure.complements(mo2, x)
        assert (wit.value == mo2.neg(x)) == mo2.commutes(x, z)
    for x in range(mo2.size):
        reachable = {
            structure.complement_witness(mo2, x, z, check_class=False).value
            for z in range(mo2.size)
        }
        assert reachable == structure.complements(mo2, x)


def test_complement_witness_warns_off_class(o6):
    with pytest.warns(ClassWarning):
        structure.complement_witness(o6, o6.index("x"), o6.index("y"))


def test_generated_subalgebras(o6, mo2):
    x = o6.index("x")
    got = structure.generate_subalgebra(o6, {x})
    assert got == frozenset((o6.zero, x, o6.neg(x), o6.one))
    assert structure.generate_subalgebra(o6, set()) == frozenset((o6.zero, o6.one))
    a, b = mo2.index("a"), mo2.index("b")
    assert structure.generate_subalgebra(mo2, {a, b}) == frozenset(range(6))


def test_restrict_requires_closure(o6):
    with pytest.raises(InputError):
        structure.restrict(o6, {o6.zero, o6.index("x")})  # misses one
    sub = structure.restrict(o6, {o6.zero, o6.index("x"), o6.index("x*"), o6.one})
    assert sub.size == 4


# -- isomorphism and canonical forms -----------------------------------------


def test_identity_isomorphism(o6):
    iso = structure.is_isomorphic(o6, o6)
    assert iso is not None


def test_renamed_tables_are_isomorphic(o6):
    renamed = FiniteAlgebra(
        names=("bot", "p", "q", "pc", "qc", "top"),
        table=o6.table, one=o6.one, zero=o6.zero,
    )
    assert structure.is_isomorphic(o6, renamed) is not None
    assert structure.canonical_key(o6) == structure.canonical_key(renamed)


def test_permuted_carrier_is_isomorphic(mo2):
    perm = (0, 3, 4, 1, 2, 5)  # swap the two complemented pairs
    inv = [perm.index(i) for i in range(6)]
    table = tuple(
        tuple(perm[mo2.table[inv[a]][inv[b]]] for b in range(6)) for a in range(6)
    )
    other = FiniteAlgebra(names=mo2.names, table=table, one=5, zero=0)
    iso = structure.is_isomorphic(mo2, other)
    assert iso is not None
    assert structure.canonical_key(mo2) == structure.canonical_key(other)


def test_non_isomorphic_pairs(o6, mo2, b4):
    assert structure.is_isomorphic(o6, mo2) is None
    assert structure.canonical_key(b4) != structure.canonical_key(LUKA4)
    assert structure.is_isomorphic(b4, LUKA4) is None


@pytest.mark.parametrize("name", ("o6", "mo2"))
def test_every_relabeling_is_isomorphic(name):
    # zero and one move too, so the labeling must not assume where they sit;
    # the mapping must be a bijection preserving ->, 0 and 1
    alg = load_alg(name)
    n = alg.size
    for perm in itertools.permutations(range(n)):
        other = relabeled(alg, perm)
        iso = structure.is_isomorphic(alg, other)
        assert sorted(iso) == sorted(iso.values()) == list(range(n)), perm
        assert (iso[alg.zero], iso[alg.one]) == (other.zero, other.one), perm
        for x, y in itertools.product(range(n), repeat=2):
            assert iso[alg.table[x][y]] == other.table[iso[x]][iso[y]], perm


def test_canonical_form_idempotent(o6, mo2, b8):
    for alg in (o6, mo2, b8):
        form = structure.canonical_form(alg)
        assert structure.canonical_form(form).table == form.table
        assert structure.is_isomorphic(alg, form) is not None


def test_iso_agrees_with_canonical_on_fixture_pairs():
    algs = [load_alg(name) for name in ("b2", "b4", "b8", "mo2", "o6", "l3")] + [LUKA4]
    for a, b in itertools.combinations(algs, 2):
        same_key = structure.canonical_key(a) == structure.canonical_key(b)
        assert (structure.is_isomorphic(a, b) is not None) == same_key


# -- forbidden subalgebra ------------------------------------------------------


def test_benzene_detected_in_itself(o6):
    found = structure.find_o6_subalgebra(o6)
    assert found is not None
    elems, mapping = found
    assert elems == tuple(range(6))
    assert sorted(mapping.values()) == list(range(6))


def test_benzene_detected_in_every_relabeled_copy(o6):
    for perm in itertools.permutations(range(6)):
        found = structure.find_o6_subalgebra(relabeled(o6, perm))
        assert found is not None, perm
        assert found[0] == tuple(range(6))


def test_no_benzene_in_orthomodular_fixtures():
    for name in IOML_FIXTURES:
        assert structure.find_o6_subalgebra(load_alg(name)) is None


def test_benzene_found_inside_a_bigger_table(o6):
    # horizontal sum: glue one extra complemented pair onto the hexagon
    from iomlat.ortho import OrthoLattice, derive_join, from_ortholattice
    from conftest import load_lat

    benz = load_lat("benzene")
    names = benz.names[:-1] + ("c", "c*") + ("1",)
    n = 8
    zero, one = 0, 7
    old = {i: i for i in range(5)}  # 0,x,y,x*,y* keep their slots
    meet = [[zero] * n for _ in range(n)]
    for a in range(n):
        meet[a][a] = a
        meet[a][zero] = zero
        meet[zero][a] = zero
        meet[a][one] = a
        meet[one][a] = a
    for a, b in itertools.product(range(5), repeat=2):
        if a and b:
            meet[a][b] = benz.meet[a][b]
    ortho = [one, benz.ortho[1], benz.ortho[2], benz.ortho[3], benz.ortho[4], 6, 5, zero]
    lat = OrthoLattice(names=names, meet=meet, join=derive_join(tuple(map(tuple, meet)), tuple(ortho)),
                       ortho=ortho, one=one, zero=zero)
    big = from_ortholattice(lat)
    found = structure.find_o6_subalgebra(big)
    assert found is not None
    elems, mapping = found
    assert set(elems) == {0, 1, 2, 3, 4, 7}
    sub = structure.restrict(big, frozenset(elems))
    assert structure.is_isomorphic(sub, o6) is not None
