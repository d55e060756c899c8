import pytest

from iomlat import catalog, ortho
from iomlat.axioms import classify
from iomlat.errors import FormatError, InputError

from conftest import IOML_FIXTURES, LAT_FIXTURES, load_alg, load_lat


def test_benzene_converts_to_the_embedded_hexagon_table(benzene, o6):
    img = ortho.from_ortholattice(benzene)
    assert img.table == o6.table
    assert img.names == o6.names
    assert img.one == o6.one and img.zero == o6.zero


def test_b2_lattice_round_trip(b2):
    lat = catalog.boolean_lattice(1)
    assert ortho.from_ortholattice(lat).table == b2.table


@pytest.mark.parametrize("name", ("b2", "b4", "b8", "mo2", "o6"))
def test_algebra_round_trip(name):
    alg = load_alg(name)
    back = ortho.from_ortholattice(ortho.to_ortholattice(alg))
    assert back.table == alg.table
    assert back.one == alg.one and back.zero == alg.zero


@pytest.mark.parametrize("name", LAT_FIXTURES)
def test_lattice_round_trip(name):
    lat = load_lat(name)
    back = ortho.to_ortholattice(ortho.from_ortholattice(lat))
    assert back.meet == lat.meet
    assert back.join == lat.join
    assert back.ortho == lat.ortho


def test_om_law_verdicts(benzene):
    assert not ortho.check_om_law(benzene).om_ok
    assert ortho.check_om_law(load_lat("mo2")).om_ok
    assert ortho.check_om_law(load_lat("b8")).om_ok


def test_om_verdict_matches_orthomodular_classification(benzene):
    for name in LAT_FIXTURES:
        lat = load_lat(name)
        alg = ortho.from_ortholattice(lat)
        assert ortho.check_om_law(lat).om_ok == classify(alg).is_ioml


def test_conversion_of_o6_fails_om(o6):
    report = ortho.check_om_law(ortho.to_ortholattice(o6))
    assert not report.om_ok
    assert report.om_witness is not None


def test_meet_matches_cap_on_commuting_pairs():
    for name in IOML_FIXTURES:
        alg = load_alg(name)
        lat = ortho.to_ortholattice(alg)
        for a in range(alg.size):
            for b in range(alg.size):
                if alg.commutes(a, b):
                    assert lat.meet[a][b] == alg.cap(a, b)


def test_to_ortholattice_refuses_weaker_classes(l3):
    with pytest.raises(InputError) as err:
        ortho.to_ortholattice(l3)
    assert str(err.value) == "conversion wants an implicative involutive table; failing: IMPL"


def test_lattice_validation_names_the_broken_law():
    lat = catalog.mo2_lattice()
    rows = [list(r) for r in lat.meet]
    rows[1][3] = 1  # a meet b = a breaks commutativity
    with pytest.raises(InputError) as err:
        ortho.OrthoLattice(names=lat.names, meet=rows, join=lat.join,
                           ortho=lat.ortho, one=lat.one, zero=lat.zero)
    assert "commutativity" in str(err.value)

    bad_ortho = list(lat.ortho)
    bad_ortho[1] = 1  # a' = a kills complementation
    with pytest.raises(InputError) as err:
        ortho.OrthoLattice(names=lat.names, meet=lat.meet, join=lat.join,
                           ortho=bad_ortho, one=lat.one, zero=lat.zero)
    assert "fails at" in str(err.value)


# -- the text format -----------------------------------------------------------

MINIMAL = """\
ortlat 1
n 2
elems 0 1
one 1
zero 0
meet
0 0
0 1
ortho
1 0
"""


def test_parse_ortlat_derives_join():
    lat = ortho.parse_ortlat(MINIMAL)
    assert lat.join == ((0, 1), (1, 1))


def test_parse_ortlat_with_join_section():
    text = MINIMAL.replace("ortho\n", "join\n0 1\n1 1\northo\n")
    lat = ortho.parse_ortlat(text)
    assert lat.join == ((0, 1), (1, 1))


@pytest.mark.parametrize(
    "mutation,needle",
    [
        (lambda s: s.replace("ortlat 1", "algtab 1"), "header"),
        (lambda s: s.replace("meet\n", "meat\n"), "meet"),
        (lambda s: s.replace("ortho\n1 0\n", ""), "ortho"),
        (lambda s: s + "0 1\n", "trailing"),
        (lambda s: s.replace("0 1\northo", "0 q\northo"), "unknown"),
    ],
)
def test_parse_ortlat_rejections(mutation, needle):
    with pytest.raises(FormatError) as err:
        ortho.parse_ortlat(mutation(MINIMAL))
    assert needle in str(err.value)


def test_format_ortlat_round_trip(benzene):
    again = ortho.parse_ortlat(ortho.format_ortlat(benzene))
    assert again == benzene


def test_om_forms_never_disagree(benzene):
    # exercised across fixtures; a disagreement raises instead of returning
    for name in LAT_FIXTURES:
        report = ortho.check_om_law(load_lat(name))
        assert report.om_ok == report.om_prime_ok
