import hashlib
import itertools

import pytest

from iomlat import bank, catalog, structure, terms
from iomlat.algebras import RelationKind
from iomlat.axioms import Axiom, classify, distributive_triple
from iomlat.bank import Status
from iomlat.modelsearch import EnumerationTask, enumerate_models
from iomlat.ortho import from_ortholattice

from conftest import ALG_FIXTURES, LAT_FIXTURES, load_alg, load_lat


# the complete id set the catalog must cover, one id per indexed statement
EXPECTED_IDS = (
    [f"L2.1.{i}" for i in range(1, 10)]
    + ["L2.2"]
    + [f"P2.3.{i}" for i in range(1, 7)]
    + [f"L2.4.{i}" for i in range(1, 5)]
    + ["L3.2", "L3.3", "L3.4.1", "L3.4.2", "L3.5"]
    + [f"P3.7.{i}" for i in range(1, 5)]
    + [f"P3.8.{i}" for i in range(1, 8)]
    + [f"L3.9.{i}" for i in range(1, 6)]
    + ["T3.10", "C3.11", "P3.12.1", "P3.12.2", "T3.13", "C3.14"]
    + ["L4.2", "L4.4.1", "L4.4.2", "L4.4.3", "L4.4.4", "P4.5", "C4.6", "T4.7",
       "L4.8", "P4.9", "P4.10", "C4.11", "D4.13", "T4.16", "C4.17", "P4.18", "T4.19"]
    + ["P5.1", "R5.3", "T5.4", "C5.5", "T5.6.1", "T5.6.2", "T5.6.3", "C5.7",
       "P5.9.1", "P5.9.2", "P5.9.3"]
    + ["T6.1", "R6.2", "P6.3", "E6.4", "R6.5", "P6.6",
       "P6.7.1", "P6.7.2", "P6.7.3", "P6.7.4"]
)


def test_catalog_covers_exactly_the_expected_ids():
    assert list(bank.ENTRY_IDS) == EXPECTED_IDS
    assert len(set(bank.ENTRY_IDS)) == len(bank.ENTRY_IDS)


def _by_id(report, entry_id):
    return next(r for r in report.results if r.entry_id == entry_id)


def test_lantern_run_has_no_failures(mo2):
    report = bank.run_bank(mo2)
    assert not report.failed
    counts = report.counts()
    assert counts["fail"] == 0
    assert counts["flag"] == 1
    assert _by_id(report, "P5.9.3").status is Status.FLAG
    # skips: the class-level entry and the benzene-gated entry
    skipped = {r.entry_id for r in report.results if r.status is Status.SKIP}
    assert skipped == {"L2.4.1", "E6.4"}


def test_boolean_runs_are_clean(b2, b4, b8):
    for alg in (b2, b4, b8):
        report = bank.run_bank(alg)
        assert not report.failed
        assert report.counts()["flag"] == 0


def test_hexagon_run(o6):
    report = bank.run_bank(o6)
    assert not report.failed
    assert _by_id(report, "L4.4.1").status is Status.PASS
    assert _by_id(report, "E6.4").status is Status.PASS
    # the order-collapse equivalence passes with all sides false; the detail
    # shows the first pair ordered by l-order but not by meet-order
    t313 = _by_id(report, "T3.13")
    assert t313.status is Status.PASS
    assert "lel-to-leq=no[x=x y=y]" in t313.detail
    t47 = _by_id(report, "T4.7")
    assert t47.status is Status.PASS and "C-symmetric=no" in t47.detail
    # lattice-tier entries are skipped, not failed
    assert _by_id(report, "T4.16").status is Status.SKIP
    assert _by_id(report, "R6.5").status is Status.SKIP


def test_midpoint_chain_documents_the_reflexivity_gap(l3):
    # the l-order is not reflexive at the self-complemented midpoint, so the
    # order-relation entry honestly fails on this involutive table
    report = bank.run_bank(l3)
    res = _by_id(report, "L2.4.3")
    assert res.status is Status.FAIL
    assert "x=h" in res.detail


def test_reports_are_byte_identical_across_runs(mo2):
    first = bank.run_bank(mo2).lines()
    second = bank.run_bank(mo2).lines()
    assert first == second


def test_enumerated_run_over_the_implicative_class():
    report = bank.run_bank_enumerated("implinvbe", 6)
    assert not report.failed
    assert len(report.models) == 4  # sizes 2, 4 and two at 6
    agg = {r.entry_id: r for r in report.aggregated}
    assert agg["L2.4.1"].status is Status.PASS
    assert "witness at n=" in agg["L2.4.1"].detail
    assert agg["E6.4"].status is Status.PASS
    assert agg["P5.9.3"].status is Status.FLAG
    none_skipped = [r.entry_id for r in report.aggregated if r.status is Status.SKIP]
    assert none_skipped == []


def test_p418_literal_form_fails_off_the_lattice_class():
    # the reason P4.18 is tiered ioml: on the implicative involutive model
    # n=8 #2, which is not orthomodular, its literal form is false
    from iomlat.modelsearch import EnumerationTask, enumerate_models

    model = list(enumerate_models(EnumerationTask(size=8, klass="implinvbe")))[2]
    report = classify(model)
    assert report.is_implicative_involutive_be and not report.is_ioml
    entry = next(e for e in bank.ENTRIES if e.entry_id == "P4.18")
    assert entry.required == "ioml"
    stmt = terms.parse_statement(entry.statements[0])
    res = terms.holds(stmt, model)
    assert terms.format_witness(res.witness, model, stmt.vars) == "z=b x=e y=f"
    assert _by_id(bank.run_bank(model, report), "P4.18").status is Status.SKIP


def test_enumerated_run_over_the_lattice_class_is_clean():
    report = bank.run_bank_enumerated("ioml", 6)
    assert not report.failed
    assert len(report.models) == 3  # sizes 2, 4, 6


def test_enumerated_run_halts_on_a_failing_model():
    # the involutive class at size 3 contains the midpoint chain, whose
    # l-order reflexivity failure must halt the run with full context
    report = bank.run_bank_enumerated("invbe", 3)
    assert report.failed
    assert "halted on failing model" in report.halted_context
    assert "algtab 1" in report.halted_context


def test_statement_lines_parse_and_round_trip():
    lines = bank.statement_lines()
    assert len(lines) > 80
    text = "\n".join(lines)
    parsed = 0
    for _, src in terms.iter_statement_lines(text):
        stmt = terms.parse_statement(src)
        assert terms.parse_statement(terms.format_statement(stmt)) == stmt
        parsed += 1
    assert parsed == len(lines)


def test_index_text_lists_every_entry():
    text = bank.index_text()
    for entry_id in bank.ENTRY_IDS:
        assert f"## {entry_id} " in text


def test_index_document_is_in_sync():
    from conftest import fixture_path

    doc = fixture_path("..") / "docs" / "bank_index.md"
    assert doc.read_text(encoding="utf-8") == bank.index_text()


def test_statement_file_is_in_sync():
    from conftest import fixture_path

    doc = fixture_path("..") / "docs" / "bank_statements.txt"
    body = [line for line in doc.read_text(encoding="utf-8").splitlines()
            if line and not line.startswith("#")]
    assert body == bank.statement_lines()


# -- the procedures against pointwise references -------------------------------
#
# Each reference sweeps the same triples or subsets as the catalog's
# procedure, in the same order, through the public pointwise functions; the
# procedure reads relations built once per table and must report the same
# status and detail, failures included.


def _ref_fmt(alg, **kw):
    return " ".join(f"{k}={alg.names[v]}" for k, v in kw.items())


def _ref_subsets(n):
    for bits in range(1, 1 << n):
        yield frozenset(i for i in range(n) if bits >> i & 1)


def _ref_names(alg, subset):
    return ",".join(alg.names[i] for i in sorted(subset))


def _ref_triples(alg, qualifies, names):
    for t in itertools.product(range(alg.size), repeat=3):
        if qualifies(*t) and not distributive_triple(alg, *t):
            return Status.FAIL, _ref_fmt(alg, **dict(zip(names, t)))
    return Status.PASS, ""


def _ref_commuting_triple_distributivity(alg):
    return _ref_triples(alg, lambda x, y, z: alg.commutes(z, x) and alg.commutes(z, y),
                        ("x", "y", "z"))


def _ref_comparable_triples(alg):
    leq = alg.relation_matrix(RelationKind.LE_Q).bits
    return _ref_triples(
        alg,
        lambda x1, x2, y: (leq[x1][y] or leq[y][x1]) and (leq[x2][y] or leq[y][x2]),
        ("x1", "x2", "y"))


def _ref_center_triples(alg):
    cent = structure.center(alg, check_class=False)
    return _ref_triples(alg, lambda x1, x2, y: (x1 in cent and x2 in cent) or y in cent,
                        ("x1", "x2", "y"))


def _ref_center_subalgebra(alg):
    cent = structure.center(alg, check_class=False)
    if alg.zero not in cent or alg.one not in cent:
        return Status.FAIL, "center misses a bound"
    for a in cent:
        if alg.neg(a) not in cent:
            return Status.FAIL, f"center not closed under negation at {alg.names[a]}"
        for b in cent:
            if alg.imp(a, b) not in cent:
                return Status.FAIL, f"center not closed under -> at {_ref_fmt(alg, a=a, b=b)}"
    sub_report = classify(structure.restrict(alg, cent))
    if not sub_report.is_implicative_boolean:
        return Status.FAIL, "restriction to the center is not divisible implicative"
    if not sub_report.results[Axiom.IDIS].passed:
        return Status.FAIL, "restriction to the center is not distributive"
    return Status.PASS, ""


def _ref_center_vs_complements(alg):
    cent = structure.center(alg, check_class=False)
    for x in range(alg.size):
        if (x in cent) != (structure.complements(alg, x) == frozenset((alg.neg(x),))):
            return Status.FAIL, _ref_fmt(alg, x=x)
    return Status.PASS, ""


def _ref_commutor_sublattice(alg):
    for subset in _ref_subsets(alg.size):
        com = structure.commutor(alg, subset, check_class=False)
        where = f"commutor of {{{_ref_names(alg, subset)}}}"
        if alg.zero not in com or alg.one not in com:
            return Status.FAIL, f"{where} misses a bound"
        for a in com:
            if alg.neg(a) not in com:
                return Status.FAIL, f"{where} not closed under negation at {alg.names[a]}"
            for b in com:
                if any(v not in com for v in (alg.imp(a, b), alg.cap(a, b), alg.cup(a, b))):
                    return Status.FAIL, f"{where} not closed at {_ref_fmt(alg, a=a, b=b)}"
    return Status.PASS, ""


def _ref_commutor_contains_center(alg):
    cent = structure.center(alg, check_class=False)
    for subset in _ref_subsets(alg.size):
        if not cent <= structure.commutor(alg, subset, check_class=False):
            return Status.FAIL, f"center escapes the commutor of {{{_ref_names(alg, subset)}}}"
    return Status.PASS, ""


def _ref_commutor_whole_carrier(alg):
    full = frozenset(range(alg.size))
    com = structure.commutor(alg, full, check_class=False)
    if com == full:
        return Status.PASS, ""
    missing = min(full - com)
    partner = min(b for b in range(alg.size) if not alg.commutes(missing, b))
    return Status.FLAG, (
        f"literal form fails: {_ref_fmt(alg, x=missing, y=partner)} do not commute "
        "(expected off the Boolean case; see the l3/mo2 notes in the index)"
    )


_REFERENCES = {
    "commuting_triple_distributivity": _ref_commuting_triple_distributivity,
    "comparable_triples": _ref_comparable_triples,
    "center_triples": _ref_center_triples,
    "center_subalgebra": _ref_center_subalgebra,
    "center_vs_complements": _ref_center_vs_complements,
    "commutor_sublattice": _ref_commutor_sublattice,
    "commutor_contains_center": _ref_commutor_contains_center,
    "commutor_whole_carrier": _ref_commutor_whole_carrier,
}


@pytest.fixture(scope="module")
def reference_tables():
    tables = [load_alg(name) for name in ALG_FIXTURES]
    tables += [from_ortholattice(load_lat(name)) for name in LAT_FIXTURES]
    for klass, top in (("be", 4), ("invbe", 6), ("implinvbe", 8)):
        for n in range(2, top + 1):
            tables += enumerate_models(EnumerationTask(size=n, klass=klass))
    return tables


def test_relations_match_the_pointwise_functions(reference_tables):
    for alg in reference_tables:
        n = alg.size
        rel = bank._Relations(alg)
        assert rel.nondistributive == tuple(
            t for t in itertools.product(range(n), repeat=3)
            if not distributive_triple(alg, *t))
        assert rel.center == structure.center(alg, check_class=False)
        first = {}
        for bits, subset in enumerate(_ref_subsets(n), start=1):
            com = structure.commutor(alg, subset, check_class=False)
            first.setdefault(sum(1 << x for x in com), bits)
        assert list(rel.subset_commutors.items()) == list(first.items())


def test_procedures_match_their_pointwise_references(reference_tables):
    # the procedures are called on every table, in the bank's tier or not,
    # so that their failure details are compared too
    failed = {name: 0 for name in _REFERENCES}
    for alg in reference_tables:
        report = classify(alg)
        rel = bank._Relations(alg)
        for name, reference in _REFERENCES.items():
            expected = reference(alg)
            assert bank._PROCEDURES[name](alg, report, rel) == expected, (name, alg.table)
            failed[name] += expected[0] is Status.FAIL
    for name in ("commuting_triple_distributivity", "comparable_triples",
                 "center_triples", "commutor_sublattice"):
        assert failed[name] > 0, name


def test_boolean_sixteen_run_is_unchanged():
    # SHA-256 of the newline-joined lines of the sweep over all 2^16 subsets
    report = bank.run_bank(catalog.boolean_algebra(4))
    assert report.summary() == "total=85 pass=83 fail=0 skip=2"
    digest = hashlib.sha256("\n".join(report.lines()).encode()).hexdigest()
    assert digest == "501147fad6bc2ec9ac526efcd0115b693b879e9d67d00d1b6db54f4b2abc6d2a"
