from iomlat import bank, terms
from iomlat.axioms import classify
from iomlat.bank import Status


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
