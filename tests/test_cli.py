import pytest

from iomlat.cli import main
from iomlat.terms import MAX_DEPTH

from conftest import fixture_path

O6 = str(fixture_path("o6.alg"))
B2 = str(fixture_path("b2.alg"))
MO2 = str(fixture_path("mo2.alg"))
BENZENE = str(fixture_path("benzene.olt"))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_passes_on_the_hexagon_suite(capsys):
    code, out, _ = run(capsys, "check", O6,
                       "--axioms", "be1,be2,be3,be4,involutive,impl")
    assert code == 0
    assert "BE1 PASS" in out and "IMPL PASS" in out


def test_check_fails_on_orthomodularity(capsys):
    code, out, _ = run(capsys, "check", O6, "--axioms", "iom")
    assert code == 1
    assert out.splitlines()[0] == "IOM FAIL x=x y=y*"


def test_check_unknown_axiom_is_a_usage_error(capsys):
    code, _, err = run(capsys, "check", O6, "--axioms", "nope")
    assert code == 2
    assert "unknown axiom" in err


def test_missing_file_is_a_usage_error(capsys):
    code, _, err = run(capsys, "check", "no-such-file.alg", "--axioms", "be1")
    assert code == 2
    assert "cannot read" in err


def test_classify_prints_labels(capsys):
    code, out, _ = run(capsys, "classify", O6)
    assert code == 0
    assert "labels: BE BOUNDED_BE INVOLUTIVE_BE IMPLICATIVE_INVOLUTIVE_BE" in out
    assert "degenerate: no" in out


def test_eval_statement(capsys):
    code, out, _ = run(capsys, "eval", O6, "--statement", "x -> (y -> x) = 1")
    assert code == 0 and "HOLDS" in out
    code, out, _ = run(capsys, "eval", O6, "--statement", "x -> (x -> y)' = x -> y'")
    assert code == 1 and "FAILS" in out


def test_eval_statement_file(tmp_path, capsys):
    stmts = tmp_path / "laws.txt"
    stmts.write_text("# two laws\nx -> x = 1\nx C y |- y C x\n", encoding="utf-8")
    code, out, _ = run(capsys, "eval", O6, "--file", str(stmts))
    assert code == 1
    lines = out.splitlines()
    assert lines[0].endswith("HOLDS")
    assert "FAILS" in lines[1]


def test_eval_parse_error_exit(capsys):
    code, _, err = run(capsys, "eval", O6, "--statement", "x & y | z")
    assert code == 2
    assert "parentheses" in err


# statements that hold on b2 at the nesting bound, one per shape of nesting
_DEEP = {
    "parentheses": lambda d: "(" * d + "x" + ")" * d + " = x",
    "arrows": lambda d: "x" + " -> x" * d + " = 1",
    "primes": lambda d: "x" + "'" * d + " = x" + "'" * (d % 2),
}


@pytest.mark.parametrize("shape", sorted(_DEEP))
def test_eval_nesting_bound_exit(shape, tmp_path, capsys):
    stmts = tmp_path / "deep.txt"
    stmts.write_text(_DEEP[shape](MAX_DEPTH) + "\n", encoding="utf-8")
    code, out, _ = run(capsys, "eval", B2, "--file", str(stmts))
    assert code == 0 and out.rstrip().endswith(" HOLDS")
    for depth in (MAX_DEPTH + 1, 300, 1000):
        stmts.write_text(_DEEP[shape](depth) + "\n", encoding="utf-8")
        code, out, err = run(capsys, "eval", B2, "--file", str(stmts))
        assert code == 2 and out == ""
        assert f"nested deeper than {MAX_DEPTH} levels (byte " in err


def test_enumerate_counts(capsys):
    code, out, _ = run(capsys, "enumerate", "--size", "6", "--class", "ioml",
                       "--modulo-iso")
    assert code == 0
    assert out.strip() == "count=1"


def test_enumerate_respects_the_size_cap(capsys):
    code, _, err = run(capsys, "enumerate", "--size", "9", "--class", "ioml")
    assert code == 2
    assert "outside" in err


def test_enumerate_has_no_cell_order_option(capsys):
    code, _, err = run(capsys, "enumerate", "--size", "4", "--class", "ioml",
                       "--cell-order", "column-major")
    assert code == 2 and "--cell-order" in err


def test_classify_has_no_fast_idis_option(capsys):
    code, _, err = run(capsys, "classify", O6, "--fast-idis")
    assert code == 2 and "--fast-idis" in err


def test_enumerate_emits_files(tmp_path, capsys):
    out_dir = tmp_path / "models"
    code, out, _ = run(capsys, "enumerate", "--size", "4", "--class", "invbe",
                       "--modulo-iso", "--emit", str(out_dir))
    assert code == 0
    files = sorted(p.name for p in out_dir.iterdir())
    assert files == [f"invbe_4_{i}.alg" for i in range(5)]
    assert out.strip() == "count=5"


def test_center_commutor_complements(capsys):
    code, out, _ = run(capsys, "center", MO2)
    assert code == 0 and out.strip() == "0 1"
    code, out, _ = run(capsys, "commutor", MO2, "--subset", "a")
    assert code == 0 and out.strip() == "0 a a* 1"
    code, out, _ = run(capsys, "complements", MO2, "--element", "a")
    assert code == 0 and out.strip() == "a* b b*"


def test_commutor_rejects_empty_subset(capsys):
    code, _, err = run(capsys, "commutor", MO2, "--subset", ",")
    assert code == 2 and "empty" in err


def test_convert_round_trip(tmp_path, capsys):
    alg_path = tmp_path / "benzene.alg"
    code, _, _ = run(capsys, "convert", BENZENE, "--to", "alg", "--out", str(alg_path))
    assert code == 0
    from iomlat.algebras import load_algtab

    converted = load_algtab(alg_path)
    from iomlat.catalog import o6 as catalog_o6

    assert converted.table == catalog_o6().table

    oml_path = tmp_path / "o6.olt"
    code, _, _ = run(capsys, "convert", O6, "--to", "oml", "--out", str(oml_path))
    assert code == 0
    back_path = tmp_path / "back.alg"
    code, _, _ = run(capsys, "convert", str(oml_path), "--to", "alg",
                     "--out", str(back_path))
    assert code == 0
    assert load_algtab(back_path).table == catalog_o6().table


def test_render_hexagon_edges(capsys):
    code, out, _ = run(capsys, "render", O6)
    assert code == 0
    lines = out.splitlines()
    hasse = lines[lines.index("hasse") + 1 : lines.index("commutes")]
    assert sorted(hasse) == sorted(["0 x", "0 y*", "x y", "y 1", "x* 1", "y* x*"])


def test_render_two_point_chain(capsys):
    code, out, _ = run(capsys, "render", B2)
    lines = out.splitlines()
    hasse = lines[lines.index("hasse") + 1 : lines.index("commutes")]
    assert hasse == ["0 1"]


def test_render_lantern_atoms(capsys):
    code, out, _ = run(capsys, "render", MO2)
    lines = out.splitlines()
    hasse = lines[lines.index("hasse") + 1 : lines.index("commutes")]
    assert len(hasse) == 8
    assert sum(1 for e in hasse if e.startswith("0 ")) == 4
    assert sum(1 for e in hasse if e.endswith(" 1")) == 4


def test_render_dot_format(capsys):
    code, out, _ = run(capsys, "render", O6, "--format", "dot")
    assert code == 0
    assert out.startswith("graph algebra {")
    assert '"0" -- "x";' in out


def test_report_on_a_fixture(capsys):
    code, out, _ = run(capsys, "report", MO2)
    assert code == 0
    assert "P5.9.3 FLAG" in out
    assert "total=85" in out.splitlines()[-1]


def test_report_enumerated(capsys):
    code, out, _ = run(capsys, "report", "--enumerate", "--class", "implinvbe",
                       "--max-size", "4")
    assert code == 0
    last = out.splitlines()[-1]
    assert last.startswith("models=2 ")


def test_report_enumerated_implicative_class_at_size_eight(capsys):
    # P4.18 is tiered ioml; at the implicative tier it would FAIL on n=8 #2
    code, out, _ = run(capsys, "report", "--enumerate", "--class", "implinvbe",
                       "--max-size", "8")
    assert code == 0
    lines = out.splitlines()
    assert "P4.18 PASS" in lines
    assert lines[-1] == "models=9 total=85 pass=84 fail=0 skip=0 flag=1"


def test_report_enumerated_lattice_class(capsys):
    code, out, _ = run(capsys, "report", "--enumerate", "--class", "ioml",
                       "--max-size", "6")
    assert code == 0
    lines = out.splitlines()
    assert any(line.startswith("L2.4.1 PASS witness at n=") for line in lines)
    assert lines[-1].startswith("models=3 total=85")


def test_report_needs_a_source(capsys):
    code, _, err = run(capsys, "report")
    assert code == 2 and "wants a table file" in err


def test_malformed_table_is_a_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.alg"
    bad.write_text("algtab 1\nn 2\nelems 0 1\none 1\nzero 0\n1 1\n", encoding="utf-8")
    code, _, err = run(capsys, "check", str(bad), "--axioms", "be1")
    assert code == 2 and "rows" in err


def test_classify_flags_the_degenerate_table(tmp_path, capsys):
    single = tmp_path / "one.alg"
    single.write_text("algtab 1\nn 1\nelems e\none e\nzero e\ne\n", encoding="utf-8")
    code, out, _ = run(capsys, "classify", str(single))
    assert code == 0
    assert "degenerate: yes" in out


def test_help_documents_the_grammar(capsys):
    code, out, _ = run(capsys, "--help")
    assert code == 0
    assert "term syntax" in out and "algtab 1" in out
