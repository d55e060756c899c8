#!/usr/bin/env python3
"""Regenerate the frozen inputs and expectations under bench/data/.

    python3 bench/freeze.py

Writes:

- data/bank_statements.txt  a copy of docs/bank_statements.txt, the
                            statement list `eval --file` runs;
- data/laws.json            the 28 isomorphism types among the implinvbe
                            models (n <= 8) and the invbe models (n <= 5) as
                            canonical tables, each with its per-axiom
                            verdicts and `eval` verdicts computed by the
                            independent oracle (tests/oracle_eval.brute_holds)
                            and its `classify` labels;
- data/expected.json        count and SHA-256 of the emitted tables of each
                            enumeration workload, and `convert --to alg`
                            digest and orthomodular verdict of each
                            fixtures/*.olt.

Verdicts about a frozen statement list are facts about the tables, so they
stay valid when the law bank's tiers change.  Rerun only when the
benchmark's inputs are meant to change; the run checks outputs against
these files.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import sys

import run

CLASS_SIZES = (("implinvbe", range(2, 9)), ("invbe", range(2, 6)))


def main() -> int:
    _, oracle_eval = run.load_program()
    from iomlat import axioms, bank, modelsearch, ortho, terms

    run.DATA.mkdir(exist_ok=True)
    stmt_file = run.DATA / "bank_statements.txt"
    shutil.copyfile(run.ROOT / "docs" / "bank_statements.txt", stmt_file)
    sources = run.statement_sources(stmt_file)
    parsed = [terms.parse_statement(src) for src in sources]
    axiom_sources = {ax.name: list(axioms.AXIOM_SOURCES[ax]) for ax in axioms.Axiom}

    tables, seen = [], set()
    for klass, sizes in CLASS_SIZES:
        for n in sizes:
            task = modelsearch.EnumerationTask(size=n, klass=klass)
            for i, alg in enumerate(modelsearch.enumerate_models(task)):
                if alg.table in seen:
                    continue
                seen.add(alg.table)
                tables.append(freeze_table(f"{klass}-{n}-{i}", alg, parsed, axiom_sources,
                                           oracle_eval, axioms, terms))
    print(f"{len(tables)} tables")

    laws = {"axioms": axiom_sources, "entry_ids": list(bank.ENTRY_IDS), "tables": tables}
    (run.DATA / "laws.json").write_text(dumps(laws), encoding="utf-8")

    expected = {"enum": {}, "olt": {}}
    run.WORK.mkdir(parents=True, exist_ok=True)
    for workload, (size, klass) in run.ENUM_ARGS.items():
        emit_dir = run.WORK / "freeze-emit"
        shutil.rmtree(emit_dir, ignore_errors=True)
        rc, out, _ = run.run_cli(["enumerate", "--size", str(size), "--class", klass,
                                  "--modulo-iso", "--emit", str(emit_dir)])
        if rc != 0:
            sys.exit(f"{workload}: enumerate exited {rc}")
        count = int(out.strip().removeprefix("count="))
        expected["enum"][workload] = {
            "count": count, "sha256": run.emitted_digest(emit_dir, klass, size, count)}
        shutil.rmtree(emit_dir)
        print(workload, expected["enum"][workload])
    for path in sorted((run.ROOT / "fixtures").glob("*.olt")):
        rc, out, _ = run.run_cli(["convert", str(path), "--to", "alg"])
        if rc != 0:
            sys.exit(f"{path.name}: convert exited {rc}")
        expected["olt"][path.name] = {
            "sha256": hashlib.sha256(out.encode()).hexdigest(),
            "om_ok": ortho.check_om_law(ortho.load_ortlat(path)).ok}
    (run.DATA / "expected.json").write_text(json.dumps(expected, indent=1) + "\n",
                                            encoding="utf-8")
    return 0


def freeze_table(name, alg, parsed, axiom_sources, oracle_eval, axioms, terms):
    report = axioms.classify(alg)
    axiom_verdicts = ""
    for ax in axioms.Axiom:
        ok = all(oracle_eval.brute_holds(terms.parse_statement(src), alg)
                 for src in axiom_sources[ax.name])
        if ok != report.results[ax].passed:
            sys.exit(f"{name}: classify and the oracle disagree on {ax.name}")
        axiom_verdicts += "P" if ok else "F"
    verdicts = ""
    for stmt in parsed:
        ok = oracle_eval.brute_holds(stmt, alg)
        if ok != terms.holds(stmt, alg).ok:
            print(f"warning: {name}: terms.holds disagrees with the oracle on "
                  f"{terms.format_statement(stmt)}", file=sys.stderr)
        verdicts += "H" if ok else "F"
    return {"name": name, "n": alg.size, "names": list(alg.names), "one": alg.one,
            "zero": alg.zero, "table": [list(r) for r in alg.table],
            "labels": list(report.labels()), "axioms": axiom_verdicts, "verdicts": verdicts}


def dumps(laws) -> str:
    """JSON with one table per line, so diffs of the frozen data stay legible."""
    head = {k: v for k, v in laws.items() if k != "tables"}
    body = ",\n".join("  " + json.dumps(t) for t in laws["tables"])
    return json.dumps(head, indent=1)[:-2] + ',\n "tables": [\n' + body + "\n ]\n}\n"


if __name__ == "__main__":
    sys.exit(main())
