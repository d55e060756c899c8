"""Command-line entry point.

Exit codes: 0 when everything requested passed, 1 when any requested check
reported FAIL, 2 on unusable input (unreadable file, unwritable output path,
malformed table or statement, unknown flag value).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import sys
from pathlib import Path

from .algebras import FiniteAlgebra, RelationKind, format_algtab, load_algtab
from .axioms import Axiom, check_axiom, classify
from .errors import InputError, IomlatError
from . import bank, modelsearch, ortho, structure, terms

GRAMMAR_HELP = """\
term syntax:   postfix ' (negation, tightest); & and | (equal precedence,
               left-associative, mixing them needs parentheses); -> (loosest,
               right-associative); atoms: identifiers, 0, 1, (term).
statements:    term = term | term REL term | A1, ..., Ak |- A
               with REL one of <=, <=q, <=l, C  ('C' is reserved).
notation map:  ->  implication      '   orthocomplement (star)
               &   meet-like        |   join-like
               <=  arrow relation   <=q meet-order   <=l l-order   C commutes
files:         'algtab 1' implication tables, 'ortlat 1' meet/join/ortho
               tables ('#' comments); statement files: one statement per line.
"""


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _witness_text(alg, witness, vars):
    if not witness:
        return ""
    return terms.format_witness(witness, alg, vars)


@contextlib.contextmanager
def _writing():
    """A failed write is unusable input too, named as a write; `main`
    reports every other `OSError` as a failed read."""
    try:
        yield
    except OSError as exc:
        raise InputError(f"cannot write {exc.filename}: {exc.strerror}") from None


def _emit(text: str, out: str | None):
    if out:
        with _writing():
            Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


# -- subcommands ---------------------------------------------------------------


def _cmd_check(args) -> int:
    alg = load_algtab(args.file)
    wanted = []
    for token in args.axioms.split(","):
        token = token.strip().lower()
        if not token:
            continue
        try:
            wanted.append(Axiom(token))
        except ValueError:
            raise InputError(f"unknown axiom id {token!r}") from None
    if not wanted:
        raise InputError("empty axiom list")
    failures = 0
    for axiom in wanted:
        result = check_axiom(alg, axiom)
        if result.passed:
            print(f"{axiom.name} PASS")
        else:
            failures += 1
            wit = _witness_text(alg, result.witness, result.witness_vars)
            print(f"{axiom.name} FAIL {wit}".rstrip())
    return 1 if failures else 0


def _cmd_classify(args) -> int:
    alg = load_algtab(args.file)
    report = classify(alg)
    for axiom in Axiom:
        result = report.results[axiom]
        if result.passed:
            print(f"{axiom.name} PASS")
        else:
            wit = _witness_text(alg, result.witness, result.witness_vars)
            print(f"{axiom.name} FAIL {wit}".rstrip())
    labels = report.labels()
    print("labels: " + (" ".join(labels) if labels else "(none)"))
    print(f"degenerate: {'yes' if report.degenerate else 'no'}")
    return 0


def _cmd_eval(args) -> int:
    alg = load_algtab(args.file)
    sources = []
    if args.statement:
        sources.append(args.statement)
    if args.statements_file:
        text = Path(args.statements_file).read_text(encoding="utf-8")
        sources.extend(line for _, line in terms.iter_statement_lines(text))
    if not sources:
        raise InputError("nothing to evaluate: pass --statement or --file")
    failures = 0
    for src in sources:
        stmt = terms.parse_statement(src)
        result = terms.holds(stmt, alg)
        if result.ok:
            print(f"{src} HOLDS")
        else:
            failures += 1
            print(f"{src} FAILS {terms.format_witness(result.witness, alg, stmt.vars)}")
    return 1 if failures else 0


def _cmd_enumerate(args) -> int:
    task = modelsearch.EnumerationTask(
        size=args.size,
        klass=args.klass,
        modulo_iso=args.modulo_iso,
        max_size=args.max_size,
    )
    count = 0
    emit_dir = Path(args.emit) if args.emit else None
    if emit_dir is not None:
        with _writing():
            emit_dir.mkdir(parents=True, exist_ok=True)
    for alg in modelsearch.enumerate_models(task):
        if emit_dir is not None:
            name = f"{args.klass}_{args.size}_{count}.alg"
            with _writing():
                (emit_dir / name).write_text(format_algtab(alg), encoding="utf-8")
        count += 1
    print(f"count={count}")
    return 0


def _cmd_center(args) -> int:
    alg = load_algtab(args.file)
    members = structure.center(alg)
    print(" ".join(alg.names[i] for i in sorted(members)))
    return 0


def _cmd_commutor(args) -> int:
    alg = load_algtab(args.file)
    names = [s for s in args.subset.split(",") if s.strip()]
    if not names:
        raise InputError("empty subset")
    subset = frozenset(alg.index(name.strip()) for name in names)
    members = structure.commutor(alg, subset)
    print(" ".join(alg.names[i] for i in sorted(members)))
    return 0


def _cmd_complements(args) -> int:
    alg = load_algtab(args.file)
    x = alg.index(args.element)
    members = structure.complements(alg, x)
    print(" ".join(alg.names[i] for i in sorted(members)))
    return 0


def _cmd_convert(args) -> int:
    if args.to == "alg":
        lat = ortho.load_ortlat(args.file)
        _emit(format_algtab(ortho.from_ortholattice(lat)), args.out)
    else:
        alg = load_algtab(args.file)
        _emit(ortho.format_ortlat(ortho.to_ortholattice(alg)), args.out)
    return 0


def _cmd_report(args) -> int:
    if args.enumerate:
        result = bank.run_bank_enumerated(args.klass, args.max_size)
        if args.verbose:
            for (n, index, alg), rep in zip(result.models, result.per_model):
                print(f"# model n={n} index={index} elems {' '.join(alg.names)}")
                for line in rep.lines():
                    print(line)
            print("# aggregated")
        for line in result.lines():
            print(line)
        return 1 if result.failed else 0
    if not args.file:
        raise InputError("report wants a table file or --enumerate")
    alg = load_algtab(args.file)
    result = bank.run_bank(alg)
    for line in result.lines():
        print(line)
    return 1 if result.failed else 0


# -- rendering -----------------------------------------------------------------


def hasse_edges(alg: FiniteAlgebra) -> list[tuple[int, int]]:
    """Covering pairs of the l-order (the lattice order on the lattice class)."""
    rel = alg.relation_matrix(RelationKind.LE_L).bits
    n = alg.size

    def strict(a, b):
        return a != b and rel[a][b]

    out = []
    for a in range(n):
        for b in range(n):
            if strict(a, b) and not any(strict(a, c) and strict(c, b) for c in range(n)):
                out.append((a, b))
    return sorted(out)


def commuting_pairs(alg: FiniteAlgebra) -> list[tuple[int, int]]:
    n = alg.size
    return [(a, b) for a in range(n) for b in range(n) if a != b and alg.commutes(a, b)]


def render_text(alg: FiniteAlgebra) -> str:
    lines = ["nodes " + " ".join(alg.names), "hasse"]
    lines += [f"{alg.names[a]} {alg.names[b]}" for a, b in hasse_edges(alg)]
    lines.append("commutes")
    lines += [f"{alg.names[a]} {alg.names[b]}" for a, b in commuting_pairs(alg)]
    return "\n".join(lines) + "\n"


def render_dot(alg: FiniteAlgebra) -> str:
    pairs = set(commuting_pairs(alg))
    lines = ["graph algebra {", "  node [shape=plaintext];"]
    for name in alg.names:
        lines.append(f'  "{name}";')
    for a, b in hasse_edges(alg):
        lines.append(f'  "{alg.names[a]}" -- "{alg.names[b]}";')
    for a, b in sorted(pairs):
        if a < b and (b, a) in pairs:
            lines.append(f'  "{alg.names[a]}" -- "{alg.names[b]}" [style=dashed];')
        elif (b, a) not in pairs:
            lines.append(f'  // one-way commutation: {alg.names[a]} with {alg.names[b]}')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _cmd_render(args) -> int:
    alg = load_algtab(args.file)
    text = render_dot(alg) if args.format == "dot" else render_text(alg)
    _emit(text, args.out)
    return 0


# -- argument parsing ------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="iomlat",
        description="Finite implication algebras and orthomodular lattices: "
                    "check, classify, transform, enumerate.",
        epilog=GRAMMAR_HELP,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="check selected axioms on a table")
    p.add_argument("file")
    p.add_argument("--axioms", required=True, help="comma-separated axiom ids, e.g. be1,impl,iom")
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("classify", help="full axiom scan and class labels")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_classify)

    p = sub.add_parser("eval", help="evaluate statements on a table")
    p.add_argument("file")
    p.add_argument("--statement", help="one statement in the term syntax")
    p.add_argument("--file", dest="statements_file", help="statement file, one per line")
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("enumerate", help="enumerate all models of a class at a size")
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--class", dest="klass", required=True, choices=modelsearch.CLASSES)
    p.add_argument("--modulo-iso", action="store_true")
    p.add_argument("--emit", help="directory for emitted algtab files")
    p.add_argument("--max-size", type=int, default=modelsearch.DEFAULT_MAX_SIZE,
                   help="hard size cap (default 8); raise explicitly for bigger runs")
    p.set_defaults(fn=_cmd_enumerate)

    p = sub.add_parser("center", help="elements commuting with everything")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_center)

    p = sub.add_parser("commutor", help="elements commuting with a subset")
    p.add_argument("file")
    p.add_argument("--subset", required=True, help="comma-separated element names")
    p.set_defaults(fn=_cmd_commutor)

    p = sub.add_parser("complements", help="all complements of an element")
    p.add_argument("file")
    p.add_argument("--element", required=True)
    p.set_defaults(fn=_cmd_complements)

    p = sub.add_parser("convert", help="convert between table presentations")
    p.add_argument("file")
    p.add_argument("--to", required=True, choices=("alg", "oml"))
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_convert)

    p = sub.add_parser("report", help="run the full law catalog")
    p.add_argument("file", nargs="?")
    p.add_argument("--enumerate", action="store_true",
                   help="quantify over all enumerated models of --class")
    p.add_argument("--class", dest="klass", choices=modelsearch.CLASSES, default="ioml")
    p.add_argument("--max-size", type=int, default=6)
    p.add_argument("-v", "--verbose", action="store_true",
                   help="also print the per-model sections under --enumerate")
    p.set_defaults(fn=_cmd_report)

    p = sub.add_parser("render", help="emit a text graph: order covers plus commutation")
    p.add_argument("file")
    p.add_argument("--format", choices=("text", "dot"), default="text")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_render)

    return parser


@functools.lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    # one parser per process: parse_args leaves it unchanged, and each parser
    # is a cyclic object graph that only a full garbage collection frees, so
    # building one per call piles them up under repeated in-process calls
    return build_parser()


def main(argv=None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help; pass both through
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except OSError as exc:
        if exc.filename is None:
            return _fail(str(exc))
        return _fail(f"cannot read {exc.filename}: {exc.strerror}")
    except InputError as exc:
        return _fail(str(exc))
    except IomlatError as exc:
        return _fail(str(exc))


if __name__ == "__main__":
    sys.exit(main())
