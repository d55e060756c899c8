"""Term language over the signature: parsing, printing, evaluation, checking.

Surface syntax (ASCII):

    postfix '   negation/orthocomplement (tightest)
    &  |        meet-like / join-like, equal precedence, left-associative;
                mixing the two without parentheses is a syntax error
    ->          implication, right-associative (loosest)
    atoms       identifiers, the constants 0 and 1, parenthesized terms

Statements:

    term                        a bare term
    term = term                 an equation
    term REL term               an unconditional relation claim, REL one of
                                <=   <=q   <=l   C
    A1, ..., Ak |- A            a quasi-identity: if every hypothesis atom
                                holds, the conclusion atom holds; atoms are
                                equations or relation claims

`C` is reserved for the commutation relation and cannot be used as a
variable name.  Statement files carry one statement per line, with '#'
starting a comment.  Terms nest at most `MAX_DEPTH` levels; deeper input is
a `ParseError` with the byte offset where the bound was crossed.

Evaluation has one path.  `_Builder` turns a term, atom or statement into
nested closures over the algebra's raw implication table, its constants and
its negation column (`a -> 0` for each `a`), read once per build.  A built
closure takes an environment tuple, one element index per variable in a
fixed order, and does nothing but tuple lookups and calls to its children:
no type dispatch, no per-operation range check and no dict per assignment.
`holds` builds its statement once and lets `itertools.product` sweep every
assignment in lexicographic order, making the witness dict only on failure.
`evaluate` and `atom_holds` build the same closures for a single
caller-supplied assignment, which they range-check once up front, since a
negative index into a tuple would silently wrap.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Iterator, Union

from .algebras import FiniteAlgebra, RelationKind
from .errors import InputError, ParseError


# -- abstract syntax --------------------------------------------------------


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Const:
    value: int  # 0 or 1


@dataclass(frozen=True)
class Neg:
    arg: "Term"


@dataclass(frozen=True)
class Imp:
    lhs: "Term"
    rhs: "Term"


@dataclass(frozen=True)
class Cap:
    lhs: "Term"
    rhs: "Term"


@dataclass(frozen=True)
class Cup:
    lhs: "Term"
    rhs: "Term"


Term = Union[Var, Const, Neg, Imp, Cap, Cup]


@dataclass(frozen=True)
class Equation:
    lhs: Term
    rhs: Term
    vars: tuple[str, ...] = field(default=())

    def __post_init__(self):
        if not self.vars:
            object.__setattr__(self, "vars", _var_order([self.lhs, self.rhs]))


@dataclass(frozen=True)
class Relation:
    kind: RelationKind
    lhs: Term
    rhs: Term


Atom = Union[Equation, Relation]


@dataclass(frozen=True)
class QuasiIdentity:
    hypotheses: tuple[Atom, ...]
    conclusion: Atom
    vars: tuple[str, ...] = field(default=())

    def __post_init__(self):
        if not self.vars:
            terms = []
            for atom in (*self.hypotheses, self.conclusion):
                terms.extend((atom.lhs, atom.rhs))
            object.__setattr__(self, "vars", _var_order(terms))


Statement = Union[Equation, QuasiIdentity]


def _var_order(terms) -> tuple[str, ...]:
    """Variable names in order of first occurrence, left to right."""
    seen: dict[str, None] = {}
    stack = list(reversed(terms))
    while stack:
        t = stack.pop()
        if isinstance(t, Var):
            seen.setdefault(t.name, None)
        elif isinstance(t, Neg):
            stack.append(t.arg)
        elif isinstance(t, (Imp, Cap, Cup)):
            stack.append(t.rhs)
            stack.append(t.lhs)
    return tuple(seen)


# -- tokenizer ---------------------------------------------------------------

_REL_TOKENS = {"<=": RelationKind.LE, "<=q": RelationKind.LE_Q, "<=l": RelationKind.LE_L}


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """Produce (kind, lexeme, byte offset) triples."""
    tokens = []
    i = 0
    n = len(text)
    # UTF-8 bytes beyond one per character so far: every token is ASCII, so
    # only skipped whitespace can be wider before the first error
    wide = 0
    while i < n:
        c = text[i]
        if c.isspace():
            wide += len(c.encode("utf-8")) - 1
            i += 1
            continue
        off = i + wide
        if c in "()'&,=":
            kinds = {"(": "lparen", ")": "rparen", "'": "prime", "&": "cap",
                     ",": "comma", "=": "eq"}
            tokens.append((kinds.get(c, c), c, off))
            i += 1
            continue
        if c == "|":
            if text.startswith("|-", i):
                tokens.append(("turnstile", "|-", off))
                i += 2
            else:
                tokens.append(("cup", "|", off))
                i += 1
            continue
        if text.startswith("->", i):
            tokens.append(("imp", "->", off))
            i += 2
            continue
        if c == "<":
            for lexeme in ("<=q", "<=l", "<="):
                if text.startswith(lexeme, i):
                    # a suffixed relation must not eat the head of an
                    # identifier: 'x <= qz' is the plain relation with 'qz'
                    after = i + len(lexeme)
                    if len(lexeme) == 3 and after < n and (
                        (text[after].isalnum() and text[after].isascii()) or text[after] == "_"
                    ):
                        continue
                    tokens.append(("rel", lexeme, off))
                    i += len(lexeme)
                    break
            else:
                raise ParseError("stray '<'", off)
            continue
        if c in "01":
            tokens.append(("const", c, off))
            i += 1
            continue
        if (c.isalpha() and c.isascii()) or c == "_":
            j = i + 1
            while j < n and ((text[j].isalnum() and text[j].isascii()) or text[j] == "_"):
                j += 1
            word = text[i:j]
            tokens.append(("commutes" if word == "C" else "ident", word, off))
            i = j
            continue
        raise ParseError(f"unexpected character {c!r}", off)
    tokens.append(("eof", "", n + wide))
    return tokens


# -- parser ------------------------------------------------------------------

# Deepest nesting a statement may have: the height of each term's syntax
# tree (operators on its longest root-to-leaf path) and, separately, the
# depth of its parentheses.  The parser recurses four frames per parenthesis
# and one per arrow; `format_term`, the evaluator's builder and the closures
# it builds recurse one frame per level of height.  The bound keeps all of
# them far inside Python's default recursion limit of 1000, and a printed
# term (one parenthesis per binary node) parses back within it.
MAX_DEPTH = 100


class _Parser:
    """Recursive descent over the token list.

    The term methods return the term with its height (see `MAX_DEPTH`).
    The parser recurses only into parentheses and arrow right-hand sides;
    `parens` and `arrows` count those open at the current token, so input
    nested too deeply is refused before the recursion gets deep.
    """

    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.parens = 0
        self.arrows = 0  # each open arrow is an operator above the current token

    def peek(self):
        return self.tokens[self.pos]

    def take(self, kind=None):
        tok = self.tokens[self.pos]
        if kind is not None and tok[0] != kind:
            raise ParseError(f"expected {kind}, found {tok[1] or 'end of input'!r}", tok[2])
        self.pos += 1
        return tok

    @staticmethod
    def _bounded(height: int, off: int) -> int:
        if height > MAX_DEPTH:
            raise ParseError(f"term nested deeper than {MAX_DEPTH} levels", off)
        return height

    # term := junction ('->' term)?          right-associative
    def term(self) -> tuple[Term, int]:
        lhs, hl = self.junction()
        if self.peek()[0] == "imp":
            off = self.take()[2]
            self.arrows = self._bounded(self.arrows + 1, off)
            rhs, hr = self.term()
            self.arrows -= 1
            return Imp(lhs, rhs), self._bounded(max(hl, hr) + 1, off)
        return lhs, hl

    # junction := postfix (('&' postfix)* | ('|' postfix)*)
    def junction(self) -> tuple[Term, int]:
        lhs, height = self.postfix()
        op = self.peek()[0]
        if op not in ("cap", "cup"):
            return lhs, height
        while True:
            kind, lexeme, off = self.peek()
            if kind not in ("cap", "cup"):
                return lhs, height
            if kind != op:
                raise ParseError("mixing '&' and '|' requires parentheses", off)
            self.take()
            rhs, hr = self.postfix()
            lhs = Cap(lhs, rhs) if kind == "cap" else Cup(lhs, rhs)
            height = self._bounded(max(height, hr) + 1, off)

    def postfix(self) -> tuple[Term, int]:
        t, height = self.atom()
        while self.peek()[0] == "prime":
            off = self.take()[2]
            t = Neg(t)
            height = self._bounded(height + 1, off)
        return t, height

    def atom(self) -> tuple[Term, int]:
        kind, lexeme, off = self.peek()
        if kind == "const":
            self.take()
            return Const(int(lexeme)), 0
        if kind == "ident":
            self.take()
            return Var(lexeme), 0
        if kind == "commutes":
            raise ParseError("'C' is reserved for the commutation relation", off)
        if kind == "lparen":
            self.take()
            self.parens += 1
            if self.parens > MAX_DEPTH:
                raise ParseError(f"parentheses nested deeper than {MAX_DEPTH} levels", off)
            t, height = self.term()
            self.parens -= 1
            self.take("rparen")
            return t, height
        raise ParseError(f"expected a term, found {lexeme or 'end of input'!r}", off)

    # element := term (('=' | rel | 'C') term)?
    def element(self):
        lhs = self.term()[0]
        kind, lexeme, off = self.peek()
        if kind == "eq":
            self.take()
            return Equation(lhs, self.term()[0])
        if kind == "rel":
            self.take()
            return Relation(_REL_TOKENS[lexeme], lhs, self.term()[0])
        if kind == "commutes":
            self.take()
            return Relation(RelationKind.COMMUTES, lhs, self.term()[0])
        return lhs

    def statement(self):
        first = self.element()
        kind, lexeme, off = self.peek()
        if kind in ("comma", "turnstile"):
            atoms = [self._require_atom(first, off)]
            while self.peek()[0] == "comma":
                self.take()
                atoms.append(self._require_atom(self.element(), self.peek()[2]))
            self.take("turnstile")
            conclusion = self._require_atom(self.element(), self.peek()[2])
            self.take("eof")
            return QuasiIdentity(tuple(atoms), conclusion)
        self.take("eof")
        if isinstance(first, Relation):
            return QuasiIdentity((), first)
        return first

    @staticmethod
    def _require_atom(elem, off) -> Atom:
        if isinstance(elem, (Equation, Relation)):
            return elem
        raise ParseError("expected an equation or relation atom", off)


def parse(text: str) -> Term | Equation | QuasiIdentity:
    """Parse one statement: a term, an equation, or a quasi-identity.

    An unconditional relation claim `t1 REL t2` parses as a quasi-identity
    with no hypotheses.
    """
    return _Parser(text).statement()


def parse_term(text: str) -> Term:
    result = parse(text)
    if not isinstance(result, (Var, Const, Neg, Imp, Cap, Cup)):
        raise ParseError("expected a bare term", 0)
    return result


def parse_statement(text: str) -> Statement:
    result = parse(text)
    if isinstance(result, (Equation, QuasiIdentity)):
        return result
    raise ParseError("expected an equation or quasi-identity", 0)


# -- printing ----------------------------------------------------------------

_REL_TEXT = {
    RelationKind.LE: "<=",
    RelationKind.LE_Q: "<=q",
    RelationKind.LE_L: "<=l",
    RelationKind.COMMUTES: "C",
}


def format_term(t: Term) -> str:
    """Canonical form: every binary node fully parenthesized."""
    if isinstance(t, Var):
        return t.name
    if isinstance(t, Const):
        return str(t.value)
    if isinstance(t, Neg):
        # binary args already carry their own parentheses
        return format_term(t.arg) + "'"
    ops = {Imp: "->", Cap: "&", Cup: "|"}
    return f"({format_term(t.lhs)} {ops[type(t)]} {format_term(t.rhs)})"


def format_atom(atom: Atom) -> str:
    if isinstance(atom, Equation):
        return f"{format_term(atom.lhs)} = {format_term(atom.rhs)}"
    return f"{format_term(atom.lhs)} {_REL_TEXT[atom.kind]} {format_term(atom.rhs)}"


def format_statement(stmt) -> str:
    if isinstance(stmt, Equation):
        return format_atom(stmt)
    if isinstance(stmt, QuasiIdentity):
        concl = format_atom(stmt.conclusion)
        if not stmt.hypotheses:
            return concl
        return ", ".join(format_atom(h) for h in stmt.hypotheses) + " |- " + concl
    return format_term(stmt)


# -- evaluation --------------------------------------------------------------


class _Builder:
    """Turns terms and atoms into closures over one algebra's raw table.

    A built term is a function from an environment tuple (one element index
    per variable, in the order given to the builder) to an element index;
    a built atom returns a bool.  The negation column `neg[a] = a -> 0` is
    read once, so every derived operation is a few tuple lookups.
    """

    def __init__(self, alg: FiniteAlgebra, vars: tuple[str, ...]):
        self.table = alg.table
        self.zero, self.one = alg.zero, alg.one
        self.neg = tuple(row[alg.zero] for row in alg.table)
        self.slot = {v: i for i, v in enumerate(vars)}

    def term(self, t: Term):
        table, neg = self.table, self.neg
        if isinstance(t, Var):
            return itemgetter(self.slot[t.name])
        if isinstance(t, Const):
            c = self.one if t.value == 1 else self.zero
            return lambda env: c
        if isinstance(t, Neg):
            f = self.term(t.arg)
            return lambda env: neg[f(env)]
        f, g = self.term(t.lhs), self.term(t.rhs)
        if isinstance(t, Imp):
            return lambda env: table[f(env)][g(env)]
        if isinstance(t, Cup):
            def cup(env):
                b = g(env)
                return table[table[f(env)][b]][b]
            return cup

        def cap(env):
            nb = neg[g(env)]
            return neg[table[table[neg[f(env)]][nb]][nb]]
        return cap

    def atom(self, atom: Atom):
        table, neg, one = self.table, self.neg, self.one
        f, g = self.term(atom.lhs), self.term(atom.rhs)
        if isinstance(atom, Equation):
            return lambda env: f(env) == g(env)
        kind = atom.kind
        if kind is RelationKind.LE:
            return lambda env: table[f(env)][g(env)] == one
        if kind is RelationKind.LE_Q:
            def le_q(env):
                a = f(env)
                nb = neg[g(env)]
                return neg[table[table[neg[a]][nb]][nb]] == a
            return le_q
        if kind is RelationKind.LE_L:
            def le_l(env):
                a = f(env)
                return neg[table[a][neg[g(env)]]] == a
            return le_l

        def commutes(env):
            a, b = f(env), g(env)
            return table[table[a][neg[b]]][neg[table[a][b]]] == a
        return commutes

    def statement(self, stmt: Statement):
        if isinstance(stmt, Equation):
            return self.atom(stmt)
        hypotheses = tuple(self.atom(h) for h in stmt.hypotheses)
        conclusion = self.atom(stmt.conclusion)

        def quasi(env):
            for h in hypotheses:
                if not h(env):
                    return True
            return conclusion(env)
        return quasi


def _env_tuple(vars: tuple[str, ...], alg: FiniteAlgebra, env: dict[str, int]) -> tuple[int, ...]:
    """The caller's assignment as a tuple in `vars` order, checked once.

    A negative index into a tuple would wrap silently, so the range is
    checked here rather than left to the table lookups.
    """
    values = []
    for v in vars:
        try:
            a = env[v]
        except KeyError:
            raise InputError(f"unbound variable {v!r}") from None
        if not 0 <= a < alg.size:
            raise InputError(f"element index {a} out of range 0..{alg.size - 1}")
        values.append(a)
    return tuple(values)


def evaluate(t: Term, alg: FiniteAlgebra, env: dict[str, int]) -> int:
    """Value of `t` in `alg` under the assignment `env` (variable -> index)."""
    vars = _var_order([t])
    return _Builder(alg, vars).term(t)(_env_tuple(vars, alg, env))


def atom_holds(atom: Atom, alg: FiniteAlgebra, env: dict[str, int]) -> bool:
    """Does one equation or relation atom hold under the assignment `env`?"""
    vars = atom.vars if isinstance(atom, Equation) else _var_order([atom.lhs, atom.rhs])
    return _Builder(alg, vars).atom(atom)(_env_tuple(vars, alg, env))


def checker(stmt: Statement, alg: FiniteAlgebra):
    """The statement as a closure over `alg`: it takes a tuple of element
    indices in `stmt.vars` order and says whether the statement holds there.
    The tuple is not range-checked."""
    return _Builder(alg, stmt.vars).statement(stmt)


@dataclass(frozen=True)
class HoldsResult:
    ok: bool
    witness: dict[str, int] | None = None

    def __bool__(self) -> bool:
        return self.ok


def holds(stmt: Statement | str, alg: FiniteAlgebra) -> HoldsResult:
    """Check a statement under every assignment of its variables.

    On failure the witness is the lexicographically first failing assignment
    (variables in `stmt.vars` order, element indices ascending).
    """
    if isinstance(stmt, str):
        stmt = parse_statement(stmt)
    if not isinstance(stmt, (Equation, QuasiIdentity)):
        raise InputError("holds() wants an equation or quasi-identity, not a bare term")
    check = checker(stmt, alg)
    sweep = itertools.product(range(alg.size), repeat=len(stmt.vars))
    failing = next(itertools.filterfalse(check, sweep), None)
    if failing is None:
        return HoldsResult(True)
    return HoldsResult(False, dict(zip(stmt.vars, failing)))


def format_witness(env: dict[str, int], alg: FiniteAlgebra, vars: tuple[str, ...] | None = None) -> str:
    order = vars if vars is not None else tuple(env)
    return " ".join(f"{v}={alg.names[env[v]]}" for v in order if v in env)


# -- statement files ---------------------------------------------------------


def iter_statement_lines(text: str) -> Iterator[tuple[int, str]]:
    """Yield (line number, source) for each non-blank, non-comment line."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line
