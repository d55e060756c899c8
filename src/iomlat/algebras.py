"""Finite algebras of signature (->, *, 0, 1) given by explicit operation tables.

A `FiniteAlgebra` is the single source of truth for evaluation: the carrier is
the index range 0..n-1, `table[a][b]` is the index of a->b, and everything
else (negation, the join-like and meet-like operations, the order-like
relations) is derived from that table on demand.  Instances are immutable and
all operations are pure, so unrestricted concurrent reads are safe.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .errors import FormatError, InputError


class RelationKind(enum.Enum):
    """The four binary relations derived from the implication table."""

    LE = "le"
    LE_Q = "leq"
    LE_L = "lel"
    COMMUTES = "commutes"


class DerivedOp(enum.Enum):
    """Identifiers for the derived operations and relations.

    Each identifier maps to exactly one defining expression in the term
    language (see `DERIVED_DEFS`); a unit test pins the hand-coded methods of
    `FiniteAlgebra` to these definitions.
    """

    NEG = "neg"
    CUP = "cup"
    CAP = "cap"
    LE = "le"
    LE_Q = "leq"
    LE_L = "lel"
    COMMUTES = "commutes"


# Defining expression per derived identifier, in the surface term syntax.
# The relations are written as the equation that must hold for the pair.
DERIVED_DEFS = {
    DerivedOp.NEG: "x -> 0",
    DerivedOp.CUP: "(x -> y) -> y",
    DerivedOp.CAP: "((x' -> y') -> y')'",
    DerivedOp.LE: "x -> y = 1",
    DerivedOp.LE_Q: "x = x & y",
    DerivedOp.LE_L: "x = (x -> y')'",
    DerivedOp.COMMUTES: "x = (x -> y') -> (x -> y)'",
}


@dataclass(frozen=True)
class RelationMatrix:
    """Materialized n x n truth table of one derived relation."""

    kind: RelationKind
    bits: tuple[tuple[bool, ...], ...]

    def symmetric(self) -> bool:
        n = len(self.bits)
        return all(self.bits[a][b] == self.bits[b][a] for a in range(n) for b in range(n))

    def antisymmetric(self) -> bool:
        n = len(self.bits)
        return all(
            not (self.bits[a][b] and self.bits[b][a])
            for a in range(n)
            for b in range(n)
            if a != b
        )

    def reflexive(self) -> bool:
        return all(self.bits[a][a] for a in range(len(self.bits)))

    def transitive(self) -> bool:
        n = len(self.bits)
        return all(
            not (self.bits[a][b] and self.bits[b][c]) or self.bits[a][c]
            for a in range(n)
            for b in range(n)
            for c in range(n)
        )


@dataclass(frozen=True)
class FiniteAlgebra:
    """Carrier 0..n-1 with an implication table and designated constants.

    Invariants enforced at construction: every table entry is a valid index,
    names are unique, non-empty, and free of whitespace and '#', and the two
    constants differ unless n == 1 (the degenerate algebra, which is accepted
    but flagged via `is_degenerate`).
    """

    names: tuple[str, ...]
    table: tuple[tuple[int, ...], ...]
    one: int
    zero: int

    def __post_init__(self):
        names = tuple(self.names)
        table = tuple(tuple(row) for row in self.table)
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "table", table)
        n = len(names)
        if n == 0:
            raise InputError("empty carrier")
        if len(set(names)) != n:
            raise InputError("duplicate element names")
        for name in names:
            if not name or any(c.isspace() for c in name) or "#" in name:
                raise InputError(f"bad element name {name!r}")
        if len(table) != n or any(len(row) != n for row in table):
            raise InputError("implication table is not n x n")
        for row in table:
            for v in row:
                if not isinstance(v, int) or not 0 <= v < n:
                    raise InputError(f"table entry {v!r} out of range")
        for c in (self.one, self.zero):
            if not isinstance(c, int) or not 0 <= c < n:
                raise InputError("constant index out of range")
        if n >= 2 and self.one == self.zero:
            raise InputError("one and zero coincide on a non-degenerate carrier")

    # -- basics ---------------------------------------------------------

    @property
    def size(self) -> int:
        return len(self.names)

    @property
    def is_degenerate(self) -> bool:
        return self.one == self.zero

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise InputError(f"unknown element name {name!r}") from None

    def _check(self, *elems: int):
        for a in elems:
            if not 0 <= a < len(self.names):
                raise InputError(f"element index {a} out of range 0..{len(self.names) - 1}")

    # -- operations -----------------------------------------------------
    #
    # Each public operation checks its arguments and then runs the unchecked
    # body below it.  Loops over valid indices call the bodies directly.

    def imp(self, a: int, b: int) -> int:
        self._check(a, b)
        return self._imp(a, b)

    def _imp(self, a: int, b: int) -> int:
        return self.table[a][b]

    def neg(self, a: int) -> int:
        self._check(a)
        return self._neg(a)

    def _neg(self, a: int) -> int:
        return self.table[a][self.zero]

    def cup(self, a: int, b: int) -> int:
        self._check(a, b)
        return self._cup(a, b)

    def _cup(self, a: int, b: int) -> int:
        t = self.table
        return t[t[a][b]][b]

    def cap(self, a: int, b: int) -> int:
        self._check(a, b)
        return self._cap(a, b)

    def _cap(self, a: int, b: int) -> int:
        t = self.table
        z = self.zero
        na, nb = t[a][z], t[b][z]
        return t[t[t[na][nb]][nb]][z]

    def le(self, a: int, b: int) -> bool:
        self._check(a, b)
        return self.table[a][b] == self.one

    def le_q(self, a: int, b: int) -> bool:
        return self.cap(a, b) == a

    def le_l(self, a: int, b: int) -> bool:
        self._check(a, b)
        t = self.table
        z = self.zero
        return t[t[a][t[b][z]]][z] == a

    def commutes(self, a: int, b: int) -> bool:
        self._check(a, b)
        return self._commutes(a, b)

    def _commutes(self, a: int, b: int) -> bool:
        t = self.table
        z = self.zero
        return t[t[a][t[b][z]]][t[t[a][b]][z]] == a

    def relation_matrix(self, kind: RelationKind) -> RelationMatrix:
        pred = {
            RelationKind.LE: self.le,
            RelationKind.LE_Q: self.le_q,
            RelationKind.LE_L: self.le_l,
            RelationKind.COMMUTES: self.commutes,
        }[kind]
        n = self.size
        bits = tuple(tuple(pred(a, b) for b in range(n)) for a in range(n))
        return RelationMatrix(kind, bits)


# -- algtab v1 ------------------------------------------------------------
#
#   algtab 1
#   n <size>
#   elems <name_0> ... <name_{n-1}>
#   one <name>
#   zero <name>
#   <n rows of n names: row a lists a -> (element j) in elems order>
#
# '#' starts a comment that runs to end of line; blank lines are ignored.


def _content_lines(text: str) -> list[list[str]]:
    out = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append(line.split())
    return out


def parse_algtab(text: str) -> FiniteAlgebra:
    """Parse algtab v1 text into a `FiniteAlgebra`."""
    lines = _content_lines(text)
    if not lines or lines[0] != ["algtab", "1"]:
        raise FormatError("expected header line 'algtab 1'")
    fields = {}
    pos = 1
    for key in ("n", "elems", "one", "zero"):
        if pos >= len(lines) or lines[pos][0] != key:
            raise FormatError(f"missing header field '{key}'")
        fields[key] = lines[pos][1:]
        pos += 1
    if len(fields["n"]) != 1 or not fields["n"][0].isdigit():
        raise FormatError("field 'n' wants a single positive integer")
    n = int(fields["n"][0])
    if n < 1:
        raise FormatError("size must be at least 1")
    names = fields["elems"]
    if len(names) != n:
        raise FormatError(f"'elems' lists {len(names)} names, expected {n}")
    if len(set(names)) != n:
        raise FormatError("duplicate element names")
    lookup = {name: i for i, name in enumerate(names)}
    for key in ("one", "zero"):
        if len(fields[key]) != 1:
            raise FormatError(f"field '{key}' wants exactly one name")
        if fields[key][0] not in lookup:
            raise FormatError(f"unknown name {fields[key][0]!r} in '{key}'")
    rows = lines[pos:]
    if len(rows) != n:
        raise FormatError(f"expected {n} table rows, found {len(rows)}")
    table = []
    for i, row in enumerate(rows):
        if len(row) != n:
            raise FormatError(f"row {i} has {len(row)} entries, expected {n}")
        try:
            table.append(tuple(lookup[name] for name in row))
        except KeyError as exc:
            raise FormatError(f"unknown name {exc.args[0]!r} in row {i}") from None
    try:
        return FiniteAlgebra(
            names=tuple(names),
            table=tuple(table),
            one=lookup[fields["one"][0]],
            zero=lookup[fields["zero"][0]],
        )
    except InputError as exc:
        raise FormatError(str(exc)) from None


def format_algtab(alg: FiniteAlgebra, comment: str | None = None) -> str:
    """Render a `FiniteAlgebra` as algtab v1 text."""
    lines = []
    if comment:
        lines.extend(f"# {part}" for part in comment.splitlines())
    lines.append("algtab 1")
    lines.append(f"n {alg.size}")
    lines.append("elems " + " ".join(alg.names))
    lines.append(f"one {alg.names[alg.one]}")
    lines.append(f"zero {alg.names[alg.zero]}")
    for row in alg.table:
        lines.append(" ".join(alg.names[v] for v in row))
    return "\n".join(lines) + "\n"


def load_algtab(path) -> FiniteAlgebra:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_algtab(fh.read())


def save_algtab(alg: FiniteAlgebra, path, comment: str | None = None):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_algtab(alg, comment))
