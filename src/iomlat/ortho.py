"""Meet/join/orthocomplement presentation and the two table conversions.

`from_ortholattice` turns a validated ortholattice into an implication table
via  x -> y := (x meet y')';  `to_ortholattice` goes back via
x meet y := (x -> y')',  x join y := x' -> y.  The two maps are mutually
inverse on tables, which the round-trip tests pin down entry-wise.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebras import FiniteAlgebra, FormatError, InputError, _content_lines
from .errors import ConsistencyError
from . import axioms


@dataclass(frozen=True)
class OrthoLattice:
    """Finite ortholattice as explicit meet/join/complement tables.

    Construction validates the full axiom set eagerly: lattice laws,
    bounds, complementation, and order reversal of the complement.
    """

    names: tuple[str, ...]
    meet: tuple[tuple[int, ...], ...]
    join: tuple[tuple[int, ...], ...]
    ortho: tuple[int, ...]
    one: int
    zero: int

    def __post_init__(self):
        object.__setattr__(self, "names", tuple(self.names))
        object.__setattr__(self, "meet", tuple(tuple(r) for r in self.meet))
        object.__setattr__(self, "join", tuple(tuple(r) for r in self.join))
        object.__setattr__(self, "ortho", tuple(self.ortho))
        self._validate()

    @property
    def size(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise InputError(f"unknown element name {name!r}") from None

    def le(self, a: int, b: int) -> bool:
        return self.meet[a][b] == a

    def _validate(self):
        n = len(self.names)
        if n == 0:
            raise InputError("empty carrier")
        if len(set(self.names)) != n:
            raise InputError("duplicate element names")
        for tbl, label in ((self.meet, "meet"), (self.join, "join")):
            if len(tbl) != n or any(len(r) != n for r in tbl):
                raise InputError(f"{label} table is not n x n")
            for row in tbl:
                for v in row:
                    if not 0 <= v < n:
                        raise InputError(f"{label} entry out of range")
        if len(self.ortho) != n or any(not 0 <= v < n for v in self.ortho):
            raise InputError("complement table is not a row of n valid entries")
        if n >= 2 and self.one == self.zero:
            raise InputError("one and zero coincide on a non-degenerate carrier")

        nm = self.names

        def fail(law: str, *elems: int):
            where = ", ".join(nm[e] for e in elems)
            raise InputError(f"not an ortholattice: {law} fails at ({where})")

        m, j, o = self.meet, self.join, self.ortho
        rng = range(n)
        for a in rng:
            if m[a][a] != a:
                fail("meet idempotence", a)
            if j[a][a] != a:
                fail("join idempotence", a)
            if o[o[a]] != a:
                fail("complement involution", a)
            if m[a][o[a]] != self.zero:
                fail("x meet x' = 0", a)
            if j[a][o[a]] != self.one:
                fail("x join x' = 1", a)
            if m[a][self.zero] != self.zero:
                fail("x meet 0 = 0", a)
            if j[a][self.one] != self.one:
                fail("x join 1 = 1", a)
        for a in rng:
            for b in rng:
                if m[a][b] != m[b][a]:
                    fail("meet commutativity", a, b)
                if j[a][b] != j[b][a]:
                    fail("join commutativity", a, b)
                if m[a][j[a][b]] != a:
                    fail("absorption x meet (x join y) = x", a, b)
                if j[a][m[a][b]] != a:
                    fail("absorption x join (x meet y) = x", a, b)
                if m[a][b] == a and m[o[b]][o[a]] != o[b]:
                    fail("complement order reversal", a, b)
        for a in rng:
            for b in rng:
                for c in rng:
                    if m[m[a][b]][c] != m[a][m[b][c]]:
                        fail("meet associativity", a, b, c)
                    if j[j[a][b]][c] != j[a][j[b][c]]:
                        fail("join associativity", a, b, c)


def derive_join(meet: tuple[tuple[int, ...], ...], ortho: tuple[int, ...]):
    """De Morgan: x join y = (x' meet y')'."""
    n = len(ortho)
    return tuple(
        tuple(ortho[meet[ortho[a]][ortho[b]]] for b in range(n)) for a in range(n)
    )


def from_ortholattice(lat: OrthoLattice) -> FiniteAlgebra:
    """Implication table of a validated ortholattice: a -> b = (a meet b')'."""
    n = lat.size
    table = tuple(
        tuple(lat.ortho[lat.meet[a][lat.ortho[b]]] for b in range(n)) for a in range(n)
    )
    return FiniteAlgebra(names=lat.names, table=table, one=lat.one, zero=lat.zero)


def to_ortholattice(alg: FiniteAlgebra) -> OrthoLattice:
    """Meet/join/complement tables of an implicative involutive table.

    The input class is validated first; conversion of anything weaker is
    refused because the maps are only inverse on that class.
    """
    failing = axioms.failed_axioms(alg, "IMPLICATIVE_INVOLUTIVE_BE")
    if failing:
        raise InputError(
            "conversion wants an implicative involutive table; failing: "
            + ", ".join(a.name for a in failing)
        )
    n = alg.size
    meet = tuple(tuple(alg.neg(alg.imp(a, alg.neg(b))) for b in range(n)) for a in range(n))
    join = tuple(tuple(alg.imp(alg.neg(a), b) for b in range(n)) for a in range(n))
    ortho = tuple(alg.neg(a) for a in range(n))
    return OrthoLattice(names=alg.names, meet=meet, join=join, ortho=ortho,
                        one=alg.one, zero=alg.zero)


@dataclass(frozen=True)
class OmLawReport:
    """Exhaustive verdicts for the two orthomodularity forms."""

    om_ok: bool
    om_witness: tuple[int, int] | None
    om_prime_ok: bool
    om_prime_witness: tuple[int, int] | None

    @property
    def ok(self) -> bool:
        return self.om_ok


def check_om_law(lat: OrthoLattice) -> OmLawReport:
    """Check (x meet y) join ((x meet y)' meet x) = x, and the conditional
    form x join (x' meet y) = y for x below y.  The two verdicts agree on
    every ortholattice; disagreement signals a corrupted table."""
    m, j, o = lat.meet, lat.join, lat.ortho
    om_ok, om_wit = True, None
    for x in range(lat.size):
        for y in range(lat.size):
            w = m[x][y]
            if j[w][m[o[w]][x]] != x:
                om_ok, om_wit = False, (x, y)
                break
        if not om_ok:
            break
    omp_ok, omp_wit = True, None
    for x in range(lat.size):
        for y in range(lat.size):
            if m[x][y] == x and j[x][m[o[x]][y]] != y:
                omp_ok, omp_wit = False, (x, y)
                break
        if not omp_ok:
            break
    if om_ok != omp_ok:
        raise ConsistencyError("the two orthomodularity forms disagree")
    return OmLawReport(om_ok, om_wit, omp_ok, omp_wit)


# -- ortlat v1 ---------------------------------------------------------------
#
# Header as algtab (magic 'ortlat 1', n, elems, one, zero), then a 'meet'
# keyword followed by n rows, an optional 'join' and n rows, and an 'ortho'
# keyword followed by one row.  Omitted join is derived by De Morgan.


def parse_ortlat(text: str) -> OrthoLattice:
    lines = _content_lines(text)
    if not lines or lines[0] != ["ortlat", "1"]:
        raise FormatError("expected header line 'ortlat 1'")
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
    names = fields["elems"]
    if len(names) != n:
        raise FormatError(f"'elems' lists {len(names)} names, expected {n}")
    if len(set(names)) != n:
        raise FormatError("duplicate element names")
    lookup = {name: i for i, name in enumerate(names)}
    for key in ("one", "zero"):
        if len(fields[key]) != 1 or fields[key][0] not in lookup:
            raise FormatError(f"field '{key}' wants one known name")

    def read_rows(count):
        nonlocal pos
        rows = []
        for _ in range(count):
            if pos >= len(lines):
                raise FormatError("unexpected end of file inside a table section")
            row = lines[pos]
            pos += 1
            if len(row) != n:
                raise FormatError(f"table row has {len(row)} entries, expected {n}")
            try:
                rows.append(tuple(lookup[name] for name in row))
            except KeyError as exc:
                raise FormatError(f"unknown name {exc.args[0]!r} in table row") from None
        return tuple(rows)

    if pos >= len(lines) or lines[pos] != ["meet"]:
        raise FormatError("expected 'meet' section")
    pos += 1
    meet = read_rows(n)
    join = None
    if pos < len(lines) and lines[pos] == ["join"]:
        pos += 1
        join = read_rows(n)
    if pos >= len(lines) or lines[pos] != ["ortho"]:
        raise FormatError("expected 'ortho' section")
    pos += 1
    ortho_rows = read_rows(1)
    if pos != len(lines):
        raise FormatError("trailing content after the 'ortho' row")
    ortho = ortho_rows[0]
    if join is None:
        join = derive_join(meet, ortho)
    try:
        return OrthoLattice(
            names=tuple(names), meet=meet, join=join, ortho=ortho,
            one=lookup[fields["one"][0]], zero=lookup[fields["zero"][0]],
        )
    except InputError as exc:
        raise FormatError(str(exc)) from None


def format_ortlat(lat: OrthoLattice, comment: str | None = None) -> str:
    lines = []
    if comment:
        lines.extend(f"# {part}" for part in comment.splitlines())
    lines.append("ortlat 1")
    lines.append(f"n {lat.size}")
    lines.append("elems " + " ".join(lat.names))
    lines.append(f"one {lat.names[lat.one]}")
    lines.append(f"zero {lat.names[lat.zero]}")
    lines.append("meet")
    for row in lat.meet:
        lines.append(" ".join(lat.names[v] for v in row))
    lines.append("join")
    for row in lat.join:
        lines.append(" ".join(lat.names[v] for v in row))
    lines.append("ortho")
    lines.append(" ".join(lat.names[v] for v in lat.ortho))
    return "\n".join(lines) + "\n"


def load_ortlat(path) -> OrthoLattice:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_ortlat(fh.read())
