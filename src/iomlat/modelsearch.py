"""Enumeration of all finite models of a class, modulo isomorphism.

Two independent routes exist on purpose.  The production route fixes zero at
index 0 and one at index n-1, chooses the negation column as an involution
pairing 0 with 1 (fixed points on middle elements are permitted: where they
are impossible it is the axioms that kill them, not fiat), propagates the
cells forced by the axioms, and backtracks over the remaining cells with
incremental violation checks.  The pruning is exact: an axiom instance is
checked when the last of its cells is filled, so every leaf is a model and
is kept as it is.  `enumerate_models` still checks each emitted model against
the class's defining axioms (`axioms.CLASS_AXIOMS`), so a pruning fault
surfaces as a `ConsistencyError`.  `brute_force_models` is the unpruned
cross-check: it enumerates every completion of the definitionally forced
frame and post-filters with hand-coded axiom loops, sharing nothing with the
backtracker but the labeling convention.

Symmetry is broken before the search and inside it, not after it.  An
isomorphism fixes zero and one, so it carries x' = x -> 0 to the negation of
the image: it conjugates one negation into the other.  Two involutions that
swap 0 and n-1 and fix the same number of middle elements are conjugate
under a relabeling of the middles, so modulo isomorphism the search runs
one representative involution per fixed-point count (4 of 76 at n=8).
Models with different representatives are never isomorphic, and two models
with the same negation sigma are isomorphic exactly when a relabeling in
the centralizer C(sigma) maps one onto the other (48 relabelings at n=8,
384 at n=10, against (n-2)! relabelings of the middles).  The base class
`be` has no negation to fix: its group is every relabeling of the middles.
A group is built only for a frame the axioms accept; on an implicative
class every involution with a fixed point is rejected, and at n=12 one such
frame has a centralizer of 10! relabelings.  Given the group, the search is
orderly (McKay, "Isomorph-free exhaustive generation", J. Algorithms 26,
1998): it cuts a partial table as soon as a relabeling in the group makes
its decided row-major prefix strictly smaller, which on a full table
means "least in its orbit", so each class reaches exactly one leaf and no
raw table is deduplicated after the search.  A `be` leaf is then the
canonical form itself; an involutive leaf is brought to the global
canonical form once (`structure.canonical_form`, a branch-and-bound
canonical labeling), so the emitted tables and their order do not depend
on these choices.  Without `modulo_iso` the search runs every involution
with no group, which is the labeled enumeration.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

from .algebras import FiniteAlgebra
from .errors import ConsistencyError, InputError
from . import axioms, structure, terms

# search class name -> its label in `axioms.CLASS_AXIOMS`; the search frame
# fixes zero, so even `be` searches bounded BE algebras
CLASSES = {
    "be": "BOUNDED_BE",
    "invbe": "INVOLUTIVE_BE",
    "implinvbe": "IMPLICATIVE_INVOLUTIVE_BE",
    "ioml": "IOML",
    "iboolean": "IMPLICATIVE_BOOLEAN",
}
DEFAULT_MAX_SIZE = 8


@dataclass(frozen=True)
class EnumerationTask:
    size: int
    klass: str = "implinvbe"
    modulo_iso: bool = True
    # the order the search fills cells in; the model set does not depend on
    # it, which a test checks through the column-major order
    cell_order: str = "row-major"
    max_size: int = DEFAULT_MAX_SIZE

    def __post_init__(self):
        if self.klass not in CLASSES:
            raise InputError(f"unknown class {self.klass!r}; expected one of {', '.join(CLASSES)}")
        if self.cell_order not in ("row-major", "column-major"):
            raise InputError("cell_order must be 'row-major' or 'column-major'")
        if not 2 <= self.size <= self.max_size:
            raise InputError(
                f"size {self.size} outside 2..{self.max_size}; raise the cap explicitly if intended"
            )


def _middle_names(n: int) -> tuple[str, ...]:
    letters = "abcdefghijklmnop"
    return ("0",) + tuple(letters[i] for i in range(n - 2)) + ("1",)


def _involutions(n: int) -> list[tuple[int, ...]]:
    """All involutions of 0..n-1 that swap 0 and n-1, fixed points allowed."""
    middles = list(range(1, n - 1))
    found: list[tuple[int, ...]] = []

    def rec(remaining, acc):
        if not remaining:
            sigma = list(range(n))
            sigma[0], sigma[n - 1] = n - 1, 0
            for a, b in acc:
                sigma[a] = b
            found.append(tuple(sigma))
            return
        a = remaining[0]
        rec(remaining[1:], acc + [(a, a)])
        for b in remaining[1:]:
            rest = [c for c in remaining[1:] if c != b]
            rec(rest, acc + [(a, b), (b, a)])

    rec(middles, [])
    return found


def _representative_involutions(n: int) -> list[tuple[int, ...]]:
    """One involution per conjugacy class under relabelings of the middles:
    pairs (1 2)(3 4)... first, then the fixed points."""
    found = []
    for pairs in range((n - 2) // 2 + 1):
        sigma = list(range(n))
        sigma[0], sigma[n - 1] = n - 1, 0
        for a in range(1, 2 * pairs, 2):
            sigma[a], sigma[a + 1] = a + 1, a
        found.append(tuple(sigma))
    return found


def _centralizer(sigma: tuple[int, ...]) -> list[tuple[int, ...]]:
    """The relabelings fixing 0 and n-1 that commute with sigma, as orders
    (each lists the old elements in their new index order): they permute
    the fixed middles among themselves and the 2-cycles among themselves,
    each either way round."""
    n = len(sigma)
    fixed = [a for a in range(1, n - 1) if sigma[a] == a]
    pairs = [(a, sigma[a]) for a in range(1, n - 1) if a < sigma[a]]
    orders = []
    for fixed_image in itertools.permutations(fixed):
        for pair_image in itertools.permutations(pairs):
            for flips in itertools.product((False, True), repeat=len(pairs)):
                order = list(range(n))
                for a, b in zip(fixed, fixed_image):
                    order[a] = b
                for (a, b), (c, d), flip in zip(pairs, pair_image, flips):
                    order[a], order[b] = (d, c) if flip else (c, d)
                orders.append(tuple(order))
    return orders


def _symmetry_group(n: int, sigma) -> list[tuple[int, ...]]:
    """The relabelings that map the tables searched under sigma onto each
    other: C(sigma), or every relabeling of the middles when sigma is None."""
    if sigma is None:
        return [(0,) + perm + (n - 1,) for perm in itertools.permutations(range(1, n - 1))]
    return _centralizer(sigma)


class _Searcher:
    """Backtracking over the cells of one class, pruned by its axioms and,
    given a symmetry group, by the orderly check."""

    def __init__(self, n: int, klass: str, cell_order: str):
        self.n = n
        self.cell_order = cell_order
        defining = axioms.CLASS_AXIOMS[CLASSES[klass]]
        self.involutive = axioms.Axiom.INVOLUTIVE in defining
        self.implicative = axioms.Axiom.IMPL in defining
        self.iom = axioms.Axiom.IOM in defining
        self.idiv = axioms.Axiom.IDIV in defining

    # -- forced frame ------------------------------------------------------

    def _init_table(self, sigma):
        n = self.n
        one = n - 1
        t = [[None] * n for _ in range(n)]

        def put(a, b, v):
            cur = t[a][b]
            if cur is None:
                t[a][b] = v
                return True
            return cur == v

        for b in range(n):
            if not put(0, b, one):          # zero below everything
                return None
            if not put(one, b, b):          # one is a left identity
                return None
        for a in range(n):
            if not put(a, one, one):        # everything below one
                return None
            if not put(a, a, one):          # reflexivity of the arrow
                return None
        if sigma is not None:
            for a in range(n):
                if not put(a, 0, sigma[a]):
                    return None
            if self.implicative:
                # x -> x' = x' and x' -> x = x hold on the implicative class
                for a in range(n):
                    if not put(a, sigma[a], sigma[a]):
                        return None
                    if not put(sigma[a], a, a):
                        return None
            # a -> b equals sigma(b) -> sigma(a) (exchange with the bottom)
            for a in range(n):
                for b in range(n):
                    v = t[a][b]
                    if v is not None and not put(sigma[b], sigma[a], v):
                        return None
        return t

    # -- incremental violation checks ---------------------------------------

    def _violates(self, t, a, b, sigma):
        """Any fully determined axiom instance broken by cell (a, b)?"""
        n = self.n
        v = t[a][b]
        for x in range(n):
            for X, Y, Z in ((x, a, b), (a, x, b)):
                d = t[Y][Z]
                e = t[X][Z]
                if d is None or e is None:
                    continue
                u = t[X][d]
                w = t[Y][e]
                if u is not None and w is not None and u != w:
                    return True
        for p in range(n):
            row = t[p]
            for q in range(n):
                if row[q] == b:
                    for X, Y, Z in ((a, p, q), (p, a, q)):
                        d = t[Y][Z]
                        e = t[X][Z]
                        if d is None or e is None:
                            continue
                        u = t[X][d]
                        w = t[Y][e]
                        if u is not None and w is not None and u != w:
                            return True
        if self.implicative:
            u = t[v][a]
            if u is not None and u != a:
                return True
            rowb = t[b]
            for y in range(n):
                if rowb[y] == a and v != b:
                    return True
        if self.iom and self._iom_partial_violation(t, sigma):
            return True
        if self.idiv and self._idiv_partial_violation(t, sigma):
            return True
        return False

    def _iom_partial_violation(self, t, sigma):
        # join form: x cup (x -> y)' = x, evaluated lazily on the partial table
        n = self.n
        for x in range(n):
            for y in range(n):
                c = t[x][y]
                if c is None:
                    continue
                d = sigma[c]
                e = t[x][d]
                if e is None:
                    continue
                f = t[e][d]
                if f is not None and f != x:
                    return True
        return False

    def _idiv_partial_violation(self, t, sigma):
        n = self.n
        for x in range(n):
            for y in range(n):
                c = t[x][y]
                if c is None:
                    continue
                lhs = t[x][sigma[c]]
                rhs = t[x][sigma[y]]
                if lhs is not None and rhs is not None and lhs != rhs:
                    return True
        return False

    # -- driver ---------------------------------------------------------------

    def run(self, sigma, group=None) -> Iterator[tuple[tuple[int, ...], ...]]:
        """Every table whose negation column is sigma (None: unconstrained).

        Given a group of relabelings (orders as in `_centralizer`), only the
        tables that are least in their orbit under the group are yielded.
        """
        n = self.n
        t = self._init_table(sigma)
        if t is None:
            return
        free = [(a, b) for a in range(n) for b in range(n) if t[a][b] is None]
        if self.cell_order == "column-major":
            free.sort(key=lambda cell: (cell[1], cell[0]))
        if sigma is not None:
            kept = []
            for a, b in free:
                mirror = (sigma[b], sigma[a])
                if mirror == (a, b) or (a, b) < mirror:
                    kept.append((a, b))
            free = kept
        relabelings = []
        for order in group or ():
            if order != tuple(range(n)):
                to_new = {None: None}
                for new, old in enumerate(order):
                    to_new[old] = new
                relabelings.append((order, to_new.__getitem__))
        checks = set()
        if relabelings:
            # the orderly check runs at each row boundary of the cell list
            # and at the leaf
            checks = {idx for idx in range(1, len(free)) if free[idx][0] != free[idx - 1][0]}
            checks.add(len(free))
        yield from self._assign(t, free, 0, sigma, relabelings, checks)

    def _relabeling_is_smaller(self, t, relabelings):
        """Does a relabeling make the decided row-major prefix of t smaller?

        The relabeled cell (i, j) is to_new[t[order[i]][order[j]]]; the
        comparison stops at the first cell undecided on either side, so a
        cut holds for every completion of t.  Rows 0 and n-1 are fixed by
        the frame and by every relabeling, so they are skipped.
        """
        for order, relabel in relabelings:
            for i in range(1, self.n - 1):
                mine = t[i]
                source = t[order[i]]
                row = [relabel(source[o]) for o in order]
                if None in row or None in mine:
                    for x, y in zip(row, mine):
                        if x is None or y is None:
                            break
                        if x != y:
                            if x < y:
                                return True
                            break
                    break
                if row != mine:
                    if row < mine:
                        return True
                    break
        return False

    def _assign(self, t, free, idx, sigma, relabelings, checks):
        n = self.n
        if idx in checks and self._relabeling_is_smaller(t, relabelings):
            return
        if idx == len(free):
            yield tuple(tuple(row) for row in t)
            return
        a, b = free[idx]
        mirror = None
        if sigma is not None:
            m = (sigma[b], sigma[a])
            if m != (a, b):
                mirror = m
        for v in range(n):
            t[a][b] = v
            placed_mirror = False
            ok = True
            if mirror is not None:
                ma, mb = mirror
                if t[ma][mb] is None:
                    t[ma][mb] = v
                    placed_mirror = True
                elif t[ma][mb] != v:
                    ok = False
            if ok and self._violates(t, a, b, sigma):
                ok = False
            if ok and placed_mirror and self._violates(t, mirror[0], mirror[1], sigma):
                ok = False
            if ok:
                yield from self._assign(t, free, idx + 1, sigma, relabelings, checks)
            if placed_mirror:
                t[mirror[0]][mirror[1]] = None
            t[a][b] = None


def _table_to_algebra(table, n) -> FiniteAlgebra:
    return FiniteAlgebra(names=_middle_names(n), table=table, one=n - 1, zero=0)


def enumerate_models(task: EnumerationTask) -> Iterator[FiniteAlgebra]:
    """All models of the class at the requested size, deterministically.

    Output is sorted by canonical form ascending; with `modulo_iso` exactly
    one representative per isomorphism class survives, in its canonical
    labeling.  Every emitted model is checked against the class's defining
    axioms before being yielded; a model outside the class raises
    `ConsistencyError`.
    """
    n = task.size
    searcher = _Searcher(n, task.klass, task.cell_order)
    if not searcher.involutive:
        sigmas = [None]
    elif task.modulo_iso:
        sigmas = _representative_involutions(n)
    else:
        sigmas = _involutions(n)
    found = []
    for sigma in sigmas:
        group = None
        if task.modulo_iso:
            # a rejected frame can have a huge centralizer (see above)
            if searcher._init_table(sigma) is None:
                continue
            group = _symmetry_group(n, sigma)
        for table in searcher.run(sigma, group):
            if not task.modulo_iso:
                found.append((structure.canonical_key(_table_to_algebra(table, n)), table))
                continue
            # a `be` leaf is least over every relabeling of the middles, so
            # it is the canonical form; an involutive leaf is least only over
            # C(sigma), and the canonical labeling makes the representative
            # independent of sigma and of the cell schedule
            if sigma is not None:
                table = structure.canonical_form(_table_to_algebra(table, n)).table
            found.append((table, table))
    found.sort()
    label = CLASSES[task.klass]
    for _, table in found:
        alg = _table_to_algebra(table, n)
        failing = axioms.failed_axioms(alg, label)
        if failing:
            raise ConsistencyError(
                f"search emitted a table outside class {task.klass!r}; failing: "
                + ", ".join(a.name for a in failing)
            )
        yield alg


def count_models(size: int, klass: str, modulo_iso: bool = True,
                 max_size: int = DEFAULT_MAX_SIZE) -> int:
    task = EnumerationTask(size=size, klass=klass, modulo_iso=modulo_iso, max_size=max_size)
    return sum(1 for _ in enumerate_models(task))


def find_counterexample(statement, klass: str, max_size: int):
    """Smallest-size model of the class falsifying the statement, or None.

    Ties are broken by canonical order, so the result is deterministic.
    """
    stmt = terms.parse_statement(statement) if isinstance(statement, str) else statement
    for n in range(2, max_size + 1):
        task = EnumerationTask(size=n, klass=klass, modulo_iso=True,
                               max_size=max(n, DEFAULT_MAX_SIZE))
        for alg in enumerate_models(task):
            result = terms.holds(stmt, alg)
            if not result.ok:
                return alg, result.witness
    return None


# -- independent unpruned oracle ----------------------------------------------


def _oracle_frame(n: int):
    one = n - 1
    t = [[None] * n for _ in range(n)]
    for b in range(n):
        t[0][b] = one
        t[one][b] = b
    for a in range(n):
        t[a][one] = one
        t[a][a] = one
    return t


def _oracle_ok(t, n, klass) -> bool:
    for x in range(n):
        tx = t[x]
        for y in range(n):
            ty = t[y]
            for z in range(n):
                if tx[ty[z]] != ty[tx[z]]:
                    return False
    if klass == "be":
        return True
    for a in range(n):
        if t[t[a][0]][0] != a:
            return False
    if klass == "invbe":
        return True
    for x in range(n):
        for y in range(n):
            if t[t[x][y]][x] != x:
                return False
    if klass == "implinvbe":
        return True
    neg = [t[a][0] for a in range(n)]
    if klass == "ioml":
        for x in range(n):
            for y in range(n):
                u = t[y][x]
                if neg[t[t[neg[x]][neg[u]]][neg[u]]] != x:
                    return False
        return True
    for x in range(n):
        for y in range(n):
            if t[x][neg[t[x][y]]] != t[x][neg[y]]:
                return False
    return True


def brute_force_models(size: int, klass: str) -> list[FiniteAlgebra]:
    """Enumerate-and-filter oracle; no propagation, no search-tree pruning.

    Intended for cross-checking the backtracking route at small sizes; the
    cost is n ** (free cells), so keep the bottom-row product outermost and
    the sizes modest.
    """
    if klass not in CLASSES:
        raise InputError(f"unknown class {klass!r}")
    n = size
    if n < 2:
        raise InputError("oracle wants size >= 2")
    one = n - 1
    middles = list(range(1, n - 1))
    frame = _oracle_frame(n)
    col0_cells = [(a, 0) for a in middles]
    rest_cells = [
        (a, b) for a in middles for b in middles if frame[a][b] is None
    ]
    involutive = klass != "be"
    out = []
    for col0 in itertools.product(range(n), repeat=len(col0_cells)):
        if involutive:
            neg = [one] + list(col0) + [0]
            if any(not 0 <= neg[a] < n or neg[neg[a]] != a for a in range(n)):
                continue
        for rest in itertools.product(range(n), repeat=len(rest_cells)):
            t = [row[:] for row in frame]
            for (a, b), v in zip(col0_cells, col0):
                t[a][b] = v
            for (a, b), v in zip(rest_cells, rest):
                t[a][b] = v
            if _oracle_ok(t, n, klass):
                out.append(_table_to_algebra(tuple(tuple(r) for r in t), n))
    return out
