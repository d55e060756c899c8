"""Structural objects: center, commutor, complement sets, subalgebras,
isomorphism testing and canonical forms.

Subsets of a carrier are plain frozensets of indices; restriction to a
closed subset produces a fresh `FiniteAlgebra` with the inherited names.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass
from operator import itemgetter

from .algebras import FiniteAlgebra
from .errors import ConsistencyError, InputError
from . import axioms, catalog


class ClassWarning(UserWarning):
    """Operation invoked outside the class its guarantees are proved for."""


def _warn_if_not_ioml(alg: FiniteAlgebra, what: str, check_class: bool):
    if check_class and axioms.failed_axioms(alg, "IOML"):
        warnings.warn(
            f"{what} computed on a non-orthomodular table; definitional only",
            ClassWarning,
            stacklevel=3,
        )


def center(alg: FiniteAlgebra, check_class: bool = True) -> frozenset[int]:
    """Elements commuting with the whole carrier."""
    _warn_if_not_ioml(alg, "center", check_class)
    n = alg.size
    return frozenset(
        a for a in range(n) if all(alg._commutes(a, b) for b in range(n))
    )


def commutor(alg: FiniteAlgebra, subset: frozenset[int] | set[int],
             check_class: bool = True) -> frozenset[int]:
    """Elements commuting with every member of a nonempty subset."""
    members = frozenset(subset)
    if not members:
        raise InputError("commutor of the empty subset is undefined")
    alg._check(*members)
    _warn_if_not_ioml(alg, "commutor", check_class)
    return frozenset(
        x for x in range(alg.size) if all(alg._commutes(x, y) for y in members)
    )


def complements(alg: FiniteAlgebra, x: int) -> frozenset[int]:
    """All z with x -> z' = x' -> z = 1; the negation of x is always one."""
    alg._check(x)
    nx = alg._neg(x)
    return frozenset(
        z for z in range(alg.size)
        if alg._imp(x, alg._neg(z)) == alg.one and alg._imp(nx, z) == alg.one
    )


@dataclass(frozen=True)
class ComplementWitness:
    """The constructed complement (z -> (z -> x')') -> (z' -> x)' of x."""

    x: int
    z: int
    value: int


def complement_witness(alg: FiniteAlgebra, x: int, z: int,
                       check_class: bool = True) -> ComplementWitness:
    """Compute the complement construction at (x, z).

    On orthomodular inputs membership of the value in the complement set of
    x is a theorem and is asserted; a violation there means a corrupted
    table or a bug, never a property of the input class.
    """
    alg._check(x, z)
    is_ioml = not check_class or not axioms.failed_axioms(alg, "IOML")
    if not is_ioml:
        warnings.warn(
            "complement construction on a non-orthomodular table; "
            "membership is not guaranteed",
            ClassWarning,
            stacklevel=2,
        )
    nx = alg.neg(x)
    value = alg.imp(
        alg.imp(z, alg.neg(alg.imp(z, nx))),
        alg.neg(alg.imp(alg.neg(z), x)),
    )
    if is_ioml and value not in complements(alg, x):
        raise ConsistencyError(
            f"constructed complement {alg.names[value]} of {alg.names[x]} "
            f"at z={alg.names[z]} is not a complement"
        )
    return ComplementWitness(x=x, z=z, value=value)


def generate_subalgebra(alg: FiniteAlgebra, seed) -> frozenset[int]:
    """Least superset of seed plus {0, 1} closed under -> and negation."""
    current = set(seed)
    for a in current:
        alg._check(a)
    current.update((alg.zero, alg.one))
    while True:
        new = set()
        for a in current:
            for b in current:
                v = alg.table[a][b]
                if v not in current:
                    new.add(v)
        if not new:
            return frozenset(current)
        current |= new


def restrict(alg: FiniteAlgebra, subset) -> FiniteAlgebra:
    """Subalgebra on a closed subset, relabeled to 0..k-1 in index order."""
    elems = sorted(subset)
    pos = {e: i for i, e in enumerate(elems)}
    if alg.zero not in pos or alg.one not in pos:
        raise InputError("subset misses a constant")
    for a in elems:
        for b in elems:
            if alg.table[a][b] not in pos:
                raise InputError("subset is not closed under ->")
    table = tuple(tuple(pos[alg.table[a][b]] for b in elems) for a in elems)
    names = tuple(alg.names[e] for e in elems)
    return FiniteAlgebra(names=names, table=table, one=pos[alg.one], zero=pos[alg.zero])


# -- isomorphism -------------------------------------------------------------


def _colors(alg: FiniteAlgebra, rounds: int = 3) -> tuple[int, ...]:
    """Iterated invariant refinement; equal colors are necessary for any
    isomorphism to match elements.  Each round's colors are the ranks of the
    signatures in sorted order, so they compare across algebras."""
    n = alg.size
    t = alg.table
    color = [(a == alg.zero, a == alg.one) for a in range(n)]
    for _ in range(rounds):
        sigs = [
            (
                color[a],
                tuple(sorted((color[b], color[t[a][b]], color[t[b][a]]) for b in range(n))),
            )
            for a in range(n)
        ]
        rank = {sig: i for i, sig in enumerate(sorted(set(sigs)))}
        color = [rank[sig] for sig in sigs]
    return tuple(color)


def is_isomorphic(a: FiniteAlgebra, b: FiniteAlgebra) -> dict[int, int] | None:
    """A bijection preserving ->, one and zero, or None.

    Backtracks over color-compatible assignments, with forced extensions
    from already-mapped table entries.
    """
    n = a.size
    if n != b.size:
        return None
    ca, cb = _colors(a), _colors(b)
    if sorted(ca) != sorted(cb):
        return None
    ta, tb = a.table, b.table

    mapping: dict[int, int] = {}
    used: dict[int, int] = {}

    def extend(pairs):
        """Map each pair, forcing consequences; return the pairs actually
        added, or None on conflict (after undoing nothing)."""
        added = []
        queue = list(pairs)
        while queue:
            x, y = queue.pop()
            if x in mapping:
                if mapping[x] != y:
                    _undo(added)
                    return None
                continue
            if y in used or ca[x] != cb[y]:
                _undo(added)
                return None
            mapping[x] = y
            used[y] = x
            added.append(x)
            for u in list(mapping):
                for p, q in ((x, u), (u, x)):
                    img = tb[mapping[p]][mapping[q]]
                    src = ta[p][q]
                    if src in mapping:
                        if mapping[src] != img:
                            _undo(added)
                            return None
                    else:
                        queue.append((src, img))
        return added

    def _undo(added):
        for x in added:
            used.pop(mapping.pop(x))

    def search(order_pos):
        if len(mapping) == n:
            return True
        while order_pos < len(order) and order[order_pos] in mapping:
            order_pos += 1
        x = order[order_pos]
        for y in range(n):
            if y not in used and cb[y] == ca[x]:
                added = extend([(x, y)])
                if added is not None:
                    if search(order_pos + 1):
                        return True
                    _undo(added)
        return False

    # constants first, then rarest colors: small branching factors early
    from collections import Counter

    freq = Counter(ca)
    order = sorted(range(n), key=lambda x: (x not in (a.zero, a.one), freq[ca[x]], x))
    seeded = extend([(a.zero, b.zero), (a.one, b.one)])
    if seeded is None:
        return None
    if not search(0):
        return None
    result = dict(mapping)
    for x in range(n):
        for y in range(n):
            if result[ta[x][y]] != tb[result[x]][result[y]]:
                raise ConsistencyError("isomorphism search returned a non-homomorphism")
    return result


def _least_relabeling(table, orders) -> tuple[tuple[int, ...], ...]:
    """The least relabeled table, compared row by row, over `orders`.

    Each order lists the old elements in their new index order.  A
    candidate is dropped at its first row above the best so far.
    """
    n = len(table)
    best = None
    for order in orders:
        to_new = [0] * n
        for new, old in enumerate(order):
            to_new[old] = new
        pick = itemgetter(*order)
        relabel = to_new.__getitem__
        below = best is None
        rows = []
        for i, old in enumerate(order):
            row = tuple(map(relabel, pick(table[old])))
            if not below:
                if row > best[i]:
                    break
                below = row < best[i]
            rows.append(row)
        else:
            if below:
                best = rows
    return tuple(best)


def canonical_form(alg: FiniteAlgebra) -> FiniteAlgebra:
    """Least relabeling: zero at index 0, one at index n-1, middles permuted
    to minimize the flattened table.  Two algebras are isomorphic exactly
    when their canonical forms have equal tables."""
    n = alg.size
    if n == 1:
        return FiniteAlgebra(names=("e0",), table=((0,),), one=0, zero=0)
    middles = [i for i in range(n) if i not in (alg.zero, alg.one)]
    orders = ((alg.zero,) + perm + (alg.one,) for perm in itertools.permutations(middles))
    names = tuple(f"e{i}" for i in range(n))
    return FiniteAlgebra(names=names, table=_least_relabeling(alg.table, orders),
                         one=n - 1, zero=0)


def canonical_key(alg: FiniteAlgebra) -> tuple:
    """The canonical form's table: equal keys mean isomorphic algebras."""
    return canonical_form(alg).table


# -- six-element forbidden subalgebra ----------------------------------------


def find_o6_subalgebra(alg: FiniteAlgebra):
    """A six-element subalgebra isomorphic to the benzene ring, if any.

    Returns (elements, mapping) where elements are the carrier indices of
    the subalgebra and mapping sends them to the benzene table's indices;
    None when no such subalgebra exists.  Closed subsets are enumerated
    first, which is far cheaper than trying injections.
    """
    n = alg.size
    if n < 6:
        return None
    target = catalog.o6()
    rest = [i for i in range(n) if i not in (alg.zero, alg.one)]
    for combo in itertools.combinations(rest, 4):
        subset = frozenset(combo) | {alg.zero, alg.one}
        elems = sorted(subset)
        if any(alg.table[a][b] not in subset for a in elems for b in elems):
            continue
        sub = restrict(alg, subset)
        iso = is_isomorphic(sub, target)
        if iso is not None:
            mapping = {elems[i]: iso[i] for i in range(6)}
            return tuple(elems), mapping
    return None
