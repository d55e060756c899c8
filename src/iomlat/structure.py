"""Structural objects: center, commutor, complement sets, subalgebras,
isomorphism testing and canonical forms.

One algorithm decides isomorphism: a branch-and-bound search for the least
relabeled table (`_canonical_labeling`).  `canonical_form` keeps the table,
and `is_isomorphic` compares two of them and composes the orders that reach
them.  `_least_relabeling`, the exhaustive sweep over relabelings, is the
reference the tests hold it to.

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


def _canonical_labeling(alg: FiniteAlgebra):
    """The least relabeled table and an order reaching it, by branch and bound.

    Least is in `_least_relabeling`'s sense over every order that puts zero
    first and one last.  The search places the old middles at new positions
    1, 2, ... depth first.  With k middles placed, each placed row (zero's
    and the k middles') has a lower bound over every completion: the labels
    of its placed columns, where a value not yet placed counts as k+1, the
    least label still free; then the bounds of its unplaced columns sorted
    ascending, since no arrangement of them is smaller; then its one column.
    A node whose bound on the placed rows is above the best table found so
    far is cut, and children are visited in the order of their bounds (see
    McKay & Piperno, "Practical graph isomorphism, II", J. Symbolic Comput.
    60, 2014).
    """
    n = alg.size
    t, zero, one = alg.table, alg.zero, alg.one
    if n == 1:
        return ((0,),), (zero,)
    best_table = best_order = None

    def search(placed, rest, label):
        nonlocal best_table, best_order
        if not rest:
            order = placed + [one]
            table = [tuple([label[t[r][c]] for c in order]) for r in order]
            if best_table is None or table < best_table:
                best_table, best_order = table, order
            return
        k = len(placed)
        children = []
        for m in rest:
            others = [v for v in rest if v != m]
            child = label[:]
            child[m] = k
            for v in others:
                child[v] = k + 1
            cols = placed + [m]
            bound = [
                tuple([child[t[r][c]] for c in cols]
                      + sorted(child[t[r][c]] for c in others) + [child[t[r][one]]])
                for r in cols
            ]
            children.append((bound, m, others, child))
        children.sort()
        for bound, m, others, child in children:
            if best_table is not None and bound > best_table[:k + 1]:
                break
            search(placed + [m], others, child)

    label = [1] * n
    label[zero], label[one] = 0, n - 1
    search([zero], [i for i in range(n) if i not in (zero, one)], label)
    return tuple(best_table), tuple(best_order)


def canonical_form(alg: FiniteAlgebra) -> FiniteAlgebra:
    """Least relabeling: zero at index 0, one at index n-1, middles placed
    to minimize the table compared row by row, found by branch and bound
    (`_canonical_labeling`).  Two algebras are isomorphic exactly when their
    canonical forms have equal tables."""
    n = alg.size
    names = tuple(f"e{i}" for i in range(n))
    return FiniteAlgebra(names=names, table=_canonical_labeling(alg)[0],
                         one=n - 1, zero=0)


def canonical_key(alg: FiniteAlgebra) -> tuple:
    """The canonical form's table: equal keys mean isomorphic algebras."""
    return canonical_form(alg).table


def is_isomorphic(a: FiniteAlgebra, b: FiniteAlgebra) -> dict[int, int] | None:
    """A bijection preserving ->, one and zero, or None.

    Two algebras are isomorphic exactly when their least relabelings are
    equal; the orders that reach them, composed, are then the bijection.
    """
    n = a.size
    if n != b.size:
        return None
    table_a, order_a = _canonical_labeling(a)
    table_b, order_b = _canonical_labeling(b)
    if table_a != table_b:
        return None
    result = dict(zip(order_a, order_b))
    ta, tb = a.table, b.table
    for x in range(n):
        for y in range(n):
            if result[ta[x][y]] != tb[result[x]][result[y]]:
                raise ConsistencyError("isomorphism search returned a non-homomorphism")
    return result


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
