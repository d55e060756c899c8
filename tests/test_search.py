import functools
import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from iomlat import catalog, modelsearch, structure, terms
from iomlat.axioms import classify
from iomlat.cli import main
from iomlat.errors import ConsistencyError, InputError
from iomlat.modelsearch import (
    EnumerationTask,
    brute_force_models,
    count_models,
    enumerate_models,
    find_counterexample,
    _centralizer,
    _representative_involutions,
)

from conftest import relabeled


def _keys(algs):
    return sorted(set(structure.canonical_key(a) for a in algs))


@pytest.mark.parametrize("klass", ("invbe", "implinvbe", "ioml", "iboolean"))
@pytest.mark.parametrize("size", (2, 3, 4, 5))
def test_search_matches_oracle_involutive_classes(klass, size):
    task = EnumerationTask(size=size, klass=klass, modulo_iso=True)
    assert _keys(enumerate_models(task)) == _keys(brute_force_models(size, klass))


@pytest.mark.parametrize("size", (2, 3, 4, 5))
def test_search_matches_oracle_base_class(size):
    # size 5 sweeps just under two million candidate tables; ~10s
    task = EnumerationTask(size=size, klass="be", modulo_iso=True)
    assert _keys(enumerate_models(task)) == _keys(brute_force_models(size, "be"))


IOML_COUNTS = {2: 1, 3: 0, 4: 1, 5: 0, 6: 1, 7: 0, 8: 2}


def test_ioml_counts_with_regression_values_past_five():
    for size, expected in IOML_COUNTS.items():
        assert count_models(size, "ioml") == expected, size


def test_ioml_counts_past_the_default_cap():
    assert count_models(9, "ioml", max_size=9) == 0
    assert count_models(10, "ioml", max_size=10) == 2
    assert count_models(10, "implinvbe", max_size=10) == 15


def test_size_six_lattice_class_is_exactly_mo2():
    task = EnumerationTask(size=6, klass="ioml")
    models = list(enumerate_models(task))
    assert len(models) == 1
    assert structure.is_isomorphic(models[0], catalog.mo2()) is not None


def test_size_six_implicative_class_contains_hexagon_and_lantern():
    task = EnumerationTask(size=6, klass="implinvbe")
    models = list(enumerate_models(task))
    assert len(models) >= 2
    keys = _keys(models)
    assert structure.canonical_key(catalog.o6()) in keys
    assert structure.canonical_key(catalog.mo2()) in keys


def test_known_small_counts():
    assert count_models(2, "invbe") == 1
    assert count_models(3, "invbe") == 1  # the self-complemented chain
    assert count_models(4, "invbe") == 5
    assert count_models(5, "invbe") == 14
    assert count_models(2, "iboolean") == 1
    assert count_models(4, "iboolean") == 1
    assert count_models(6, "iboolean") == 0
    assert count_models(3, "be") == 3
    assert count_models(4, "be") == 41
    assert count_models(5, "be") == 1564


def test_dedup_invariant():
    with_iso = list(enumerate_models(EnumerationTask(size=4, klass="invbe", modulo_iso=True)))
    without = list(enumerate_models(EnumerationTask(size=4, klass="invbe", modulo_iso=False)))
    assert _keys(with_iso) == _keys(without)
    keys = [structure.canonical_key(a) for a in with_iso]
    assert len(keys) == len(set(keys))
    assert len(without) >= len(with_iso)


ROUTE_CASES = (
    [("be", n) for n in range(2, 6)]
    + [("invbe", n) for n in range(2, 7)]
    + [("implinvbe", n) for n in range(2, 7)]
    + [(k, n) for k in ("ioml", "iboolean") for n in range(2, 9)]
)


@pytest.mark.parametrize("klass,size", ROUTE_CASES)
def test_representative_route_matches_labeled_route(klass, size):
    # modulo isomorphism the search runs one involution per conjugacy class
    # and keeps the tables least under its centralizer (`be`: under every
    # relabeling of the middles); the labeled route runs them all
    iso = EnumerationTask(size=size, klass=klass, modulo_iso=True)
    labeled = EnumerationTask(size=size, klass=klass, modulo_iso=False)
    assert [a.table for a in enumerate_models(iso)] == _keys(enumerate_models(labeled))


@pytest.mark.parametrize("size", range(2, 11))
def test_one_representative_involution_per_fixed_point_count(size):
    reps = _representative_involutions(size)
    counts = [sum(s[a] == a for a in range(1, size - 1)) for s in reps]
    assert sorted(counts) == list(range(size % 2, size - 1, 2))
    for sigma in reps:
        assert all(sigma[sigma[a]] == a for a in range(size))
        assert (sigma[0], sigma[size - 1]) == (size - 1, 0)


@pytest.mark.parametrize("size", (6, 8, 10))
def test_centralizer_is_the_whole_commuting_group(size):
    for sigma in _representative_involutions(size):
        fixed = sum(sigma[a] == a for a in range(1, size - 1))
        pairs = (size - 2 - fixed) // 2
        group = _centralizer(sigma)
        order = math.factorial(fixed) * math.factorial(pairs) * 2 ** pairs
        assert len(group) == len(set(group)) == order
        for g in group:
            assert (g[0], g[size - 1]) == (0, size - 1)
            assert all(g[sigma[a]] == sigma[g[a]] for a in range(size))


@functools.lru_cache(maxsize=None)
def _emitted(klass, size):
    return tuple(enumerate_models(EnumerationTask(size=size, klass=klass)))


@pytest.mark.parametrize("klass,size", (("be", 4), ("be", 5), ("invbe", 5), ("implinvbe", 6),
                                        ("implinvbe", 8), ("ioml", 8)))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_canonical_form_undoes_any_relabeling(klass, size, data):
    # one drawn seed relabels every model: be n=5 has 1564 of them, too
    # many separate draws for one example
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
    for alg in _emitted(klass, size):
        perm = rng.sample(range(size), size)
        assert structure.canonical_form(relabeled(alg, perm)).table == alg.table


SEARCHER_CASES = (
    [("be", n) for n in range(2, 6)]
    + [("invbe", n) for n in range(2, 7)]
    + [(k, n) for k in ("implinvbe", "ioml", "iboolean") for n in range(2, 9)]
)


@pytest.mark.parametrize("klass,size", SEARCHER_CASES)
def test_canonical_labeling_matches_the_exhaustive_sweep(klass, size):
    # every emitted model and a relabeled copy of it, with 0 and 1 moved
    rng = random.Random(f"{klass}{size}")
    for model in _emitted(klass, size):
        for alg in (model, relabeled(model, rng.sample(range(size), size))):
            table, order = structure._canonical_labeling(alg)
            middles = [i for i in range(size) if i not in (alg.zero, alg.one)]
            orders = ((alg.zero,) + p + (alg.one,) for p in itertools.permutations(middles))
            assert table == structure._least_relabeling(alg.table, orders)
            assert structure._least_relabeling(alg.table, [order]) == table


@pytest.mark.parametrize("klass,size", [("implinvbe", n) for n in range(2, 9)] + [("invbe", 5)])
def test_distinct_models_are_not_isomorphic(klass, size):
    models = _emitted(klass, size)
    for a, b in itertools.combinations(models, 2):
        assert structure.is_isomorphic(a, b) is None
    for a in models:
        assert structure.is_isomorphic(a, a) is not None


def test_groups_are_built_only_for_accepted_frames(monkeypatch):
    built = []

    def recording(sigma):
        built.append(sigma)
        return _centralizer(sigma)

    monkeypatch.setattr(modelsearch, "_centralizer", recording)
    assert len(list(enumerate_models(EnumerationTask(size=8, klass="implinvbe")))) == 5
    searcher = modelsearch._Searcher(8, "implinvbe", "row-major")
    reps = _representative_involutions(8)
    accepted = [s for s in reps if searcher._init_table(s) is not None]
    assert built == accepted
    assert 0 < len(accepted) < len(reps)


@pytest.mark.parametrize("klass,size", SEARCHER_CASES)
def test_orderly_search_keeps_exactly_the_least_tables(klass, size):
    # the pruned search yields, in order, the distinct least relabelings of
    # the unpruned search's leaves, whatever order it fills the cells in
    sigmas = [None] if klass == "be" else _representative_involutions(size)
    for sigma in sigmas:
        group = modelsearch._symmetry_group(size, sigma)
        unpruned = modelsearch._Searcher(size, klass, "row-major").run(sigma)
        least = sorted(set(structure._least_relabeling(t, group) for t in unpruned))
        pruned = list(modelsearch._Searcher(size, klass, "row-major").run(sigma, group))
        assert pruned == least, sigma
        for table in pruned:
            assert structure._least_relabeling(table, group) == table
        cols = modelsearch._Searcher(size, klass, "column-major").run(sigma, group)
        assert sorted(cols) == least, sigma


def test_cell_order_does_not_change_the_model_set():
    base = EnumerationTask(size=5, klass="invbe")
    cols = EnumerationTask(size=5, klass="invbe", cell_order="column-major")
    assert [a.table for a in enumerate_models(base)] == [a.table for a in enumerate_models(cols)]


def test_enumeration_is_deterministic():
    task = EnumerationTask(size=5, klass="invbe")
    first = [a.table for a in enumerate_models(task)]
    second = [a.table for a in enumerate_models(task)]
    assert first == second


def test_emitted_models_are_classified_in_class():
    for alg in enumerate_models(EnumerationTask(size=4, klass="invbe")):
        assert classify(alg).is_involutive_be


# b4 in the search labeling with a -> b = 1: still a bounded involutive BE
# table, but (b -> a) -> b = a breaks implicativity
_NOT_IMPLICATIVE = ((3, 3, 3, 3), (2, 3, 3, 3), (1, 1, 3, 3), (0, 1, 2, 3))


@pytest.mark.parametrize("modulo_iso", (True, False))
def test_emission_check_rejects_a_table_outside_the_class(monkeypatch, capsys, modulo_iso):
    monkeypatch.setattr(modelsearch._Searcher, "run",
                        lambda self, sigma, group: iter([_NOT_IMPLICATIVE]))
    task = EnumerationTask(size=4, klass="implinvbe", modulo_iso=modulo_iso)
    with pytest.raises(ConsistencyError, match="failing: IMPL$"):
        list(enumerate_models(task))
    argv = ["enumerate", "--size", "4", "--class", "implinvbe"]
    assert main(argv + ["--modulo-iso"] * modulo_iso) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: search emitted a table outside class 'implinvbe'; "
                            "failing: IMPL\n")


def test_task_validation():
    with pytest.raises(InputError):
        EnumerationTask(size=9, klass="ioml")
    with pytest.raises(InputError):
        EnumerationTask(size=1, klass="ioml")
    with pytest.raises(InputError):
        EnumerationTask(size=4, klass="boolean")
    EnumerationTask(size=9, klass="ioml", max_size=9)  # explicit cap raise is fine


def test_counterexample_commutation_symmetry():
    found = find_counterexample("x C y |- y C x", "implinvbe", 6)
    assert found is not None
    alg, witness = found
    assert alg.size == 6
    assert structure.is_isomorphic(alg, catalog.o6()) is not None
    stmt = terms.parse_statement("x C y |- y C x")
    env = witness
    assert terms.atom_holds(stmt.hypotheses[0], alg, env)
    assert not terms.atom_holds(stmt.conclusion, alg, env)


def test_counterexample_distributivity_on_the_lattice_class():
    found = find_counterexample(
        "((x' -> y) -> z')' = (x -> z') -> (y -> z')'", "ioml", 6)
    assert found is not None
    alg, _ = found
    assert alg.size == 6
    assert structure.is_isomorphic(alg, catalog.mo2()) is not None


def test_no_counterexample_to_reflexivity():
    assert find_counterexample("x -> x = 1", "be", 4) is None


def test_counterexample_arrow_transitivity():
    found = find_counterexample("x <= y, y <= z |- x <= z", "invbe", 6)
    assert found is not None
    alg, witness = found
    assert alg.size <= 6
    x, y, z = witness["x"], witness["y"], witness["z"]
    assert alg.le(x, y) and alg.le(y, z) and not alg.le(x, z)


def test_global_commutation_forces_the_lattice_class():
    for n in (2, 3, 4, 5, 6):
        for alg in enumerate_models(EnumerationTask(size=n, klass="implinvbe")):
            all_commute = all(
                alg.commutes(a, b)
                for a in range(alg.size) for b in range(alg.size)
            )
            if all_commute:
                assert classify(alg).is_ioml


def test_every_size_six_implicative_model_keeps_the_pairing_identity():
    # spot check: an independent law holds across the whole enumerated slice
    for alg in enumerate_models(EnumerationTask(size=6, klass="implinvbe")):
        assert terms.holds(
            "(x1 -> y1')' -> (x2 -> y2') = (x1 -> x2')' -> (y1 -> y2')", alg).ok
