import random

import pytest
from hypothesis import given, settings, strategies as st

from iomlat import bank, terms
from iomlat.algebras import RelationKind
from iomlat.axioms import AXIOM_SOURCES
from iomlat.errors import InputError, ParseError

import oracle_eval
from conftest import ALG_FIXTURES, load_alg, relabeled


def test_parse_nested_arrow():
    t = terms.parse("x -> (y -> x)")
    assert t == terms.Imp(terms.Var("x"), terms.Imp(terms.Var("y"), terms.Var("x")))


def test_parse_distributivity_equation():
    eq = terms.parse("((x' -> y) -> z')' = (x -> z') -> (y -> z')'")
    assert isinstance(eq, terms.Equation)
    assert eq.vars == ("x", "y", "z")
    assert isinstance(eq.lhs, terms.Neg)


def test_parse_quasi_identity():
    qi = terms.parse("x <=l y |- x <=q y")
    assert isinstance(qi, terms.QuasiIdentity)
    assert len(qi.hypotheses) == 1
    assert qi.vars == ("x", "y")


def test_bare_relation_is_hypothesis_free_quasi():
    qi = terms.parse("x C x")
    assert isinstance(qi, terms.QuasiIdentity)
    assert qi.hypotheses == ()


def test_arrow_is_right_associative_and_loose():
    assert terms.parse("x -> y -> z") == terms.parse("x -> (y -> z)")
    assert terms.parse("x & y -> z") == terms.Imp(
        terms.Cap(terms.Var("x"), terms.Var("y")), terms.Var("z")
    )


def test_junctions_left_associative():
    assert terms.parse("x & y & z") == terms.Cap(
        terms.Cap(terms.Var("x"), terms.Var("y")), terms.Var("z")
    )


def test_postfix_negation_binds_tightest():
    assert terms.parse("x' -> y") == terms.Imp(terms.Neg(terms.Var("x")), terms.Var("y"))
    assert terms.parse("x''") == terms.Neg(terms.Neg(terms.Var("x")))


def test_mixing_junctions_needs_parens():
    with pytest.raises(ParseError) as err:
        terms.parse("x & y | z")
    assert err.value.offset == 6
    terms.parse("(x & y) | z")  # parenthesized mixing is fine


def test_reserved_commutation_symbol():
    with pytest.raises(ParseError):
        terms.parse("C -> x")


def test_relation_suffix_does_not_eat_identifiers():
    from iomlat.algebras import RelationKind

    claim = terms.parse("x <= qz")
    assert claim.conclusion.kind is RelationKind.LE
    assert claim.conclusion.rhs == terms.Var("qz")
    assert terms.parse("x <=q y").conclusion.kind is RelationKind.LE_Q
    assert terms.parse("x <=l y0").conclusion.kind is RelationKind.LE_L


def test_error_offsets_are_bytes():
    with pytest.raises(ParseError) as err:
        terms.parse("x -> $")
    assert err.value.offset == 5
    with pytest.raises(ParseError) as err:
        terms.parse("x =")
    assert err.value.offset == 3


def test_error_offsets_count_wide_whitespace():
    with pytest.raises(ParseError) as err:
        terms.parse("x\u00a0-> $")
    assert err.value.offset == 6
    with pytest.raises(ParseError) as err:
        terms.parse("x\u3000=")
    assert err.value.offset == 5


def test_unbound_variable(b2):
    with pytest.raises(InputError):
        terms.evaluate(terms.parse_term("x -> y"), b2, {"x": 0})


@pytest.mark.parametrize("env", [{"x": 0}, {"x": 0, "y": -1}, {"x": 0, "y": 2}])
@pytest.mark.parametrize("src", ["x -> y", "y", "x = y", "x C y"])
def test_a_bad_assignment_is_an_input_error(b2, env, src):
    # unbound variables and indices outside 0..n-1, including a negative
    # index that a tuple lookup would otherwise wrap
    parsed = terms.parse(src)
    with pytest.raises(InputError):
        if isinstance(parsed, terms.QuasiIdentity):
            terms.atom_holds(parsed.conclusion, b2, env)
        elif isinstance(parsed, terms.Equation):
            terms.atom_holds(parsed, b2, env)
        else:
            terms.evaluate(parsed, b2, env)


_DEEP = {
    "parentheses": lambda d: "(" * d + "x" + ")" * d,
    "arrows": lambda d: "x" + " -> x" * d,
    "primes": lambda d: "x" + "'" * d,
    "meets": lambda d: "x" + " & x" * d,
}
# byte offset of the token that crosses the bound at depth MAX_DEPTH + 1
_DEEP_OFFSET = {
    "parentheses": terms.MAX_DEPTH,
    "arrows": 2 + 5 * terms.MAX_DEPTH,
    "primes": 1 + terms.MAX_DEPTH,
    "meets": 2 + 4 * terms.MAX_DEPTH,
}


@pytest.mark.parametrize("shape", sorted(_DEEP))
def test_nesting_bound(shape, b2):
    make = _DEEP[shape]
    t = terms.parse_term(make(terms.MAX_DEPTH))
    assert terms.parse_term(terms.format_term(t)) == t
    terms.evaluate(t, b2, {"x": b2.one})
    for depth in (terms.MAX_DEPTH + 1, 1000, 3000):
        with pytest.raises(ParseError) as err:
            terms.parse_statement(make(depth) + " = x")
        assert err.value.offset == _DEEP_OFFSET[shape]
        assert f"nested deeper than {terms.MAX_DEPTH} levels" in str(err.value)


# -- printing -----------------------------------------------------------------


@pytest.mark.parametrize(
    "src",
    [
        "x -> (y -> x)",
        "((x' -> y) -> z')' = (x -> z') -> (y -> z')'",
        "x <=l y |- x <=q y",
        "x C x",
        "x <= y, y <= z |- x <= z",
        "x -> y' = 1, x' -> y = 1 |- (y -> (y -> x')') -> (y' -> x)' = y",
        "0 -> x = 1",
        "x | (y & z)",
    ],
)
def test_print_parse_round_trip(src):
    first = terms.parse(src)
    printed = terms.format_statement(first)
    assert terms.parse(printed) == first


_names = st.sampled_from(["x", "y", "z", "u", "v"])


def _term_strategy():
    leaf = st.one_of(_names.map(terms.Var), st.sampled_from([0, 1]).map(terms.Const))
    return st.recursive(
        leaf,
        lambda inner: st.one_of(
            inner.map(terms.Neg),
            st.tuples(inner, inner).map(lambda p: terms.Imp(*p)),
            st.tuples(inner, inner).map(lambda p: terms.Cap(*p)),
            st.tuples(inner, inner).map(lambda p: terms.Cup(*p)),
        ),
        max_leaves=12,
    )


@given(_term_strategy())
def test_random_term_round_trip(t):
    assert terms.parse(terms.format_term(t)) == t


@given(st.tuples(_term_strategy(), _term_strategy()))
def test_random_equation_round_trip(pair):
    eq = terms.Equation(pair[0], pair[1])
    assert terms.parse(terms.format_statement(eq)) == eq


# -- evaluation ---------------------------------------------------------------


def test_evaluate_basic_examples(o6, b2):
    x = o6.index("x")
    assert terms.evaluate(terms.parse_term("x & 1"), o6, {"x": x}) == x
    assert terms.evaluate(terms.parse_term("0"), b2, {}) == b2.zero
    assert terms.holds("x -> (y -> x) = 1", o6).ok
    assert terms.holds("x -> (y -> x) = 1", b2).ok


def test_evaluate_matches_hand_composites_on_random_samples():
    rng = random.Random(20260810)
    algs = [load_alg(name) for name in ALG_FIXTURES]
    neg_t = terms.parse_term("x'")
    cup_t = terms.parse_term("x | y")
    cap_t = terms.parse_term("x & y")
    for _ in range(1000):
        alg = rng.choice(algs)
        a = rng.randrange(alg.size)
        b = rng.randrange(alg.size)
        env = {"x": a, "y": b}
        assert terms.evaluate(neg_t, alg, env) == alg.neg(a)
        assert terms.evaluate(cup_t, alg, env) == alg.cup(a, b)
        assert terms.evaluate(cap_t, alg, env) == alg.cap(a, b)


def test_divisibility_fails_on_o6_with_first_witness(o6):
    res = terms.holds("x -> (x -> y)' = x -> y'", o6)
    assert not res.ok
    # lexicographically first failing assignment
    stmt = terms.parse_statement("x -> (x -> y)' = x -> y'")
    for values in _assignments_before(res.witness, stmt.vars, o6.size):
        assert terms.atom_holds(stmt, o6, values)


def _assignments_before(witness, vars, size):
    import itertools

    target = tuple(witness[v] for v in vars)
    for values in itertools.product(range(size), repeat=len(vars)):
        if values == target:
            return
        yield dict(zip(vars, values))


def test_exchange_axiom_holds_on_o6(o6):
    assert terms.holds("x -> (y -> z) = y -> (x -> z)", o6).ok


@pytest.mark.parametrize("name", ("b2", "b4", "b8", "mo2", "o6", "l3"))
def test_pairing_identity_on_involutive_fixtures(name):
    alg = load_alg(name)
    assert terms.holds(
        "(x1 -> y1')' -> (x2 -> y2') = (x1 -> x2')' -> (y1 -> y2')", alg
    ).ok


@pytest.mark.parametrize("name", ALG_FIXTURES)
@pytest.mark.parametrize(
    "src",
    [
        "x -> (x -> y)' = x -> y'",
        "x <=l y |- x <=q y",
        "x <=q y, y <=q x |- x = y",
        "x C y |- y C x",
        "x & (y -> x) = x",
        "x <= (x -> y) -> y",
        "x -> ((y -> x')' | z) = y | (x -> z)",
    ],
)
def test_holds_agrees_with_brute_force(name, src):
    alg = load_alg(name)
    stmt = terms.parse_statement(src)
    assert terms.holds(stmt, alg).ok == oracle_eval.brute_holds(stmt, alg)


# every axiom and bank statement, once each
_SWEPT = tuple(dict.fromkeys(
    [terms.parse_statement(src) for sources in AXIOM_SOURCES.values() for src in sources]
    + [terms.parse_statement(src)
       for _, src in terms.iter_statement_lines("\n".join(bank.statement_lines()))]
))


def _oracle_fails_at(stmt, alg, env):
    """The oracle's verdict at one assignment, from its atom evaluator."""
    if isinstance(stmt, terms.Equation):
        return not oracle_eval._atom(stmt, alg, env)
    return (all(oracle_eval._atom(h, alg, env) for h in stmt.hypotheses)
            and not oracle_eval._atom(stmt.conclusion, alg, env))


@pytest.mark.parametrize("name", ALG_FIXTURES)
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_holds_matches_the_oracle_under_relabeling(name, data):
    base = load_alg(name)
    # a whole-carrier relabeling: zero and one move too
    alg = relabeled(base, data.draw(st.permutations(range(base.size))))
    for stmt in _SWEPT:
        res = terms.holds(stmt, alg)
        assert res.ok == oracle_eval.brute_holds(stmt, alg), terms.format_statement(stmt)
        if not res.ok:
            assert list(res.witness) == list(stmt.vars)
            assert _oracle_fails_at(stmt, alg, res.witness)
            for env in _assignments_before(res.witness, stmt.vars, alg.size):
                assert not _oracle_fails_at(stmt, alg, env)


# statements at the edges of the compiled sweep's code generation
_EDGES = (
    "0 -> 0 = 1",  # no variables, holds
    "1 = 0",  # no variables, fails with the empty witness
    "0 = 1 |- x = y",  # a closed false hypothesis
    "x = 1 |- x & y = y",  # a hypothesis on the first variable only
    "x <=l 0, y C x |- z -> x = 1",
    "(x -> y) & (x -> y)' = ((x -> y) -> y) -> ((x -> y) -> y)",  # repeated subterms
    *(f"x {rel} y |- y {rel} x" for rel in ("<=", "<=q", "<=l", "C")),
    *(f"x {rel} (y -> x')" for rel in ("<=", "<=q", "<=l", "C")),
    "x" + " -> y" * terms.MAX_DEPTH + " = 1",  # terms at MAX_DEPTH
    "x" + " & y" * terms.MAX_DEPTH + " = x",
    "x" + "'" * terms.MAX_DEPTH + " = x",
    "T & N <= ZERO, R C ONE |- def -> __import__ = sweep",  # names the generated code uses
    "T -> N = def | __import__",
)


def _both_sweeps(stmt, alg):
    """The closure and the compiled sweep's first failing assignment."""
    closures = terms._sweep_closures(stmt, alg)
    compiled = terms._sweep_compiled(terms._compile_sweep(stmt), alg)
    return closures, compiled


def _holds_result(stmt, failing):
    return terms.HoldsResult(True) if failing is None else \
        terms.HoldsResult(False, dict(zip(stmt.vars, failing)))


@pytest.mark.parametrize("name", ALG_FIXTURES)
def test_both_sweeps_agree_with_each_other_and_the_oracle(name):
    base = load_alg(name)
    rng = random.Random(f"sweeps {name}")
    algs = [base] + [relabeled(base, rng.sample(range(base.size), base.size)) for _ in range(3)]
    for alg in algs:
        for stmt in _SWEPT + tuple(terms.parse_statement(src) for src in _EDGES):
            closures, compiled = _both_sweeps(stmt, alg)
            expected = _holds_result(stmt, closures)
            assert _holds_result(stmt, compiled) == expected, terms.format_statement(stmt)
            assert expected.ok == oracle_eval.brute_holds(stmt, alg)
            assert terms.holds(stmt, alg) == expected


_relation_kinds = st.sampled_from(list(RelationKind))


def _atom_strategy():
    pair = st.tuples(_term_strategy(), _term_strategy())
    return st.one_of(
        pair.map(lambda p: terms.Equation(*p)),
        st.tuples(_relation_kinds, pair).map(lambda k: terms.Relation(k[0], *k[1])),
    )


@settings(max_examples=150, deadline=None)
@given(hypotheses=st.lists(_atom_strategy(), max_size=2), conclusion=_atom_strategy(),
       name=st.sampled_from(ALG_FIXTURES))
def test_both_sweeps_agree_on_random_statements(hypotheses, conclusion, name):
    alg = load_alg(name)
    if not hypotheses and isinstance(conclusion, terms.Equation):
        stmt = conclusion
    else:
        stmt = terms.QuasiIdentity(tuple(hypotheses), conclusion)
    closures, compiled = _both_sweeps(stmt, alg)
    assert compiled == closures
    assert (closures is None) == oracle_eval.brute_holds(stmt, alg)


def test_holds_compiles_a_statement_once_its_work_pays_for_it(b2, b8):
    terms._sweep_of.cache_clear()
    stmt = terms.parse_statement("x -> (y -> z') = y -> (x -> z')")
    sweep = terms._sweep_of(stmt)
    assert (sweep.nodes, sweep.work, sweep.code) == (12, 0, None)
    terms.holds(stmt, b2)  # 2^3 assignments: closures
    assert (sweep.work, sweep.code) == (8 * 12, None)
    terms.holds(stmt, b8)  # 8^3 more: past _COMPILE_AT, compiled
    assert 8 * 12 < terms._COMPILE_AT <= (8 + 512) * 12
    assert sweep.code is not None
    assert terms.holds(stmt, b8) == _holds_result(stmt, terms._sweep_closures(stmt, b8))


def test_twenty_variables_compile_and_twenty_one_are_swept_by_closures(b2):
    chain = lambda k: " -> ".join(f"x{i}" for i in range(1, k + 1)) + " = 0"
    twenty = terms.parse_statement(chain(20))
    assert _both_sweeps(twenty, b2) == ((0,) * 20, (0,) * 20)
    wide = terms.parse_statement(chain(21))
    before = terms._sweep_of.cache_info()
    assert terms.holds(wide, b2) == terms.HoldsResult(False, dict.fromkeys(wide.vars, 0))
    assert terms._sweep_of.cache_info() == before  # never tracked, never compiled


def test_the_sweep_cache_is_bounded(b2):
    for i in range(5000):
        terms.holds(f"x{i} -> x{i} = 1", b2)
    assert terms._sweep_of.cache_info().currsize == terms._SWEEP_CACHE_SIZE


def test_statement_file_lines():
    text = "# header\n\nx -> x = 1\n  x C y |- y C x  # tail\n"
    lines = list(terms.iter_statement_lines(text))
    assert lines == [(3, "x -> x = 1"), (4, "x C y |- y C x")]
