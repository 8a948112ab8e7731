import itertools
import math
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import hypergraphs, random_hypergraph, table_evaluate
from zolab.folang import (
    And,
    Atom,
    Eq,
    Exists,
    Forall,
    FormulaSyntaxError,
    Implies,
    Not,
    Or,
    build_dist_at_most,
    build_dist_exact,
    build_dist_pair,
    build_theorem6_L,
    build_theorem8_L,
    compile,
    evaluate,
    free_variables,
    parse,
    quantifier_depth,
    random_formula,
    to_text,
)
from zolab.hypercore import Hypergraph, distance

EDGE = Hypergraph.make(3, [1, 2, 3], [(1, 2, 3)])
H1 = Hypergraph.make(3, range(1, 5), [(1, 2, 3), (3, 4, 1)])


def test_parse_examples():
    f = parse("exists x exists y exists z N(x,y,z)")
    assert f == Exists("x", Exists("y", Exists("z", Atom(("x", "y", "z")))))
    g = parse("x = y & !(N(x,y,z))")
    assert g == And(Eq("x", "y"), Not(Atom(("x", "y", "z"))))


def test_parse_precedence_and_errors():
    f = parse("a = b | c = d & e = f -> g = h")
    assert isinstance(f, Implies)
    assert isinstance(f.left, Or)
    assert isinstance(f.left.right, And)
    f2 = parse("a = b -> b = c -> c = d")
    assert isinstance(f2.right, Implies)
    with pytest.raises(FormulaSyntaxError):
        parse("exists x")
    with pytest.raises(FormulaSyntaxError):
        parse("N(x,y,z) extra")
    with pytest.raises(FormulaSyntaxError):
        parse("N(x,y,z) & N(x,y)")  # inconsistent arity
    with pytest.raises(FormulaSyntaxError):
        parse("exists N x = x")     # N is reserved


def test_print_parse_round_trip_random():
    rng = random.Random(123456)
    for _ in range(1000):
        f = random_formula(rng, s=3, max_depth=3)
        assert parse(to_text(f)) == f


def test_quantifier_depth_examples():
    assert quantifier_depth(Atom(("x", "y", "z"))) == 0
    assert quantifier_depth(build_dist_at_most(1, 3)) == 1
    assert quantifier_depth(build_dist_at_most(4, 3)) == 3
    assert quantifier_depth(build_dist_exact(8, 4)) == 5


def test_dist_depth_formula_grid():
    for s in (3, 4, 5):
        for i in range(1, 33):
            want = math.ceil(math.log2(i)) + s - 2
            assert quantifier_depth(build_dist_at_most(i, s)) == want
            assert quantifier_depth(build_dist_exact(i, s)) == want


def test_evaluate_examples():
    sat = parse("exists x exists y exists z N(x,y,z)")
    assert evaluate(sat, EDGE)
    assert not evaluate(sat, Hypergraph.make(3, range(1, 4), []))
    d2 = build_dist_exact(2, 3, "u", "v")
    assert evaluate(d2, H1, {"u": 2, "v": 4})
    assert not evaluate(build_dist_at_most(1, 3, "u", "v"), H1, {"u": 2, "v": 4})
    with pytest.raises(ValueError):
        evaluate(d2, H1, {"u": 2})  # unbound free variable
    with pytest.raises(ValueError):
        evaluate(parse("exists x exists y exists z exists w N(x,y,z,w)"), EDGE)


def test_dist_semantics_match_bfs():
    rng = random.Random(777)
    hosts = [random_hypergraph(rng, rng.randint(3, 6), p=0.35) for _ in range(12)]
    for g in hosts:
        verts = sorted(g.vertices)
        for i in (1, 2, 3):
            at_most = build_dist_at_most(i, 3, "u", "v")
            exact = build_dist_exact(i, 3, "u", "v")
            for x, y in itertools.product(verts, repeat=2):
                d = distance(g, x, y)
                env = {"u": x, "v": y}
                assert evaluate(at_most, g, env) == (d <= i)
                assert evaluate(exact, g, env) == (d == i)


def test_dist_pair_semantics():
    f = build_dist_pair(1, 1, 3, "x", "y", "z")
    assert free_variables(f) == {"x", "y", "z"}
    # midpoint of the two edges of H1: vertex 1 and 3 are at distance 1 of both 2, 4
    assert evaluate(f, H1, {"x": 2, "y": 4, "z": 3})
    assert evaluate(f, H1, {"x": 2, "y": 4, "z": 1})
    assert not evaluate(f, H1, {"x": 2, "y": 4, "z": 2})


def test_memo_matches_no_memo():
    rng = random.Random(31)
    for _ in range(60):
        f = random_formula(rng, s=3, max_depth=3)
        g = random_hypergraph(rng, rng.randint(3, 5), p=0.4)
        assert evaluate(f, g, memo=True) == evaluate(f, g, memo=False)


NAMES = ("x", "y", "z", "w")


@st.composite
def _formulas(draw, s: int, depth: int = 3, size: int = 2, scope: tuple = ()):
    """Formulas over four names that start with a quantifier.  `scope` lists
    the variables of the enclosing quantifiers, innermost last: quantifiers
    often rebind one of them, and atoms and equalities, which mostly have
    distinct arguments, often start with the innermost."""
    kinds = ["exists", "forall"] * 2 * (depth > 0)
    if scope:
        kinds += ["atom", "eq"] + ["and", "or", "implies", "not"] * (size > 0)
    kind = draw(st.sampled_from(kinds))
    name = st.sampled_from(NAMES)
    if kind in ("atom", "eq"):
        arity = s if kind == "atom" else 2
        args = draw(st.one_of(st.permutations(NAMES).map(lambda p: list(p[:arity])),
                              st.lists(name, min_size=arity, max_size=arity)))
        if scope[-1] not in args and draw(st.booleans()):
            args[0] = scope[-1]
        return Atom(tuple(args)) if kind == "atom" else Eq(*args)
    if kind in ("exists", "forall"):
        var = draw(st.one_of(name, st.sampled_from(scope))) if scope else draw(name)
        body = draw(_formulas(s, depth - 1, size, scope + (var,)))
        return Exists(var, body) if kind == "exists" else Forall(var, body)
    if kind == "not":
        return Not(draw(_formulas(s, depth, size - 1, scope)))
    op = {"and": And, "or": Or, "implies": Implies}[kind]
    return op(draw(_formulas(s, depth, size - 1, scope)),
              draw(_formulas(s, depth, size - 1, scope)))


@settings(max_examples=500, deadline=None, derandomize=True)
@given(st.data())
def test_compiled_runs_match_table_oracle(data):
    # one compiled formula run over several hosts must answer each host as a
    # fresh evaluation does: quantifier guards and memo tables are per host
    s = data.draw(st.sampled_from((3, 4)))
    n = data.draw(st.integers(0, 6))
    f = data.draw(_formulas(s))
    free = sorted(free_variables(f))
    assume(n > 0 or not free)
    env = {v: data.draw(st.integers(1, n)) for v in free}
    compiled = compile(f)
    for g in data.draw(st.lists(hypergraphs(s, n), min_size=1, max_size=3)):
        want = table_evaluate(f, g, env)
        assert evaluate(f, g, env) == want
        assert evaluate(f, g, env, memo=False) == want
        assert evaluate(compiled, g, env) == want


@settings(max_examples=500, deadline=None, derandomize=True)
@given(st.data())
def test_print_parse_round_trip(data):
    # rebound names, repeated atom arguments and `!` over `=` must print to
    # text that parses back to the same tree
    f = data.draw(_formulas(data.draw(st.sampled_from((2, 3, 4)))))
    assert parse(to_text(f)) == f


def test_shadowed_guard_partner():
    # the cheapest guard for x, y = x, sits under a quantifier that rebinds y:
    # it must give way to N(x,y,z)'s guard on the outer y
    f = parse("exists x ((exists y (y = x & (exists w N(y,w,z)))) & N(x,y,z))")
    g = Hypergraph.make(3, range(1, 6), [(1, 2, 3), (3, 4, 5)])
    for y, z in itertools.product(range(1, 6), repeat=2):
        env = {"y": y, "z": z}
        assert evaluate(f, g, env) == table_evaluate(f, g, env)


def test_evaluator_against_table_oracle_sample():
    rng = random.Random(8)
    for _ in range(120):
        f = random_formula(rng, s=3, max_depth=3)
        g = random_hypergraph(rng, rng.randint(3, 5), p=0.4)
        assert evaluate(f, g) == table_evaluate(f, g)


def test_evaluation_isomorphism_invariant():
    rng = random.Random(2718)
    for _ in range(30):
        f = random_formula(rng, s=3, max_depth=3)
        g = random_hypergraph(rng, 5, p=0.4)
        perm = list(g.vertices)
        rng.shuffle(perm)
        relabeled = g.relabel(dict(zip(sorted(g.vertices), perm)))
        assert evaluate(f, g) == evaluate(f, relabeled)


def test_builders_referentially_transparent():
    assert build_dist_at_most(6, 3) == build_dist_at_most(6, 3)
    assert build_theorem6_L(3, 8) == build_theorem6_L(3, 8)
    assert build_theorem8_L(3, 4) == build_theorem8_L(3, 4)
    assert build_theorem8_L(3, 6, 3, 2) == build_theorem8_L(3, 6, 3, 2)


def test_builder_parameter_validation():
    with pytest.raises(ValueError):
        build_dist_at_most(0, 3)
    with pytest.raises(ValueError):
        build_theorem6_L(3, 7)  # needs k >= s + 5
    with pytest.raises(ValueError):
        build_theorem8_L(3, 4, 1, 1)  # fixed parameters for k = s + 1
    with pytest.raises(ValueError):
        build_theorem8_L(3, 5, 5, 1)  # a1 out of range
    with pytest.raises(ValueError):
        build_theorem8_L(3, 5, 1, 1)  # a = -1


def test_theorem6_builder_shape():
    f = build_theorem6_L(3, 8)
    assert free_variables(f) == frozenset()
    assert quantifier_depth(f) <= 8
    assert not evaluate(f, Hypergraph.make(3, range(1, 11), []))
    # k = s + 6 gives l = 2 with the branching disjunction present
    f2 = build_theorem6_L(3, 9)
    assert free_variables(f2) == frozenset()
    assert quantifier_depth(f2) <= 9


def test_theorem6_r2_free_variables():
    # dig out the negated branching subformula and check the R-part frees
    f = build_theorem6_L(3, 8)
    q = f.body.body.left  # Exists a -> Exists b -> And(q1, q2); q1
    neg = q.right
    inner = neg.body.body.body  # Not -> Exists u1 -> Exists u2 -> body
    # last conjunct of the chain is the branch disjunction
    branch = inner
    while isinstance(branch, And):
        branch = branch.right
    frees = free_variables(branch)
    assert frees <= {"a", "b", "u1", "u2"}
    assert {"u1", "u2"} <= frees
    # at l = 1 the disjunction is Or(R2(a), R2(b)); R2(a) frees exactly a,u1,u2
    assert isinstance(branch, Or)
    assert free_variables(branch.left) == {"a", "u1", "u2"}
    assert free_variables(branch.right) == {"b", "u1", "u2"}


def test_theorem6_builder_semantics_on_witnesses():
    from zolab.constructions import _Labels, _path_between, theorem6_pair
    w = theorem6_pair(3, 1, 2)
    L = build_theorem6_L(3, 8)
    # the bare bundle satisfies L; so does the outer graph, whose single hub
    # covers only half the midpoints and cannot realize the negated clause
    assert evaluate(L, w.h)
    assert evaluate(L, w.g)
    # covering the remaining midpoints with a second hub provides the two
    # remote cover vertices the negated clause forbids, for every vertex pair
    labels = _Labels(max(w.g.vertices) + 1)
    (hub2,) = labels.take(1)
    edges = set(w.g.edges)
    for mid in w.midpoints[2:]:
        es, _ = _path_between(3, 2, hub2, mid, labels)
        edges.update(es)
    covered = Hypergraph.from_edges(3, edges)
    assert not evaluate(L, covered)


def test_theorem8_builder_shapes():
    f = build_theorem8_L(3, 4)
    assert free_variables(f) == frozenset()
    assert quantifier_depth(f) <= 4
    from zolab.constructions import theorem8_witnesses
    w = theorem8_witnesses(3, 4)
    assert evaluate(f, w.h)
    assert not evaluate(f, Hypergraph.make(3, range(1, 10), []))

    f5 = build_theorem8_L(3, 5, 2, 2)
    assert quantifier_depth(f5) <= 5
    assert free_variables(f5) == frozenset()
    f6 = build_theorem8_L(4, 5)
    assert quantifier_depth(f6) <= 5


def test_theorem8_chain_variant_semantics():
    from zolab.constructions import theorem8_witnesses
    w = theorem8_witnesses(3, 5, 2, 2)
    f = build_theorem8_L(3, 5, 2, 2)
    assert evaluate(f, w.h)
    assert not evaluate(f, Hypergraph.make(3, range(1, 18), []))
    # the two-circuit core without the connecting paths lacks the distance legs
    core = w.part1.union(w.part2)
    assert not evaluate(f, core)


def test_dist_semantics_s4_spot_check():
    g = Hypergraph.make(4, range(1, 8), [(1, 2, 3, 4), (4, 5, 6, 7)])
    env = {"u": 1, "v": 7}
    assert evaluate(build_dist_exact(2, 4, "u", "v"), g, env)
    assert not evaluate(build_dist_at_most(1, 4, "u", "v"), g, env)
    assert evaluate(build_dist_at_most(2, 4, "u", "v"), g, env)
