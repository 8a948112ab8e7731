import hashlib
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import (
    brute_distance,
    hypergraphs,
    random_formula,
    random_hypergraph,
    table_evaluate,
    truth_table,
)
from zolab.folang import (
    _Names,
    _Run,
    And,
    Atom,
    Eq,
    Exists,
    Forall,
    FormulaSyntaxError,
    Implies,
    Not,
    Or,
    _dist_pair,
    build_dist_at_most,
    build_dist_exact,
    build_theorem6_L,
    build_theorem8_L,
    compile,
    exists_all,
    evaluate,
    free_variables,
    parse,
    quantifier_depth,
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
    with pytest.raises(FormulaSyntaxError) as err:
        parse("N(x,y,z) & N(x,y)")  # inconsistent arity
    assert err.value.pos == 11      # at the first atom that differs
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
    f = _dist_pair(1, 1, 3, "x", "y", "z", _Names())
    assert free_variables(f) == {"x", "y", "z"}
    # midpoint of the two edges of H1: vertex 1 and 3 are at distance 1 of both 2, 4
    assert evaluate(f, H1, {"x": 2, "y": 4, "z": 3})
    assert evaluate(f, H1, {"x": 2, "y": 4, "z": 1})
    assert not evaluate(f, H1, {"x": 2, "y": 4, "z": 2})


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
        assert evaluate(compiled, g, env) == want


# names of distance contexts and of the bound names inside distance subtrees,
# which may rebind any context variable
OUTER = ("x", "y", "z")
INNER = OUTER + ("m", "p")


LEAF_MISSES = ("pad", "repeat", "permute", "flip", "stray", "loose")
STEP_MISSES = ("mid", "split", "swap", "unbound")


@st.composite
def _dist_subtree(draw, s: int, i: int, x: str, y: str, plant: tuple | None = None):
    """`_dist_at_most(i, s, x, y)` with drawn bound names.  `plant` = (kind,
    depth) puts one near-miss shape that `compile` must not recognise on a
    drawn branch: a step kind on the step at that depth, a leaf kind on the
    leaf the branch ends on.
      leaf: a pad equal to an endpoint, a repeated pad, permuted atom
            arguments, a flipped equality, an equality on another pair, or
            a pad quantifier that binds another name;
      step: a midpoint equal to an endpoint, a split with b - a outside
            {0, 1}, or a quantifier that binds another name than the
            midpoint."""
    if i == 0:
        return Eq(x, y)
    others = [v for v in INNER if v not in (x, y)]
    kind, depth = plant or (None, 0)
    if i == 1:
        miss = kind if kind in LEAF_MISSES else None
        pads = list(draw(st.permutations(others))[:s - 2])
        if miss == "repeat" and s > 3:
            pads[1] = pads[0]
        elif miss in ("pad", "repeat"):
            pads[draw(st.integers(0, s - 3))] = draw(st.sampled_from((x, y)))
        args = [x, *pads, y]
        if miss == "permute":
            args = draw(st.permutations(args))
        eq = {"flip": Eq(y, x), "stray": Eq(x, draw(st.sampled_from(others)))}.get(miss, Eq(x, y))
        binders = list(pads)
        if miss == "loose":
            binders[draw(st.integers(0, s - 3))] = draw(
                st.sampled_from([v for v in INNER if v not in pads]))
        return Or(eq, exists_all(binders, Atom(tuple(args))))
    miss = kind if kind in STEP_MISSES and depth == 0 else None
    a, b = i // 2, (i + 1) // 2
    if miss == "split":
        a, b = a - 1, b + 1
    if miss == "swap":
        a, b = b, a + (a == b)
    mid = draw(st.sampled_from((x, y) if miss == "mid" else others))
    bound = draw(st.sampled_from([v for v in INNER if v != mid])) if miss == "unbound" else mid
    down = [None, None]
    if plant and not miss:
        down[draw(st.integers(0, 1))] = (kind, max(depth - 1, 0))
    return Exists(bound, And(draw(_dist_subtree(s, a, x, mid, down[0])),
                             draw(_dist_subtree(s, b, mid, y, down[1]))))


@st.composite
def _distance_formulas(draw, s: int, depth: int = 2, size: int = 2, scope: tuple = ()):
    """Formulas over three names that embed distance subtrees, at most or
    exact, in quantifier and boolean contexts.  The endpoints may be free or
    bound; a quantifier often rebinds an enclosing variable, also one between
    a subtree endpoint's binder and the subtree."""
    kinds = ["exists", "forall"] * 2 * (depth > 0) + ["dist"] * 4
    kinds += ["and", "or", "not"] * (size > 0) + ["other"] * bool(scope)
    kind = draw(st.sampled_from(kinds))
    if kind == "dist":
        x, y = draw(st.permutations(OUTER))[:2]
        i = draw(st.integers(1, 5))
        plants = st.one_of(st.none(), st.tuples(
            st.sampled_from(LEAF_MISSES + STEP_MISSES), st.integers(0, 2)))
        at_most = draw(_dist_subtree(s, i, x, y, draw(plants)))
        if draw(st.booleans()):
            return at_most
        return And(at_most, Not(draw(_dist_subtree(s, i - 1, x, y, draw(plants)))))
    if kind == "other":
        return draw(_formulas(s, 0, 1, scope))
    if kind in ("exists", "forall"):
        var = draw(st.one_of(st.sampled_from(OUTER), st.sampled_from(scope))) if scope \
            else draw(st.sampled_from(OUTER))
        body = draw(_distance_formulas(s, depth - 1, size, scope + (var,)))
        return Exists(var, body) if kind == "exists" else Forall(var, body)
    if kind == "not":
        return Not(draw(_distance_formulas(s, depth, size - 1, scope)))
    op = And if kind == "and" else Or
    return op(draw(_distance_formulas(s, depth, size - 1, scope)),
              draw(_distance_formulas(s, depth, size - 1, scope)))


def _paths_plus(s: int, n: int):
    """hypothesis strategy: on the labels 1..n, the loose path whose
    consecutive edges share one vertex, so that every distance up to its
    length occurs; now and then one of its edges is dropped or one edge
    added."""
    path = [frozenset(range(k, k + s)) for k in range(1, n - s + 2, s - 1)]
    pool = [frozenset(e) for e in itertools.combinations(range(1, n + 1), s)]
    one_of = (lambda es: st.one_of(st.just(()), st.just(()), st.just(()),
                                   st.sampled_from(es).map(lambda e: (e,)))
              if es else st.just(()))
    return st.tuples(one_of(path), one_of(pool)).map(
        lambda d: Hypergraph.make(s, range(1, n + 1), (set(path) - set(d[0])) | set(d[1])))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.data())
def test_distance_subtrees_match_table_oracle(data):
    # recognised distance subtrees run from the BFS ball cache, near misses on
    # the general path; both must answer as the table oracle does under every
    # assignment of the free variables
    s = data.draw(st.sampled_from((3, 3, 4)))
    top = 13 if s == 3 else 7  # a loose path with 6 or 2 edges
    n = data.draw(st.one_of(st.just(top), st.just(top), st.integers(1, top)))
    f = data.draw(_distance_formulas(s))
    g = data.draw(_paths_plus(s, n))
    compiled = compile(f)
    free, rows = truth_table(f, g)
    for values, want in rows.items():
        assert evaluate(compiled, g, dict(zip(free, values))) == want


def test_run_ball_matches_bfs():
    # balls are grown one layer at a time and asked for in any order
    rng = random.Random(41)
    for _ in range(20):
        g = random_hypergraph(rng, rng.randint(3, 9), p=0.08)
        run = _Run(g, 0)
        for v, radius in itertools.product(sorted(g.vertices), (3, 0, 5, 1, 2)):
            want = {w for w in g.vertices if brute_distance(g, v, w) <= radius}
            assert run.ball(v, radius) == want


def test_recognised_subtree_keeps_checks():
    f = build_dist_at_most(3, 3, "u", "v")
    assert compile(f).arity == 3
    assert compile(f).free == {"u", "v"}
    g4 = Hypergraph.make(4, range(1, 5), [(1, 2, 3, 4)])
    with pytest.raises(ValueError, match="N arity 3 does not match host arity 4"):
        evaluate(f, g4, {"u": 1, "v": 2})
    with pytest.raises(ValueError, match="N arity 3 does not match host arity 4"):
        evaluate(Exists("u", Exists("v", f)), g4)
    with pytest.raises(ValueError, match=r"unbound free variables: \['v'\]"):
        evaluate(f, H1, {"u": 1})
    with pytest.raises(ValueError, match=r"unbound free variables: \['u', 'v'\]"):
        evaluate(build_dist_exact(4, 3, "u", "v"), H1)


def test_step_needs_distinct_endpoints():
    # dist(x, x) <= 2 must not be recognised: a step over it with midpoint x
    # would read as dist(x, y) <= 4, while the quantifier rebinds x and f
    # holds for every y
    loop = build_dist_at_most(2, 3, "x", "x")
    f = Exists("x", And(loop, build_dist_at_most(2, 3, "x", "y")))
    path = Hypergraph.make(3, range(1, 14), [(k, k + 1, k + 2) for k in range(1, 12, 2)])
    assert compile(f).free == {"y"}
    for x, y in ((1, 13), (13, 1), (1, 1)):
        assert evaluate(f, path, {"x": x, "y": y}) == table_evaluate(f, path, {"y": y})


def test_builder_text_and_depth_pinned():
    # compiling recognises distance subtrees without touching the formulas:
    # their text and quantifier depth are as they were before recognition
    pinned = {
        build_dist_exact(5, 4): (5, 585, "2601a5e5e1c29db4"),
        _dist_pair(3, 2, 3, "x1", "x2", "x3", _Names()): (3, 359, "56784a499eba58d8"),
        build_theorem6_L(3, 8): (8, 1308, "94773e8f99ffcd81"),
        build_theorem8_L(3, 5, 2, 2): (5, 639, "b1004673b5b6874c"),
        build_theorem8_L(3, 6, 2, 5): (6, 1755, "a8d4674ca94ae652"),
    }
    for f, (depth, length, digest) in pinned.items():
        text = to_text(f)
        assert quantifier_depth(f) == depth
        assert (len(text), hashlib.sha256(text.encode()).hexdigest()[:16]) == (length, digest)
    assert to_text(build_dist_at_most(3, 3)) == (
        "exists q1 (x1 = q1 | (exists q2 N(x1,q2,q1))) & (exists q3 (q1 = q3 | "
        "(exists q4 N(q1,q4,q3))) & (q3 = x2 | (exists q5 N(q3,q5,x2))))")


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


# planted cases of the edge-completion guard and of the bare quantifier loops
PLANTED = {
    3: [
        # two partners bound outside z, and two partners free in the formula,
        # which assignments may send to the same vertex
        "exists x exists y exists z (N(x,y,z) & !(z = w))",
        "exists z (N(x,y,z) & !(z = w))",
        "forall z (N(x,y,z) -> z = w)",
        # y is rebound between z's binder and the atom: x is z's one partner
        "exists y exists z (N(x,y,w) & (exists y (N(x,y,z) & y = w)))",
        # bound names that shadow a free variable read after the inner
        # quantifier returns
        "(exists x N(x,y,z)) & x = w",
        "forall y ((exists x (N(x,y,z) & !(x = w))) -> N(x,y,w))",
        "exists w (N(x,w,z) & (exists z N(x,w,z))) & !(w = z)",
        # a loop that would run bare rebinds a free variable: it restores it
        "exists y (N(x,y,z) & (exists x N(x,y,w)))",
        "(forall x N(x,y,z)) | x = y",
    ],
    4: [
        # three partners bound outside u, or free in the formula
        "exists x exists y exists z exists u (N(x,y,z,u) & !(u = w))",
        "forall x forall y (N(x,y,z,w) -> (exists u (N(x,y,z,u) & !(u = w))))",
        "exists u (N(x,y,z,u) & !(u = w))",
        # a bound name shadows a free partner of the inner atom
        "(exists x exists u N(x,y,z,u)) & (exists u N(x,y,u,w))",
    ],
}


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.data())
def test_planted_guards_and_loops_match_table_oracle(data):
    s = data.draw(st.sampled_from((3, 4)))
    g = data.draw(hypergraphs(s, data.draw(st.integers(s, 6 if s == 3 else 5))))
    for text in PLANTED[s]:
        f = parse(text)
        compiled = compile(f)
        free, rows = truth_table(f, g)
        for values, want in rows.items():
            env = dict(zip(free, values))
            assert evaluate(compiled, g, env) == want, (text, env)


class _CountedEdges(frozenset):
    """An edge set that counts the atom checks made against it."""

    checks = 0

    def __contains__(self, e):
        self.checks += 1
        return frozenset.__contains__(self, e)


def test_edge_completion_guard_tries_only_completions():
    # x = 1 shares an edge with every other vertex, but only two of them
    # complete an edge with x and y (x, y and z for s = 4); w and u rule both
    # out, so the quantifier checks its atom once per completion
    cases = [
        (Hypergraph.make(3, range(1, 9), [(1, 2, 3), (1, 2, 4), (1, 5, 6), (1, 7, 8)]),
         "exists v (N(x,y,v) & !(v = w) & !(v = u))", {"x": 1, "y": 2, "w": 3, "u": 4}),
        (Hypergraph.make(4, range(1, 10), [(1, 2, 3, 4), (1, 2, 3, 5), (1, 2, 6, 7),
                                           (1, 8, 9, 6)]),
         "exists v (N(x,y,z,v) & !(v = w) & !(v = u))",
         {"x": 1, "y": 2, "z": 3, "w": 4, "u": 5}),
    ]
    for g, text, env in cases:
        c = compile(parse(text))
        run = _Run(g, c.tables)
        run.edges = _CountedEdges(g.edges)
        assert not c.root(env, run)
        assert run.edges.checks == 2


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.data())
def test_run_completions_match_edge_scan(data):
    s = data.draw(st.sampled_from((3, 4, 5)))
    g = data.draw(hypergraphs(s, data.draw(st.integers(0, 7))))
    run = _Run(g, 0)
    for size in (2, s + 1, 1, s, s - 1):  # tables built in any order
        table = run.completions(size)
        for part in map(frozenset, itertools.combinations(sorted(g.vertices), size)):
            want = set().union(*[e - part for e in g.edges if part <= e])
            assert table.get(part, set()) == want


def test_memo_tables_only_where_a_hit_is_possible():
    # in L(3, 4) only the three pads `exists p N(x1, x2, p)` and the like
    # miss a binder's variable in their key (x3), so only they keep a table
    assert compile(build_theorem8_L(3, 4)).tables == 3
    # x's key misses y and the inner y rebinds it: both keep a table, and z,
    # whose key holds x and the inner y, runs bare
    assert compile(parse("exists y exists x exists y exists z N(x,y,z)")).tables == 2
    assert compile(parse("exists y exists x (N(x,y,w) & (exists z N(x,z,w)))")).tables == 1
    # the inner x shadows the free x: it restores, in the full form
    assert compile(parse("(exists x N(x,y,z)) & x = w")).tables == 1


def test_rebinding_quantifier_keeps_its_memo():
    # the inner y rebinds the outer one, so its key (x, w) repeats for every
    # outer y; its memo answers the repeats (60 atom checks without it), and
    # the z loop below it runs bare
    f = parse("forall y forall x (x = y | (forall y (N(x,y,w) -> (exists z N(x,y,z)))))")
    g = Hypergraph.make(3, range(1, 7), [(1, 2, 3), (1, 2, 4), (2, 3, 5), (1, 5, 6)])
    c = compile(f)
    run = _Run(g, c.tables)
    run.edges = _CountedEdges(g.edges)
    assert c.root({"w": 1}, run)
    assert run.edges.checks == 12


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


def test_theorem8_probe_hits_pinned():
    # README's five splits of the Theorem 8 sentence at their alphas: the hits
    # among 40 hosts at n = 100, seed 7, are pinned, so that a guard or memo
    # change that alters a truth value on sampled hosts shows here
    from zolab.randmodel import ExperimentConfig, estimate_probability, formula_predicate
    pinned = {(2, 2, Fraction(17, 9)): 5, (2, 3, Fraction(19, 10)): 4,
              (3, 3, Fraction(21, 11)): 7, (3, 4, Fraction(23, 12)): 5,
              (4, 4, Fraction(25, 13)): 2}
    for (a1, a2, alpha), hits in pinned.items():
        cfg = ExperimentConfig(s=3, n=100, trials=40, seed=7, alpha=alpha)
        report = estimate_probability(cfg, formula_predicate(build_theorem8_L(3, 5, a1, a2)))
        assert report.counts["successes"] == hits, (a1, a2)


def test_dist_semantics_s4_spot_check():
    g = Hypergraph.make(4, range(1, 8), [(1, 2, 3, 4), (4, 5, 6, 7)])
    env = {"u": 1, "v": 7}
    assert evaluate(build_dist_exact(2, 4, "u", "v"), g, env)
    assert not evaluate(build_dist_at_most(1, 4, "u", "v"), g, env)
    assert evaluate(build_dist_at_most(2, 4, "u", "v"), g, env)
