import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import brute_game_formula, hypergraphs, random_formula, random_hypergraph
from zolab.efgame import _atom_order, _child_types, _Side, distinguishing_formula, duplicator_wins
from zolab.errors import CapacityError
from zolab.folang import evaluate, quantifier_depth, to_text
from zolab.hypercore import Hypergraph

EDGE = Hypergraph.make(3, [1, 2, 3], [(1, 2, 3)])
BARE = Hypergraph.make(3, [1, 2, 3], [])
H1 = Hypergraph.make(3, range(1, 5), [(1, 2, 3), (3, 4, 1)])
H2 = Hypergraph.make(3, range(1, 7), [(1, 2, 3), (3, 4, 5), (5, 6, 1)])


def test_basic_outcomes():
    for k in range(4):
        assert duplicator_wins(EDGE, EDGE, k)
        assert duplicator_wins(H1, H1, k)
    assert duplicator_wins(EDGE, BARE, 0)
    assert duplicator_wins(EDGE, BARE, 2)  # atoms need 3 pebbles
    assert not duplicator_wins(EDGE, BARE, 3)
    with pytest.raises(ValueError):
        duplicator_wins(EDGE, Hypergraph.make(4, range(1, 5), [(1, 2, 3, 4)]), 1)
    with pytest.raises(CapacityError):
        duplicator_wins(Hypergraph.make(3, range(1, 12), []), BARE, 1)


def test_formula_extraction_edge_vs_bare():
    f = distinguishing_formula(EDGE, BARE, 3)
    assert f is not None
    assert quantifier_depth(f) <= 3
    assert evaluate(f, EDGE) and not evaluate(f, BARE)
    assert distinguishing_formula(EDGE, EDGE, 3) is None


def test_h1_h2_example():
    # with 2 rounds no atom is decidable, so Duplicator survives
    assert duplicator_wins(H1, H2, 2)
    out = distinguishing_formula(H1, H2, 2)
    assert out is None
    f = distinguishing_formula(H1, H2, 3)
    if f is not None:
        assert quantifier_depth(f) <= 3
        assert evaluate(f, H1) != evaluate(f, H2)
    assert (f is None) == duplicator_wins(H1, H2, 3)


def test_monotonicity_in_rounds():
    rng = random.Random(55)
    for _ in range(25):
        g = random_hypergraph(rng, rng.randint(2, 4), p=0.4)
        h = random_hypergraph(rng, rng.randint(2, 4), p=0.4)
        results = [duplicator_wins(g, h, k) for k in range(4)]
        # once Spoiler wins he keeps winning with more rounds
        for a, b in zip(results, results[1:]):
            assert not (not a and b)


def test_symmetry():
    rng = random.Random(56)
    for _ in range(25):
        g = random_hypergraph(rng, rng.randint(2, 5), p=0.4)
        h = random_hypergraph(rng, rng.randint(2, 5), p=0.4)
        for k in (1, 2, 3):
            assert duplicator_wins(g, h, k) == duplicator_wins(h, g, k)


def test_soundness_random_pairs():
    rng = random.Random(57)
    for _ in range(40):
        g = random_hypergraph(rng, rng.randint(2, 5), p=0.4)
        h = random_hypergraph(rng, rng.randint(2, 5), p=0.4)
        k = rng.randint(1, 3)
        f = distinguishing_formula(g, h, k)
        assert (f is None) == duplicator_wins(g, h, k)
        if f is not None:
            assert quantifier_depth(f) <= k
            assert evaluate(f, g) and not evaluate(f, h)


def test_agreement_when_duplicator_wins():
    rng = random.Random(58)
    pairs_checked = 0
    while pairs_checked < 8:
        g = random_hypergraph(rng, rng.randint(3, 5), p=0.3)
        h = random_hypergraph(rng, rng.randint(3, 5), p=0.3)
        k = rng.randint(1, 3)
        if not duplicator_wins(g, h, k):
            continue
        pairs_checked += 1
        for _ in range(100):
            f = random_formula(rng, s=3, max_depth=k)
            assert evaluate(f, g) == evaluate(f, h)


def test_edgeless_structures_exact_law():
    # with no edges only equality is visible: k-round equivalence holds iff
    # the structures have equal size or both have at least k vertices
    for a in range(1, 6):
        for b in range(1, 6):
            for k in range(5):
                ga = Hypergraph.make(3, range(1, a + 1), [])
                gb = Hypergraph.make(3, range(1, b + 1), [])
                want = (a == b) or (a >= k and b >= k)
                assert duplicator_wins(ga, gb, k) == want, (a, b, k)


def test_cap_scale_game_terminates_fast():
    rng = random.Random(7)
    pool = [random_hypergraph(rng, 8, p=0.25) for _ in range(4)]
    for g in pool:
        for h in pool:
            duplicator_wins(g, h, 4)


def test_empty_structure_games():
    empty = Hypergraph.make(3, [], [])
    assert duplicator_wins(empty, empty, 3)
    assert not duplicator_wins(EDGE, empty, 1)
    f = distinguishing_formula(EDGE, empty, 1)
    assert f is not None
    assert evaluate(f, EDGE) and not evaluate(f, empty)


def test_equivalence_relation_on_pool():
    pool = [
        BARE,
        EDGE,
        Hypergraph.make(3, range(1, 5), []),
        Hypergraph.make(3, range(1, 5), [(1, 2, 3)]),
        Hypergraph.make(3, range(1, 5), [(1, 2, 3), (1, 2, 4)]),
        Hypergraph.make(3, range(1, 6), [(1, 2, 3), (3, 4, 5)]),
        H1,
    ]
    for k in (1, 2, 3):
        rel = {}
        for i, g in enumerate(pool):
            for j, h in enumerate(pool):
                rel[i, j] = duplicator_wins(g, h, k)
        for i, j, l in itertools.product(range(len(pool)), repeat=3):
            assert rel[i, i]
            assert rel[i, j] == rel[j, i]
            if rel[i, j] and rel[j, l]:
                assert rel[i, l]


def test_formula_text_matches_memo_free_recursion():
    # gate for `game --formula` output: the solved-game walk must print the
    # same formula as a search that builds it while it plays.  Five-vertex
    # pairs are where the h-side tie-break first changes the text.  Three
    # pebbles never complete an s = 4 atom, so those pairs separate by
    # equality facts alone.
    for s, top, seed, least in ((3, 5, 59, 60), (4, 6, 5, 60)):
        rng = random.Random(seed)
        spoiler_wins = 0
        for _ in range(300):
            g = random_hypergraph(rng, rng.randint(1, top), s=s, p=rng.uniform(0.2, 0.7))
            h = random_hypergraph(rng, rng.randint(1, top), s=s, p=rng.uniform(0.2, 0.7))
            k = rng.randint(0, 3)
            want = brute_game_formula(g, h, k)
            got = distinguishing_formula(g, h, k)
            assert (got is None) == (want is None)
            if want is not None:
                spoiler_wins += 1
                assert to_text(got) == to_text(want)
        assert spoiler_wins >= least, (s, spoiler_wins)


def near_copy(rng, g: Hypergraph) -> Hypergraph:
    """g relabelled at random, with one random s-set toggled half the time:
    pairs that often take every round to tell apart."""
    verts = sorted(g.vertices)
    perm = dict(zip(verts, rng.sample(verts, len(verts))))
    edges = {frozenset(perm[x] for x in e) for e in g.edges}
    if len(verts) >= g.s and rng.random() < 0.5:
        edges ^= {frozenset(rng.sample(verts, g.s))}
    return Hypergraph(g.s, g.vertices, frozenset(edges))


def test_formula_text_matches_memo_free_recursion_at_four_rounds():
    # gate for the type-partitioned recursion: at k = 4 the solver prunes
    # replies by type below positions with two or more rounds left and after
    # repeated pebbles.  Four pebbles never complete an s = 5 atom, so those
    # pairs separate by equality facts alone.  `deep` counts the pairs that
    # Spoiler wins in four rounds but not in three.
    for s, low, pairs, seed, least, least_deep in ((3, 2, 100, 61, 55, 6), (5, 1, 40, 62, 8, 3)):
        rng = random.Random(seed)
        spoiler_wins = deep = 0
        for _ in range(pairs):
            g = random_hypergraph(rng, rng.randint(low, 6), s=s, p=rng.uniform(0.2, 0.7))
            if rng.random() < 0.5:
                h = near_copy(rng, g)
            else:
                h = random_hypergraph(rng, rng.randint(low, 6), s=s, p=rng.uniform(0.2, 0.7))
            want = brute_game_formula(g, h, 4)
            got = distinguishing_formula(g, h, 4)
            assert (got is None) == (want is None)
            if want is not None:
                spoiler_wins += 1
                deep += brute_game_formula(g, h, 3) is None
                assert to_text(got) == to_text(want)
        assert spoiler_wins >= least and deep >= least_deep, (s, spoiler_wins, deep)


def test_formula_text_matches_memo_free_recursion_at_five_rounds():
    # gate for the rank tables: at k = 5 the pair recursion runs two levels
    # deep before the ranks decide, and extraction walks positions with
    # three, two and one rounds left
    rng = random.Random(63)
    spoiler_wins = 0
    for i in range(20):
        g = random_hypergraph(rng, rng.randint(2, 5), p=rng.uniform(0.2, 0.7))
        if i % 2:
            h = near_copy(rng, g)
        else:
            h = random_hypergraph(rng, rng.randint(2, 5), p=rng.uniform(0.2, 0.7))
        want = brute_game_formula(g, h, 5)
        got = distinguishing_formula(g, h, 5)
        assert (got is None) == (want is None)
        if want is not None:
            spoiler_wins += 1
            assert to_text(got) == to_text(want)
    assert 12 <= spoiler_wins <= 17, spoiler_wins  # some Duplicator wins: full solves


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.data())
def test_child_types_and_atom_bits_agree_with_types(data):
    # over every prefix d of a pebbling order, and after one more pebble on any
    # vertex d leaves out, each vertex's type is its atomic type by definition:
    # ~(first index) when pebbled, else the _atom_order bits of the (s-1)-sets
    # of d it forms an edge with, and no other bit
    s = data.draw(st.sampled_from((3, 4, 5)))
    g = data.draw(hypergraphs(s, data.draw(st.integers(s, 7))))
    side = _Side(g, {})
    order = tuple(data.draw(st.permutations(side.verts)))

    def check(d, types):
        atoms = _atom_order(d, s)
        room = math.comb(len(d), s - 1)
        assert sorted(bit for _, bit in atoms) == [1 << i for i in range(room)], d
        for v, t in zip(side.verts, types):
            if v in d:
                assert t == ~d.index(v), (d, v)
            else:
                want = sum(bit for rest, bit in atoms if frozenset((v, *rest)) in g.edges)
                assert t == want, (d, v)

    for m in range(len(order) + 1):
        d = order[:m]
        types = side.types(d)[0]
        check(d, types)
        for v in order[m:]:
            check(d + (v,), _child_types(types, d, v, side.slot, side.link, s))


def test_equal_ranks_are_duplicator_wins():
    # the ranks after each first pick, as a set, are the root's type one rank
    # up: rank 1 decides the two-round game and rank 2 the three-round game
    rng = random.Random(64)
    agree = {1: 0, 2: 0}
    for _ in range(150):
        s = rng.choice((3, 3, 4))
        g = random_hypergraph(rng, rng.randint(1, 5), s=s, p=rng.uniform(0.2, 0.8))
        if rng.random() < 0.5:
            h = near_copy(rng, g)
        else:
            h = random_hypergraph(rng, rng.randint(1, 5), s=s, p=rng.uniform(0.2, 0.8))
        ids: dict = {}
        sides = _Side(g, ids), _Side(h, ids)
        for r in (1, 2):
            a, b = ({x.rank((), x.types(())[0], v, r) for v in x.verts} for x in sides)
            dup = brute_game_formula(g, h, r + 1) is None
            assert (a == b) == dup, (r, g, h)
            agree[r] += dup
    assert 0 < agree[1] < 150 and 0 < agree[2] < 150, agree
