import itertools
import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    brute_pair_class,
    brute_pair_strictly_balanced,
    brute_prop1_constants,
    random_hypergraph,
)
from zolab.constructions import loose_path, theorem6_pair
from zolab.extlab import (
    FIRST_TYPE,
    SECOND_TYPE_EDGE,
    SECOND_TYPE_PATH,
    PairClass,
    classify_pair,
    count_uncovered_copies,
    density_bound,
    f_alpha,
    find_m_decomposition,
    is_pair_strictly_balanced,
    match_cyclic_extension,
    prop1_poisson_parameter,
)
from zolab.errors import CapacityError
from zolab.hypercore import Hypergraph, RootedPair, count_copies, max_density

F = Fraction

VERTEX = Hypergraph.make(3, [1], [])
EDGE_EXT = Hypergraph.make(3, [1, 2, 3], [(1, 2, 3)])
H1 = Hypergraph.make(3, range(1, 5), [(1, 2, 3), (3, 4, 1)])
H2 = Hypergraph.make(3, range(1, 7), [(1, 2, 3), (3, 4, 5), (5, 6, 1)])


def test_f_alpha_examples():
    pair = RootedPair(EDGE_EXT, VERTEX)
    assert f_alpha(pair, F(7, 4)) == F(1, 4)
    w = theorem6_pair(3, 1, 2)
    assert f_alpha(w.pair, F(7, 4)) == 0
    noedges = RootedPair(Hypergraph.make(3, [1, 2, 3], []), VERTEX)
    assert f_alpha(noedges, F(7, 4)) == 2


def test_classify_examples():
    assert classify_pair(RootedPair(EDGE_EXT, VERTEX), F(7, 4)) == PairClass.SAFE
    w = theorem6_pair(3, 1, 2)
    assert classify_pair(w.pair, w.alpha) == PairClass.NEUTRAL
    path = loose_path(3, 2)
    rigid = RootedPair(path, Hypergraph.make(3, [1, 2], []))
    assert classify_pair(rigid, F(7, 4)) == PairClass.RIGID


def test_classification_sign_consequences():
    rng = random.Random(42)
    alphas = [F(7, 4), F(3, 2), F(2, 1), F(9, 5)]
    seen = set()
    for _ in range(60):
        g = random_hypergraph(rng, rng.randint(3, 6), p=0.35)
        inner_size = rng.randint(1, g.num_vertices - 1)
        inner_verts = frozenset(sorted(g.vertices)[:inner_size])
        inner = g.induced(inner_verts)
        pair = RootedPair(g, inner)
        for alpha in alphas:
            cls = classify_pair(pair, alpha)
            seen.add(cls)
            fa = f_alpha(pair, alpha)
            if cls == PairClass.SAFE:
                assert fa > 0
            elif cls == PairClass.RIGID:
                assert fa < 0
            elif cls == PairClass.NEUTRAL:
                assert fa == 0
    assert PairClass.SAFE in seen and PairClass.RIGID in seen


def test_neutral_iff_balanced_pair_at_critical_alpha():
    w = theorem6_pair(3, 1, 2)
    assert is_pair_strictly_balanced(w.pair)
    assert w.pair.rel_density() == 1 / w.alpha
    assert classify_pair(w.pair, w.alpha) == PairClass.NEUTRAL


def test_uncovered_copies():
    w = theorem6_pair(3, 1, 2)
    h, g = w.h, w.g
    assert count_uncovered_copies(h, g, h, cap=24) == 1
    # inside g the only copy of h is h itself, and g covers it
    from zolab.hypercore import copy_images
    assert len(copy_images(h, g, cap=24)) == 1
    assert count_uncovered_copies(h, g, g, cap=24) == 0
    edgeless = Hypergraph.make(3, range(1, 8), [])
    assert count_uncovered_copies(H1, H2, edgeless) == 0
    assert count_uncovered_copies(H1, H2, H1) == 1
    # degenerate outer == inner: every copy covers itself
    rng = random.Random(16)
    for _ in range(6):
        host = random_hypergraph(rng, 6, p=0.3)
        assert count_uncovered_copies(H1, H1, host) == 0
    # uncovered <= total copies always
    rng = random.Random(17)
    for _ in range(10):
        host = random_hypergraph(rng, 7, p=0.25)
        assert count_uncovered_copies(EDGE_EXT, H1, host) <= count_copies(EDGE_EXT, host)


def test_uncovered_copies_checks_the_cap_up_front():
    w = theorem6_pair(3, 1, 2)  # inner 14 vertices, outer 21
    edgeless = Hypergraph.make(3, range(1, 8), [])
    with pytest.raises(CapacityError):
        count_uncovered_copies(w.h, w.g, edgeless)


def test_prop1_parameters():
    p = prop1_poisson_parameter(RootedPair(EDGE_EXT, VERTEX))
    assert (p.a, p.a1, p.a2) == (1, 1, 2)
    g_equal = RootedPair(H1, H1)
    pd = prop1_poisson_parameter(g_equal)
    assert pd.a == pd.a1 and pd.a2 == 1
    assert pd.rate_inverse == F(1, pd.a) and pd.exponent == F(pd.a, pd.a1)


def test_prop1_parameters_theorem6_pair_against_bruteforce():
    w = theorem6_pair(3, 1, 2)
    p = prop1_poisson_parameter(w.pair)
    # independent oracle for a2: all placements of the 7 added vertices
    h_verts = sorted(w.h.vertices)
    added = sorted(w.g.vertices - w.h.vertices)
    count_a2 = 0
    for perm in itertools.permutations(added):
        m = dict(zip(added, perm))
        m.update({v: v for v in h_verts})
        if all(frozenset(m[v] for v in e) in w.g.edges for e in w.g.edges):
            count_a2 += 1
    assert p.a2 == count_a2 == 1
    assert p.a == 48 and p.a1 == 8
    assert p.rate_inverse == F(1, 48) and p.exponent == F(6)


def test_cyclic_pattern_examples():
    base2 = Hypergraph.make(3, [1, 2], [])
    one_edge = RootedPair(Hypergraph.make(3, [1, 2, 3], [(1, 2, 3)]), base2)
    pat = match_cyclic_extension(one_edge, 2)
    assert pat is not None and pat.kind == SECOND_TYPE_EDGE and pat.l == 2

    disjoint = RootedPair(
        Hypergraph.make(3, [1, 2, 3, 4, 5], [(3, 4, 5)]), base2)
    assert match_cyclic_extension(disjoint, 2) is None

    second = RootedPair(
        Hypergraph.make(3, [1, 2, 3, 4], [(1, 3, 4), (2, 4, 3)]), base2)
    pat2 = match_cyclic_extension(second, 2)
    assert pat2 is not None and pat2.kind == SECOND_TYPE_PATH
    assert pat2.k == 1 and pat2.l == 0

    # first type: triangle closing back on the root vertex, m = 3
    tri = RootedPair(H2, Hypergraph.make(3, [1], []))
    pat3 = match_cyclic_extension(tri, 3)
    assert pat3 is not None and pat3.kind == FIRST_TYPE and pat3.k == 2
    assert match_cyclic_extension(tri, 2) is None  # first type needs k <= m-1


def test_cyclic_match_rechecks_density():
    pair = RootedPair(Hypergraph.make(3, [1, 2, 3], [(1, 2, 3)]),
                               Hypergraph.make(3, [1, 2], []))
    for m in (1, 2, 5):
        pat = match_cyclic_extension(pair, m)
        if pat is not None:
            assert max_density(pair.outer)[0] < density_bound(3, m)


def test_cyclic_step_accounting():
    # matched patterns satisfy v(G,H) <= e(G,H)(s-1) - 1, equality at l = s-2
    cases = [
        (Hypergraph.make(3, [1, 2, 3], [(1, 2, 3)]),
         Hypergraph.make(3, [1, 2], []), 2),
        (Hypergraph.make(3, [1, 2, 3, 4], [(1, 3, 4), (2, 4, 3)]),
         Hypergraph.make(3, [1, 2], []), 2),
        (H2, Hypergraph.make(3, [1], []), 3),
    ]
    for outer, inner, m in cases:
        pair = RootedPair(outer, inner)
        pat = match_cyclic_extension(pair, m)
        assert pat is not None
        v_rel, e_rel = pair.v_rel, pair.e_rel
        s = outer.s
        assert v_rel <= e_rel * (s - 1) - 1
        if pat.l == s - 2:
            assert v_rel == e_rel * (s - 1) - 1


def test_decomposition_examples():
    sv = Hypergraph.make(3, [5], [])
    assert find_m_decomposition(sv, 2, 5) == [sv]
    chain = find_m_decomposition(H2, 3, 1)
    assert chain is not None and len(chain) == 2
    assert chain[0].vertices == frozenset([1])
    assert chain[-1].vertices == H2.vertices
    disc = Hypergraph.make(3, [1, 2, 3, 4], [(2, 3, 4)])
    assert find_m_decomposition(disc, 3, 1) is None
    with pytest.raises(ValueError):
        find_m_decomposition(H2, 3, 99)


def test_decomposition_steps_are_cyclic_extensions():
    chain = find_m_decomposition(H2, 3, 1)
    for prev, nxt in zip(chain, chain[1:]):
        step = RootedPair(nxt, prev)
        assert match_cyclic_extension(step, 3) is not None


def _verify_pattern_witness(pair, pat, m):
    """Re-check every clause of the matched template from scratch."""
    g, h = pair.outer, pair.inner
    s = g.s
    new_edges = g.edges - h.edges
    assert frozenset(pat.edges) == new_edges
    assert pat.new_vertices == g.vertices - h.vertices
    assert max_density(g)[0] < density_bound(s, m)
    if pat.kind == SECOND_TYPE_EDGE:
        (e,) = pat.edges
        xs = e & h.vertices
        assert 2 <= len(xs) <= s - 1
        assert set(pat.contacts) == xs
        assert e - h.vertices == pat.new_vertices
        return
    # path template clauses common to the first and second types
    path, closing = list(pat.edges[:-1]), pat.edges[-1]
    k = len(path)
    assert pat.k == k and 1 <= k <= m - 1
    x1 = pat.contacts[0]
    assert path[0] & h.vertices == {x1}
    seen = set(path[0])
    prev_fresh = path[0] - {x1}
    for e in path[1:]:
        assert not e & h.vertices
        joint = e & seen
        assert len(joint) == 1 and joint <= prev_fresh
        prev_fresh = e - joint
        seen |= e
    assert closing & prev_fresh  # contains a path end
    zs = closing - h.vertices - seen
    assert len(zs) == pat.l
    if pat.kind == FIRST_TYPE:
        assert closing & h.vertices <= {x1}
        assert 0 <= pat.l < s - 1
    else:
        x2 = pat.contacts[1]
        assert closing & h.vertices == {x2} and x2 != x1
        assert 0 <= pat.l <= s - 2


def test_cyclic_witnesses_satisfy_template_clauses():
    rng = random.Random(90)
    matched = 0
    for _ in range(250):
        g = random_hypergraph(rng, rng.randint(3, 7), p=rng.uniform(0.05, 0.35))
        inner_size = rng.randint(1, g.num_vertices - 1)
        inner = g.induced(frozenset(sorted(g.vertices)[:inner_size]))
        pair = RootedPair(g, inner)
        for m in (1, 2, 3):
            pat = match_cyclic_extension(pair, m)
            if pat is not None:
                matched += 1
                _verify_pattern_witness(pair, pat, m)
    assert matched > 20


@st.composite
def rooted_pairs(draw, max_n: int = 6):
    """Small pairs: a random outer graph, an inner vertex subset and any subset
    of the outer edges it induces (so the inner graph need not be induced)."""
    n = draw(st.integers(1, max_n))
    pool = [frozenset(c) for c in itertools.combinations(range(1, n + 1), 3)]
    edges = frozenset(draw(st.lists(st.sampled_from(pool), max_size=7))) if pool else frozenset()
    inner_v = frozenset(draw(st.permutations(range(1, n + 1)))[:draw(st.integers(0, n))])
    inside = sorted((e for e in edges if e <= inner_v), key=sorted)
    keep = draw(st.lists(st.booleans(), min_size=len(inside), max_size=len(inside)))
    inner = Hypergraph(3, inner_v, frozenset(e for e, k in zip(inside, keep) if k))
    return RootedPair(Hypergraph(3, frozenset(range(1, n + 1)), edges), inner)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(rooted_pairs(), st.integers(-3, 12), st.integers(1, 8))
# a non-induced inner graph is safe at alpha < 0
@example(RootedPair(Hypergraph.make(3, range(1, 5), [(1, 2, 3)]),
                             Hypergraph.make(3, [1, 2, 3], [])), -1, 1)
# no difference vertices and one added edge: neutral at alpha = 0
@example(RootedPair(Hypergraph.make(3, range(1, 7), [(4, 5, 6)]),
                             Hypergraph.make(3, range(1, 7), [])), 0, 1)
def test_pair_walk_against_sign_table(pair, an, ad):
    # alpha <= 0 included
    alpha = F(an, ad)
    assert classify_pair(pair, alpha).value == brute_pair_class(pair, alpha)
    assert is_pair_strictly_balanced(pair) == brute_pair_strictly_balanced(pair)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(rooted_pairs(7))
def test_prop1_parameters_against_their_definitions(pair):
    p = prop1_poisson_parameter(pair)
    assert (p.a, p.a1, p.a2) == brute_prop1_constants(pair)


def test_prop1_isolated_outer_vertices_in_closed_form():
    # G = the 3-edge {1, 2, 3} and m + 1 isolated vertices, H = the edge
    # alone or with the isolated vertex 4: a = a1 = 3! and a2 = r! for the r
    # isolated vertices of G outside H, found without listing the r! maps
    start = time.process_time()
    for m in range(10):
        g = Hypergraph.make(3, range(1, m + 5), [(1, 2, 3)])
        for inner in (EDGE_EXT, EDGE_EXT.union(VERTEX.relabel({1: 4}))):
            pair = RootedPair(g, inner)
            p = prop1_poisson_parameter(pair)
            assert (p.a, p.a1, p.a2) == (6, 6, math.factorial(m + 4 - inner.num_vertices))
            if m <= 2:
                assert (p.a, p.a1, p.a2) == brute_prop1_constants(pair)
    assert time.process_time() - start < 2.0


def test_pair_cuts_at_every_class():
    w = theorem6_pair(3, 1, 2)
    for alpha, cls in ((w.alpha, "neutral"), (w.alpha - F(1, 8), "safe"),
                       (w.alpha + F(1, 8), "rigid"), (F(-2), "safe")):
        assert classify_pair(w.pair, alpha).value == cls == brute_pair_class(w.pair, alpha)
    assert is_pair_strictly_balanced(w.pair) and brute_pair_strictly_balanced(w.pair)
    # f_alpha(G, H) = 0, but each pendant edge alone also scores 0: other, not neutral
    fan = Hypergraph.make(3, range(1, 6), [(1, 2, 3), (1, 4, 5)])
    pair = RootedPair(fan, Hypergraph.make(3, [1], []))
    assert classify_pair(pair, F(2)).value == "other" == brute_pair_class(pair, F(2))
    assert not is_pair_strictly_balanced(pair)
    # a non-induced inner graph: two of the three triangles of a K4
    k4 = Hypergraph.make(3, range(1, 5), itertools.combinations(range(1, 5), 3))
    pair = RootedPair(k4, Hypergraph.make(3, range(1, 4), []))
    for alpha in (F(1, 2), F(1), F(3)):
        assert classify_pair(pair, alpha).value == brute_pair_class(pair, alpha)
    assert not is_pair_strictly_balanced(pair)
