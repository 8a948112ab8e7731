import functools
import itertools
import math
import random
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    all_hypergraphs,
    brute_automorphism_count,
    brute_automorphisms,
    brute_distance,
    brute_embedding_count,
    brute_embeddings,
    brute_max_density,
    brute_max_density_witness,
    hypergraphs,
    random_hypergraph,
    reference_bits,
    reference_embeddings,
    scrambled,
    write_shg,
)
from zolab.constructions import loose_path, theorem6_pair
from zolab.errors import VerificationError
from zolab.hypercore import (
    DEFAULT_SEARCH_CAP,
    Hypergraph,
    RootedPair,
    _bfs_layers,
    _edge_completions,
    _images,
    _iter_embeddings,
    _max_closure,
    automorphism_count,
    automorphisms,
    canonical_relabel,
    copy_images,
    count_copies,
    density,
    distance,
    has_copy,
    is_strictly_balanced,
    max_density,
    parse_shg,
    to_shg,
)

F = Fraction

EDGE = Hypergraph.make(3, [1, 2, 3], [(1, 2, 3)])
H1 = Hypergraph.make(3, range(1, 5), [(1, 2, 3), (3, 4, 1)])
H2 = Hypergraph.make(3, range(1, 7), [(1, 2, 3), (3, 4, 5), (5, 6, 1)])
T6_H = None  # built lazily in the test that needs it


def _embedding_count(motif: Hypergraph, host: Hypergraph) -> int:
    """Injective maps sending every motif edge to a host edge: the matcher
    without orbit conditions."""
    return sum(1 for _ in _iter_embeddings(motif, host))


def _induced_images(motif: Hypergraph, host: Hypergraph) -> set:
    return {_image(m, motif) for m in _images(motif, host, DEFAULT_SEARCH_CAP, True)}


def _image(m: dict[int, int], motif: Hypergraph):
    return frozenset(m.values()), frozenset(frozenset(m[u] for u in e) for e in motif.edges)


def test_type_invariants():
    with pytest.raises(ValueError):
        Hypergraph.make(2, [1, 2], [(1, 2)])
    with pytest.raises(ValueError):
        Hypergraph.make(3, [1, 2, 3], [(1, 2)])
    with pytest.raises(ValueError):
        Hypergraph.make(3, [1, 2, 3], [(1, 2, 4)])


def test_density_examples():
    assert density(EDGE) == F(1, 3)
    assert density(H1) == F(1, 2)
    from zolab.constructions import theorem6_pair
    w = theorem6_pair(3, 1, 2)
    assert w.h.num_vertices == 14 and w.h.num_edges == 8
    assert density(w.h) == F(4, 7)
    with pytest.raises(ValueError):
        density(Hypergraph.make(3, [], []))


def test_max_density_examples():
    edgeless = Hypergraph.make(3, range(1, 6), [])
    val, wit = max_density(edgeless)
    assert val == 0 and wit.num_vertices == 1
    two = Hypergraph.make(3, range(1, 7), [(1, 2, 3), (4, 5, 6)])
    val, _ = max_density(two)
    assert val == F(1, 3)
    from zolab.constructions import theorem8_witnesses
    h = theorem8_witnesses(3, 4).h
    assert h.num_vertices == 9 and h.num_edges == 5
    assert max_density(h)[0] == F(5, 9)


def test_max_density_against_bruteforce():
    rng = random.Random(20240501)
    for _ in range(40):
        g = random_hypergraph(rng, rng.randint(3, 7), p=rng.uniform(0.1, 0.6))
        assert max_density(g)[0] == brute_max_density(g)


def test_max_density_witness_is_maximizer():
    rng = random.Random(7)
    for _ in range(25):
        g = random_hypergraph(rng, 6, p=0.4)
        val, wit = max_density(g)
        assert density(wit) == val
        assert wit.vertices <= g.vertices and wit.edges <= g.edges


def test_strict_balance_examples():
    assert is_strictly_balanced(EDGE)
    two = Hypergraph.make(3, range(1, 7), [(1, 2, 3), (4, 5, 6)])
    assert not is_strictly_balanced(two)
    assert is_strictly_balanced(H2)


def test_strict_balance_against_definition():
    # exhaustive over induced sub-hypergraphs on small hosts
    rng = random.Random(3)
    for _ in range(30):
        g = random_hypergraph(rng, 6, p=0.35)
        rho = density(g)
        expect = all(
            F(sum(1 for e in g.edges if e <= frozenset(sub)), len(sub)) < rho
            for size in range(1, 6)
            for sub in itertools.combinations(sorted(g.vertices), size))
        assert is_strictly_balanced(g) == expect


def test_balanced_implies_unique_max_witness():
    for g in (EDGE, H1, H2):
        assert is_strictly_balanced(g)
        val, wit = max_density(g)
        assert val == density(g)
        assert wit == g


def test_automorphism_examples():
    assert automorphism_count(EDGE) == 6
    assert automorphism_count(H1) == 4
    assert automorphism_count(H2) == 6


def _map_set(maps) -> set[tuple[tuple[int, int], ...]]:
    return {tuple(sorted(m.items())) for m in maps}


def test_automorphism_matches_factorial_enumeration():
    # exhaustive on 4 vertices, sampled on 5..7: the same maps, not just as many
    rng = random.Random(99)
    graphs = [random_hypergraph(rng, rng.randint(5, 7), p=rng.uniform(0.1, 0.5))
              for _ in range(25)]
    for g in itertools.chain(all_hypergraphs(4), graphs):
        brute = brute_automorphisms(g)
        assert automorphism_count(g) == len(brute)
        assert _map_set(automorphisms(g)) == _map_set(brute)


def _loose_cycle(t: int, first: int = 1) -> list[tuple[int, int, int]]:
    """Loose 3-uniform cycle of t edges on the labels first .. first + 2t - 1."""
    junction = [first + 2 * i for i in range(t)]
    return [(junction[i], junction[i] + 1, junction[(i + 1) % t]) for i in range(t)]


def _affine_plane() -> Hypergraph:
    """AG(2,3): the 12 lines of the affine plane over GF(3) as 3-edges."""
    points = [(x, y) for x in range(3) for y in range(3)]
    label = {p: i + 1 for i, p in enumerate(points)}
    lines = {frozenset(label[(x0 + k * dx) % 3, (y0 + k * dy) % 3] for k in range(3))
             for x0, y0 in points for dx, dy in ((0, 1), (1, 0), (1, 1), (1, 2))}
    assert len(lines) == 12
    return Hypergraph.make(3, range(1, 10), lines)


TWO_TRIANGLES = Hypergraph.make(3, range(1, 13), _loose_cycle(3) + _loose_cycle(3, 7))


def test_automorphism_groups_of_known_order():
    # Degree is the matcher's only vertex filter.  A loose path's end vertices
    # and its middle edges' pendants all have degree 1, and only their
    # neighbours' degrees tell them apart; every vertex of AG(2,3) has degree 4.
    cases = [(Hypergraph.make(3, range(1, 2 * t + 1), _loose_cycle(t)), 2 * t)
             for t in (3, 4, 5, 8)]
    cases.append((TWO_TRIANGLES, 72))
    cases += [(loose_path(3, t), 8) for t in (3, 4)]
    cases.append((_affine_plane(), 432))
    # the inner graphs of the Theorem 6 bundle and of a Theorem 8 witness: the
    # plan places their leaves after every vertex of degree >= 2
    from zolab.constructions import theorem8_witnesses
    cases += [(theorem6_pair(3, 1, 2).h, 48), (theorem8_witnesses(3, 4).h, 4)]
    for g, order in cases:
        maps = automorphisms(g)
        assert automorphism_count(g) == len(maps) == order
        assert len(_map_set(maps)) == order
        for m in maps:
            assert sorted(m) == sorted(m.values()) == g.sorted_vertices()
            assert {frozenset(m[v] for v in e) for e in g.edges} == g.edges
        if g.num_vertices <= 8:
            assert _map_set(maps) == _map_set(brute_automorphisms(g))


def test_copy_examples():
    assert count_copies(H1, H1) == 1
    assert count_copies(EDGE, H2) == 3
    from zolab.constructions import theorem8_witnesses
    h = theorem8_witnesses(3, 4).h
    assert count_copies(H1, h) == 1


def test_copies_times_aut_equals_embeddings():
    rng = random.Random(4)
    motifs = [EDGE, H1, H2]
    for _ in range(15):
        host = random_hypergraph(rng, 7, p=0.3)
        for motif in motifs:
            emb = _embedding_count(motif, host)
            assert emb == brute_embedding_count(motif, host)
            assert count_copies(motif, host) * automorphism_count(motif) == emb


def test_induced_copies_exposed():
    # a copy of EDGE inside H1 is never induced-minimal vs extra edges question:
    # here host has an extra edge on the same 4 vertices
    host = Hypergraph.make(3, range(1, 5), [(1, 2, 3), (3, 4, 1), (1, 2, 4)])
    assert count_copies(H1, host) == 3          # pairs of edges sharing 2 vertices
    assert count_copies(H1, host, induced=False) == 3
    assert count_copies(H1, host, induced=True) == 0


def test_distance_examples_and_metric():
    assert distance(H1, 2, 2) == 0
    assert distance(H1, 1, 2) == 1
    assert distance(H1, 2, 4) == 2
    two = Hypergraph.make(3, range(1, 7), [(1, 2, 3), (4, 5, 6)])
    assert distance(two, 1, 4) == math.inf
    with pytest.raises(ValueError):
        distance(H1, 1, 99)

    rng = random.Random(12)
    for _ in range(10):
        g = random_hypergraph(rng, 8, p=0.15)
        verts = sorted(g.vertices)
        d = {(x, y): distance(g, x, y) for x in verts for y in verts}
        for x in verts:
            for y in verts:
                assert d[x, y] == d[y, x]
                assert d[x, y] == brute_distance(g, x, y)
                for z in verts:
                    if d[x, z] != math.inf and d[z, y] != math.inf:
                        assert d[x, y] <= d[x, z] + d[z, y]


def test_density_le_max_density():
    rng = random.Random(5)
    for _ in range(30):
        g = random_hypergraph(rng, rng.randint(3, 8), p=0.3)
        assert density(g) <= max_density(g)[0]


def test_rooted_pair_invariants():
    pair = RootedPair(H1, EDGE)
    assert pair.v_rel == 1 and pair.e_rel == 1
    assert pair.rel_density() == F(1, 1)
    # an inner edge that is not an outer edge, inner vertices outside outer
    # with or without an edge on them, and an arity mismatch
    for inner in (Hypergraph.make(3, [1, 2, 4], [(1, 2, 4)]),
                  Hypergraph.make(3, [1, 2, 3, 9], [(1, 2, 3)]),
                  Hypergraph.make(3, [10, 20, 30], [(10, 20, 30)]),
                  Hypergraph.make(4, [1, 2, 3, 4], [])):
        with pytest.raises(ValueError, match="inner is not a sub-hypergraph of outer"):
            RootedPair(H1, inner)


def test_shg_round_trip():
    for g in (EDGE, H1, H2):
        assert parse_shg(to_shg(g)) == g
    text = "# comment\ns 3 n 5\n1 2 3  # trailing comment\n\n3 4 5\n"
    g = parse_shg(text)
    assert g.num_vertices == 5 and g.num_edges == 2
    assert parse_shg(to_shg(g)) == g
    with pytest.raises(ValueError):
        parse_shg("s 3 n 3\n1 2\n")
    with pytest.raises(ValueError):
        parse_shg("s 3 n 3\n1 2 9\n")
    with pytest.raises(ValueError):
        parse_shg("1 2 3\n")
    with pytest.raises(ValueError, match="negative vertex count"):
        parse_shg("s 3 n -1\n")
    with pytest.raises(ValueError, match="line 4: repeats the edge of line 2"):
        parse_shg("s 3 n 4\n1 2 3\n2 3 4\n3 1 2\n")
    # non-canonical labels must be relabeled before serialization
    odd = Hypergraph.make(3, [5, 7, 9], [(5, 7, 9)])
    with pytest.raises(ValueError):
        to_shg(odd)
    canon, mapping = canonical_relabel(odd)
    assert parse_shg(to_shg(canon)) == canon
    assert mapping == {5: 1, 7: 2, 9: 3}


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.data())
def test_shg_file_round_trip(data):
    s = data.draw(st.sampled_from((3, 4)))
    g = data.draw(hypergraphs(s, data.draw(st.integers(0, 7))))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "g.shg"
        write_shg(str(path), g)
        assert parse_shg(path.read_text(encoding="ascii")) == g


def test_labels_need_not_be_contiguous():
    g = Hypergraph.make(3, [100, -5, 7, 42], [(100, -5, 7), (7, 42, 100)])
    assert density(g) == F(1, 2)
    assert automorphism_count(g) == 4
    assert distance(g, -5, 42) == 2


def _random_host(seed: int, n: int, p: float) -> Hypergraph:
    return random_hypergraph(random.Random(seed), n, p=p)


hosts = st.builds(_random_host, st.integers(0, 2**32 - 1), st.integers(3, 7),
                  st.floats(0.05, 0.6))
motifs = st.builds(_random_host, st.integers(0, 2**32 - 1), st.integers(3, 5),
                   st.floats(0.1, 0.7))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(motifs, hosts)
def test_matcher_against_brute_force(motif, host):
    emb = brute_embedding_count(motif, host)
    aut = brute_automorphism_count(motif)
    assert automorphism_count(motif) == aut
    assert _embedding_count(motif, host) == emb
    assert count_copies(motif, host) == emb // aut
    assert has_copy(motif, host) == (emb > 0)
    # induced copies: images whose vertex set carries no further host edge
    images = copy_images(motif, host)
    induced = {(vs, es) for vs, es in images
               if all(e in es for e in host.edges if e <= vs)}
    assert _induced_images(motif, host) == induced
    assert count_copies(motif, host, induced=True) == len(induced)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(hosts)
def test_incidence_index_against_edge_scans(g):
    for v in g.vertices:
        scanned = [e for e in g.edges if v in e]
        assert g.degree(v) == len(scanned)
        assert g.co_edge_neighbors(v) == set().union(*scanned) - {v}
        for y in g.vertices:
            assert distance(g, v, y) == brute_distance(g, v, y)
    assert g.degree(max(g.vertices) + 1) == 0


def _members(labels: list[int], mask: int) -> set[int]:
    return {v for j, v in enumerate(labels) if mask >> j & 1}


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from([3, 4]), st.integers(0, 2**32 - 1))
def test_matcher_on_scrambled_labels(s, seed):
    rng = random.Random(seed)
    host = scrambled(random_hypergraph(rng, rng.randint(s, 7), s, rng.uniform(0.05, 0.6)),
                     rng, rng.randint(0, 2))
    motif = scrambled(random_hypergraph(rng, rng.randint(s, s + 2), s, rng.uniform(0.2, 0.8)),
                      rng, rng.randint(0, 1))
    emb = brute_embedding_count(motif, host)
    aut = brute_automorphism_count(motif)
    assert automorphism_count(motif) == aut
    assert _embedding_count(motif, host) == emb
    assert count_copies(motif, host) == emb // aut
    assert has_copy(motif, host) == (emb > 0)
    images = copy_images(motif, host)
    assert len(images) == emb // aut
    for vs, es in images:
        assert len(vs) == motif.num_vertices and es <= host.edges and vs <= host.vertices
    induced = {(vs, es) for vs, es in images
               if all(e in es for e in host.edges if e <= vs)}
    assert _induced_images(motif, host) == induced
    assert count_copies(motif, host, induced=True) == len(induced)
    # the matcher's bitset index against edge scans
    for g in (host, motif):
        idx = g._bits
        assert idx == reference_bits(g)
        assert set(idx.bit) == {v for v in g.vertices if g.degree(v)}
        assert [idx.bit[v] for v in idx.labels] == list(range(len(idx.labels)))
        assert idx.labels == sorted(idx.labels)  # bits in ascending label order
        for v, j in idx.bit.items():
            assert _members(idx.labels, idx.adj[j]) == g.co_edge_neighbors(v)
        assert len(idx.degree_at_least) == max(map(g.degree, g.vertices)) + 1
        for d, mask in enumerate(idx.degree_at_least):
            assert _members(idx.labels, mask) == {v for v in idx.bit if g.degree(v) >= d}
        assert idx.edges == {sum(1 << idx.bit[v] for v in e) for e in g.edges}


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.data())
def test_bit_index_matches_the_per_edge_loop(data):
    # edgeless hosts, isolated vertices, s = 4, and labels past int64
    s = data.draw(st.sampled_from((3, 4)))
    g = data.draw(hypergraphs(s, data.draw(st.integers(0, 7))))
    assert g._bits == reference_bits(g)
    for shift in (1 << 63, -(1 << 70)):
        far = g.relabel({v: v + shift for v in g.vertices})
        assert far._bits == reference_bits(far)
    assert g.num_edges == len(g.edges)


def test_count_copies_rejects_an_image_produced_twice():
    host = Hypergraph.make(3, range(1, 5), [(1, 2, 3)])
    motif = Hypergraph.make(3, [1, 2, 3], [(1, 2, 3)])
    # no orbit conditions: the search yields all 6 maps onto the one copy
    motif.__dict__["_symmetry"] = ((),) * 3
    for fn in (count_copies, copy_images):
        with pytest.raises(VerificationError, match=r"copy image on \[1, 2, 3\] produced twice"):
            fn(motif, host)


def test_automorphism_count_does_not_list_the_group():
    # 6 maps of the edge times 13! of its isolated vertices; all 16! of the
    # complete 3-graph on 16 vertices; 3!^5 * 5! of five disjoint edges
    g = Hypergraph.make(3, range(1, 17), [(1, 2, 3)])
    cases = [(g, 6 * math.factorial(13)),
             (Hypergraph.from_edges(3, itertools.combinations(range(1, 17), 3)),
              math.factorial(16)),
             (Hypergraph.from_edges(3, [range(i, i + 3) for i in range(1, 16, 3)]),
              6 ** 5 * 120)]
    start = time.process_time()
    for graph, order in cases:
        assert automorphism_count(graph) == order
    assert time.process_time() - start < 1.0
    host = Hypergraph.make(3, range(1, 18), [(1, 2, 3), (4, 5, 6)])
    assert count_copies(g, host) == 2 * 14  # an edge, and the one vertex left out
    assert has_copy(g, host)


def _planted_host(motif: Hypergraph, seed: int) -> Hypergraph:
    """A host on up to two more vertices than motif: a relabelled copy of
    motif, a few of its edges dropped, and random extra edges."""
    rng = random.Random(seed)
    n = motif.num_vertices + rng.randint(0, 2)
    labels = dict(zip(motif.sorted_vertices(), rng.sample(range(1, n + 1), motif.num_vertices)))
    planted = [e for e in motif.relabel(labels).edges if rng.random() < 0.9]
    p = rng.uniform(0, 0.4 / n)
    extra = [c for c in itertools.combinations(range(1, n + 1), 3) if rng.random() < p]
    return Hypergraph.make(3, range(1, n + 1), planted + extra)


CANONICAL_MOTIFS = [
    Hypergraph.make(3, range(1, 6), [(1, 2, 3)]),                  # 3! * 2!
    Hypergraph.make(3, range(1, 7), [(1, 2, 3), (4, 5, 6)]),       # 3!^2 * 2
    Hypergraph.make(3, range(1, 7), _loose_cycle(3)),              # 6
    Hypergraph.make(3, range(1, 9), _loose_cycle(3)),              # 6 * 2!
    Hypergraph.make(3, range(1, 9), _loose_cycle(4)),              # 8
    H2.union(Hypergraph.make(3, [7, 8, 9], [])),                   # 6 * 3!
    TWO_TRIANGLES,                                                 # 72
    _affine_plane(),                                               # 432
    theorem6_pair(3, 1, 2).h,                                      # 48
]


@functools.cache
def _reference_automorphism_count(motif: Hypergraph) -> int:
    return brute_automorphism_count(motif) if motif.num_vertices <= 9 else len(automorphisms(motif))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from(CANONICAL_MOTIFS), st.integers(0, 2**32 - 1))
def test_canonical_search_yields_each_copy_once(motif, seed):
    host = _planted_host(motif, seed)
    # permutations are the reference while there are few; beyond that the
    # unconstrained search, itself checked against them on small graphs
    small = math.perm(host.num_vertices, motif.num_vertices) <= 50_000
    emb = (brute_embedding_count(motif, host) if small
           else _embedding_count(motif, host))
    aut = _reference_automorphism_count(motif)
    assert automorphism_count(motif) == aut and emb % aut == 0
    images = [_image(m, motif) for m in _iter_embeddings(motif, host, canonical=True)]
    assert len(set(images)) == len(images) == emb // aut
    assert set(images) == {_image(m, motif) for m in _iter_embeddings(motif, host)}
    assert count_copies(motif, host) == emb // aut
    assert copy_images(motif, host) == set(images)
    assert has_copy(motif, host) == (emb > 0)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.sampled_from([3, 4]), st.integers(0, 2**32 - 1))
def test_pinned_search_matches_permutation_search(s, seed):
    rng = random.Random(seed)
    motif = scrambled(random_hypergraph(rng, rng.randint(s, 5), s, rng.uniform(0.3, 0.9)),
                      rng, rng.randint(0, 1))
    host = scrambled(random_hypergraph(rng, rng.randint(s + 1, s + 3), s, rng.uniform(0.2, 0.7)),
                     rng, rng.randint(0, 2))
    order = motif._plan.order
    brute = list(brute_embeddings(motif, host))
    pool = host.sorted_vertices()
    lonely = sorted(host.vertices - set().union(*host.edges))
    for k in range(motif._plan.searched + 1):
        # host images of the first k positions: random host vertices and,
        # where there is a map, its images; then each with one image swapped
        # for an isolated host vertex or for another of its images
        prefixes = [[rng.choice(pool) for _ in range(k)]]
        if brute:
            copy = rng.choice(brute)
            prefixes.append([copy[v] for v in order[:k]])
        for prefix in prefixes[:]:
            if k and lonely:
                prefixes.append(prefix[:])
                prefixes[-1][rng.randrange(k)] = rng.choice(lonely)
            if k >= 2:
                i, j = rng.sample(range(k), 2)
                prefixes.append(prefix[:])
                prefixes[-1][j] = prefix[i]
        for pinned in prefixes:
            fast = [frozenset(m.items()) for m in _iter_embeddings(motif, host, pinned=tuple(pinned))]
            assert len(set(fast)) == len(fast)
            assert set(fast) == {frozenset(m.items()) for m in brute
                                 if all(m[v] == w for v, w in zip(order, pinned))}


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.sampled_from([3, 4]), st.integers(0, 2**32 - 1))
def test_plan_places_core_first_and_leaves_last(s, seed):
    rng = random.Random(seed)
    # up to three blocks of 1-4 random edges on s..2s+2 vertices: sparse, so
    # most have leaves, and a block may fall apart into more components
    edges = []
    for block in range(rng.randint(1, 3)):
        pool = range(20 * block, 20 * block + rng.randint(s, 2 * s + 2))
        edges += {tuple(sorted(rng.sample(pool, s))) for _ in range(rng.randint(1, 4))}
    motif = scrambled(Hypergraph.from_edges(s, edges), rng, rng.randint(0, 2))
    order, searched = motif._plan.order, motif._plan.searched
    assert sorted(order) == motif.sorted_vertices()
    assert all(motif.degree(v) > 0 for v in order[:searched])
    assert all(motif.degree(v) == 0 for v in order[searched:])
    seen: set[int] = set()
    for i, v in enumerate(order[:searched]):
        if not motif.co_edge_neighbors(v) & seen:
            # a component starts only when the previous one is placed
            assert not any(motif.co_edge_neighbors(u) & seen for u in order[i:searched])
            component = {v}
            for layer in _bfs_layers(motif, v):
                component |= layer
            degrees = [motif.degree(u) for u in order[i:i + len(component)]]
            assert set(order[i:i + len(component)]) == component
            assert degrees == sorted(degrees, key=lambda d: d == 1)  # leaves last
        seen.add(v)


def test_bundle_plans_are_pinned():
    # the inner graph's leaf 4 waits until vertex 2 and the other middles are
    # placed, instead of coming right after 1 and 3
    w = theorem6_pair(3, 1, 2)
    assert w.h._plan.order == (1, 3, 2, 6, 9, 12, 4, 5, 7, 8, 10, 11, 13, 14)
    assert w.g._plan.order == (1, 3, 2, 6, 9, 12, 16, 15, 19,
                               4, 5, 7, 8, 10, 11, 13, 14, 17, 18, 20, 21)


def _groups_filed(g: Hypergraph) -> dict[int, tuple[tuple[int, ...], ...]]:
    return {i: gs for i, gs in enumerate(g._plan.groups) if gs}


def test_plan_groups_are_pinned():
    # H1's two leaves share the placed pair {1, 3}; the bundle's connectors
    # 6, 9 and 12 (in g only 9 and 12, as 6 has degree 3 there) share the
    # hubs 1 and 2; H2 and the edge have no two positions alike
    w = theorem6_pair(3, 1, 2)
    assert H1._plan.order == (1, 3, 2, 4) and _groups_filed(H1) == {1: ((2, 3),)}
    assert _groups_filed(H2) == {} and _groups_filed(EDGE) == {}
    assert _groups_filed(w.h) == {2: ((3, 4, 5),)}
    assert _groups_filed(w.g) == {2: ((4, 5),)}


def _book(s: int, pages: int) -> Hypergraph:
    """pages s-edges on one spine of s - 1 vertices."""
    return Hypergraph.from_edges(s, [(*range(1, s), s - 1 + p) for p in range(1, pages + 1)])


def _hubs(s: int, m: int) -> Hypergraph:
    """Hubs 1 and 2 joined by m connectors, each connector in one s-edge
    with each hub, the other s - 2 vertices of every edge its own: the
    bundle's h at s = 3, m = 4.  The plan places one connector between the
    hubs, so the other m - 1 form a group when m >= 3."""
    fresh = itertools.count(3)
    edges = []
    for _ in range(m):
        c = next(fresh)
        edges += [(hub, c, *(next(fresh) for _ in range(s - 2))) for hub in (1, 2)]
    return Hypergraph.from_edges(s, edges)


GROUPED_MOTIFS = [H1, _book(3, 2), _book(3, 4), _book(4, 2), _book(4, 3), _hubs(3, 3),
                  _hubs(3, 4)]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from(GROUPED_MOTIFS), st.integers(0, 2**32 - 1))
def test_group_lookahead_keeps_the_maps_and_their_order(base, seed):
    rng = random.Random(seed)
    s = base.s
    motif = scrambled(base, rng, rng.randint(0, 1))
    assert any(motif._plan.groups)
    # a copy of the motif with some edges dropped, and random extra edges
    n = base.num_vertices + rng.randint(0, 2)
    spots = dict(zip(base.sorted_vertices(), rng.sample(range(1, n + 1), base.num_vertices)))
    planted = [e for e in base.relabel(spots).edges if rng.random() < 0.9]
    pool = list(itertools.combinations(range(1, n + 1), s))
    extra = rng.sample(pool, min(len(pool), rng.randint(0, n)))
    host = scrambled(Hypergraph.make(s, range(1, n + 1), planted + extra), rng, rng.randint(0, 1))
    for canonical in (False, True):
        assert (list(_iter_embeddings(motif, host, canonical=canonical))
                == list(reference_embeddings(motif, host, canonical=canonical)))
    maps = list(reference_embeddings(motif, host))
    order = motif._plan.order
    verts = host.sorted_vertices()
    for k in range(1, motif._plan.searched + 1):
        prefixes = [tuple(rng.choice(verts) for _ in range(k))]
        if maps:
            prefixes.append(tuple(rng.choice(maps)[v] for v in order[:k]))
        for pinned in prefixes:
            assert (list(_iter_embeddings(motif, host, pinned=pinned))
                    == list(reference_embeddings(motif, host, pinned=pinned)))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from([3, 4]).flatmap(lambda s: hypergraphs(s, s + 3)))
def test_edge_completions_against_their_definition(g):
    for size in range(1, g.s + 2):
        want = {}
        for part in map(frozenset, itertools.combinations(g.sorted_vertices(), size)):
            holders = [e for e in g.edges if part <= e]
            if holders:
                want[part] = set().union(*holders) - part
        assert _edge_completions(g, size) == want


def _k4tail(s: int) -> Hypergraph:
    """The complete s-graph on s + 1 vertices with a loose tail of two edges:
    its densest part is proper."""
    head = list(itertools.combinations(range(1, s + 2), s))
    tail = [range(s + 1, 2 * s + 1), range(2 * s, 3 * s)]
    return Hypergraph.make(s, range(1, 3 * s), head + tail)


density_hosts = st.one_of(
    st.sampled_from((3, 4)).flatmap(lambda s: st.integers(1, 9).flatmap(
        lambda n: hypergraphs(s, n))),
    st.sampled_from([
        _k4tail(3), _k4tail(4),
        Hypergraph.make(3, [7], []),                                  # one vertex
        Hypergraph.make(3, range(1, 9), [(1, 2, 3)]),                 # isolated vertices
        Hypergraph.make(3, range(1, 9), itertools.chain(              # two tied K4s
            itertools.combinations(range(1, 5), 3),
            itertools.combinations(range(5, 9), 3))),
        Hypergraph.make(3, range(1, 9), [(5, 6, 7), (1, 2, 3), (2, 3, 4), (6, 7, 8)]),  # tied pairs
    ]))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(density_hosts)
def test_density_cuts_against_brute_witness(g):
    # the witness is the first maximizer in mask order, ties included
    value, witness = brute_max_density_witness(g)
    assert max_density(g) == (value, witness)
    assert is_strictly_balanced(g) == (witness.vertices == g.vertices)


closure_cases = st.integers(1, 7).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.lists(st.integers(0, n - 1), min_size=1, max_size=3, unique=True)
             .map(tuple), max_size=8),
    st.integers(0, 3), st.integers(0, 3)))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(closure_cases)
def test_max_closure_readings_against_all_subsets(case):
    # maximizers of gain * e(S) - cost * |S| by brute force over all 2^n masks
    n, edges, gain, cost = case
    score = {mask: gain * sum(all(mask >> v & 1 for v in e) for e in edges)
             - cost * mask.bit_count() for mask in range(1 << n)}
    best = max(score.values())
    maximizers = [mask for mask in score if score[mask] == best]

    def smallest(masks):  # the one that lies inside all the others
        return next(x for x in masks if all(x & ~y == 0 for y in masks))

    value, smallest_reading, first = _max_closure(edges, n, gain, cost)
    assert value == best
    assert smallest_reading() == smallest(maximizers)
    assert first() == min((mask for mask in maximizers if mask), default=None)


def test_long_loose_cycle_balance_without_per_vertex_searches():
    # 1000 edges on 2000 vertices, strictly balanced at density 1/2: one
    # backward residual search settles balance and the witness, not one per vertex
    g = Hypergraph.make(3, range(1, 2001), _loose_cycle(1000))
    start = time.process_time()
    assert is_strictly_balanced(g)
    assert max_density(g) == (F(1, 2), g)
    assert time.process_time() - start < 1.0


def test_planted_cycles_witness_in_one_backward_search():
    # a 1000-edge loose cycle on 1..2000 and a 3-edge one on 2001..2006, both
    # at density 1/2: the witness is the big cycle, the first maximizer in
    # mask order, found without one residual search per vertex
    g = Hypergraph.make(3, range(1, 2007), _loose_cycle(1000) + _loose_cycle(3, 2001))
    start = time.process_time()
    assert max_density(g) == (F(1, 2), g.induced(range(1, 2001)))
    assert not is_strictly_balanced(g)
    assert time.process_time() - start < 0.5


def test_density_cuts_reject_empty_graphs():
    g = _k4tail(3)
    for fn in (max_density, is_strictly_balanced):
        with pytest.raises(ValueError):
            fn(Hypergraph.make(3, [], []))
    assert max_density(g) == (F(1), g.induced(range(1, 5)))
