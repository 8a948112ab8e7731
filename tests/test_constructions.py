import hashlib
import itertools
import random
import time
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import brute_omega_tilde, random_hypergraph
from zolab import constructions
from zolab.constructions import (
    loose_path,
    omega_tilde_check,
    theorem6_pair,
    theorem8_witnesses,
)
from zolab.errors import VerificationError
from zolab.extlab import PairClass, classify_pair, is_pair_strictly_balanced
from zolab.folang import build_theorem8_L, evaluate
from zolab.hypercore import (
    Hypergraph,
    density,
    is_strictly_balanced,
    max_density,
)

F = Fraction


def test_loose_path_shape():
    p1 = loose_path(3, 1)
    assert p1.num_vertices == 3 and p1.num_edges == 1
    p2 = loose_path(3, 2)
    assert p2.num_vertices == 5 and p2.num_edges == 2
    for t in range(1, 9):
        p = loose_path(3, t)
        assert p.num_vertices == t * 2 + 1
        assert density(p) == F(t, t * 2 + 1)
        # consecutive edges share exactly one vertex, others none
        edges = sorted(p.edges, key=lambda e: min(e))
    for s in (3, 4, 5):
        p = loose_path(s, 3)
        assert p.num_vertices == 3 * (s - 1) + 1


def test_loose_path_intersections():
    p = loose_path(3, 4, endpoints=(1, 2))
    # order edges along the chain by walking from endpoint 1
    edges = list(p.edges)
    chain = []
    cur = 1
    used = set()
    while len(chain) < 4:
        nxt = next(e for e in edges if cur in e and e not in used)
        used.add(nxt)
        chain.append(nxt)
        ends = [v for v in nxt if v != cur and any(
            v in f for f in edges if f is not nxt and f not in used)]
        cur = ends[0] if ends else 2
    for i, j in itertools.combinations(range(4), 2):
        inter = chain[i] & chain[j]
        assert len(inter) == (1 if j == i + 1 else 0)


def test_theorem6_pair_identities():
    w = theorem6_pair(3, 1, 2)
    assert w.h.num_vertices == 14 and w.h.num_edges == 8
    assert density(w.h) == F(4, 7)
    assert w.alpha == F(7, 4)
    assert w.pair.rel_density() == F(4, 7) == 1 / w.alpha
    assert is_strictly_balanced(w.h)
    assert is_pair_strictly_balanced(w.pair)
    assert classify_pair(w.pair, w.alpha) == PairClass.NEUTRAL


def test_theorem6_pair_grid():
    for s, l, m in [(3, 1, 2), (3, 1, 3), (3, 2, 2), (4, 1, 2), (4, 2, 2)]:
        w = theorem6_pair(s, l, m)
        t = 1 << l
        assert density(w.h) == 1 / w.alpha
        assert w.pair.rel_density() == 1 / w.alpha
        assert w.pair.v_rel == m * (t * (s - 1) - 1) + 1
        assert w.alpha == F(s - 1) - F(1, t) + F(1, t * m)
        # every proper initial segment is on the safe side
        assert classify_pair(w.pair, w.alpha) == PairClass.NEUTRAL
    with pytest.raises(ValueError):
        theorem6_pair(3, 0, 2)
    with pytest.raises(ValueError):
        theorem6_pair(3, 1, 1)


def test_loose_path_endpoint_distance():
    from zolab.hypercore import distance
    for s in (3, 4):
        for t in range(1, 6):
            p = loose_path(s, t, endpoints=(1, 2))
            assert distance(p, 1, 2) == t


def test_theorem6_midpoint_distances():
    from zolab.hypercore import distance
    for s, l, m in [(3, 1, 2), (3, 2, 2), (4, 1, 2)]:
        w = theorem6_pair(s, l, m)
        half = 1 << (l - 1)
        a, b = w.endpoints
        for x in w.midpoints:
            assert distance(w.h, a, x) == half
            assert distance(w.h, x, b) == half
        # distinct midpoints sit at the full bundle distance from each other
        for i, x in enumerate(w.midpoints):
            for y in w.midpoints[i + 1:]:
                assert distance(w.h, x, y) == 2 * half
        # the hub lies one bundle length from its attached midpoints
        for x in w.midpoints[:m]:
            assert distance(w.g, w.hub, x) == 2 * half


def test_theorem6_strict_balance_within_caps():
    for s, l, m in [(3, 1, 2), (3, 1, 3)]:
        w = theorem6_pair(s, l, m)
        assert is_strictly_balanced(w.h)


def test_witness_builders_verify_at_every_size():
    # v(H) = 30 and 39: the density checks run at every size
    w6 = theorem6_pair(3, 2, 2)
    assert w6.h.num_vertices == 30 and w6.g.num_vertices == 45
    w8 = theorem8_witnesses(3, 6, 2, 5)
    assert w8.h.num_vertices == 39
    for k, a1, a2 in [(5, 1, 4), (6, 8, 8), (7, 1, 3), (7, 4, 9), (7, 16, 16)]:
        start = time.process_time()
        h = theorem8_witnesses(3, k, a1, a2).h
        assert time.process_time() - start < 1.0, (k, a1, a2)
    assert h.num_vertices == 121
    with mock.patch.object(constructions, "max_density", lambda g: (F(1), g)):
        with pytest.raises(VerificationError):
            theorem8_witnesses(3, 6, 2, 5)
    with mock.patch.object(constructions, "is_strictly_balanced", lambda g: False):
        with pytest.raises(VerificationError):
            theorem6_pair(3, 2, 2)
    with mock.patch.object(constructions, "is_pair_strictly_balanced", lambda p: False):
        with pytest.raises(VerificationError):
            theorem6_pair(3, 2, 2)


def test_theorem8_base_variant():
    w = theorem8_witnesses(3, 4)
    assert w.h.num_vertices == 9 and w.h.num_edges == 5
    assert density(w.h) == F(5, 9)
    assert w.alpha == F(9, 5)
    assert 1 / density(w.h) == w.alpha
    assert w.part1.num_vertices == 4 and w.part1.num_edges == 2
    assert w.part2.num_vertices == 6 and w.part2.num_edges == 3
    assert max_density(w.h)[0] == F(5, 9)
    L = build_theorem8_L(3, 4)
    assert evaluate(L, w.h)
    assert not evaluate(L, Hypergraph.make(3, range(1, 10), []))


def test_theorem8_part_shapes_general_s():
    for s in (3, 4, 5):
        w = theorem8_witnesses(s, s + 1)
        assert w.part1.num_vertices == 2 * (s - 1) and w.part1.num_edges == 2
        assert w.part2.num_vertices == 3 * (s - 1) and w.part2.num_edges == 3
        assert w.h.num_edges == 5
        assert 1 / density(w.h) == w.alpha == F(s - 1) - F(1, 5)


def test_theorem8_chain_variant():
    w = theorem8_witnesses(3, 5, 2, 2)
    assert w.a == 1
    assert w.h.num_edges == (1 << 3) + 1 == 9
    assert w.h.num_vertices == 9 * 2 - 1
    assert 1 / density(w.h) == w.alpha == F(2) - F(1, 9)
    # the split changes H but not the identities
    w2 = theorem8_witnesses(3, 5, 1, 3)
    assert w2.h.num_edges == 9 and 1 / density(w2.h) == w2.alpha
    with pytest.raises(ValueError):
        theorem8_witnesses(3, 5, 5, 1)
    with pytest.raises(ValueError):
        theorem8_witnesses(3, 4, 1, 1)
    with pytest.raises(ValueError):
        theorem8_witnesses(3, 5)


# SHA-256 over `_theorem8_pinned` lines "s k a1 a2 sorted-edge-list center"
THEOREM8_WITNESSES_SHA256 = "1ebc3dfb99f4ee0e13b6e50f8f6336b798c5fce1e8af421600569ae53d7b6cdb"


def _theorem8_pinned():
    for s in (3, 4, 5):
        yield s, s + 1, None, None
        for k in (s + 2, s + 3):
            for a1, a2 in itertools.product(range(1, (1 << (k - s)) + 1), repeat=2):
                if a1 + a2 >= 4:  # a = a1 + a2 - 3 >= 1
                    yield s, k, a1, a2


def test_theorem8_witnesses_are_pinned():
    # every witness for s = 3..5, k = s+1..s+3 and every valid split keeps its labels
    digest = hashlib.sha256()
    count = 0
    for s, k, a1, a2 in _theorem8_pinned():
        w = theorem8_witnesses(s, k, a1, a2)
        digest.update(f"{s} {k} {a1} {a2} {w.h.sorted_edges()} {w.center}\n".encode())
        count += 1
    assert count == 225
    assert digest.hexdigest() == THEOREM8_WITNESSES_SHA256


def test_theorem8_counts_match_closed_form():
    for (s, k, a1, a2) in [(3, 5, 2, 2), (3, 6, 4, 3), (4, 6, 2, 3)]:
        w = theorem8_witnesses(s, k, a1, a2)
        e = (1 << (k - s + 1)) + (a1 + a2 - 3)
        assert w.h.num_edges == e
        assert w.h.num_vertices == e * (s - 1) - 1
        assert w.alpha == F(s - 1) - F(1, e)


def test_omega_tilde_check():
    w = theorem8_witnesses(3, 4)
    assert omega_tilde_check(w.h, F(9, 5), size_cap=9)
    extra = next(frozenset(c) for c in itertools.combinations(sorted(w.h.vertices), 3)
                 if frozenset(c) not in w.h.edges)
    worse = Hypergraph(3, w.h.vertices, w.h.edges | {extra})
    assert not omega_tilde_check(worse, F(9, 5), size_cap=9)
    assert omega_tilde_check(Hypergraph.make(3, range(1, 6), []), F(9, 5), size_cap=5)
    # size cap below any violator keeps the check green
    assert omega_tilde_check(worse, F(9, 5), size_cap=3)
    # exact at any size of alpha, also right at the density 5/9 of w.h
    big = 1 << 70
    assert not omega_tilde_check(w.h, F(9 * big + 1, 5 * big), size_cap=9)
    assert omega_tilde_check(w.h, F(9 * big, 5 * big + 1), size_cap=9)
    assert not omega_tilde_check(worse, F(big, 3), size_cap=9)
    # 45 vertices on edges: size_cap alone bounds the search
    w6 = theorem6_pair(3, 2, 2)
    assert omega_tilde_check(w6.g, w6.alpha, size_cap=7)
    edge = Hypergraph.make(3, [1, 2, 3], [(1, 2, 3)])
    for alpha in (F(-1), F(0), F(-9, 5)):  # 1/alpha is negative or undefined
        with pytest.raises(ValueError, match="alpha must be positive"):
            omega_tilde_check(edge, alpha, size_cap=3)


def _sparse_host(rng: random.Random, n: int) -> Hypergraph:
    """Loose paths and cycles of 3-edges over 1..n in random order, plus a
    few random edges."""
    order = rng.sample(range(1, n + 1), n)
    edges = set()
    i = 0
    while i + 3 <= n:
        t = rng.randint(1, 5)
        chain = order[i:i + 2 * t + 1]
        i += len(chain)
        if len(chain) % 2 == 0:
            chain.pop()
        if len(chain) >= 7 and rng.random() < 0.5:
            chain[-1] = chain[0]  # close the path into a loose cycle
            i -= 1
        edges.update(frozenset(chain[j:j + 3]) for j in range(0, len(chain) - 2, 2))
    for _ in range(rng.randint(0, 4)):
        edges.add(frozenset(rng.sample(range(1, n + 1), 3)))
    return Hypergraph.make(3, range(1, n + 1), edges)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.integers(3, 8) | st.integers(12, 24), st.floats(0.1, 0.6),
       st.integers(1, 12), st.integers(1, 8), st.integers(0, 9))
def test_omega_tilde_check_against_combinations(seed, n, p, an, ad, size_cap):
    # a random host up to 8 vertices, a sparse one from 12 on, where the
    # oracle's combinations stay few at size_cap <= 5
    rng = random.Random(seed)
    if n <= 8:
        g = random_hypergraph(rng, n, p=p)
    else:
        g, size_cap = _sparse_host(rng, n), min(size_cap, 5)
    assert omega_tilde_check(g, F(an, ad), size_cap) == brute_omega_tilde(g, F(an, ad), size_cap)
