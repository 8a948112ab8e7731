"""Extension calculus for rooted pairs (G, H), H a sub-hypergraph of G: the
f_alpha classification, pair balance, uncovered-copy counting with its
limiting Poisson parameters, and the three cyclic attachment patterns with
the m-decompositions they chain into.
"""
from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterator

from .errors import CapacityError
from .hypercore import (
    DEFAULT_ENUM_CAP,
    DEFAULT_SEARCH_CAP,
    Hypergraph,
    RootedPair,
    _check_search_cap,
    _max_closure,
    _strictly_balanced,
    automorphism_count,
    automorphisms,
    copy_images,
    max_density,
)


class PairClass(Enum):
    SAFE = "safe"
    RIGID = "rigid"
    NEUTRAL = "neutral"
    OTHER = "other"


def f_alpha(pair: RootedPair, alpha: Fraction) -> Fraction:
    """v(G,H) - alpha * e(G,H), exactly."""
    return Fraction(pair.v_rel) - alpha * pair.e_rel


def _relative_edges(pair: RootedPair) -> tuple[list[tuple[int, ...]], int, int]:
    """The pair's edges over the d difference vertices V(G) - V(H), numbered
    0..d-1.

    Every intermediate W = V(H) + S contains all of V(H), so only an edge's
    difference part decides membership.  Returns (the difference parts of
    the edges that meet the difference, the number of edges inside V(H), d).
    """
    inner = pair.inner.vertices
    diff = [v for v in pair.outer.sorted_vertices() if v not in inner]
    pos = {v: i for i, v in enumerate(diff)}
    parts = [tuple(pos[v] for v in e if v in pos) for e in pair.outer.edges]
    return [p for p in parts if p], parts.count(()), len(diff)


def classify_pair(pair: RootedPair, alpha: Fraction) -> PairClass:
    """Sign classification of f_alpha over intermediate sub-hypergraphs, by
    one max-closure cut.

    Safe:    f_alpha(K, H) > 0 for every K with H < K <= G.
    Rigid:   f_alpha(G, K) < 0 for every K with H <= K < G.
    Neutral: f_alpha(K, H) > 0 strictly between, and f_alpha(G, H) = 0.
    Anything else is Other.  Checking induced K per vertex superset suffices:
    it is the extremal edge count for each sign condition.

    With K spanned by V(H) + S and phi(S) = num(alpha) e(S) - den(alpha) |S|,
    e(S) the edges that meet the difference inside S, den(alpha) f_alpha(G, K)
    is phi(S) - phi(D) and, for H induced, den(alpha) f_alpha(K, H) is
    -phi(S).  So rigid says D is the only maximizer of phi, safe that the
    empty set is (no vertex lies in a maximizer), and neutral, with
    phi(D) = 0, that they are the only two (every vertex's smallest
    maximizer is D).  Edges of G inside V(H) but not in H make the pair
    non-induced: K on V(H) alone, with some of them, has f_alpha(K, H) of
    the sign of -alpha.

    So at alpha < 0 every pair is safe.  At alpha <= 0 no pair is rigid but
    G = H, which is safe: dropping a vertex or an edge from G gives
    f_alpha(G, K) >= 0.  With no difference vertices every K lies on V(H),
    and at alpha = 0 the pair is neutral iff G adds exactly one edge, so
    that no K lies strictly between.
    """
    edges, base_edges, d = _relative_edges(pair)
    an, ad = alpha.numerator, alpha.denominator
    if an < 0:
        return PairClass.SAFE
    extra = base_edges - pair.inner.num_edges  # edges of G inside V(H), not in H
    value, closure = _max_closure(edges, d, an, ad)
    full = (1 << d) - 1
    if not extra and all(closure(u) is None for u in range(d)):
        return PairClass.SAFE
    if an > 0 and closure() == full:
        return PairClass.RIGID
    if pair.v_rel * ad == an * pair.e_rel and (
            (not extra and value == 0 and all(closure(u) == full for u in range(d)))
            if d else extra == 1):
        return PairClass.NEUTRAL
    return PairClass.OTHER


def is_pair_strictly_balanced(pair: RootedPair) -> bool:
    """rho(G,H) > rho(K,H) for every K strictly between H and G, by one
    max-closure cut."""
    if pair.v_rel == 0:
        return False
    edges, base_edges, d = _relative_edges(pair)
    # with H induced, the edges meeting the difference are the pair's edges
    return base_edges == pair.inner.num_edges and _strictly_balanced(edges, d)


# ---------------------------------------------------------------------------
# uncovered copies and the limiting-parameter ingredients
# ---------------------------------------------------------------------------

def count_uncovered_copies(h: Hypergraph, g: Hypergraph, host: Hypergraph,
                           cap: int = DEFAULT_SEARCH_CAP) -> int:
    """Copies of h in host that are not sub-hypergraphs of any copy of g."""
    for motif in (h, g):
        _check_search_cap(motif, cap)
    h_copies = copy_images(h, host, cap=cap)
    if not h_copies:
        return 0
    g_copies = copy_images(g, host, cap=cap)
    count = 0
    for hv, he in h_copies:
        if not any(hv <= gv and he <= ge for gv, ge in g_copies):
            count += 1
    return count


@dataclass(frozen=True)
class Prop1Parameter:
    """Ingredients of the limiting Poisson rate for uncovered copies."""

    a: int    # automorphisms of the inner graph
    a1: int   # inner automorphisms extendable to the outer graph
    a2: int   # outer automorphisms fixing the inner vertices pointwise

    @property
    def rate_inverse(self) -> Fraction:
        return Fraction(1, self.a)

    @property
    def exponent(self) -> Fraction:
        return Fraction(self.a, self.a1 * self.a2)

    def rate(self) -> float:
        return float(self.rate_inverse) * math.exp(-float(self.exponent))


def prop1_poisson_parameter(pair: RootedPair,
                            cap: int = DEFAULT_ENUM_CAP) -> Prop1Parameter:
    """Exact (a(H), a_1, a_2) for the pair; the caller forms the rate
    (1/a) * exp(-a / (a1 * a2)).  a comes from H's stabilizer chain.  Of the
    maps of Aut(G), a2 fix V(H) pointwise, and those carrying H onto itself
    restrict onto the a1 extendable automorphisms of H, a2 maps onto each.
    Such a map permutes the m isolated vertices of G outside V(H) freely, so
    only Aut(G) less those vertices is listed and a2 takes a factor m!.
    """
    g, h = pair.outer, pair.inner
    a = automorphism_count(h, cap=cap)  # first: H's cap error comes before G's
    _check_search_cap(g, cap)
    outside = {v for v in g.vertices - h.vertices if not g.degree(v)}
    aut_g = automorphisms(g.induced(g.vertices - outside), cap=cap)
    a2 = sum(all(sig[v] == v for v in h.vertices) for sig in aut_g)
    onto_h = sum(h.relabel(sig) == h for sig in aut_g)
    return Prop1Parameter(a=a, a1=onto_h // a2, a2=a2 * math.factorial(len(outside)))


# ---------------------------------------------------------------------------
# cyclic attachment patterns
# ---------------------------------------------------------------------------

FIRST_TYPE = "first_type"
SECOND_TYPE_PATH = "second_type_path"
SECOND_TYPE_EDGE = "second_type_edge"


@dataclass(frozen=True)
class CyclicPattern:
    """A matched attachment template with its witness assignment."""

    kind: str
    k: int                                  # path length; 0 for the single-edge type
    l: int                                  # fresh closing vertices
    contacts: tuple[int, ...]               # base vertices the attachment touches
    edges: tuple[frozenset[int], ...]       # path edges in order, closing edge last
    new_vertices: frozenset[int]


def density_bound(s: int, m: int) -> Fraction:
    return Fraction(m, m * (s - 1) - 1)


def _iter_attachments(base_verts: frozenset[int], base_edges: frozenset[frozenset[int]],
                      host: Hypergraph, m: int) -> Iterator[CyclicPattern]:
    """All template-shaped attachments to the base inside the host.

    Enumerated deterministically; the density side condition is NOT applied
    here (it depends on which outer graph the caller forms).
    """
    s = host.s
    avail = [e for e in host.edges if e not in base_edges]
    avail.sort(key=lambda e: tuple(sorted(e)))

    # second type, single edge: l >= 2 base contacts, at least one new vertex
    for e in avail:
        xs = e & base_verts
        ys = e - base_verts
        if 2 <= len(xs) <= s - 1 and ys:
            yield CyclicPattern(SECOND_TYPE_EDGE, 0, len(xs),
                                tuple(sorted(xs)), (e,), frozenset(ys))

    if m < 2:
        return

    def closings(x1: int, path: list[frozenset[int]], path_verts: set[int],
                 last_fresh: set[int]) -> Iterator[CyclicPattern]:
        k = len(path)
        for ec in avail:
            if ec in path:
                continue
            ends = ec & last_fresh
            if not ends:
                continue
            base_touch = ec & base_verts
            zs = ec - base_verts - path_verts
            l = len(zs)
            # first type: closes back onto the path or x1
            if base_touch <= {x1} and l <= s - 2:
                yield CyclicPattern(
                    FIRST_TYPE, k, l, (x1,), tuple(path) + (ec,),
                    frozenset(path_verts) | zs)
            # second type: closes onto a second base vertex
            if len(base_touch) == 1 and x1 not in ec and l <= s - 2:
                x2 = next(iter(base_touch))
                yield CyclicPattern(
                    SECOND_TYPE_PATH, k, l, (x1, x2), tuple(path) + (ec,),
                    frozenset(path_verts) | zs)

    def extend(x1: int, path: list[frozenset[int]], path_verts: set[int],
               last_fresh: set[int]) -> Iterator[CyclicPattern]:
        yield from closings(x1, path, path_verts, last_fresh)
        if len(path) >= m - 1:
            return
        for e in avail:
            if e in path or e & base_verts:
                continue
            joint = e & path_verts
            if len(joint) != 1:
                continue
            w = next(iter(joint))
            if w not in last_fresh:
                continue
            fresh = e - {w}
            yield from extend(x1, path + [e], path_verts | fresh, set(fresh))

    for x1 in sorted(base_verts):
        for e1 in avail:
            if x1 not in e1:
                continue
            if e1 & base_verts != {x1}:
                continue
            fresh = e1 - {x1}
            yield from extend(x1, [e1], set(fresh), set(fresh))


_PATTERN_ORDER = {FIRST_TYPE: 0, SECOND_TYPE_PATH: 1, SECOND_TYPE_EDGE: 2}


def match_cyclic_extension(pair: RootedPair, m: int) -> CyclicPattern | None:
    """Match the pair's new edges against the three attachment templates.

    Requires max density of the outer graph below m / (m(s-1) - 1), the new
    edge set to realize one template exactly, and the new vertex set to be
    covered by it.  First type wins over second type path wins over second
    type edge; within a type the first witness in canonical edge order wins.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    g, h = pair.outer, pair.inner
    new_edges = g.edges - h.edges
    if not new_edges:
        return None
    if any(e <= h.vertices for e in new_edges):
        return None  # every template edge leaves the base
    rho_max, _ = max_density(g)
    if rho_max >= density_bound(g.s, m):
        return None
    new_verts = g.vertices - h.vertices
    sub_host = Hypergraph(g.s, g.vertices, new_edges)
    best: CyclicPattern | None = None
    for pat in _iter_attachments(h.vertices, frozenset(), sub_host, m):
        if frozenset(pat.edges) != new_edges or pat.new_vertices != new_verts:
            continue
        if best is None or _PATTERN_ORDER[pat.kind] < _PATTERN_ORDER[best.kind]:
            best = pat
            if _PATTERN_ORDER[best.kind] == 0:
                break
    return best


def find_m_decomposition(g: Hypergraph, m: int, root: int,
                         cap: int = DEFAULT_ENUM_CAP) -> list[Hypergraph] | None:
    """A chain of cyclic m-extensions growing from the root vertex.

    Returns [G_0, ..., G_t] with G_0 the bare root, each step a cyclic
    m-extension, and V(G_t) = V(g); edges of g missing from G_t are reachable
    by edge completion and are the caller's density concern.  None when no
    chain covers the vertex set.
    """
    if root not in g.vertices:
        raise ValueError("root must be a vertex of g")
    if m < 1:
        raise ValueError("m must be >= 1")
    if g.num_vertices > cap:
        raise CapacityError(f"{g.num_vertices} vertices exceeds the cap {cap}")
    start = Hypergraph(g.s, frozenset([root]), frozenset())
    if g.num_vertices == 1:
        return [start]
    bound = density_bound(g.s, m)
    seen: set[tuple[frozenset[int], frozenset[frozenset[int]]]] = set()
    queue: deque[list[Hypergraph]] = deque([[start]])
    seen.add((start.vertices, start.edges))
    while queue:
        chain = queue.popleft()
        cur = chain[-1]
        for pat in _iter_attachments(cur.vertices, cur.edges, g, m):
            nxt = Hypergraph(g.s, cur.vertices | pat.new_vertices,
                             cur.edges | frozenset(pat.edges))
            key = (nxt.vertices, nxt.edges)
            if key in seen:
                continue
            seen.add(key)
            if max_density(nxt)[0] >= bound:
                continue
            new_chain = chain + [nxt]
            if nxt.vertices == g.vertices:
                return new_chain
            queue.append(new_chain)
    return None
