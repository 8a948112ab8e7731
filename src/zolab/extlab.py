"""Extension calculus for rooted pairs (G, H), H a sub-hypergraph of G: the
f_alpha classification, strict extensions, (K, T)-maximality, uncovered-copy
counting, and the three cyclic attachment patterns with their decomposition
and maximality notions.
"""
from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable, Iterator, Mapping

from .errors import CapacityError
from .hypercore import (
    DEFAULT_ENUM_CAP,
    DEFAULT_SEARCH_CAP,
    Hypergraph,
    RootedPair,
    _check_search_cap,
    _iter_embeddings,
    _max_closure,
    _strictly_balanced,
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
    _, closure, spans = _max_closure(edges, d, an, ad)
    if not extra and all(closure(u) is None for u in range(d)):
        return PairClass.SAFE
    if an > 0 and closure() == (1 << d) - 1:
        return PairClass.RIGID
    if pair.v_rel * ad == an * pair.e_rel and ((not extra and spans()) if d else extra == 1):
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
# strict extensions
# ---------------------------------------------------------------------------

def _correspondence_checks(candidate: RootedPair, template: RootedPair,
                           correspondence: Mapping[int, int]) -> dict[int, int]:
    corr = dict(correspondence)
    if set(corr) != template.outer.vertices:
        raise ValueError("correspondence must cover the template outer vertex set")
    if len(set(corr.values())) != len(corr):
        raise ValueError("correspondence is not injective")
    if set(corr.values()) != candidate.outer.vertices:
        raise ValueError("correspondence must cover the candidate outer vertex set")
    t_inner = template.inner.vertices
    c_inner = candidate.inner.vertices
    if {corr[v] for v in t_inner} != c_inner:
        raise ValueError("correspondence must map inner vertices onto inner vertices")
    return corr


def is_extension(candidate: RootedPair, template: RootedPair,
                 correspondence: Mapping[int, int]) -> bool:
    """One-directional variant: template-new edges map into candidate-new edges."""
    corr = _correspondence_checks(candidate, template, correspondence)
    t_new = template.outer.edges - template.inner.edges
    c_new = candidate.outer.edges - candidate.inner.edges
    return all(frozenset(corr[v] for v in e) in c_new for e in t_new)


def is_strict_extension(candidate: RootedPair, template: RootedPair,
                        correspondence: Mapping[int, int]) -> bool:
    """Both directions: new edges correspond exactly under the vertex map."""
    corr = _correspondence_checks(candidate, template, correspondence)
    t_new = template.outer.edges - template.inner.edges
    c_new = candidate.outer.edges - candidate.inner.edges
    return {frozenset(corr[v] for v in e) for e in t_new} == c_new


def _strict_extension_maps(template: RootedPair, host: Hypergraph,
                           anchor: tuple[int, ...],
                           anchor_edges: frozenset[frozenset[int]]) -> Iterator[dict[int, int]]:
    """Maps realizing a strict extension of the anchor tuple inside host.

    The sorted inner vertices of the template correspond positionally to the
    anchor.  Every new edge of the template lands on a host edge that is not
    one of `anchor_edges`, the edges the anchor already carries.
    """
    inner_sorted = sorted(template.inner.vertices)
    if len(anchor) != len(inner_sorted):
        raise ValueError("anchor length must equal the template inner size")
    if len(set(anchor)) != len(anchor) or not set(anchor) <= host.vertices:
        raise ValueError("anchor must be distinct host vertices")
    fixed = dict(zip(inner_sorted, anchor))
    new_part = Hypergraph(host.s, template.outer.vertices,
                          template.outer.edges - template.inner.edges)
    return _iter_embeddings(new_part, host, fixed=fixed, avoid=anchor_edges)


# ---------------------------------------------------------------------------
# (K, T)-maximality and the maximal-extension counter
# ---------------------------------------------------------------------------

def is_kt_maximal(pair: RootedPair, kt: RootedPair, host: Hypergraph,
                  cap: int = DEFAULT_SEARCH_CAP) -> bool:
    """No strict (K, T)-extension attaches to the pair inside the host.

    Quantifies over sub-hypergraphs T' of the outer graph with v(T) vertices
    that are not contained in the inner graph; an attachment counts only when
    the host carries no edges joining the extension body to the rest of the
    outer graph except through T' (the empty-edge-set side condition, read on
    the host-induced union).
    """
    g_t, h_t = pair.outer, pair.inner
    if not g_t.is_subhypergraph_of(host):
        raise ValueError("pair outer must be a sub-hypergraph of the host")
    _check_search_cap(g_t, cap)
    v_t = kt.inner.num_vertices
    if v_t > g_t.num_vertices:
        return True
    if kt.outer.num_vertices - v_t > cap:
        raise CapacityError("extension template exceeds the search cap")

    g_verts = g_t.sorted_vertices()
    for t_tuple in itertools.permutations(g_verts, v_t):
        t_set = frozenset(t_tuple)
        inside = [e for e in g_t.edges if e <= t_set]
        for r in range(len(inside) + 1):
            for chosen in itertools.combinations(inside, r):
                t_edges = frozenset(chosen)
                if t_set <= h_t.vertices and t_edges <= h_t.edges:
                    continue  # T' inside the inner graph does not count
                if t_set == g_t.vertices and t_edges == g_t.edges:
                    continue  # T' must be a proper sub-hypergraph
                removed = g_t.vertices - t_set
                punct = Hypergraph(
                    host.s, host.vertices - removed,
                    frozenset(e for e in host.edges if not e & removed))
                for phi in _strict_extension_maps(kt, punct, t_tuple, t_edges):
                    k_verts = frozenset(phi.values())
                    w = (k_verts | g_t.vertices) - t_set
                    k_out = {frozenset(phi[v] for v in e)
                             for e in kt.outer.edges - kt.inner.edges}
                    k_out = {e for e in k_out if not e & t_set}
                    g_out = {e for e in g_t.edges if not e & t_set}
                    if all(f in k_out or f in g_out
                           for f in host.edges if f <= w):
                        return False
    return True


def count_maximal_extensions(template: RootedPair, host: Hypergraph,
                             anchor: tuple[int, ...],
                             kt_pairs: Iterable[RootedPair] = (),
                             cap: int = DEFAULT_SEARCH_CAP) -> int:
    """Strict extensions of the anchor tuple that are (K, T)-maximal for every
    given pair.  The anchor's carried edges are those induced by the host.
    """
    if template.outer.num_vertices - template.inner.num_vertices > cap:
        raise CapacityError("extension template exceeds the search cap")
    h_tilde = host.induced(anchor)
    realized: set[tuple[frozenset[int], frozenset[frozenset[int]]]] = set()
    new_edges = template.outer.edges - template.inner.edges
    for phi in _strict_extension_maps(template, host, anchor, h_tilde.edges):
        verts = frozenset(phi.values())
        edges = frozenset(frozenset(phi[v] for v in e) for e in new_edges) | h_tilde.edges
        realized.add((verts, edges))
    kt_list = list(kt_pairs)
    count = 0
    for verts, edges in sorted(realized, key=lambda t: (sorted(t[0]), sorted(map(sorted, t[1])))):
        g_tilde = Hypergraph(host.s, verts, edges)
        pair = RootedPair(g_tilde, h_tilde)
        if all(is_kt_maximal(pair, kt, host, cap=cap) for kt in kt_list):
            count += 1
    return count


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
        import math
        return float(self.rate_inverse) * math.exp(-float(self.exponent))


def prop1_poisson_parameter(pair: RootedPair,
                            cap: int = DEFAULT_ENUM_CAP) -> Prop1Parameter:
    """Brute-forced (a(H), a_1, a_2) for the pair; the caller forms the rate
    (1/a) * exp(-a / (a1 * a2)).
    """
    g, h = pair.outer, pair.inner
    aut_h = automorphisms(h, cap=cap)
    aut_g = automorphisms(g, cap=cap)
    order = sorted(h.vertices)
    restrictions = {
        tuple(sig[v] for v in order)
        for sig in aut_g
        if all(sig[v] in h.vertices for v in order)
    }
    a1 = sum(1 for tau in aut_h if tuple(tau[v] for v in order) in restrictions)
    a2 = sum(1 for sig in aut_g if all(sig[v] == v for v in order))
    return Prop1Parameter(a=len(aut_h), a1=a1, a2=a2)


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


def is_cyclically_m_maximal(pair: RootedPair, host: Hypergraph, m: int) -> bool:
    """No cyclic m-extension attaches to the outer graph in the host unless the
    same attachment is also a cyclic m-extension of the inner graph.
    """
    g, h = pair.outer, pair.inner
    if not g.is_subhypergraph_of(host):
        raise ValueError("pair outer must be a sub-hypergraph of the host")
    bound = density_bound(host.s, m)
    seen: set[frozenset[frozenset[int]]] = set()
    for pat in _iter_attachments(g.vertices, g.edges, host, m):
        key = frozenset(pat.edges)
        if key in seen:
            continue
        seen.add(key)
        extended = Hypergraph(host.s, g.vertices | pat.new_vertices,
                              g.edges | frozenset(pat.edges))
        if max_density(extended)[0] >= bound:
            continue  # not a cyclic m-extension of the outer graph
        h_ext = Hypergraph(
            host.s,
            h.vertices | frozenset(v for e in pat.edges for v in e),
            h.edges | frozenset(pat.edges))
        h_pair = RootedPair(h_ext, h)
        if match_cyclic_extension(h_pair, m) is None:
            return False
    return True
