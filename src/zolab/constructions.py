"""Deterministic builders for the witness hypergraphs used by the spectrum
arguments, with built-in verification of the density identities they must
satisfy.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .bounds import theorem8_split
from .errors import VerificationError
from .extlab import is_pair_strictly_balanced
from .hypercore import (
    CANDIDATE_EDGE_LIMIT,
    Hypergraph,
    RootedPair,
    density,
    is_strictly_balanced,
    max_density,
)


class _Labels:
    def __init__(self, start: int = 1):
        self.counter = itertools.count(start)

    def take(self, k: int = 1) -> list[int]:
        return [next(self.counter) for _ in range(k)]


def _path_between(s: int, length: int, u: int, w: int, labels: _Labels
                  ) -> tuple[list[frozenset[int]], list[int]]:
    """Edges of a loose path from u to w plus its chain vertices (u..w)."""
    if length < 1:
        raise ValueError("path length must be >= 1")
    chain = [u] + labels.take(length - 1) + [w]
    edges = []
    for j in range(length):
        pendants = labels.take(s - 2)
        edges.append(frozenset([chain[j], *pendants, chain[j + 1]]))
    return edges, chain


def loose_path(s: int, length: int) -> Hypergraph:
    """t edges from vertex 1 to vertex 2, consecutive ones sharing exactly one
    vertex; v = t(s-1) + 1."""
    if s < 3:
        raise ValueError("arity must be >= 3")
    edges, _ = _path_between(s, length, 1, 2, _Labels(3))
    return Hypergraph.from_edges(s, edges)


@dataclass(frozen=True)
class Theorem6Witness:
    """Double path bundle: inner H joins a, b by 2m loose paths of length 2^l;
    outer G adds a hub joined to the first m midpoints by fresh paths."""

    pair: RootedPair
    alpha: Fraction
    endpoints: tuple[int, int]
    midpoints: tuple[int, ...]
    hub: int

    @property
    def h(self) -> Hypergraph:
        return self.pair.inner

    @property
    def g(self) -> Hypergraph:
        return self.pair.outer


def theorem6_pair(s: int, l: int, m: int) -> Theorem6Witness:
    """Build the bundle pair; verifies rho(H) = rho(G,H) = 1/alpha exactly and
    strict balance of H and of the pair.

    alpha = s - 1 - 1/2^l + 1/(2^l m); requires m >= 2 so alpha < s - 1 stays
    meaningful as a spectrum point.  G has 3m * 2^l edges; past
    CANDIDATE_EDGE_LIMIT it is refused before it is built.
    """
    if s < 3:
        raise ValueError("arity must be >= 3")
    if l < 1:
        raise ValueError("l must be >= 1")
    if m < 2:
        raise ValueError("m must be >= 2")
    if 3 * m > CANDIDATE_EDGE_LIMIT >> l:  # 3m * 2^l > the limit, without building 2^l
        raise ValueError(f"G would have 3m * 2^l = {3 * m} * 2^{l} edges, "
                         f"over the limit {CANDIDATE_EDGE_LIMIT}")
    t = 1 << l
    a, b = 1, 2
    labels = _Labels(3)
    h_edges: list[frozenset[int]] = []
    midpoints: list[int] = []
    for _ in range(2 * m):
        edges, chain = _path_between(s, t, a, b, labels)
        h_edges.extend(edges)
        midpoints.append(chain[t // 2])
    h = Hypergraph.from_edges(s, h_edges)
    (hub,) = labels.take(1)
    g_edges = list(h_edges)
    for i in range(m):
        edges, _ = _path_between(s, t, hub, midpoints[i], labels)
        g_edges.extend(edges)
    g = Hypergraph.from_edges(s, g_edges)
    pair = RootedPair(g, h)
    alpha = Fraction(s - 1) - Fraction(1, t) + Fraction(1, t * m)

    if density(h) != 1 / alpha:
        raise VerificationError(f"rho(H) = {density(h)} != 1/alpha = {1 / alpha}")
    if pair.rel_density() != 1 / alpha:
        raise VerificationError(
            f"rho(G,H) = {pair.rel_density()} != 1/alpha = {1 / alpha}")
    expected_vrel = m * (t * (s - 1) - 1) + 1
    if pair.v_rel != expected_vrel:
        raise VerificationError(
            f"v(G,H) = {pair.v_rel}, expected {expected_vrel}")
    if not is_pair_strictly_balanced(pair):
        raise VerificationError("the pair is not strictly balanced")
    if not is_strictly_balanced(h):
        raise VerificationError("H is not strictly balanced")
    return Theorem6Witness(pair=pair, alpha=alpha, endpoints=(a, b),
                           midpoints=tuple(midpoints), hub=hub)


@dataclass(frozen=True)
class Theorem8Witness:
    """Two short circuits joined through a center: the containment witness for
    the non-convergence point alpha = s - 1 - 1/(2^(k-s+1) + a)."""

    h: Hypergraph
    part1: Hypergraph
    part2: Hypergraph
    a: int
    alpha: Fraction
    center: int


def _circuit(s: int, t: int, labels: _Labels, through: tuple[int, ...] = ()) -> Hypergraph:
    """t edges on t(s-1) vertices, consecutive ones sharing one vertex and the
    last closing on the first vertex: the given `through` vertex, else a
    fresh label.  The other vertices are fresh labels in path order."""
    v = [*through, *labels.take(t * (s - 1) - len(through))]
    v.append(v[0])
    return Hypergraph.from_edges(s, [v[j * (s - 1):j * (s - 1) + s] for j in range(t)])


def theorem8_witnesses(s: int, k: int, a1: int | None = None,
                       a2: int | None = None) -> Theorem8Witness:
    """Exact witness edge sets; verifies 1/rho(H) = alpha = s-1-1/(2^(k-s+1)+a)
    and that H is its own densest sub-hypergraph.

    For k >= s + 2 a split a1 + a2 = a + 3 with a1, a2 in {1..2^(k-s)} must be
    supplied (the choice changes H); for k = s + 1 the parameters are fixed.
    An H of more than CANDIDATE_EDGE_LIMIT edges is refused before it is built.
    """
    a = theorem8_split(s, k, a1, a2)
    expected_e = (1 << (k - s + 1)) + a
    if expected_e > CANDIDATE_EDGE_LIMIT:
        raise ValueError(f"H would have 2^(k-s+1) + a = 2^{k - s + 1} + {a} edges, "
                         f"over the limit {CANDIDATE_EDGE_LIMIT}")
    labels = _Labels(1)
    if k == s + 1:  # both circuits pass through the center
        (x,) = labels.take(1)
        part1 = _circuit(s, 2, labels, through=(x,))
        part2 = _circuit(s, 3, labels, through=(x,))
        h = part1.union(part2)
    else:
        part1 = _circuit(s, 2, labels)
        part2 = _circuit(s, 3, labels)
        (x,) = labels.take(1)
        t1 = a1 + (1 << (k - s)) - 4
        t2 = a2 + (1 << (k - s)) - 4
        e_path1, _ = _path_between(s, t1, x, min(part1.vertices), labels)
        e_path2, _ = _path_between(s, t2, x, min(part2.vertices), labels)
        h = Hypergraph.from_edges(
            s, list(part1.edges) + list(part2.edges) + e_path1 + e_path2)

    alpha = Fraction(s - 1) - Fraction(1, expected_e)
    if h.num_edges != expected_e:
        raise VerificationError(f"e(H) = {h.num_edges}, expected {expected_e}")
    if h.num_vertices != expected_e * (s - 1) - 1:
        raise VerificationError(
            f"v(H) = {h.num_vertices}, expected {expected_e * (s - 1) - 1}")
    if 1 / density(h) != alpha:
        raise VerificationError(f"1/rho(H) = {1 / density(h)} != alpha = {alpha}")
    if max_density(h)[0] != density(h):
        raise VerificationError("H is not its own densest sub-hypergraph")
    return Theorem8Witness(h=h, part1=part1, part2=part2, a=a, alpha=alpha,
                           center=x)


def omega_tilde_check(g: Hypergraph, alpha: Fraction, size_cap: int) -> bool:
    """True iff g has no sub-hypergraph on <= size_cap vertices denser than 1/alpha.

    Searches the connected unions of edges on at most size_cap vertices, grown
    one meeting edge at a time from every edge.  That is exact for alpha > 0:
    each vertex of a smallest too-dense set S lies on an edge inside S, or
    dropping it would leave S too dense, and every split of S has an edge
    across it, or one part would be too dense on its own.  The search grows
    with size_cap and the local density, not with the size of g, so size_cap
    is its one bound.
    """
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    an, ad = alpha.numerator, alpha.denominator  # density > 1/alpha <=> e*an > v*ad
    inc = g._incidence
    stack = [e for e in g.edges if len(e) <= size_cap]
    seen: set[frozenset[int]] = set()
    while stack:
        vs = stack.pop()
        if vs in seen:
            continue
        seen.add(vs)
        touching = {e for v in vs for e in inc[v]}
        if sum(e <= vs for e in touching) * an > len(vs) * ad:
            return False
        stack.extend(u for u in (vs | e for e in touching)
                     if len(u) <= size_cap and u not in seen)
    return True
