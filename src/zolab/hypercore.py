"""s-uniform hypergraphs and rooted pairs (G, H), H a sub-hypergraph of G:
densities, balance, automorphisms, copy counting, distances.

Vertices are arbitrary integer labels; nothing assumes contiguity.  All values
are immutable after construction and safe to share across threads.  Degrees,
neighbourhoods and distances read a vertex -> incident-edges index that each
`Hypergraph` builds lazily, once; a sampled host builds even its edge set
on first read, from the rows it was unranked to.  The one BFS, `_bfs_layers`,
and the one edge-completion table, `_edge_completions`, serve distances, the
evaluator and the game solver.  The backtracking matcher reads a second lazy
index, built by `_bit_index` from an E x s label array: non-isolated vertices
as bits in ascending label order, co-edge neighbour masks, edge masks and
degree >= d masks.  Copy searches meet the motif's orbit conditions
(`_symmetry`): one embedding per copy.  Those conditions come from the only
pinned searches, each pinning a prefix of the motif's own placement order.
Densities and balance come from max-closure cuts.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Mapping, NamedTuple

from .errors import CapacityError, VerificationError

if TYPE_CHECKING:
    import numpy as np  # imported where used, so `import zolab` loads it last

DEFAULT_ENUM_CAP = 24    # vertex cap of find_m_decomposition and of prop1's searches
DEFAULT_SEARCH_CAP = 16  # vertex cap for isomorphism-type backtracking
CANDIDATE_EDGE_LIMIT = 1 << 22  # most edges a draw or a witness construction builds
_Image = tuple[frozenset[int], frozenset[frozenset[int]]]  # a copy's vertices and edges


def _check(s: int, vertices: frozenset[int], edges: Iterable[frozenset[int]]) -> None:
    """Raise ValueError unless s >= 3 and every edge is an s-subset of vertices."""
    if s < 3:
        raise ValueError(f"arity must be >= 3, got {s}")
    for e in edges:
        if len(e) != s:
            raise ValueError(f"edge {sorted(e)} has {len(e)} vertices, expected {s}")
        if not e <= vertices:
            raise ValueError(f"edge {sorted(e)} uses vertices outside the vertex set")


@dataclass(frozen=True)
class Hypergraph:
    """Finite s-uniform hypergraph: every edge is an s-element vertex subset."""

    s: int
    vertices: frozenset[int]
    edges: frozenset[frozenset[int]]
    # Set by `_from_rows` only: the E x s array of each edge's labels.
    _rows: np.ndarray | None = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        _check(self.s, self.vertices, self.edges)

    @classmethod
    def make(cls, s: int, vertices: Iterable[int], edges: Iterable[Iterable[int]]) -> "Hypergraph":
        return cls(s, frozenset(vertices), frozenset(frozenset(e) for e in edges))

    @classmethod
    def from_edges(cls, s: int, edges: Iterable[Iterable[int]]) -> "Hypergraph":
        es = frozenset(frozenset(e) for e in edges)
        return cls(s, frozenset().union(*es), es)

    @classmethod
    def _from_rows(cls, s: int, vertices: frozenset[int], rows: np.ndarray) -> "Hypergraph":
        """The hypergraph on `vertices` whose edges are the ascending rows of
        the E x s label array `rows`, checked when first read (`_RowEdges`,
        `_bit_index`)."""
        _check(s, vertices, ())  # the arity; the edges wait for their first read
        g = object.__new__(cls)
        g.__dict__.update(s=s, vertices=vertices, _rows=rows)
        return g

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    @property
    def num_edges(self) -> int:
        return len(self.edges) if self._rows is None else len(self._rows)

    def sorted_vertices(self) -> list[int]:
        return sorted(self.vertices)

    def sorted_edges(self) -> list[tuple[int, ...]]:
        return sorted(tuple(sorted(e)) for e in self.edges)

    @cached_property
    def _incidence(self) -> dict[int, tuple[frozenset[int], ...]]:
        """Vertex -> incident edges, built once per instance on first use."""
        inc: dict[int, list[frozenset[int]]] = {v: [] for v in self.vertices}
        for e in self.edges:
            for v in e:
                inc[v].append(e)
        return {v: tuple(es) for v, es in inc.items()}

    @cached_property
    def _bits(self) -> "_BitIndex":
        """The matcher's bitset index of the non-isolated vertices, built on
        first use from `_rows` when set, else from the edges as rows."""
        import numpy as np

        rows = self._rows
        if rows is None:
            rows = [sorted(e) for e in self.edges]
            try:
                rows = np.array(rows, dtype=np.int64)
            except OverflowError:  # labels past int64 stay Python ints
                rows = np.array(rows, dtype=object)
            rows = rows.reshape(len(self.edges), self.s)
        return _bit_index(rows, self.vertices)

    @cached_property
    def _plan(self) -> "_Plan":
        """The matcher's placement plan, core first and leaves last (Bi et
        al., CFL-Match, SIGMOD 2016).  Each next vertex has a placed co-edge
        neighbour whenever one that has is left; among those, a vertex of
        degree >= 2 comes before a leaf (degree 1), which is almost always
        the free last vertex of an edge and prunes nothing, so placing it
        early only multiplies the branches that later core vertices cut.
        Ties go to the most placed co-edge neighbours, then the highest
        degree, then the lowest label.  Isolated vertices come last.

        A group is two or more later positions with the same non-empty
        `back` and the same degree: their images are distinct vertices of
        one candidate set (as in TurboISO's neighbourhood-equivalence
        classes; Han et al., SIGMOD 2013).  Each group is filed under the
        last position of its `back`, where the search counts that set."""
        order: list[int] = []
        remaining = set(self.vertices)
        adj = {v: self.co_edge_neighbors(v) for v in remaining}
        while remaining:
            placed = set(order)
            best = max(remaining, key=lambda v: (bool(adj[v] & placed), self.degree(v) > 1,
                                                 len(adj[v] & placed), self.degree(v), -v))
            order.append(best)
            remaining.discard(best)
        pos = {v: i for i, v in enumerate(order)}
        back = tuple(tuple(sorted(pos[u] for u in adj[v] if pos[u] < i))
                     for i, v in enumerate(order))
        ready: list[list[tuple[int, ...]]] = [[] for _ in order]
        for e in self.edges:
            last = max(pos[v] for v in e)
            ready[last].append(tuple(sorted(pos[v] for v in e if pos[v] != last)))
        need = tuple(self.degree(v) for v in order)
        searched = len(order)
        while searched and need[searched - 1] == 0:
            searched -= 1
        alike: dict[tuple[tuple[int, ...], int], list[int]] = {}
        for i in range(searched):
            if back[i]:
                alike.setdefault((back[i], need[i]), []).append(i)
        groups: list[list[tuple[int, ...]]] = [[] for _ in order]
        for (b, _), members in alike.items():
            if len(members) > 1:
                groups[b[-1]].append(tuple(members))
        return _Plan(tuple(order), back, tuple(map(tuple, ready)), need, searched,
                     tuple(map(tuple, groups)))

    @cached_property
    def _symmetry(self) -> tuple[tuple[int, ...], ...]:
        """Per plan position, the earlier positions whose images its image
        must exceed, by a stabilizer chain (Grochow and Kellis 2007): a
        vertex's orbit under the automorphisms fixing all earlier vertices
        (one pinned search per candidate) maps above it.  One embedding of
        each copy meets them all.  The chain covers the non-isolated part."""
        order = self._plan.order[:self._plan.searched]
        orbits = []  # per position, the later vertices of its orbit
        for i, v in enumerate(order):
            orbits.append({w for w in order[i + 1:] if self.degree(w) == self.degree(v)
                           and next(_iter_embeddings(self, self, pinned=(*order[:i], w)), None)})
        return tuple(tuple(i for i, orbit in enumerate(orbits[:j]) if w in orbit)
                     for j, w in enumerate(self._plan.order))

    def degree(self, v: int) -> int:
        return len(self._incidence.get(v, ()))

    def co_edge_neighbors(self, v: int) -> set[int]:
        out: set[int] = set().union(*self._incidence.get(v, ()))
        out.discard(v)
        return out

    def induced(self, subset: Iterable[int]) -> "Hypergraph":
        sub = frozenset(subset)
        if not sub <= self.vertices:
            raise ValueError("induced subset contains unknown vertices")
        return Hypergraph(self.s, sub, frozenset(e for e in self.edges if e <= sub))

    def union(self, other: "Hypergraph") -> "Hypergraph":
        if self.s != other.s:
            raise ValueError("arity mismatch in union")
        return Hypergraph(self.s, self.vertices | other.vertices, self.edges | other.edges)

    def relabel(self, mapping: Mapping[int, int]) -> "Hypergraph":
        if len(set(mapping.values())) != len(mapping):
            raise ValueError("relabel mapping is not injective")
        verts = frozenset(mapping[v] for v in self.vertices)
        edges = frozenset(frozenset(mapping[v] for v in e) for e in self.edges)
        return Hypergraph(self.s, verts, edges)

    def is_subhypergraph_of(self, other: "Hypergraph") -> bool:
        return (self.s == other.s and self.vertices <= other.vertices
                and self.edges <= other.edges)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Hypergraph(s={self.s}, v={self.num_vertices}, e={self.num_edges})"


class _RowEdges:
    """`edges` of a host made by `_from_rows`, built and checked on first
    read.  A non-data descriptor: the instance dict entry shadows it, and a
    `__getattr__` would slow every attribute load of every host."""

    def __get__(self, g: Hypergraph | None, owner: type | None = None):
        if g is None:
            return self
        edges = frozenset(map(frozenset, g._rows.tolist()))
        if len(edges) != len(g._rows):
            raise ValueError("two edge rows are equal")
        _check(g.s, g.vertices, edges)
        g.__dict__["edges"] = edges
        return edges


Hypergraph.edges = _RowEdges()


@dataclass(frozen=True)
class RootedPair:
    """A pair (G, H) with H a sub-hypergraph of G."""

    outer: Hypergraph
    inner: Hypergraph

    def __post_init__(self) -> None:
        if not self.inner.is_subhypergraph_of(self.outer):
            raise ValueError("inner is not a sub-hypergraph of outer")

    @property
    def v_rel(self) -> int:
        return self.outer.num_vertices - self.inner.num_vertices

    @property
    def e_rel(self) -> int:
        return self.outer.num_edges - self.inner.num_edges

    def rel_density(self) -> Fraction:
        if self.v_rel == 0:
            raise ValueError("pair density undefined: v(G,H) = 0")
        return Fraction(self.e_rel, self.v_rel)


# ---------------------------------------------------------------------------
# densities over induced sub-hypergraphs
# ---------------------------------------------------------------------------

def density(g: Hypergraph) -> Fraction:
    """Edges over vertices, exactly."""
    if g.num_vertices == 0:
        raise ValueError("density undefined on an empty vertex set")
    return Fraction(g.num_edges, g.num_vertices)


def _max_closure(edges: list[tuple[int, ...]], n: int, gain: int, cost: int
                 ) -> tuple[int, Callable[[], int], Callable[[], int | None]]:
    """Max over vertex sets S of range(n) of gain * e(S) - cost * |S|, where
    e(S) counts the `edges` inside S, by one integer max flow (Goldberg 1984).

    The network is source -> edge node (capacity gain) -> each of its
    vertices (uncapped) -> sink (capacity cost).  The maximizers are the
    vertex sets closed in the residual graph (Picard and Queyranne 1982).
    Returns the maximum and two bitmasks over range(n): smallest(), what the
    source reaches, is the smallest maximizer; first() is the first non-empty
    maximizer in mask order, None if the empty set is the only one.

    first() is smallest() when that is non-empty.  Otherwise the first
    maximizer F contains the smallest maximizer that contains F's top vertex
    M, what M reaches; that set lies inside 0..M, so it is F.  Any u < M whose
    smallest maximizer stays inside 0..u would come earlier.  So M is the
    least u that reaches neither the sink nor a higher vertex, which one
    backward search from the sink, grown from u = n-1 down to 0, finds.
    """
    m = len(edges)
    src, snk = n + m, n + m + 1
    head: list[int] = []  # arc a runs to head[a]; arc a ^ 1 is its reverse
    res: list[int] = []   # residual capacity of each arc
    out: list[list[int]] = [[] for _ in range(n + m + 2)]
    via = [0] * (n + m + 2)  # the arc a search entered each node by

    def arc(a: int, b: int, c: int) -> None:
        out[a].append(len(head))
        head.append(b)
        res.append(c)
        out[b].append(len(head))
        head.append(a)
        res.append(0)

    def augment(path: Iterable[int], push: int) -> None:
        for a in path:
            res[a] -= push
            res[a ^ 1] += push

    def search(starts: list[int], cap: list[int], seen: bytearray) -> bytearray:
        """`seen` grown by the nodes reached from `starts` breadth first along
        arcs a with cap[a] > 0; a forward search along `res` stops at the sink."""
        for x in starts:
            seen[x] = 1
        queue = list(starts)
        for x in queue:
            for a in out[x]:
                y = head[a]
                if cap[a] and not seen[y]:
                    seen[y] = 1
                    via[y] = a
                    queue.append(y)
            if seen[snk] and cap is res:
                break
        return seen

    for v in range(n):
        arc(v, snk, cost)  # arc 2v
    uncapped = gain * m + 1  # above every finite cut
    flow = 0
    for j, e in enumerate(edges):
        a = len(head)
        arc(src, n + j, gain)
        for v in e:
            b = len(head)
            arc(n + j, v, uncapped)
            push = min(res[a], res[2 * v])  # greedy start: straight to the sink
            if push:
                augment((a, b, 2 * v), push)
                flow += push
    while search([src], res, bytearray(n + m + 2))[snk]:  # shortest paths (Edmonds-Karp)
        path, y = [], snk
        while y != src:
            path.append(via[y])
            y = head[via[y] ^ 1]
        push = min(res[a] for a in path)
        augment(path, push)
        flow += push

    def reached(starts: list[int]) -> int:
        seen = search(starts, res, bytearray(n + m + 2))
        return sum(1 << v for v in range(n) if seen[v])

    def smallest() -> int:
        return reached([src])

    def first() -> int | None:
        if low := smallest():  # inside every maximizer
            return low
        back = [res[a ^ 1] for a in range(len(res))]  # the residual arcs reversed
        seen = search([snk], back, bytearray(n + m + 2))
        top = None
        for u in range(n - 1, -1, -1):
            if not seen[u]:
                top = u
                search([u], back, seen)
        return None if top is None else reached([src, top])

    return gain * m - flow, smallest, first


def _strictly_balanced(edges: list[tuple[int, ...]], n: int) -> bool:
    """True iff every vertex set S with 0 < |S| < n spans fewer than
    len(edges) / n edges per vertex: at that density, where the empty and the
    full set score 0, they are the only maximizers.
    """
    rho = Fraction(len(edges), n)
    value, _, first = _max_closure(edges, n, rho.denominator, rho.numerator)
    return value == 0 and first() == (1 << n) - 1


def _index_edges(g: Hypergraph, inner: frozenset[int] = frozenset()
                 ) -> tuple[list[int], list[tuple[int, ...]], int]:
    """g's vertices outside `inner` in label order; the parts on them,
    numbered in that order, of the edges that meet them; and the number of
    edges inside `inner`."""
    order = [v for v in g.sorted_vertices() if v not in inner]
    idx = {v: i for i, v in enumerate(order)}
    parts = [tuple(idx[v] for v in e if v in idx) for e in g.edges]
    return order, [p for p in parts if p], parts.count(())


def max_density(g: Hypergraph) -> tuple[Fraction, Hypergraph]:
    """Maximum density over non-empty sub-hypergraphs, with one maximizing witness.

    The maximum is attained on induced sub-hypergraphs, and a few max-closure
    cuts find it.  The witness is the first maximizer in ascending order of
    the subset bitmask over ascending vertex labels (deterministic), so g is
    strictly balanced iff the witness is all of g.
    """
    order, edges, _ = _index_edges(g)
    n = len(order)
    if n == 0:
        raise ValueError("max_density undefined on an empty vertex set")
    rho = Fraction(len(edges), n)
    while True:  # Dinkelbach steps: rho rises to the maximum density
        value, smallest, first = _max_closure(edges, n, rho.denominator, rho.numerator)
        if value == 0:
            break
        denser = smallest()
        rho = Fraction(sum(all(denser >> v & 1 for v in e) for e in edges),
                       denser.bit_count())
    best = first()
    return rho, g.induced(order[i] for i in range(n) if best >> i & 1)


def is_strictly_balanced(g: Hypergraph) -> bool:
    """True iff the density strictly exceeds that of every proper sub-hypergraph,
    by one max-closure cut: the full set must be its first maximizer."""
    order, edges, _ = _index_edges(g)
    if not order:
        raise ValueError("balance undefined on an empty vertex set")
    return _strictly_balanced(edges, len(order))


# ---------------------------------------------------------------------------
# distances and edge completions
# ---------------------------------------------------------------------------

def _bfs_layers(g: Hypergraph, v: int) -> Iterator[set[int]]:
    """The vertices at distance 1, 2, ... from v, one set per distance, read
    off the incidence index; the walk stops after the last non-empty layer."""
    inc, seen, layer = g._incidence, {v}, (v,)
    while True:
        nxt: set[int] = set()
        for u in layer:
            nxt.update(*inc[u])
        if not (layer := nxt - seen):
            return
        seen |= layer
        yield layer


def distance(g: Hypergraph, x: int, y: int) -> int | float:
    """Minimum number of edges in a chain of pairwise-intersecting edges from x to y.

    0 iff x = y, 1 iff distinct co-edge vertices, infinity when disconnected.
    """
    if x not in g.vertices or y not in g.vertices:
        raise ValueError("distance: unknown vertex")
    if x == y:
        return 0
    for d, layer in enumerate(_bfs_layers(g, x), start=1):
        if y in layer:
            return d
    return math.inf


def _edge_completions(g: Hypergraph, size: int) -> dict[frozenset[int], set[int]]:
    """Each `size`-subset of an edge of g -> the other vertices of the edges
    that hold it."""
    if size > g.s:
        return {}  # no edge holds a larger set
    table: dict[frozenset[int], set[int]] = {}
    for e in g.edges:
        for rest in itertools.combinations(e, g.s - size):
            table.setdefault(e.difference(rest), set()).update(rest)
    return table


# ---------------------------------------------------------------------------
# isomorphism search: one matcher for copies and automorphism groups
# ---------------------------------------------------------------------------

class _BitIndex(NamedTuple):
    """Host vertices with an incident edge, numbered 0..k-1 as bits of ints."""

    bit: dict[int, int]           # label -> bit index
    labels: list[int]             # bit index -> label
    adj: list[int]                # bit index -> mask of its co-edge neighbours
    edges: frozenset[int]         # the edges' masks
    degree_at_least: list[int]    # d -> mask of the vertices of degree >= d


def _bit_index(rows: np.ndarray, vertices: frozenset[int]) -> _BitIndex:
    """The bitset index of a host on `vertices` whose edges are the rows of
    the E x s label array `rows`; ValueError unless each row is strictly
    ascending, in `vertices` and unique.  One sort of the labels numbers the
    bits and groups each vertex's occurrences: edge masks are sums of bits,
    co-edge masks a `reduceat` OR of edge masks less the own bit, degree
    masks an OR `accumulate` by descending degree, all Python ints."""
    import numpy as np

    if not (rows[:, 1:] > rows[:, :-1]).all():
        raise ValueError("an edge row is not strictly ascending")
    e, s = rows.shape
    flat = rows.reshape(-1)
    order = flat.argsort()
    ranked = flat[order]
    first = np.empty(len(ranked), dtype=bool)  # each label's first occurrence
    first[:1] = True
    np.not_equal(ranked[1:], ranked[:-1], out=first[1:])
    starts = first.nonzero()[0]
    labels = ranked[starts].tolist()
    if not vertices.issuperset(labels):
        raise ValueError("an edge row uses vertices outside the vertex set")
    k = len(labels)
    if not k:
        return _BitIndex({}, [], [], frozenset(), [0])
    bits = 1 << np.arange(k, dtype=object)
    at = np.empty(len(flat), dtype=np.intp)  # each occurrence's bit number
    at[order] = first.cumsum() - 1
    of_row = bits[at].reshape(e, s)
    masks = of_row[:, 0]
    for c in range(1, s):
        masks = masks + of_row[:, c]
    edges = frozenset(masks.tolist())
    if len(edges) != e:
        raise ValueError("two edge rows are equal")
    adj = np.bitwise_or.reduceat(masks[order // s], starts) ^ bits
    deg = np.bincount(at)
    at_or_above = np.bitwise_or.accumulate(bits[(-deg).argsort()])
    count_ge = np.bincount(deg)[::-1].cumsum()[::-1]  # vertices of degree >= d
    return _BitIndex(dict(zip(labels, range(k))), labels, adj.tolist(), edges,
                     at_or_above[count_ge - 1].tolist())


class _Plan(NamedTuple):
    """A motif's placement order, each position's earlier neighbours,
    completed edges and degree; the isolated vertices follow `searched`.
    Per position, the groups filed there, each as its member positions."""

    order: tuple[int, ...]
    back: tuple[tuple[int, ...], ...]
    ready: tuple[tuple[tuple[int, ...], ...], ...]
    need: tuple[int, ...]
    searched: int
    groups: tuple[tuple[tuple[int, ...], ...], ...]


def _iter_embeddings(motif: Hypergraph, host: Hypergraph, *,
                     pinned: tuple[int, ...] = (), canonical: bool = False
                     ) -> Iterator[dict[int, int]]:
    """Injective maps sending every motif edge to a host edge.

    With host = motif such a map is a bijection on the vertices and on the
    edges, so these are exactly the automorphisms.  `pinned` gives the host
    images of the first len(pinned) positions of `motif._plan.order`, none
    of them isolated.  `canonical` (nothing pinned) keeps the maps meeting
    the motif's `_symmetry` conditions: one per copy.

    A bitset search over the host's `_bits` index.  A position's candidates
    are the AND of the co-edge masks of its placed neighbours' images, the
    host vertices of at least the motif vertex's degree, the unused ones and,
    per orbit condition, the bits above an earlier image; a completed motif
    edge is checked as the OR of its images' bits.  A candidate is then kept
    only if each group filed at its position (`_plan`) still finds as many
    unused host vertices of its degree in the co-edge masks of its `back`
    images as it has members: a necessary condition, so it cuts only
    branches that yield nothing, and the maps come in the same order.  A
    pinned position's candidate mask is the one bit of its pinned image.
    Motif vertices of degree 0 come last and take any unused host vertices,
    in every order or (canonical) ascending."""
    if motif.s != host.s:
        raise ValueError("arity mismatch between motif and host")
    if motif.num_vertices > host.num_vertices or motif.num_edges > host.num_edges:
        return

    order, back, ready, need, searched, groups = motif._plan
    idx = host._bits
    adj, labels, edges = idx.adj, idx.labels, idx.edges
    deg_ge = idx.degree_at_least
    allow = [deg_ge[d] if d < len(deg_ge) else 0 for d in need]
    # Per position, each group filed there: its other back positions, its
    # degree mask and its size.  Its room is the unused part of that mask
    # inside the co-edge masks of those positions' images.
    look = [tuple((back[g[0]][:-1], allow[g[0]], len(g)) for g in gs) for gs in groups]

    # A pinned position's one candidate is its host vertex's bit; an
    # isolated host vertex has none and meets no motif edge.  This comes
    # after `look`: a group's room holds every host vertex of its degree.
    for i, hv in enumerate(pinned):
        j = idx.bit.get(hv)
        allow[i] &= 0 if j is None else 1 << j

    # Per position: its image's bit, bit index and label.  Images are
    # distinct bits, so an edge's OR is the sum of its images' bits.
    k = len(order)
    above = motif._symmetry if canonical else [()] * k
    img, at, lab = [0] * k, [0] * k, [0] * k
    used = 0

    def complete() -> Iterator[dict[int, int]]:
        if searched == k:
            yield dict(zip(order, lab))
            return
        taken = set(lab[:searched])
        free = [v for v in host.vertices if v not in taken]
        for rest in (itertools.combinations(sorted(free), k - searched) if canonical
                     else itertools.permutations(free, k - searched)):
            yield dict(zip(order, lab[:searched] + list(rest)))

    if not searched:
        yield from complete()
        return
    cand = [0] * k   # the untried candidates of each placed position
    part: list[list[int]] = [[]] * k  # the placed bits of each edge completed there
    rooms: list[list[tuple[int, int]]] = [[]] * k  # per group filed there: its room, its size
    i, c = 0, None
    while True:
        if c is None:  # entering position i
            c = allow[i] & ~used
            for p in back[i]:
                c &= adj[at[p]]
            for p in above[i]:
                c &= -(img[p] << 1)
            ps = part[i] = [sum(map(img.__getitem__, e)) for e in ready[i]] if ready[i] else ()
            if look[i]:
                rs = rooms[i] = []
                for others, room, size in look[i]:
                    room &= ~used
                    for p in others:
                        room &= adj[at[p]]
                    rs.append((room, size))
            else:
                rs = ()
        while c:
            b = c & -c
            c ^= b
            for p in ps:
                if p | b not in edges:
                    break
            else:
                for room, size in rs:
                    if (adj[b.bit_length() - 1] & room).bit_count() < size:
                        break
                else:
                    break
        else:  # no candidate left: back up
            i -= 1
            if i < 0:
                return
            used ^= img[i]
            c, ps, rs = cand[i], part[i], rooms[i]
            continue
        j = b.bit_length() - 1
        img[i], at[i], lab[i] = b, j, labels[j]
        if i + 1 < searched:
            cand[i] = c
            used |= b
            i, c = i + 1, None
        else:
            yield from complete()


def _check_search_cap(g: Hypergraph, cap: int) -> None:
    if g.num_vertices > cap:
        raise CapacityError(f"{g.num_vertices} vertices exceeds the search cap {cap}")


def automorphisms(g: Hypergraph, cap: int = DEFAULT_SEARCH_CAP) -> list[dict[int, int]]:
    """All edge-preserving vertex bijections of g onto itself, listed by the
    one search without orbit conditions; `automorphism_count` counts them."""
    _check_search_cap(g, cap)
    return list(_iter_embeddings(g, g))


def automorphism_count(g: Hypergraph, cap: int = DEFAULT_SEARCH_CAP) -> int:
    """Exact size of the automorphism group: m! for m isolated vertices times
    the `_symmetry` chain's orbit sizes, 1 + the conditions naming each."""
    _check_search_cap(g, cap)
    plan = g._plan
    orbits = (1 + sum(i in later for later in g._symmetry) for i in range(plan.searched))
    return math.prod(orbits, start=math.factorial(len(plan.order) - plan.searched))


def count_copies(motif: Hypergraph, host: Hypergraph, cap: int = DEFAULT_SEARCH_CAP,
                 induced: bool = False) -> int:
    """Sub-hypergraphs of host isomorphic to motif.

    Copies are non-induced by default: every motif edge must land on a host
    edge, extra host edges among the image vertices are allowed.  With
    induced=True the image must carry exactly the motif's edges.
    """
    return sum(1 for _ in _images(motif, host, cap, induced))


def copy_images(motif: Hypergraph, host: Hypergraph, cap: int = DEFAULT_SEARCH_CAP
                ) -> set[_Image]:
    """Distinct non-induced copy images as (vertex set, edge set) pairs."""
    return {(frozenset(m.values()), frozenset(frozenset(m[u] for u in e) for e in motif.edges))
            for m in _images(motif, host, cap, induced=False)}


def _images(motif: Hypergraph, host: Hypergraph, cap: int, induced: bool
            ) -> Iterator[dict[int, int]]:
    """The maps of a canonical search, one per copy image; an image found
    twice raises.  Its key: the sorted edge masks, then the sorted images
    of isolated motif vertices (which may have no bit)."""
    _check_search_cap(motif, cap)
    isolated = motif._plan.order[motif._plan.searched:]
    seen: set[tuple[int, ...]] = set()
    for m in _iter_embeddings(motif, host, canonical=True):
        if induced:
            vs = frozenset(m.values())
            es = frozenset(frozenset(m[u] for u in e) for e in motif.edges)
            if any(e <= vs and e not in es for v in vs for e in host._incidence[v]):
                continue
        bit = host._bits.bit  # built by the search that yielded m
        key = (*sorted(sum(1 << bit[m[u]] for u in e) for e in motif.edges),
               *sorted(m[u] for u in isolated))
        if key in seen:
            raise VerificationError(f"copy image on {sorted(m.values())} produced twice")
        seen.add(key)
        yield m


def has_copy(motif: Hypergraph, host: Hypergraph, cap: int = DEFAULT_SEARCH_CAP) -> bool:
    """Early-exit containment test (non-induced copies)."""
    _check_search_cap(motif, cap)
    return next(_iter_embeddings(motif, host, canonical=True), None) is not None


# ---------------------------------------------------------------------------
# .shg text format
# ---------------------------------------------------------------------------

def parse_shg(text: str) -> Hypergraph:
    """Parse the .shg format: header `s <arity> n <count>`, one edge per line.

    The vertex set is {1, ..., n}, n >= 0; `#` starts a comment; no edge repeats.
    """
    header = None
    edges: dict[frozenset[int], int] = {}  # edge -> its line number
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if header is None:
            if len(parts) != 4 or parts[0] != "s" or parts[2] != "n":
                raise ValueError(f"line {lineno}: expected header 's <arity> n <count>'")
            try:
                header = (int(parts[1]), int(parts[3]))
            except ValueError:
                raise ValueError(f"line {lineno}: non-integer header fields") from None
            if header[1] < 0:
                raise ValueError(f"line {lineno}: negative vertex count {header[1]}")
            continue
        s, n = header
        if len(parts) != s:
            raise ValueError(f"line {lineno}: expected {s} vertex labels, got {len(parts)}")
        try:
            labels = [int(t) for t in parts]
        except ValueError:
            raise ValueError(f"line {lineno}: non-integer vertex label") from None
        if len(set(labels)) != s:
            raise ValueError(f"line {lineno}: repeated vertex in edge")
        if any(not 1 <= v <= n for v in labels):
            raise ValueError(f"line {lineno}: vertex label outside 1..{n}")
        e = frozenset(labels)
        if e in edges:
            raise ValueError(f"line {lineno}: repeats the edge of line {edges[e]}")
        edges[e] = lineno
    if header is None:
        raise ValueError("missing .shg header")
    s, n = header
    return Hypergraph(s, frozenset(range(1, n + 1)), frozenset(edges))


def to_shg(g: Hypergraph) -> str:
    """Serialize to .shg; requires canonical vertex labels {1..n}."""
    n = g.num_vertices
    if g.vertices != frozenset(range(1, n + 1)):
        raise ValueError("serialization requires vertex labels 1..n; relabel first")
    lines = [f"s {g.s} n {n}"]
    lines.extend(" ".join(str(v) for v in e) for e in g.sorted_edges())
    return "\n".join(lines) + "\n"


def canonical_relabel(g: Hypergraph) -> tuple[Hypergraph, dict[int, int]]:
    """Relabel vertices to 1..n in ascending label order."""
    mapping = {v: i for i, v in enumerate(g.sorted_vertices(), start=1)}
    return g.relabel(mapping), mapping


def read_shg(path: str) -> Hypergraph:
    with open(path, "r", encoding="ascii") as fh:
        return parse_shg(fh.read())
