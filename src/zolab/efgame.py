"""Exhaustive solver for the k-round pebble game EHR(G, H, k).

Classical rules: each round Spoiler picks a vertex in either structure,
Duplicator replies in the other; Duplicator wins iff the final pebble
correspondence is a partial isomorphism.  When Spoiler wins, a distinguishing
closed formula of quantifier depth <= k is extracted.

The solver is one memoized recursion over positions.  At each position it
groups the vertices of both structures by their atomic type over the pebbles
(a pebbled vertex: its first pebble index; an unpebbled one: the sets of
first pebble indices it forms an edge with).  A reply keeps the partial
isomorphism exactly when its type equals the pick's, so only those replies
are searched, and with one round left a pick wins iff its type is missing
on the other side.
"""
from __future__ import annotations

import functools
import itertools

from .errors import CapacityError
from .folang import Atom, Eq, Exists, Forall, Formula, Not, and_all, or_all
from .hypercore import Hypergraph

DEFAULT_GAME_CAP = 8

RULES = "classical: Spoiler chooses either structure each round"

_TYPES_KEPT = 64  # per side: the pebble tuples whose vertex types a _Solver keeps


def _links(g: Hypergraph) -> dict[frozenset[int], list[int]]:
    """The vertices that complete each (s-1)-set of g to an edge."""
    out: dict[frozenset[int], list[int]] = {}
    for e in g.edges:
        for v in e:
            out.setdefault(e - {v}, []).append(v)
    return out


def _types(pebbles: tuple[int, ...], verts: list[int], link: dict, s: int
           ) -> tuple[tuple[int, ...], dict[int, list[int]]]:
    """The atomic type over the pebbles of each vertex of `verts`, and the
    vertices of each type in label order.

    A pebbled vertex gets ~i for i the index of its first pebble.  An
    unpebbled vertex gets a bit mask over the (s-1)-sets of first pebble
    indices, taken in combination order: bit c is set iff the vertex forms an
    edge with the c-th set.  Two positions with the same first pebble indices
    number their sets alike, so their types compare directly.
    """
    first: dict[int, int] = {}
    for i, v in enumerate(pebbles):
        first.setdefault(v, i)
    types = dict.fromkeys(verts, 0)
    bit = 1
    for combo in itertools.combinations(first, s - 1):
        for v in link.get(frozenset(combo), ()):
            types[v] |= bit
        bit <<= 1
    for v, i in first.items():
        types[v] = ~i
    classes: dict[int, list[int]] = {}
    for v, t in types.items():
        classes.setdefault(t, []).append(v)
    return tuple(types.values()), classes


class _Solver:
    """The game solved lazily over pebble positions (pg, ph).

    clash(pg, ph): the first atomic fact that the newest pebble pair breaks,
    given that every shorter prefix of the position broke none.  A fact is
    (kind, pebble indices, truth in g) with kind "eq" or "atom"; None if the
    position is still a partial isomorphism.

    move(pg, ph, r): Spoiler's first winning move with r rounds left from a
    position with no clash, as (0, v) for v in g or (1, v) for v in h, g side
    first, then the smallest label; None when Duplicator survives.

    distinguish(pg, ph, r): the distinguishing formula of a position that
    Spoiler wins, read off move and clash; Duplicator's replies are taken in
    label order.

    move never calls clash.  On a partial isomorphism the first pebble
    indices of the two sides agree, so a reply breaks no fact exactly when
    its atomic type over the pebbles (see _types) equals the pick's; move
    recurses only into those replies, and with one round left it only asks
    whether the pick's type occurs on the other side.  A solver holds no
    reference cycle, so its memo is freed as soon as the caller drops it.
    """

    def __init__(self, g: Hypergraph, h: Hypergraph, rounds: int, cap: int) -> None:
        if g.s != h.s:
            raise ValueError("arity mismatch between the two structures")
        if rounds < 0:
            raise ValueError("round count must be >= 0")
        if g.num_vertices > cap or h.num_vertices > cap:
            raise CapacityError(
                f"structure sizes {g.num_vertices}/{h.num_vertices} exceed the game cap {cap}")
        self.vg, self.vh = g.sorted_vertices(), h.sorted_vertices()
        self.eg, self.eh, self.s = g.edges, h.edges, g.s
        # a side's types depend on its pebbles alone: sibling positions share
        # the pick side's, and a small LRU keeps nearly every reuse
        keep = functools.lru_cache(_TYPES_KEPT)
        self.types_g = keep(functools.partial(_types, verts=self.vg, link=_links(g), s=g.s))
        self.types_h = keep(functools.partial(_types, verts=self.vh, link=_links(h), s=g.s))
        self.memo: dict = {}

    def clash(self, pg: tuple[int, ...], ph: tuple[int, ...]):
        n = len(pg) - 1
        a, b = pg[n], ph[n]
        i, j = pg.index(a), ph.index(b)
        if i < n or j < n:
            if i == j:
                return None  # a consistent repeat adds no new fact
            first = min(i, j)
            return ("eq", (first, n), first == i)
        if n < self.s - 1:
            return None
        # only the s-subsets through the new vertex are unchecked, visited in
        # the order of combinations over all sorted pebbled vertices
        corr = dict(zip(pg[:n], ph[:n]))
        for rest in itertools.combinations(sorted(corr), self.s - 1):
            left = frozenset((a, *rest)) in self.eg
            if left != (frozenset([b, *(corr[x] for x in rest)]) in self.eh):
                pos = {v: k for k, v in enumerate(pg)}
                return ("atom", tuple(pos[x] for x in sorted((a, *rest))), left)
        return None

    @staticmethod
    def after(pg, ph, side: int, v: int, w: int):
        return (pg + (v,), ph + (w,)) if side == 0 else (pg + (w,), ph + (v,))

    def move(self, pg: tuple[int, ...], ph: tuple[int, ...], r: int):
        if r == 0:
            return None
        # game value depends only on the correspondence set, not pick order
        key = (frozenset(zip(pg, ph)), r)
        memo = self.memo
        if key in memo:
            return memo[key]
        (tg, by_g), (th, by_h) = self.types_g(pg), self.types_h(ph)
        found = None
        for side, verts, types, other in ((0, self.vg, tg, by_h), (1, self.vh, th, by_g)):
            for v, t in zip(verts, types):
                # replies of another type clash at once; with one round left,
                # a reply of the pick's type survives
                match = other.get(t)
                if match is None or r > 1 and all(
                        self.move(*self.after(pg, ph, side, v, w), r - 1) is not None
                        for w in match):
                    found = (side, v)
                    break
            if found:
                break
        memo[key] = found
        return found

    def distinguish(self, pg: tuple[int, ...], ph: tuple[int, ...], r: int) -> Formula:
        """The formula of a position Spoiler wins, read off the solved game."""
        side, v = self.move(pg, ph, r)
        parts = []
        for w in self.vh if side == 0 else self.vg:
            cg, ch = self.after(pg, ph, side, v, w)
            fact = self.clash(cg, ch)
            if fact is None:
                parts.append(self.distinguish(cg, ch, r - 1))
                continue
            kind, at, holds = fact
            names = tuple(_var(i) for i in at)
            f = Eq(*names) if kind == "eq" else Atom(names)
            parts.append(f if holds else Not(f))
        x = _var(len(pg))
        if side == 0:
            return Exists(x, and_all(parts) if parts else Eq(x, x))
        return Forall(x, or_all(parts) if parts else Not(Eq(x, x)))


def _var(i: int) -> str:
    return f"x{i + 1}"


def duplicator_wins(g: Hypergraph, h: Hypergraph, rounds: int,
                    cap: int = DEFAULT_GAME_CAP) -> bool:
    """True iff Duplicator has a winning strategy in the k-round game."""
    return _Solver(g, h, rounds, cap).move((), (), rounds) is None


def distinguishing_formula(g: Hypergraph, h: Hypergraph, rounds: int,
                           cap: int = DEFAULT_GAME_CAP) -> Formula | None:
    """None iff Duplicator wins; otherwise a closed formula of depth <= rounds
    that evaluates True on g and False on h.

    Extraction follows Spoiler's winning move: an existential over the chosen
    vertex with a conjunction over Duplicator replies (move in g), or a
    universal with a disjunction (move in h).  Ties break toward the smallest
    vertex label, g-side first; a reply that breaks an atomic fact contributes
    that fact over the pebble variables.
    """
    game = _Solver(g, h, rounds, cap)
    if game.move((), (), rounds) is None:
        return None
    return game.distinguish((), (), rounds)
