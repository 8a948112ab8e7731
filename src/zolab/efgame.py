"""Exhaustive solver for the k-round pebble game EHR(G, H, k).

Classical rules: each round Spoiler picks a vertex in either structure,
Duplicator replies in the other; Duplicator wins iff the final pebble
correspondence is a partial isomorphism.  When Spoiler wins, a distinguishing
closed formula of quantifier depth <= k is extracted.
"""
from __future__ import annotations

import itertools

from .errors import CapacityError
from .folang import Atom, Eq, Exists, Forall, Formula, Not, and_all, or_all
from .hypercore import Hypergraph

DEFAULT_GAME_CAP = 8

RULES = "classical: Spoiler chooses either structure each round"


def _solver(g: Hypergraph, h: Hypergraph, rounds: int, cap: int):
    """The solved game as three closures over pebble positions (pg, ph).

    clash(pg, ph): the first atomic fact that the newest pebble pair breaks,
    given that every shorter prefix of the position broke none.  A fact is
    (kind, pebble indices, truth in g) with kind "eq" or "atom"; None if the
    position is still a partial isomorphism.

    move(pg, ph, r): Spoiler's first winning move with r rounds left from a
    position with no clash, as (0, v) for v in g or (1, v) for v in h, g side
    first, then the smallest label; None when Duplicator survives.

    replies(pg, ph, side, v): the positions after Spoiler pebbles v on
    `side`, one per Duplicator reply in label order.
    """
    if g.s != h.s:
        raise ValueError("arity mismatch between the two structures")
    if rounds < 0:
        raise ValueError("round count must be >= 0")
    if g.num_vertices > cap or h.num_vertices > cap:
        raise CapacityError(
            f"structure sizes {g.num_vertices}/{h.num_vertices} exceed the game cap {cap}")
    vg, vh = g.sorted_vertices(), h.sorted_vertices()
    eg, eh, s = g.edges, h.edges, g.s
    picks = [(0, v) for v in vg] + [(1, v) for v in vh]  # Spoiler's moves, in tie-break order
    memo: dict = {}

    def clash(pg: tuple[int, ...], ph: tuple[int, ...]):
        n = len(pg) - 1
        a, b = pg[n], ph[n]
        i, j = pg.index(a), ph.index(b)
        if i < n or j < n:
            if i == j:
                return None  # a consistent repeat adds no new fact
            first = min(i, j)
            return ("eq", (first, n), first == i)
        if n < s - 1:
            return None
        # only the s-subsets through the new vertex are unchecked, visited in
        # the order of combinations over all sorted pebbled vertices
        corr = dict(zip(pg[:n], ph[:n]))
        for rest in itertools.combinations(sorted(corr), s - 1):
            left = frozenset((a, *rest)) in eg
            if left != (frozenset([b, *(corr[x] for x in rest)]) in eh):
                pos = {v: k for k, v in enumerate(pg)}
                return ("atom", tuple(pos[x] for x in sorted((a, *rest))), left)
        return None

    def replies(pg, ph, side: int, v: int):
        if side == 0:
            return ((pg + (v,), ph + (w,)) for w in vh)
        return ((pg + (w,), ph + (v,)) for w in vg)

    def move(pg: tuple[int, ...], ph: tuple[int, ...], r: int):
        if r == 0:
            return None
        # game value depends only on the correspondence set, not pick order
        key = (frozenset(zip(pg, ph)), r)
        if key in memo:
            return memo[key]
        found = None
        for side, v in picks:
            if all(clash(cg, ch) is not None or move(cg, ch, r - 1) is not None
                   for cg, ch in replies(pg, ph, side, v)):
                found = (side, v)
                break
        memo[key] = found
        return found

    return clash, move, replies


def duplicator_wins(g: Hypergraph, h: Hypergraph, rounds: int,
                    cap: int = DEFAULT_GAME_CAP) -> bool:
    """True iff Duplicator has a winning strategy in the k-round game."""
    _, move, _ = _solver(g, h, rounds, cap)
    return move((), (), rounds) is None


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
    clash, move, replies = _solver(g, h, rounds, cap)
    if move((), (), rounds) is None:
        return None

    def var(i: int) -> str:
        return f"x{i + 1}"

    def distinguish(pg, ph, r) -> Formula:
        """Formula for a position Spoiler wins, read off the solved game."""
        side, v = move(pg, ph, r)
        parts = []
        for cg, ch in replies(pg, ph, side, v):
            fact = clash(cg, ch)
            if fact is None:
                parts.append(distinguish(cg, ch, r - 1))
                continue
            kind, at, holds = fact
            names = tuple(var(i) for i in at)
            f = Eq(*names) if kind == "eq" else Atom(names)
            parts.append(f if holds else Not(f))
        x = var(len(pg))
        if side == 0:
            return Exists(x, and_all(parts) if parts else Eq(x, x))
        return Forall(x, or_all(parts) if parts else Not(Eq(x, x)))

    return distinguish((), (), rounds)
