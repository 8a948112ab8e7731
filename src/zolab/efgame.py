"""Exhaustive solver for the k-round pebble game EHR(G, H, k).

Classical rules: each round Spoiler picks a vertex in either structure,
Duplicator replies in the other; Duplicator wins iff the final pebble
correspondence is a partial isomorphism.  When Spoiler wins, a distinguishing
closed formula of quantifier depth <= k is extracted.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import CapacityError, VerificationError
from .folang import Atom, Eq, Exists, Forall, Formula, Not, and_all, or_all
from .hypercore import Hypergraph

DEFAULT_GAME_CAP = 8

RULES = "classical: Spoiler chooses either structure each round"


@dataclass(frozen=True)
class GameState:
    """A pebble position: equal-length pick sequences plus rounds still to play."""

    rounds_left: int
    pebbles_g: tuple[int, ...]
    pebbles_h: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.rounds_left < 0:
            raise ValueError("rounds_left must be >= 0")
        if len(self.pebbles_g) != len(self.pebbles_h):
            raise ValueError("pebble sequences must have equal length")

    @classmethod
    def start(cls, rounds: int) -> "GameState":
        return cls(rounds, (), ())

    def after(self, g_pick: int, h_pick: int) -> "GameState":
        if self.rounds_left == 0:
            raise ValueError("no rounds left")
        return GameState(self.rounds_left - 1,
                         self.pebbles_g + (g_pick,),
                         self.pebbles_h + (h_pick,))


def _check(g: Hypergraph, h: Hypergraph, rounds: int, cap: int) -> None:
    if g.s != h.s:
        raise ValueError("arity mismatch between the two structures")
    if rounds < 0:
        raise ValueError("round count must be >= 0")
    if g.num_vertices > cap or h.num_vertices > cap:
        raise CapacityError(
            f"structure sizes {g.num_vertices}/{h.num_vertices} exceed the game cap {cap}")


def _partial_iso(pg: tuple[int, ...], ph: tuple[int, ...],
                 eg: frozenset, eh: frozenset, s: int) -> bool:
    corr: dict[int, int] = {}
    for a, b in zip(pg, ph):
        prev = corr.get(a)
        if prev is None:
            corr[a] = b
        elif prev != b:
            return False
    if len(set(corr.values())) != len(corr):
        return False
    keys = sorted(corr)
    if len(keys) >= s:
        for combo in itertools.combinations(keys, s):
            left = frozenset(combo) in eg
            right = frozenset(corr[x] for x in combo) in eh
            if left != right:
                return False
    return True


def is_partial_isomorphism(state: GameState, g: Hypergraph, h: Hypergraph) -> bool:
    """Does the state's pebble correspondence preserve equality and edges both ways?"""
    if g.s != h.s:
        raise ValueError("arity mismatch between the two structures")
    return _partial_iso(state.pebbles_g, state.pebbles_h, g.edges, h.edges, g.s)


def _solver(g: Hypergraph, h: Hypergraph, rounds: int, cap: int):
    """The game recursion: wins(pg, ph, r) is True iff Duplicator wins the
    r remaining rounds from the pebble position (pg, ph)."""
    _check(g, h, rounds, cap)
    vg, vh = g.sorted_vertices(), h.sorted_vertices()
    eg, eh, s = g.edges, h.edges, g.s
    memo: dict = {}

    def wins(pg: tuple[int, ...], ph: tuple[int, ...], r: int) -> bool:
        if not _partial_iso(pg, ph, eg, eh, s):
            return False
        if r == 0:
            return True
        # game value depends only on the correspondence set, not pick order
        key = (frozenset(zip(pg, ph)), r)
        hit = memo.get(key)
        if hit is not None:
            return hit
        result = True
        for v in vg:
            if not any(wins(pg + (v,), ph + (w,), r - 1) for w in vh):
                result = False
                break
        if result:
            for v in vh:
                if not any(wins(pg + (w,), ph + (v,), r - 1) for w in vg):
                    result = False
                    break
        memo[key] = result
        return result

    return wins


def duplicator_wins(g: Hypergraph, h: Hypergraph, rounds: int,
                    cap: int = DEFAULT_GAME_CAP) -> bool:
    """True iff Duplicator has a winning strategy in the k-round game."""
    return _solver(g, h, rounds, cap)((), (), rounds)


def distinguishing_formula(g: Hypergraph, h: Hypergraph, rounds: int,
                           cap: int = DEFAULT_GAME_CAP) -> Formula | None:
    """None iff Duplicator wins; otherwise a closed formula of depth <= rounds
    that evaluates True on g and False on h.

    Extraction follows Spoiler's winning move: an existential over the chosen
    vertex with a conjunction over Duplicator replies (move in g), or a
    universal with a disjunction (move in h).  Ties break toward the smallest
    vertex label, g-side first.
    """
    wins = _solver(g, h, rounds, cap)
    if wins((), (), rounds):
        return None
    vg, vh = g.sorted_vertices(), h.sorted_vertices()
    eg, eh, s = g.edges, h.edges, g.s

    def var(i: int) -> str:
        return f"x{i}"

    def atomic_witness(pg, ph) -> Formula | None:
        """Quantifier-free formula over pebble variables, true at pg, false at ph."""
        n = len(pg)
        for i, j in itertools.combinations(range(n), 2):
            le, ri = pg[i] == pg[j], ph[i] == ph[j]
            if le and not ri:
                return Eq(var(i + 1), var(j + 1))
            if ri and not le:
                return Not(Eq(var(i + 1), var(j + 1)))
        corr = dict(zip(pg, ph))
        keys = sorted(corr)
        if len(keys) >= s:
            pos = {v: k for k, v in enumerate(pg)}
            for combo in itertools.combinations(keys, s):
                left = frozenset(combo) in eg
                right = frozenset(corr[x] for x in combo) in eh
                if left != right:
                    atom = Atom(tuple(var(pos[x] + 1) for x in combo))
                    return atom if left else Not(atom)
        return None

    def distinguish(pg, ph, r) -> Formula:
        """Formula for a position Spoiler wins, read off the solved game."""
        bad = atomic_witness(pg, ph)
        if bad is not None:
            return bad
        x = var(len(pg) + 1)
        for v in vg:
            if not any(wins(pg + (v,), ph + (w,), r - 1) for w in vh):
                replies = [distinguish(pg + (v,), ph + (w,), r - 1) for w in vh]
                return Exists(x, and_all(replies) if replies else Eq(x, x))
        for v in vh:
            if not any(wins(pg + (w,), ph + (v,), r - 1) for w in vg):
                replies = [distinguish(pg + (w,), ph + (v,), r - 1) for w in vg]
                return Forall(x, or_all(replies) if replies else Not(Eq(x, x)))
        raise VerificationError("Spoiler has no winning move in a position the solver lost")

    return distinguish((), (), rounds)
