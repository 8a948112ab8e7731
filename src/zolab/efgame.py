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
are searched.

The last two rounds are decided on each structure alone.  With r rounds left,
Duplicator wins from a partial isomorphism exactly when the two sides have
equal rank-r types (Hintikka types; Libkin, Elements of Finite Model Theory,
2004, section 3.4).  For r <= 2 each side's rank is a small interned int, so
with three rounds left a reply survives the pick iff the two children's
ranks are equal: one int comparison instead of a two-round search.  Deeper
positions keep the pair recursion, whose memo is keyed on the set of pebble
pairs and so is shared by every order of the same picks; a side's tables are
keyed on the order of its pebbles, which numbers its atomic types, and kept
at every depth they were 2-15x slower at k >= 5 on 8 vertices.
"""
from __future__ import annotations

import functools
import itertools
import math

from .errors import CapacityError
from .folang import And, Atom, Eq, Exists, Forall, Formula, Not, Or
from .hypercore import Hypergraph, _edge_completions

DEFAULT_GAME_CAP = 8

RULES = "classical: Spoiler chooses either structure each round"

_TYPES_KEPT = 64  # per side: the pebbled-vertex tuples whose types a _Side keeps


def _types(d: tuple[int, ...], verts: list[int], slot: dict[int, int], link: dict, s: int
           ) -> tuple[tuple[int, ...], dict[int, list[int]]]:
    """The atomic type over the pebbled vertices d (distinct, in first-pebble
    order) of each vertex of `verts`, and the vertices of each type in label
    order.

    A pebbled vertex gets ~i for i its index in d.  An unpebbled vertex gets
    a bit mask over the (s-1)-sets of d: a bit is set iff the vertex forms an
    edge with that set.  The types come from _child_types, one pebble of d at
    a time from all-zero types, so the sets are numbered as _child_types
    creates them (see _atom_order) and two tuples d of one length number
    their sets alike: their types compare directly.
    """
    types = (0,) * len(verts)
    for i, v in enumerate(d):
        types = _child_types(types, d[:i], v, slot, link, s)
    classes: dict[int, list[int]] = {}
    for v, t in zip(verts, types):
        classes.setdefault(t, []).append(v)
    return types, classes


def _child_types(types: tuple[int, ...], d: tuple[int, ...], v: int,
                 slot: dict[int, int], link: dict, s: int) -> tuple[int, ...]:
    """The types over d + (v,) for an unpebbled v, from the types over d:
    the sets through v are the new ones, numbered after all of d's, in
    combination order of the other s - 2 vertices."""
    out = list(types)
    bit = 1 << math.comb(len(d), s - 1)  # past the sets over d
    for combo in itertools.combinations(d, s - 2):
        for u in link.get(frozenset((*combo, v)), ()):
            k = slot[u]
            if out[k] >= 0:  # a pebbled vertex keeps ~i
                out[k] |= bit
        bit <<= 1
    out[slot[v]] = ~len(d)
    return tuple(out)


class _Side:
    """One structure's tables, keyed on d: its distinct pebbled vertices in
    first-pebble order.

    link: the vertices that complete each (s-1)-set to an edge, the
    structure's `_edge_completions` table.

    types(d): _types over d, for the last _TYPES_KEPT tuples d: each is
    built by _child_types from all-zero types, the one type builder.

    rank(d, types, v, r), r in (1, 2): the structure's rank-r type after
    pebbling v, given the types over d, as the int that `ids` (shared by both
    sides) gives each distinct set.  A pebbled v adds nothing to d;
    otherwise the child is d + v and its types come from _child_types.  The
    rank-1 type is the set of atomic types over the child; the rank-2 type is
    the set of pairs (atomic type of w, rank-1 type after pebbling w) over all
    vertices w.  Both are memoized on the child tuple, and rank(·, 2) keeps
    the rank-1 types it built, one per w, in `kids`: the formula walk asks
    for them again at the positions that the solve decided by ranks.
    """

    def __init__(self, g: Hypergraph, ids: dict) -> None:
        self.verts = g.sorted_vertices()
        self.slot = {v: k for k, v in enumerate(self.verts)}
        self.link, self.s, self.ids = _edge_completions(g, g.s - 1), g.s, ids
        # sibling positions share the pick side's types, and a small LRU
        # keeps nearly every reuse
        self.types = functools.lru_cache(_TYPES_KEPT)(
            functools.partial(_types, verts=self.verts, slot=self.slot, link=self.link, s=g.s))
        self.ranks: dict = {}
        self.kids: dict = {}

    def rank(self, d: tuple[int, ...], types: tuple[int, ...], v: int, r: int) -> int:
        slot = self.slot
        if r == 1 and d in self.kids:
            return self.kids[d][slot[v]]
        pebbled = types[slot[v]] < 0
        child = d if pebbled else d + (v,)
        ranks = self.ranks
        key = (child, r)
        if key in ranks:
            return ranks[key]
        ids, link, s = self.ids, self.link, self.s
        if not pebbled:
            types = _child_types(types, d, v, slot, link, s)
        facts = frozenset(types)
        if r == 2:
            here = ids.setdefault(facts, len(ids))
            kids = self.kids[child] = tuple(
                here if u < 0 else ids.setdefault(
                    frozenset(_child_types(types, child, w, slot, link, s)), len(ids))
                for w, u in zip(self.verts, types))
            facts = frozenset(zip(types, kids))
        out = ranks[key] = ids.setdefault(facts, len(ids))
        return out


class _Solver:
    """The game solved lazily over pebble positions (pg, ph).

    move(pg, ph, r): Spoiler's first winning move with r rounds left from a
    partial isomorphism, as (0, v) for v in g or (1, v) for v in h, g side
    first, then the smallest label; None when Duplicator survives.

    distinguish(pg, ph, r): the distinguishing formula of a position that
    Spoiler wins, read off move; Duplicator's replies are taken in label
    order.

    On a partial isomorphism the first pebble indices of the two sides agree,
    so a reply breaks no atomic fact exactly when its atomic type over the
    pebbles (see _types) equals the pick's; move recurses only into those
    replies.  With r <= 3 rounds left it recurses no further: the pick's
    child and a reply's child, with r - 1 <= 2 rounds left, are compared by
    their ranks (see _Side), and with one round left a pick wins iff its
    type is missing on the other side.  distinguish reads the fact a reply of
    another type breaks off the two types: an equality when either vertex is
    pebbled, else the atom of the first (s-1)-set of g pebbles, in label
    order, whose bit differs; replies that break the same fact add it once.
    A solver holds no reference cycle, so its tables are freed as soon as
    the caller drops it.
    """

    def __init__(self, g: Hypergraph, h: Hypergraph, rounds: int, cap: int) -> None:
        if g.s != h.s:
            raise ValueError("arity mismatch between the two structures")
        if rounds < 0:
            raise ValueError("round count must be >= 0")
        if g.num_vertices > cap or h.num_vertices > cap:
            raise CapacityError(
                f"structure sizes {g.num_vertices}/{h.num_vertices} exceed the game cap {cap}")
        self.s = g.s
        ids: dict = {}
        self.g, self.h = _Side(g, ids), _Side(h, ids)
        self.memo: dict = {}

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
        g, h = self.g, self.h
        dg, dh = _distinct(pg), _distinct(ph)
        (tg, by_g), (th, by_h) = g.types(dg), h.types(dh)
        found = None
        for side, mine, theirs, dm, dt, mtypes, ttypes, other in (
                (0, g, h, dg, dh, tg, th, by_h), (1, h, g, dh, dg, th, tg, by_g)):
            for v, t in zip(mine.verts, mtypes):
                # replies of another type break a fact at once; with one
                # round left, a reply of the pick's type survives
                match = other.get(t)
                if match is None:
                    found = (side, v)
                elif r == 1:
                    continue
                elif r <= 3:
                    want = mine.rank(dm, mtypes, v, r - 1)
                    if all(theirs.rank(dt, ttypes, w, r - 1) != want for w in match):
                        found = (side, v)
                elif all(self.move(*self.after(pg, ph, side, v, w), r - 1) is not None
                         for w in match):
                    found = (side, v)
                if found:
                    break
            if found:
                break
        memo[key] = found
        return found

    def distinguish(self, pg: tuple[int, ...], ph: tuple[int, ...], r: int) -> Formula:
        """The formula of a position Spoiler wins, read off the solved game."""
        side, v = self.move(pg, ph, r)
        dg = _distinct(pg)
        tg, th = self.g.types(dg)[0], self.h.types(_distinct(ph))[0]
        if side == 0:
            t, verts, types = tg[self.g.slot[v]], self.h.verts, th
        else:
            t, verts, types = th[self.h.slot[v]], self.g.verts, tg
        n = len(pg)
        x = _var(n)
        first = [pg.index(y) for y in dg]  # the same pebble indices on both sides
        names = {y: _var(i) for i, y in enumerate(pg)}  # a vertex's last pebble
        order = None
        # the parts in reply order, each kept once: a subformula by value, a
        # fact by its printed variables and sign (a reply in g prints as x)
        parts: list[Formula] = []
        facts = set()
        for w, u in zip(verts, types):
            if u == t:  # no fact breaks: Spoiler wins on with r - 1 rounds
                f = self.distinguish(*self.after(pg, ph, side, v, w), r - 1)
                if f not in parts:
                    parts.append(f)
                continue
            a, (ta, tb) = (v, (t, u)) if side == 0 else (w, (u, t))
            if ta < 0 or tb < 0:  # a repeat on either side breaks an equality
                i, j = (first[~y] if y < 0 else n for y in (ta, tb))
                key = Eq, (_var(min(i, j)), x), i < j
            else:
                order = order or _atom_order(dg, self.s)
                rest, bit = next(rb for rb in order if (ta ^ tb) & rb[1])
                key = Atom, tuple(names.get(y, x) for y in sorted((a, *rest))), bool(ta & bit)
            if key not in facts:
                facts.add(key)
                kind, args, holds = key
                f = Eq(*args) if kind is Eq else Atom(args)
                parts.append(f if holds else Not(f))
        if side == 0:
            return Exists(x, functools.reduce(And, parts) if parts else Eq(x, x))
        return Forall(x, functools.reduce(Or, parts) if parts else Not(Eq(x, x)))


def _atom_order(d: tuple[int, ...], s: int) -> list[tuple[tuple[int, ...], int]]:
    """The (s-1)-sets of the pebbled vertices d, as combinations of their
    sorted labels, each with its bit over d.  The bits are numbered as
    _child_types creates them: the sets whose largest index in d is j come
    after those below j, in combinations(d[:j], s - 2) order."""
    bits: dict[frozenset[int], int] = {}
    for j, v in enumerate(d):
        for combo in itertools.combinations(d[:j], s - 2):
            bits[frozenset((*combo, v))] = 1 << len(bits)
    return [(rest, bits[frozenset(rest)]) for rest in itertools.combinations(sorted(d), s - 1)]


def _distinct(pebbles: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(dict.fromkeys(pebbles))


def _var(i: int) -> str:
    return f"x{i + 1}"


def duplicator_wins(g: Hypergraph, h: Hypergraph, rounds: int,
                    cap: int = DEFAULT_GAME_CAP) -> bool:
    """True iff Duplicator has a winning strategy in the k-round game.

    The game is solved with at most m + 1 rounds, m the larger vertex count:
    Duplicator surviving m rounds forces an isomorphism (Spoiler can pebble
    every vertex of the larger side), so the winner never changes past m.
    """
    depth = min(rounds, max(g.num_vertices, h.num_vertices) + 1)
    return _Solver(g, h, rounds, cap).move((), (), depth) is None


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
