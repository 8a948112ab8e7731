"""Independent oracles used across the test suite.

Everything here is deliberately naive (permutations, full enumeration,
table filling) so library results are checked against a second code path.
"""
from __future__ import annotations

import itertools
import math
from bisect import bisect_right
from fractions import Fraction

from hypothesis import strategies as st

from zolab.folang import (And, Atom, Eq, Exists, Forall, Formula, Implies, Not, Or,
                          and_all, or_all)
from zolab.hypercore import Hypergraph, _BitIndex, to_shg
from zolab.randmodel import (_GOLD, _MASK, ExperimentConfig, _check_order, _comb_tables, _host,
                             _included_ranks_exact, _included_ranks_skip, _sm64,
                             edge_probability, trial_key)


def brute_automorphisms(g: Hypergraph) -> list[dict[int, int]]:
    verts = sorted(g.vertices)
    out = []
    for perm in itertools.permutations(verts):
        m = dict(zip(verts, perm))
        if all(frozenset(m[v] for v in e) in g.edges for e in g.edges):
            out.append(m)
    return out


def brute_automorphism_count(g: Hypergraph) -> int:
    return len(brute_automorphisms(g))


def brute_embeddings(motif: Hypergraph, host: Hypergraph):
    """Every injective map sending each motif edge to a host edge, by
    permutation."""
    mv = sorted(motif.vertices)
    for image in itertools.permutations(sorted(host.vertices), len(mv)):
        m = dict(zip(mv, image))
        if all(frozenset(m[v] for v in e) in host.edges for e in motif.edges):
            yield m


def brute_embedding_count(motif: Hypergraph, host: Hypergraph) -> int:
    return sum(1 for _ in brute_embeddings(motif, host))


def reference_embeddings(motif: Hypergraph, host: Hypergraph, pinned: tuple[int, ...] = (),
                         canonical: bool = False):
    """`hypercore._iter_embeddings` without its group lookahead, by plain
    recursion over label sets: `motif._plan`'s order and checks, candidates
    in ascending label order of the non-isolated host vertices, the
    `_symmetry` conditions when `canonical`, and the isolated motif vertices
    completed as the matcher completes them.  So it yields the matcher's
    maps in the matcher's order."""
    order, back, ready, need, searched = motif._plan[:5]
    k = len(order)
    above = motif._symmetry if canonical else [()] * k
    roots = sorted(v for v in host.vertices if host.degree(v))
    near = {v: host.co_edge_neighbors(v) for v in roots}
    lab: list[int] = []

    def fits(i: int, w: int) -> bool:
        return (host.degree(w) >= need[i] and w not in lab
                and all(w in near[lab[p]] for p in back[i])
                and all(frozenset([*(lab[p] for p in e), w]) in host.edges for e in ready[i]))

    def complete():
        taken = set(lab)
        free = [v for v in host.vertices if v not in taken]
        for rest in (itertools.combinations(sorted(free), k - searched) if canonical
                     else itertools.permutations(free, k - searched)):
            yield dict(zip(order, lab + list(rest)))

    def place(i: int):
        if i == searched:
            yield from complete()
            return
        if i < len(pinned):
            tries = [pinned[i]]
        else:
            tries = [w for w in roots if all(w > lab[p] for p in above[i])]
        for w in tries:
            if fits(i, w):
                lab.append(w)
                yield from place(i + 1)
                lab.pop()

    return place(0)


def brute_max_density(g: Hypergraph) -> Fraction:
    best = Fraction(0)
    verts = sorted(g.vertices)
    for size in range(1, len(verts) + 1):
        for sub in itertools.combinations(verts, size):
            roster = frozenset(sub)
            e = sum(1 for edge in g.edges if edge <= roster)
            best = max(best, Fraction(e, size))
    return best


def brute_max_density_witness(g: Hypergraph) -> tuple[Fraction, Hypergraph]:
    """The maximum density over non-empty vertex sets and the first set that
    reaches it in ascending bitmask order over ascending labels, as the
    induced sub-hypergraph, by walking every mask in exact fractions."""
    verts = sorted(g.vertices)
    best, witness = None, None
    for mask in range(1, 1 << len(verts)):
        roster = frozenset(v for i, v in enumerate(verts) if mask >> i & 1)
        inside = frozenset(e for e in g.edges if e <= roster)
        value = Fraction(len(inside), len(roster))
        if best is None or value > best:
            best, witness = value, Hypergraph(g.s, roster, inside)
    return best, witness


def brute_omega_tilde(g: Hypergraph, alpha: Fraction, size_cap: int) -> bool:
    """No set of at most size_cap edge-covered vertices spans density above
    1/alpha, by combinations and exact fractions."""
    covered = sorted({v for e in g.edges for v in e})
    for size in range(g.s, min(size_cap, len(covered)) + 1):
        for subset in itertools.combinations(covered, size):
            roster = frozenset(subset)
            if Fraction(sum(1 for e in g.edges if e <= roster), size) > 1 / alpha:
                return False
    return True


def brute_intermediates(pair) -> list[Hypergraph]:
    """Every sub-hypergraph K with H <= K <= G: each intermediate vertex set
    with each edge set between E(H) and the edges it induces in G."""
    g, h = pair.outer, pair.inner
    rest = sorted(g.vertices - h.vertices)
    out = []
    for r in range(len(rest) + 1):
        for extra in itertools.combinations(rest, r):
            w = h.vertices | frozenset(extra)
            optional = sorted((e for e in g.edges - h.edges if e <= w), key=sorted)
            for q in range(len(optional) + 1):
                for chosen in itertools.combinations(optional, q):
                    out.append(Hypergraph(g.s, w, h.edges | frozenset(chosen)))
    return out


def _sign(x: Fraction) -> int:
    return (x > 0) - (x < 0)


def brute_f_alpha_signs(pair, alpha: Fraction) -> dict:
    """K -> (sign of f_alpha(K, H), sign of f_alpha(G, K)) over every
    intermediate K, with f_alpha(A, B) = v(A) - v(B) - alpha (e(A) - e(B))."""
    g, h = pair.outer, pair.inner

    def f(a: Hypergraph, b: Hypergraph) -> Fraction:
        return (a.num_vertices - b.num_vertices) - alpha * (a.num_edges - b.num_edges)

    return {k: (_sign(f(k, h)), _sign(f(g, k))) for k in brute_intermediates(pair)}


def brute_pair_class(pair, alpha: Fraction) -> str:
    """The safe/rigid/neutral/other class read off the f_alpha sign table."""
    g, h = pair.outer, pair.inner
    signs = brute_f_alpha_signs(pair, alpha)
    if all(kh > 0 for k, (kh, _) in signs.items() if k != h):
        return "safe"
    if all(gk < 0 for k, (_, gk) in signs.items() if k != g):
        return "rigid"
    if signs[g][0] == 0 and all(kh > 0 for k, (kh, _) in signs.items() if k not in (h, g)):
        return "neutral"
    return "other"


def brute_pair_strictly_balanced(pair) -> bool:
    """rho(G, H) > rho(K, H) for every K strictly between; rho(K, H) counts as
    infinite when K adds edges but no vertices."""
    g, h = pair.outer, pair.inner
    v_g, e_g = g.num_vertices - h.num_vertices, g.num_edges - h.num_edges
    if v_g == 0:
        return False
    return all((k.num_edges - h.num_edges) * v_g < e_g * (k.num_vertices - h.num_vertices)
               for k in brute_intermediates(pair) if k not in (h, g))


def brute_prop1_constants(pair) -> tuple[int, int, int]:
    """(a, a1, a2) of Prop 1 by their definitions: a = |Aut(H)|, a1 = the
    automorphisms of H that some automorphism of G extends, a2 = the
    automorphisms of G fixing every vertex of H."""
    g, h = pair.outer, pair.inner
    aut_h, aut_g = brute_automorphisms(h), brute_automorphisms(g)
    order = sorted(h.vertices)
    restrictions = {tuple(sig[v] for v in order) for sig in aut_g}
    a1 = sum(tuple(tau[v] for v in order) in restrictions for tau in aut_h)
    a2 = sum(all(sig[v] == v for v in order) for sig in aut_g)
    return len(aut_h), a1, a2


def brute_game_formula(g: Hypergraph, h: Hypergraph, rounds: int) -> Formula | None:
    """Memo-free game recursion that builds Spoiler's distinguishing formula as
    it searches: None iff Duplicator wins.  Spoiler's first winning move is
    taken, g-side first, then the smallest vertex label; an atom or equality
    that already fails is returned in pebble order."""
    vg, vh = sorted(g.vertices), sorted(h.vertices)

    def var(i: int) -> str:
        return f"x{i}"

    def atomic(pg, ph):
        for i, j in itertools.combinations(range(len(pg)), 2):
            if (pg[i] == pg[j]) != (ph[i] == ph[j]):
                eq = Eq(var(i + 1), var(j + 1))
                return eq if pg[i] == pg[j] else Not(eq)
        corr = dict(zip(pg, ph))
        pos = {v: k for k, v in enumerate(pg)}
        for combo in itertools.combinations(sorted(corr), g.s):
            left = frozenset(combo) in g.edges
            if left != (frozenset(corr[x] for x in combo) in h.edges):
                atom = Atom(tuple(var(pos[x] + 1) for x in combo))
                return atom if left else Not(atom)
        return None

    def all_won(positions, r):
        """Spoiler's formulas for every position, or None once Duplicator survives one."""
        out = []
        for pg, ph in positions:
            f = go(pg, ph, r)
            if f is None:
                return None
            out.append(f)
        return out

    def go(pg, ph, r):
        bad = atomic(pg, ph)
        if bad is not None or r == 0:
            return bad
        x = var(len(pg) + 1)
        for v in vg:
            replies = all_won([(pg + (v,), ph + (w,)) for w in vh], r - 1)
            if replies is not None:
                return Exists(x, and_all(replies) if replies else Eq(x, x))
        for v in vh:
            replies = all_won([(pg + (w,), ph + (v,)) for w in vg], r - 1)
            if replies is not None:
                return Forall(x, or_all(replies) if replies else Not(Eq(x, x)))
        return None

    return go((), (), rounds)


def theorem4_alpha_set(s: int, k: int) -> set[Fraction]:
    """The paper's Theorem 4 violating points s-1-1/(2^(k-s+1) + a) with
    1 <= a <= 2^(k-s-2) + 2^(k-s-3) + 1, k >= s + 4, listed one by one."""
    if s < 3 or k < s + 4:
        raise ValueError(f"need s >= 3 and k >= s + 4, got s={s}, k={k}")
    m = 1 << (k - s + 1)
    a_max = (1 << (k - s - 2)) + (1 << (k - s - 3)) + 1
    return {Fraction(s - 1) - Fraction(1, m + a) for a in range(1, a_max + 1)}


def write_shg(path: str, g: Hypergraph) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(to_shg(g))


def brute_distance(g: Hypergraph, x: int, y: int) -> float:
    if x == y:
        return 0
    dist = {x: 0}
    frontier = [x]
    while frontier:
        nxt = []
        for v in frontier:
            for e in g.edges:
                if v in e:
                    for w in e:
                        if w not in dist:
                            dist[w] = dist[v] + 1
                            nxt.append(w)
        frontier = nxt
    return dist.get(y, math.inf)


def table_evaluate(f: Formula, g: Hypergraph, assignment: dict | None = None) -> bool:
    """Bottom-up assignment-enumeration evaluator (no memoization, no
    short-circuiting): computes the full satisfying table of every subformula.
    """
    fv, rows = truth_table(f, g)
    env = assignment or {}
    return rows[tuple(env[v] for v in fv)]


def truth_table(f: Formula, g: Hypergraph) -> tuple[tuple[str, ...], dict]:
    """The sorted free variables of f and its truth value under every
    assignment of them, by `table_evaluate`'s table filling."""
    verts = tuple(sorted(g.vertices))
    edges = g.edges
    s = g.s

    def table(node: Formula) -> tuple[tuple[str, ...], dict]:
        if isinstance(node, Atom):
            fv = tuple(sorted(set(node.args)))
            rows = {}
            for vals in itertools.product(verts, repeat=len(fv)):
                env = dict(zip(fv, vals))
                img = [env[a] for a in node.args]
                rows[vals] = len(set(img)) == s and frozenset(img) in edges
            return fv, rows
        if isinstance(node, Eq):
            fv = tuple(sorted({node.left, node.right}))
            rows = {}
            for vals in itertools.product(verts, repeat=len(fv)):
                env = dict(zip(fv, vals))
                rows[vals] = env[node.left] == env[node.right]
            return fv, rows
        if isinstance(node, Not):
            fv, rows = table(node.body)
            return fv, {k: not v for k, v in rows.items()}
        if isinstance(node, (And, Or, Implies)):
            fl, rl = table(node.left)
            fr, rr = table(node.right)
            fv = tuple(sorted(set(fl) | set(fr)))
            il = [fv.index(v) for v in fl]
            ir = [fv.index(v) for v in fr]
            rows = {}
            for vals in itertools.product(verts, repeat=len(fv)):
                a = rl[tuple(vals[i] for i in il)]
                b = rr[tuple(vals[i] for i in ir)]
                if isinstance(node, And):
                    rows[vals] = a and b
                elif isinstance(node, Or):
                    rows[vals] = a or b
                else:
                    rows[vals] = (not a) or b
            return fv, rows
        if isinstance(node, (Exists, Forall)):
            fb, rb = table(node.body)
            fv = tuple(v for v in fb if v != node.var)
            rows = {}
            if node.var in fb:
                vi = fb.index(node.var)
                keep = [fb.index(v) for v in fv]
                for vals in itertools.product(verts, repeat=len(fv)):
                    outcomes = []
                    for w in verts:
                        full = [None] * len(fb)
                        for j, idx in enumerate(keep):
                            full[idx] = vals[j]
                        full[vi] = w
                        outcomes.append(rb[tuple(full)])
                    rows[vals] = any(outcomes) if isinstance(node, Exists) else all(outcomes)
            else:
                for vals in itertools.product(verts, repeat=len(fv)):
                    rows[vals] = rb[vals]
            return fv, rows
        raise TypeError(node)

    return table(f)


def all_hypergraphs(n_vertices: int, s: int = 3, max_edges: int | None = None):
    """Every s-uniform hypergraph on exactly the labels 1..n_vertices."""
    verts = tuple(range(1, n_vertices + 1))
    pool = [frozenset(c) for c in itertools.combinations(verts, s)]
    top = len(pool) if max_edges is None else min(max_edges, len(pool))
    for r in range(top + 1):
        for chosen in itertools.combinations(pool, r):
            yield Hypergraph(s, frozenset(verts), frozenset(chosen))


def exact_probability(n: int, s: int, p: float, holds) -> Fraction:
    """P(holds(G)) for G = G^s(n, p) exactly: the sum of p^e (1-p)^(M-e)
    over every host on 1..n with e of the M = C(n, s) candidate edges that
    `holds` accepts, p taken as the exact rational of the float."""
    q = Fraction(p)
    m = math.comb(n, s)
    return sum((q ** g.num_edges * (1 - q) ** (m - g.num_edges)
                for g in all_hypergraphs(n, s) if holds(g)), Fraction(0))


def random_hypergraph(rng, n_vertices: int, s: int = 3, p: float = 0.3) -> Hypergraph:
    verts = tuple(range(1, n_vertices + 1))
    edges = [frozenset(c) for c in itertools.combinations(verts, s) if rng.random() < p]
    return Hypergraph(s, frozenset(verts), frozenset(edges))


def hypergraphs(s: int, n: int):
    """hypothesis strategy: an s-uniform host on the labels 1..n with any edge
    set, isolated vertices and the empty edge set included."""
    pool = list(itertools.combinations(range(1, n + 1), s))
    edges = st.sets(st.sampled_from(pool)) if pool else st.just(set())
    return edges.map(lambda es: Hypergraph.make(s, range(1, n + 1), es))


def scrambled(g: Hypergraph, rng, isolated: int = 0) -> Hypergraph:
    """g relabelled to shuffled, non-contiguous labels (negatives included),
    with `isolated` further vertices that no edge meets."""
    labels = rng.sample(range(-60, 61), g.num_vertices + isolated)
    h = g.relabel(dict(zip(g.sorted_vertices(), labels)))
    return Hypergraph(g.s, h.vertices | frozenset(labels[g.num_vertices:]), h.edges)


def loop_bit_index(labels: list[int], rows) -> _BitIndex:
    """The bitset index of the vertices `labels`, bit j standing for
    labels[j], and of the edges `rows`, each given as its vertices' bits:
    the per-edge loop the numpy builder `hypercore._bit_index` replaced."""
    k = len(labels)
    adj = [0] * k
    deg = [0] * k
    masks = []
    for row in rows:
        m = 0
        for j in row:
            m |= 1 << j
        masks.append(m)
        for j in row:
            adj[j] |= m
            deg[j] += 1
    at_least = [0] * (max(deg, default=0) + 1)
    for j, d in enumerate(deg):
        b = 1 << j
        adj[j] ^= b
        at_least[d] |= b
    for d in range(len(at_least) - 2, -1, -1):
        at_least[d] |= at_least[d + 1]
    return _BitIndex(dict(zip(labels, range(k))), labels, adj, frozenset(masks), at_least)


def reference_bits(g: Hypergraph) -> _BitIndex:
    """g's bitset index by `loop_bit_index`, numbered from its sorted edge sets."""
    labels = sorted(set().union(*g.edges))
    bit = dict(zip(labels, range(len(labels))))
    return loop_bit_index(labels, [[bit[v] for v in e] for e in g.edges])


def random_formula(rng, s: int, max_depth: int, *, closed: bool = True,
                   free_vars: tuple[str, ...] = ()) -> Formula:
    """Random AST with quantifier depth <= max_depth over the s-ary signature.

    Closed formulas start with a quantifier (the signature has no nullary
    atoms, so max_depth must be >= 1 when closed and no free_vars are given).
    """
    if closed and not free_vars and max_depth < 1:
        raise ValueError("closed formulas need quantifier depth >= 1")
    counter = itertools.count(1)

    def go(depth: int, scope: tuple[str, ...]) -> Formula:
        choices = []
        if scope:
            choices += ["atom", "atom", "eq", "not", "bin"]
        if depth > 0:
            choices += ["quant"] * (4 if not scope else 2)
        kind = rng.choice(choices)
        if kind == "atom":
            return Atom(tuple(rng.choice(scope) for _ in range(s)))
        if kind == "eq":
            return Eq(rng.choice(scope), rng.choice(scope))
        if kind == "not":
            return Not(go(depth, scope))
        if kind == "bin":
            op = rng.choice((And, Or, Implies))
            return op(go(depth, scope), go(depth, scope))
        var = f"q{next(counter)}"
        body = go(depth - 1, scope + (var,))
        return (Exists if rng.random() < 0.5 else Forall)(var, body)

    return go(max_depth, tuple(free_vars))


def _unrank(rank: int, s: int, tables: list[list[int]]) -> tuple[int, ...]:
    out = []
    r = rank
    for j in range(s, 0, -1):
        tab = tables[j - 1]
        c = bisect_right(tab, r) - 1
        out.append(c)
        r -= tab[c]
    return tuple(out[::-1])


def sample_bernoulli(cfg: ExperimentConfig, trial_index: int) -> Hypergraph:
    """Reference sampler: walks every rank and tests its per-subset uniform.

    Identical output to the exact sampler by construction; quadratic in
    instance size, for verification only.
    """
    _check_order(cfg)
    n, s = cfg.n, cfg.s
    p = edge_probability(cfg)
    key = trial_key(cfg.seed, trial_index)
    tables = _comb_tables(n, s)
    edges = []
    for rank in range(math.comb(n, s)):
        u = (_sm64(key ^ (((rank + 1) * _GOLD) & _MASK)) >> 11) * 2.0 ** -53
        if u < p:
            edges.append(frozenset(v + 1 for v in _unrank(rank, s, tables)))
    return Hypergraph(s, frozenset(range(1, n + 1)), frozenset(edges))


def sample_with(sampler: str, cfg: ExperimentConfig, trial_index: int) -> Hypergraph:
    """sample(cfg, trial_index) by the "exact" or the "skip" sampler, whatever
    C(n, s) is.  Only for 0 < p < 1: the skip walk divides by log1p(-p), and
    `sample` itself draws p = 0 and p = 1 without either sampler."""
    p, m, _ = cfg._sampling
    ranks = {"exact": _included_ranks_exact, "skip": _included_ranks_skip}[sampler]
    return _host(cfg, ranks(trial_key(cfg.seed, trial_index), m, p))
