"""Independent oracles used across the test suite.

Everything here is deliberately naive (permutations, full enumeration,
table filling) so library results are checked against a second code path.
"""
from __future__ import annotations

import itertools
import math
from fractions import Fraction

from zolab.folang import And, Atom, Eq, Exists, Forall, Formula, Implies, Not, Or
from zolab.hypercore import Hypergraph


def brute_automorphism_count(g: Hypergraph) -> int:
    verts = sorted(g.vertices)
    count = 0
    for perm in itertools.permutations(verts):
        m = dict(zip(verts, perm))
        if all(frozenset(m[v] for v in e) in g.edges for e in g.edges):
            count += 1
    return count


def brute_embedding_count(motif: Hypergraph, host: Hypergraph) -> int:
    mv = sorted(motif.vertices)
    count = 0
    for image in itertools.permutations(sorted(host.vertices), len(mv)):
        m = dict(zip(mv, image))
        if all(frozenset(m[v] for v in e) in host.edges for e in motif.edges):
            count += 1
    return count


def brute_strict_extension_maps(template, host: Hypergraph, anchor: tuple[int, ...],
                                anchor_edges: frozenset):
    """Every injective map pinning the template's sorted inner vertices to the
    anchor that sends each new template edge to a host edge not carried by the
    anchor (not one of `anchor_edges` inside it), by permutation."""
    emb = template.embedding_map
    base = {emb[v]: a for v, a in zip(sorted(template.inner.vertices), anchor)}
    new_vts = sorted(template.outer.vertices - set(base))
    new_edges = template.outer.edges - template.inner_image.edges
    free = sorted(host.vertices - set(anchor))
    for image in itertools.permutations(free, len(new_vts)):
        m = {**base, **dict(zip(new_vts, image))}
        images = [frozenset(m[v] for v in e) for e in new_edges]
        if all(img in host.edges and not (img <= set(anchor) and img in anchor_edges)
               for img in images):
            yield m


def brute_max_density(g: Hypergraph) -> Fraction:
    best = Fraction(0)
    verts = sorted(g.vertices)
    for size in range(1, len(verts) + 1):
        for sub in itertools.combinations(verts, size):
            roster = frozenset(sub)
            e = sum(1 for edge in g.edges if edge <= roster)
            best = max(best, Fraction(e, size))
    return best


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

    fv, rows = table(f)
    env = assignment or {}
    key = tuple(env[v] for v in fv)
    return rows[key]


def all_hypergraphs(n_vertices: int, s: int = 3, max_edges: int | None = None):
    """Every s-uniform hypergraph on exactly the labels 1..n_vertices."""
    verts = tuple(range(1, n_vertices + 1))
    pool = [frozenset(c) for c in itertools.combinations(verts, s)]
    top = len(pool) if max_edges is None else min(max_edges, len(pool))
    for r in range(top + 1):
        for chosen in itertools.combinations(pool, r):
            yield Hypergraph(s, frozenset(verts), frozenset(chosen))


def random_hypergraph(rng, n_vertices: int, s: int = 3, p: float = 0.3) -> Hypergraph:
    verts = tuple(range(1, n_vertices + 1))
    edges = [frozenset(c) for c in itertools.combinations(verts, s) if rng.random() < p]
    return Hypergraph(s, frozenset(verts), frozenset(edges))
