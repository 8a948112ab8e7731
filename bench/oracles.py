"""Independent computations the benchmark checks zolab's outputs against.

Nothing here imports zolab.  Hypergraphs are plain ``(vertices, edges)``
pairs: a set of ints and a collection of frozensets.  Every oracle is either
a closed form or a second algorithm (max-flow for densities, BFS for
distances, direct structural searches for motifs, exhaustive minimax for
games), and ``self_test`` checks the non-trivial ones against brute force or
planted answers on small hosts.
"""
from __future__ import annotations

import decimal
import itertools
import math
import random
import re
from collections import defaultdict, deque
from fractions import Fraction

F = Fraction


class CheckFailure(Exception):
    """A program output disagrees with an independent computation."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailure(message)


# ---------------------------------------------------------------------------
# G^s(n, p) sampler, re-derived from the randomness policy in the randmodel
# module docstring: splitmix64 trial keys, per-rank uniforms for at most 2000
# candidate edges, geometric skips over colex ranks above that.
# ---------------------------------------------------------------------------

_MASK = (1 << 64) - 1
_GOLD = 0x9E3779B97F4A7C15
EXACT_RANK_LIMIT = 2000


def _splitmix(x: int) -> int:
    z = (x + _GOLD) & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def trial_key(seed: int, trial: int) -> int:
    return _splitmix((_splitmix(seed & _MASK) + trial * _GOLD) & _MASK)


def edge_probability(n: int, alpha: Fraction) -> float:
    """p = n^(-alpha) in 50-digit decimal arithmetic, rounded once."""
    ctx = decimal.Context(prec=50)
    a = ctx.divide(decimal.Decimal(alpha.numerator), decimal.Decimal(alpha.denominator))
    return float(ctx.exp(ctx.minus(ctx.multiply(a, ctx.ln(decimal.Decimal(n))))))


def _colex_unrank(rank: int, s: int, n: int) -> frozenset[int]:
    """The s-subset of {1..n} whose colex rank sum_j C(c_j, j) is `rank`."""
    out = []
    hi = n - 1
    for j in range(s, 0, -1):
        lo = j - 1
        while lo < hi:  # largest c in [lo, hi] with C(c, j) <= rank
            mid = (lo + hi + 1) // 2
            if math.comb(mid, j) <= rank:
                lo = mid
            else:
                hi = mid - 1
        out.append(lo + 1)
        rank -= math.comb(lo, j)
        hi = lo - 1
    return frozenset(out)


def sample_edges(s: int, n: int, alpha: Fraction, seed: int, trial: int) -> list[frozenset[int]]:
    p = edge_probability(n, alpha)
    m = math.comb(n, s)
    key = trial_key(seed, trial)
    if m <= EXACT_RANK_LIMIT:
        ranks = [r for r in range(m)
                 if (_splitmix(key ^ (((r + 1) * _GOLD) & _MASK)) >> 11) * 2.0 ** -53 < p]
    else:
        rng = random.Random(key)
        log_q = math.log1p(-p)
        ranks = []
        r = -1
        while True:  # geometric gap to the next present rank, u in (0, 1]
            r += 1 + int(math.log(1.0 - rng.random()) / log_q)
            if r >= m:
                break
            ranks.append(r)
    return [_colex_unrank(r, s, n) for r in ranks]


# ---------------------------------------------------------------------------
# motif oracles on 3-uniform hosts
# ---------------------------------------------------------------------------

def _codegrees(edges) -> dict[frozenset[int], int]:
    out: dict[frozenset[int], int] = defaultdict(int)
    for e in edges:
        for pair in itertools.combinations(sorted(e), 2):
            out[frozenset(pair)] += 1
    return out


def h1_count(edges) -> int:
    """Copies of two 3-edges sharing two vertices: sum over pairs of C(codegree, 2)."""
    return sum(math.comb(c, 2) for c in _codegrees(edges).values())


def h2_count(edges) -> int:
    """Loose triangles: edge triples pairwise meeting in single, distinct vertices."""
    edges = sorted(tuple(sorted(e)) for e in edges)
    incident: dict[int, list[int]] = defaultdict(list)
    for i, e in enumerate(edges):
        for v in e:
            incident[v].append(i)
    sets = [frozenset(e) for e in edges]
    count = 0
    for i, e1 in enumerate(sets):
        for x in e1:
            for j in incident[x]:
                if j <= i or len(e1 & sets[j]) != 1:
                    continue
                for y in sets[j] - {x}:
                    for k in incident[y]:
                        if k <= j:
                            continue
                        e3 = sets[k]
                        if len(e3 & sets[j]) != 1 or len(e3 & e1) != 1:
                            continue
                        (z,) = e3 & e1
                        if z not in (x, y):
                            count += 1
    return count


def co_edge_neighbours(edges) -> dict[int, set[int]]:
    adj: dict[int, set[int]] = defaultdict(set)
    for e in edges:
        for v in e:
            adj[v] |= e - {v}
    return adj


def theorem8_base_holds(edges) -> bool:
    """L(3, 4) at s = 3: some x lies in a pair covered by two edges and in three
    pairwise co-edge vertices that do not form an edge."""
    edge_set = set(edges)
    adj = co_edge_neighbours(edges)
    doubled = {v for pair, c in _codegrees(edges).items() if c >= 2 for v in pair}
    for x in sorted(doubled):
        nbrs = sorted(adj[x])
        for y, z in itertools.combinations(nbrs, 2):
            if z in adj[y] and frozenset((x, y, z)) not in edge_set:
                return True
    return False


def chain_distances(edges, x: int) -> dict[int, int]:
    """BFS over the co-edge relation: length of the shortest chain of
    pairwise-intersecting edges from x to every reachable vertex."""
    adj = co_edge_neighbours(edges)
    dist = {x: 0}
    queue = deque([x])
    while queue:
        v = queue.popleft()
        for w in adj[v]:
            if w not in dist:
                dist[w] = dist[v] + 1
                queue.append(w)
    return dist


def has_pair_at_distance(n: int, edges, d: int) -> bool:
    return any(d in chain_distances(edges, x).values() for x in range(1, n + 1))


# ---------------------------------------------------------------------------
# uncovered double path bundles (the Theorem 6 pair at s = 3, l = 1, m = 2)
# ---------------------------------------------------------------------------
# Inner H: 2m = 4 loose paths of length 2 joining a and b.  Outer G: H plus a
# hub joined by loose 2-paths to m = 2 midpoints.  Inside G the only vertex
# pair joined by four internally disjoint 2-paths is (a, b), so an H-copy is
# covered exactly when some hub outside it reaches two of its midpoints by
# internally disjoint 2-paths that avoid the copy.
#
# Prop 1 constants by hand: a = |Aut H| = 2 (swap a, b) * 4! (permute the
# paths) = 48; a1 = inner automorphisms that extend to G, i.e. those keeping
# the two hub-joined paths as a set: 2 * 2! * 2! = 8; a2 = automorphisms of G
# fixing V(H) pointwise: the hub paths are rigid once their midpoints are
# fixed, so 1.

PROP1_CONSTANTS = (48, 8, 1)


def _two_paths(incident, start: int):
    """Loose 2-paths leaving `start`: (far end, midpoint, internal vertex set, edge pair)."""
    for e1 in incident[start]:
        for mid in e1 - {start}:
            for e2 in incident[mid]:
                if e2 == e1 or start in e2 or len(e1 & e2) != 1:
                    continue
                for far in e2 - {mid}:
                    internal = (e1 | e2) - {start, far}
                    yield far, mid, internal, (e1, e2)


def uncovered_bundle_count(edges, paths: int = 4, hub_paths: int = 2) -> int:
    edges = [frozenset(e) for e in set(map(frozenset, edges))]
    incident: dict[int, list[frozenset[int]]] = defaultdict(list)
    for e in edges:
        for v in e:
            incident[v].append(e)
    copies: set[tuple[frozenset[int], frozenset[frozenset[int]]]] = set()
    mids_of: dict[frozenset[frozenset[int]], list[int]] = {}
    for a in sorted(v for v in incident if len(incident[v]) >= paths):
        by_far: dict[int, list[tuple[int, frozenset[int], tuple]]] = defaultdict(list)
        for far, mid, internal, pair in _two_paths(incident, a):
            if far > a:
                by_far[far].append((mid, frozenset(internal), pair))
        for b, cands in by_far.items():
            for combo in itertools.combinations(cands, paths):
                internals = [c[1] for c in combo]
                union = frozenset().union(*internals)
                if len(union) != sum(len(i) for i in internals):
                    continue
                es = frozenset(e for c in combo for e in c[2])
                copies.add((union | {a, b}, es))
                mids_of[es] = [c[0] for c in combo]
    uncovered = 0
    for verts, es in copies:
        if not _bundle_covered(incident, verts, mids_of[es], hub_paths):
            uncovered += 1
    return uncovered


def _bundle_covered(incident, verts, mids, hub_paths: int) -> bool:
    reach: dict[int, dict[int, list[frozenset[int]]]] = {}
    for mid in mids:
        per_hub: dict[int, list[frozenset[int]]] = defaultdict(list)
        for hub, _, internal, _ in _two_paths(incident, mid):
            if hub not in verts and not internal & verts:
                per_hub[hub].append(frozenset(internal))
        reach[mid] = per_hub
    hubs = set().union(*(set(r) for r in reach.values()))
    for hub in hubs:
        for chosen in itertools.combinations(mids, hub_paths):
            options = [reach[m].get(hub, []) for m in chosen]
            for internals in itertools.product(*options):
                union = frozenset().union(*internals)
                if hub not in union and len(union) == sum(len(i) for i in internals):
                    return True
    return False


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

def wilson(successes: int, trials: int, z: float = 1.959964) -> tuple[float, float]:
    phat = successes / trials
    denom = 1 + z * z / trials
    centre = (phat + z * z / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1 - phat) / trials + z * z / (4 * trials * trials)) / denom
    return max(0.0, centre - half), min(1.0, centre + half)


def pooled_tv(hist: dict[tuple[int, ...], int], rates: list[float], trials: int,
              pool_at: int = 5) -> float:
    """TV distance between a joint count histogram and a product of Poisson
    laws, each coordinate's tail pooled at >= pool_at."""
    pmfs = []
    for lam in rates:
        masses = [math.exp(-lam) * lam ** j / math.factorial(j) for j in range(pool_at)]
        pmfs.append(masses + [max(0.0, 1.0 - sum(masses))])
    pooled: dict[tuple[int, ...], int] = defaultdict(int)
    for key, c in hist.items():
        pooled[tuple(min(x, pool_at) for x in key)] += c
    tv = 0.0
    for cell in itertools.product(range(pool_at + 1), repeat=len(rates)):
        theory = math.prod(pmfs[d][cell[d]] for d in range(len(rates)))
        tv += abs(pooled.get(cell, 0) / trials - theory)
    return tv / 2


def pearson(xs: list[int], ys: list[int]) -> float:
    n = len(xs)
    mx, my = sum(xs) / n, sum(ys) / n
    sx = math.sqrt(sum((x - mx) ** 2 for x in xs))
    sy = math.sqrt(sum((y - my) ** 2 for y in ys))
    if sx == 0.0 or sy == 0.0:
        return 0.0
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / (sx * sy)


def close(a: float, b: float, rel: float = 1e-9) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


# ---------------------------------------------------------------------------
# densities by max-flow (Goldberg's max-closure reduction, Dinkelbach steps)
# ---------------------------------------------------------------------------

def _max_closure(vertices, edges, num: int, den: int) -> tuple[int, set[int]]:
    """max over vertex sets S of den * e(S) - num * |S|, with a maximiser."""
    verts = sorted(vertices)
    edges = list(edges)
    src, snk = 0, 1
    vid = {v: 2 + len(edges) + i for i, v in enumerate(verts)}
    cap: dict[int, dict[int, int]] = defaultdict(lambda: defaultdict(int))
    inf = den * (len(edges) + 1)
    for i, e in enumerate(edges):
        cap[src][2 + i] += den
        for v in e:
            cap[2 + i][vid[v]] += inf
            cap[vid[v]][2 + i] += 0
        cap[2 + i][src] += 0
    for v in verts:
        cap[vid[v]][snk] += num
        cap[snk][vid[v]] += 0
    flow = 0
    while True:
        parent = {src: None}
        queue = deque([src])
        while queue and snk not in parent:
            u = queue.popleft()
            for w, c in cap[u].items():
                if c > 0 and w not in parent:
                    parent[w] = u
                    queue.append(w)
        if snk not in parent:
            break
        push, w = inf, snk
        while parent[w] is not None:
            push = min(push, cap[parent[w]][w])
            w = parent[w]
        w = snk
        while parent[w] is not None:
            cap[parent[w]][w] -= push
            cap[w][parent[w]] += push
            w = parent[w]
        flow += push
    chosen = {v for v in verts if vid[v] in parent}
    return den * len(edges) - flow, chosen


def max_density(vertices, edges) -> tuple[Fraction, set[int]]:
    """Maximum e(S)/|S| over non-empty vertex sets, with a maximiser."""
    vertices = set(vertices)
    edges = [frozenset(e) for e in edges]
    if not edges:
        return F(0), {min(vertices)}
    best = set(vertices)
    lam = F(len(edges), len(vertices))
    while True:
        value, chosen = _max_closure(vertices, edges, lam.numerator, lam.denominator)
        if value <= 0:
            return lam, best
        best = chosen
        lam = F(sum(1 for e in edges if e <= chosen), len(chosen))


def strictly_balanced(vertices, edges) -> bool:
    """Density strictly above that of every proper sub-hypergraph: it suffices
    that every vertex-deleted induced subgraph is strictly sparser."""
    vertices = set(vertices)
    edges = [frozenset(e) for e in edges]
    if len(vertices) == 1:
        return True
    rho = F(len(edges), len(vertices))
    for u in vertices:
        rest = [e for e in edges if u not in e]
        if max_density(vertices - {u}, rest)[0] >= rho:
            return False
    return True


def classify_pair(outer_v, outer_e, inner_v, inner_e, alpha: Fraction) -> str:
    """safe / rigid / neutral / other from the signs of f_alpha = v - alpha e
    over every intermediate induced sub-hypergraph (brute force)."""
    outer_e = {frozenset(e) for e in outer_e}
    inner_e = {frozenset(e) for e in inner_e}
    inner_v = set(inner_v)
    diff = sorted(set(outer_v) - inner_v)
    base = {e for e in outer_e if e <= inner_v}
    induced = base == inner_e
    v_g, e_g = len(diff), len(outer_e) - len(inner_e)
    f_kh, f_gk = {}, {}
    for r in range(len(diff) + 1):
        for sub in itertools.combinations(diff, r):
            roster = inner_v | set(sub)
            e_rel = sum(1 for e in outer_e if e <= roster) - len(inner_e)
            f_kh[sub] = r - alpha * e_rel
            f_gk[sub] = (v_g - r) - alpha * (e_g - e_rel)
    full = tuple(diff)
    middle = [k for k in f_kh if k and k != full]
    if induced and all(f_kh[k] > 0 for k in f_kh if k):
        return "safe"
    if all(f_gk[k] < 0 for k in f_gk if k != full):
        return "rigid"
    if induced and f_kh[full] == 0 and all(f_kh[k] > 0 for k in middle):
        return "neutral"
    return "other"


# ---------------------------------------------------------------------------
# first-order formulas: parser, depth, evaluator
# ---------------------------------------------------------------------------

_TOKEN = re.compile(r"\s*(->|[()=,&|!]|[A-Za-z_][A-Za-z0-9_]*)")


def parse_formula(text: str):
    """Nodes: ('N', args) ('=', x, y) ('!', f) ('&'|'|'|'->', f, g)
    ('E'|'A', var, f)."""
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            if text[pos:].strip():
                raise CheckFailure(f"formula text does not tokenize at {pos}")
            break
        tokens.append(m.group(1))
        pos = m.end()
    i = 0

    def peek():
        return tokens[i] if i < len(tokens) else None

    def take(want=None):
        nonlocal i
        tok = peek()
        if tok is None or (want is not None and tok != want):
            raise CheckFailure(f"formula text: expected {want!r} at token {i}")
        i += 1
        return tok

    def formula():
        if peek() in ("exists", "forall"):
            q = "E" if take() == "exists" else "A"
            var = take()
            return (q, var, formula())
        left = disjunction()
        if peek() == "->":
            take()
            return ("->", left, formula())
        return left

    def disjunction():
        out = conjunction()
        while peek() == "|":
            take()
            out = ("|", out, conjunction())
        return out

    def conjunction():
        out = unary()
        while peek() == "&":
            take()
            out = ("&", out, unary())
        return out

    def unary():
        tok = peek()
        if tok == "!":
            take()
            return ("!", unary())
        if tok == "(":
            take()
            inner = formula()
            take(")")
            return inner
        if tok == "N":
            take()
            take("(")
            args = [take()]
            while peek() == ",":
                take()
                args.append(take())
            take(")")
            return ("N", tuple(args))
        left = take()
        take("=")
        return ("=", left, take())

    out = formula()
    if i != len(tokens):
        raise CheckFailure("formula text has trailing tokens")
    return out


def depth(node) -> int:
    kind = node[0]
    if kind in ("N", "="):
        return 0
    if kind == "!":
        return depth(node[1])
    if kind in ("E", "A"):
        return 1 + depth(node[2])
    return max(depth(node[1]), depth(node[2]))


def _free(node, cache) -> tuple[str, ...]:
    got = cache.get(id(node))
    if got is not None:
        return got
    kind = node[0]
    if kind == "N":
        out = set(node[1])
    elif kind == "=":
        out = {node[1], node[2]}
    elif kind == "!":
        out = set(_free(node[1], cache))
    elif kind in ("E", "A"):
        out = set(_free(node[2], cache)) - {node[1]}
    else:
        out = set(_free(node[1], cache)) | set(_free(node[2], cache))
    cache[id(node)] = got = tuple(sorted(out))
    return got


def holds(node, vertices, edges, env: dict | None = None) -> bool:
    """Tarskian truth of a parsed formula; quantifiers range over `vertices`."""
    verts = sorted(vertices)
    edge_set = {frozenset(e) for e in edges}
    arity = len(next(iter(edge_set))) if edge_set else None
    free_cache: dict[int, tuple[str, ...]] = {}
    memo: dict = {}

    def ev(nd, env) -> bool:
        kind = nd[0]
        if kind == "N":
            vals = [env[a] for a in nd[1]]
            return len(set(vals)) == len(vals) == arity and frozenset(vals) in edge_set
        if kind == "=":
            return env[nd[1]] == env[nd[2]]
        if kind == "!":
            return not ev(nd[1], env)
        if kind == "&":
            return ev(nd[1], env) and ev(nd[2], env)
        if kind == "|":
            return ev(nd[1], env) or ev(nd[2], env)
        if kind == "->":
            return (not ev(nd[1], env)) or ev(nd[2], env)
        key = (id(nd), tuple(env[v] for v in _free(nd, free_cache)))
        if key in memo:
            return memo[key]
        var, body = nd[1], nd[2]
        outer = env.get(var)
        results = []
        for w in verts:
            env[var] = w
            results.append(ev(body, env))
            if results[-1] == (kind == "E"):
                break
        if outer is None:
            env.pop(var, None)
        else:
            env[var] = outer
        memo[key] = out = any(results) if kind == "E" else all(results)
        return out

    return ev(node, dict(env or {}))


# ---------------------------------------------------------------------------
# Ehrenfeucht-Fraisse games
# ---------------------------------------------------------------------------

def duplicator_wins(left, right, rounds: int) -> bool:
    """Winner of the k-round pebble game by exhaustive minimax: Spoiler picks a
    vertex on either side, Duplicator answers on the other; Duplicator wins if
    every position reached is a partial isomorphism."""
    (lv, le), (rv, re_) = left, right
    lv, rv = sorted(lv), sorted(rv)
    le, re_ = {frozenset(e) for e in le}, {frozenset(e) for e in re_}
    arity = len(next(iter(le or re_), (0, 0, 0)))
    memo: dict = {}

    def consistent(pairs: frozenset) -> bool:
        fwd, back = {}, {}
        for x, y in pairs:
            if fwd.setdefault(x, y) != y or back.setdefault(y, x) != x:
                return False
        return all((frozenset(c) in le) == (frozenset(fwd[x] for x in c) in re_)
                   for c in itertools.combinations(sorted(fwd), arity))

    def wins(pairs: frozenset, left_rounds: int) -> bool:
        key = (pairs, left_rounds)
        if key not in memo:
            memo[key] = consistent(pairs) and (left_rounds == 0 or (
                all(any(wins(pairs | {(x, y)}, left_rounds - 1) for y in rv) for x in lv)
                and all(any(wins(pairs | {(x, y)}, left_rounds - 1) for x in lv) for y in rv)))
        return memo[key]

    return wins(frozenset(), rounds)


# ---------------------------------------------------------------------------
# .shg text and exact spectrum bounds
# ---------------------------------------------------------------------------

def read_shg(text: str) -> tuple[int, set[int], list[frozenset[int]]]:
    lines = [ln.split("#", 1)[0].split() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    head = lines[0]
    require(len(head) == 4 and head[0] == "s" and head[2] == "n", "bad .shg header")
    s, n = int(head[1]), int(head[3])
    edges = [frozenset(map(int, ln)) for ln in lines[1:]]
    require(all(len(e) == s and e <= set(range(1, n + 1)) for e in edges),
            "non-uniform or out-of-range .shg edge")
    require(len(set(edges)) == len(edges), "repeated .shg edge")
    return s, set(range(1, n + 1)), edges


def bound_rows(s: int, k: int) -> dict[str, Fraction]:
    """Closed forms of the endpoint statements evaluable at (s, k)."""
    c = math.comb(k - 1, s - 1)
    r = F(s - 1, k - 1)
    rows = {"theorem1": c - 1 - r + 2 * (1 + r) / (c + 2),
            "theorem3": s - 1 - F(1, 2 ** (k - s + 1)),
            "theorem7": s - 1 - F(1, 2 ** (k - s + 2) - 2),
            "theorem8": s - 1 - F(1, 2 ** (k - s + 2) - 3),
            "remark": s - 1 - F(1, 2 ** (k - s + 1))}
    if k >= s + 2:
        rows["theorem2"] = c - 1 - r - F(2, c)
    if k >= s + 4:
        rows["theorem4"] = s - 1 - F(1, 2 ** (k - s + 1) + 2 ** (k - s - 2) + 2 ** (k - s - 3) + 1)
    if k - 11 >= s - 1:
        rows["theorem5"] = F(1, math.comb(k - 11, s - 1))
    if k >= s + 5:
        rows["theorem6"] = s - 1 - F(1, 2 ** (k - s - 4))
    return rows


def max_candidates(s: int, k: int) -> tuple[Fraction, Fraction]:
    m2 = 2 ** (k - s + 2)
    return s - 1 - F(1, m2 - 3), s - 1 - F(1, m2 - 2)


# ---------------------------------------------------------------------------
# self-test against brute force
# ---------------------------------------------------------------------------

def _random_host(rng, n: int, p: float) -> list[frozenset[int]]:
    return [frozenset(c) for c in itertools.combinations(range(1, n + 1), 3)
            if rng.random() < p]


def _brute_copies(motif_v, motif_e, n: int, edges) -> int:
    """Embeddings by permutation over automorphisms by permutation."""
    edge_set = set(edges)
    mv = sorted(motif_v)

    def maps_into(image, target) -> bool:
        m = dict(zip(mv, image))
        return all(frozenset(m[v] for v in e) in target for e in motif_e)

    aut = sum(1 for perm in itertools.permutations(mv) if maps_into(perm, set(motif_e)))
    emb = sum(1 for img in itertools.permutations(range(1, n + 1), len(mv))
              if maps_into(img, edge_set))
    return emb // aut


def _brute_distance(n: int, edges, x: int, y: int) -> float:
    d = {(u, w): (0 if u == w else math.inf)
         for u in range(1, n + 1) for w in range(1, n + 1)}
    for e in edges:
        for u, w in itertools.permutations(e, 2):
            d[u, w] = 1
    for m in range(1, n + 1):
        for u in range(1, n + 1):
            for w in range(1, n + 1):
                d[u, w] = min(d[u, w], d[u, m] + d[m, w])
    return d[x, y]


def _brute_theorem8(n: int, edges) -> bool:
    es = set(edges)
    vs = range(1, n + 1)

    def atom(*args):
        return len(set(args)) == 3 and frozenset(args) in es

    def t(u, v):
        return any(atom(u, v, w) for w in vs)

    return any(
        any(atom(x, y, z) and any(atom(x, y, w) and w != z for w in vs)
            for y in vs for z in vs)
        and any(t(x, y) and t(x, z) and t(y, z) and not atom(x, y, z)
                for y in vs for z in vs)
        for x in vs)


def _brute_density(vertices, edges) -> tuple[Fraction, bool]:
    verts = sorted(vertices)
    rho = F(len(edges), len(verts))
    best, strict = F(0), True
    for r in range(1, len(verts) + 1):
        for sub in itertools.combinations(verts, r):
            e = sum(1 for x in edges if x <= set(sub))
            best = max(best, F(e, r))
            if r < len(verts) and F(e, r) >= rho:
                strict = False
    return best, strict


def _planted_bundle(paths: int, hubs_to: list[int], shift: int):
    """a = shift+1, b = shift+2, `paths` loose 2-paths between them and one hub
    joined to the midpoints of the listed paths."""
    label = itertools.count(shift + 3)
    a, b = shift + 1, shift + 2
    edges, mids = [], []
    for _ in range(paths):
        p1, mid, p2 = next(label), next(label), next(label)
        edges += [frozenset((a, p1, mid)), frozenset((mid, p2, b))]
        mids.append(mid)
    if hubs_to:
        hub = next(label)
        for i in hubs_to:
            q1, y, q2 = next(label), next(label), next(label)
            edges += [frozenset((hub, q1, y)), frozenset((y, q2, mids[i]))]
    return edges


def self_test(seed: int) -> None:
    """Check the oracles against brute force and planted answers."""
    rng = random.Random(seed)
    h1 = ({1, 2, 3, 4}, [frozenset((1, 2, 3)), frozenset((1, 3, 4))])
    h2 = ({1, 2, 3, 4, 5, 6}, [frozenset((1, 2, 3)), frozenset((3, 4, 5)), frozenset((5, 6, 1))])
    for _ in range(12):
        n = rng.randint(5, 7)
        edges = _random_host(rng, n, rng.uniform(0.1, 0.35))
        require(h1_count(edges) == _brute_copies(*h1, n, edges), "self-test: H1 count")
        require(h2_count(edges) == _brute_copies(*h2, n, edges), "self-test: H2 count")
        require(theorem8_base_holds(edges) == _brute_theorem8(n, edges), "self-test: L(3,4)")
        for x, y in itertools.combinations(range(1, n + 1), 2):
            got = chain_distances(edges, x).get(y, math.inf)
            require(got == _brute_distance(n, edges, x, y), "self-test: distance")
        if edges:
            verts = set(range(1, n + 1))
            best, strict = _brute_density(verts, edges)
            require(max_density(verts, edges)[0] == best, "self-test: max density")
            require(strictly_balanced(verts, edges) == strict, "self-test: strict balance")
    for n in (5, 9):  # colex unranking is a bijection onto the 3-subsets
        got = [_colex_unrank(r, 3, n) for r in range(math.comb(n, 3))]
        require(set(got) == {frozenset(c) for c in itertools.combinations(range(1, n + 1), 3)}
                and all(sum(math.comb(c - 1, j + 1) for j, c in enumerate(sorted(e))) == r
                        for r, e in enumerate(got)), "self-test: colex unranking")
    planted = [  # (host edges, uncovered bundle copies)
        (_planted_bundle(4, [], 0), 1),
        (_planted_bundle(4, [0, 1], 0), 0),
        (_planted_bundle(5, [], 0), 5),
        (_planted_bundle(5, [0, 1], 0), 2),
        (_planted_bundle(4, [0], 0), 1),
        (_planted_bundle(3, [], 0) + _planted_bundle(4, [2, 3], 40), 0),
    ]
    for edges, want in planted:
        perm = list(range(1, 200))
        rng.shuffle(perm)
        relabelled = [frozenset(perm[v - 1] for v in e) for e in edges]
        require(uncovered_bundle_count(relabelled) == want, "self-test: uncovered bundles")
    edge, empty = ({1, 2, 3}, [frozenset((1, 2, 3))]), ({1, 2, 3}, [])
    require(not duplicator_wins(edge, empty, 3) and duplicator_wins(edge, empty, 2)
            and duplicator_wins(h2, h2, 3), "self-test: game solver")
    require(classify_pair({1, 2, 3}, [frozenset((1, 2, 3))], {1}, [], F(7, 4)) == "safe",
            "self-test: classification")
    f = parse_formula("exists x forall y (x = y | N(x,y,z) -> !(y = z))")
    require(depth(f) == 2 and _free(f, {}) == ("z",), "self-test: formula parser")
    tri = parse_formula("exists a exists b exists c N(a,b,c)")
    require(holds(tri, {1, 2, 3}, [frozenset((1, 2, 3))]) and not holds(tri, {1, 2, 3}, []),
            "self-test: formula evaluator")
