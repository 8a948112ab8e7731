"""The four workloads: their inputs, their zolab commands and their checks.

``prepare(zl, workdir, seed)`` writes a workload's input files, builds its
witnesses and formula text with zolab itself, and returns the fixed list of
operations one round runs.  An operation is a ``zolab`` argv line run through
``zolab.cli.main`` in-process, or a direct call of a public function with no
CLI command.  Each carries the number of operations it counts (sampled hosts
or exact queries) and a check against ``oracles``.
"""
from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import oracles as orc
from oracles import require

F = Fraction
Z = 6.0  # z-score bound for statistical checks: a false alarm is ~1e-9 per cell


@dataclass
class Op:
    label: str
    ops: int
    run: Callable[[], tuple[int, str]]
    check: Callable[[str, dict], None]


def cli_op(zl, label: str, argv: list[str], ops: int, check) -> Op:
    def run() -> tuple[int, str]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = zl.cli.main(argv)
            except SystemExit as exc:  # argparse rejects bad argv this way
                code = exc.code if isinstance(exc.code, int) else 2
        return code, out.getvalue()
    return Op(label, ops, run, check)


def call_op(label: str, fn: Callable[[], object], check) -> Op:
    return Op(label, 1, lambda: (0, json.dumps(fn(), sort_keys=True)), check)


def write(workdir: Path, name: str, text: str) -> str:
    path = workdir / name
    path.write_text(text, encoding="ascii")
    return str(path)


def frac(d: dict) -> Fraction:
    return F(d["num"], d["den"])


def rat(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


# ---------------------------------------------------------------------------
# Monte Carlo checks shared by the sampling workloads
# ---------------------------------------------------------------------------

def hosts(n: int, alpha: Fraction, seed: int, trials: int) -> list[list[frozenset[int]]]:
    return [orc.sample_edges(3, n, alpha, seed, t) for t in range(trials)]


def check_edge_total(samples, n: int, alpha: Fraction, where: str) -> None:
    """Total edges over the trials lies within Z sigma of trials * C(n,3) * p."""
    p = orc.edge_probability(n, alpha)
    draws = len(samples) * math.comb(n, 3)
    got = sum(len(h) for h in samples)
    sigma = math.sqrt(draws * p * (1 - p))
    require(abs(got - draws * p) <= Z * sigma + 1,
            f"{where}: {got} edges, expected {draws * p:.1f} +- {Z}*{sigma:.1f}")


def check_probe(text: str, seed: int, alphas, ns, trials: int, holds) -> dict:
    """Every cell's estimate, interval and flag against the oracle on
    independently re-sampled hosts; returns {(alpha, n): estimate}."""
    rep = json.loads(text)
    require(rep["kind"] == "spectrum_probe", "probe: wrong report kind")
    require(rep["config"] == {"s": 3, "trials": trials, "seed": seed,
                              "alpha_grid": [rat(a) for a in alphas], "n_grid": list(ns)},
            "probe: config echo differs")
    cells = {(c["alpha"], c["n"]): c for c in rep["grid"]}
    require(len(cells) == len(alphas) * len(ns) == len(rep["grid"]), "probe: grid shape")
    estimates, flags = {}, []
    for alpha in alphas:
        row = []
        for n in ns:
            samples = hosts(n, alpha, seed, trials)
            check_edge_total(samples, n, alpha, f"probe cell ({rat(alpha)}, {n})")
            hits = sum(1 for h in samples if holds(n, h))
            cell = cells[rat(alpha), n]
            lo, hi = orc.wilson(hits, trials)
            require(cell["estimate"] == hits / trials,
                    f"probe cell ({rat(alpha)}, {n}): estimate {cell['estimate']} "
                    f"but the oracle finds {hits}/{trials}")
            require(orc.close(cell["lo"], lo) and orc.close(cell["hi"], hi),
                    f"probe cell ({rat(alpha)}, {n}): Wilson interval")
            estimates[alpha, n] = hits / trials
            row.append(hits / trials)
        if all(0.2 <= e <= 0.8 for e in row):
            flags.append(rat(alpha))
    require(rep.get("flags", []) == flags, "probe: non-convergence flags")
    return estimates


def check_counts_report(text: str, kind: str, n: int, alpha: Fraction, seed: int,
                        trials: int, counter, rates: list[float], tv_slack: float) -> dict:
    """A poisson_fit / prop1 report: histogram from per-host oracle counts,
    TV distance recomputed and within its statistical bound."""
    rep = json.loads(text)
    require(rep["kind"] == kind, f"{kind}: wrong report kind")
    require(rep["config"] == {"s": 3, "n": n, "trials": trials, "seed": seed,
                              "alpha": rat(alpha), "method": "auto"},
            f"{kind}: config echo differs")
    samples = hosts(n, alpha, seed, trials)
    check_edge_total(samples, n, alpha, kind)
    per_host = [counter(h) for h in samples]
    hist: dict[tuple[int, ...], int] = {}
    for key in per_host:
        hist[key] = hist.get(key, 0) + 1
    want = {",".join(map(str, k)): v for k, v in hist.items()}
    require(rep["histogram"] == want, f"{kind}: histogram differs from the oracle counts")
    require(rep["counts"] == {"trials": trials}, f"{kind}: trial count")
    require(rep["extra"]["p"] == orc.edge_probability(n, alpha), f"{kind}: materialised p")
    tv = orc.pooled_tv(hist, rates, trials)
    require(orc.close(rep["tv_distance"], tv), f"{kind}: TV distance recomputation")
    # sampling error of the pooled histogram plus the finite-n bias allowance
    require(tv <= tv_slack + Z * 0.5 * math.sqrt(len(hist) / trials),
            f"{kind}: TV {tv:.4f} beyond its statistical bound")
    return {"rep": rep, "per_host": per_host}


# ---------------------------------------------------------------------------
# threshold_probe
# ---------------------------------------------------------------------------

H1_EDGES = [(1, 2, 3), (1, 3, 4)]          # two 3-edges sharing two vertices
H2_EDGES = [(1, 2, 3), (3, 4, 5), (5, 6, 1)]  # the loose triangle
PROBE_ALPHAS = [F(3, 2), F(7, 4), F(2), F(9, 4), F(5, 2)]
PROBE_NS = [200, 300]
PROBE_TRIALS = 20


def threshold_probe(zl, workdir: Path, seed: int) -> list[Op]:
    h1 = zl.hypercore.Hypergraph.make(3, range(1, 5), H1_EDGES)
    path = write(workdir, "h1.shg", zl.hypercore.to_shg(h1))

    def check(text, outs):
        est = check_probe(text, seed, PROBE_ALPHAS, PROBE_NS, PROBE_TRIALS,
                          lambda n, h: orc.h1_count(h) > 0)
        for n in PROBE_NS:  # zero-one behaviour around the threshold alpha = 2
            require(est[F(3, 2), n] >= 0.9, f"H1 missing at alpha=3/2, n={n}")
            require(est[F(5, 2), n] <= 0.25, f"H1 frequent at alpha=5/2, n={n}")

    argv = ["probe", "--s", "3", "--alpha-grid", ",".join(map(rat, PROBE_ALPHAS)),
            "--n-grid", ",".join(map(str, PROBE_NS)), "--trials", str(PROBE_TRIALS),
            "--seed", str(seed), "--motif", path]
    return [cli_op(zl, "probe-h1", argv, len(PROBE_ALPHAS) * len(PROBE_NS) * PROBE_TRIALS,
                   check)]


# ---------------------------------------------------------------------------
# copy_census
# ---------------------------------------------------------------------------

# (n, trials).  Uncovered-copy counting costs 20-90 ms a host at n = 400, the
# dear ones being the few hosts that hold an inner-graph copy; 60 hosts keep
# their number from swinging the round's cost with the seed, and the two
# poisson commands get enough hosts that prop1 is about half the round.
CENSUS = {"edge": (100, 1000), "joint": (150, 450), "prop1": (400, 60)}


def copy_census(zl, workdir: Path, seed: int) -> list[Op]:
    hc = zl.hypercore
    files = {name: write(workdir, f"{name}.shg",
                         hc.to_shg(hc.Hypergraph.make(3, range(1, v + 1), es)))
             for name, v, es in (("edge", 3, [(1, 2, 3)]), ("h1", 4, H1_EDGES),
                                 ("h2", 6, H2_EDGES))}
    w6 = zl.constructions.theorem6_pair(3, 1, 2)
    files["g6"] = write(workdir, "g6.shg", hc.to_shg(w6.g))
    files["h6"] = write(workdir, "h6.shg", hc.to_shg(w6.h))

    def check_edge(text, outs):
        n, trials = CENSUS["edge"]
        got = check_counts_report(text, "poisson_fit", n, F(3), seed, trials,
                                  lambda h: (len(h),), [1 / 6], 0.02)
        require(got["rep"]["extra"]["automorphisms"] == [6], "edge automorphisms")

    def check_joint(text, outs):
        n, trials = CENSUS["joint"]
        got = check_counts_report(text, "poisson_fit", n, F(2), seed, trials,
                                  lambda h: (orc.h1_count(h), orc.h2_count(h)),
                                  [1 / 4, 1 / 6], 0.08)
        rep = got["rep"]
        require(rep["extra"]["automorphisms"] == [4, 6], "H1/H2 automorphisms")
        xs, ys = zip(*got["per_host"])
        require(orc.close(rep["correlations"]["0,1"], orc.pearson(list(xs), list(ys))),
                "H1/H2 correlation recomputation")

    def check_prop1(text, outs):
        n, trials = CENSUS["prop1"]
        a, a1, a2 = orc.PROP1_CONSTANTS
        rate = math.exp(-a / (a1 * a2)) / a
        got = check_counts_report(text, "prop1", n, F(7, 4), seed, trials,
                                  lambda h: (orc.uncovered_bundle_count(h),), [rate], 0.02)
        extra = got["rep"]["extra"]
        require((extra["a"], extra["a1"], extra["a2"]) == (a, a1, a2), "Prop 1 constants")
        require(orc.close(extra["rate"], rate), "Prop 1 rate")

    def argv(name, *extra):
        n, trials = CENSUS[name]
        return [*extra, "--s", "3", "--n", str(n), "--trials", str(trials), "--seed", str(seed)]

    return [
        cli_op(zl, "poisson-edge", argv("edge", "poisson", "--motif", files["edge"]),
               CENSUS["edge"][1], check_edge),
        cli_op(zl, "poisson-h1-h2", argv("joint", "poisson", "--motif", files["h1"],
                                         "--motif", files["h2"]),
               CENSUS["joint"][1], check_joint),
        cli_op(zl, "prop1-bundle", argv("prop1", "prop1", "--outer", files["g6"],
                                        "--inner", files["h6"]) + ["--alpha", "7/4"],
               CENSUS["prop1"][1], check_prop1),
    ]


# ---------------------------------------------------------------------------
# fo_scan
# ---------------------------------------------------------------------------

# (alpha grid, n grid, trials).  The distance sentence holds on almost every
# host at alpha = 3/2 (early exit) and on almost none at 5/2 (full search);
# a grid point where it holds about half the time would make the round's cost
# swing with the seed.
FO_L = ([F(3, 2), F(9, 5), F(2)], [20, 30], 12)
FO_DIST = ([F(3, 2), F(5, 2)], [20, 30], 4)


def fo_scan(zl, workdir: Path, seed: int) -> list[Op]:
    fl = zl.folang
    l34 = fl.to_text(fl.build_theorem8_L(3, 4))
    dist3 = f"exists a exists b ({fl.to_text(fl.build_dist_exact(3, 3, 'a', 'b'))})"

    def probe(label, text, grid, depth, holds):
        alphas, ns, trials = grid

        def check(out, outs):
            require(orc.depth(orc.parse_formula(text)) == depth, f"{label}: quantifier depth")
            check_probe(out, seed, alphas, ns, trials, holds)

        argv = ["probe", "--s", "3", "--alpha-grid", ",".join(map(rat, alphas)),
                "--n-grid", ",".join(map(str, ns)), "--trials", str(trials),
                "--seed", str(seed), "--formula", text]
        return cli_op(zl, label, argv, len(alphas) * len(ns) * trials, check)

    return [probe("probe-L34", l34, FO_L, 4, lambda n, h: orc.theorem8_base_holds(h)),
            probe("probe-dist3", dist3, FO_DIST, 5,
                  lambda n, h: orc.has_pair_at_distance(n, h, 3))]


# ---------------------------------------------------------------------------
# exact_lab
# ---------------------------------------------------------------------------

def loose_cycle(t: int) -> list[tuple[int, int, int]]:
    """t >= 3 edges {c_i, p_i, c_(i+1)}: chain vertices 1..t, pendants t+1..2t."""
    return [(i + 1, t + i + 1, (i + 1) % t + 1) for i in range(t)]


def random_edges(rng, n: int, p: float) -> list[tuple[int, ...]]:
    return [c for c in itertools.combinations(range(1, n + 1), 3) if rng.random() < p]


# Game pairs: (rounds, vertex counts, edge probabilities) per slot.  Sizes and
# densities are fixed and only the edges come from the seed: the solver's cost
# grows steeply with the vertex count, so drawing sizes too made the round's
# cost depend on the seed.
GAME_SLOTS = [(3, (6, 7, 8, 6, 7, 8), (0.15, 0.25, 0.35, 0.35, 0.25, 0.15)),
              (4, (5, 6, 5, 6, 5, 6), (0.15, 0.25, 0.35, 0.35, 0.25, 0.15))]


# (outer, inner, m, expected template kind or None, expected path length k)
CYCLIC_CASES = [("g6", "h6", 2, None, 0), ("path2", "base2", 2, "second_type_path", 1),
                ("path3", "base2", 3, "second_type_path", 2), ("cyc3", "root1", 3, "first_type", 2),
                ("cyc3", "root1", 2, None, 0), ("edge", "base2", 2, "second_type_edge", 0)]
# (graph, root, m, expected chain length or None)
DECOMPOSE_CASES = [("cyc4", 1, 4, 2), ("w8", 1, 3, 3), ("path3", 1, 3, None), ("cyc5", 1, 5, 2)]
CLASSIFY_CASES = [("g6", "h6", F(7, 4)), ("g6", "h6", F(3, 2)), ("g6", "h6", F(2)),
                  ("edge", "root1", F(7, 4)), ("path3", "base2", F(2)), ("cyc4", "root1", F(2))]
# every graph here is its own densest sub-hypergraph except k4tail, whose
# densest part is the complete 3-graph on four vertices
BALANCE_CASES = ["g6", "h6", "w8", "w85", "path3", "path5", "cyc3", "cyc4", "cyc5", "k4tail"]
BOUNDS_KS = [(3, k) for k in range(4, 10)]
CANDIDATE_KS = [(3, 5), (3, 7), (4, 6), (4, 8)]
QK_CASES = [(3, 5, F(3, 2), True), (3, 5, F(8, 3), True), (3, 5, F(9, 2), False),
            (3, 5, F(1), True)]  # alpha = s-1-1/(2^(k-s+1) + a/b) for the listed a/b
CONSTRUCT_CASES = [("theorem6", 3, 1, 2), ("theorem6", 3, 2, 2), ("theorem8", 3, 4, None),
                   ("theorem8", 3, 5, (2, 3))]


def exact_lab(zl, workdir: Path, seed: int) -> list[Op]:
    hc, cons = zl.hypercore, zl.constructions
    rng = random.Random(seed)
    graphs: dict[str, tuple[set[int], list[frozenset[int]]]] = {}
    files: dict[str, str] = {}

    def add(name: str, g) -> None:
        graphs[name] = (set(g.vertices), [frozenset(e) for e in g.edges])
        files[name] = write(workdir, f"{name}.shg", hc.to_shg(g))

    w6 = cons.theorem6_pair(3, 1, 2)
    w8 = cons.theorem8_witnesses(3, 4)
    w85 = cons.theorem8_witnesses(3, 5, 2, 3)
    add("g6", w6.g)
    add("h6", w6.h)
    add("w8", w8.h)
    add("w85", w85.h)
    for t in (2, 3, 5):
        add(f"path{t}", cons.loose_path(3, t))
    for t in (3, 4, 5):
        add(f"cyc{t}", hc.Hypergraph.make(3, range(1, 2 * t + 1), loose_cycle(t)))
    add("k4tail", hc.Hypergraph.make(3, range(1, 9), list(itertools.combinations(range(1, 5), 3))
                                      + [(4, 5, 6), (6, 7, 8)]))
    add("edge", hc.Hypergraph.make(3, [1, 2, 3], [(1, 2, 3)]))
    add("base2", hc.Hypergraph.make(3, [1, 2], []))
    add("root1", hc.Hypergraph.make(3, [1], []))
    extra = next(frozenset(c) for c in itertools.combinations(sorted(w8.h.vertices), 3)
                 if frozenset(c) not in w8.h.edges)
    w8_worse = hc.Hypergraph(3, w8.h.vertices, w8.h.edges | {extra})
    graphs["w8_worse"] = (set(w8_worse.vertices), [frozenset(e) for e in w8_worse.edges])

    ops: list[Op] = []
    for rounds, sizes, probs in GAME_SLOTS:
        for i, (n, p) in enumerate(zip(sizes, probs)):
            left = hc.Hypergraph.make(3, range(1, n + 1), random_edges(rng, n, p))
            if i < 3:  # a relabelled copy: Duplicator must win
                perm = list(range(1, n + 1))
                rng.shuffle(perm)
                right = left.relabel(dict(zip(range(1, n + 1), perm)))
            else:
                right = hc.Hypergraph.make(3, range(1, n + 1), random_edges(rng, n, p))
            add(f"k{rounds}l{i}", left)
            add(f"k{rounds}r{i}", right)
            pairs = [(f"k{rounds}l{i}", f"k{rounds}r{i}")]
            if i >= 3:  # swapping the sides must keep the winner
                pairs.append((f"k{rounds}r{i}", f"k{rounds}l{i}"))
            for a, b in pairs:
                ops.append(cli_op(zl, f"game-{a}-{b}",
                                  ["game", "--left", files[a], "--right", files[b],
                                   "--rounds", str(rounds), "--formula"],
                                  1, game_check(graphs, a, b, rounds, relabelled=i < 3)))
    for name in BALANCE_CASES:
        ops.append(cli_op(zl, f"balance-{name}", ["balance", files[name]], 1,
                          balance_check(graphs[name])))
    for outer, inner, alpha in CLASSIFY_CASES:
        ops.append(cli_op(zl, f"classify-{outer}-{inner}-{rat(alpha)}",
                          ["classify-pair", "--outer", files[outer], "--inner", files[inner],
                           "--alpha", rat(alpha)], 1,
                          classify_check(graphs[outer], graphs[inner], alpha)))
    for outer, inner, m, kind, k in CYCLIC_CASES:
        ops.append(cli_op(zl, f"cyclic-{outer}-{inner}-{m}",
                          ["cyclic", "--outer", files[outer], "--inner", files[inner],
                           "--m", str(m)], 1,
                          cyclic_check(graphs[outer], graphs[inner], m, kind, k)))
    for name, root, m, length in DECOMPOSE_CASES:
        ops.append(cli_op(zl, f"decompose-{name}-{m}",
                          ["decompose", files[name], "--m", str(m), "--root", str(root)], 1,
                          decompose_check(graphs[name], root, m, length)))
    for s, k in BOUNDS_KS:
        ops.append(cli_op(zl, f"bounds-{s}-{k}", ["bounds", "--s", str(s), "--k", str(k)], 1,
                          bounds_check(s, k)))
    for s, k in CANDIDATE_KS:
        ops.append(cli_op(zl, f"candidates-{s}-{k}",
                          ["bounds", "--s", str(s), "--k", str(k), "--max-candidates"], 1,
                          candidates_check(s, k)))
    for s, k, residue, want in QK_CASES:
        alpha = s - 1 - 1 / (2 ** (k - s + 1) + residue)
        ops.append(cli_op(zl, f"qk-{s}-{k}-{rat(residue)}",
                          ["bounds", "--s", str(s), "--k", str(k), "--qk", rat(alpha)], 1,
                          qk_check(alpha, want)))
    for which, s, a, b in CONSTRUCT_CASES:
        argv = ["construct", which, "--s", str(s)]
        if which == "theorem6":
            argv += ["--l", str(a), "--m", str(b)]
        else:
            argv += ["--k", str(a)] + (["--a1", str(b[0]), "--a2", str(b[1])] if b else [])
        ops.append(cli_op(zl, "construct-" + "-".join(argv[1:]), argv, 1,
                          construct_check(which, s, a, b)))
    # the last two walk 10^5 vertex subsets each, a steady share of the round
    for name, g, alpha, cap in (("w8", w8.h, w8.alpha, 9), ("w8_worse", w8_worse, w8.alpha, 9),
                                ("w8_worse", w8_worse, w8.alpha, 3), ("w85", w85.h, w85.alpha, 7),
                                ("g6", w6.g, w6.alpha, 6)):
        ops.append(call_op(f"omega-{name}-{cap}",
                           lambda g=g, alpha=alpha, cap=cap:
                           zl.constructions.omega_tilde_check(g, alpha, cap),
                           omega_check(graphs[name], alpha, cap)))
    return ops


def game_check(graphs, a: str, b: str, rounds: int, relabelled: bool):
    def check(text, outs):
        rep = json.loads(text)
        require(rep["rounds"] == rounds, "game: rounds echo")
        if relabelled:
            require(rep["winner"] == "duplicator",
                    f"game {a}/{b}: Spoiler beats a relabelled copy")
        want = "duplicator" if orc.duplicator_wins(graphs[a], graphs[b], rounds) else "spoiler"
        require(rep["winner"] == want,
                f"game {a}/{b}: {rep['winner']} wins, the oracle says {want}")
        swapped = outs.get(f"game-{b}-{a}")
        if swapped is not None:
            require(json.loads(swapped)["winner"] == rep["winner"],
                    f"game {a}/{b}: swapping the sides changes the winner")
        if rep["winner"] == "duplicator":
            require("formula" not in rep, "game: formula reported for a Duplicator win")
            return
        f = orc.parse_formula(rep["formula"])
        require(rep["formula_verified"] is True, "game: formula not verified by zolab")
        require(orc.depth(f) <= rounds, f"game {a}/{b}: formula deeper than {rounds}")
        require(orc.holds(f, *graphs[a]) and not orc.holds(f, *graphs[b]),
                f"game {a}/{b}: formula does not separate the structures")
    return check


def balance_check(graph):
    verts, edges = graph

    def check(text, outs):
        rep = json.loads(text)
        best, _ = orc.max_density(verts, edges)
        require(frac(rep["density"]) == F(len(edges), len(verts)), "balance: density")
        require(frac(rep["max_density"]) == best, "balance: max density differs from max-flow")
        require(rep["strictly_balanced"] == orc.strictly_balanced(verts, edges),
                "balance: strict balance")
        wit = set(rep["witness_vertices"])
        require(wit <= verts and F(sum(1 for e in edges if e <= wit), len(wit)) == best,
                "balance: witness does not attain the max density")
    return check


def classify_check(outer, inner, alpha):
    def check(text, outs):
        rep = json.loads(text)
        require(rep["class"] == orc.classify_pair(*outer, *inner, alpha),
                f"classify-pair: {rep['class']} at alpha {alpha}")
        v_rel, e_rel = len(outer[0]) - len(inner[0]), len(outer[1]) - len(inner[1])
        require(frac(rep["f_alpha"]) == v_rel - alpha * e_rel, "classify-pair: f_alpha")
        require(frac(rep["alpha"]) == alpha, "classify-pair: alpha echo")
    return check


def cyclic_check(outer, inner, m: int, kind, k: int):
    def check(text, outs):
        match = json.loads(text)["match"]
        if kind is None:
            require(match is None, f"cyclic: unexpected {match and match['kind']} match")
            return
        require(match is not None and match["kind"] == kind and match["k"] == k,
                f"cyclic: expected {kind} with k={k}, got {match}")
        new_edges = {frozenset(e) for e in outer[1]} - {frozenset(e) for e in inner[1]}
        require({frozenset(e) for e in match["edges"]} == new_edges, "cyclic: template edges")
        require(set(match["contacts"]) <= inner[0], "cyclic: contacts outside the base")
        require(orc.max_density(*outer)[0] < F(m, m * 2 - 1), "cyclic: density side condition")
    return check


def decompose_check(graph, root: int, m: int, length):
    verts, edges = graph

    def check(text, outs):
        chain = json.loads(text)["decomposition"]
        if length is None:
            require(chain is None, "decompose: chain found in an acyclic hypergraph")
            return
        require(chain is not None and len(chain) == length, f"decompose: chain length != {length}")
        require(chain[0] == {"vertices": [root], "edges": []}, "decompose: chain start")
        require(set(chain[-1]["vertices"]) == verts, "decompose: chain misses vertices")
        bound = F(m, m * 2 - 1)
        prev_v, prev_e = set(), set()
        for step in chain:
            sv, se = set(step["vertices"]), {frozenset(e) for e in step["edges"]}
            require(sv > prev_v and se >= prev_e and se <= set(edges),
                    "decompose: steps do not grow inside the graph")
            if se:
                require(orc.max_density(sv, se)[0] < bound, "decompose: step too dense")
            prev_v, prev_e = sv, se
    return check


def bounds_check(s: int, k: int):
    def check(text, outs):
        rows = json.loads(text)["rows"]
        got = {r["theorem"]: F(r["value_num"], r["value_den"]) for r in rows}
        require(got == orc.bound_rows(s, k), f"bounds ({s},{k}): rows differ from closed forms")
        require(all(r["params"] == {"s": s, "k": k} for r in rows), "bounds: params echo")
    return check


def candidates_check(s: int, k: int):
    def check(text, outs):
        got = tuple(frac(c) for c in json.loads(text)["max_candidates"])
        require(got == orc.max_candidates(s, k), f"max candidates ({s},{k})")
    return check


def qk_check(alpha: Fraction, want: bool):
    def check(text, outs):
        rep = json.loads(text)
        require(frac(rep["alpha"]) == alpha and rep["in_qk"] is want, f"qk membership of {alpha}")
    return check


def construct_check(which: str, s: int, p1: int, p2):
    """theorem6: p1 = l, p2 = m; theorem8: p1 = k, p2 = the (a1, a2) split or None."""
    def check(text, outs):
        rep = json.loads(text)
        _, verts, edges = orc.read_shg(rep["shg"])
        rho = F(len(edges), len(verts))
        if which == "theorem6":
            t, m = 2 ** p1, p2
            alpha = s - 1 - F(1, t) + F(1, t * m)
            v_h, e_h = 2 + 2 * m * (t * (s - 1) - 1), 2 * m * t
            require(rep["h"] == {"vertices": v_h, "edges": e_h,
                                 "density": {"num": (F(e_h, v_h)).numerator,
                                             "den": (F(e_h, v_h)).denominator}},
                    "construct theorem6: inner graph size")
            require(frac(rep["pair_density"]) == 1 / alpha == F(e_h, v_h),
                    "construct theorem6: density identity")
            require(len(verts) == v_h + 1 + m * (t * (s - 1) - 1) and len(edges) == e_h + m * t,
                    "construct theorem6: outer graph size")
            require(len(rep["midpoints"]) == 2 * m and rep["hub"] == v_h + 1,
                    "construct theorem6: midpoints and hub")
        else:
            a_par = 1 if p2 is None else p2[0] + p2[1] - 3
            e = 2 ** (p1 - s + 1) + a_par
            alpha = s - 1 - F(1, e)
            require(rep["a"] == a_par and len(edges) == e and len(verts) == e * (s - 1) - 1,
                    "construct theorem8: witness size")
            require(frac(rep["h"]["density"]) == rho == 1 / alpha, "construct theorem8: density")
        require(frac(rep["alpha"]) == alpha, f"construct {which}: alpha")
        require(orc.max_density(verts, edges)[0] == 1 / alpha,
                f"construct {which}: densest sub-hypergraph is not at 1/alpha")
    return check


def omega_check(graph, alpha: Fraction, cap: int):
    verts, edges = graph

    def check(text, outs):
        best, witness = orc.max_density(verts, edges)
        if best <= 1 / alpha:
            want = True
        elif len(witness) <= cap:
            want = False
        else:  # small caps only: every vertex set of at most `cap` vertices
            covered = sorted({v for e in edges for v in e})
            want = not any(F(sum(1 for e in edges if e <= set(sub)), r) > 1 / alpha
                           for r in range(1, min(cap, 4) + 1)
                           for sub in itertools.combinations(covered, r))
            require(cap <= 4, "omega: case outside what the oracle decides")
        require(json.loads(text) is want, f"omega_tilde_check: expected {want}")
    return check


WORKLOADS = {"threshold_probe": threshold_probe, "copy_census": copy_census,
             "fo_scan": fo_scan, "exact_lab": exact_lab}
