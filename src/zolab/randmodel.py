"""Sampling of G^s(n, p) and the Monte Carlo experiments built on it.

Randomness policy
-----------------
Each trial derives a 64-bit key from (master seed, trial index) by splitmix64,
so trials are independent and parallelizable without a shared generator:

    key(seed, t) = sm64(sm64(seed) + t * 0x9E3779B97F4A7C15 mod 2^64)

Edges are indexed by the colexicographic rank of their vertex set.  For small
instances (at most ``EXACT_RANK_LIMIT`` candidate edges) every rank r gets its
own uniform

    u_r = sm64(key xor ((r + 1) * 0x9E3779B97F4A7C15 mod 2^64)) >> 11  /  2^53

and the edge is present iff u_r < p.  The uniforms do not depend on p, so
exact-sampler hosts at several p for one seed and trial are coupled: each
host's edge set contains those at every smaller p.  Above the limit a
geometric-skip walk over the ranks is used instead, driven by a Mersenne
stream seeded with the same key (one jump per present edge).

When p comes from a rational alpha, p = exp(-alpha ln n) is evaluated with
50-digit Decimal arithmetic and rounded once to a float for the 53-bit
comparison.
"""
from __future__ import annotations

import itertools
import math
import random
import time
from collections import Counter
from dataclasses import dataclass, field
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .errors import CapacityError, ExperimentError, VerificationError
from .extlab import count_uncovered_copies, is_pair_strictly_balanced, prop1_poisson_parameter
from .folang import Formula, evaluate
from .folang import compile as compile_formula
from .hypercore import Hypergraph, RootedPair, automorphism_count, count_copies, density
from .hypercore import DEFAULT_ENUM_CAP, has_copy, is_strictly_balanced

EXACT_RANK_LIMIT = 2000
CANDIDATE_EDGE_LIMIT = 1 << 22  # most edges a draw builds at p = 1, or expects at p < 1
POOL_AT = 5  # pooled_tv_distance pools each count's tail at >= POOL_AT
POOLED_MOTIF_CAP = 8  # poisson_fit's motifs: pooled_tv_distance walks (POOL_AT + 1)^k cells
_MASK = (1 << 64) - 1
_GOLD = 0x9E3779B97F4A7C15


def _sm64(x: int) -> int:
    x &= _MASK
    x = (x + _GOLD) & _MASK
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def trial_key(seed: int, trial_index: int) -> int:
    return _sm64((_sm64(seed) + trial_index * _GOLD) & _MASK)


def _sm64_np(x: np.ndarray) -> np.ndarray:
    z = (x + np.uint64(_GOLD)).astype(np.uint64)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def subset_uniforms(key: int, lo: int, hi: int) -> np.ndarray:
    """Per-rank uniforms u_r for ranks lo..hi-1 under the given trial key."""
    r = np.arange(lo, hi, dtype=np.uint64)
    mixed = np.uint64(key) ^ ((r + np.uint64(1)) * np.uint64(_GOLD))
    return (_sm64_np(mixed) >> np.uint64(11)) * np.float64(2.0 ** -53)


@dataclass(frozen=True)
class ExperimentConfig:
    """Shared knobs of all sampling experiments; exactly one of alpha or p.

    property_spec is a free-form echo of the probed property (formula text or
    motif file name); it never influences sampling.
    """

    s: int
    n: int
    trials: int
    seed: int
    alpha: Fraction | None = None
    p: float | None = None
    property_spec: str | None = None

    def __post_init__(self) -> None:
        if (self.alpha is None) == (self.p is None):
            raise ValueError("specify exactly one of alpha or p")
        if self.p is not None and not 0.0 <= self.p <= 1.0:
            raise ValueError("p must lie in [0, 1]")
        if self.alpha is not None and self.alpha < 0:
            raise ValueError(f"alpha must be >= 0, got {self.alpha}")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")

    @cached_property
    def _sampling(self) -> tuple[float, int, frozenset[int]]:
        """p, the number of candidate edges and the vertex set 1..n: the
        per-config values that every trial's `sample` checks and shares."""
        return edge_probability(self), math.comb(self.n, self.s), frozenset(range(1, self.n + 1))

    @cached_property
    def _columns(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """The colex unranking columns, built on the first draw with an edge:
        a refused draw never pays for them.

        Column j, from s down to 1, is the table C(c, j) for c = 0..n-1 and
        the same table shifted up one place, so that the label c + 1 which
        `searchsorted` returns indexes C(c, j).  Both are int64 when every
        rank and entry fits, else arrays of Python ints: unranking stays
        exact on one code path.
        """
        m = self._sampling[1]
        tables = _comb_tables(self.n, self.s)
        dtype = np.int64 if max(itertools.chain([m], *tables)) < 1 << 63 else object
        columns = []
        for t in reversed(tables):
            tab = np.array(t, dtype=dtype)
            columns.append((tab, np.concatenate([tab[:1], tab])))
        return columns

    def to_dict(self) -> dict:
        # "auto": the exact sampler iff C(n, s) <= EXACT_RANK_LIMIT
        d = {"s": self.s, "n": self.n, "trials": self.trials, "seed": self.seed,
             "method": "auto"}
        if self.alpha is not None:
            d["alpha"] = f"{self.alpha.numerator}/{self.alpha.denominator}"
        else:
            d["p"] = self.p
        if self.property_spec is not None:
            d["property"] = self.property_spec
        return d


def edge_probability(cfg: ExperimentConfig) -> float:
    if cfg.p is not None:
        return cfg.p
    with localcontext() as ctx:
        ctx.prec = 50
        a = Decimal(cfg.alpha.numerator) / Decimal(cfg.alpha.denominator)
        return float((-a * Decimal(cfg.n).ln()).exp())


# --- colexicographic (un)ranking of s-subsets ------------------------------

def _comb_tables(n: int, s: int) -> list[list[int]]:
    """tables[j][c] = C(c, j+1) for c in 0..n-1, used for colex unranking."""
    return [[math.comb(c, j) for c in range(n)] for j in range(1, s + 1)]


def _included_ranks_exact(key: int, m: int, p: float) -> np.ndarray:
    return np.concatenate([np.flatnonzero(subset_uniforms(key, lo, min(lo + (1 << 20), m)) < p)
                           + lo for lo in range(0, m, 1 << 20)])


def _included_ranks_skip(key: int, m: int, p: float) -> list[int]:
    rng = random.Random(key)
    log_q = math.log1p(-p)
    out: list[int] = []
    r = -1
    while True:
        u = 1.0 - rng.random()  # in (0, 1]
        r += 1 + int(math.log(u) / log_q)
        if r >= m:
            return out
        out.append(r)


def _host(cfg: ExperimentConfig, ranks: Sequence[int]) -> Hypergraph:
    """The host on 1..n whose edges are the s-subsets of the given colex ranks.

    All ranks are unranked together, one vertex column at a time from the
    largest.  The host keeps the rows: its edge set is built on first read,
    and its matcher index straight from the rows.
    """
    vertices = cfg._sampling[2]
    if len(ranks) == 0:  # most hosts of a sparse config: skip the numpy calls
        return Hypergraph._from_rows(cfg.s, vertices, np.empty((0, cfg.s), dtype=np.intp))
    columns = cfg._columns
    r = np.asarray(ranks, dtype=columns[0][0].dtype)
    labels = []
    for tab, shifted in columns:
        c = tab.searchsorted(r, side="right")
        labels.append(c)
        r = r - shifted[c]
    rows = np.array(labels[::-1]).T  # each edge's labels, ascending
    return Hypergraph._from_rows(cfg.s, vertices, rows)


def _check_order(cfg: ExperimentConfig) -> None:
    if cfg.n < cfg.s:
        raise ValueError(f"need n >= s, got n={cfg.n}, s={cfg.s}")


def sample(cfg: ExperimentConfig, trial_index: int) -> Hypergraph:
    """One draw of G^s(n, p): every s-subset is an edge independently with
    probability p; deterministic in (seed, trial_index, cfg).  A draw of
    more than CANDIDATE_EDGE_LIMIT edges, or more expected, is refused."""
    _check_order(cfg)
    p, m, _ = cfg._sampling
    if p <= 0.0:
        ranks: Sequence[int] = ()
    elif p >= 1.0:
        if m > CANDIDATE_EDGE_LIMIT:
            raise ExperimentError(
                f"p >= 1 would build all C({cfg.n}, {cfg.s}) = {m} candidate edges, "
                f"over the limit {CANDIDATE_EDGE_LIMIT}")
        ranks = range(m)
    elif p > CANDIDATE_EDGE_LIMIT / m:  # m * p overflows a float for large C(n, s)
        raise ExperimentError(
            f"p = {p} would draw an expected {Decimal(m) * Decimal(p):.3e} of the "
            f"C({cfg.n}, {cfg.s}) candidate edges, over the limit {CANDIDATE_EDGE_LIMIT}")
    else:
        ranks = (_included_ranks_exact if m <= EXACT_RANK_LIMIT
                 else _included_ranks_skip)(trial_key(cfg.seed, trial_index), m, p)
    return _host(cfg, ranks)


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """The Wilson score interval at 95%."""
    z = 1.959964  # the two-sided 95% standard normal quantile
    if trials == 0:
        return (0.0, 1.0)
    phat = successes / trials
    denom = 1 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1 - phat) / trials + z * z / (4 * trials * trials)) / denom
    return (max(0.0, center - half), min(1.0, center + half))


@dataclass
class ExperimentReport:
    kind: str
    config: dict
    estimates: dict = field(default_factory=dict)
    intervals: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)
    histogram: dict | None = None
    tv_distance: float | None = None
    correlations: dict | None = None
    flags: list | None = None
    grid: list | None = None
    extra: dict = field(default_factory=dict)
    wall_time_s: float = 0.0

    def __post_init__(self) -> None:
        for v in self.estimates.values():
            if not 0.0 <= v <= 1.0:
                raise ValueError("estimates must lie in [0, 1]")
        if self.histogram is not None and "trials" in self.counts:
            if sum(self.histogram.values()) != self.counts["trials"]:
                raise ValueError("histogram mass must equal the trial count")

    def to_dict(self) -> dict:
        out = {"schema": 1, "kind": self.kind, "config": self.config,
               "wall_time_s": self.wall_time_s}
        for name in ("estimates", "intervals", "counts", "histogram",
                     "tv_distance", "correlations", "flags", "grid", "extra"):
            val = getattr(self, name)
            if val not in (None, {}, []):
                out[name] = _jsonable(val)
        return out


def _jsonable(val):
    if isinstance(val, dict):
        return {(",".join(map(str, k)) if isinstance(k, tuple) else str(k)): _jsonable(v)
                for k, v in val.items()}
    if isinstance(val, (list, tuple)):
        return [_jsonable(v) for v in val]
    if isinstance(val, Fraction):
        return {"num": val.numerator, "den": val.denominator}
    return val


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------

def _outcomes(cfg: ExperimentConfig, statistic: Callable[[Hypergraph], object]) -> list:
    """statistic(sample(cfg, i)) for every trial i: the one trial loop of the
    experiments.  An error in trial i, drawing the host or checking it, names
    the trial and the config.  Capacity and verification errors keep their
    class, so their exit codes hold; any other error becomes an
    ExperimentError."""
    out = []
    for i in range(cfg.trials):
        try:
            out.append(statistic(sample(cfg, i)))
        except Exception as exc:
            config = ", ".join(f"{k}={v}" for k, v in cfg.to_dict().items())
            kept = isinstance(exc, (CapacityError, VerificationError))
            cls = type(exc) if kept else ExperimentError
            raise cls(f"trial {i} of {{{config}}}: {exc}") from exc
    return out


def estimate_probability(cfg: ExperimentConfig,
                         predicate: Callable[[Hypergraph], bool]) -> ExperimentReport:
    """Fraction of trials whose sample satisfies the predicate, with a Wilson
    95% interval."""
    t0 = time.perf_counter()
    hits = sum(_outcomes(cfg, lambda g: bool(predicate(g))))
    est = hits / cfg.trials
    return ExperimentReport(
        kind="estimate_probability", config=cfg.to_dict(),
        estimates={"probability": est},
        intervals={"probability": wilson_interval(hits, cfg.trials)},
        counts={"successes": hits, "trials": cfg.trials},
        extra={"p": cfg._sampling[0]},
        wall_time_s=time.perf_counter() - t0)


def _poisson_pmf_pooled(lam: float) -> list[float]:
    masses = [math.exp(-lam) * lam ** j / math.factorial(j) for j in range(POOL_AT)]
    return masses + [max(0.0, 1.0 - sum(masses))]


def pooled_tv_distance(counts: dict, lams: Sequence[float], trials: int) -> float:
    """Total-variation distance between the empirical joint histogram and the
    product of Poisson laws, with per-coordinate tails pooled at >= POOL_AT."""
    dims = len(lams)
    pooled: dict[tuple[int, ...], int] = {}
    for key, c in counts.items():
        cell = tuple(min(int(x), POOL_AT) for x in key)
        pooled[cell] = pooled.get(cell, 0) + c
    pmfs = [_poisson_pmf_pooled(lam) for lam in lams]
    tv = 0.0
    for cell in itertools.product(range(POOL_AT + 1), repeat=dims):
        theory = math.prod(pmfs[d][cell[d]] for d in range(dims))
        emp = pooled.get(cell, 0) / trials
        tv += abs(emp - theory)
    return 0.5 * tv


def poisson_fit(cfg: ExperimentConfig, motifs: Sequence[Hypergraph]) -> ExperimentReport:
    """Joint copy-count histogram at the common threshold p = n^(-1/rho) and
    its distance to the product of the limiting Poisson laws.

    Preconditions: every motif strictly balanced, all densities equal; the
    config must carry alpha = 1/rho.
    """
    if not motifs:
        raise ValueError("need at least one motif")
    if len(motifs) > POOLED_MOTIF_CAP:
        raise CapacityError(f"{len(motifs)} motifs exceed the cap of {POOLED_MOTIF_CAP}")
    rhos = {density(mg) for mg in motifs}
    if len(rhos) != 1:
        raise ValueError(f"motif densities differ: {sorted(rhos)}")
    if not (rho := rhos.pop()):
        raise ValueError("the motifs have density 0: no threshold p = n^(-1/rho)")
    for mg in motifs:
        if not is_strictly_balanced(mg):
            raise ValueError("every motif must be strictly balanced")
    if cfg.alpha != 1 / rho:
        raise ValueError(f"config alpha {cfg.alpha} != 1/rho = {1 / rho}")

    t0 = time.perf_counter()
    auts = [automorphism_count(mg) for mg in motifs]
    lams = [1.0 / a for a in auts]
    counts = _outcomes(cfg, lambda g: tuple(count_copies(mg, g) for mg in motifs))
    hist = Counter(counts)
    per_motif = list(zip(*counts))
    tv = pooled_tv_distance(hist, lams, cfg.trials)
    corr = {}
    for i, j in itertools.combinations(range(len(motifs)), 2):
        corr[f"{i},{j}"] = _pearson(per_motif[i], per_motif[j])
    return ExperimentReport(
        kind="poisson_fit", config=cfg.to_dict(),
        histogram=hist, tv_distance=tv,
        correlations=corr or None,
        counts={"trials": cfg.trials},
        extra={"automorphisms": auts, "rates": lams,
               "p": cfg._sampling[0]},
        wall_time_s=time.perf_counter() - t0)


def _pearson(xs: Sequence[int], ys: Sequence[int]) -> float:
    n = len(xs)
    mx, my = sum(xs) / n, sum(ys) / n
    sx = math.sqrt(sum((x - mx) ** 2 for x in xs))
    sy = math.sqrt(sum((y - my) ** 2 for y in ys))
    if sx == 0.0 or sy == 0.0:
        return 0.0
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / (sx * sy)


def prop1_experiment(pair: RootedPair, cfg: ExperimentConfig,
                     cap: int = DEFAULT_ENUM_CAP) -> ExperimentReport:
    """Histogram of uncovered inner-copy counts against the limiting Poisson law.

    Verifies first that the inner graph and the pair are strictly balanced and
    that rho(H) = rho(G,H) = 1/alpha.  `cap` bounds the two searches: the
    automorphism groups behind the Poisson rate and the uncovered-copy count."""
    h, g = pair.inner, pair.outer
    if not is_strictly_balanced(h):
        raise ValueError("inner graph is not strictly balanced")
    if not is_pair_strictly_balanced(pair):
        raise ValueError("the pair is not strictly balanced")
    if not (rho := density(h)):
        raise ValueError("the inner graph has density 0: no threshold p = n^(-1/rho)")
    if pair.rel_density() != rho:
        raise ValueError(
            f"density identity fails: rho(H) = {rho}, rho(G,H) = {pair.rel_density()}")
    if cfg.alpha is None or cfg.alpha != 1 / rho:
        raise ValueError(f"config alpha must equal 1/rho = {1 / rho}")

    t0 = time.perf_counter()
    param = prop1_poisson_parameter(pair, cap=cap)
    lam = param.rate()
    hist = Counter(_outcomes(cfg, lambda host: count_uncovered_copies(h, g, host, cap=cap)))
    tv = pooled_tv_distance({(k,): v for k, v in hist.items()}, [lam], cfg.trials)
    return ExperimentReport(
        kind="prop1", config=cfg.to_dict(),
        histogram=hist, tv_distance=tv,
        counts={"trials": cfg.trials},
        extra={"a": param.a, "a1": param.a1, "a2": param.a2, "rate": lam,
               "p": cfg._sampling[0]},
        wall_time_s=time.perf_counter() - t0)


def spectrum_probe(predicate: Callable[[Hypergraph], bool], s: int,
                   alpha_grid: Sequence[Fraction], n_grid: Sequence[int],
                   trials: int, seed: int) -> ExperimentReport:
    """Estimate matrix over (alpha, n); rows whose estimates stay inside
    [0.2, 0.8] for every n are flagged as non-convergence candidates."""
    t0 = time.perf_counter()
    grid = []
    flags = []
    for alpha in alpha_grid:
        row = []
        for n in n_grid:
            cfg = ExperimentConfig(s=s, n=n, trials=trials, seed=seed, alpha=alpha)
            rep = estimate_probability(cfg, predicate)
            est = rep.estimates["probability"]
            lo, hi = rep.intervals["probability"]
            row.append({"alpha": f"{alpha.numerator}/{alpha.denominator}",
                        "n": n, "estimate": est, "lo": lo, "hi": hi})
        if all(0.2 <= cell["estimate"] <= 0.8 for cell in row):
            flags.append(f"{alpha.numerator}/{alpha.denominator}")
        grid.extend(row)
    return ExperimentReport(
        kind="spectrum_probe",
        config={"s": s, "trials": trials, "seed": seed,
                "alpha_grid": [f"{a.numerator}/{a.denominator}" for a in alpha_grid],
                "n_grid": list(n_grid)},
        grid=grid, flags=flags,
        wall_time_s=time.perf_counter() - t0)


def probe_csv(report: ExperimentReport) -> str:
    lines = ["alpha,n,estimate,lo,hi,flagged"]
    flagged = set(report.flags or [])
    for cell in report.grid or []:
        lines.append(
            f"{cell['alpha']},{cell['n']},{cell['estimate']:.6f},"
            f"{cell['lo']:.6f},{cell['hi']:.6f},{int(cell['alpha'] in flagged)}")
    return "\n".join(lines) + "\n"


# --- standard predicates -----------------------------------------------------

def motif_predicate(motif: Hypergraph) -> Callable[[Hypergraph], bool]:
    def pred(g: Hypergraph) -> bool:
        return has_copy(motif, g)
    return pred


def formula_predicate(formula: Formula) -> Callable[[Hypergraph], bool]:
    """The closed formula's truth on a host; a free variable is a ValueError."""
    compiled = compile_formula(formula)
    if compiled.free:
        raise ValueError(f"a property formula must be closed: free {sorted(compiled.free)}")

    def pred(g: Hypergraph) -> bool:
        return evaluate(compiled, g)
    return pred
