import dataclasses
import decimal
import hashlib
import itertools
import math
import pickle
import re
import statistics
import time
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (_unrank, brute_automorphism_count, brute_embedding_count, exact_probability,
                     reference_bits, sample_bernoulli, sample_with, table_evaluate)
from zolab import randmodel
from zolab.errors import CapacityError, ExperimentError
from zolab.folang import parse
from zolab.hypercore import Hypergraph, copy_images, count_copies, has_copy, to_shg
from zolab.randmodel import (
    CANDIDATE_EDGE_LIMIT,
    EXACT_RANK_LIMIT,
    ExperimentConfig,
    edge_probability,
    estimate_probability,
    motif_predicate,
    poisson_fit,
    pooled_tv_distance,
    sample,
    spectrum_probe,
    wilson_interval,
)

F = Fraction
H1 = Hypergraph.make(3, range(1, 5), [(1, 2, 3), (3, 4, 1)])
H2 = Hypergraph.make(3, range(1, 7), [(1, 2, 3), (3, 4, 5), (5, 6, 1)])


def _coupled(cfg, trial, ps):
    """The exact sampler's hosts at each p of `ps` for cfg's seed and one trial:
    they share the per-rank uniforms, so they are coupled across p."""
    return [sample(dataclasses.replace(cfg, p=p, alpha=None), trial) for p in ps]


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(s=3, n=10, trials=5, seed=0)
    with pytest.raises(ValueError):
        ExperimentConfig(s=3, n=10, trials=5, seed=0, alpha=F(1), p=0.5)
    with pytest.raises(ValueError):
        ExperimentConfig(s=3, n=10, trials=0, seed=0, p=0.5)
    with pytest.raises(ValueError):
        ExperimentConfig(s=3, n=10, trials=5, seed=0, p=1.5)


def test_sample_edge_cases():
    assert sample(ExperimentConfig(s=3, n=6, trials=1, seed=1, p=0.0), 0).num_edges == 0
    full = sample(ExperimentConfig(s=3, n=6, trials=1, seed=1, p=1.0), 0)
    assert full.num_edges == math.comb(6, 3)
    with pytest.raises(ValueError):
        sample(ExperimentConfig(s=4, n=3, trials=1, seed=1, p=0.5), 0)
    # every sampler rejects n < s alike
    small = ExperimentConfig(s=3, n=2, trials=1, seed=1, p=0.5)
    for draw in (lambda: sample(small, 0), lambda: sample_bernoulli(small, 0)):
        with pytest.raises(ValueError, match="need n >= s, got n=2, s=3"):
            draw()
    # p = 1 walks every candidate edge, so it is capped
    assert math.comb(300, 3) > CANDIDATE_EDGE_LIMIT
    with pytest.raises(ExperimentError, match="candidate edges"):
        sample(ExperimentConfig(s=3, n=300, trials=1, seed=1, p=1.0), 0)


def test_negative_alpha_is_refused():
    # p = n^(-alpha) > 1 is no edge probability; alpha = 0 is p = 1
    with pytest.raises(ValueError, match="^alpha must be >= 0, got -1/2$"):
        ExperimentConfig(s=3, n=10, trials=5, seed=0, alpha=F(-1, 2))
    assert edge_probability(ExperimentConfig(s=3, n=10, trials=5, seed=0, alpha=F(0))) == 1.0


def test_every_draw_is_bounded(monkeypatch):
    # a draw at p < 1 is refused when it expects more edges than the limit,
    # by either sampler: C(20, 3) = 1140 ranks are drawn exactly, C(30, 3)
    # = 4060 by the skip walk
    monkeypatch.setattr(randmodel, "CANDIDATE_EDGE_LIMIT", 100)
    for n, p, expected, under in ((20, 0.1, "1.140e+2", 0.08), (30, 0.05, "2.030e+2", 0.02)):
        cfg = ExperimentConfig(s=3, n=n, trials=1, seed=1, p=p)
        with pytest.raises(ExperimentError, match="^" + re.escape(
                f"p = {p} would draw an expected {expected} of the C({n}, 3) candidate "
                "edges, over the limit 100") + "$"):
            sample(cfg, 0)
        assert sample(dataclasses.replace(cfg, p=under), 0).num_edges  # 91.2 and 81.2 expected
    # at p = 1 every candidate edge is built, under the same limit
    with pytest.raises(ExperimentError, match="^" + re.escape(
            "p >= 1 would build all C(20, 3) = 1140 candidate edges, over the limit 100") + "$"):
        sample(ExperimentConfig(s=3, n=20, trials=1, seed=1, p=1.0), 0)


def test_refused_draw_builds_no_unranking_tables():
    # the limit is checked before the colex columns are built: for C(6000, 100)
    # candidate edges those are 100 tables of 6000 big ints, about a second of CPU
    cfg = ExperimentConfig(s=100, n=6000, trials=1, seed=1, p=0.5)
    start = time.process_time()
    with pytest.raises(ExperimentError, match="over the limit"):
        sample(cfg, 0)
    assert time.process_time() - start < 0.2


def test_small_n_probabilities_against_exact_sums():
    # at n = 5 every host is listed: P(H1 in G) and P(every vertex lies in
    # an edge) at p = 0.3, summed over all 2^10 hosts by code that shares
    # nothing with the samplers, the matcher or the evaluator, against the
    # hit counts of the exact sampler (C(5, 3) = 10 ranks) and the skip walk
    covered = parse("forall x exists y exists z N(x,y,z)")
    props = {0.7729: lambda g: brute_embedding_count(H1, g) > 0,
             0.6458: lambda g: table_evaluate(covered, g)}
    cfg = ExperimentConfig(s=3, n=5, trials=400, seed=5, p=0.3)
    for value, holds in props.items():
        q = float(exact_probability(5, 3, 0.3, holds))
        assert round(q, 4) == value
        bound = 4 * math.sqrt(cfg.trials * q * (1 - q))  # 4 sigma of the hit count
        exact_hits = estimate_probability(cfg, holds).counts["successes"]
        skip_hits = sum(holds(sample_with("skip", cfg, i)) for i in range(cfg.trials))
        for hits in (exact_hits, skip_hits):
            assert abs(hits - cfg.trials * q) <= bound, (value, hits)


def test_sample_reproducible_and_trials_differ():
    cfg = ExperimentConfig(s=3, n=15, trials=4, seed=123, p=0.08)
    a = sample(cfg, 2)
    b = sample(cfg, 2)
    assert a == b and to_shg(a) == to_shg(b)
    assert any(sample(cfg, i) != a for i in (0, 1, 3))
    # different seeds decorrelate
    cfg2 = ExperimentConfig(s=3, n=15, trials=4, seed=124, p=0.08)
    assert sample(cfg2, 2) != a


def test_bernoulli_reference_identity_small():
    # identical output across the whole exact-policy regime: every n with
    # C(n, 3) <= 2000, one trial each, plus repeated trials at a few sizes
    for n in range(3, 24):
        if math.comb(n, 3) > EXACT_RANK_LIMIT:
            break
        cfg = ExperimentConfig(s=3, n=n, trials=1, seed=31 + n, p=0.11)
        assert sample(cfg, 0) == sample_bernoulli(cfg, 0)
    for n, p, seed in [(9, 0.2, 1), (12, 0.05, 7), (14, 0.5, 42)]:
        cfg = ExperimentConfig(s=3, n=n, trials=3, seed=seed, p=p)
        for t in range(3):
            assert sample(cfg, t) == sample_bernoulli(cfg, t)
    # s = 4 instance
    cfg4 = ExperimentConfig(s=4, n=10, trials=2, seed=5, p=0.15)
    for t in range(2):
        assert sample(cfg4, t) == sample_bernoulli(cfg4, t)


# SHA-256 over the hosts of `_pinned_hosts`, each as "s n sorted-edge-list"
PINNED_HOSTS_SHA256 = "e12e3e57ad04331f9d93d98f4ce635f2f019dcf087325d3d67615531667085f4"


def _pinned_hosts():
    for n in (10, 25, 200, 300):
        for alpha in (F(3, 2), F(2), F(5, 2)):
            cfg = ExperimentConfig(s=3, n=n, trials=5, seed=2024, alpha=alpha)
            for sampler in ("exact", "skip"):
                for t in range(5):
                    yield sample_with(sampler, cfg, t)
    for n in (5, 8):
        for p in (0.0, 1.0):
            yield sample(ExperimentConfig(s=3, n=n, trials=1, seed=3, p=p), 0)
    cfg = ExperimentConfig(s=3, n=20, trials=3, seed=99, p=0.1)
    for t in range(3):
        yield from _coupled(cfg, t, [0.03, 0.12])


def test_sampled_hosts_are_pinned():
    # both samplers, p = 0 and 1 and coupled draws give the same hosts as
    # the scalar colex unranking they replaced
    digest = hashlib.sha256()
    for g in _pinned_hosts():
        digest.update(f"{g.s} {g.num_vertices} {g.sorted_edges()}\n".encode())
    assert digest.hexdigest() == PINNED_HOSTS_SHA256


def test_ranks_beyond_int64_unrank_exactly():
    n, s, p = 500, 10, 1e-19
    m = math.comb(n, s)
    assert m >= 1 << 63  # the unranking tables hold Python ints
    cfg = ExperimentConfig(s=s, n=n, trials=3, seed=5, p=p)
    tables = randmodel._comb_tables(n, s)
    for t in range(3):
        ranks = randmodel._included_ranks_skip(randmodel.trial_key(5, t), m, p)
        assert ranks and max(ranks) >= 1 << 63
        want = sorted(tuple(v + 1 for v in _unrank(r, s, tables)) for r in ranks)
        assert sample(cfg, t).sorted_edges() == want


def _brute_copy_images(motif, host):
    mv = sorted(motif.vertices)
    out = set()
    for image in itertools.permutations(sorted(host.vertices), len(mv)):
        m = dict(zip(mv, image))
        es = frozenset(frozenset(m[v] for v in e) for e in motif.edges)
        if es <= host.edges:
            out.add((frozenset(image), es))
    return out


def _lazy_index_hosts():
    for s, n in ((3, 7), (3, 9), (4, 8)):
        yield from (sample(ExperimentConfig(s=s, n=n, trials=2, seed=11, p=0.0), t)
                    for t in range(2))
        for p in (0.02, 0.1, 0.3):
            cfg = ExperimentConfig(s=s, n=n, trials=2, seed=11, p=p)
            for sampler in ("exact", "skip"):
                yield from (sample_with(sampler, cfg, t) for t in range(2))
        yield from _coupled(ExperimentConfig(s=s, n=n, trials=1, seed=4, p=0.5), 0,
                            [0.05, 0.25])
    yield sample(ExperimentConfig(s=10, n=500, trials=1, seed=5, p=1e-19), 0)


def test_lazy_index_of_sampled_hosts():
    hosts = list(_lazy_index_hosts())
    h1 = Hypergraph.make(3, range(4), [range(3), range(1, 4)])
    for g in hosts:
        # sampling alone builds neither the edge set nor the index
        assert "edges" not in g.__dict__ and "_bits" not in g.__dict__
        copy = pickle.loads(pickle.dumps(g))  # before any read
        assert "edges" not in copy.__dict__ and copy.num_edges == len(g._rows)
        if g.s == 3:  # the copy searches read the index, never the edge set
            has_copy(h1, copy)
            count_copies(h1, copy)
            assert "edges" not in copy.__dict__
        generic = Hypergraph(g.s, g.vertices, g.edges)
        assert generic == g == copy and generic._rows is None
        assert dataclasses.replace(g)._rows is None  # a copy never inherits the rows
        assert g.num_edges == len(g.edges) == generic.num_edges == copy.num_edges
        # the same labels, neighbour masks, edge masks and degree masks
        assert g._bits == generic._bits == copy._bits == reference_bits(g)
        assert g._bits.labels == sorted(set().union(*g.edges))
    assert any(not g.edges for g in hosts)
    assert any(g.edges and len(set().union(*g.edges)) < g.num_vertices for g in hosts)
    for g in hosts:
        if g.s == 10:
            continue
        edge = Hypergraph.make(g.s, range(g.s), [range(g.s)])
        pair = Hypergraph.make(g.s, range(g.s + 1), [range(g.s), range(1, g.s + 1)])
        loose = Hypergraph.make(g.s, range(g.s + 1), [range(g.s)])  # one isolated vertex
        for motif in (edge, pair, loose):
            emb = brute_embedding_count(motif, g)
            assert has_copy(motif, g) == (emb > 0)
            assert count_copies(motif, g) == emb // brute_automorphism_count(motif)
            assert copy_images(motif, g) == _brute_copy_images(motif, g)


@pytest.mark.parametrize("bad, reason", [
    ((0, 2, 5), "outside the vertex set"),          # label 0
    ((2, 5, 9), "outside the vertex set"),          # label n + 1
    ((2, 2, 5), "not strictly ascending|has 2 vertices"),
    (None, "two edge rows are equal"),             # a row repeated
])
def test_bad_rows_raise_on_first_read(bad, reason):
    cfg = ExperimentConfig(s=3, n=8, trials=1, seed=3, p=0.2)
    rows = sample(cfg, 0)._rows
    assert len(rows) > 1
    rows = np.vstack([rows, rows[:1] if bad is None else [bad]])
    for attr in ("edges", "_bits"):
        g = Hypergraph._from_rows(cfg.s, frozenset(range(1, cfg.n + 1)), rows)
        with pytest.raises(ValueError, match=reason):
            getattr(g, attr)
        assert attr not in g.__dict__


def test_skip_sampler_mean_matches_binomial():
    cfg = ExperimentConfig(s=3, n=20, trials=200, seed=7, p=0.1)
    counts = [sample_with("skip", cfg, i).num_edges for i in range(200)]
    mean = statistics.mean(counts)
    m = math.comb(20, 3)
    sigma_mean = math.sqrt(m * 0.1 * 0.9) / math.sqrt(200)
    assert abs(mean - m * 0.1) < 4 * sigma_mean


def test_exact_sampler_mean_matches_binomial():
    cfg = ExperimentConfig(s=3, n=12, trials=300, seed=17, p=0.2)
    counts = [sample(cfg, i).num_edges for i in range(300)]
    m = math.comb(12, 3)
    sigma_mean = math.sqrt(m * 0.2 * 0.8) / math.sqrt(300)
    assert abs(statistics.mean(counts) - m * 0.2) < 4 * sigma_mean


def test_skip_sampler_chisquare():
    from scipy import stats
    cfg = ExperimentConfig(s=3, n=22, trials=1500, seed=99, p=0.08)
    m = math.comb(22, 3)
    counts = [sample_with("skip", cfg, i).num_edges for i in range(1500)]
    lo = min(counts)
    hi = max(counts)
    observed = [0] * (hi - lo + 1)
    for c in counts:
        observed[c - lo] += 1
    probs = [stats.binom.pmf(k, m, 0.08) for k in range(lo, hi + 1)]
    # pool sparse tails so every expected cell is >= 5
    obs_pool, prob_pool = [], []
    acc_o, acc_p = 0, 0.0
    for o, q in zip(observed, probs):
        acc_o += o
        acc_p += q
        if acc_p * 1500 >= 5:
            obs_pool.append(acc_o)
            prob_pool.append(acc_p)
            acc_o, acc_p = 0, 0.0
    obs_pool[-1] += acc_o
    prob_pool[-1] += acc_p
    tail = 1.0 - sum(prob_pool)
    prob_pool[-1] += tail
    chi = stats.chisquare(obs_pool, [p * 1500 for p in prob_pool])
    assert chi.pvalue > 0.001


def test_coupled_monotone():
    cfg = ExperimentConfig(s=3, n=10, trials=1, seed=3, p=0.5)
    for trial in range(5):
        gs = _coupled(cfg, trial, [0.02, 0.1, 0.4, 0.9])
        for a, b in zip(gs, gs[1:]):
            assert a.edges <= b.edges
    # coupling agrees with the exact sampler at the same p
    g_mid = _coupled(cfg, 0, [0.5])[0]
    assert g_mid == sample(cfg, 0)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(0, 2**64 - 1), st.integers(0, 10**6),
       st.lists(st.floats(0.0, 1.0), min_size=1, max_size=5).map(sorted))
def test_coupled_edge_sets_are_nested(seed, trial, ps):
    cfg = ExperimentConfig(s=3, n=8, trials=1, seed=seed, p=0.5)
    gs = _coupled(cfg, trial, ps)
    for a, b in zip(gs, gs[1:]):
        assert a.edges <= b.edges
    for p, g in zip(ps, gs):
        assert (p > 0.0 or not g.edges) and (p < 1.0 or g.num_edges == math.comb(8, 3))


def test_coupled_predicate_monotone():
    # the satisfied set of a containment predicate grows with p under coupling
    pred = motif_predicate(H1)
    cfg = ExperimentConfig(s=3, n=9, trials=1, seed=21, p=0.5)
    ps = [0.05, 0.15, 0.3, 0.6]
    satisfied = {p: set() for p in ps}
    for trial in range(40):
        for p, g in zip(ps, _coupled(cfg, trial, ps)):
            if pred(g):
                satisfied[p].add(trial)
    for a, b in zip(ps, ps[1:]):
        assert satisfied[a] <= satisfied[b]
    assert satisfied[ps[0]] != satisfied[ps[-1]]


def test_config_property_echo():
    cfg = ExperimentConfig(s=3, n=9, trials=1, seed=0, p=0.5,
                           property_spec="formula:exists x x = x")
    assert cfg.to_dict()["property"] == "formula:exists x x = x"


def test_edge_probability_decimal():
    cfg = ExperimentConfig(s=3, n=60, trials=1, seed=1, alpha=F(5, 2))
    assert edge_probability(cfg) == pytest.approx(60.0 ** -2.5, rel=1e-12)
    cfg2 = ExperimentConfig(s=3, n=100, trials=1, seed=1, alpha=F(3))
    assert edge_probability(cfg2) == pytest.approx(1e-6, rel=1e-12)


def test_edge_probability_leaves_decimal_context_alone():
    cfg = ExperimentConfig(s=3, n=60, trials=1, seed=1, alpha=F(5, 2))
    before = decimal.getcontext().prec
    p = edge_probability(cfg)
    assert decimal.getcontext().prec == before
    with decimal.localcontext() as ctx:
        ctx.prec = 10
        assert edge_probability(cfg) == p
        assert decimal.getcontext().prec == 10


def test_wilson_interval_sane():
    lo, hi = wilson_interval(0, 100)
    assert lo == 0.0 and 0 < hi < 0.06
    lo, hi = wilson_interval(100, 100)
    assert 0.94 < lo < 1 and hi == 1.0
    lo, hi = wilson_interval(50, 100)
    assert lo < 0.5 < hi


def test_per_config_sampling_work_is_done_once():
    # p's 50-digit logarithm and the unranking tables are per config, not per trial
    cfg = ExperimentConfig(s=3, n=30, trials=25, seed=5, alpha=Fraction(2))
    with mock.patch.object(randmodel, "_comb_tables", wraps=randmodel._comb_tables) as tables, \
            mock.patch.object(randmodel, "edge_probability",
                              wraps=randmodel.edge_probability) as prob:
        estimate_probability(cfg, lambda g: True)
    assert tables.call_count == 1
    assert prob.call_count == 1  # the report's `p` reads the shared value


def test_estimate_probability_reports():
    cfg = ExperimentConfig(s=3, n=8, trials=40, seed=5, p=0.2)
    rep = estimate_probability(cfg, lambda g: True)
    assert rep.estimates["probability"] == 1.0
    assert rep.counts == {"successes": 40, "trials": 40}
    lo, hi = rep.intervals["probability"]
    assert lo < 1.0 <= hi

    def boom(g):
        raise RuntimeError("nope")

    with pytest.raises(ExperimentError, match="trial 0"):
        estimate_probability(cfg, boom)


def test_trial_loop_errors_name_the_trial_and_config():
    from zolab.constructions import theorem6_pair
    from zolab.errors import CapacityError

    def over_cap_after_one(*args, **kwargs):
        calls.append(args)
        if len(calls) > 1:
            raise CapacityError("over the cap")
        return 0

    w = theorem6_pair(3, 1, 2)
    edge = Hypergraph.make(3, [1, 2, 3], [(1, 2, 3)])
    cfg = ExperimentConfig(s=3, n=12, trials=3, seed=2, alpha=w.alpha)
    want = r"^trial 1 of \{s=3, n=12, trials=3, seed=2, .*\}: over the cap$"
    calls = []
    with pytest.raises(CapacityError, match=want):
        estimate_probability(cfg, over_cap_after_one)
    edge_cfg = ExperimentConfig(s=3, n=12, trials=3, seed=2, alpha=Fraction(3))
    for target, run in (("count_copies", lambda: poisson_fit(edge_cfg, [edge])),
                        ("count_uncovered_copies",
                         lambda: randmodel.prop1_experiment(w.pair, cfg))):
        calls = []
        with mock.patch.object(randmodel, target, over_cap_after_one):
            with pytest.raises(CapacityError, match=want):
                run()
    # the sampler's own errors in a trial name the trial and the config too
    small = ExperimentConfig(s=3, n=2, trials=2, seed=1, p=0.5)
    full = ExperimentConfig(s=3, n=300, trials=2, seed=1, p=1.0)
    too_small = "need n >= s, got n=2, s=3"
    for run, n, error in (
            (lambda: estimate_probability(small, lambda g: True), 2, too_small),
            (lambda: poisson_fit(dataclasses.replace(small, p=None, alpha=F(3)), [edge]),
             2, too_small),
            (lambda: randmodel.prop1_experiment(
                w.pair, dataclasses.replace(small, p=None, alpha=w.alpha)), 2, too_small),
            (lambda: estimate_probability(full, lambda g: True), 300,
             "p >= 1 would build all C(300, 3) = 4455100 candidate edges")):
        want = rf"^trial 0 of \{{s=3, n={n}, trials=2, seed=1, .*\}}: " + re.escape(error)
        with pytest.raises(ExperimentError, match=want):
            run()


def test_recursion_limit_in_a_trial_is_a_capacity_error():
    # a check past the recursion limit, like a formula that compiles but nests
    # too deeply to run, is a capacity error that names the trial and the config
    def deep(g):
        return deep(g)

    cfg = ExperimentConfig(s=3, n=5, trials=1, seed=1, p=0.5)
    with pytest.raises(CapacityError, match=r"^trial 0 of \{s=3, n=5, trials=1, seed=1, .*\}: "
                                            "maximum recursion depth exceeded"):
        estimate_probability(cfg, deep)


def test_prop1_cap_reaches_only_its_searches():
    from zolab.constructions import theorem6_pair
    from zolab.errors import CapacityError
    w = theorem6_pair(3, 2, 2)  # v(H) = 30, past the default search cap
    cfg = ExperimentConfig(s=3, n=60, trials=1, seed=1, alpha=w.alpha)
    with mock.patch.object(randmodel, "prop1_poisson_parameter",
                           side_effect=RuntimeError("past the balance checks")):
        with pytest.raises(RuntimeError, match="past the balance checks"):
            randmodel.prop1_experiment(w.pair, cfg)
    # the automorphism search behind the Poisson rate is what refuses H
    with pytest.raises(CapacityError, match="^30 vertices exceeds the search cap 24$"):
        randmodel.prop1_experiment(w.pair, cfg)


def test_pooled_tv_distance_basics():
    # empirical mass exactly at the Poisson pmf pooled cells gives ~0
    lam = 0.3
    trials = 100000
    counts = {}
    for j in range(6):
        mass = math.exp(-lam) * lam ** j / math.factorial(j)
        counts[(j,)] = round(mass * trials)
    tv = pooled_tv_distance(counts, [lam], sum(counts.values()))
    assert tv < 0.01
    # all-zero histogram vs Pois(lam): TV = 1 - exp(-lam)
    tv0 = pooled_tv_distance({(0,): 1000}, [lam], 1000)
    assert tv0 == pytest.approx(1 - math.exp(-lam), abs=1e-9)


def test_poisson_fit_preconditions():
    cfg = ExperimentConfig(s=3, n=30, trials=5, seed=1, alpha=F(2))
    unbalanced = Hypergraph.make(3, range(1, 7), [(1, 2, 3), (4, 5, 6)])
    with pytest.raises(ValueError):
        poisson_fit(cfg, [unbalanced])
    edge = Hypergraph.make(3, [1, 2, 3], [(1, 2, 3)])
    with pytest.raises(ValueError):
        poisson_fit(cfg, [edge, H1])  # densities differ
    with pytest.raises(ValueError):
        poisson_fit(ExperimentConfig(s=3, n=30, trials=5, seed=1, alpha=F(3, 2)),
                    [H1])  # alpha != 1/rho
    with pytest.raises(ValueError, match="1/rho = 3"):
        poisson_fit(ExperimentConfig(s=3, n=30, trials=5, seed=1, p=0.3), [edge])  # p, not alpha
    rep = poisson_fit(ExperimentConfig(s=3, n=30, trials=5, seed=1, alpha=F(3)), [edge])
    assert sum(rep.histogram.values()) == 5
    # one bare vertex is strictly balanced, but density 0 has no threshold
    with pytest.raises(ValueError, match="density 0"):
        poisson_fit(cfg, [Hypergraph.make(3, [1], [])])


def test_poisson_fit_caps_its_motif_count(monkeypatch):
    # the pooled histogram has 6^k cells for k motifs: nine are refused
    # before the first trial, eight still reach the sampler
    def no_sample(cfg, i):
        raise RuntimeError("sampled")

    monkeypatch.setattr(randmodel, "sample", no_sample)
    cfg = ExperimentConfig(s=3, n=30, trials=2, seed=1, alpha=F(3))
    edge = Hypergraph.make(3, [1, 2, 3], [(1, 2, 3)])
    with pytest.raises(CapacityError, match="^9 motifs exceed the cap of 8"):
        poisson_fit(cfg, [edge] * 9)
    with pytest.raises(ExperimentError, match="sampled$"):
        poisson_fit(cfg, [edge] * 8)


def test_probe_interior_estimate_at_critical_alpha():
    # containment of the two-circuit witness at its own critical exponent stays
    # away from both 0 and 1 at desk-scale n
    from zolab.constructions import theorem8_witnesses
    w8 = theorem8_witnesses(3, 4)
    pred = motif_predicate(w8.h)
    for n in (80, 120):
        cfg = ExperimentConfig(s=3, n=n, trials=300, seed=2, alpha=w8.alpha)
        est = estimate_probability(cfg, pred).estimates["probability"]
        assert 0.02 < est < 0.98


def test_probe_monotone_threshold_crossing():
    rep = spectrum_probe(motif_predicate(H1), 3,
                         [F(5, 4), F(7, 4), F(9, 4), F(11, 4)], [50],
                         trials=60, seed=3)
    ests = [c["estimate"] for c in rep.grid]
    assert ests[0] > 0.9 and ests[-1] < 0.1
    assert all(a >= b for a, b in zip(ests, ests[1:]))


def test_spectrum_probe_shapes():
    # containment of H1 flips between alpha = 3/2 and alpha = 5/2
    rep = spectrum_probe(motif_predicate(H1), 3,
                         [F(3, 2), F(5, 2)], [40], trials=40, seed=9)
    assert len(rep.grid) == 2
    ests = {(c["alpha"], c["n"]): c["estimate"] for c in rep.grid}
    assert ests[("3/2", 40)] > 0.9
    assert ests[("5/2", 40)] < 0.1
    tautology = spectrum_probe(lambda g: True, 3, [F(1)], [8], trials=10, seed=1)
    assert all(c["estimate"] == 1.0 for c in tautology.grid)
    assert tautology.flags == []
