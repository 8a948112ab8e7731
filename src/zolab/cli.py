"""Command-line entry point: file I/O, subcommand dispatch, JSON reporting.

Exit codes: 0 success, 2 usage or domain error, 3 capacity error (the
recursion limit included), 4 verification failure.  Identical argv and seed
produce byte-identical JSON except for the wall_time_s field.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction

from . import bounds as bounds_mod
from . import constructions, efgame, extlab, folang, hypercore, randmodel
from .errors import CapacityError, ExperimentError, VerificationError

SEED_ENV = "ZOLAB_SEED"


def _rational(text: str) -> Fraction:
    try:
        if "/" in text:
            num, den = text.split("/", 1)
            return Fraction(int(num), int(den))
        return Fraction(int(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational p/q: {text!r}") from exc


# options parsed by _rational; their values may be negative, like -2/5
_RATIONAL_OPTIONS = ("--alpha", "--alpha-grid", "--qk")


def _bind_negative_values(argv: list[str]) -> list[str]:
    """Join a rational option, or an abbreviation of one, and a following
    value such as -2/5 into one token, --qk=-2/5: argparse takes a lone -2/5
    for an option name."""
    out: list[str] = []
    for token in argv:
        prev = out[-1] if out else ""
        if (len(prev) > 2 and any(o.startswith(prev) for o in _RATIONAL_OPTIONS)
                and token[:1] == "-" and token[1:2].isdigit()):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def _frac_dict(x: Fraction) -> dict:
    return {"num": x.numerator, "den": x.denominator}


def _emit(payload: dict) -> None:
    text = json.dumps(payload, sort_keys=True)  # whole before any of it is written
    sys.stdout.write(text + "\n")


def _default_seed() -> int:
    raw = os.environ.get(SEED_ENV, "0")
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"{SEED_ENV} must be an integer, got {raw!r}") from None


def _load(path: str) -> hypercore.Hypergraph:
    return hypercore.read_shg(path)


# --- subcommand handlers ----------------------------------------------------

def _cmd_density(args) -> None:
    _emit(_frac_dict(hypercore.density(_load(args.file))))


def _cmd_balance(args) -> None:
    g = _load(args.file)
    value, witness = hypercore.max_density(g)
    _emit({"schema": 1,
           "strictly_balanced": witness.vertices == g.vertices,
           "density": _frac_dict(hypercore.density(g)),
           "max_density": _frac_dict(value),
           "witness_vertices": sorted(witness.vertices)})


def _cmd_classify_pair(args) -> None:
    pair = hypercore.RootedPair(_load(args.outer), _load(args.inner))
    cls = extlab.classify_pair(pair, args.alpha)
    _emit({"schema": 1, "class": cls.value,
           "f_alpha": _frac_dict(extlab.f_alpha(pair, args.alpha)),
           "alpha": _frac_dict(args.alpha)})


def _cmd_copies(args) -> None:
    motif, host = _load(args.motif), _load(args.host)
    _emit({"schema": 1,
           "copies": hypercore.count_copies(motif, host, cap=args.cap,
                                            induced=args.induced),
           "induced": args.induced})


def _cmd_distance(args) -> None:
    d = hypercore.distance(_load(args.file), args.x, args.y)
    _emit({"schema": 1, "distance": None if d == float("inf") else int(d),
           "connected": d != float("inf")})


def _cmd_parse(args) -> None:
    f = folang.parse(args.formula)
    _emit({"schema": 1, "ast": folang.to_text(f),
           "depth": folang.quantifier_depth(f),
           "free": sorted(folang.free_variables(f))})


def _cmd_eval(args) -> None:
    f = folang.parse(args.formula)
    assignment = {}
    for item in args.assign or []:
        name, _, val = item.partition("=")
        if not val:
            raise ValueError(f"bad assignment {item!r}, expected var=vertex")
        if name in assignment:
            raise ValueError(f"--assign {name} given twice")
        if name not in folang.compile(f).free:
            raise ValueError(f"--assign {name}: not a free variable of the formula")
        assignment[name] = int(val)
    value = folang.evaluate(f, _load(args.host), assignment)
    _emit({"schema": 1, "value": value})


def _cmd_game(args) -> None:
    left, right = _load(args.left), _load(args.right)
    dup = efgame.duplicator_wins(left, right, args.rounds, cap=args.cap)
    payload = {"schema": 1, "winner": "duplicator" if dup else "spoiler",
               "rounds": args.rounds, "rules": efgame.RULES}
    if args.formula and not dup:
        f = efgame.distinguishing_formula(left, right, args.rounds, cap=args.cap)
        payload["formula"] = folang.to_text(f)
        payload["formula_verified"] = (folang.evaluate(f, left) != folang.evaluate(f, right)
                                       and folang.quantifier_depth(f) <= args.rounds)
    _emit(payload)


def _cmd_cyclic(args) -> None:
    pair = hypercore.RootedPair(_load(args.outer), _load(args.inner))
    pat = extlab.match_cyclic_extension(pair, args.m)
    if pat is None:
        _emit({"schema": 1, "match": None})
    else:
        _emit({"schema": 1, "match": {
            "kind": pat.kind, "k": pat.k, "l": pat.l,
            "contacts": sorted(pat.contacts),
            "edges": [sorted(e) for e in pat.edges]}})


def _cmd_decompose(args) -> None:
    chain = extlab.find_m_decomposition(_load(args.file), args.m, args.root,
                                        cap=args.cap)
    if chain is None:
        _emit({"schema": 1, "decomposition": None})
    else:
        _emit({"schema": 1, "decomposition": [
            {"vertices": sorted(g.vertices), "edges": [sorted(e) for e in g.sorted_edges()]}
            for g in chain]})


def _make_config(args, trials: int | None = None) -> randmodel.ExperimentConfig:
    prop = None
    if getattr(args, "motif", None):
        prop = f"motif:{args.motif}"
    elif getattr(args, "formula", None):
        prop = f"formula:{args.formula}"
    return randmodel.ExperimentConfig(
        s=args.s, n=args.n, trials=trials if trials is not None else args.trials,
        seed=args.seed, alpha=getattr(args, "alpha", None),
        p=getattr(args, "p", None), property_spec=prop)


def _cmd_sample(args) -> None:
    cfg = _make_config(args, trials=1)
    g = randmodel.sample(cfg, args.trial)
    text = hypercore.to_shg(g)
    if args.out:
        with open(args.out, "w", encoding="ascii") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    _emit({"schema": 1, "edges": g.num_edges, "config": cfg.to_dict(),
           "trial": args.trial, "p": cfg._sampling[0]})


def _property_predicate(args):
    if args.motif:
        return randmodel.motif_predicate(_load(args.motif))
    return randmodel.formula_predicate(folang.parse(args.formula))


def _cmd_scan(args) -> None:
    rep = randmodel.estimate_probability(_make_config(args), _property_predicate(args))
    _emit(rep.to_dict())


def _cmd_poisson(args) -> None:
    motifs = [_load(p) for p in args.motif]
    if not (rho := hypercore.density(motifs[0])):
        raise ValueError("the motif has density 0: no threshold p = n^(-1/rho)")
    cfg = randmodel.ExperimentConfig(s=args.s, n=args.n, trials=args.trials,
                                     seed=args.seed, alpha=1 / rho)
    rep = randmodel.poisson_fit(cfg, motifs)
    _emit(rep.to_dict())


def _cmd_prop1(args) -> None:
    pair = hypercore.RootedPair(_load(args.outer), _load(args.inner))
    rep = randmodel.prop1_experiment(pair, _make_config(args), cap=args.cap)
    _emit(rep.to_dict())


def _cmd_probe(args) -> None:
    rep = randmodel.spectrum_probe(
        _property_predicate(args), args.s, args.alpha_grid, args.n_grid,
        args.trials, args.seed)
    if args.csv:
        with open(args.csv, "w", encoding="ascii") as fh:
            fh.write(randmodel.probe_csv(rep))
    _emit(rep.to_dict())


def _cmd_bounds(args) -> None:
    try:
        if args.max_candidates:
            c1, c2 = bounds_mod.max_spectrum_candidates(args.s, args.k)
            payload = {"schema": 1, "max_candidates": [_frac_dict(c1), _frac_dict(c2)]}
        elif args.qk is not None:
            payload = {"schema": 1, "alpha": _frac_dict(args.qk),
                       "in_qk": bounds_mod.qk_contains(args.s, args.k, args.qk)}
        else:
            payload = {"schema": 1, "rows": [
                {"theorem": r.theorem, "kind": r.kind,
                 "params": {"s": r.s, "k": r.k},
                 "value_num": r.value.numerator,
                 "value_den": r.value.denominator, "note": r.note}
                for r in bounds_mod.other_bound_values(args.s, args.k)]}
        _emit(payload)
    except ValueError as exc:
        if not str(exc).startswith("Exceeds the limit"):  # a domain error, not str()'s
            raise
        raise ValueError(f"--k {args.k} is too large: the exact values do not print ({exc})"
                         ) from None


def _cmd_construct(args) -> None:
    if args.which == "theorem6":
        w = constructions.theorem6_pair(args.s, args.l, args.m)
        g, h = w.g, w.h
        payload = {
            "schema": 1, "construction": "theorem6",
            "alpha": _frac_dict(w.alpha),
            "h": {"vertices": h.num_vertices, "edges": h.num_edges,
                  "density": _frac_dict(hypercore.density(h))},
            "pair_density": _frac_dict(w.pair.rel_density()),
            "midpoints": list(w.midpoints), "hub": w.hub,
        }
        out_graph = g
    else:
        w = constructions.theorem8_witnesses(args.s, args.k, args.a1, args.a2)
        payload = {
            "schema": 1, "construction": "theorem8",
            "alpha": _frac_dict(w.alpha), "a": w.a,
            "h": {"vertices": w.h.num_vertices, "edges": w.h.num_edges,
                  "density": _frac_dict(hypercore.density(w.h))},
            "center": w.center,
        }
        out_graph = w.h
    canonical, _ = hypercore.canonical_relabel(out_graph)
    text = hypercore.to_shg(canonical)
    if args.out:
        with open(args.out, "w", encoding="ascii") as fh:
            fh.write(text)
        payload["file"] = args.out
    else:
        payload["shg"] = text
    _emit(payload)


# --- parser -----------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; `--seed` defaults to None."""
    top = argparse.ArgumentParser(
        prog="zolab",
        description="zero-one k-law laboratory for random s-uniform hypergraphs")
    sub = top.add_subparsers(dest="command", required=True)

    def add_cap(p, default=hypercore.DEFAULT_ENUM_CAP):
        p.add_argument("--cap", type=int, default=default,
                       help="vertex cap of the search")

    p = sub.add_parser("density", help="exact edge/vertex ratio of a .shg file")
    p.add_argument("file")
    p.set_defaults(func=_cmd_density)

    p = sub.add_parser("balance", help="strict balance and densest sub-hypergraph")
    p.add_argument("file")
    p.set_defaults(func=_cmd_balance)

    p = sub.add_parser("classify-pair", help="safe/rigid/neutral classification")
    p.add_argument("--outer", required=True)
    p.add_argument("--inner", required=True)
    p.add_argument("--alpha", type=_rational, required=True)
    p.set_defaults(func=_cmd_classify_pair)

    p = sub.add_parser("copies", help="count copies of a motif in a host")
    p.add_argument("--motif", required=True)
    p.add_argument("--host", required=True)
    p.add_argument("--induced", action="store_true")
    add_cap(p, default=hypercore.DEFAULT_SEARCH_CAP)
    p.set_defaults(func=_cmd_copies)

    p = sub.add_parser("distance", help="chain distance between two vertices")
    p.add_argument("file")
    p.add_argument("x", type=int)
    p.add_argument("y", type=int)
    p.set_defaults(func=_cmd_distance)

    p = sub.add_parser("parse", help="parse a formula, print AST text and depth")
    p.add_argument("formula")
    p.set_defaults(func=_cmd_parse)

    p = sub.add_parser("eval", help="evaluate a formula on a hypergraph")
    p.add_argument("--formula", required=True)
    p.add_argument("--host", required=True)
    p.add_argument("--assign", action="append", metavar="VAR=VERTEX")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("game", help="solve the k-round pebble game")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.add_argument("--rounds", type=int, required=True)
    p.add_argument("--formula", action="store_true",
                   help="extract a distinguishing formula when Spoiler wins")
    add_cap(p, default=efgame.DEFAULT_GAME_CAP)
    p.set_defaults(func=_cmd_game)

    p = sub.add_parser("cyclic", help="match a pair against the cyclic templates")
    p.add_argument("--outer", required=True)
    p.add_argument("--inner", required=True)
    p.add_argument("--m", type=int, required=True)
    p.set_defaults(func=_cmd_cyclic)

    p = sub.add_parser("decompose", help="grow a chain of cyclic extensions from a root")
    p.add_argument("file")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--root", type=int, required=True)
    add_cap(p)
    p.set_defaults(func=_cmd_decompose)

    def add_sampling(p, needs_trials=True):
        p.add_argument("--s", type=int, required=True)
        p.add_argument("--n", type=int, required=True)
        grp = p.add_mutually_exclusive_group(required=True)
        grp.add_argument("--alpha", type=_rational)
        grp.add_argument("--p", type=float)
        if needs_trials:
            p.add_argument("--trials", type=int, required=True)
        p.add_argument("--seed", type=int)

    p = sub.add_parser("sample", help="draw one random hypergraph")
    add_sampling(p, needs_trials=False)
    p.add_argument("--trial", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_sample)

    def add_property(p):
        grp = p.add_mutually_exclusive_group(required=True)
        grp.add_argument("--motif", help=".shg file: property = contains a copy")
        grp.add_argument("--formula", help="closed first-order formula text")

    p = sub.add_parser("scan", help="estimate a property probability")
    add_sampling(p)
    add_property(p)
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("poisson", help="joint copy-count distribution at threshold")
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--motif", action="append", required=True)
    p.set_defaults(func=_cmd_poisson)

    p = sub.add_parser("prop1", help="uncovered-copy distribution for a pair")
    p.add_argument("--outer", required=True)
    p.add_argument("--inner", required=True)
    add_sampling(p)
    add_cap(p)
    p.set_defaults(func=_cmd_prop1)

    p = sub.add_parser("probe", help="estimate matrix over an (alpha, n) grid")
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--alpha-grid", type=lambda t: [_rational(x) for x in t.split(",")],
                   required=True)
    p.add_argument("--n-grid", type=lambda t: [int(x) for x in t.split(",")],
                   required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--csv", help="also write one row per grid cell")
    add_property(p)
    p.set_defaults(func=_cmd_probe)

    p = sub.add_parser("bounds", help="exact spectrum endpoint values")
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--max-candidates", action="store_true")
    p.add_argument("--qk", type=_rational, metavar="P/Q")
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("construct", help="build a witness hypergraph")
    wsub = p.add_subparsers(dest="which", required=True)
    p6 = wsub.add_parser("theorem6")
    p6.add_argument("--s", type=int, required=True)
    p6.add_argument("--l", type=int, required=True)
    p6.add_argument("--m", type=int, required=True)
    p6.add_argument("--out")
    p6.set_defaults(func=_cmd_construct, which="theorem6")
    p8 = wsub.add_parser("theorem8")
    p8.add_argument("--s", type=int, required=True)
    p8.add_argument("--k", type=int, required=True)
    p8.add_argument("--a1", type=int)
    p8.add_argument("--a2", type=int)
    p8.add_argument("--out")
    p8.set_defaults(func=_cmd_construct, which="theorem8")

    return top


def main(argv: list[str] | None = None) -> int:
    try:
        seed = _default_seed()  # read on every call: a bad ZOLAB_SEED fails every command
        args = build_parser().parse_args(
            _bind_negative_values(sys.argv[1:] if argv is None else argv))
        if getattr(args, "seed", None) is None:
            args.seed = seed
        args.func(args)
    except CapacityError as exc:
        json.dump({"error": str(exc), "kind": "capacity"}, sys.stderr)
        sys.stderr.write("\n")
        return 3
    except RecursionError:
        json.dump({"error": f"past the recursion limit ({sys.getrecursionlimit()}): "
                            "the formula or the game nests too deeply", "kind": "capacity"},
                  sys.stderr)
        sys.stderr.write("\n")
        return 3
    except VerificationError as exc:
        json.dump({"error": str(exc), "kind": "verification"}, sys.stderr)
        sys.stderr.write("\n")
        return 4
    except (ValueError, KeyError, OSError, ExperimentError) as exc:
        json.dump({"error": str(exc), "kind": "usage"}, sys.stderr)
        sys.stderr.write("\n")
        return 2
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
