"""zolab benchmark: one workload per invocation, closed loop, one caller.

    python3 bench/run.py --workload <name> --seed <n> --seconds <t> --trace <0|1>

Run from the root of a checkout; zolab is imported from ``src/`` of that
checkout.  Set-up (importing zolab and preparing the inputs) is repeated and
its median reported as ``setup_s``.  Then whole rounds of the workload's fixed
operation list run back to back until ``--seconds`` have passed; ``ops_per_s``
is the operations of all rounds over their total time.  Times are reference
seconds: CPU seconds rescaled by the machine speed sampled meanwhile
(speed.py), so that other tenants' load on a shared machine cancels out.  Outputs are
checked against independent computations, and every round's JSON must be
byte-identical to the first apart from ``wall_time_s``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced rounds and reports the per-layer metrics.  A run report
goes to stdout before the result; the last line is the result object.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import re
import resource
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

import oracles
import speed
import workloads as wl
from spans import EXPERIMENTS, LAYERS, Tracer
from speed import Speedometer, cpu_clock

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPS = 11
WALL_TIME = re.compile(r'"wall_time_s": [-+0-9.eE]+')


def import_zolab():
    """A fresh import of zolab and its CLI; earlier imports are dropped."""
    for name in [n for n in sys.modules if n == "zolab" or n.startswith("zolab.")]:
        del sys.modules[name]
    zl = importlib.import_module("zolab")
    importlib.import_module("zolab.cli")
    return zl


def set_up(prepare, workdir: Path, seed: int, reps: int, tracer: Tracer | None = None):
    """Import and prepare `reps` times; the last preparation is the one used.
    With a tracer, one more traced preparation follows and is used instead.
    A preparation is shorter than a spell of one machine speed, so each is
    rescaled by the speed samples taken just before and after it.  Returns
    the reference seconds, the CPU seconds and the speed samples."""
    cpu_times, samples = [], [speed.sample()]
    for _ in range(reps):
        t0 = cpu_clock()
        zl = import_zolab()
        ops = prepare(zl, workdir, seed)
        cpu_times.append(cpu_clock() - t0)
        samples.append(speed.sample())
    if tracer is not None:
        zl = import_zolab()
        tracer.install()
        ops = prepare(zl, workdir, seed)
        tracer.uninstall()
    ref_times = [t * speed.factor(samples[i:i + 2]) for i, t in enumerate(cpu_times)]
    return ref_times, cpu_times, samples, ops


def normalise(text: str) -> str:
    return WALL_TIME.sub('"wall_time_s": 0', text)


class Rounds:
    """Round timings plus the first round's outputs; later rounds are compared
    byte for byte and only their disagreements kept.

    `cpu_seconds` and `op_seconds` are CPU seconds of the operations, less the
    speed samples taken among them.  With a speedometer, `seconds` are the
    rounds' reference seconds (see speed.py); without one, CPU seconds.
    `wall_seconds` and `speed` (the samples) are kept for the report."""

    def __init__(self, ops, meter: Speedometer | None = None) -> None:
        self.ops = ops
        self.meter = meter
        self.first: list[tuple[int, str]] | None = None
        self.seconds: list[float] = []
        self.cpu_seconds: list[float] = []
        self.wall_seconds: list[float] = []
        self.speed: list[list[float]] = []
        self.op_seconds: list[list[float]] = [[] for _ in ops]
        self.mismatches = [0] * len(ops)

    def run(self) -> None:
        outs, cpu = [], 0.0
        meter = self.meter or Speedometer()  # unentered: takes no samples
        first_sample = len(meter.samples)
        w0 = time.perf_counter()
        for op, times in zip(self.ops, self.op_seconds):
            t, spent = cpu_clock(), meter.spent
            outs.append(op.run())
            times.append(cpu_clock() - t - (meter.spent - spent))
            cpu += times[-1]
        self.wall_seconds.append(time.perf_counter() - w0)
        self.cpu_seconds.append(cpu)
        if self.meter is None:
            self.seconds.append(cpu)
        else:
            if len(meter.samples) == first_sample:  # a round shorter than PERIOD_S
                meter.samples.append(speed.sample())
            self.speed.append(meter.samples[first_sample:])
            self.seconds.append(cpu * speed.factor(self.speed[-1]))
        if self.first is None:
            self.first = [(code, normalise(text)) for code, text in outs]
        else:
            for i, (code, text) in enumerate(outs):
                if (code, normalise(text)) != self.first[i]:
                    self.mismatches[i] += 1


def verify(rounds: list[Rounds], seed: int) -> tuple[bool, int, int, list[str]]:
    """Checks on the first round's outputs and byte-identity of every other
    round.  Returns (correct, attempted, failed, problems)."""
    ops, first = rounds[0].ops, rounds[0].first
    problems: list[str] = []
    try:
        oracles.self_test(seed)
    except oracles.CheckFailure as exc:
        problems.append(f"oracle self-test: {exc}")
    outs = {op.label: text for op, (_, text) in zip(ops, first)}
    n_rounds = sum(len(r.seconds) for r in rounds)
    failed = 0
    for i, (op, (code, text)) in enumerate(zip(ops, first)):
        if code != 0:
            print(f"bench: {op.label}: exit code {code}", file=sys.stderr)
            failed += n_rounds * op.ops
            continue
        try:
            op.check(text, outs)
        except (oracles.CheckFailure, KeyError, TypeError, ValueError) as exc:
            problems.append(f"{op.label}: {type(exc).__name__}: {exc}")
            failed += n_rounds * op.ops
            continue
        differing = (sum(r.mismatches[i] for r in rounds)
                     + sum(r.first[i] != first[i] for r in rounds[1:]))
        if differing:
            problems.append(f"{op.label}: output differs from the first round in "
                            f"{differing} of {n_rounds} rounds")
            failed += differing * op.ops
    attempted = n_rounds * sum(op.ops for op in ops)
    return not problems, attempted, failed, problems


def tally(outputs: list[str]) -> dict[str, int]:
    """Trials, hits, copies and Spoiler wins as the untraced JSON reports them."""
    out = {"trials": 0, "hits": 0, "copies": 0, "spoiler_wins": 0}
    for text in outputs:
        try:
            rep = json.loads(text)
        except ValueError:
            continue
        if not isinstance(rep, dict):
            continue
        if rep.get("kind") == "spectrum_probe":
            trials = rep["config"]["trials"]
            out["trials"] += trials * len(rep["grid"])
            out["hits"] += sum(round(c["estimate"] * trials) for c in rep["grid"])
        elif rep.get("kind") in ("poisson_fit", "prop1"):
            out["trials"] += rep["counts"]["trials"]
            out["copies"] += sum(sum(map(int, k.split(","))) * v
                                 for k, v in rep["histogram"].items())
        elif rep.get("winner") == "spoiler":
            out["spoiler_wins"] += 1
    return out


def layer_metrics(tr: Tracer, json_bytes: int) -> dict[str, float]:
    """Linear per-layer figures (times, calls, counts) from one tracer."""
    s, c = tr.self_s.get, tr.calls.get
    return {
        "randmodel.sample.self_s": s("randmodel.sample", 0.0),
        "randmodel.sample.calls": c("randmodel.sample", 0),
        "randmodel.edges_sampled": tr.edges_sampled,
        "randmodel.experiment.self_s": sum(s(n, 0.0) for n in sorted(EXPERIMENTS)),
        "hypercore.has_copy.self_s": s("hypercore.has_copy", 0.0),
        "hypercore.has_copy.calls": c("hypercore.has_copy", 0),
        "hypercore.count_copies.self_s": s("hypercore.count_copies", 0.0),
        "hypercore.count_copies.calls": c("hypercore.count_copies", 0),
        "hypercore.copies_found": tr.summed("hypercore.count_copies")
        + tr.summed("hypercore.copy_images"),
        "hypercore.copy_images.self_s": s("hypercore.copy_images", 0.0),
        "hypercore.copy_images.calls": c("hypercore.copy_images", 0),
        "hypercore.automorphism_count.self_s": s("hypercore.automorphism_count", 0.0),
        "hypercore.max_density.self_s": s("hypercore.max_density", 0.0),
        "hypercore.is_strictly_balanced.self_s": s("hypercore.is_strictly_balanced", 0.0),
        "hypercore.read_shg.self_s": s("hypercore.read_shg", 0.0),
        "folang.evaluate.self_s": s("folang.evaluate", 0.0),
        "folang.evaluate.calls": c("folang.evaluate", 0),
        "folang.parse.self_s": s("folang.parse", 0.0),
        "efgame.duplicator_wins.self_s": s("efgame.duplicator_wins", 0.0),
        "efgame.duplicator_wins.calls": c("efgame.duplicator_wins", 0),
        "efgame.distinguishing_formula.self_s": s("efgame.distinguishing_formula", 0.0),
        "efgame.spoiler_wins": c("efgame.duplicator_wins", 0)
        - tr.true_count("efgame.duplicator_wins"),
        "extlab.count_uncovered_copies.self_s": s("extlab.count_uncovered_copies", 0.0),
        "extlab.classify_pair.self_s": s("extlab.classify_pair", 0.0),
        "extlab.prop1_poisson_parameter.self_s": s("extlab.prop1_poisson_parameter", 0.0),
        "extlab.cyclic.self_s": s("extlab.match_cyclic_extension", 0.0)
        + s("extlab.find_m_decomposition", 0.0),
        "constructions.witness.self_s": s("constructions.theorem6_pair", 0.0)
        + s("constructions.theorem8_witnesses", 0.0) + s("constructions.loose_path", 0.0),
        "constructions.omega_tilde_check.self_s": s("constructions.omega_tilde_check", 0.0),
        "bounds.calls": tr.entries.get("bounds", 0),
        "cli.main.self_s": s("cli.main", 0.0),
        "cli.main.calls": c("cli.main", 0),
        "cli.json_bytes": json_bytes,
        **{f"{layer}.self_s": tr.layer_self(layer) for layer in LAYERS},
    }


def unit_of(name: str) -> str:
    if name.endswith(".self_s") or name == "trace.overhead_s":
        return "s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_ratio"):
        return "ratio"
    if name == "cli.json_bytes":
        return "bytes"
    return "count"


def run_untraced(ops, args) -> tuple[Rounds, float]:
    with Speedometer() as meter:
        rounds = Rounds(ops, meter)
        start = time.perf_counter()
        while True:
            rounds.run()
            if time.perf_counter() - start >= args.seconds:
                break
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return rounds, peak_mb


def run_traced(ops, args, tracer: Tracer):
    """Alternate untraced and traced rounds; per-layer figures are the traced
    set-up plus the mean of the traced rounds."""
    setup_figures = layer_metrics(tracer, 0)
    setup_trials = len(tracer.trial_ms)
    plain, traced = Rounds(ops), Rounds(ops)
    start = time.perf_counter()
    while True:
        plain.run()
        tracer.install()
        try:
            traced.run()
        finally:
            tracer.uninstall()
        if time.perf_counter() - start >= args.seconds:
            break
    n = len(traced.seconds)
    json_bytes = sum(len(text.encode()) for _, text in traced.first)
    total = layer_metrics(tracer, json_bytes * n)
    metrics = {k: setup_figures[k] + (total[k] - setup_figures[k]) / n for k in total}
    has_copy = tracer.calls.get("hypercore.has_copy", 0)
    evals = tracer.calls.get("folang.evaluate", 0)
    trials = sorted(tracer.trial_ms[setup_trials:])
    metrics.update({
        "randmodel.trial_p50_ms": statistics.median(trials) if trials else 0.0,
        "randmodel.trial_p95_ms": trials[int(0.95 * (len(trials) - 1))] if trials else 0.0,
        "hypercore.has_copy.hit_ratio":
            tracer.true_count("hypercore.has_copy") / has_copy if has_copy else 0.0,
        "folang.evaluate.true_ratio":
            tracer.true_count("folang.evaluate") / evals if evals else 0.0,
        "trace.overhead_s": statistics.median(traced.seconds) - statistics.median(plain.seconds),
    })
    # the trace's own counts must equal what the untraced JSON reports
    want = {k: v * n for k, v in tally([t for _, t in plain.first]).items()}
    seen = {
        "trials": tracer.calls.get("randmodel.sample", 0),
        "hits": tracer.true_count("hypercore.has_copy", "randmodel.estimate_probability")
        + tracer.true_count("folang.evaluate", "randmodel.estimate_probability"),
        "copies": tracer.summed("hypercore.count_copies", "randmodel.poisson_fit")
        + tracer.summed("extlab.count_uncovered_copies", "randmodel.prop1_experiment"),
        "spoiler_wins": tracer.calls.get("efgame.duplicator_wins", 0)
        - tracer.true_count("efgame.duplicator_wins"),
    }
    return plain, traced, metrics, want, seen


def machine() -> dict:
    import numpy
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "platform": platform.platform()}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "zolab" / "__init__.py").is_file():
        print(f"bench: no zolab sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import numpy  # noqa: F401  -- a dependency; its import stays out of setup_s
    importlib.import_module("zolab.cli")  # warm-up: byte-compiles, loads the stdlib
    if not Path(sys.modules["zolab"].__file__).resolve().is_relative_to(src.resolve()):
        print("bench: zolab resolves outside this checkout", file=sys.stderr)
        return 2

    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # still clean up the inputs
    try:
        prepare = wl.WORKLOADS[args.workload]
        tracer = Tracer() if args.trace else None
        setup_times, setup_cpu, setup_speed, ops = set_up(prepare, workdir, args.seed,
                                                          SETUP_REPS, tracer)
        if tracer is None:
            rounds, peak_mb = run_untraced(ops, args)
            all_rounds = [rounds]
        else:
            plain, traced, layer, want, seen = run_traced(ops, args, tracer)
            all_rounds = [plain, traced]
        correct, attempted, failed, problems = verify(all_rounds, args.seed)
        if tracer is not None and want != seen:
            problems.append(f"trace counts {seen} differ from the untraced JSON {want}")
            correct = False
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if not any(workdir.parent.iterdir()):
            workdir.parent.rmdir()

    for line in problems:
        print(f"bench: {line}", file=sys.stderr)
    per_round = sum(op.ops for op in ops)
    digest = hashlib.sha256("\n".join(t for _, t in all_rounds[0].first).encode()).hexdigest()
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine(), "ops_per_round": per_round,
              "rounds": [len(r.seconds) for r in all_rounds],
              "round_ref_s": [r.seconds for r in all_rounds],
              "round_cpu_s": [r.cpu_seconds for r in all_rounds],
              "round_wall_s": [r.wall_seconds for r in all_rounds],
              "round_speed_factor": [[speed.factor(x) for x in r.speed] for r in all_rounds],
              "round_speed_samples": [[len(x) for x in r.speed] for r in all_rounds],
              "setup_ref_s": setup_times, "setup_cpu_s": setup_cpu,
              "setup_speed_factor": speed.factor(setup_speed),
              "op_median_s": {op.label: statistics.median(t)
                              for op, t in zip(ops, all_rounds[0].op_seconds)},
              "attempted": attempted, "failed": failed, "output_sha256": digest}
    print(json.dumps({"report": report}, sort_keys=True))
    if tracer is None:
        rate = per_round * len(rounds.seconds) / sum(rounds.seconds)
        metrics = {"ops_per_s": {"value": rate, "unit": "ops/s"},
                   "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
                   "peak_rss_mb": {"value": peak_mb, "unit": "MB"}}
    else:
        metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in sorted(layer.items())}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
