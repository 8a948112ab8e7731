"""Spans around zolab's public functions, installed from outside the program.

Every public function of each traced module is replaced by a wrapper, in its
own module and under every name another zolab module imported it as.  A span
records the function's duration; its self time is that duration minus the
time of the spans it caused.  Aggregates are kept in memory per function
name, plus the few result-derived counts the benchmark reports.
"""
from __future__ import annotations

import functools
import inspect
import sys
import time

LAYERS = ("randmodel", "hypercore", "folang", "efgame", "extlab", "constructions",
          "bounds", "cli")
EXPERIMENTS = frozenset(("randmodel.estimate_probability", "randmodel.poisson_fit",
                         "randmodel.prop1_experiment", "randmodel.spectrum_probe"))


class Tracer:
    def __init__(self) -> None:
        self.self_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.entries: dict[str, int] = {}       # calls from outside the callee's layer
        self.trues: dict[tuple[str, str], int] = {}   # (function, parent) -> True results
        self.sums: dict[tuple[str, str], int] = {}    # (function, parent) -> summed counts
        self.trial_ms: list[float] = []
        self.edges_sampled = 0
        self._stack: list[list] = []            # [name, child seconds, trial starts or None]
        self._restore: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap every public function of the traced layers, everywhere it is bound."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "zolab" or name.startswith("zolab.")]
        for layer in LAYERS:
            mod = sys.modules[f"zolab.{layer}"]
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                wrapper = self._wrap(f"{layer}.{attr}", fn)
                for holder in modules:
                    for name, value in list(vars(holder).items()):
                        if value is fn:
                            self._restore.append((holder, name, fn))
                            setattr(holder, name, wrapper)

    def uninstall(self) -> None:
        for holder, name, fn in reversed(self._restore):
            setattr(holder, name, fn)
        self._restore.clear()

    # -- spans ---------------------------------------------------------------

    def _wrap(self, name: str, fn):
        layer = name.split(".", 1)[0]
        stack = self._stack
        clock = time.perf_counter
        experiment = name in EXPERIMENTS
        observe = self._observer(name)

        @functools.wraps(fn)
        def span(*args, **kwargs):
            parent = stack[-1] if stack else None
            if name == "randmodel.sample":
                for frame in reversed(stack):
                    if frame[2] is not None:
                        frame[2].append(clock())
                        break
            frame = [name, 0.0, [] if experiment else None]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                self.self_s[name] = self.self_s.get(name, 0.0) + dur - frame[1]
                self.calls[name] = self.calls.get(name, 0) + 1
                if parent is None or not parent[0].startswith(layer + "."):
                    self.entries[layer] = self.entries.get(layer, 0) + 1
                if parent is not None:
                    parent[1] += dur
                if experiment and frame[2]:
                    starts = frame[2] + [t1]
                    self.trial_ms.extend(1e3 * (b - a) for a, b in zip(starts, starts[1:]))
            if observe is not None:
                observe(result, parent[0] if parent is not None else "")
            return result

        return span

    def _observer(self, name: str):
        def count_true(result, parent):
            if result:
                self.trues[name, parent] = self.trues.get((name, parent), 0) + 1

        def add(amount):
            def observe(result, parent):
                self.sums[name, parent] = self.sums.get((name, parent), 0) + amount(result)
            return observe

        def edges(result, parent):
            self.edges_sampled += result.num_edges

        return {"hypercore.has_copy": count_true,
                "folang.evaluate": count_true,
                "efgame.duplicator_wins": count_true,
                "hypercore.count_copies": add(int),
                "hypercore.copy_images": add(len),
                "extlab.count_uncovered_copies": add(int),
                "randmodel.sample": edges}.get(name)

    # -- read-out ------------------------------------------------------------

    def true_count(self, name: str, parent: str | None = None) -> int:
        return sum(v for (n, p), v in self.trues.items()
                   if n == name and (parent is None or p == parent))

    def summed(self, name: str, parent: str | None = None) -> int:
        return sum(v for (n, p), v in self.sums.items()
                   if n == name and (parent is None or p == parent))

    def layer_self(self, layer: str) -> float:
        return sum(v for k, v in self.self_s.items() if k.startswith(layer + "."))
