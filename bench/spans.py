"""In-memory call spans around linkalloc's module boundaries.

`Tracer.patched(targets)` swaps each target name for a wrapper that records
one span per call: (name, start, end, parent span, step id). A name is
patched where its caller looks it up (`linkalloc.harness.build_rate_tensor`,
not `linkalloc.rates.build_rate_tensor`), because a module that did
`from .rates import build_rate_tensor` holds its own reference. Nothing in
the package is edited; every patch is undone when the block exits. A name
the package no longer has is skipped and listed in `Tracer.missing`, so a
refactor shows up as zero spans (and failed checks) rather than a crash.

A hook, keyed by the patched attribute's name, is called as
hook(args, kwargs, result) after each call; the benchmark uses hooks to
collect pairings, selections and run results for its checks and decision
metrics.
"""

from __future__ import annotations

import csv
import importlib
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

# Span names, grouped by the module whose work they time. The lookup path is
# the namespace the caller resolves the name in at call time.
ENTRY_TARGETS = (  # the benchmark's own calls and the sweep's inner runs
    ("linkalloc", "run_apc_loop", "harness.run"),
    ("linkalloc", "run_slo_baseline", "harness.slo_run"),
    ("linkalloc", "run_monte_carlo", "harness.sweep"),
    ("linkalloc.harness", "run_apc_loop", "harness.run"),
)
STAGE_TARGETS = (  # one call per controller step
    ("linkalloc.scenario:Scenario", "snr_field", "scenario.snr_field"),
    ("linkalloc.harness", "build_rate_tensor", "rates.tensor"),
    ("linkalloc.harness", "pair_optimal_lp", "pairing.pair"),
    ("linkalloc.harness", "pair_greedy", "pairing.pair"),
    ("linkalloc.harness", "allocate_pf", "allocation.allocate"),
    ("linkalloc.harness", "allocate_rr", "allocation.allocate"),
)
LEAF_TARGETS = (  # one call per link (or per contention cache miss)
    ("linkalloc.phy", "per_lookup", "phy.per_lookup"),
    ("linkalloc.phy", "eesm_effective_snr", "phy.eesm"),
    ("linkalloc.rates", "normalized_throughput", "dcf.throughput"),
    ("linkalloc.rates", "solve_bianchi_fixed_point", "dcf.fixed_point"),
)


def _resolve(path: str):
    module, _, cls = path.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


@dataclass(frozen=True, slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int      # index of the enclosing span, -1 at the root
    step: int

    @property
    def dur(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans for the calls made while `patched` is active."""

    def __init__(self):
        self.spans: list = []
        self.missing: set = set()
        self.step = 0
        self._stack: list = []

    def _wrap(self, name: str, fn: Callable, hook: Callable | None) -> Callable:
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = Span(name, start, end, parent, self.step)
            if hook is not None:
                hook(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    @contextmanager
    def patched(self, targets, hooks=None):
        """Patch every (lookup path, attribute, span name) in `targets`."""
        hooks = hooks or {}
        saved = []
        try:
            for path, attr, name in targets:
                owner = _resolve(path)
                original = getattr(owner, attr, None)
                if original is None:
                    self.missing.add(f"{path}.{attr}")
                    continue
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original, hooks.get(attr)))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # --- aggregation -----------------------------------------------------------

    def totals(self) -> dict:
        """Per span name: (call count, summed duration in seconds)."""
        out = defaultdict(lambda: [0, 0.0])
        for s in self.spans:
            out[s.name][0] += 1
            out[s.name][1] += s.dur
        return {k: tuple(v) for k, v in out.items()}

    def self_times(self) -> dict:
        """Per span name: summed self time, i.e. duration minus direct children.

        Calls run on one thread and nest strictly, so the direct children of
        a span never overlap and their durations can simply be subtracted.
        """
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child[s.parent] += s.dur
        out = defaultdict(float)
        for i, s in enumerate(self.spans):
            out[s.name] += s.dur - child[i]
        return dict(out)

    def write_csv(self, path) -> None:
        """Dump every span; times in microseconds from the first span's start."""
        t0 = self.spans[0].start if self.spans else 0.0
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(["id", "name", "start_us", "end_us", "parent", "step"])
            for i, s in enumerate(self.spans):
                w.writerow([i, s.name, f"{(s.start - t0) * 1e6:.1f}",
                            f"{(s.end - t0) * 1e6:.1f}", s.parent, s.step])
