"""The benchmark's workloads: what each runs, checks and reports.

Every workload drives linkalloc only through its public functions and is a
closed loop from one process: each operation starts when the previous one
has returned. The one exception is the sweep's process pool on
`ladder-sweep`, which the package itself runs with at most two workers.

A workload run has three passes:

* timed: operations back to back for the requested seconds, untraced, each
  block of them between two timings of a reference computation; the
  end-to-end metrics come only from here;
* traced (``--trace 1`` only): the same operations with spans around every
  module boundary (see `spans`), giving the per-module metrics;
* check: the outputs of the timed pass against independent references
  (see `checks`); any problem makes the run incorrect.
"""

from __future__ import annotations

import math
import os
import resource
import statistics
import time
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import linkalloc
from checks import CallLog, Outcomes, check_reports
from spans import ENTRY_TARGETS, LEAF_TARGETS, STAGE_TARGETS, Tracer
from synth import synth_yaml

CONVERGED_SPREAD = 0.05   # the acceptance threshold for PF convergence
CHECK_TARGETS = tuple(t for t in STAGE_TARGETS
                      if t[2] in ("pairing.pair", "allocation.allocate"))
ALL_TARGETS = ENTRY_TARGETS + STAGE_TARGETS + LEAF_TARGETS

# Values derived rather than read off one measurement, with how.
COMPUTED = {
    "pairing.peak_mb": "tracemalloc peak of one replayed pairing call; "
                       "misses HiGHS's C++ allocations",
    "harness.self_ms": "step span minus its child spans",
    "harness.pool_efficiency": "serial sweep time / (workers x pooled sweep wall); "
                               "1 by definition where no pool runs",
    "trace.overhead_ms": "traced minus untraced step median; the two alternate "
                         "in pairs of steps (SLO run by SLO run on ladder-sweep)",
}


def quantile(samples, q: float) -> float:
    """Linear-interpolation quantile (statistics' inclusive method); 0 when
    nothing completed, which the checks then report as an incorrect run."""
    if not samples:
        return 0.0
    if len(samples) == 1:
        return float(samples[0])
    cuts = statistics.quantiles(samples, n=100, method="inclusive")
    return float(cuts[round(q * 100) - 1])


def mean(values) -> float:
    return statistics.fmean(values) if values else 0.0


@dataclass
class Pass:
    """What the timed or traced pass leaves for metrics and checks."""

    latencies: list = field(default_factory=list)  # seconds per step
    norm: list = field(default_factory=list)       # the same, in reference units
    work: list = field(default_factory=list)       # (runs, reference units) per block
    block_s: float = 0.0                           # wall time of the last block
    refs: list = field(default_factory=list)       # reference timings, seconds
    runs: int = 0                                  # controller-loop runs completed
    steps: int = 0                                 # controller iterations executed


# --- timing against a reference computation ---------------------------------------
#
# On a shared 2-vCPU virtual machine the same step runs at speeds up to
# 1.6x apart, and the mix drifts over tens of seconds, so raw medians of
# whole runs moved by up to 36% (IQR over median) between runs.
# Each block of work is therefore timed between two runs of a fixed reference
# computation, and the bounded step metrics are in units of its duration
# ("ref"). Host slowdowns hit both alike and cancel; a change to linkalloc
# cannot touch the reference. Raw milliseconds are printed and saved too.

# Host speed also wanders within a second. A block of seconds averages that
# out, a reference timing of a few ms does not, so each reference timing
# lasts about this share of the block it brackets (at least three runs).
PROBE_SHARE = 0.08

_REF_SMALL = np.arange(64.0)
_REF_LARGE = np.ones(2**19)    # 4 MB, beyond a core's private caches


def _reference_once() -> float:
    total = 0.0
    for i in range(1600):      # interpreter and small-array work, like a step
        total += float(np.exp(_REF_SMALL[i % 64] * 1e-3))
    # and memory-bound passes that allocate nothing
    return total + float(_REF_LARGE.sum() + _REF_LARGE.max() + _REF_LARGE.min())


def reference_s(block_s: float) -> float:
    """Median timing of the reference computation, in seconds: over three
    runs, or over as many as last PROBE_SHARE of a block of `block_s`."""
    times = []
    while len(times) < 3 or sum(times) < PROBE_SHARE * block_s:
        t0 = time.perf_counter()
        _reference_once()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def between_references(p: Pass, fn, sized: bool = True):
    """Run fn between two reference timings; return (result, wall s, ref s).

    When `sized`, the timing before is sized to the previous block and the
    one after to this block; otherwise each is three runs.
    """
    before = reference_s(p.block_s if sized else 0.0)
    t0 = time.perf_counter()
    result = fn()
    wall = time.perf_counter() - t0
    ref = (before + reference_s(wall if sized else 0.0)) / 2
    p.refs.append(ref)
    p.block_s = wall
    return result, wall, ref


def timing(p: Pass) -> dict:
    """The bounded timing metrics of a timed pass, in reference units."""
    runs = sum(r for r, _ in p.work)
    return {
        "step_p50_ref": (quantile(p.norm, 0.5), "ref"),
        "step_p90_ref": (quantile(p.norm, 0.9), "ref"),
        "run_cost_ref": (sum(w for _, w in p.work) / runs if runs else 0.0, "ref"),
    }


def sample_note(p: Pass, what: str) -> str:
    n = len(p.latencies)
    return (f"{n} {what}, {n - math.ceil(0.9 * n)} beyond p90; raw step "
            f"p50 {quantile(p.latencies, 0.5) * 1e3:.4g} ms, "
            f"p90 {quantile(p.latencies, 0.9) * 1e3:.4g} ms; "
            f"1 ref = {quantile(p.refs, 0.5) * 1e3:.4g} ms (median)")


def _per_layer(tracer: Tracer, log: CallLog, steps: int, load_s: float,
               import_s: float) -> dict:
    """Per-module metrics of a traced pass, normalised per controller step."""
    totals = tracer.totals()
    selfs = tracer.self_times()
    steps = max(steps, 1)

    def count(name):
        return totals.get(name, (0, 0.0))[0] / steps

    def ms(name):
        return totals.get(name, (0, 0.0))[1] * 1e3 / steps

    objectives = [linkalloc.objective_value(p, inst.d) for inst, p, _ in log.pairings]
    granted = requested = unallocated = 0
    for pairing, budget, selection in log.allocations:
        f_count = selection.s.shape[0]
        paired = pairing.x.any(axis=0)
        requested += int(np.minimum(budget.sta_radio_limits[paired], f_count).sum())
        granted += int(selection.s.sum())
        unallocated += len(selection.unallocated_edges)
    n_alloc = max(len(log.allocations), 1)
    harness_self = sum(v for k, v in selfs.items() if k.startswith("harness."))
    root_s = sum(s.dur for s in tracer.spans if s.parent < 0)
    return {
        "cli.import_s": (import_s, "s"),
        "scenario.load_s": (load_s, "s"),
        "scenario.snr_field_ms": (ms("scenario.snr_field"), "ms"),
        "rates.tensor_ms": (ms("rates.tensor"), "ms"),
        "rates.tensor_calls": (count("rates.tensor"), "count"),
        "phy.per_lookup_calls": (count("phy.per_lookup"), "count"),
        "phy.per_lookup_ms": (ms("phy.per_lookup"), "ms"),
        "phy.eesm_calls": (count("phy.eesm"), "count"),
        "phy.eesm_ms": (ms("phy.eesm"), "ms"),
        "dcf.throughput_calls": (count("dcf.throughput"), "count"),
        "dcf.throughput_ms": (ms("dcf.throughput"), "ms"),
        "dcf.fixed_point_calls": (count("dcf.fixed_point"), "count"),
        "pairing.pair_ms": (ms("pairing.pair"), "ms"),
        "pairing.peak_mb": (_replay_peak_mb(log), "MB"),
        "pairing.objective": (mean(objectives) / 1e6, "Mbit/s"),
        "allocation.allocate_ms": (ms("allocation.allocate"), "ms"),
        "allocation.unallocated_edges": (unallocated / n_alloc, "count"),
        "allocation.links_granted_ratio": (granted / requested if requested else 0.0,
                                           "ratio"),
        "harness.self_ms": (harness_self * 1e3 / steps, "ms"),
        "harness.step_ms": (root_s * 1e3 / steps, "ms"),
    }


def _replay_peak_mb(log: CallLog) -> float:
    """tracemalloc peak of the last pairing call, replayed outside the timing."""
    if not log.pairings:
        return 0.0
    instance, _, optimal = log.pairings[-1]
    solve = linkalloc.pair_optimal_lp if optimal else linkalloc.pair_greedy
    tracemalloc.start()
    try:
        solve(instance)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / 2**20


def churn(reports) -> list:
    """Per step transition: stations whose AP or channel set changed."""
    out = []
    for prev, cur in zip(reports, reports[1:]):
        changed = (prev.pairing.x != cur.pairing.x).any(axis=0)
        f_count = cur.selection.s.shape[0]
        m = cur.pairing.x.shape[1]
        chans_prev = prev.selection.s.reshape(f_count, -1, m).sum(axis=1)
        chans_cur = cur.selection.s.reshape(f_count, -1, m).sum(axis=1)
        changed |= (chans_prev != chans_cur).any(axis=0)
        out.append(int(changed.sum()))
    return out


def converged_step(reports, limit: int) -> int:
    """First iteration (1-based) from which the spread stays below the threshold
    through iteration `limit`; limit + 1 when it is not below it there."""
    first = limit + 1
    for i in range(min(limit, len(reports)) - 1, -1, -1):
        if reports[i].fairness_spread >= CONVERGED_SPREAD:
            break
        first = i + 1
    return first


# --- controller-step workloads ---------------------------------------------------


@dataclass
class ControllerWorkload:
    """A long chain of single `optimal`+`pf` controller steps, each resuming
    the last.

    `check_steps` is the chain prefix compared against one
    `run_apc_loop(iterations=check_steps)` call. The decision metrics
    (throughput, fairness spread) are the mean of its last two steps, so
    they do not depend on how many steps fit in the time window, and on a
    loop that alternates between two states they average one whole cycle.
    """

    name: str
    check_steps: int
    synth_size: tuple | None = None    # (APs, STAs); None = bundled fixture

    def input_path(self, seed: int, work: Path) -> Path:
        if self.synth_size is None:
            return linkalloc.bundled_scenario_path("scenario_3ap_15sta")
        n_aps, m_stas = self.synth_size
        path = work / f"synth_{n_aps}x{m_stas}_seed{seed}.yaml"
        path.write_text(synth_yaml(seed, n_aps, m_stas))
        return path

    def _step(self, sc, state, outcomes, p: Pass) -> None:
        """One controller step resuming the chain in `state`, timed into `p`."""
        t0 = time.perf_counter()
        res = outcomes.attempt(linkalloc.run_apc_loop, sc, solver="optimal",
                               allocator="pf", iterations=1, carry=state["carry"])
        dt = time.perf_counter() - t0
        if res is not None:
            p.latencies.append(dt)
            p.steps = p.runs = p.steps + 1
            state["reports"].append(res.final)
            state["carry"] = res.carry

    def run(self, sc, seconds: float, trace: bool, outcomes: Outcomes) -> dict:
        state = {"reports": [], "carry": None}
        # the first (cold-start) step runs untimed so caches fill before timing
        self._step(sc, state, outcomes, Pass())
        timed = Pass()
        traced = tracer = log = None
        if trace:
            # traced and untraced steps alternate, so both see the same machine
            traced, tracer, log = Pass(), Tracer(), CallLog()
        # Steps are taken in pairs: the loop can alternate between two states
        # on odd and even steps (it does on synth-30x1000), and a median over
        # unequal shares of the two would move with the step count.
        start = time.perf_counter()

        def more() -> bool:
            if time.perf_counter() - start < seconds:
                return True
            # past the window, keep going only to reach the checked prefix
            return not outcomes.n_failed and len(state["reports"]) < self.check_steps

        def pair(p: Pass):
            for _ in range(2):
                self._step(sc, state, outcomes, p)

        while more():
            done = len(timed.latencies)
            _, wall, ref = between_references(timed, lambda: pair(timed))
            if len(timed.latencies) == done + 2:
                timed.norm += [t / ref for t in timed.latencies[-2:]]
                timed.work.append((2, wall / ref))
            if trace:
                with tracer.patched(ALL_TARGETS, log.hooks()):
                    for _ in range(2):
                        tracer.step = len(state["reports"]) + 1
                        self._step(sc, state, outcomes, traced)
        peak_mb = peak_rss_mb()
        problems = self.check(sc, state["reports"])
        return {"timed": timed, "traced": traced, "tracer": tracer, "log": log,
                "reports": state["reports"], "peak_mb": peak_mb, "problems": problems}

    def check(self, sc, reports) -> list:
        k = self.check_steps
        if len(reports) < k:
            return [f"chain stopped at {len(reports)} steps, before the {k} checked"]
        problems = check_reports(reports, sc.sta_radio_limits())
        log = CallLog()
        with Tracer().patched(CHECK_TARGETS, log.hooks()):
            ref = linkalloc.run_apc_loop(sc, solver="optimal", allocator="pf", iterations=k)
        if linkalloc.emit_results(ref.reports) != linkalloc.emit_results(reports[:k]):
            problems.append(f"{k} chained steps differ from one iterations={k} call")
        if len(log.pairings) != k or len(log.allocations) != k:
            problems.append("pairing/allocation calls not observed; "
                            "the checks cannot see them")
        return problems + log.problems()

    def end_to_end(self, out: dict) -> dict:
        timed, reports, k = out["timed"], out["reports"], self.check_steps
        cycle = reports[k - 2:k] if len(reports) >= k else []
        return {
            **timing(timed),
            "peak_mem_mb": (out["peak_mb"], "MB"),
            "throughput_mbps": (mean([r.aggregate_throughput_bps for r in cycle]) / 1e6,
                                "Mbit/s"),
            "fairness_spread": (mean([r.fairness_spread for r in cycle]), "ratio"),
        }

    def per_layer(self, out: dict, load_s: float, import_s: float) -> dict:
        tracer, log, traced = out["tracer"], out["log"], out["traced"]
        metrics = _per_layer(tracer, log, traced.steps, load_s, import_s)
        reports = out["reports"]
        metrics["harness.churn"] = (mean(churn(reports)), "count")
        metrics["harness.converged_step"] = (
            converged_step(reports, self.check_steps), "count")
        metrics["harness.pool_efficiency"] = (1.0, "ratio")
        metrics["trace.overhead_ms"] = (
            (quantile(traced.latencies, 0.5) - quantile(out["timed"].latencies, 0.5)) * 1e3,
            "ms")
        return metrics

    def sample_note(self, out: dict) -> str:
        return sample_note(out["timed"], "timed steps after 1 untimed warm-up step")


# --- the algorithm-ladder sweep ---------------------------------------------------

LADDER_SNRS = (5.0, 10.0, 15.0, 20.0)
LADDER_MCS = (3, 9)
LADDER_ALGORITHMS = (("optimal", "pf"), ("greedy", "pf"), ("greedy", "rr"))


@dataclass
class LadderWorkload:
    """The paper's dominance ladder: sweeps plus SLO runs on the fixture.

    One ladder is a `run_monte_carlo` call per algorithm over the SNR x MCS
    grid (one round per cell, process pool of `workers`) followed by one
    serial `run_slo_baseline` run per cell. A step's latency is observable
    only for the serial SLO runs, as their wall time over their iterations.
    """

    name: str
    iterations: int = 10
    snrs: tuple = LADDER_SNRS
    mcs: tuple = LADDER_MCS

    def input_path(self, seed: int, work: Path) -> Path:
        return linkalloc.bundled_scenario_path("scenario_3ap_15sta")

    def _cells(self):
        return [(snr, mcs) for snr in self.snrs for mcs in self.mcs]

    def _sweep(self, sc, solver, allocator, workers, outcomes, p: Pass):
        stats = outcomes.attempt(linkalloc.run_monte_carlo, sc, snr_points=self.snrs,
                                 mcs_points=self.mcs, rounds=1, solver=solver,
                                 allocator=allocator, iterations=self.iterations,
                                 workers=workers)
        if stats is not None:
            p.runs += len(stats)
            p.steps += len(stats) * self.iterations
        return stats

    def _slo(self, sc, cell, outcomes, p: Pass):
        t0 = time.perf_counter()
        res = outcomes.attempt(linkalloc.run_slo_baseline, sc, iterations=self.iterations,
                               snr_base_db=cell[0], mcs_override=cell[1])
        dt = time.perf_counter() - t0
        if res is not None:
            p.latencies.append(dt / self.iterations)
            p.runs += 1
            p.steps += self.iterations
        return res

    def _ladder(self, sc, workers, outcomes, p: Pass) -> dict:
        # Three-run reference timings: ones sized to these blocks, which
        # alternate between pooled sweeps and short SLO runs, spread
        # step_p90_ref over ten seeds from 0.08 to 0.28.
        out = {"sweeps": [], "slo": [], "sweep_s": 0.0}
        for solver, allocator in LADDER_ALGORITHMS:
            runs = p.runs
            stats, wall, ref = between_references(
                p, lambda: self._sweep(sc, solver, allocator, workers, outcomes, p),
                sized=False)
            out["sweeps"].append(stats)
            out["sweep_s"] += wall
            p.work.append((p.runs - runs, wall / ref))
        for cell in self._cells():
            runs, done = p.runs, len(p.latencies)
            res, wall, ref = between_references(
                p, lambda: self._slo(sc, cell, outcomes, p), sized=False)
            out["slo"].append(res)
            p.norm += [t / ref for t in p.latencies[done:]]
            p.work.append((p.runs - runs, wall / ref))
        return out

    def _traced_ladder(self, sc, outcomes, tracer: Tracer, log: CallLog) -> tuple:
        """One serial ladder under spans; each SLO cell also runs untraced
        just before its traced run, which pairs samples for the overhead."""
        traced, untraced = Pass(), Pass()
        for op, (solver, allocator) in enumerate(LADDER_ALGORITHMS):
            tracer.step = op
            with tracer.patched(ALL_TARGETS, log.hooks()):
                self._sweep(sc, solver, allocator, 1, outcomes, traced)
        for op, cell in enumerate(self._cells(), len(LADDER_ALGORITHMS)):
            self._slo(sc, cell, outcomes, untraced)
            tracer.step = op
            with tracer.patched(ALL_TARGETS, log.hooks()):
                self._slo(sc, cell, outcomes, traced)
        return traced, untraced

    def run(self, sc, seconds: float, trace: bool, outcomes: Outcomes) -> dict:
        workers = min(2, nproc())
        timed, ladders = Pass(), []
        start = time.perf_counter()
        while not ladders or time.perf_counter() - start < (seconds / 2 if trace else seconds):
            ladders.append(self._ladder(sc, workers, outcomes, timed))
        traced = untraced = tracer = log = None
        if trace:
            tracer, log = Tracer(), CallLog()
            traced, untraced = self._traced_ladder(sc, outcomes, tracer, log)
        peak_mb = peak_rss_mb()
        problems, serial_sweep_s = self.check(sc, ladders)
        return {"timed": timed, "traced": traced, "untraced": untraced, "tracer": tracer,
                "log": log, "ladders": ladders, "peak_mb": peak_mb, "problems": problems,
                "workers": workers, "serial_sweep_s": serial_sweep_s}

    def check(self, sc, ladders) -> tuple:
        """Repeat ladders agree; the pool agrees with a serial, checked rerun."""
        first = ladders[0]
        if any(x is None for x in first["sweeps"] + first["slo"]):
            return ["an operation of the first ladder failed"], 0.0
        problems = []
        csv_of = [linkalloc.emit_results(r.reports) for r in first["slo"]]
        for i, other in enumerate(ladders[1:], 2):
            same_slo = [None if r is None else linkalloc.emit_results(r.reports)
                        for r in other["slo"]] == csv_of
            if other["sweeps"] != first["sweeps"] or not same_slo:
                problems.append(f"ladder {i} differs from ladder 1")
        log = CallLog()
        with Tracer().patched(CHECK_TARGETS, log.hooks()):
            ref = self._ladder(sc, 1, Outcomes(), Pass())
        if any(x is None for x in ref["sweeps"] + ref["slo"]):
            return problems + ["an operation of the serial rerun failed"], 0.0
        if ref["sweeps"] != first["sweeps"]:
            problems.append("pooled sweep differs from the serial sweep")
        if [linkalloc.emit_results(r.reports) for r in ref["slo"]] != csv_of:
            problems.append("SLO runs are not deterministic")
        for r in ref["slo"]:
            problems += check_reports(r.reports, np.ones(sc.m_stas, dtype=int))
        if not log.pairings or not log.allocations:
            problems.append("pairing/allocation calls not observed; "
                            "the checks cannot see them")
        return problems + log.problems(), ref["sweep_s"]

    def end_to_end(self, out: dict) -> dict:
        timed = out["timed"]
        opt = out["ladders"][0]["sweeps"][0] or []     # the optimal+pf sweep
        return {
            **timing(timed),
            "peak_mem_mb": (out["peak_mb"], "MB"),
            "throughput_mbps": (sum(s.throughput_mean_bps for s in opt)
                                / max(len(opt), 1) / 1e6, "Mbit/s"),
            "fairness_spread": (sum(s.spread_mean for s in opt) / max(len(opt), 1),
                                "ratio"),
        }

    def per_layer(self, out: dict, load_s: float, import_s: float) -> dict:
        tracer, log, traced = out["tracer"], out["log"], out["traced"]
        metrics = _per_layer(tracer, log, traced.steps, load_s, import_s)
        runs = [r.reports for r in log.runs]
        metrics["harness.churn"] = (
            mean([c for reps in runs for c in churn(reps)]), "count")
        metrics["harness.converged_step"] = (statistics.median(
            [converged_step(reps, self.iterations) for reps in runs
             if reps[0].algorithm == "optimal+pf"] or [0]), "count")
        pooled = statistics.median(lad["sweep_s"] for lad in out["ladders"])
        metrics["harness.pool_efficiency"] = (
            out["serial_sweep_s"] / (out["workers"] * pooled), "ratio")
        metrics["trace.overhead_ms"] = (
            (quantile(traced.latencies, 0.5) - quantile(out["untraced"].latencies, 0.5))
            * 1e3, "ms")
        return metrics

    def sample_note(self, out: dict) -> str:
        runs = len(self._cells()) * (len(LADDER_ALGORITHMS) + 1)
        return sample_note(out["timed"], f"SLO-run step samples from "
                                         f"{len(out['ladders'])} ladders of {runs} runs")


# --- process facts ---------------------------------------------------------------


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports ru_maxrss in KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


WORKLOADS = {
    w.name: w for w in (
        ControllerWorkload("fixture-pf", check_steps=200),
        ControllerWorkload("synth-30x1000", check_steps=4, synth_size=(30, 1000)),
        LadderWorkload("ladder-sweep"),
    )
}
