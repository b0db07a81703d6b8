"""Output checks the benchmark applies to every run.

Each check returns a list of human-readable problems; an empty list passes.
The pairing reference is independent of the package's LP: Hungarian
assignment (`scipy.optimize.linear_sum_assignment`) on a matrix that repeats
AP n's row min(R(n), M) times, which is the same capacitated assignment.
"""

from __future__ import annotations

import traceback
from collections import Counter

import numpy as np
from scipy.optimize import linear_sum_assignment

from linkalloc import (
    InfeasibleError,
    InvalidInputError,
    RadioBudget,
    SizeLimitError,
    SolverError,
    ValidationError,
    objective_value,
)
from linkalloc.allocation import selection_feasible

OBJECTIVE_RTOL = 1e-9

# Failure outcomes, matching the CLI's exit-code classes.
CONFIGURATION = "configuration_error"
SOLVER = "solver_error"
OTHER = "other_exception"


class Outcomes:
    """Counts attempted operations and their failures by outcome."""

    def __init__(self):
        self.attempted = 0
        self.failed = Counter()

    def attempt(self, fn, *args, **kwargs):
        """Run one operation; return its result, or None when it failed."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except (ValidationError, InvalidInputError):
            self.failed[CONFIGURATION] += 1
        except (SolverError, InfeasibleError, SizeLimitError):
            self.failed[SOLVER] += 1
        except Exception:  # a workload keeps running past any single failure
            self.failed[OTHER] += 1
            traceback.print_exc()
        return None

    @property
    def n_failed(self) -> int:
        return sum(self.failed.values())


def reference_objective(d: np.ndarray, ap_capacity: np.ndarray) -> float:
    """Optimal capacitated-assignment weight by the Hungarian method."""
    n_aps, m_stas = d.shape
    rows = np.repeat(np.arange(n_aps), np.minimum(ap_capacity, m_stas))
    r, c = linear_sum_assignment(d[rows], maximize=True)
    if len(c) != m_stas:
        raise ValueError("AP capacity cannot cover every station")
    return float(d[rows[r], c].sum())


def check_pairing(instance, pairing, optimal: bool) -> list:
    """Structural feasibility, plus the objective against the reference."""
    x = pairing.x
    problems = []
    if (x.sum(axis=0) != 1).any():
        problems.append("a station is not paired with exactly one AP")
    if (x.sum(axis=1) > instance.ap_capacity).any():
        problems.append("an AP is paired beyond its radio count")
    if optimal:
        got = objective_value(pairing, instance.d)
        want = reference_objective(instance.d, instance.ap_capacity)
        if abs(got - want) > OBJECTIVE_RTOL * max(abs(want), 1.0):
            problems.append(f"optimal objective {got!r} != reference {want!r}")
    return problems


def check_selection(selection, pairing, budget) -> list:
    if selection_feasible(selection, pairing, budget):
        return []
    return ["selection breaks the pairing or a radio budget"]


def check_reports(reports, sta_radio_limits) -> list:
    """Every reported step's selection is feasible for its own pairing."""
    problems = []
    for r in reports:
        budget = RadioBudget.from_pairing(r.pairing, sta_radio_limits)
        problems += [f"iteration {r.iteration}: {p}"
                     for p in check_selection(r.selection, r.pairing, budget)]
    return problems


class CallLog:
    """Hooks that keep each pairing and allocation call for later checks."""

    def __init__(self):
        self.pairings = []      # (instance, pairing, optimal?)
        self.allocations = []   # (pairing, budget, selection)
        self.runs = []          # RunResult of every loop run, in call order

    def hooks(self) -> dict:
        """Hooks keyed by the patched function's name (see spans.Tracer)."""
        return {
            "pair_optimal_lp": lambda a, k, r: self.pairings.append((a[0], r, True)),
            "pair_greedy": lambda a, k, r: self.pairings.append((a[0], r, False)),
            "allocate_pf": self._on_allocate,
            "allocate_rr": self._on_allocate,
            "run_apc_loop": self._on_run,
            "run_slo_baseline": self._on_run,
        }

    def _on_allocate(self, args, kwargs, result):
        selection = result[0] if isinstance(result, tuple) else result
        self.allocations.append((args[0], args[1], selection))

    def _on_run(self, args, kwargs, result):
        self.runs.append(result)

    def problems(self) -> list:
        out = []
        for i, (inst, pairing, optimal) in enumerate(self.pairings):
            out += [f"pairing call {i}: {p}" for p in check_pairing(inst, pairing, optimal)]
        for i, (pairing, budget, selection) in enumerate(self.allocations):
            out += [f"allocation call {i}: {p}"
                    for p in check_selection(selection, pairing, budget)]
        return out
