"""Radio-link allocation across channels for an existing AP-STA pairing.

Given the pairing and the per-channel edge rates, the allocator decides which
channels each assigned link actually runs on, limited by the station's r(m)
radios and the AP's aggregate radio budget. The proportional-fair policy
scores channels by instantaneous candidate rate over the exponentially
averaged served rate (the classic PF metric applied per channel), so a
channel that has been starved rises in priority until the loop equalizes
rate-per-history across channels. The round-robin policy is rate-blind and
spreads links over a weighted channel cycle.

State is carried between loop iterations by `ThroughputState`: `phi_prev` is
the committed average the current decision is judged against, `phi_cur` the
average after folding in the current selection.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .pairing import PairingMatrix
from .rates import EdgeRateMatrix, edge_endpoints

__all__ = [
    "LinkSelection",
    "ThroughputState",
    "RadioBudget",
    "ewma_update",
    "commit_state",
    "pf_metric",
    "instantaneous_rates",
    "allocate_pf",
    "allocate_rr",
    "fairness_spread",
    "selection_feasible",
]


@dataclass(frozen=True)
class LinkSelection:
    """Binary activation S[f, e] of edge e on channel f."""

    s: np.ndarray
    n_aps: int
    m_stas: int
    unallocated_edges: tuple = ()

    def __post_init__(self):
        s = np.array(self.s)
        if s.ndim != 2 or s.shape[1] != self.n_aps * self.m_stas:
            raise InvalidInputError(
                f"selection must be (F, {self.n_aps * self.m_stas}), got {s.shape}"
            )
        if not ((s == 0) | (s == 1)).all():
            raise InvalidInputError("selection entries must be 0 or 1")
        s = s.astype(np.int8)
        s.setflags(write=False)
        object.__setattr__(self, "s", s)

    @property
    def f_count(self) -> int:
        return self.s.shape[0]

    def per_channel_counts(self) -> np.ndarray:
        """Active link count per channel; feeds the next contention rebuild."""
        return self.s.sum(axis=1)

    def links(self) -> list:
        """(f, n, m) triples of active links."""
        fs, es = np.nonzero(self.s)
        return [(int(f),) + edge_endpoints(int(e), self.m_stas) for f, e in zip(fs, es)]


@dataclass(frozen=True)
class ThroughputState:
    """Per-channel served-rate averages driving the PF metric."""

    phi_prev: np.ndarray
    phi_cur: np.ndarray
    horizon_t: int

    def __post_init__(self):
        prev = np.array(self.phi_prev, dtype=float)
        cur = np.array(self.phi_cur, dtype=float)
        if prev.ndim != 1 or prev.shape != cur.shape:
            raise InvalidInputError("phi_prev and phi_cur must be equal-length vectors")
        if not (np.isfinite(prev).all() and np.isfinite(cur).all()):
            raise InvalidInputError("phi values must be finite")
        if (prev < 0).any() or (cur < 0).any():
            raise InvalidInputError("phi values must be non-negative")
        if self.horizon_t < 1:
            raise InvalidInputError("horizon_t must be >= 1")
        prev.setflags(write=False)
        cur.setflags(write=False)
        object.__setattr__(self, "phi_prev", prev)
        object.__setattr__(self, "phi_cur", cur)

    @classmethod
    def cold_start(cls, c: EdgeRateMatrix, horizon_t: int) -> "ThroughputState":
        """Seed the averages with each channel's mean edge rate.

        Starting at the channel's own scale keeps the first PF metric near 1
        on every channel instead of letting an arbitrary constant bias the
        first few selections.
        """
        phi = c.values.mean(axis=1)
        return cls(phi_prev=phi, phi_cur=phi, horizon_t=horizon_t)


@dataclass(frozen=True)
class RadioBudget:
    """Radio-count limits: per-AP aggregate and per-STA simultaneous links."""

    r_tilde: np.ndarray          # per-AP total radios across its paired STAs
    sta_radio_limits: np.ndarray

    def __post_init__(self):
        rt = np.array(self.r_tilde, dtype=int)
        lim = np.array(self.sta_radio_limits, dtype=int)
        if rt.ndim != 1 or lim.ndim != 1:
            raise InvalidInputError("budget vectors must be 1-D")
        if (rt < 0).any() or (lim < 1).any():
            raise InvalidInputError("budgets must be non-negative, radio limits positive")
        rt.setflags(write=False)
        lim.setflags(write=False)
        object.__setattr__(self, "r_tilde", rt)
        object.__setattr__(self, "sta_radio_limits", lim)

    @classmethod
    def from_pairing(cls, pairing: PairingMatrix, sta_radio_limits) -> "RadioBudget":
        """Aggregate the paired stations' radios into each AP's budget."""
        lim = np.asarray(sta_radio_limits, dtype=int)
        if lim.shape != (pairing.m_stas,):
            raise InvalidInputError("need one radio limit per STA")
        r_tilde = pairing.x @ lim
        return cls(r_tilde=r_tilde, sta_radio_limits=lim)


def instantaneous_rates(selection_s: np.ndarray, c: EdgeRateMatrix) -> np.ndarray:
    """Mean rate of the links active on each channel; 0 for idle channels."""
    s = np.asarray(selection_s)
    counts = s.sum(axis=1)
    totals = (s * c.values).sum(axis=1)
    return np.divide(totals, counts, out=np.zeros_like(totals, dtype=float),
                     where=counts > 0)


def ewma_update(state: ThroughputState, selection, c: EdgeRateMatrix) -> ThroughputState:
    """Fold the current selection's per-channel rate into the moving average.

    phi_cur[f] = (1 - 1/T) * phi_prev[f] + inst[f] / T. `phi_prev` is left
    untouched so the same committed history can score several candidate
    selections; `commit_state` advances it.
    """
    s = selection.s if isinstance(selection, LinkSelection) else np.asarray(selection)
    if s.shape != (state.phi_prev.shape[0], c.values.shape[1]):
        raise InvalidInputError("selection shape does not match state and rates")
    inst = instantaneous_rates(s, c)
    t = float(state.horizon_t)
    phi_cur = (1.0 - 1.0 / t) * state.phi_prev + inst / t
    return ThroughputState(phi_prev=state.phi_prev, phi_cur=phi_cur,
                           horizon_t=state.horizon_t)


def commit_state(state: ThroughputState) -> ThroughputState:
    """Advance history: the freshly updated average becomes the baseline."""
    return ThroughputState(phi_prev=state.phi_cur, phi_cur=state.phi_cur,
                           horizon_t=state.horizon_t)


def pf_metric(state: ThroughputState, selection, c: EdgeRateMatrix, f: int) -> float:
    """Instantaneous channel rate over its committed average; inf when the
    channel has history zero but traffic now (maximally under-served)."""
    if not 0 <= f < state.phi_cur.shape[0]:
        raise InvalidInputError(f"channel index {f} out of range")
    s = selection.s if isinstance(selection, LinkSelection) else np.asarray(selection)
    inst = instantaneous_rates(s, c)[f]
    phi = state.phi_cur[f]
    if phi == 0.0:
        return float("inf") if inst > 0 else 0.0
    return float(inst / phi)


def fairness_spread(metrics) -> float:
    """Relative spread (max - min) / mean of the per-channel PF metrics.

    Equal metrics spread 0.0, which covers a network where no link is active
    and every metric is 0.
    """
    vals = np.asarray(list(metrics), dtype=float)
    if vals.size == 0:
        raise InvalidInputError("need at least one metric")
    if np.isinf(vals).any():
        return float("inf")
    if vals.max() == vals.min():
        return 0.0
    mean = vals.mean()
    if mean <= 0:
        raise InvalidInputError("metrics must have positive mean")
    return float((vals.max() - vals.min()) / mean)


def _pairing_edges(pairing: PairingMatrix) -> list:
    return np.flatnonzero(pairing.x).tolist()     # row-major X is AP-major edge ids


def _check_budget(pairing: PairingMatrix, budget: RadioBudget) -> None:
    if budget.sta_radio_limits.shape != (pairing.m_stas,):
        raise InvalidInputError("budget covers a different station count")
    if budget.r_tilde.shape != (pairing.n_aps,):
        raise InvalidInputError("budget covers a different AP count")


def allocate_pf(pairing: PairingMatrix, budget: RadioBudget, c: EdgeRateMatrix,
                state: ThroughputState):
    """Proportional-fair channel selection for every paired link.

    Channel priority is fixed once per call from the committed averages:
    score(f) = mean candidate rate on f over phi_cur[f], descending. Edges are
    visited by descending peak rate and each takes its best min(r(m), F)
    distinct channels that respect the AP budget. Returns the selection plus
    the state with the resulting rates folded in and committed.
    """
    _check_budget(pairing, budget)
    if c.n_aps != pairing.n_aps or c.m_stas != pairing.m_stas:
        raise InvalidInputError("rate matrix does not match the pairing dimensions")
    f_count = c.f_count
    if state.phi_cur.shape[0] != f_count:
        raise InvalidInputError("state covers a different channel count")

    edges = _pairing_edges(pairing)
    s = np.zeros((f_count, c.values.shape[1]), dtype=np.int8)
    unallocated = []
    if edges:
        cand = c.values[:, edges]                      # (F, |edges|)
        phi = state.phi_cur
        mean_rate = cand.mean(axis=1)
        with np.errstate(divide="ignore"):
            score = np.where(phi > 0, mean_rate / np.where(phi > 0, phi, 1.0),
                             np.where(mean_rate > 0, np.inf, 0.0))
        order = sorted(range(f_count), key=lambda f: (-score[f], -mean_rate[f], f))
        ap_left = budget.r_tilde.astype(int).copy()
        peak = cand.max(axis=0).tolist()
        visit = sorted(range(len(edges)), key=lambda i: (-peak[i], edges[i]))
        for i in visit:
            e = edges[i]
            n, m = edge_endpoints(e, pairing.m_stas)
            want = min(int(budget.sta_radio_limits[m]), f_count)
            got = 0
            for f in order:
                if got == want or ap_left[n] == 0:
                    break
                if s[f, e] or c.values[f, e] <= 0.0:
                    continue
                s[f, e] = 1
                ap_left[n] -= 1
                got += 1
            if got == 0:
                unallocated.append(e)

    selection = LinkSelection(s, n_aps=pairing.n_aps, m_stas=pairing.m_stas,
                              unallocated_edges=tuple(sorted(unallocated)))
    new_state = commit_state(ewma_update(state, selection, c))
    return selection, new_state


def allocate_rr(pairing: PairingMatrix, budget: RadioBudget, f_count: int,
                weights) -> LinkSelection:
    """Weighted round-robin baseline: deal channels from a repeating cycle.

    The cycle holds each channel `weights[f]` times (e.g. weights (1, 2, 4)
    yield the cycle [0, 1, 1, 2, 2, 2, 2]), and links are dealt in edge-index
    order, ignoring rates entirely. A cycle position already used by the edge
    or blocked by the AP budget is skipped.
    """
    _check_budget(pairing, budget)
    weights = [int(w) for w in weights]
    if len(weights) != f_count or any(w < 1 for w in weights):
        raise InvalidInputError("need one positive weight per channel")
    cycle = [f for f in range(f_count) for _ in range(weights[f])]

    edges = sorted(_pairing_edges(pairing))
    s = np.zeros((f_count, pairing.n_aps * pairing.m_stas), dtype=np.int8)
    ap_left = budget.r_tilde.astype(int).copy()
    unallocated = []
    pos = 0
    for e in edges:
        n, m = edge_endpoints(e, pairing.m_stas)
        want = min(int(budget.sta_radio_limits[m]), f_count)
        got = 0
        for _ in range(want):
            if ap_left[n] == 0:
                break
            for _ in range(len(cycle)):
                f = cycle[pos % len(cycle)]
                pos += 1
                if not s[f, e]:
                    s[f, e] = 1
                    ap_left[n] -= 1
                    got += 1
                    break
            else:
                break
        if got == 0:
            unallocated.append(e)
    return LinkSelection(s, n_aps=pairing.n_aps, m_stas=pairing.m_stas,
                         unallocated_edges=tuple(unallocated))


def selection_feasible(selection: LinkSelection, pairing: PairingMatrix,
                       budget: RadioBudget) -> bool:
    """True when the selection respects pairing edges and all radio limits."""
    _check_budget(pairing, budget)
    m_stas = pairing.m_stas
    per_edge = selection.s.sum(axis=0)
    ap_used = np.zeros(pairing.n_aps, dtype=int)
    for e in np.flatnonzero(per_edge):
        n, m = edge_endpoints(int(e), m_stas)
        if pairing.x[n, m] != 1:
            return False
        if per_edge[e] > budget.sta_radio_limits[m]:
            return False
        ap_used[n] += int(per_edge[e])
    return bool((ap_used <= budget.r_tilde).all())
