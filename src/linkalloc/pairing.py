"""AP-STA pairing: the exact optimal assignment and a greedy baseline.

Pairing assigns every station to exactly one AP, maximizing the sum of
channel-averaged rates subject to per-AP capacity R(n). The paper states this
as an LP whose constraint matrix is a bipartite incidence matrix; its total
unimodularity makes every basic optimum integral, so the LP optimum is the
optimum of the integer assignment. `pair_optimal_lp` computes that optimum
directly as a min-cost flow: every station starts at its best AP
(`PairingInstance.best_ap`), and successive shortest paths over the APs
move stations out of over-full APs at the least loss (the LP itself is kept
as a test oracle). The instance keeps what it fixes, built when first read:
that start, its loads, the capacity verdict and the loss rows of APs with
their start stations, so a call on it rebuilds only the rows its own paths
change. Ties go to the lowest AP index at the start and in the path search;
no particular optimum among ties is promised. The total unimodularity check
and the exact joint pairing+allocation solver are reproduction oracles in
`repro`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InfeasibleError, InvalidInputError

__all__ = [
    "PairingInstance",
    "PairingMatrix",
    "pair_greedy",
    "pair_optimal_lp",
    "objective_value",
]


@dataclass(frozen=True, eq=False)
class PairingInstance:
    """Weights and capacities of one pairing round.

    d[n, m] is the value of assigning STA m to AP n (channel-averaged rate),
    ap_capacity[n] = R(n) stations the AP may serve (the LP's constraint
    sum over m of x[n, m] <= R(n)), sta_radio_limits[m] = r(m) links the STA
    may run at once (read by the joint solver; pairing ignores it).
    """

    d: np.ndarray
    ap_capacity: np.ndarray
    sta_radio_limits: np.ndarray

    def __post_init__(self):
        d = np.array(self.d, dtype=float)
        caps = np.array(self.ap_capacity, dtype=int)
        limits = np.array(self.sta_radio_limits, dtype=int)
        if d.ndim != 2 or d.shape[0] < 1:
            raise InvalidInputError(f"d must be (N, M) with N >= 1, got shape {d.shape}")
        if not np.isfinite(d).all() or (d < 0).any():
            raise InvalidInputError("pairing weights must be finite and non-negative")
        if caps.shape != (d.shape[0],) or (caps < 1).any():
            raise InvalidInputError("ap_capacity must hold a positive count per AP")
        if limits.shape != (d.shape[1],) or (limits < 1).any():
            raise InvalidInputError("sta_radio_limits must hold a positive count per STA")
        for a in (d, caps, limits):
            a.setflags(write=False)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "ap_capacity", caps)
        object.__setattr__(self, "sta_radio_limits", limits)

    @cached_property
    def best_ap(self) -> np.ndarray:
        """Each station's best AP, d.argmax(axis=0), read-only."""
        best = self.d.argmax(axis=0)
        best.setflags(write=False)
        return best

    @cached_property
    def _start(self) -> tuple:
        """Kept for the solvers: the refusal when total R(n) cannot serve M, else
        None; the load of `best_ap` and R(n), as lists; whether that over-fills
        an AP; per AP, a slot repairs fill with its start stations' `_loss_row`.
        Two threads can only write equal rows into a slot."""
        caps, m_stas = self.ap_capacity.tolist(), self.d.shape[1]
        load = np.bincount(self.best_ap, minlength=len(caps)).tolist()
        short = f"total AP capacity {sum(caps)} cannot serve {m_stas} stations"
        return (short if sum(caps) < m_stas else None, load, caps,
                any(l > c for l, c in zip(load, caps)), [None] * len(caps))


@dataclass(frozen=True, eq=False)
class PairingMatrix:
    """Assignment of STAs to APs: `owner[m]` is the AP of STA m, -1 when
    unpaired. Read-only and built when first read: `paired`, the AP and STA
    index rows of the pairs, AP-major, and `x`, the dense binary X[n, m]."""

    owner: np.ndarray
    n_aps: int

    def __post_init__(self):
        owner = np.array(self.owner)
        if owner.ndim != 1 or owner.dtype.kind not in "iu" or self.n_aps < 1 \
                or owner.min(initial=0) < -1 or owner.max(initial=0) >= self.n_aps:
            raise InvalidInputError(f"owner must be an AP index below {self.n_aps}, or -1, per STA")
        owner.setflags(write=False)
        object.__setattr__(self, "owner", owner)

    @property
    def m_stas(self) -> int:
        return self.owner.shape[0]

    @cached_property
    def paired(self) -> np.ndarray:
        # a stable sort keeps each AP's stations ascending; the unpaired (-1) lead
        ms = np.argsort(self.owner, kind="stable")[np.count_nonzero(self.owner < 0):]
        pairs = np.stack((self.owner[ms], ms))
        pairs.setflags(write=False)
        return pairs

    @cached_property
    def x(self) -> np.ndarray:
        x = (np.arange(self.n_aps)[:, None] == self.owner).astype(np.int8)
        x.setflags(write=False)
        return x


def objective_value(pairing: PairingMatrix, d) -> float:
    """Total pairing weight sum(d * X): d[owner[m], m] over the paired stations."""
    dv = np.asarray(d, dtype=float)
    shape = (int(pairing.n_aps), pairing.m_stas)
    if dv.shape != shape:
        raise InvalidInputError(f"shape mismatch: d {dv.shape} vs X {shape}")
    aps, stas = pairing.paired
    return float(dv[aps, stas].sum())


# --- solvers -------------------------------------------------------------------


def _require_capacity(instance: PairingInstance) -> None:
    """Every station needs an AP slot: raise unless total R(n) covers M."""
    if instance._start[0] is not None:
        raise InfeasibleError(instance._start[0])


def pair_greedy(instance: PairingInstance) -> PairingMatrix:
    """Locally best assignment: scan edges by descending weight.

    Each station is fixed the first time it appears in the scan, so a heavy
    early edge can strand capacity that a coordinated choice would have used
    elsewhere. Ties break toward the lowest (n, m): the stable sort keeps
    the AP-major order of the flattened weights. Once total R(n) covers M,
    the scan over every edge serves every station: one left over would mean
    every AP was full.
    """
    _require_capacity(instance)
    n_aps, m_stas = instance.d.shape
    order = np.argsort(-instance.d, axis=None, kind="stable")
    owner = [-1] * m_stas
    remaining = instance.ap_capacity.tolist()
    assigned = 0
    ns, ms = np.divmod(order, m_stas)
    for n, m in zip(ns.tolist(), ms.tolist()):
        if assigned == m_stas:
            break
        if owner[m] >= 0 or remaining[n] == 0:
            continue
        owner[m] = n
        remaining[n] -= 1
        assigned += 1
    return PairingMatrix(np.array(owner, dtype=np.intp), n_aps)


def pair_optimal_lp(instance: PairingInstance) -> PairingMatrix:
    """Capacity-respecting assignment maximizing total weight.

    Returns an optimum of the paper's assignment LP (total unimodularity
    makes its vertex integral), found as a min-cost flow. Every station
    starts at its best AP, `instance.best_ap`; no assignment beats that sum,
    so when no AP holds more than R(n) stations it is the optimum. Otherwise
    successive shortest paths repair a copy of it: one multi-source Dijkstra
    over the APs runs from every over-full AP to the nearest AP with a free
    slot, where edge a -> b costs the least loss of moving one of a's
    stations to b, reduced by AP prices; each station on the path moves one
    hop, and the prices rise by the path distances (capped at the target's),
    which keeps every reduced cost non-negative. An AP's loss row is built
    when Dijkstra first pops it and kept until a path changes that AP's
    stations; the instance keeps it across calls while none has. Each call
    returns a new `PairingMatrix`.

    Ties: the start takes the lowest AP index, Dijkstra pops equal
    distances in AP index order, and an edge moves the lowest-indexed of
    equally cheap stations. No particular optimum among ties is promised.
    """
    _require_capacity(instance)
    _, load, caps, over, kept = instance._start
    owner = instance.best_ap
    if over:
        owner = owner.copy()
        _repair_overflow(instance.d, owner, list(load), caps, kept)
    return PairingMatrix(owner, len(caps))


def _loss_row(d: np.ndarray, a: int, stations: list) -> tuple:
    """The least loss of moving one of a's `stations` to each AP, which moves, the stations."""
    sub = d[:, stations]
    loss = sub[a] - sub
    best = loss.argmin(axis=1)
    return loss[np.arange(len(loss)), best].tolist(), best.tolist(), tuple(stations)


def _repair_overflow(d: np.ndarray, owner: np.ndarray, load: list, caps: list,
                     kept: list) -> None:
    """Successive shortest paths: move stations (in `owner` and `load`) until
    no AP is over capacity, at the least total loss of weight."""
    n_aps = len(caps)
    aps = range(n_aps)
    price = [0.0] * n_aps
    # rows[a]: a's `_loss_row`, read from or kept in the instance's `kept` until
    # a path touches a; members[a]: a's stations in ascending order, once listed
    rows = list(kept)
    members = [None] * n_aps
    touched = [False] * n_aps
    while True:
        sources = [a for a in aps if load[a] > caps[a]]
        if not sources:
            return
        dist = [None] * n_aps       # final distance of each popped AP
        tentative = [math.inf] * n_aps
        pred = [-1] * n_aps
        for a in sources:
            tentative[a] = 0.0
        while True:
            a = min(aps, key=tentative.__getitem__)     # the first of equals
            da = dist[a] = tentative[a]
            tentative[a] = math.inf
            if load[a] < caps[a]:
                break
            if rows[a] is None:
                if members[a] is None:
                    members[a] = (owner == a).nonzero()[0].tolist()
                rows[a] = _loss_row(d, a, members[a])
                if not touched[a]:
                    kept[a] = rows[a]
            losses = rows[a][0]
            base = da + price[a]
            for b in aps:
                nd = base + losses[b] - price[b]
                if nd < tentative[b] and dist[b] is None:
                    tentative[b] = nd
                    pred[b] = a
        for b in aps:
            price[b] += da if dist[b] is None else dist[b]
        load[a] += 1
        while pred[a] >= 0:
            src = pred[a]
            if members[src] is None:    # a kept row's stations
                members[src] = list(rows[src][2])
            m = members[src].pop(rows[src][1][a])
            owner[m] = a
            if members[a] is not None:
                members[a].append(m)
                members[a].sort()
            rows[a], touched[a] = None, True
            a = src
        rows[a], touched[a] = None, True
        load[a] -= 1
