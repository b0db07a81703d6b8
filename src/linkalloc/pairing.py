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
that start, its loads, its excess over capacity and, per AP, the least loss
of moving one of its start stations to each AP; once the least toward some
AP has left (or from the AP's first pop, if it starts two or more over),
all its start stations, ordered toward each AP by (loss, index). A call
walks a cursor per target down that order past the stations its own paths
moved away, and compares the few they moved in, so a warm call builds no
row with numpy. Ties go to the lowest AP index at the start and in the path
search, and an edge moves the lowest-indexed of equally cheap stations; no
particular optimum among ties is promised. Each solver hands its own
read-only owners to `PairingMatrix` unchecked: `best_ap`, its repaired copy
and the greedy scan hold only AP indices or -1. The total unimodularity
check and the exact joint pairing+allocation solver are reproduction oracles
in `repro`.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InfeasibleError, InvalidInputError, _trusted

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
        None; the load of `best_ap` and R(n), as lists; the stations by which
        that over-fills the APs; per AP, a slot repairs fill with its start
        stations' `_loss_row`, written whole, so two threads can only write
        equal values into it."""
        caps, m_stas = self.ap_capacity.tolist(), self.d.shape[1]
        load = np.bincount(self.best_ap, minlength=len(caps)).tolist()
        short = f"total AP capacity {sum(caps)} cannot serve {m_stas} stations"
        return (short if sum(caps) < m_stas else None, load, caps,
                sum(max(l - c, 0) for l, c in zip(load, caps)), [None] * len(caps))


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
    every AP was full. When `best_ap` over-fills no AP, it is the scan's
    result: each station's first edge is its best AP, which never runs out.
    """
    _require_capacity(instance)
    n_aps, m_stas = instance.d.shape
    if not instance._start[3]:
        return _trusted(PairingMatrix, owner=instance.best_ap, n_aps=n_aps)
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
    owner = np.array(owner, dtype=np.intp)
    owner.setflags(write=False)
    return _trusted(PairingMatrix, owner=owner, n_aps=n_aps)


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
    which keeps every reduced cost non-negative. An AP's loss row is read
    from the instance when Dijkstra first pops it and brought up to date at
    later pops: a station that came in is compared where it moves at less
    loss, and where the one that left was the least, the target's cursor
    moves down the AP's kept order to the next start station still there,
    which is compared with those that came in. Each call returns a new
    `PairingMatrix`.

    Ties: the start takes the lowest AP index, Dijkstra pops equal
    distances in AP index order, and an edge moves the lowest-indexed of
    equally cheap stations. No particular optimum among ties is promised.
    """
    _require_capacity(instance)
    _, load, caps, excess, kept = instance._start
    owner = instance.best_ap
    if excess:
        moved = _repair_overflow(instance.d, owner, load, caps, excess, kept)
        owner = owner.copy()
        for m, a in moved.items():
            owner[m] = a
        owner.setflags(write=False)
    return _trusted(PairingMatrix, owner=owner, n_aps=len(caps))


def _loss_row(d: np.ndarray, a: int, stations: np.ndarray, whole: bool) -> tuple:
    """The least loss of moving one of a's `stations` (ascending) to each AP and
    which moves; if `whole`, also all of them in (loss, index) order toward each
    AP in turn, as one flat array."""
    n_aps = len(d)
    if not len(stations):       # the row of no station, so any that comes in is less
        return [math.inf] * n_aps, [-1] * n_aps, array("q")
    sub = d[:, stations]
    loss = sub[a] - sub
    order = loss.argsort(axis=1, kind="stable") if whole else None
    best = loss.argmin(axis=1) if order is None else order[:, 0]
    return (loss[np.arange(n_aps), best].tolist(), stations[best].tolist(),
            None if order is None else array("q", stations[order].astype(np.int64).tobytes()))


def _repair_overflow(d: np.ndarray, start: np.ndarray, start_load: list, caps: list,
                     excess: int, kept: list) -> dict:
    """Successive shortest paths from the `start` owners: move stations until no
    AP is over capacity, at the least total loss of weight. Returns the AP each
    moved station ends on."""
    n_aps = len(caps)
    aps = range(n_aps)
    load = list(start_load)
    price = [0.0] * n_aps
    unset, far = [None] * n_aps, [math.inf] * n_aps
    dist, tentative, pred = list(unset), list(far), [-1] * n_aps
    # rows[a], from Dijkstra's first pop of a: per AP, the least loss of moving
    # one of a's stations there and which, brought up to date at a's pops for
    # changed[a], the stations that came or went since; cursors[a][b]: the
    # position in a's kept order (toward b from b * k) before which every
    # start station has left a
    rows, cursors = [None] * n_aps, [None] * n_aps
    changed, arrived = {}, {}       # per AP, as lists
    where, cols = {}, {}            # a moved station's AP, and its column of d
    for _ in range(excess):     # a path moves one station out of an over-full AP
        dist[:] = unset             # the final distance of each popped AP
        tentative[:] = far
        for a in aps:
            if load[a] > caps[a]:
                tentative[a], pred[a] = 0.0, -1
        while True:
            da = min(tentative)
            a = tentative.index(da)     # the first of equals
            dist[a], tentative[a] = da, math.inf
            if load[a] < caps[a]:
                break
            if rows[a] is None:
                slot = kept[a]
                if slot is None:
                    slot = kept[a] = _loss_row(d, a, (start == a).nonzero()[0],
                                               start_load[a] - caps[a] > 1)
                rows[a] = [slot[0][:], slot[1][:]]
            if a in changed:
                _update(d, start, a, start_load[a], kept, rows[a], changed.pop(a),
                        arrived.get(a, ()), cursors, where, cols)
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
            m = rows[src][1][a]
            where[m] = a
            arrived.setdefault(a, []).append(m)
            changed.setdefault(a, []).append(m)
            changed.setdefault(src, []).append(m)
            if m in arrived.get(src, ()):
                arrived[src].remove(m)
            a = src
        load[a] -= 1
    return where


def _update(d, start, a, k, kept, row, changed, arrived, cursors, where, cols) -> None:
    """Bring AP a's row up to date for the `changed` stations: one that came in
    is taken where it moves at less loss; where one that left was the least, the
    first of a's k start stations still at a past that target's cursor in a's
    kept order is compared with the `arrived` ones (a's own loss stays 0)."""
    losses, movers = row
    order = None
    for m in changed:
        if where[m] == a:
            col = cols.get(m) or cols.setdefault(m, d[:, m].tolist())
            here = col[a]
            for b, (loss, mover) in enumerate(zip(losses, movers)):
                lm = here - col[b]
                if lm < loss or lm == loss and m < mover:
                    losses[b], movers[b] = lm, m
            continue
        for b, mover in enumerate(movers):
            if mover != m or b == a:
                continue
            if order is None:
                slot = kept[a]
                if slot[2] is None:
                    slot = kept[a] = _loss_row(d, a, (start == a).nonzero()[0], True)
                order = slot[2]
                cursor = cursors[a] = cursors[a] or [k * t for t in range(len(losses))]
            i, end = cursor[b], (b + 1) * k
            while i < end and where.get(order[i], a) != a:
                i += 1
            cursor[b] = i
            loss, mover = (d.item(a, order[i]) - d.item(b, order[i]), order[i]) if i < end \
                else (math.inf, -1)
            for j in arrived:
                col = cols.get(j) or cols.setdefault(j, d[:, j].tolist())
                lj = col[a] - col[b]
                if lj < loss or lj == loss and j < mover:
                    loss, mover = lj, j
            losses[b], movers[b] = loss, mover
