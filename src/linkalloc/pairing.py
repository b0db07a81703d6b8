"""AP-STA pairing: exact optimal assignment, greedy baseline, and exact oracles.

Pairing assigns every station to exactly one AP, maximizing the sum of
channel-averaged rates subject to per-AP capacity R(n). The paper states this
as an LP whose constraint matrix is a bipartite incidence matrix; its total
unimodularity makes every basic optimum integral, so the LP optimum is the
optimum of the integer assignment. `pair_optimal_lp` computes that optimum
directly as a min-cost flow: every station starts at its best AP, which
the instance computes once (`PairingInstance.best_ap`), and successive
shortest paths over the APs move stations out of over-full APs at the least
loss (the LP itself is kept as a test oracle). Ties go to the
lowest AP index at the start and in the path search; no particular optimum
among ties is promised. `check_total_unimodularity` verifies the property by
brute determinant enumeration, and `solve_joint_mmkp_bruteforce` solves the
un-decomposed pairing+allocation problem exactly on small instances for
comparison against the two-stage pipeline.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InfeasibleError, InvalidInputError, SizeLimitError
from .rates import RateTensor

__all__ = [
    "PairingInstance",
    "PairingMatrix",
    "TuCheckResult",
    "JointSolution",
    "build_incidence",
    "check_total_unimodularity",
    "pair_greedy",
    "pair_optimal_lp",
    "objective_value",
    "solve_joint_mmkp_bruteforce",
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
    """Total pairing weight sum(d * X)."""
    dv = np.asarray(d, dtype=float)
    if dv.shape != pairing.x.shape:
        raise InvalidInputError(f"shape mismatch: d {dv.shape} vs X {pairing.x.shape}")
    return float((dv * pairing.x).sum())


# --- incidence structure and total unimodularity -------------------------------


def build_incidence(n_aps: int, m_stas: int) -> np.ndarray:
    """Constraint incidence of the assignment polytope, (M + N, N * M).

    Rows are the M station equality constraints followed by the N AP capacity
    constraints; columns are assignment edges, STA-major ((n, m) with m
    outer). Each column has exactly one station 1 and one AP 1.
    """
    if n_aps < 1 or m_stas < 1:
        raise InvalidInputError("need at least one AP and one STA")
    inc = np.zeros((m_stas + n_aps, n_aps * m_stas), dtype=np.int8)
    for m in range(m_stas):
        for n in range(n_aps):
            inc[m, m * n_aps + n] = 1
            inc[m_stas + n, m * n_aps + n] = 1
    inc.setflags(write=False)
    return inc


@dataclass(frozen=True)
class TuCheckResult:
    is_tu: bool
    witness_rows: tuple = ()
    witness_cols: tuple = ()
    witness_det: float = 0.0

    def __bool__(self) -> bool:
        return self.is_tu


def check_total_unimodularity(matrix, max_submatrix: int = 5) -> TuCheckResult:
    """Exhaustively test all square submatrices up to max_submatrix x max_submatrix.

    Every determinant must be -1, 0, or +1. On failure the first offending
    row/column index sets and the determinant are reported. Entries outside
    {-1, 0, 1} are rejected up front (such a matrix cannot be TU and the
    enumeration would be meaningless).

    For each row subset only the distinct nonzero column patterns are kept;
    duplicate or zero columns can never produce a new nonzero determinant.
    Determinants are evaluated in vectorized batches.
    """
    a = np.asarray(matrix)
    if a.ndim != 2 or a.size == 0:
        raise InvalidInputError("matrix must be 2-D and non-empty")
    if not np.isin(a, (-1, 0, 1)).all():
        raise InvalidInputError("total unimodularity requires entries in {-1, 0, 1}")
    if max_submatrix < 1:
        raise InvalidInputError("max_submatrix must be >= 1")
    a = a.astype(np.int8)
    rows, cols = a.shape
    k_max = min(max_submatrix, rows, cols)
    chunk = 200_000
    for k in range(2, k_max + 1):   # 1x1 minors are entries, already validated
        for row_idx in itertools.combinations(range(rows), k):
            sub = a[list(row_idx), :]
            nz = np.flatnonzero(np.any(sub != 0, axis=0))
            if nz.size < k:
                continue
            patterns, first = np.unique(sub[:, nz].T, axis=0, return_index=True)
            if patterns.shape[0] < k:
                continue
            orig_cols = nz[first]
            combos = itertools.combinations(range(patterns.shape[0]), k)
            while True:
                batch = np.array(list(itertools.islice(combos, chunk)), dtype=np.intp)
                if batch.size == 0:
                    break
                mats = patterns[batch].astype(float)       # (B, k, k) rows = columns of A
                dets = np.linalg.det(mats)
                rounded = np.round(dets)
                bad = (np.abs(dets - rounded) > 1e-6) | (np.abs(rounded) > 1)
                if bad.any():
                    b = int(np.argmax(bad))
                    witness_cols = tuple(int(orig_cols[j]) for j in batch[b])
                    return TuCheckResult(
                        is_tu=False,
                        witness_rows=tuple(row_idx),
                        witness_cols=witness_cols,
                        witness_det=float(dets[b]),
                    )
    return TuCheckResult(is_tu=True)


# --- solvers -------------------------------------------------------------------


def _require_capacity(instance: PairingInstance) -> None:
    """Every station needs an AP slot: raise unless total R(n) covers M."""
    total = int(instance.ap_capacity.sum())
    if total < instance.d.shape[1]:
        raise InfeasibleError(
            f"total AP capacity {total} cannot serve {instance.d.shape[1]} stations")


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
    starts at its best AP, `instance.best_ap`, which a shared instance
    computes once; no assignment beats that sum, so when no AP holds more
    than R(n) stations it is the optimum. Otherwise successive shortest
    paths repair a copy of it: one multi-source Dijkstra over the APs runs
    from every over-full AP to the nearest AP with a free slot, where edge
    a -> b costs the least loss of moving one of a's stations to b, reduced
    by AP prices; each station on the path moves one hop, and the prices
    rise by the path distances (capped at the target's), which keeps every
    reduced cost non-negative. An AP's loss row is built when Dijkstra first pops it and
    kept until a path changes that AP's stations.

    Ties: the start takes the lowest AP index, Dijkstra pops equal
    distances in AP index order, and an edge moves the lowest-indexed of
    equally cheap stations. No particular optimum among ties is promised.
    """
    _require_capacity(instance)
    d = instance.d
    n_aps = d.shape[0]
    owner = instance.best_ap
    load = np.bincount(owner, minlength=n_aps).tolist()
    caps = instance.ap_capacity.tolist()
    if any(l > c for l, c in zip(load, caps)):
        owner = owner.copy()
        _repair_overflow(d, owner, load, caps)
    return PairingMatrix(owner, n_aps)


def _repair_overflow(d: np.ndarray, owner: np.ndarray, load: list, caps: list) -> None:
    """Successive shortest paths: move stations (in `owner` and `load`) until
    no AP is over capacity, at the least total loss of weight."""
    n_aps = len(caps)
    aps = range(n_aps)
    ap_index = np.arange(n_aps)
    price = [0.0] * n_aps
    # members[a]: a's stations in ascending order, listed once needed; rows[a]:
    # the least loss of a move from a to each AP, and which of members[a] moves
    members = [None] * n_aps
    rows = [None] * n_aps
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
                sub = d[:, members[a]]
                loss = sub[a] - sub
                best = loss.argmin(axis=1)
                rows[a] = (loss[ap_index, best].tolist(), best.tolist())
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
            m = members[src].pop(rows[src][1][a])
            owner[m] = a
            if members[a] is not None:
                members[a].append(m)
                members[a].sort()
            rows[a] = None
            a = src
        rows[a] = None
        load[a] -= 1


# --- joint exact solver ----------------------------------------------------------


@dataclass(frozen=True, eq=False)
class JointSolution:
    """Exact optimum of the one-shot pairing+allocation problem."""

    selection: np.ndarray    # (F, N, M) binary link activations
    objective: float


def solve_joint_mmkp_bruteforce(tensor: RateTensor, instance: PairingInstance) -> JointSolution:
    """Exhaustive search over every feasible link activation.

    Enumerates, per station, the choice of serving AP and the subset of that
    AP's channels (up to r(m) links), subject to each AP serving at most R(n)
    stations, the pairing LP's constraint. This is the multidimensional
    knapsack the two-stage pipeline approximates; cost grows as a product of
    per-station choice counts, so instances are capped at
    N*M <= 16 and F <= 3.
    """
    f_count, n_aps, m_stas = tensor.values.shape
    if (n_aps, m_stas) != instance.d.shape:
        raise InvalidInputError("tensor and instance dimensions disagree")
    if n_aps * m_stas > 16:
        raise SizeLimitError(f"{n_aps} APs x {m_stas} STAs exceeds the 16-cell enumeration cap")
    if f_count > 3:
        raise SizeLimitError(f"{f_count} channels exceeds the 3-channel cap")

    channel_sets = [
        list(itertools.combinations(range(f_count), k))
        for k in range(f_count + 1)
    ]
    options = []   # per sta: list of (gain, ap, channels)
    for m in range(m_stas):
        opts = [(0.0, -1, ())]
        k_cap = min(int(instance.sta_radio_limits[m]), f_count)
        for n in range(n_aps):
            rates = tensor.values[:, n, m]
            for k in range(1, k_cap + 1):
                for chans in channel_sets[k]:
                    opts.append((float(rates[list(chans)].sum()), n, chans))
        options.append(opts)

    leaves = 1.0
    for opts in options:
        leaves *= len(opts)
    if leaves > 2e8:
        raise SizeLimitError(
            f"enumeration would visit about {leaves:.1e} combinations; "
            "reduce stations, channels, or radios"
        )

    caps = instance.ap_capacity.astype(int).tolist()
    best_gain = -1.0
    best_choice = None
    choice = [0] * m_stas

    def descend(m: int, gain: float) -> None:
        nonlocal best_gain, best_choice
        if m == m_stas:
            if gain > best_gain:
                best_gain = gain
                best_choice = choice.copy()
            return
        for i, (g, n, chans) in enumerate(options[m]):
            if n >= 0:
                if caps[n] == 0:
                    continue
                caps[n] -= 1
            choice[m] = i
            descend(m + 1, gain + g)
            if n >= 0:
                caps[n] += 1

    descend(0, 0.0)
    selection = np.zeros((f_count, n_aps, m_stas), dtype=np.int8)
    for m, i in enumerate(best_choice):
        _, n, chans = options[m][i]
        for f in chans:
            selection[f, n, m] = 1
    return JointSolution(selection=selection, objective=best_gain)
