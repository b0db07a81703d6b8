"""AP-STA pairing: exact optimal assignment, greedy baseline, and exact oracles.

Pairing assigns every station to exactly one AP, maximizing the sum of
channel-averaged rates subject to per-AP capacity R(n). The paper states this
as an LP whose constraint matrix is a bipartite incidence matrix; its total
unimodularity makes every basic optimum integral, so the LP optimum is the
optimum of the integer assignment. `pair_optimal_lp` computes that optimum
directly by Kuhn-Munkres on capacity-repeated AP rows (the LP itself is kept
as a test oracle). `check_total_unimodularity` verifies the property by brute
determinant enumeration, and `solve_joint_mmkp_bruteforce` solves the
un-decomposed pairing+allocation problem exactly on small instances for
comparison against the two-stage pipeline.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleError, InvalidInputError, SizeLimitError
from .rates import RateTensor, edge_endpoints

__all__ = [
    "PairingInstance",
    "PairingMatrix",
    "IncidenceMatrix",
    "TuCheckResult",
    "JointSolution",
    "build_incidence",
    "check_total_unimodularity",
    "pair_greedy",
    "pair_optimal_lp",
    "objective_value",
    "solve_joint_mmkp_bruteforce",
]


@dataclass(frozen=True)
class PairingInstance:
    """Weights and capacities of one pairing round.

    d[n, m] is the value of assigning STA m to AP n (channel-averaged rate),
    ap_capacity[n] = R(n) radios at the AP, sta_radio_limits[m] = r(m) radios
    at the STA (carried along for the later per-AP radio budget).
    """

    d: np.ndarray
    ap_capacity: np.ndarray
    sta_radio_limits: np.ndarray

    def __post_init__(self):
        d = np.array(self.d, dtype=float)
        caps = np.array(self.ap_capacity, dtype=int)
        limits = np.array(self.sta_radio_limits, dtype=int)
        if d.ndim != 2:
            raise InvalidInputError(f"d must be (N, M), got shape {d.shape}")
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

    @property
    def n_aps(self) -> int:
        return self.d.shape[0]

    @property
    def m_stas(self) -> int:
        return self.d.shape[1]


@dataclass(frozen=True)
class PairingMatrix:
    """Binary assignment X[n, m]; every STA belongs to at most one AP."""

    x: np.ndarray

    def __post_init__(self):
        x = np.array(self.x)
        if x.ndim != 2:
            raise InvalidInputError(f"pairing matrix must be (N, M), got {x.shape}")
        if not ((x == 0) | (x == 1)).all():
            raise InvalidInputError("pairing matrix entries must be 0 or 1")
        x = x.astype(np.int8)
        if (x.sum(axis=0) > 1).any():
            bad = int(np.argmax(x.sum(axis=0) > 1))
            raise InvalidInputError(f"sta {bad} is assigned to more than one AP")
        x.setflags(write=False)
        object.__setattr__(self, "x", x)

    @property
    def n_aps(self) -> int:
        return self.x.shape[0]

    @property
    def m_stas(self) -> int:
        return self.x.shape[1]

    def pairs(self) -> list:
        """(n, m) tuples of assigned links, AP-major order."""
        ns, ms = np.nonzero(self.x)
        return list(zip(ns.tolist(), ms.tolist()))

    def ap_of(self, m: int) -> int | None:
        col = self.x[:, m]
        return int(np.argmax(col)) if col.any() else None


def objective_value(pairing: PairingMatrix, d) -> float:
    """Total pairing weight sum(d * X)."""
    dv = d.values if hasattr(d, "values") else np.asarray(d, dtype=float)
    if dv.shape != pairing.x.shape:
        raise InvalidInputError(f"shape mismatch: d {dv.shape} vs X {pairing.x.shape}")
    return float((dv * pairing.x).sum())


# --- incidence structure and total unimodularity -------------------------------


@dataclass(frozen=True)
class IncidenceMatrix:
    """Constraint incidence of the assignment polytope.

    Rows are the M station equality constraints followed by the N AP capacity
    constraints; columns are assignment edges, STA-major ((n, m) with m
    outer). Each column has exactly one station 1 and one AP 1.
    """

    sta_rows: np.ndarray
    ap_rows: np.ndarray

    @property
    def stacked(self) -> np.ndarray:
        return np.vstack([self.sta_rows, self.ap_rows])


def build_incidence(n_aps: int, m_stas: int) -> IncidenceMatrix:
    if n_aps < 1 or m_stas < 1:
        raise InvalidInputError("need at least one AP and one STA")
    e = n_aps * m_stas
    sta_rows = np.zeros((m_stas, e), dtype=np.int8)
    ap_rows = np.zeros((n_aps, e), dtype=np.int8)
    col = 0
    for m in range(m_stas):
        for n in range(n_aps):
            sta_rows[m, col] = 1
            ap_rows[n, col] = 1
            col += 1
    sta_rows.setflags(write=False)
    ap_rows.setflags(write=False)
    return IncidenceMatrix(sta_rows=sta_rows, ap_rows=ap_rows)


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


def pair_greedy(instance: PairingInstance) -> PairingMatrix:
    """Locally best assignment: scan edges by descending weight.

    Each station is fixed the first time it appears in the scan, so a heavy
    early edge can strand capacity that a coordinated choice would have used
    elsewhere. Ties break toward the lowest (n, m).
    """
    n_aps, m_stas = instance.n_aps, instance.m_stas
    order = sorted(
        ((n, m) for n in range(n_aps) for m in range(m_stas)),
        key=lambda nm: (-instance.d[nm[0], nm[1]], nm[0], nm[1]),
    )
    x = np.zeros((n_aps, m_stas), dtype=np.int8)
    remaining = instance.ap_capacity.copy()
    assigned = 0
    for n, m in order:
        if assigned == m_stas:
            break
        if x[:, m].any() or remaining[n] == 0:
            continue
        x[n, m] = 1
        remaining[n] -= 1
        assigned += 1
    if assigned < m_stas:
        unserved = [m for m in range(m_stas) if not x[:, m].any()]
        raise InfeasibleError(
            f"total AP capacity {int(instance.ap_capacity.sum())} cannot serve "
            f"{m_stas} stations; unserved: {unserved}"
        )
    return PairingMatrix(x)


def pair_optimal_lp(instance: PairingInstance) -> PairingMatrix:
    """Capacity-respecting assignment maximizing total weight.

    Returns the optimum of the paper's assignment LP, computed exactly by
    Kuhn-Munkres: AP n's weight row is repeated min(R(n), M) times, one row
    per usable radio, and `linear_sum_assignment` pairs every station with
    one row. Total unimodularity makes the LP's vertex an optimum of this
    same integer problem, so the objectives agree. Equal-weight optima are
    broken deterministically by scipy's augmenting-path order over the
    repeated AP rows, taken in AP index order; no particular optimum among
    ties is promised.
    """
    n_aps, m_stas = instance.n_aps, instance.m_stas
    if instance.ap_capacity.sum() < m_stas:
        raise InfeasibleError(
            f"total AP capacity {int(instance.ap_capacity.sum())} < {m_stas} stations"
        )
    from scipy.optimize import linear_sum_assignment  # first use: scipy is slow to load

    rows = np.repeat(np.arange(n_aps), np.minimum(instance.ap_capacity, m_stas))
    r, c = linear_sum_assignment(instance.d[rows], maximize=True)
    x = np.zeros((n_aps, m_stas), dtype=np.int8)
    x[rows[r], c] = 1
    return PairingMatrix(x)


# --- joint exact solver ----------------------------------------------------------


@dataclass(frozen=True)
class JointSolution:
    """Exact optimum of the one-shot pairing+allocation problem."""

    selection: np.ndarray    # (F, N, M) binary link activations
    objective: float

    def pairing(self) -> PairingMatrix:
        return PairingMatrix((self.selection.sum(axis=0) > 0).astype(np.int8))


def solve_joint_mmkp_bruteforce(tensor: RateTensor, instance: PairingInstance, *,
                                max_cells: int = 16, max_channels: int = 3) -> JointSolution:
    """Exhaustive search over every feasible link activation.

    Enumerates, per station, the choice of serving AP and the subset of that
    AP's channels (up to r(m) links), subject to the per-AP radio budget R(n)
    shared across its stations and channels. This is the multidimensional
    knapsack the two-stage pipeline approximates; cost grows as a product of
    per-station choice counts, so instances are capped at
    N*M <= max_cells and F <= max_channels.
    """
    f_count, n_aps, m_stas = tensor.values.shape
    if (n_aps, m_stas) != instance.d.shape:
        raise InvalidInputError("tensor and instance dimensions disagree")
    if n_aps * m_stas > max_cells:
        raise SizeLimitError(
            f"{n_aps} APs x {m_stas} STAs exceeds the {max_cells}-cell enumeration cap"
        )
    if f_count > max_channels:
        raise SizeLimitError(f"{f_count} channels exceeds the {max_channels}-channel cap")

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
                need = len(chans)
                if caps[n] < need:
                    continue
                caps[n] -= need
            choice[m] = i
            descend(m + 1, gain + g)
            if n >= 0:
                caps[n] += need

    descend(0, 0.0)
    selection = np.zeros((f_count, n_aps, m_stas), dtype=np.int8)
    for m, i in enumerate(best_choice):
        _, n, chans = options[m][i]
        for f in chans:
            selection[f, n, m] = 1
    return JointSolution(selection=selection, objective=best_gain)
