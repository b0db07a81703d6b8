"""Reproduction oracles beside the production path.

They check the paper's claims and the controller's shortcuts: the total
unimodularity of the pairing LP's constraint matrix, the exact joint
pairing+allocation optimum against the two-stage pipeline on small
instances, and a slot-level DCF replay against the analytical MAC model.
This module imports the production modules; of the package, only `cli` and
`__init__` import it.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass, replace

import numpy as np

from . import phy
from .allocation import _is_count
from .dcf import AirtimeDurations, DcfParams, airtime_durations, normalized_throughput, \
    solve_bianchi_fixed_point
from .errors import InvalidInputError, SizeLimitError, ValidationError
from .harness import run_apc_loop
from .pairing import PairingInstance
from .rates import RateTensor
from .scenario import Scenario, check_mcs, check_seed

__all__ = [
    "TuCheckResult",
    "JointSolution",
    "build_incidence",
    "check_total_unimodularity",
    "solve_joint_mmkp_bruteforce",
    "simulate_dcf_slots",
    "validate_dcf",
    "compare_joint_vs_two_stage",
    "truncated",
]


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
                    return TuCheckResult(False, tuple(row_idx), witness_cols, float(dets[b]))
    return TuCheckResult(is_tu=True)


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


# --- slot-level DCF replay -----------------------------------------------------


def simulate_dcf_slots(params: DcfParams, n_contenders: int, per: float,
                       n_slots: int, seed: int, durations: AirtimeDurations) -> float:
    """Empirical normalized throughput from a slot-level backoff replay.

    Runs `n_slots` contention slots (idle slots and transmission events each
    count as one). Backoff counters freeze while the channel is busy, double
    on collision up to cw_max, and reset on success. PHY errors are drawn
    i.i.d. with probability `per` on single-transmitter slots. An errored
    attempt burns `t_collision`, as a collision does, and redraws its backoff
    from the current window without doubling it, keeping the simulator
    aligned with the analytical fixed point whose conditional failure
    probability counts collisions only.
    """
    if n_contenders < 1:
        raise InvalidInputError("n_contenders must be >= 1")
    if not 0.0 <= per <= 1.0:
        raise InvalidInputError(f"per must be in [0, 1], got {per!r}")
    if n_slots < 1:
        raise InvalidInputError("n_slots must be >= 1")
    rng = random.Random(seed)
    n = n_contenders
    windows = [params.cw_min] * n
    backoff = [rng.randrange(params.cw_min) for _ in range(n)]

    slots = 0
    busy_time = 0.0
    idle_slots = 0
    payload_time = 0.0

    while slots < n_slots:
        b_min = min(backoff)
        if b_min > 0:
            # jump over the idle run in one step
            idle_slots += b_min
            slots += b_min
            backoff = [b - b_min for b in backoff]
            continue
        tx = [i for i, b in enumerate(backoff) if b == 0]
        if len(tx) == 1:
            i = tx[0]
            if per > 0.0 and rng.random() < per:
                busy_time += durations.t_collision
            else:
                payload_time += durations.payload_airtime
                busy_time += durations.t_success
                windows[i] = params.cw_min
        else:
            busy_time += durations.t_collision
            for i in tx:
                windows[i] = min(2 * windows[i], params.cw_max)
        for i in tx:
            backoff[i] = rng.randrange(windows[i])
        slots += 1

    return payload_time / (idle_slots * params.slot_time + busy_time)


# --- model validation and exact-solver comparison ---------------------------------


MAX_REPLAY_CONTENDERS = 2**20   # the largest contender count `validate_dcf` replays
# a replay cell costs ~0.3 us a slot + 60 ns a slot-contender (2-vCPU x86): ~15 s at a cap
MAX_REPLAY_SLOTS, MAX_REPLAY_WORK = 10**7, 2**28
MAX_TU_WORK = 2**25     # `check-tu`'s determinants, a row subset as 60: ~30 s at 1 us each there


def validate_dcf(*, contenders=(2, 5, 10, 20), pers=(0.0, 0.1, 0.3), mcs_index: int = 6,
                 bandwidth_mhz: int = 40, n_slots: int = 200_000, seed: int = 1) -> list:
    """Cross-check the contention fixed point against the slot simulation,
    both with the default `DcfParams`; a cell past a `MAX_REPLAY_*` cap is refused.

    Returns one record per (n, per) cell with the analytical and simulated
    normalized throughput and their relative error.
    """
    for n in contenders:    # all before the first cell, as the replay holds two lists of n
        if not _is_count(n) or n > MAX_REPLAY_CONTENDERS:
            raise InvalidInputError(f"a contender count must be an integer from 1 to "
                                    f"{MAX_REPLAY_CONTENDERS}, got {n}")
        if n_slots > MAX_REPLAY_SLOTS or n_slots * n > MAX_REPLAY_WORK:
            raise SizeLimitError(f"{n_slots} slots x {n} contenders exceeds the replay's caps of "
                                 f"{MAX_REPLAY_SLOTS} slots and {MAX_REPLAY_WORK} slot-contenders")
    params, seed = DcfParams(), check_seed(seed)
    rate = phy.mcs_data_rate(check_mcs(mcs_index, "mcs_index"), bandwidth_mhz)
    durations = airtime_durations(params, rate)
    records = []
    for n in contenders:
        state = solve_bianchi_fixed_point(params, n)
        for per in pers:
            analytic = normalized_throughput(state, durations, per, params)
            sim = simulate_dcf_slots(params, n, per, n_slots=n_slots,
                                     seed=seed, durations=durations)
            rel = abs(sim - analytic) / analytic if analytic > 0 \
                else 0.0 if sim == analytic else float("inf")
            records.append({"n_contenders": n, "per": per, "analytic": analytic,
                            "simulated": sim, "rel_err": rel})
    return records


def truncated(scenario: Scenario, m_stas: int) -> Scenario:
    """A copy of `scenario` keeping only its first `m_stas` stations."""
    if not 1 <= m_stas <= scenario.m_stas:
        raise ValidationError(f"cannot truncate to {m_stas} of {scenario.m_stas} STAs")
    return replace(scenario, sta_ids=scenario.sta_ids[:m_stas],
                   snr_offsets_db=scenario.snr_offsets_db[:, :, :m_stas],
                   sta_radios=scenario.sta_radios[:m_stas])


def compare_joint_vs_two_stage(scenario: Scenario, *, m_stas: int | None = None,
                               rng_seed=None) -> dict:
    """Exact joint optimum vs the controller's own first step.

    The two-stage value and wall time are those of the first step of
    `run_apc_loop` (optimal pairing, PF) from a cold start. The joint value
    is the exhaustive-search optimum of the same objective on the rate
    tensor and limits that step read, taken from the run's carry. Neither
    wall time includes the run's set-up: the SNR field and that tensor.
    """
    if m_stas is not None:
        scenario = truncated(scenario, m_stas)
    result = run_apc_loop(scenario, iterations=1, rng_seed=rng_seed, timing=True)
    _, record = result.carry.memo[0]    # the one contention a one-step run meets

    t0 = time.perf_counter()
    joint = solve_joint_mmkp_bruteforce(record.rates, record.instance)
    joint_wall = time.perf_counter() - t0

    two_stage = result.final.aggregate_throughput_bps
    return {
        "m_stas": scenario.m_stas,
        "two_stage_objective_bps": two_stage,
        "joint_objective_bps": joint.objective,
        # both are 0 on a network with no usable link
        "ratio": two_stage / joint.objective if joint.objective > 0 else 1.0,
        "two_stage_wall_s": result.final.wall_time_s,
        "joint_wall_s": joint_wall,
    }
