"""End-to-end resource-allocation loop and reporting.

One iteration of the controller: rebuild the rate tensor under the contention
left by the previous selection, pair stations to APs on channel-averaged
rates, allocate radio links per channel, fold the outcome into the moving
averages. `run_apc_loop` iterates that to a fixed count and reports per
iteration; its `allocator="slo"` is the single-link baseline, the same loop
restricted to each AP's home channel (`run_slo_baseline` is an alias).
`run_monte_carlo` repeats runs over SNR/MCS grids with per-round seeds, and
`write_table` serializes every table the package emits.

Timing is opt-in: by default every report carries wall_time_s = 0.0 so that
repeated runs of the same scenario produce byte-identical output files.
"""

from __future__ import annotations

import csv
import io
import json
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import phy
from .allocation import (
    LinkSelection,
    RadioBudget,
    ThroughputState,
    allocate_pf,
    allocate_rr,
    commit_state,
    ewma_update,
    fairness_spread,
    pf_metric,
)
from .dcf import DcfParams, airtime_durations, normalized_throughput, simulate_dcf_slots, \
    solve_bianchi_fixed_point
from .errors import InvalidInputError, ValidationError
from .pairing import PairingInstance, pair_greedy, pair_optimal_lp, \
    solve_joint_mmkp_bruteforce
from .rates import RateTensor, average_over_channels, bootstrap_contenders, \
    build_rate_tensor, edge_index
from .scenario import Scenario

__all__ = [
    "IterationReport",
    "Recommendation",
    "LoopCarry",
    "RunResult",
    "SweepStat",
    "run_apc_loop",
    "run_monte_carlo",
    "run_slo_baseline",
    "emit_results",
    "emit_sweep_stats",
    "write_table",
    "validate_dcf",
    "compare_joint_vs_two_stage",
]

SOLVERS = ("optimal", "greedy")
ALLOCATORS = ("pf", "rr", "slo")


@dataclass(frozen=True)
class IterationReport:
    """Everything observable about one loop iteration."""

    iteration: int
    algorithm: str
    snr_base_db: float
    mcs_label: str
    aggregate_throughput_bps: float
    fairness_spread: float
    per_channel_phi: tuple
    per_channel_metric: tuple
    channel_ids: tuple
    wall_time_s: float
    pairing: object
    selection: LinkSelection


@dataclass(frozen=True)
class Recommendation:
    """Final controller decision for one station."""

    sta_id: str
    ap_id: str | None
    channel_ids: tuple


@dataclass(frozen=True)
class LoopCarry:
    """Opaque continuation token: resume a loop where it stopped."""

    state: ThroughputState
    contenders: tuple
    next_iteration: int


@dataclass(frozen=True)
class RunResult:
    reports: list
    recommendations: list
    carry: LoopCarry

    @property
    def final(self) -> IterationReport:
        return self.reports[-1]


def _mcs_label(scenario: Scenario, mcs_override) -> str:
    if mcs_override is not None:
        return str(mcs_override)
    values = {c.mcs_index for c in scenario.channels}
    for ap in scenario.aps:
        values.update(ap.mcs_overrides.values())
    return str(values.pop()) if len(values) == 1 else "mixed"


def _aggregate_throughput(selection: LinkSelection, c) -> float:
    """Network total: sum of every active link's contention-discounted rate.

    Each link's rate already carries its channel's contention factor for the
    link count the tensor was built with, so the sum is the model's aggregate
    delivered throughput.
    """
    return float((selection.s * c.values).sum())


def _recommendations(scenario: Scenario, pairing, selection: LinkSelection) -> list:
    recs = []
    for m, sta in enumerate(scenario.stas):
        n = pairing.ap_of(m)
        if n is None:
            recs.append(Recommendation(sta.sta_id, None, ()))
            continue
        e = edge_index(n, m, scenario.m_stas)
        cids = tuple(scenario.channels[f].channel_id
                     for f in np.flatnonzero(selection.s[:, e]))
        recs.append(Recommendation(sta.sta_id, scenario.aps[n].ap_id, cids))
    return recs


def _home_channel_mask(scenario: Scenario) -> np.ndarray:
    """usable[f, n]: True on AP n's single-link home channel only, its
    `slo_channel` or else channel n % F (round-robin order)."""
    usable = np.zeros((scenario.f_count, scenario.n_aps), dtype=bool)
    for n, ap in enumerate(scenario.aps):
        f = n % scenario.f_count if ap.slo_channel is None \
            else scenario.channel_index(ap.slo_channel)
        usable[f, n] = True
    return usable


def run_apc_loop(scenario: Scenario, *, solver: str = "optimal", allocator: str = "pf",
                 iterations: int = 30, carry: LoopCarry | None = None,
                 snr_base_db: float | None = None, mcs_override: int | None = None,
                 rng_seed=None, timing: bool = False) -> RunResult:
    """Run the pairing+allocation loop for a fixed number of iterations.

    The per-link SNR field is drawn once per run (seeded), so iterations see a
    static radio environment and all dynamics come from contention feedback
    and the moving averages. Passing the previous run's `carry` continues its
    averages and contention instead of cold-starting, which is how operating
    changes (say, an MCS switch) are evaluated mid-flight.

    `allocator="slo"` is single-link operation, the reference the multi-link
    gains are measured against: every AP serves only on its home channel (its
    `slo_channel`, else channels in round-robin order), each station uses one
    radio, and AP capacities are balanced at ceil(M/N). Contention bootstrap,
    pairing weights and PF allocation see only the home-channel links, so the
    optimal pairing weighs home-channel rates and each paired link runs on
    its home channel when that rate is > 0. It pairs with the optimal solver
    only.
    """
    if solver not in SOLVERS:
        raise InvalidInputError(f"solver must be one of {SOLVERS}, got {solver!r}")
    if allocator not in ALLOCATORS:
        raise InvalidInputError(f"allocator must be one of {ALLOCATORS}, got {allocator!r}")
    if allocator == "slo" and solver != "optimal":
        raise InvalidInputError(f"allocator 'slo' pairs with solver 'optimal' only, "
                                f"got {solver!r}")
    if iterations < 1:
        raise InvalidInputError("iterations must be >= 1")

    seed = scenario.rng_seed if rng_seed is None else rng_seed
    rng = np.random.default_rng(seed)
    snr_field = scenario.snr_field(base_db=snr_base_db, rng=rng)
    label = _mcs_label(scenario, mcs_override)
    base_reported = scenario.snr_base_db if snr_base_db is None else float(snr_base_db)
    if allocator == "slo":
        algorithm = "slo"
        usable = _home_channel_mask(scenario)
        m_stas, n_aps = scenario.m_stas, scenario.n_aps
        caps = np.full(n_aps, -(-m_stas // n_aps), dtype=int)   # balanced ceil(M/N)
        limits = np.ones(m_stas, dtype=int)
    else:
        algorithm = f"{solver}+{allocator}"
        usable = np.ones((scenario.f_count, scenario.n_aps), dtype=bool)
        caps = scenario.ap_capacities()
        limits = scenario.sta_radio_limits()
    link_usable = usable[:, :, None]
    usable_count = usable.sum(axis=0)[:, None]

    state = carry.state if carry is not None else None
    contenders = list(carry.contenders) if carry is not None \
        else bootstrap_contenders(scenario, np.where(link_usable, snr_field, np.nan))
    start_iter = carry.next_iteration if carry is not None else 1

    reports = []
    pairing = None
    selection = None
    for it in range(start_iter, start_iter + iterations):
        t0 = time.perf_counter() if timing else 0.0
        tensor = build_rate_tensor(scenario, contenders=contenders,
                                   snr_field=snr_field, mcs_override=mcs_override)
        c = tensor.to_edges()
        if state is None:
            state = ThroughputState.cold_start(c, scenario.ewma_horizon_t)
        usable_rates = RateTensor(tensor.values * link_usable)
        # mean over usable channels: the plain channel mean unless SLO masks links
        instance = PairingInstance(usable_rates.values.sum(axis=0) / usable_count,
                                   caps, limits)
        pairing = pair_optimal_lp(instance) if solver == "optimal" else pair_greedy(instance)
        budget = RadioBudget.from_pairing(pairing, limits)
        decision_state = state
        if allocator == "rr":
            selection = allocate_rr(pairing, budget, scenario.f_count, scenario.rr_weights)
            state = commit_state(ewma_update(state, selection, c))
        else:
            selection, state = allocate_pf(pairing, budget, usable_rates.to_edges(), state)
        wall = (time.perf_counter() - t0) if timing else 0.0

        metrics = tuple(pf_metric(decision_state, selection, c, f)
                        for f in range(scenario.f_count))
        reports.append(IterationReport(
            iteration=it,
            algorithm=algorithm,
            snr_base_db=base_reported,
            mcs_label=label,
            aggregate_throughput_bps=_aggregate_throughput(selection, c),
            fairness_spread=fairness_spread(metrics),
            per_channel_phi=tuple(float(v) for v in state.phi_cur),
            per_channel_metric=metrics,
            channel_ids=tuple(ch.channel_id for ch in scenario.channels),
            wall_time_s=wall,
            pairing=pairing,
            selection=selection,
        ))
        contenders = selection.per_channel_counts().tolist()

    carry_out = LoopCarry(state=state, contenders=tuple(contenders),
                          next_iteration=start_iter + iterations)
    return RunResult(reports=reports,
                     recommendations=_recommendations(scenario, pairing, selection),
                     carry=carry_out)


def run_slo_baseline(scenario: Scenario, **kwargs) -> RunResult:
    """Single-link baseline: `run_apc_loop(scenario, allocator="slo", ...)`."""
    return run_apc_loop(scenario, allocator="slo", **kwargs)


# --- sweeps ---------------------------------------------------------------------


@dataclass(frozen=True)
class SweepStat:
    """Summary of repeated runs at one (SNR, MCS) operating point."""

    snr_base_db: float
    mcs_label: str
    rounds: int
    throughput_mean_bps: float
    throughput_std_bps: float
    spread_mean: float
    spread_std: float
    min_spread_mean: float


def _mc_round(args):
    scenario, solver, allocator, iterations, snr, mcs, seed = args
    result = run_apc_loop(scenario, solver=solver, allocator=allocator,
                          iterations=iterations, snr_base_db=snr,
                          mcs_override=mcs, rng_seed=seed)
    final = result.final
    spreads = [r.fairness_spread for r in result.reports]
    finite = [s for s in spreads if np.isfinite(s)]
    return (final.aggregate_throughput_bps, final.fairness_spread,
            min(finite) if finite else float("inf"))


def run_monte_carlo(scenario: Scenario, *, snr_points=None, mcs_points=None,
                    rounds: int | None = None, solver: str = "optimal",
                    allocator: str = "pf", iterations: int = 30,
                    workers: int = 1) -> list:
    """Repeat the loop with fresh per-round SNR draws over an operating grid.

    Round k of point i runs with seed [scenario seed, i, k], so any cell of
    the sweep is reproducible in isolation. Returns one `SweepStat` per grid
    point, grid ordered SNR-major.
    """
    snrs = list(snr_points) if snr_points is not None else [scenario.snr_base_db]
    mcss = list(mcs_points) if mcs_points is not None else [None]
    rounds = scenario.monte_carlo_rounds if rounds is None else rounds
    if rounds < 1:
        raise InvalidInputError("rounds must be >= 1")

    jobs = []
    for i, (snr, mcs) in enumerate((s, m) for s in snrs for m in mcss):
        for k in range(rounds):
            jobs.append((scenario, solver, allocator, iterations, snr, mcs,
                         [scenario.rng_seed, i, k]))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_mc_round, jobs, chunksize=1))
    else:
        outcomes = [_mc_round(j) for j in jobs]

    stats = []
    idx = 0
    for snr, mcs in ((s, m) for s in snrs for m in mcss):
        chunk = outcomes[idx:idx + rounds]
        idx += rounds
        tputs = np.array([o[0] for o in chunk])
        spreads = np.array([o[1] for o in chunk])
        min_spreads = np.array([o[2] for o in chunk])
        stats.append(SweepStat(
            snr_base_db=float(snr),
            mcs_label=_mcs_label(scenario, mcs),
            rounds=rounds,
            throughput_mean_bps=float(tputs.mean()),
            throughput_std_bps=float(tputs.std()),
            spread_mean=float(spreads.mean()),
            spread_std=float(spreads.std()),
            min_spread_mean=float(min_spreads.mean()),
        ))
    return stats


# --- emission -------------------------------------------------------------------


def write_table(records, key: str, fmt: str = "csv", out=None) -> str:
    """Serialize flat records to CSV or JSON; returns the text.

    CSV has one header row of the first record's keys, floats written as
    repr(float(v)); JSON is {key: records}. `out` may be a path or a
    writable stream.
    """
    records = list(records)
    if not records:
        raise InvalidInputError(f"no {key} records to write")
    if fmt not in ("csv", "json"):
        raise ValidationError(f"format must be csv or json, got {fmt!r}")
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        header = list(records[0].keys())
        writer.writerow(header)
        for rec in records:
            writer.writerow([repr(float(v)) if isinstance(v, float) else str(v)
                             for v in (rec[k] for k in header)])
        text = buf.getvalue()
    else:
        text = json.dumps({key: records}, indent=2) + "\n"

    if out is not None:
        if hasattr(out, "write"):
            out.write(text)
        else:
            with open(out, "w") as fh:
                fh.write(text)
    return text


def emit_results(reports, fmt: str = "csv", out=None) -> str:
    """Serialize iteration reports with `write_table`; returns the text.

    Column order is fixed: iteration, algorithm, snr_db, mcs,
    aggregate_throughput_bps, fairness_spread, one phi_<channel id> column
    per channel, wall_time_s.
    """
    reports = list(reports)
    cids = reports[0].channel_ids if reports else ()
    records = []
    for r in reports:
        if r.channel_ids != cids:
            raise InvalidInputError("reports mix different channel sets")
        rec = {
            "iteration": r.iteration,
            "algorithm": r.algorithm,
            "snr_db": r.snr_base_db,
            "mcs": r.mcs_label,
            "aggregate_throughput_bps": r.aggregate_throughput_bps,
            "fairness_spread": r.fairness_spread,
        }
        for cid, value in zip(cids, r.per_channel_phi):
            rec[f"phi_{cid}"] = value
        rec["wall_time_s"] = r.wall_time_s
        records.append(rec)
    return write_table(records, "results", fmt, out)


def emit_sweep_stats(stats, fmt: str = "csv", out=None) -> str:
    """Serialize sweep summaries with `write_table`; returns the text."""
    return write_table(({
        "snr_db": s.snr_base_db,
        "mcs": s.mcs_label,
        "rounds": s.rounds,
        "throughput_mean_bps": s.throughput_mean_bps,
        "throughput_std_bps": s.throughput_std_bps,
        "spread_mean": s.spread_mean,
        "spread_std": s.spread_std,
        "min_spread_mean": s.min_spread_mean,
    } for s in stats), "sweep", fmt, out)


# --- model validation and exact-solver comparison ---------------------------------


def validate_dcf(params: DcfParams | None = None, *, contenders=(2, 5, 10, 20),
                 pers=(0.0, 0.1, 0.3), mcs_index: int = 6, bandwidth_mhz: int = 40,
                 n_slots: int = 200_000, seed: int = 1) -> list:
    """Cross-check the contention fixed point against the slot simulation.

    Returns one record per (n, per) cell with the analytical and simulated
    normalized throughput and their relative error.
    """
    params = params if params is not None else DcfParams()
    rate = phy.mcs_data_rate(phy.mcs_entry(mcs_index, bandwidth_mhz))
    durations = airtime_durations(params, rate)
    records = []
    for n in contenders:
        state = solve_bianchi_fixed_point(params, n)
        for per in pers:
            analytic = normalized_throughput(state, durations, per, params)
            sim = simulate_dcf_slots(params, n, per, n_slots=n_slots,
                                     seed=seed, durations=durations)
            rel = abs(sim - analytic) / analytic if analytic > 0 else float("inf")
            records.append({
                "n_contenders": n,
                "per": per,
                "analytic": analytic,
                "simulated": sim,
                "rel_err": rel,
            })
    return records


def compare_joint_vs_two_stage(scenario: Scenario, *, m_stas: int | None = None,
                               rng_seed=None) -> dict:
    """Exact joint optimum vs the decomposed pipeline on one tensor.

    Both solvers see the identical bootstrap-contention rate tensor. The
    two-stage value is the sum of its allocated link rates; the joint value is
    the exhaustive-search optimum of the same objective. Wall times cover just
    the solve (pairing+allocation vs enumeration).
    """
    if m_stas is not None:
        scenario = scenario.truncated(m_stas)
    seed = scenario.rng_seed if rng_seed is None else rng_seed
    rng = np.random.default_rng(seed)
    snr_field = scenario.snr_field(rng=rng)
    tensor = build_rate_tensor(scenario, snr_field=snr_field)
    c = tensor.to_edges()
    caps = scenario.ap_capacities()
    limits = scenario.sta_radio_limits()
    instance = PairingInstance(average_over_channels(tensor).values, caps, limits)

    t0 = time.perf_counter()
    pairing = pair_optimal_lp(instance)
    budget = RadioBudget.from_pairing(pairing, limits)
    state = ThroughputState.cold_start(c, scenario.ewma_horizon_t)
    selection, _ = allocate_pf(pairing, budget, c, state)
    two_stage_wall = time.perf_counter() - t0
    two_stage_value = float((selection.s * c.values).sum())

    t0 = time.perf_counter()
    joint = solve_joint_mmkp_bruteforce(tensor, instance)
    joint_wall = time.perf_counter() - t0

    return {
        "m_stas": scenario.m_stas,
        "two_stage_objective_bps": two_stage_value,
        "joint_objective_bps": joint.objective,
        "ratio": two_stage_value / joint.objective if joint.objective > 0 else float("inf"),
        "two_stage_wall_s": two_stage_wall,
        "joint_wall_s": joint_wall,
    }
