"""End-to-end resource-allocation loop and reporting.

One iteration of the controller: rebuild the rate tensor under the contention
left by the previous selection, pair stations to APs on channel-averaged
rates, allocate radio links per channel, fold the outcome into the moving
averages. `run_apc_loop` iterates that to a fixed count and reports per
iteration; its `allocator="slo"` is the single-link baseline, the same loop
restricted to each AP's home channel (`run_slo_baseline` is an alias).
`run_monte_carlo` repeats runs over SNR/MCS grids with per-round seeds, and
`write_table` serializes every table the package emits.

A step pays only for what changed. The run's constants (`_run_constants`:
the contenders a cold start bootstraps from `Scenario.snr_field`, the MCS
label, SLO's home links, AP capacities, radio budget and the heard links'
`RateLinks`, which hold their PER) are derived once per run, and the field
is not kept, so a tensor build, a miss, evaluates only the
contention-dependent throughput over the heard links. The rate tensor is a
pure function of the scenario, the SNR field, the MCS override and the
contenders per channel, and the loop revisits the same few contender vectors
(two on the bundled fixture, three on a 30-AP/1000-STA network). So each
contention gets one record, built on its first visit: the rates a step
reads (the tensor, masked to the home channels under SLO), the pairing input
weighed from them (which keeps the pairing's start, each station's best AP),
and the last selection made on it, with its pairing, its served rates and
the contention it leaves. `LoopCarry` carries the constants and the
records to the next run, which reuses them when it has the same scenario
object, MCS override, SLO-or-not mode, SNR base and (for drawn scenarios)
seed. Pairing and allocation still run on every step. Allocation reads the
averages, which move on every step; the rest of what it reads (the paired
links' rates, their channel means and where they are usable) the record's
tensor keeps for the last pairing object it saw (`RateTensor.paired_links`),
so PF on a revisited decision only scores, orders and grants the F channels.
Pairing is a pure function of the tensor, but each step's pairing stays its
own call, which the benchmark counts and checks against an independent
solver. A decision equal to the last one made under the same contention
(owner vector and links compared as bytes) shares that one's arrays, so the
reports of a cycling loop do not grow memory, and reads that one's served
rates and next contention. A new decision's served rates and network total
come from one selection x rate product. What a step builds itself (a miss's
tensor, SLO's masked copy, the pairing weights, the solvers' owners, the
allocators' links) it hands over read-only past the public constructors'
checks (`errors._trusted`): rates are finite and >= 0, as `AirtimeDurations`
refuses a non-finite duration and the kernel a PER outside [0, 1], and
`_run_constants` checks the capacities and limits once per run.

A sweep's rounds repeat only for a scenario that draws its SNR bases
(`snr_random_range_db`); on any other, every round would run the same loop,
so a grid point is one job. The jobs run in a process pool of
min(`workers`, jobs) workers when that is more than one, so a one-job sweep
starts none. The pool starts on the first such sweep and is reused by later
sweeps with the same worker count; another count replaces it, and it is shut
down at exit. Each worker gets its jobs as one chunk, so the scenario is
pickled once per worker, not once per job.

Timing is opt-in: by default every report carries wall_time_s = 0.0 so that
repeated runs of the same scenario produce byte-identical output files.
"""

from __future__ import annotations

import atexit
import csv
import io
import json
import numbers
import threading
import time
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .allocation import (
    LinkSelection,
    RadioBudget,
    _is_count,
    _is_radio_count,
    allocate_pf,
    allocate_rr,
    checked_phi,
    fairness_spread,
    instantaneous_rates,
    pf_ratio,
)
from .errors import InvalidInputError, ValidationError, _trusted
from .pairing import PairingInstance, pair_greedy, pair_optimal_lp
from .rates import RateTensor, bootstrap_contenders, build_rate_tensor, rate_links
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
]

SOLVERS = ("optimal", "greedy")
ALLOCATORS = ("pf", "rr", "slo")
# Contender vectors a carry remembers tensors for. The loop revisits two on
# the bundled fixture and three on a 30-AP/1000-STA network.
RATE_MEMO_SIZE = 4


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


@dataclass(frozen=True, eq=False)
class LoopCarry:
    """Opaque continuation token: resume a loop where it stopped.

    Besides the averages `phi` (a tuple of one float per channel; a resumed
    run checks them once and moves them with its own scenario's horizon) and
    the contention it carries the run's constants (`_run_constants`: the
    bootstrap contenders, MCS label, SLO's home links, AP capacities, radio
    budget and the heard links' `RateLinks` with their PER, all read-only;
    no SNR field) and its memo: at most `RATE_MEMO_SIZE` records keyed by
    contender tuple, least recently used first, each (rates, PairingInstance,
    selection, served): the rates a step reads under that contention (SLO's
    masked to the home channels), the pairing input weighed from them, the
    last decision made under it, its pairing included, and that decision's
    served rates (a tuple of floats) and network total from
    `instantaneous_rates`, with the contender tuple it leaves. `run` keys both
    on the run's checked inputs: the scenario object, MCS override,
    SLO-or-not mode, SNR base (by its exact bits) and, for a scenario that
    draws its bases, the seed (`Scenario.run_seed`). Solver and allocator are
    not in the key, as PF and RR, optimal and greedy share records. The next
    run reuses them only under an equal key, and ignores them otherwise. A
    run never alters the carry it was given.
    """

    phi: tuple
    contenders: tuple
    next_iteration: int
    run: tuple | None = None
    constants: tuple = ()
    memo: tuple = ()


@dataclass(frozen=True)
class RunResult:
    reports: list
    carry: LoopCarry
    scenario: Scenario

    @property
    def final(self) -> IterationReport:
        return self.reports[-1]

    @cached_property
    def recommendations(self) -> list:
        """One `Recommendation` per station, read off the final pairing and
        selection when first asked for."""
        return _recommendations(self.scenario, self.final.pairing, self.final.selection)


def _mcs_label(scenario: Scenario, mcs_override) -> str:
    values = set(np.ravel(scenario.mcs_table if mcs_override is None else mcs_override).tolist())
    return str(values.pop()) if len(values) == 1 else "mixed"


def _run_constants(scenario: Scenario, mcs_override, slo: bool, snr_base_db, rng_seed) -> tuple:
    """What a run reads but never changes, derived once per run key and read-only, as
    the carry holds it: a cold start's bootstrap contenders (F ints, of the SNR field,
    which is not kept), the MCS label, SLO's home links (F, N, 1) or None, the AP
    capacities, the radio limits as a `RadioBudget` and the heard links' `RateLinks`,
    which refuse a link SNR out of the PHY model's range."""
    snr_field = scenario.snr_field(base_db=snr_base_db, seed=rng_seed)
    links = rate_links(scenario, snr_field, mcs_override)
    if slo:
        m_stas, n_aps = scenario.m_stas, scenario.n_aps
        home = (np.arange(scenario.f_count)[:, None] == scenario.home_channel)[:, :, None]
        snr_field = np.where(home, snr_field, np.nan)   # camps on home channels only
        caps = np.full(n_aps, -(-m_stas // n_aps), dtype=int)   # balanced ceil(M/N)
        limits = np.ones(m_stas, dtype=int)
        home.setflags(write=False)
    else:
        home, caps, limits = None, scenario.ap_radios, scenario.sta_radios
    caps = np.array(caps, dtype=object)     # checked once: each miss's instance holds it as is
    if caps.shape != (scenario.n_aps,) or not all(map(_is_radio_count, caps.tolist())):
        raise InvalidInputError("ap_capacity must hold a positive count per AP")
    caps = caps.astype(int)
    caps.setflags(write=False)
    return (tuple(bootstrap_contenders(scenario, snr_field)), _mcs_label(scenario, mcs_override),
            home, caps, RadioBudget(limits), links)


def _recommendations(scenario: Scenario, pairing, selection: LinkSelection) -> list:
    recs = []
    for sta_id, n, row in zip(scenario.sta_ids, pairing.owner.tolist(), selection.links.T.tolist()):
        if n >= 0:
            recs.append(Recommendation(sta_id, scenario.ap_ids[n],
                                       tuple(c for c, on in zip(scenario.channel_ids, row) if on)))
        else:
            recs.append(Recommendation(sta_id, None, ()))
    return recs


def _checked_count(name: str, value, below: str | None = None) -> int:
    """An `_is_count` value as an int; else refused naming it, or with `below` if below 1."""
    if not _is_count(value):
        low = below is not None and isinstance(value, numbers.Real) and value < 1
        raise InvalidInputError(below if low else f"{name} must be an integer >= 1, got {value!r}")
    return int(value)


def _check_run_args(scenario: Scenario, solver: str, allocator: str, iterations: int) -> None:
    """Refuse run arguments and horizons that no loop or sweep round could run with."""
    _checked_count("ewma_horizon_t", scenario.ewma_horizon_t)
    if solver not in SOLVERS:
        raise InvalidInputError(f"solver must be one of {SOLVERS}, got {solver!r}")
    if allocator not in ALLOCATORS:
        raise InvalidInputError(f"allocator must be one of {ALLOCATORS}, got {allocator!r}")
    if allocator == "slo" and solver != "optimal":
        raise InvalidInputError(f"allocator 'slo' pairs with solver 'optimal' only, got {solver!r}")
    _checked_count("iterations", iterations, "iterations must be >= 1")


def run_apc_loop(scenario: Scenario, *, solver: str = "optimal", allocator: str = "pf",
                 iterations: int = 30, carry: LoopCarry | None = None,
                 snr_base_db: float | None = None, mcs_override: int | None = None,
                 rng_seed=None, timing: bool = False) -> RunResult:
    """Run the pairing+allocation loop for a fixed number of iterations.

    The per-link SNR field is built once per run (`Scenario.snr_field`, with
    `rng_seed` as its seed), so iterations see a static radio environment
    and all dynamics come from contention feedback and the moving averages.
    Passing the previous run's `carry` continues its averages and contention
    instead of cold-starting, which is how operating changes (say, an MCS
    switch) are evaluated mid-flight. The carry's run constants and rate
    tensors are reused only while the scenario object, the MCS override, the
    SLO-or-not mode, the SNR base and (for a scenario that draws its bases)
    the seed stay the same. `snr_base_db` replaces the scenario's base; a
    scenario that draws each link's base from its `snr_random_range_db`
    refuses it with `ValidationError`.

    `allocator="slo"` is single-link operation, the reference the multi-link
    gains are measured against: every AP serves only on its home channel
    (`Scenario.home_channel`), each station uses one radio, and AP
    capacities are balanced at ceil(M/N). Contention bootstrap, pairing
    weights and PF allocation see only the home-channel links, so the
    optimal pairing weighs home-channel rates and each paired link runs on
    its home channel when that rate is > 0. It pairs with the optimal solver
    only. With `timing`, a report's `wall_time_s` covers its whole step.
    """
    _check_run_args(scenario, solver, allocator, iterations)
    if carry is not None and len(carry.contenders) != scenario.f_count:
        raise InvalidInputError(f"carry covers {len(carry.contenders)} channels, but scenario "
                                f"{scenario.name!r} has {scenario.f_count}")
    phi = checked_phi(carry.phi, scenario.f_count) if carry is not None else None
    mcs_override = scenario.run_mcs(mcs_override)
    seed = scenario.run_seed(rng_seed)
    base_reported = scenario.snr_base(snr_base_db)
    slo = allocator == "slo"
    algorithm = "slo" if slo else f"{solver}+{allocator}"
    run = (scenario, mcs_override, slo, base_reported.hex(), seed)
    if carry is not None and carry.run == run:
        constants, memo = carry.constants, dict(carry.memo)
    else:
        constants, memo = _run_constants(scenario, mcs_override, slo, snr_base_db, rng_seed), {}
    bootstrap, label, home, caps, budget, links = constants

    contenders = tuple(carry.contenders) if carry is not None else bootstrap
    start_iter = carry.next_iteration if carry is not None else 1
    t = float(scenario.ewma_horizon_t)      # converted once, not at every division
    keep = 1.0 - 1.0 / t

    reports = []
    for it in range(start_iter, start_iter + iterations):
        t0 = time.perf_counter() if timing else 0.0
        record = memo.pop(contenders, None)
        if record is None:
            rates = build_rate_tensor(scenario, contenders=contenders, links=links)
            if phi is None:     # a cold run's first step, as its memo is empty
                phi = tuple(rates.values.mean(axis=(1, 2)).tolist())   # first PF metrics near 1
            if slo:     # rates times 0/1 stay finite and >= 0
                masked = rates.values * home
                masked.setflags(write=False)
                rates = _trusted(RateTensor, values=masked)
            # mean over the channels an AP serves on: its home channel alone under SLO
            weights = rates.values.sum(axis=0) / (1 if slo else scenario.f_count)
            weights.setflags(write=False)
            record = (rates, _trusted(PairingInstance, d=weights, ap_capacity=caps,
                                      sta_radio_limits=budget.sta_radio_limits), None, None)
        rates, instance, seen, served = record
        # an equal decision shares the last one's arrays under this contention; a
        # selection only with its pairing, as a carry may come from the other solver
        pairing = pair_optimal_lp(instance) if solver == "optimal" else pair_greedy(instance)
        if seen is not None and pairing.owner.tobytes() == seen.pairing.owner.tobytes():
            pairing = seen.pairing
        selection = allocate_rr(pairing, budget, rates, scenario.rr_weights) \
            if allocator == "rr" else allocate_pf(pairing, budget, rates, phi)
        if seen is not None and selection.pairing is seen.pairing \
                and selection.links.tobytes() == seen.links.tobytes():
            selection = seen
        else:   # a new decision: its served rates and the contention it leaves, kept with it
            inst, total = instantaneous_rates(selection, rates)
            served = (tuple(inst.tolist()), total, tuple(selection.per_channel_counts().tolist()))
        memo[contenders] = (rates, instance, selection, served)   # most recent last
        if len(memo) > RATE_MEMO_SIZE:
            del memo[next(iter(memo))]
        inst, total, contenders = served
        metrics = tuple(map(pf_ratio, inst, phi))
        # phi[f] <- (1 - 1/T) phi[f] + inst[f] / T; served rates are finite and >= 0
        phi = tuple(keep * a + r / t for a, r in zip(phi, inst))
        wall = (time.perf_counter() - t0) if timing else 0.0

        reports.append(IterationReport(
            iteration=it,
            algorithm=algorithm,
            snr_base_db=base_reported,
            mcs_label=label,
            aggregate_throughput_bps=total,
            fairness_spread=fairness_spread(metrics),
            per_channel_phi=phi,
            per_channel_metric=metrics,
            channel_ids=scenario.channel_ids,
            wall_time_s=wall,
            pairing=pairing,
            selection=selection,
        ))

    carry_out = LoopCarry(phi=phi, contenders=contenders,
                          next_iteration=start_iter + iterations, run=run,
                          constants=constants, memo=tuple(memo.items()))
    return RunResult(reports=reports, carry=carry_out, scenario=scenario)


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


_pool = None    # (workers, ProcessPoolExecutor) of the last pooled sweep
_pool_lock = threading.Lock()   # pooled sweeps from several threads take turns


def _shared_pool(workers: int):
    """The pooled sweeps' process pool: started on first use, kept for later
    sweeps with the same worker count, replaced for another count."""
    global _pool
    if _pool is not None and _pool[0] != workers:
        _shutdown_pool()
    if _pool is None:
        # imported here: `import linkalloc` should not load the process pool
        from concurrent.futures.process import ProcessPoolExecutor

        _pool = (workers, ProcessPoolExecutor(max_workers=workers))
    return _pool[1]


@atexit.register    # before module teardown, which the pool's own clean-up needs
def _shutdown_pool():
    global _pool
    if _pool is not None:
        _pool[1].shutdown(wait=True)
        _pool = None


def run_monte_carlo(scenario: Scenario, *, snr_points=None, mcs_points=None,
                    rounds: int | None = None, solver: str = "optimal",
                    allocator: str = "pf", iterations: int = 30,
                    workers: int = 1) -> list:
    """Repeat the loop with fresh per-round SNR draws over an operating grid.

    Round k of point i runs with seed [scenario seed, i, k], so any cell of
    the sweep is reproducible in isolation. Returns one `SweepStat` per grid
    point, grid ordered SNR-major. Rounds repeat only for a scenario that
    draws its SNR bases (`Scenario.run_seed`); on any other a point runs
    once, as round 0, and its stat holds that run's numbers, both std
    columns 0.0 and `rounds` as asked.

    With `workers` > 1 and more than one job in all, the jobs run in the
    shared process pool (see the module docstring) and give the serial
    result. If a worker dies, the sweep raises `BrokenProcessPool` (from
    `concurrent.futures.process`) and the next pooled sweep starts a new pool.
    """
    # no explicit base by default: a scenario that draws its bases takes none
    snrs = list(snr_points) if snr_points is not None else [None]
    mcss = [scenario.run_mcs(m) for m in mcs_points] if mcs_points is not None else [None]
    rounds = scenario.monte_carlo_rounds if rounds is None else rounds
    rounds = _checked_count("rounds", rounds, "rounds must be >= 1")
    workers = _checked_count("workers", workers, f"workers must be >= 1, got {workers}")
    _check_run_args(scenario, solver, allocator, iterations)
    if not snrs or not mcss:
        raise InvalidInputError(f"a sweep needs at least one {'MCS' if snrs else 'SNR'} point")
    # a refused base fails here, before any job reaches the pool
    bases = [scenario.snr_base(snr) for snr in snrs]

    draws = rounds if scenario.run_seed() is not None else 1   # else every round is the same
    jobs = [(scenario, solver, allocator, iterations, snr, mcs, [scenario.rng_seed, i, k])
            for i, (snr, mcs) in enumerate((s, m) for s in snrs for m in mcss)
            for k in range(draws)]
    workers = min(workers, len(jobs))   # no worker without a job
    if workers > 1:
        with _pool_lock:
            pool = _shared_pool(workers)
            from concurrent.futures.process import BrokenProcessPool   # loaded by now

            try:
                # one message per worker: pickle sends the scenario once per chunk
                outcomes = list(pool.map(_mc_round, jobs, chunksize=-(-len(jobs) // workers)))
            except BrokenProcessPool:
                _shutdown_pool()    # so that the next sweep starts a new pool
                raise
    else:
        outcomes = [_mc_round(j) for j in jobs]

    stats = []
    for i, (base, mcs) in enumerate((b, m) for b in bases for m in mcss):
        tputs, spreads, min_spreads = np.array(outcomes[i * draws:(i + 1) * draws]).T
        stats.append(SweepStat(
            snr_base_db=base,
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
    writable stream; a path that cannot be written raises `ValidationError`.
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
            try:
                with open(out, "w") as fh:
                    fh.write(text)
            except OSError as exc:
                raise ValidationError(f"cannot write {out}: {exc.strerror}") from exc
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
