import contextlib
import csv
import dataclasses
import hashlib
import importlib.util
import io
import json
import math
import os
import re
import signal
import subprocess
import sys
import tempfile
import threading
import time
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from linkalloc import allocation, harness, pairing, phy
from linkalloc.allocation import LinkSelection, RadioBudget, fairness_spread, selection_feasible
from linkalloc.cli import main
from linkalloc.dcf import DcfParams
from linkalloc.errors import InfeasibleError, InvalidInputError, ValidationError, _trusted
from linkalloc.pairing import PairingInstance, PairingMatrix, objective_value
from linkalloc.rates import RateTensor, bootstrap_contenders, build_rate_tensor, rate_links
from linkalloc.harness import (
    emit_results,
    emit_sweep_stats,
    run_apc_loop,
    run_monte_carlo,
    run_slo_baseline,
    write_table,
)
from linkalloc.repro import compare_joint_vs_two_stage, truncated, validate_dcf
from linkalloc.scenario import Scenario, bundled_scenario_path, load_scenario

ONE_OF_EVERYTHING = """
name: single
seed: 5
ewma_horizon_t: 10
snr_base_db: 30.0
channels:
  - {id: 1, band: 5GHz, bandwidth_mhz: 40, mcs: 3}
aps:
  - {id: ap1, radios: 1, slo_channel: 1}
stas:
  - {id: sta1, radios: 1, snr_offset_db: 0.0}
"""


def _fixture():
    return load_scenario(bundled_scenario_path("scenario_3ap_15sta"))


def _single():
    return load_scenario(io.StringIO(ONE_OF_EVERYTHING))


def test_single_link_loop_is_forced():
    from linkalloc.rates import build_rate_tensor

    sc = _single()
    result = run_apc_loop(sc, iterations=1)
    report = result.final
    assert report.pairing.x.tolist() == [[1]]
    assert report.selection.s.tolist() == [[[1]]]
    tensor = build_rate_tensor(sc, contenders=np.array([1]))
    assert report.aggregate_throughput_bps == pytest.approx(tensor.values[0, 0, 0])
    assert [r.sta_id for r in result.recommendations] == ["sta1"]
    assert result.recommendations[0].ap_id == "ap1"
    assert result.recommendations[0].channel_ids == (1,)


def test_loop_deterministic_given_seed():
    sc = _fixture()
    a = run_apc_loop(sc, iterations=5, rng_seed=3)
    b = run_apc_loop(sc, iterations=5, rng_seed=3)
    assert emit_results(a.reports) == emit_results(b.reports)
    assert emit_results(a.reports, fmt="json") == emit_results(b.reports, fmt="json")


def test_recommendations_consistent_with_selection():
    sc = _fixture()
    result = run_apc_loop(sc, iterations=3)
    report = result.final
    sta_ids = list(sc.sta_ids)
    ap_ids = list(sc.ap_ids)
    by_sta = {r.sta_id: r for r in result.recommendations}
    triples = {tuple(t) for t in np.argwhere(report.selection.s).tolist()}
    for m, sta in enumerate(sta_ids):
        rec = by_sta.get(sta)
        if rec is None:
            continue
        n = ap_ids.index(rec.ap_id)
        assert report.pairing.x[n, m] == 1
        for cid in rec.channel_ids:
            f = sc.channel_ids.index(cid)
            assert (f, n, m) in triples
    n_links = report.selection.s.sum()
    assert sum(len(r.channel_ids) for r in result.recommendations) == n_links


def test_recommendations_built_when_first_read():
    sc = _fixture()
    with mock.patch.object(harness, "_recommendations",
                           wraps=harness._recommendations) as build:
        result = run_apc_loop(sc, iterations=3)
        assert build.call_count == 0
        recs = result.recommendations
        assert result.recommendations is recs
        assert build.call_count == 1
    final = result.final
    build.assert_called_once_with(sc, final.pairing, final.selection)


def test_loop_carry_continues_state():
    sc = _fixture()
    first = run_apc_loop(sc, iterations=4)
    resumed = run_apc_loop(sc, iterations=2, carry=first.carry)
    assert resumed.reports[0].iteration == 5
    straight = run_apc_loop(sc, iterations=6)
    assert straight.reports[-1].per_channel_phi == pytest.approx(resumed.reports[-1].per_channel_phi)
    # the carry holds the last report's averages, one float per channel
    assert resumed.carry.phi is resumed.final.per_channel_phi
    assert [type(v) for v in resumed.carry.phi] == [float] * sc.f_count


@pytest.mark.parametrize("allocator, checks", [("pf", 11), ("rr", 1), ("slo", 11)])
def test_carried_phi_checked_once_per_run(allocator, checks):
    # the run checks a carry's averages once; after that only PF reads them, and
    # `allocate_pf` checks what it is given, so a warm PF step checks them once
    sc = _fixture()
    carry = run_apc_loop(sc, allocator=allocator, iterations=2).carry
    spy = mock.Mock(wraps=allocation.checked_phi)
    with mock.patch.object(harness, "checked_phi", spy), \
            mock.patch.object(allocation, "checked_phi", spy):
        result = run_apc_loop(sc, allocator=allocator, iterations=10, carry=carry)
    assert spy.call_count == checks
    assert spy.call_args_list[0].args == (carry.phi, sc.f_count)
    assert emit_results(result.reports) == emit_results(run_apc_loop(
        sc, allocator=allocator, iterations=12).reports[2:])


def test_cold_start_state_is_channel_mean():
    # a cold run's first step scores PF against each channel's mean link rate
    # of the tensor it reads; the averages then move with the scenario's horizon
    sc = _fixture()
    field = sc.snr_field()
    tensor = build_rate_tensor(sc, contenders=bootstrap_contenders(sc, field), snr_field=field)
    with mock.patch.object(harness, "allocate_pf", wraps=harness.allocate_pf) as allocate:
        first = run_apc_loop(sc, iterations=1).final
    phi = allocate.call_args_list[0].args[3]
    assert phi == tuple(tensor.values.mean(axis=(1, 2)).tolist())
    inst = harness.instantaneous_rates(first.selection, tensor)[0]
    assert first.per_channel_phi == tuple(oracles.ewma(phi, inst, sc.ewma_horizon_t).tolist())


def test_optimal_pf_beats_greedy_rr_at_high_snr():
    sc = _fixture()
    best = run_apc_loop(sc, solver="optimal", allocator="pf", iterations=25, snr_base_db=20.0, mcs_override=3)
    worst = run_apc_loop(sc, solver="greedy", allocator="rr", iterations=25, snr_base_db=20.0, mcs_override=3)
    assert best.final.aggregate_throughput_bps > worst.final.aggregate_throughput_bps


MCS_OVERRIDDEN = """
name: overridden
channels:
  - {id: 1, band: 5GHz, bandwidth_mhz: 40, mcs: 3}
  - {id: 2, band: 5GHz, bandwidth_mhz: 80, mcs: 7}
aps:
  - {id: ap1, radios: 2, mcs: {2: 3}}
stas:
  - {id: sta1, radios: 2, snr_offset_db: 0.0}
"""


def test_mcs_label_names_the_mcs_every_link_runs():
    # the AP's override puts channel 2 on MCS 3 too, so every link runs MCS 3
    sc = load_scenario(io.StringIO(MCS_OVERRIDDEN))
    assert run_apc_loop(sc, iterations=1).final.mcs_label == "3"
    assert [s.mcs_label for s in run_monte_carlo(sc, rounds=1, iterations=1)] == ["3"]
    assert run_apc_loop(sc, iterations=1, mcs_override=9).final.mcs_label == "9"
    assert run_apc_loop(sc, iterations=1, mcs_override=np.int64(9)).final.mcs_label == "9"
    # a second AP without the override runs MCS 7 on channel 2
    two_aps = MCS_OVERRIDDEN.replace("aps:\n", "aps:\n  - {id: ap0, radios: 1}\n")
    assert run_apc_loop(load_scenario(io.StringIO(two_aps)), iterations=1).final.mcs_label \
        == "mixed"


def test_unknown_solver_or_allocator():
    from linkalloc.errors import InvalidInputError

    sc = _single()
    with pytest.raises(InvalidInputError):
        run_apc_loop(sc, solver="annealing")
    with pytest.raises(InvalidInputError):
        run_apc_loop(sc, allocator="edf")


def test_monte_carlo_single_round_matches_loop():
    sc = _fixture()
    stats = run_monte_carlo(sc, rounds=1, iterations=4)
    assert len(stats) == 1
    stat = stats[0]
    direct = run_apc_loop(sc, iterations=4, rng_seed=[sc.rng_seed, 0, 0])
    assert stat.throughput_mean_bps == pytest.approx(direct.final.aggregate_throughput_bps)
    assert stat.throughput_std_bps == 0.0
    assert stat.rounds == 1


def test_monte_carlo_std_zero_without_randomness():
    sc = load_scenario(bundled_scenario_path("scenario_slo"))
    stats = run_monte_carlo(sc, rounds=3, iterations=4)
    assert stats[0].throughput_std_bps == 0.0
    assert stats[0].spread_std == 0.0


def _swept(sc, workers, **grid):
    """A sweep's stats and the `_mc_round` arguments of its rounds: spied on
    when serial, and when pooled read off the jobs the pool maps it over."""
    if workers == 1:
        with mock.patch.object(harness, "_mc_round", wraps=harness._mc_round) as spy:
            return run_monte_carlo(sc, **grid), [c.args[0] for c in spy.call_args_list]
    from concurrent.futures.process import ProcessPoolExecutor

    jobs, pool_map = [], ProcessPoolExecutor.map

    def spy(pool, fn, iterable, **kwargs):
        assert fn is harness._mc_round
        jobs.extend(iterable)
        return pool_map(pool, fn, jobs, **kwargs)

    with mock.patch.object(ProcessPoolExecutor, "map", spy):
        return run_monte_carlo(sc, workers=workers, **grid), jobs


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("name, draws", [("scenario_2ap_joint", 3), ("scenario_3ap_15sta", 1),
                                         ("scenario_slo", 1)])
def test_rounds_repeat_only_where_the_scenario_draws(name, draws, workers):
    sc = load_scenario(bundled_scenario_path(name))
    assert (sc.run_seed() is not None) == (draws > 1)
    stats, jobs = _swept(sc, workers, mcs_points=[3, 9], rounds=3, iterations=2)
    assert [job[-1] for job in jobs] == [[sc.rng_seed, i, k] for i in range(2)
                                         for k in range(draws)]
    assert [s.rounds for s in stats] == [3, 3]
    if workers == 2:
        assert stats == _swept(sc, 1, mcs_points=[3, 9], rounds=3, iterations=2)[0]


@pytest.mark.parametrize("name", ["scenario_3ap_15sta", "scenario_slo"])
def test_sweep_without_draws_reports_its_one_run(name):
    sc = load_scenario(bundled_scenario_path(name))
    grid = dict(snr_points=[5.0, 20.0], mcs_points=[3], iterations=4)
    seven, one = run_monte_carlo(sc, rounds=7, **grid), run_monte_carlo(sc, rounds=1, **grid)
    assert [s.rounds for s in seven] == [7, 7]
    assert [dataclasses.replace(s, rounds=1) for s in seven] == one
    for stat in seven:
        run = run_apc_loop(sc, iterations=4, snr_base_db=stat.snr_base_db, mcs_override=3)
        spreads = [r.fairness_spread for r in run.reports]
        assert (stat.throughput_mean_bps, stat.spread_mean, stat.min_spread_mean) == \
            (run.final.aggregate_throughput_bps, run.final.fairness_spread, min(spreads))
        assert stat.throughput_std_bps == 0.0 and stat.spread_std == 0.0


# SHA-256 of the sweep CSV, as the sweep wrote it when every round ran
SWEEP_DIGESTS = [
    ("scenario_2ap_joint", dict(rounds=3),
     "a16d5e44067d117cc8891d5777717e5b55a8d9f7ab380466eb9b11f019aa7701"),
    ("scenario_2ap_joint", dict(rounds=9),
     "8f12a556ee2407ff478e14b1e8621a8dc738f75da0dc8efb7176c5cbf9b0c8da"),
    ("scenario_2ap_joint", dict(rounds=3, mcs_points=[3, 9]),
     "a18f535105567d1df1f42e87d16a8760f888695b04df5b11c4d23de83a1e4e9a"),
    ("scenario_3ap_15sta", dict(rounds=1, snr_points=[5.0, 20.0], mcs_points=[3, 9]),
     "c23a5c964c9a1b7b98b7ab3e9ab3d28e6b6a474b2289d1a663b1022b01102df2"),
    ("scenario_slo", dict(rounds=1),
     "aa37ce9bb21113bff3a064e420fa51979879b1d6530f5f62bad279e49ae6ca2c"),
]


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("name, grid, digest", SWEEP_DIGESTS,
                         ids=["drawn-3", "drawn-9", "drawn-3-mcs", "once-grid", "once"])
def test_drawn_and_one_round_sweeps_keep_their_pinned_csv(name, grid, digest, workers):
    sc = load_scenario(bundled_scenario_path(name))
    text = emit_sweep_stats(run_monte_carlo(sc, iterations=5, workers=workers, **grid))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_monte_carlo_throughput_monotone_in_snr():
    sc = load_scenario(bundled_scenario_path("scenario_slo"))
    stats = run_monte_carlo(sc, snr_points=[2.0, 6.0, 10.0, 14.0], rounds=1, iterations=5)
    means = [s.throughput_mean_bps for s in stats]
    assert all(a <= b + 1e-9 for a, b in zip(means, means[1:]))


def test_monte_carlo_grid_order_snr_major():
    sc = load_scenario(bundled_scenario_path("scenario_slo"))
    stats = run_monte_carlo(sc, snr_points=[5.0, 10.0], mcs_points=[1, 3], rounds=1, iterations=2)
    assert [(s.snr_base_db, s.mcs_label) for s in stats] == [
        (5.0, "1"), (5.0, "3"), (10.0, "1"), (10.0, "3")]


# --- the sweep's process pool ---------------------------------------------------

POOL_GRID = dict(snr_points=[5.0, 20.0], mcs_points=[3, 9], rounds=2, iterations=5)


@pytest.fixture
def pool_builds():
    """A spy on the pools the sweep builds, from no pool; none is left running."""
    from concurrent.futures import process

    harness._shutdown_pool()
    with mock.patch.object(process, "ProcessPoolExecutor",
                           wraps=process.ProcessPoolExecutor) as spy:
        yield spy
    harness._shutdown_pool()


def test_explicit_snr_base_refused_before_the_pool():
    sc = load_scenario(bundled_scenario_path("scenario_2ap_joint"))   # draws its bases
    with mock.patch.object(harness, "_shared_pool", side_effect=AssertionError("pool")), \
            mock.patch.object(harness, "_mc_round", side_effect=AssertionError("job")), \
            pytest.raises(ValidationError, match=r"so it takes no SNR base \(got 5\.0\)"):
        run_monte_carlo(sc, snr_points=[5.0], rounds=2, workers=2)


def test_unknown_mcs_refused_before_the_pool():
    with mock.patch.object(harness, "_shared_pool", side_effect=AssertionError("pool")), \
            mock.patch.object(harness, "_mc_round", side_effect=AssertionError("job")), \
            pytest.raises(ValidationError, match=r"^mcs_override: unknown MCS 12$"):
        run_monte_carlo(_fixture(), mcs_points=[3, 12], rounds=2, workers=2)


@pytest.mark.parametrize("override, msg", [(True, "expected an integer, got True"),
                                           (3.0, "expected an integer, got 3.0"),
                                           (12, "unknown MCS 12"), (-1, "unknown MCS -1")])
def test_mcs_override_follows_the_mcs_rule(override, msg):
    sc = _fixture()
    with mock.patch.object(harness, "build_rate_tensor", side_effect=AssertionError("tensor")), \
            pytest.raises(ValidationError, match=f"^mcs_override: {msg}$"):
        run_apc_loop(sc, iterations=1, mcs_override=override)
    with pytest.raises(ValidationError, match=f"^mcs_override: {msg}$"):
        build_rate_tensor(sc, mcs_override=override)


def test_mcs_override_without_a_per_table_refused_before_any_tensor(tmp_path):
    (tmp_path / "per.csv").write_text("esnr_db,per\n0.0,1.0\n20.0,0.0\n")
    (tmp_path / "s.yaml").write_text(ONE_OF_EVERYTHING.replace(
        "seed: 5", "seed: 5\nper_model: {kind: table, tables: {3: per.csv}}"))
    sc = load_scenario(tmp_path / "s.yaml")
    assert run_apc_loop(sc, iterations=1, mcs_override=3).final.mcs_label == "3"
    with mock.patch.object(harness, "build_rate_tensor", side_effect=AssertionError("tensor")), \
            pytest.raises(ValidationError, match="^no PER table configured for MCS 9$"):
        run_apc_loop(sc, iterations=1, mcs_override=9)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("grid, what", [({"snr_points": []}, "SNR"),
                                        ({"mcs_points": []}, "MCS")])
def test_empty_grid_refused_before_the_pool(grid, what, workers):
    with mock.patch.object(harness, "_shared_pool", side_effect=AssertionError("pool")), \
            mock.patch.object(harness, "_mc_round", side_effect=AssertionError("job")), \
            pytest.raises(InvalidInputError, match=f"needs at least one {what} point"):
        run_monte_carlo(_fixture(), rounds=2, workers=workers, **grid)


@pytest.mark.parametrize("args, msg", [
    ({"solver": "bogus"}, "solver must be one of ('optimal', 'greedy'), got 'bogus'"),
    ({"allocator": "bogus"}, "allocator must be one of ('pf', 'rr', 'slo'), got 'bogus'"),
    ({"allocator": "slo", "solver": "greedy"},
     "allocator 'slo' pairs with solver 'optimal' only, got 'greedy'"),
    ({"iterations": 0}, "iterations must be >= 1"),
], ids=["solver", "allocator", "slo-greedy", "iterations"])
def test_run_arguments_refused_before_the_pool(args, msg):
    with mock.patch.object(harness, "_shared_pool", side_effect=AssertionError("pool")), \
            mock.patch.object(harness, "_mc_round", side_effect=AssertionError("job")), \
            pytest.raises(InvalidInputError, match=f"^{re.escape(msg)}$"):
        run_monte_carlo(_fixture(), rounds=2, workers=2, **args)
    with pytest.raises(InvalidInputError, match=f"^{re.escape(msg)}$"):
        run_apc_loop(_fixture(), **args)


# one rule for every count a run takes: an integer (numpy's too), not a bool, >= 1;
# a number below 1 keeps the message it always had, anything else names the count
@pytest.mark.parametrize("args, msg", [
    ({"iterations": 2.0}, "iterations must be an integer >= 1, got 2.0"),
    ({"iterations": True}, "iterations must be an integer >= 1, got True"),
    ({"iterations": "3"}, "iterations must be an integer >= 1, got '3'"),
    ({"iterations": 0.5}, "iterations must be >= 1"),
    ({"iterations": False}, "iterations must be >= 1"),
    ({"rounds": 2.0}, "rounds must be an integer >= 1, got 2.0"),
    ({"rounds": np.True_}, "rounds must be an integer >= 1, got np.True_"),
    ({"rounds": -1.5}, "rounds must be >= 1"),
    ({"workers": 2.0}, "workers must be an integer >= 1, got 2.0"),
    ({"workers": None}, "workers must be an integer >= 1, got None"),
    ({"workers": np.float64(0.0)}, "workers must be >= 1, got 0.0"),
])
def test_counts_refused_by_one_rule_before_any_field_or_pool(args, msg):
    match = f"^{re.escape(msg)}$"
    with mock.patch.object(Scenario, "snr_field", side_effect=AssertionError("field")), \
            mock.patch.object(harness, "_shared_pool", side_effect=AssertionError("pool")), \
            mock.patch.object(harness, "_mc_round", side_effect=AssertionError("job")):
        with pytest.raises(InvalidInputError, match=match):
            run_monte_carlo(_fixture(), **{"rounds": 2, "workers": 2, **args})
        if "iterations" in args:
            with pytest.raises(InvalidInputError, match=match):
                run_apc_loop(_fixture(), **args)


def test_numpy_integer_counts_run_as_python_ints():
    sc = _fixture()
    stats = run_monte_carlo(sc, rounds=np.int64(2), iterations=np.int32(2), workers=np.int64(1))
    assert stats == run_monte_carlo(sc, rounds=2, iterations=2)
    assert type(stats[0].rounds) is int
    assert json.loads(emit_sweep_stats(stats, fmt="json"))["sweep"][0]["rounds"] == 2
    assert emit_results(run_apc_loop(sc, iterations=np.uint8(3)).reports) == \
        emit_results(run_apc_loop(sc, iterations=3).reports)


@pytest.mark.parametrize("solver,allocator", [("optimal", "pf"), ("greedy", "pf"),
                                              ("greedy", "rr")])
def test_pooled_sweep_equals_serial(solver, allocator):
    sc = _fixture()
    serial = run_monte_carlo(sc, solver=solver, allocator=allocator, workers=1, **POOL_GRID)
    pooled = run_monte_carlo(sc, solver=solver, allocator=allocator, workers=2, **POOL_GRID)
    assert len(pooled) == 4 and pooled == serial


@pytest.mark.parametrize("snrs", [[5.0, 20.0, 5000.0, 6000.0],    # the second chunk fails
                                  [5.0, 5000.0, 20.0, 6000.0]])   # both chunks fail
def test_pooled_sweep_raises_the_first_failure_in_order(snrs):
    sc = _fixture()
    raised = []
    for workers in (1, 2):
        with pytest.raises(InvalidInputError) as exc:
            run_monte_carlo(sc, snr_points=snrs, rounds=1, iterations=2, workers=workers)
        raised.append(str(exc.value))
    assert raised[0] == raised[1]
    assert "5001.28 dB" in raised[0]


def test_pool_kept_for_its_worker_count_and_replaced_for_another(pool_builds):
    sc = _fixture()
    serial = run_monte_carlo(sc, **POOL_GRID)
    assert run_monte_carlo(sc, workers=2, **POOL_GRID) == serial
    old = harness._shared_pool(2)
    assert run_monte_carlo(sc, workers=2, **POOL_GRID) == serial
    assert pool_builds.call_count == 1
    # another count replaces the pool; built without a job, it starts no worker
    harness._shared_pool(3)
    assert pool_builds.call_count == 2
    assert pool_builds.call_args.kwargs == {"max_workers": 3}
    with pytest.raises(RuntimeError, match="after shutdown"):
        old.submit(int)


def test_pool_capped_at_the_job_count(pool_builds):
    sc = _fixture()     # draws nothing: one job per grid point
    two_jobs = dict(POOL_GRID, snr_points=[5.0])
    assert run_monte_carlo(sc, workers=6, **two_jobs) == run_monte_carlo(sc, **two_jobs)
    assert pool_builds.call_count == 1
    assert pool_builds.call_args.kwargs == {"max_workers": 2}
    # POOL_GRID's 4 points, 4 jobs, on 2 workers keep that pool
    assert run_monte_carlo(sc, workers=2, **POOL_GRID) == run_monte_carlo(sc, **POOL_GRID)
    assert pool_builds.call_count == 1


def test_one_job_sweep_starts_no_pool(pool_builds):
    sc = load_scenario(bundled_scenario_path("scenario_slo"))
    assert run_monte_carlo(sc, rounds=1, workers=6) == run_monte_carlo(sc, rounds=1)
    assert pool_builds.call_count == 0 and harness._pool is None


def test_pooled_sweeps_from_threads_share_one_pool(pool_builds):
    sc = _fixture()
    serial = run_monte_carlo(sc, **POOL_GRID)
    results = []

    def sweep():
        results.append(run_monte_carlo(sc, workers=2, **POOL_GRID))

    threads = [threading.Thread(target=sweep) for _ in range(4)]   # more than the cores
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == [serial] * 4
    assert pool_builds.call_count == 1


def test_pool_rebuilt_after_a_worker_dies(pool_builds):
    from concurrent.futures.process import BrokenProcessPool

    sc = _fixture()
    serial = run_monte_carlo(sc, **POOL_GRID)
    assert run_monte_carlo(sc, workers=2, **POOL_GRID) == serial
    pid = harness._shared_pool(2).submit(os.getpid).result()
    assert pid != os.getpid()
    os.kill(pid, signal.SIGKILL)
    deadline = time.monotonic() + 30
    while True:     # the pool reaps its workers once it sees that one died
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            break
        assert time.monotonic() < deadline, "the killed worker was never reaped"
        time.sleep(0.01)
    with pytest.raises(BrokenProcessPool):
        run_monte_carlo(sc, workers=2, **POOL_GRID)
    assert run_monte_carlo(sc, workers=2, **POOL_GRID) == serial
    assert pool_builds.call_count == 2


def test_pooled_sweeps_exit_cleanly():
    # The pool is shut down at exit. Left to module teardown, its clean-up
    # would find its own module cleared and print an ignored exception; a
    # daemon thread still running at exit keeps the package alive into that
    # teardown, as a test runner does.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(harness.__file__).parents[1]), env.get("PYTHONPATH", "")])
    code = """
import threading, time
import linkalloc
from linkalloc import harness
sc = linkalloc.load_scenario(linkalloc.bundled_scenario_path("scenario_2ap_joint"))
a = linkalloc.run_monte_carlo(sc, rounds=2, iterations=3, workers=2)
b = linkalloc.run_monte_carlo(sc, rounds=2, iterations=3, workers=2)
assert a == b
assert harness._pool is not None and harness._pool[0] == 2    # two drawn rounds, two jobs
threading.Thread(target=lambda: time.sleep(3600), daemon=True).start()
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")


def test_slo_single_channel_coincides_with_mlo():
    sc = load_scenario(bundled_scenario_path("scenario_slo"))
    slo = run_slo_baseline(sc, iterations=6)
    mlo = run_apc_loop(sc, solver="optimal", allocator="pf", iterations=6)
    assert slo.final.aggregate_throughput_bps == pytest.approx(
        mlo.final.aggregate_throughput_bps, rel=1e-9)


def test_slo_below_multi_link_on_fixture():
    sc = _fixture()
    slo = run_slo_baseline(sc, iterations=10, snr_base_db=15.0, mcs_override=3)
    mlo = run_apc_loop(sc, iterations=10, snr_base_db=15.0, mcs_override=3)
    assert slo.final.aggregate_throughput_bps < mlo.final.aggregate_throughput_bps


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_loop_outputs_pinned(capsys):
    # SHA-256 of the loop's outputs. The SLO hashes held while the separate
    # single-link loop became allocator="slo" of run_apc_loop, the PF/RR
    # hashes while links moved from flat edge ids to the (F, N, M) layout.
    # All were re-pinned once when the rate path took one rounding (the
    # decisions under them did not move)
    sc = _fixture()
    ladder = "".join(emit_results(run_slo_baseline(sc, iterations=10, snr_base_db=snr,
                                                   mcs_override=mcs).reports)
                     for snr in (5.0, 10.0, 15.0, 20.0) for mcs in (3, 9))
    assert _sha256(ladder) == "3c7782599ce894f2e1050e3a3740d2cefd2dc21b28db8844d38c49c7f21e248c"
    default = "a279fa5f2b6331d6c872d88fd0254ea992354f5afe6d57a7562628b7f098114e"
    assert _sha256(emit_results(run_slo_baseline(sc).reports)) == default
    assert main(["run", "--scenario", "scenario_3ap_15sta", "--allocator", "slo"]) == 0
    assert _sha256(capsys.readouterr().out) == default
    pinned = {
        ("optimal", "pf"): "d47561f60554fa4d575f322086e37e3aac342e080738983ccab58f62bf3e31cc",
        ("optimal", "rr"): "1b701cb8ba48421f71009f44e0d938c0f40dc0e3490a2ffeac19c142f4671698",
        ("greedy", "pf"): "18dd392c8f936b8fd19e3c865458bd97faeb00dd5438d52d9a6adf8400caca0f",
        ("greedy", "rr"): "fda716a9837aa67948e236fa0e5bbafb7035cddab5e0a22fe580037782077526",
    }
    for (solver, allocator), digest in pinned.items():
        result = run_apc_loop(sc, solver=solver, allocator=allocator)
        assert _sha256(emit_results(result.reports)) == digest, (solver, allocator)


# bench/synth.py's synth_yaml(1, 10, 200), checked in so that it does not
# move when the generator does
SYNTH_10X200 = Path(__file__).parent / "data" / "synth_10x200_seed1.yaml"


def test_decisions_pinned_at_scale():
    # SHA-256 of 40 iterations on a 10-AP/200-station network: the CSV, and
    # every report's dense pairing, selection and unallocated links, which
    # the CSV sees only through the rates they produce
    sc = load_scenario(SYNTH_10X200)
    pinned = {
        ("optimal", "pf"): ("377b5b035a82f1c525ae5a29feb4a585caf2eaa49a0e51499c2b0006751d7195",
                            "d33b7429aa03f318f9af48690d0d769ee7c54c2e22287852afe77fca90eb8d16"),
        ("greedy", "pf"): ("705ac76e6a938ff513141eaa13ffa9ae7977a69089b5d615933df2e861d471f7",
                           "d33b7429aa03f318f9af48690d0d769ee7c54c2e22287852afe77fca90eb8d16"),
        ("greedy", "rr"): ("8588a0d01773f47a1e291bf8cf2df79ce08b84a8d887fab7fed78f44d94b33d4",
                           "5a138f8aa6fa052a38bc332f38526bb8219aaed6acda96e169a935e3cadbc1f7"),
        ("optimal", "slo"): ("68008c727a8928b3eb79f6597b5af70f5394f89e3565a5f7a8a9f7799a846d4e",
                             "b1cfc827d910ed6d888e9b0f58c86019e79d75d0faba1ff5a21f3fb4e159688d"),
    }
    for (solver, allocator), (csv_digest, decisions_digest) in pinned.items():
        reports = run_apc_loop(sc, solver=solver, allocator=allocator, iterations=40).reports
        decisions = hashlib.sha256()
        for r in reports:
            decisions.update(r.pairing.x.tobytes())
            decisions.update(r.selection.s.tobytes())
            decisions.update(repr(r.selection.unallocated_edges).encode())
        assert _sha256(emit_results(reports)) == csv_digest, (solver, allocator)
        assert decisions.hexdigest() == decisions_digest, (solver, allocator)


@st.composite
def _small_scenario_docs(draw):
    """1-3 channels, 1-3 APs, 1-5 STAs. A station's `snr_offset_db` takes any
    of the schema's forms: one scalar, or per AP a scalar, None,
    `out-of-range` or a map by channel with the same choices but the map;
    None and `out-of-range`, like the APs and channels left out, are
    out-of-range links. APs may override channel MCSs and name a home
    channel. A document may draw each link's SNR base from a range
    (`snr_random_range_db`) and give RR weights (1-4 slices per channel)."""
    cids = list(range(1, draw(st.integers(1, 3)) + 1))
    ap_ids = [f"ap{n}" for n in range(draw(st.integers(1, 3)))]
    offset = st.integers(-30, 30).map(float)
    per_channel = st.dictionaries(st.sampled_from(cids),
                                  st.one_of(offset, st.none(), st.just("out-of-range")))
    per_ap = st.one_of(per_channel, offset, st.none(), st.just("out-of-range"))
    stas = []
    for m in range(draw(st.integers(1, 5))):
        if draw(st.integers(0, 4)) == 0:
            offsets = draw(offset)
        else:
            offsets = {ap: draw(per_ap) for ap in ap_ids if draw(st.integers(0, 3))}
            if not any(isinstance(v, float) or isinstance(v, dict)
                       and any(isinstance(x, float) for x in v.values())
                       for v in offsets.values()):
                offsets[ap_ids[0]] = {cids[0]: 0.0}   # the schema needs one in-range link
        stas.append({"id": f"sta{m}", "radios": draw(st.integers(1, 3)),
                     "snr_offset_db": offsets})
    aps = []
    for ap in ap_ids:
        doc = {"id": ap, "radios": draw(st.integers(1, 4))}
        home = draw(st.sampled_from([None] + cids))
        if home is not None:
            doc["slo_channel"] = home
        overrides = draw(st.dictionaries(st.sampled_from(cids), st.integers(0, 11), max_size=2))
        if overrides:
            doc["mcs"] = overrides
        aps.append(doc)
    doc = {
        "seed": draw(st.integers(0, 100)),
        "snr_base_db": float(draw(st.sampled_from([0, 10, 20, 30]))),
        "channels": [{"id": cid, "band": "5GHz",
                      "bandwidth_mhz": draw(st.sampled_from([20, 40, 80])),
                      "mcs": draw(st.integers(0, 11))} for cid in cids],
        "aps": aps,
        "stas": stas,
    }
    if draw(st.integers(0, 3)) == 0:
        lo = float(draw(st.integers(-10, 30)))
        doc["snr_random_range_db"] = [lo, lo + draw(st.integers(0, 10))]
    if draw(st.integers(0, 3)) == 0:
        doc["rr_weights"] = {cid: draw(st.integers(1, 4)) for cid in cids}
    return doc


def _small_scenarios():
    """(raw document, loaded scenario) pairs."""
    return _small_scenario_docs().map(
        lambda doc: (doc, load_scenario(io.StringIO(yaml.safe_dump(doc)))))


@settings(max_examples=60, deadline=None)
@given(_small_scenarios())
def test_loaded_arrays_match_a_walk_of_the_document(doc_sc):
    doc, sc = doc_sc
    offsets, mcs, home, ap_ids, sta_ids, ap_radios, sta_radios, cids, widths = \
        oracles.document_arrays(doc)
    for got, want in ((sc.snr_offsets_db, offsets), (sc.mcs_table, mcs),
                      (sc.home_channel, home), (sc.ap_radios, ap_radios),
                      (sc.sta_radios, sta_radios), (sc.bandwidth_mhz, widths)):
        assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())
        assert not got.flags.writeable
    assert sc.ap_ids == tuple(ap_ids) and all(type(ap_id) is str for ap_id in sc.ap_ids)
    assert sc.channel_ids == tuple(cids) and all(type(cid) is int for cid in sc.channel_ids)
    assert sc.sta_ids == tuple(sta_ids) and all(type(sta_id) is str for sta_id in sc.sta_ids)
    for m, sta in enumerate(sc.stas):
        heard = [ap_ids[n] for n in range(sc.n_aps) if not np.isnan(offsets[:, n, m]).all()]
        assert list(sta.snr_offsets_db) == heard
        for ap_id, row in sta.snr_offsets_db.items():
            assert row.tobytes() == offsets[:, ap_ids.index(ap_id), m].tobytes()


def _home_channels(doc):
    """Channel position of each AP's home channel, read off the document."""
    return oracles.document_arrays(doc)[2].tolist()


def _home_links(doc, field):
    """The SNR field with every link off its AP's home channel out of range."""
    home = np.zeros(field.shape[:2] + (1,), dtype=bool)
    home[_home_channels(doc), range(field.shape[1])] = True
    return np.where(home, field, np.nan)


def _recorded_run(doc, sc, allocator):
    """Three loop iterations, with the rate tensor of each step rebuilt apart
    from the loop: step 1 under the bootstrap contenders (of the home-channel
    links for SLO), step k under the per-channel counts of step k - 1's
    selection. Each step's throughput must be read off that very tensor."""
    result = run_apc_loop(sc, allocator=allocator, iterations=3)
    field = oracles.snr_field_loops(doc, rng=np.random.default_rng(sc.rng_seed))
    camp = _home_links(doc, field) if allocator == "slo" else field
    contenders = oracles.bootstrap_contenders_per_station(sc, camp)
    tensors = []
    for report in result.reports:
        tensor = build_rate_tensor(sc, contenders=contenders, snr_field=field)
        assert report.aggregate_throughput_bps == pytest.approx(
            float((report.selection.s * tensor.values).sum()), rel=1e-12, abs=0.0)
        tensors.append(tensor)
        contenders = report.selection.per_channel_counts().tolist()
    return result, tensors


def _check_steps_feasible(result, limits):
    for report in result.reports:
        budget = RadioBudget.from_pairing(report.pairing, limits)
        assert selection_feasible(report.selection, report.pairing, budget)


def _check_recommendations(sc, result):
    """The recommendations name exactly the final step's pairing and links."""
    report = result.final
    ap_ids = list(sc.ap_ids)
    assert [r.sta_id for r in result.recommendations] == list(sc.sta_ids)
    assert [ap_ids.index(r.ap_id) for r in result.recommendations] == \
        report.pairing.x.argmax(axis=0).tolist()
    links = sorted([sc.channel_ids.index(cid), ap_ids.index(r.ap_id), m]
                   for m, r in enumerate(result.recommendations) for cid in r.channel_ids)
    assert links == np.argwhere(report.selection.s).tolist()


@settings(max_examples=40, deadline=None)
@given(_small_scenarios())
def test_slo_links_home_channel_only_and_pairing_optimal(doc_sc):
    doc, sc = doc_sc
    result, tensors = _recorded_run(doc, sc, "slo")
    home = _home_channels(doc)
    caps = [-(-sc.m_stas // sc.n_aps)] * sc.n_aps
    for report, tensor in zip(result.reports, tensors, strict=True):
        home_rates = np.array([tensor.values[home[n], n] for n in range(sc.n_aps)])
        links = np.argwhere(report.selection.s).tolist()
        want = sorted([home[n], n, m] for n, m in zip(*np.nonzero(report.pairing.x))
                      if home_rates[n, m] > 0.0)
        assert links == want
        assert len({m for _, _, m in links}) == len(links)    # one link per station
        assert report.pairing.x.sum(axis=0).tolist() == [1] * sc.m_stas
        objective = float((home_rates * report.pairing.x).sum())
        assert objective == pytest.approx(oracles.best_assignment_value(home_rates, caps),
                                          rel=1e-9, abs=1e-6)
    _check_steps_feasible(result, np.ones(sc.m_stas, dtype=int))
    _check_recommendations(sc, result)


@pytest.mark.parametrize("allocator", ["pf", "rr"])
@settings(max_examples=40, deadline=None)
@given(_small_scenarios())
def test_pf_rr_steps_feasible_and_pairing_optimal(allocator, doc_sc):
    doc, sc = doc_sc
    caps = sc.ap_capacities()
    if caps.sum() < sc.m_stas:
        with pytest.raises(InfeasibleError):
            run_apc_loop(sc, allocator=allocator, iterations=1)
        return
    result, tensors = _recorded_run(doc, sc, allocator)
    for report, tensor in zip(result.reports, tensors, strict=True):
        d = tensor.values.mean(axis=0)
        objective = float((d * report.pairing.x).sum())
        assert objective == pytest.approx(oracles.best_assignment_value(d, caps),
                                          rel=1e-9, abs=1e-6)
    _check_steps_feasible(result, sc.sta_radio_limits())
    _check_recommendations(sc, result)


@st.composite
def _cli_argvs(draw):
    """A subcommand with a flag set; each value is valid four times in five."""
    command = draw(st.sampled_from(["run", "sweep", "oracle"]))

    def pick(valid, invalid):
        return draw(st.sampled_from(valid * 4 + invalid))

    flags = ["--format", pick(["csv", "json"], [])]
    if command != "sweep":      # a sweep seeds from the scenario
        flags.append(f"--seed={pick(['0', '7'], ['-1', str(2 ** 63)])}")
    if command == "oracle":
        return command, flags + [f"--stas={pick(['1', '1,2'], ['0', '9'])}"]
    flags += ["--solver", pick(["optimal", "greedy"], []),
              "--iterations", pick(["1", "3"], ["0"])]
    if command == "run":
        flags += ["--allocator", pick(["pf", "rr", "slo"], []),
                  f"--snr-base={pick(['-30', '20', '800'], ['5000', 'nan'])}",
                  f"--mcs={pick(['0', '11'], ['12', '-1'])}"]
    else:
        flags += ["--rounds", pick(["1"], ["0"]), f"--snr={pick(['-30,20'], ['5000', 'nan'])}",
                  f"--mcs={pick(['3'], ['12'])}"]
    return command, flags


def _cli_outcome(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


@settings(max_examples=30, deadline=None)
@given(_small_scenario_docs(), _cli_argvs())
def test_cli_exit_code_contract(doc, command_flags):
    # every valid scenario and flag set ends in a documented exit code with
    # at most one line on stderr, and the same bytes on a second run
    command, flags = command_flags
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scenario.yaml"
        path.write_text(yaml.safe_dump(doc))
        argv = [command, "--scenario", str(path), *flags]
        rc, out, err = _cli_outcome(argv)
        assert _cli_outcome(argv) == (rc, out, err), argv
    assert rc in (0, 1, 2), argv
    assert "Traceback" not in err
    if rc == 0:
        assert err == "" and out, argv
    else:
        assert err.startswith("linkalloc: ") and err.count("\n") == 1, (argv, err)


OUT_OF_RANGE_LINKS = """
name: gaps
seed: 2
snr_base_db: 12.0
channels:
  - {id: 1, band: 2.4GHz, bandwidth_mhz: 40, mcs: 3}
  - {id: 2, band: 5GHz, bandwidth_mhz: 80, mcs: 5}
  - {id: 3, band: 6GHz, bandwidth_mhz: 160, mcs: 7}
aps:
  - {id: ap1, radios: 2}
  - {id: ap2, radios: 2, slo_channel: 3}
stas:
  - {id: sta1, radios: 2, snr_offset_db: {ap1: {1: 3.0, 2: out-of-range, 3: 3.0}}}
  - {id: sta2, radios: 1, snr_offset_db: {ap2: {1: out-of-range, 2: -2.0, 3: -2.0}}}
  - {id: sta3, radios: 3, snr_offset_db: {ap1: {2: 1.0}, ap2: {1: 1.0, 3: out-of-range}}}
  - {id: sta4, radios: 1, snr_offset_db: {ap1: -50.0, ap2: {2: -50.0}}}
"""


def _assert_array_builds_match_loop_oracles(doc, sc, base_db=None):
    """SNR field, bootstrap contenders and recommendations equal the
    link-by-link and station-by-station oracles bit for bit. A scenario that
    draws each link's base refuses an explicit one, in the field and the loop."""
    refused = base_db is not None and sc.snr_random_range_db is not None
    fields = []
    for seed in (None, 4):
        if refused:
            with pytest.raises(ValidationError, match="draws each link's SNR base"):
                sc.snr_field(base_db=base_db, seed=seed)
            continue
        got = sc.snr_field(base_db=base_db, seed=seed)
        want = oracles.snr_field_loops(doc, base_db=base_db, rng=np.random.default_rng(
            sc.rng_seed if seed is None else seed))
        assert got.tobytes() == want.tobytes()
        fields.append(got)
    for field in fields + [_home_links(doc, f) for f in fields]:
        assert bootstrap_contenders(sc, field) == \
            oracles.bootstrap_contenders_per_station(sc, field)
    for allocator in ("pf", "rr", "slo"):
        if refused:
            with pytest.raises(ValidationError, match="draws each link's SNR base"):
                run_apc_loop(sc, allocator=allocator, iterations=2, snr_base_db=base_db)
            continue
        try:
            result = run_apc_loop(sc, allocator=allocator, iterations=2, snr_base_db=base_db)
        except InfeasibleError:
            continue
        final = result.final
        assert [(r.sta_id, r.ap_id, r.channel_ids) for r in result.recommendations] == \
            oracles.recommendations_per_station(sc, final.pairing, final.selection)
        # a station left unpaired is recommended no AP and no channel
        owner = final.pairing.owner.copy()
        owner[0] = -1
        pairing = PairingMatrix(owner, sc.n_aps)
        assert [(r.sta_id, r.ap_id, r.channel_ids)
                for r in harness._recommendations(sc, pairing, final.selection)] == \
            oracles.recommendations_per_station(sc, pairing, final.selection)


@pytest.mark.parametrize("name", ["scenario_3ap_15sta", "scenario_slo", "scenario_2ap_joint"])
@pytest.mark.parametrize("base_db", [None, 5.0, -30.0])
def test_array_builds_match_loop_oracles_on_fixtures(name, base_db):
    path = bundled_scenario_path(name)
    sc, doc = load_scenario(path), yaml.safe_load(path.read_text())
    # with and without per-link base draws, whichever the fixture declares
    drawn = (6.0, 9.0) if sc.snr_random_range_db is None else None
    variant_doc = {key: value for key, value in doc.items() if key != "snr_random_range_db"}
    if drawn is not None:
        variant_doc["snr_random_range_db"] = list(drawn)
    for variant in ((doc, sc),
                    (variant_doc, dataclasses.replace(sc, snr_random_range_db=drawn))):
        _assert_array_builds_match_loop_oracles(*variant, base_db)


def test_array_builds_match_loop_oracles_with_out_of_range_links():
    sc = load_scenario(io.StringIO(OUT_OF_RANGE_LINKS))
    for base_db in (None, 5.0, -30.0):
        _assert_array_builds_match_loop_oracles(yaml.safe_load(OUT_OF_RANGE_LINKS), sc, base_db)


@settings(max_examples=40, deadline=None)
@given(_small_scenarios())
def test_array_builds_match_loop_oracles_on_small_scenarios(doc_sc):
    _assert_array_builds_match_loop_oracles(*doc_sc)


def _assert_loop_matches_reference(segments, rng_seed=None):
    """Run the segments as a chain of resumed `run_apc_loop` calls and check
    every step against `oracles.reference_loop`, which keeps nothing between
    steps but phi and the contention: decisions as bytes, floats at rel 1e-12.
    The first step that differs fails."""
    reports, carry = [], None
    for sc, iterations, solver, allocator, mcs in segments:
        result = run_apc_loop(sc, solver=solver, allocator=allocator, iterations=iterations,
                              mcs_override=mcs, carry=carry, rng_seed=rng_seed)
        reports += result.reports
        carry = result.carry
    want = oracles.reference_loop(segments, rng_seed)
    assert len(reports) == len(want)
    for got, ref in zip(reports, want):
        step = f"step {got.iteration} ({got.algorithm}, MCS {got.mcs_label})"
        assert got.pairing.owner.tobytes() == ref["owner"], f"{step}: the pairing differs"
        assert got.selection.s.tobytes() == ref["s"], f"{step}: the links differ"
        assert got.selection.unallocated_edges == ref["unallocated"], step
        for name, value, expected in (
                ("total", [got.aggregate_throughput_bps], [ref["total"]]),
                ("phi", got.per_channel_phi, ref["phi"]),
                ("metrics", got.per_channel_metric, ref["metrics"])):
            assert len(value) == len(expected) and all(
                v == w or math.isclose(v, w, rel_tol=1e-12, abs_tol=0.0)
                for v, w in zip(value, expected)), f"{step}: {name} {value} != {expected}"
        assert got.fairness_spread.hex() == fairness_spread(got.per_channel_metric).hex(), \
            f"{step}: the spread is not that of the metrics reported"
        assert _spread_close(got.fairness_spread, ref["spread"], ref["metrics"]), \
            f"{step}: spread {got.fairness_spread} != {ref['spread']}"


def _spread_close(spread, ref_spread, ref_metrics):
    """`spread` against the reference's. With each metric within rel 1e-12,
    max - min moves by at most 2e-12 max|metric|, so (max - min) / mean by
    that over the mean: nearly equal metrics amplify it far past rel 1e-12
    of the spread itself."""
    if spread == ref_spread:
        return True
    mean = math.fsum(ref_metrics) / len(ref_metrics)
    return abs(spread - ref_spread) <= 2e-12 * max(map(abs, ref_metrics)) / mean


def test_reference_spread_bound_follows_from_the_metric_bound():
    # nearly equal metrics, each within rel 1e-12 of the reference's: their
    # spread, about 3.6e-5, moves far past rel 1e-12, which failed a correct loop
    ref = [1.0, 1.0 + 3.6e-5, 1.0 + 1.8e-5]
    near = [ref[0] * (1 - 5e-13), ref[1] * (1 + 5e-13), ref[2]]
    assert all(math.isclose(a, b, rel_tol=1e-12) for a, b in zip(near, ref))
    want = fairness_spread(ref)
    assert 3.5e-5 < want < 3.7e-5
    assert not math.isclose(fairness_spread(near), want, rel_tol=1e-12)
    assert _spread_close(fairness_spread(near), want, ref)
    # a metric off by rel 1e-9 moves the spread past both bounds
    off = [ref[0], ref[1] * (1 + 1e-9), ref[2]]
    assert not math.isclose(fairness_spread(off), want, rel_tol=1e-12)
    assert not _spread_close(fairness_spread(off), want, ref)


# resumes that switch solver, allocator and MCS override and leave SLO for PF;
# a switch of solver alone meets records the other solver left
REFERENCE_SCHEDULE = [(3, "optimal", "pf", None), (1, "greedy", "pf", None),
                      (1, "optimal", "pf", None), (2, "greedy", "rr", 3),
                      (2, "optimal", "slo", None), (3, "greedy", "pf", 9),
                      (1, "optimal", "pf", 9), (2, "optimal", "rr", None)]


@pytest.mark.parametrize("path", [bundled_scenario_path("scenario_3ap_15sta"),
                                  bundled_scenario_path("scenario_slo"),
                                  bundled_scenario_path("scenario_2ap_joint"), SYNTH_10X200],
                         ids=lambda path: path.stem)
def test_loop_matches_the_memo_free_reference(path):
    sc = load_scenario(path)
    _assert_loop_matches_reference([(sc,) + segment for segment in REFERENCE_SCHEDULE],
                                   rng_seed=4)


@pytest.mark.parametrize("path", [bundled_scenario_path("scenario_3ap_15sta"),
                                  bundled_scenario_path("scenario_slo"),
                                  bundled_scenario_path("scenario_2ap_joint"), SYNTH_10X200],
                         ids=lambda path: path.stem)
def test_what_the_loop_builds_unchecked_passes_the_public_checks(path):
    # the solvers, allocators and misses build their results past the public
    # constructors; each result must be one those constructors accept as it is
    sc = load_scenario(path)
    for solver, allocator in [("optimal", "pf"), ("greedy", "pf"), ("optimal", "rr"),
                              ("greedy", "rr"), ("optimal", "slo")]:
        carry = None
        for _ in range(12):     # a step per call: every record is read while the memo holds it
            result = run_apc_loop(sc, solver=solver, allocator=allocator, iterations=1,
                                  carry=carry)
            carry, pairing, selection = result.carry, result.final.pairing, result.final.selection
            owner, links = pairing.owner, selection.links
            assert owner.dtype.kind in "iu" and not owner.flags.writeable
            assert links.dtype == np.int8 and not links.flags.writeable
            assert selection.pairing is pairing
            assert PairingMatrix(owner, pairing.n_aps).owner.tobytes() == owner.tobytes()
            public = LinkSelection(links, pairing, selection.unallocated_edges)
            assert public.links.tobytes() == links.tobytes()
            for rates, instance, _, _ in dict(carry.memo).values():
                public = PairingInstance(instance.d, instance.ap_capacity,
                                         instance.sta_radio_limits)
                assert public.d.tobytes() == instance.d.tobytes()
                assert RateTensor(rates.values).values.tobytes() == rates.values.tobytes()


def test_trusted_build_holds_every_field():
    # the init fields as given, each other field at its default, as the constructor sets it
    values = np.zeros((1, 1, 1))
    rates = _trusted(RateTensor, values=values)
    assert vars(rates).keys() == {"values", "_paired"} and rates.values is values
    assert vars(rates)["_paired"] == (None, None)

    @dataclasses.dataclass(frozen=True)
    class Listed:
        items: list = dataclasses.field(default_factory=list, init=False)

    with pytest.raises(TypeError, match="^Listed has a non-init field with no plain default$"):
        _trusted(Listed)


@contextlib.contextmanager
def _public_checks_counted():
    """Each public constructor's checks of the four result types, counted as they run."""
    with contextlib.ExitStack() as stack:
        yield {cls.__name__: stack.enter_context(mock.patch.object(
                   cls, "__post_init__", autospec=True, side_effect=cls.__post_init__))
               for cls in (PairingMatrix, LinkSelection, PairingInstance, RateTensor)}


def _spied(name):
    """`harness.<name>` replaced by a mock that counts its calls and still makes them."""
    return mock.patch.object(harness, name, side_effect=getattr(harness, name))


def test_warm_steps_and_slo_misses_run_no_public_check():
    none = {"PairingMatrix": 0, "LinkSelection": 0, "PairingInstance": 0, "RateTensor": 0}
    for path in (bundled_scenario_path("scenario_3ap_15sta"), SYNTH_10X200):
        sc = load_scenario(path)
        for solver, pair_name, allocator in [("optimal", "pair_optimal_lp", "pf"),
                                             ("greedy", "pair_greedy", "rr")]:
            carry = run_apc_loop(sc, solver=solver, allocator=allocator, iterations=4).carry
            with _public_checks_counted() as checks, _spied(pair_name) as pair, \
                    _spied(f"allocate_{allocator}") as allocate:
                for _ in range(6):
                    carry = run_apc_loop(sc, solver=solver, allocator=allocator, iterations=1,
                                         carry=carry).carry
            assert {k: spy.call_count for k, spy in checks.items()} == none, (path, solver)
            assert pair.call_count == allocate.call_count == 6     # one each per step
        # a cold SLO run misses on its first steps
        with _public_checks_counted() as checks, _spied("build_rate_tensor") as miss:
            run_slo_baseline(sc, iterations=6)
        assert miss.call_count >= 1
        assert {k: spy.call_count for k, spy in checks.items()} == none, path


def test_resumed_run_averages_with_its_own_horizon():
    # the fixture averages over T = 300; a resume on a copy with T = 5 moves phi by 1/5
    fx = _fixture()
    fast = dataclasses.replace(fx, ewma_horizon_t=5)
    _assert_loop_matches_reference([(fx, 3, "optimal", "pf", None),
                                    (fast, 3, "optimal", "pf", None),
                                    (fx, 2, "greedy", "rr", None)])


_ALGORITHMS = [("optimal", "pf"), ("optimal", "rr"), ("greedy", "pf"), ("greedy", "rr"),
               ("optimal", "slo")]


@st.composite
def _reference_chains(draw):
    """A small scenario and a chain of 1-4 segments, each with its own
    algorithm, MCS override and, on a resume, perhaps another horizon; and
    the chain's seed, an int or a list of ints, which a scenario that draws
    its SNR bases draws them with."""
    _, sc = draw(_small_scenarios())
    feasible = sc.ap_capacities().sum() >= sc.m_stas     # else only SLO pairs everyone
    segments = []
    for k in range(draw(st.integers(1, 4))):
        solver, allocator = draw(st.sampled_from(_ALGORITHMS if feasible else _ALGORITHMS[-1:]))
        if k and draw(st.booleans()):
            sc = dataclasses.replace(sc, ewma_horizon_t=draw(st.integers(1, 50)))
        segments.append((sc, draw(st.integers(1, 3)), solver, allocator,
                         draw(st.one_of(st.none(), st.integers(0, 11)))))
    seed = st.integers(0, 2 ** 32)
    return segments, draw(st.one_of(seed, st.lists(seed, min_size=1, max_size=3)))


@settings(max_examples=60, deadline=None)
@given(_reference_chains())
def test_loop_matches_the_memo_free_reference_on_small_scenarios(chain):
    _assert_loop_matches_reference(*chain)


def _outputs(result):
    """Everything a run reports, as comparable values."""
    return (emit_results(result.reports),
            [(r.pairing.x.tolist(), r.selection.s.tolist(), r.per_channel_metric)
             for r in result.reports],
            result.recommendations, result.carry.contenders, result.carry.phi)


def test_carried_rate_memo_reused_only_when_valid():
    fx = _fixture()
    drawn = load_scenario(bundled_scenario_path("scenario_2ap_joint"))   # per-link draws
    changes = [
        (fx, fx, {"mcs_override": 3}),             # the criterion 08 MCS switch
        (fx, fx, {"snr_base_db": 15.0}),
        (drawn, drawn, {"rng_seed": 5}),
        (fx, fx, {"allocator": "slo"}),            # other pairing weights
        # another scenario object with an equal SNR field: only its identity
        # tells the memo apart
        (fx, dataclasses.replace(fx, dcf=DcfParams(payload_bytes=500)), {}),
    ]
    for first, second, kwargs in changes:
        carry = run_apc_loop(first, iterations=3).carry
        memo = carry.memo
        assert memo
        reused = run_apc_loop(second, iterations=3, carry=carry, **kwargs)
        fresh = run_apc_loop(second, iterations=3,
                             carry=dataclasses.replace(carry, memo=()), **kwargs)
        assert _outputs(reused) == _outputs(fresh), kwargs
        # the change matters: the same carry without it reports otherwise
        assert _outputs(reused) != _outputs(run_apc_loop(first, iterations=3, carry=carry))
        assert carry.memo is memo    # the old carry is left alone


def test_carry_reuse_rule_counted_in_tensor_builds():
    fx = _fixture()
    build = harness.build_rate_tensor

    def builds(sc, carry, **kwargs):
        with mock.patch.object(harness, "build_rate_tensor", side_effect=build) as spy:
            result = run_apc_loop(sc, iterations=3, carry=carry, **kwargs)
        return spy.call_count, result.carry

    pf = run_apc_loop(fx, iterations=3).carry
    records = pf.memo
    snapshot = [tuple(map(id, record)) for _, record in records]
    assert builds(fx, pf)[0] == 0       # every contention it meets is carried
    # the fixture draws nothing, so its field does not depend on the seed
    assert fx.snr_random_range_db is None and builds(fx, pf, rng_seed=[3, 4])[0] == 0
    # equal inputs reuse the carried field: none is built to compare with it
    field = Scenario.snr_field
    with mock.patch.object(Scenario, "snr_field", autospec=True, side_effect=field) as spy:
        run_apc_loop(fx, iterations=3, carry=pf)
        assert spy.call_count == 0
        run_apc_loop(fx, iterations=3, carry=pf, snr_base_db=15.0)
        assert spy.call_count == 1
    # a drawn scenario's seed counts by value: 7 and [7] draw the same field
    drawn = load_scenario(bundled_scenario_path("scenario_2ap_joint"))
    seeded = run_apc_loop(drawn, iterations=3, rng_seed=7).carry
    assert builds(drawn, seeded, rng_seed=[7])[0] == 0
    assert builds(drawn, seeded, rng_seed=8)[0] > 0
    # an equal scenario with a bit-equal SNR field is still another object
    twin = dataclasses.replace(fx)
    assert twin is not fx and np.array_equal(twin.snr_field(), fx.snr_field(), equal_nan=True)
    cold = builds(fx, dataclasses.replace(pf, memo=()))[0]
    assert builds(twin, pf)[0] == cold > 0
    # an SLO <-> PF switch rebuilds both ways, and then reuses again
    n_slo, slo = builds(fx, pf, allocator="slo")
    assert n_slo == builds(fx, dataclasses.replace(pf, memo=()), allocator="slo")[0] > 0
    assert builds(fx, slo, allocator="slo")[0] == 0
    assert builds(fx, slo)[0] == builds(fx, dataclasses.replace(slo, memo=()))[0] > 0
    # the carries passed in are left as they were
    assert pf.memo is records
    assert [tuple(map(id, record)) for _, record in pf.memo] == snapshot


def test_run_constants_derived_once_per_run_key():
    fx = _fixture()
    derive = harness._run_constants

    def derivations(sc, carry, **kwargs):
        with mock.patch.object(harness, "_run_constants", side_effect=derive) as spy:
            result = run_apc_loop(sc, iterations=2, carry=carry, **kwargs)
        return spy.call_count, result

    pf = run_apc_loop(fx, iterations=3).carry
    # the carry holds them, so none may be written through it: a PF run's AP
    # capacities, and under SLO its home links too
    assert [v.flags.writeable for v in pf.constants if isinstance(v, np.ndarray)] == [False]
    assert derivations(fx, pf)[0] == 0
    assert derivations(fx, dataclasses.replace(pf, memo=()))[0] == 0
    assert derivations(fx, pf, solver="greedy", allocator="rr")[0] == 0
    for sc, kwargs in [(fx, {"mcs_override": 3}), (fx, {"allocator": "slo"}),
                       (dataclasses.replace(fx), {})]:      # a twin is another object
        assert derivations(sc, pf, **kwargs)[0] == 1, kwargs
    slo = derivations(fx, pf, allocator="slo")[1]
    assert [v.flags.writeable for v in slo.carry.constants if isinstance(v, np.ndarray)] == \
        [False] * 2
    assert derivations(fx, slo.carry, allocator="slo")[0] == 0
    assert derivations(fx, slo.carry)[0] == 1      # and back to PF
    # solver and allocator are not in the key: a resume names its own algorithm
    mcs3 = run_apc_loop(fx, iterations=2, mcs_override=3).carry
    n, rr = derivations(fx, mcs3, solver="greedy", allocator="rr", mcs_override=3)
    assert n == 0
    assert {(r.algorithm, r.mcs_label, r.channel_ids) for r in rr.reports} == \
        {("greedy+rr", "3", fx.channel_ids)}
    assert emit_results(rr.reports) == emit_results(run_apc_loop(
        fx, iterations=2, carry=dataclasses.replace(mcs3, run=None), solver="greedy",
        allocator="rr", mcs_override=3).reports)


def test_per_looked_up_once_per_run_key():
    fx = _fixture()
    lookup, build = phy.per_lookup, harness.build_rate_tensor

    def lookups(sc, carry, **kwargs):
        """PER lookups and tensor builds of a two-step run."""
        with mock.patch.object(phy, "per_lookup", side_effect=lookup) as per, \
                mock.patch.object(harness, "build_rate_tensor", side_effect=build) as tensor:
            result = run_apc_loop(sc, iterations=2, carry=carry, **kwargs)
        return per.call_count, tensor.call_count, result.carry

    pf = run_apc_loop(fx, iterations=3).carry
    # the run's links hold the PER: misses under its key look none up
    n_per, n_builds, _ = lookups(fx, dataclasses.replace(pf, memo=()))
    assert n_per == 0 and n_builds > 0
    assert lookups(fx, pf)[0] == 0
    # a new key looks up each MCS in use once, over all of its links
    assert np.unique(fx.mcs_table).tolist() == [9]
    for sc, kwargs in [(fx, {"mcs_override": 3}), (fx, {"snr_base_db": 15.0}),
                       (dataclasses.replace(fx), {})]:
        assert lookups(sc, pf, **kwargs)[0] == 1, kwargs
    drawn = load_scenario(bundled_scenario_path("scenario_2ap_joint"))
    assert np.unique(drawn.mcs_table).tolist() == [0, 1, 2]
    n_per, _, seeded = lookups(drawn, None, rng_seed=7)
    assert n_per == 3
    assert lookups(drawn, dataclasses.replace(seeded, memo=()), rng_seed=7)[0] == 0
    assert lookups(drawn, seeded, rng_seed=8)[0] == 3
    assert lookups(drawn, seeded, rng_seed=7, mcs_override=3)[0] == 1


def test_run_link_constants_take_at_most_20_bytes_per_heard_link():
    sc = load_scenario(SYNTH_10X200)
    field = sc.snr_field()
    carried = run_apc_loop(sc, iterations=1).carry.constants[-1]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        links = rate_links(sc, field)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert carried.index.tobytes() == links.index.tobytes() and links.index.size == 2400
    assert not (carried.index.flags.writeable or carried.per.flags.writeable)
    assert held <= 20 * links.index.size + 800, held


def _arrays_in(value) -> list:
    """Every array in a run's constants, those in tuples and a `RadioBudget` too."""
    if isinstance(value, np.ndarray):
        return [value]
    if isinstance(value, RadioBudget):
        value = tuple(vars(value).values())
    return [a for v in value for a in _arrays_in(v)] if isinstance(value, tuple) else []


@pytest.mark.parametrize("allocator", ["pf", "rr", "slo"])
def test_run_constants_hold_no_snr_field_and_fit_their_bound(allocator):
    # 20 B per heard link, 8 B per AP and per station, SLO's home links at
    # one byte per (channel, AP) and a few hundred bytes of Python objects;
    # the (F, N, M) SNR field alone would take 48,000 B
    sc = load_scenario(SYNTH_10X200)
    slo = allocator == "slo"
    carried = run_apc_loop(sc, allocator=allocator, iterations=1).carry.constants
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        constants = harness._run_constants(sc, None, slo, None, None)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    links = constants[-1].index.size
    assert links == 2400 and carried[-1].index.tobytes() == constants[-1].index.tobytes()
    bound = 20 * links + 8 * (sc.n_aps + sc.m_stas) + (sc.f_count * sc.n_aps if slo else 0) + 400
    assert held <= bound, (held, bound)
    field_shape = (sc.f_count, sc.n_aps, sc.m_stas)
    for arrays in (_arrays_in(carried), _arrays_in(constants)):
        # the capacities, SLO's home links, the radio limits, the links' index and PER
        assert len(arrays) == (5 if slo else 4)
        assert all(a.shape != field_shape and not a.flags.writeable for a in arrays)


@pytest.mark.parametrize("carried, resumed", [(_single, _fixture), (_fixture, _single)])
def test_carry_for_another_channel_count_refused(carried, resumed):
    carry = run_apc_loop(carried(), iterations=2).carry
    sc = resumed()
    field = Scenario.snr_field
    with mock.patch.object(Scenario, "snr_field", autospec=True, side_effect=field) as spy, \
            pytest.raises(InvalidInputError) as err:
        run_apc_loop(sc, iterations=1, carry=carry)
    assert spy.call_count == 0      # refused before any field is built
    assert str(err.value) == (f"carry covers {len(carry.contenders)} channels, "
                              f"but scenario {sc.name!r} has {sc.f_count}")


@pytest.mark.parametrize("name, bad", [
    ("scenario_3ap_15sta", {"snr_base_db": float("nan")}),
    ("scenario_2ap_joint", {"snr_base_db": 20.0}),       # it draws its bases
    ("scenario_2ap_joint", {"rng_seed": -1}),
    ("scenario_3ap_15sta", {"rng_seed": -1}),            # checked though unused
    ("scenario_2ap_joint", {"rng_seed": [1, -2]}),
    ("scenario_3ap_15sta", {"rng_seed": [1, 2.5]}),
    ("scenario_2ap_joint", {"rng_seed": [True, 2]}),
    ("scenario_3ap_15sta", {"mcs_override": 12}),
    ("scenario_3ap_15sta", {"mcs_override": True}),
])
def test_resumed_run_still_checks_its_inputs(name, bad):
    sc = load_scenario(bundled_scenario_path(name))
    carry = run_apc_loop(sc, iterations=2).carry
    run_apc_loop(sc, iterations=1, carry=carry)     # equal inputs resume
    with pytest.raises(ValidationError):
        run_apc_loop(sc, iterations=1, carry=carry, **bad)


def test_rate_memo_bounded_and_built_once_per_contention():
    sc = _fixture()
    build = harness.build_rate_tensor
    with mock.patch.object(harness, "build_rate_tensor", side_effect=build) as spy:
        result = run_apc_loop(sc, iterations=30)
    bootstrap = tuple(oracles.bootstrap_contenders_per_station(sc, sc.snr_field()))
    entering = [bootstrap] + [tuple(r.selection.per_channel_counts().tolist())
                              for r in result.reports[:-1]]
    assert spy.call_count == len(set(entering)) < 30
    # equal decisions under one contention share their arrays
    for attr, array in (("pairing", "x"), ("selection", "s")):
        groups = {}
        for key, r in zip(entering, result.reports):
            obj = getattr(r, attr)
            groups.setdefault((key, getattr(obj, array).tobytes()), set()).add(id(obj))
        assert all(len(ids) == 1 for ids in groups.values())
        assert len(groups) < 30
    sizes = []
    carry = result.carry
    for solver, allocator in [("optimal", "rr"), ("greedy", "pf"), ("optimal", "slo")]:
        for load in range(1, 4):    # resume from other contention states too
            carry = dataclasses.replace(carry, contenders=(load, 2 * load, 3 * load))
            carry = run_apc_loop(sc, solver=solver, allocator=allocator, iterations=2,
                                 carry=carry).carry
            sizes.append(len(carry.memo))
    assert max(sizes) == harness.RATE_MEMO_SIZE


SWAPPED = """
name: swapped
channels:
  - {id: 1, band: 5GHz, bandwidth_mhz: 40, mcs: 5}
aps:
  - {id: ap1, radios: 1}
  - {id: ap2, radios: 1}
stas:
  - {id: sta1, radios: 1, snr_offset_db: {ap1: 2.0, ap2: 1.0}}
  - {id: sta2, radios: 1, snr_offset_db: {ap1: 0.0, ap2: -8.0}}
"""


def test_equal_links_under_another_pairing_are_not_shared():
    # greedy gives sta1 its best AP and strands sta2 on ap2's weak link; the
    # optimum swaps them. Each station runs one link on the one channel, so
    # the two selections hold equal links that name different APs.
    sc = load_scenario(io.StringIO(SWAPPED))
    optimal = run_apc_loop(sc, solver="optimal", iterations=1)
    # the greedy step resumes under the same contention, so it reads the
    # record the optimal step left
    assert optimal.carry.contenders == (2,) and len(optimal.carry.memo) == 1
    greedy = run_apc_loop(sc, solver="greedy", iterations=1, carry=optimal.carry)
    first, second = optimal.final, greedy.final
    assert first.pairing.owner.tolist() == [1, 0]
    assert second.pairing.owner.tolist() == [0, 1]
    assert first.selection.links.tolist() == second.selection.links.tolist() == [[1, 1]]
    assert second.selection is not first.selection
    assert second.selection.pairing.owner.tolist() == [0, 1]
    assert second.selection.s.tolist() == [[[1, 0], [0, 1]]]
    assert selection_feasible(second.selection, second.pairing,
                              RadioBudget(sc.sta_radio_limits()))


@pytest.mark.parametrize("allocator", ["pf", "rr", "slo"])
def test_served_rates_computed_once_per_new_decision(allocator):
    sc = _fixture()
    served = harness.instantaneous_rates
    with mock.patch.object(harness, "instantaneous_rates", side_effect=served) as spy:
        result = run_apc_loop(sc, allocator=allocator, iterations=20)
    # a step that revisits a decision reads the served rates kept with it, so
    # each call is a new decision's, on that step's selection, in step order
    new = [r.selection for i, r in enumerate(result.reports)
           if all(r.selection is not q.selection for q in result.reports[:i])]
    assert all(c.args[0] is s for c, s in zip(spy.call_args_list, new, strict=True))
    assert spy.call_count < 20
    # a carry without records computes every step's served rates afresh
    cold = dataclasses.replace(result.carry, memo=())
    assert emit_results(run_apc_loop(sc, allocator=allocator, iterations=10,
                                     carry=cold).reports) == \
        emit_results(run_apc_loop(sc, allocator=allocator, iterations=10,
                                  carry=result.carry).reports)


@pytest.mark.parametrize("horizon", [0, -1])
def test_horizon_below_one_refused_before_anything_is_built(horizon):
    # the loader refuses it too; a Scenario built another way reaches the loop
    sc = dataclasses.replace(_fixture(), ewma_horizon_t=horizon)
    carry = run_apc_loop(_fixture(), iterations=2).carry
    msg = f"^ewma_horizon_t must be an integer >= 1, got {horizon}$"
    with mock.patch.object(harness, "_run_constants") as constants, \
            mock.patch.object(harness, "build_rate_tensor") as build, \
            mock.patch.object(harness, "_shared_pool", side_effect=AssertionError("pool")), \
            mock.patch.object(harness, "_mc_round", side_effect=AssertionError("job")):
        for run in (lambda: run_apc_loop(sc, iterations=3),
                    lambda: run_apc_loop(sc, iterations=3, carry=carry),
                    lambda: run_monte_carlo(sc, snr_points=[5.0, 20.0], workers=2)):
            with pytest.raises(InvalidInputError, match=msg):
                run()
    assert constants.call_count == build.call_count == 0


def test_every_repair_on_a_multi_path_cell_is_optimal():
    # SLO at 20 dB, MCS 3: the start puts 9 of the 15 stations on one AP of
    # capacity 5, so each step's repair takes four paths; a first call on an
    # instance builds loss rows from the weights, and a warm call builds none:
    # it reads the kept rows and orders and moves cursors past what left
    fx = _fixture()
    calls, built = [], []
    solve, row = harness.pair_optimal_lp, pairing._loss_row

    def spy(instance):
        before = len(built)
        calls.append((instance, solve(instance), len(built) - before))
        return calls[-1][1]

    with mock.patch.object(harness, "pair_optimal_lp", spy), \
            mock.patch.object(pairing, "_loss_row", lambda d, a, stations, whole:
                              built.append(a) or row(d, a, stations, whole)):
        run_slo_baseline(fx, iterations=10, snr_base_db=20.0, mcs_override=3)
    assert len(calls) == 10
    seen = set()
    for instance, got, builds in calls:
        assert np.maximum(np.bincount(instance.best_ap, minlength=3)
                          - instance.ap_capacity, 0).sum() == 4
        assert objective_value(got, instance.d) == pytest.approx(
            oracles.hungarian_assignment_value(instance.d, instance.ap_capacity), rel=1e-12)
        assert (builds == 0) == (id(instance) in seen)
        assert any(instance._start[4])
        seen.add(id(instance))
    assert len(seen) < len(calls)


def test_threads_resuming_from_one_carry_share_its_instances():
    # the carry's records hold instances with no kept facts yet, so both
    # threads build them and fill the same slots: under PF each step's repair
    # moves one station, and under SLO at 20 dB, MCS 3 four, which keeps the
    # over-full AP's start stations in order toward every AP
    fx = _fixture()
    for kwargs in ({}, dict(allocator="slo", snr_base_db=20.0, mcs_override=3)):
        carry = run_apc_loop(fx, iterations=3, **kwargs).carry

        def fresh_instances():
            return dataclasses.replace(carry, memo=tuple(
                (key, (rates, PairingInstance(inst.d, inst.ap_capacity, inst.sta_radio_limits))
                 + tuple(rest)) for key, (rates, inst, *rest) in carry.memo))

        def emitted(start):
            reports = []
            for _ in range(200):
                result = run_apc_loop(fx, iterations=1, carry=start, **kwargs)
                reports += result.reports
                start = result.carry
            return emit_results(reports)

        alone = fresh_instances()
        serial = emitted(alone)
        shared = fresh_instances()
        barrier = threading.Barrier(2)
        outputs = []

        def resume():
            barrier.wait()
            outputs.append(emitted(shared))

        threads = [threading.Thread(target=resume) for _ in range(2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert outputs == [serial] * 2
        assert [rec[1]._start for _, rec in shared.memo] == \
            [rec[1]._start for _, rec in alone.memo]
        slots = [rec[1]._start[4] for _, rec in shared.memo]
        assert any(slot is not None for kept in slots for slot in kept)
        if kwargs:
            assert any(slot[2] is not None for kept in slots for slot in kept if slot)


def test_bench_span_targets_resolve(monkeypatch):
    # the benchmark's tracer skips a name the package no longer has, which a
    # traced run would only show as zero spans
    path = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)
    spec.loader.exec_module(spans)
    targets = spans.ENTRY_TARGETS + spans.STAGE_TARGETS + spans.LEAF_TARGETS
    tracer = spans.Tracer()
    with tracer.patched(targets):
        pass
    assert tracer.missing == set()


def test_slo_deterministic():
    sc = _fixture()
    a = run_slo_baseline(sc, iterations=3)
    b = run_slo_baseline(sc, iterations=3)
    assert emit_results(a.reports) == emit_results(b.reports)


def test_emit_csv_single_row():
    sc = _single()
    result = run_apc_loop(sc, iterations=1)
    text = emit_results(result.reports)
    rows = list(csv.reader(io.StringIO(text)))
    assert len(rows) == 2
    header = rows[0]
    assert header[:6] == ["iteration", "algorithm", "snr_db", "mcs",
                          "aggregate_throughput_bps", "fairness_spread"]
    assert "phi_1" in header
    assert rows[1][0] == "1"
    float(rows[1][4])  # numbers parse without locale tricks


def test_emit_json_round_trip():
    sc = _fixture()
    result = run_apc_loop(sc, iterations=2)
    doc = json.loads(emit_results(result.reports, fmt="json"))
    records = doc["results"]
    assert len(records) == 2
    for rec, rep in zip(records, result.reports):
        assert rec["iteration"] == rep.iteration
        assert rec["aggregate_throughput_bps"] == rep.aggregate_throughput_bps
        assert rec["fairness_spread"] == rep.fairness_spread
        for cid, phi in zip(rep.channel_ids, rep.per_channel_phi):
            assert rec[f"phi_{cid}"] == phi


def test_emit_writes_file(tmp_path):
    sc = _single()
    result = run_apc_loop(sc, iterations=1)
    out = tmp_path / "res.csv"
    text = emit_results(result.reports, out=out)
    assert out.read_text() == text


def test_emit_sweep_stats_round_trip():
    sc = load_scenario(bundled_scenario_path("scenario_slo"))
    stats = run_monte_carlo(sc, snr_points=[5.0, 10.0], rounds=1, iterations=2)
    doc = json.loads(emit_sweep_stats(stats, fmt="json"))
    assert len(doc["sweep"]) == 2
    text = emit_sweep_stats(stats)
    rows = list(csv.reader(io.StringIO(text)))
    assert len(rows) == 3
    assert rows[0][0] == "snr_db"


def test_validate_dcf_reports_small_error():
    records = validate_dcf(contenders=(2,), pers=(0.0, 0.1), n_slots=40_000, seed=4)
    assert len(records) == 2
    for rec in records:
        assert rec["rel_err"] < 0.05
        assert rec["analytic"] > 0
        assert rec["simulated"] > 0


def test_joint_never_below_two_stage_on_small_fixture():
    sc = load_scenario(bundled_scenario_path("scenario_2ap_joint"))
    out = compare_joint_vs_two_stage(sc, m_stas=4, rng_seed=0)
    assert out["joint_objective_bps"] >= out["two_stage_objective_bps"] - 1e-6
    assert out["m_stas"] == 4


@pytest.mark.parametrize("m", [2, 4, 6, 8])
def test_oracle_two_stage_is_the_loops_first_step(m):
    sc = load_scenario(bundled_scenario_path("scenario_2ap_joint"))
    for seed in (0, 1, 2):
        out = compare_joint_vs_two_stage(sc, m_stas=m, rng_seed=seed)
        first = run_apc_loop(truncated(sc, m), iterations=1, rng_seed=seed).final
        assert out["two_stage_objective_bps"] == first.aggregate_throughput_bps


def test_first_comparison_in_a_process_times_only_the_first_step():
    # the two-stage wall is the loop's first step, its rate tensor included
    # (about 1.3 ms in a fresh interpreter); no first import (scipy's takes
    # about 0.5 s) may land in it
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(harness.__file__).parents[1]), env.get("PYTHONPATH", "")])
    code = ("import sys\n"
            "from linkalloc.repro import compare_joint_vs_two_stage\n"
            "from linkalloc.scenario import bundled_scenario_path, load_scenario\n"
            "sc = load_scenario(bundled_scenario_path('scenario_2ap_joint'))\n"
            "assert 'scipy' not in sys.modules\n"
            "print(compare_joint_vs_two_stage(sc, m_stas=4, rng_seed=0)['two_stage_wall_s'])\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, check=True)
    assert float(proc.stdout) < 0.1


def test_a_run_loads_no_numpy_ma():
    # the first np.unique in a process imports numpy.ma, about 9 ms that
    # would land in a run's first step
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(harness.__file__).parents[1]), env.get("PYTHONPATH", "")])
    code = ("import sys\n"
            "from linkalloc.harness import run_apc_loop, run_monte_carlo\n"
            "from linkalloc.scenario import bundled_scenario_path, list_bundled_scenarios, "
            "load_scenario\n"
            "for name in list_bundled_scenarios():\n"
            "    sc = load_scenario(bundled_scenario_path(name))\n"
            "    assert 'numpy.ma' not in sys.modules, f'{name}: load'\n"
            "    run_apc_loop(sc, iterations=2)\n"
            "    assert 'numpy.ma' not in sys.modules, f'{name}: run'\n"
            "sc = load_scenario(bundled_scenario_path('scenario_3ap_15sta'))\n"
            "run_monte_carlo(sc, mcs_points=[3, 9], rounds=1, iterations=2)\n"
            "assert 'numpy.ma' not in sys.modules, 'sweep'\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr


TIGHT_APS = """
name: tight_aps
seed: 3
snr_base_db: 30.0
channels:
  - {id: 1, band: 2.4GHz, bandwidth_mhz: 40, mcs: 3}
  - {id: 2, band: 5GHz, bandwidth_mhz: 80, mcs: 5}
  - {id: 3, band: 6GHz, bandwidth_mhz: 160, mcs: 7}
aps:
  - {id: ap1, radios: 2}
  - {id: ap2, radios: 2}
stas:
  - {id: sta1, radios: 3, snr_offset_db: 0.0}
  - {id: sta2, radios: 3, snr_offset_db: 0.0}
  - {id: sta3, radios: 3, snr_offset_db: 0.0}
  - {id: sta4, radios: 3, snr_offset_db: 0.0}
"""


def test_joint_bounds_two_stage_when_stations_outnumber_ap_radios():
    # R(n) = 2 stations per AP, each station runs 3 links: the joint oracle
    # reads R(n) as the pairing LP does, so the pipeline cannot beat it
    out = compare_joint_vs_two_stage(load_scenario(io.StringIO(TIGHT_APS)), rng_seed=0)
    assert out["ratio"] <= 1


_REFUSALS = {
    "no_rounds": (lambda tmp: run_monte_carlo(_single(), rounds=0),
                  InvalidInputError, "rounds must be >= 1"),
    "no_records": (lambda tmp: write_table([], "results"),
                   InvalidInputError, "no results records to write"),
    "format_xml": (lambda tmp: write_table([{"a": 1}], "results", fmt="xml"),
                   ValidationError, "format must be csv or json, got 'xml'"),
    "unwritable_path": (lambda tmp: write_table([{"a": 1}], "results", out=tmp / "no" / "x.csv"),
                        ValidationError, "cannot write {tmp}/no/x.csv: No such file or directory"),
    "two_channel_sets": (lambda tmp: emit_results(run_apc_loop(_single(), iterations=1).reports
                                                  + run_apc_loop(_fixture(), iterations=1).reports),
                         InvalidInputError, "reports mix different channel sets"),
    # capacities of a Scenario built past the loader, checked once per run as the
    # pairing input each miss builds holds them unchecked
    **{f"capacity_{name}": (lambda tmp, radios=radios: run_apc_loop(
        dataclasses.replace(_fixture(), ap_radios=radios), iterations=1),
        InvalidInputError, "ap_capacity must hold a positive count per AP")
       for name, radios in (("zero", np.array([5, 0, 5])), ("negative", np.array([5, -1, 5])),
                            ("float", np.array([5.0, 1.5, 5.0])), ("bool", [5, True, 5]),
                            ("short", np.array([5, 5])), ("grid", np.full((3, 1), 5)),
                            # past the loader's MAX_RADIOS, and past int64
                            ("past_max_radios", [5, 2**31, 5]), ("past_int64", [10**30, 5, 5]))},
    "sta_radios_past_int64": (lambda tmp: run_apc_loop(
        dataclasses.replace(_fixture(), sta_radios=[10**30] * 15), iterations=1),
        InvalidInputError, "radio limits must be a vector of positive counts"),
}


@pytest.mark.parametrize("call, kind, msg", _REFUSALS.values(), ids=_REFUSALS.keys())
def test_harness_refusals(call, kind, msg, tmp_path):
    with pytest.raises(kind) as exc:
        call(tmp_path)
    assert type(exc.value) is kind and str(exc.value) == msg.format(tmp=tmp_path)
