"""End-to-end acceptance checks.

Each test covers one numbered criterion and prints a single PASS/FAIL line
(visible with `pytest -s` or on failure) in addition to the usual pytest
verdict. Tolerances and budgets are stated inline.
"""

import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import linkalloc
import oracles
from linkalloc.allocation import fairness_spread
from linkalloc.harness import run_apc_loop, run_slo_baseline
from linkalloc.pairing import (
    PairingInstance,
    objective_value,
    pair_greedy,
    pair_optimal_lp,
)
from linkalloc.phy import (
    EesmParams,
    SubcarrierSinrGrid,
    eesm_effective_snr,
    mcs_data_rate,
)
from linkalloc.repro import (
    build_incidence,
    check_total_unimodularity,
    compare_joint_vs_two_stage,
    validate_dcf,
)
from linkalloc.scenario import bundled_scenario_path, load_scenario


def _verdict(num, ok, detail):
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num}: {detail}"


def _fixture():
    return load_scenario(bundled_scenario_path("scenario_3ap_15sta"))


def test_criterion_01_lp_integral_and_optimal():
    rng = np.random.default_rng(2024)
    t0 = time.perf_counter()
    worst = 0.0
    drift = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 11))
        caps = rng.integers(1, 5, size=n)
        while caps.sum() < m:
            caps[int(rng.integers(n))] += 1
        d = rng.uniform(0.0, 1.0, size=(n, m))
        inst = PairingInstance(d=d, ap_capacity=caps, sta_radio_limits=np.ones(m, dtype=int))
        want = oracles.best_assignment_value(d, caps)
        # the paper's claim: total unimodularity makes the LP vertex 0/1 and optimal
        vertex = oracles.assignment_lp_vertex(d, caps)
        drift = max(drift, float(np.abs(vertex - np.round(vertex)).max()))
        lp = float((d * np.round(vertex)).sum())
        # the production pairing reaches the optimum of both oracles
        x = pair_optimal_lp(inst)
        assert set(np.unique(x.x)) <= {0, 1}
        got = objective_value(x, d)
        for a, b in ((lp, want), (got, want), (got, lp)):
            worst = max(worst, abs(a - b) / max(b, 1e-300))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and drift <= 1e-6 and elapsed < 10.0
    _verdict(1, ok, f"1000 instances, LP vertex drift {drift:.1e}, worst rel dev "
                    f"{worst:.2e} (LP vs DP, pairing vs DP and LP), {elapsed:.2f}s")


def test_criterion_02_total_unimodularity():
    t0 = time.perf_counter()
    bad = []
    for n in range(1, 7):
        for m in range(1, 7):
            res = check_total_unimodularity(build_incidence(n, m), max_submatrix=5)
            if not res:
                bad.append((n, m))
    elapsed = time.perf_counter() - t0
    ok = not bad and elapsed < 60.0
    _verdict(2, ok, f"all N,M <= 6 up to 5x5 submatrices, {elapsed:.2f}s, violations={bad}")


def test_criterion_03_greedy_suboptimality_exhibit():
    d = np.array([[9.0, 8.0], [7.0, 1.0]])
    inst = PairingInstance(d=d, ap_capacity=np.array([1, 1]), sta_radio_limits=np.array([1, 1]))
    greedy = objective_value(pair_greedy(inst), d)
    best = objective_value(pair_optimal_lp(inst), d)
    ok = greedy == 10.0 and best == 15.0
    _verdict(3, ok, f"greedy {greedy}, optimal {best}")


def test_criterion_04_mcs_rate_reproduction():
    r20 = mcs_data_rate(3, 20) / 1e6
    r40 = mcs_data_rate(3, 40) / 1e6
    r80 = mcs_data_rate(3, 80) / 1e6
    ok = abs(r20 - 34.4) < 0.05 and abs(r40 - 68.8) < 0.05 and abs(r80 - 144.1) < 0.05
    _verdict(4, ok, f"MCS3 rates {r20:.4f}/{r40:.4f}/{r80:.4f} Mbps vs 34.4/68.8/144.1")


def test_criterion_05_dcf_analytic_vs_simulator():
    t0 = time.perf_counter()
    records = validate_dcf(contenders=(2, 5, 10, 20), pers=(0.0, 0.1, 0.3),
                           n_slots=100_000, seed=1)
    elapsed = time.perf_counter() - t0
    worst = max(r["rel_err"] for r in records)
    ok = worst < 0.05 and elapsed < 120.0
    _verdict(5, ok, f"12 cells, worst rel err {worst:.4f}, {elapsed:.1f}s")


def test_criterion_06_eesm_properties():
    rng = np.random.default_rng(99)
    ok = True
    detail = []
    for _ in range(200):
        c = float(rng.uniform(0.05, 50.0))
        beta = float(rng.uniform(0.1, 20.0))
        got = eesm_effective_snr(SubcarrierSinrGrid.uniform(c, 4, 2), EesmParams(beta=beta))
        if abs(got - c) > 1e-12 * c:
            ok = False
            detail.append("fixed point")
            break
    mean_err = abs(eesm_effective_snr(SubcarrierSinrGrid(values=np.array([[1.0, 3.0]])),
                                      EesmParams(beta=1e6)) - 2.0)
    if mean_err >= 1e-3:
        ok = False
        detail.append(f"large-beta err {mean_err:.1e}")
    violations = 0
    for _ in range(10_000):
        vals = rng.uniform(0.01, 40.0, size=(1, int(rng.integers(1, 9))))
        beta = float(rng.uniform(0.2, 8.0))
        params = EesmParams(beta=beta)
        eff = eesm_effective_snr(SubcarrierSinrGrid(values=vals), params)
        if not (vals.min() - 1e-12 <= eff <= vals.max() + 1e-12):
            violations += 1
            continue
        bumped = vals.copy()
        bumped[0, int(rng.integers(vals.shape[1]))] += float(rng.uniform(0.1, 4.0))
        if eesm_effective_snr(SubcarrierSinrGrid(values=bumped), params) < eff - 1e-12:
            violations += 1
    if violations:
        ok = False
        detail.append(f"{violations} bound/monotonicity violations")
    _verdict(6, ok, "; ".join(detail) if detail else
             f"fixed point 1e-12, large-beta err {mean_err:.1e}, 1e4 grids clean")


def test_criterion_07_pf_converges_rr_does_not():
    sc = _fixture()
    t0 = time.perf_counter()
    pf = run_apc_loop(sc, solver="optimal", allocator="pf", iterations=20)
    pf_min = min(r.fairness_spread for r in pf.reports)
    rr = run_apc_loop(sc, solver="optimal", allocator="rr", iterations=100)
    rr_min = min(r.fairness_spread for r in rr.reports)
    elapsed = time.perf_counter() - t0
    ok = pf_min < 0.05 and rr_min >= 0.05 and elapsed < 30.0
    _verdict(7, ok, f"pf min spread {pf_min:.4f} in 20 iters, rr min {rr_min:.4f} over 100, {elapsed:.1f}s")


def test_criterion_08_pf_reconverges_after_mcs_switch():
    sc = _fixture()
    before = run_apc_loop(sc, solver="optimal", allocator="pf", iterations=30)
    after = run_apc_loop(sc, solver="optimal", allocator="pf", iterations=30,
                         carry=before.carry, mcs_override=6)
    post_min = min(r.fairness_spread for r in after.reports)
    peak = max(r.fairness_spread for r in after.reports[:5])
    ok = post_min < 0.05
    _verdict(8, ok, f"switch 9->6: transient peak {peak:.4f}, min spread {post_min:.4f} within 30 iters")


def test_criterion_09_dominance_ladder():
    sc = _fixture()
    rows = []
    ok = True
    for snr in (5.0, 10.0, 15.0, 20.0):
        opt_pf = run_apc_loop(sc, solver="optimal", allocator="pf", iterations=40,
                              snr_base_db=snr, mcs_override=3).final.aggregate_throughput_bps
        gr_pf = run_apc_loop(sc, solver="greedy", allocator="pf", iterations=40,
                             snr_base_db=snr, mcs_override=3).final.aggregate_throughput_bps
        gr_rr = run_apc_loop(sc, solver="greedy", allocator="rr", iterations=40,
                             snr_base_db=snr, mcs_override=3).final.aggregate_throughput_bps
        slo = run_slo_baseline(sc, iterations=40, snr_base_db=snr,
                               mcs_override=3).final.aggregate_throughput_bps
        rows.append((snr, opt_pf, gr_pf, gr_rr, slo))
        if not (opt_pf >= 0.99 * gr_pf and gr_pf >= 0.99 * gr_rr and gr_rr >= 0.99 * slo):
            ok = False
    gap_hi = rows[-1][1] - rows[-1][2]
    if gap_hi <= 0:
        ok = False
    detail = "; ".join(
        f"{snr:g}dB {a/1e6:.0f}/{b/1e6:.0f}/{c/1e6:.0f}/{d/1e6:.0f}M" for snr, a, b, c, d in rows)
    _verdict(9, ok, f"opt+pf/greedy+pf/greedy+rr/slo: {detail}; 20dB opt-greedy gap {gap_hi/1e6:.1f}M")


def test_criterion_10_joint_vs_two_stage():
    sc = load_scenario(bundled_scenario_path("scenario_2ap_joint"))
    ok = True
    lines = []
    for m in (4, 6, 8):
        for seed in (0, 1, 2):
            out = compare_joint_vs_two_stage(sc, m_stas=m, rng_seed=seed)
            if out["joint_objective_bps"] < out["two_stage_objective_bps"] * (1 - 1e-12):
                ok = False
            if m >= 6 and out["joint_wall_s"] <= out["two_stage_wall_s"]:
                ok = False
        lines.append(f"M={m} joint/two-stage wall {out['joint_wall_s']:.3f}/{out['two_stage_wall_s']:.4f}s")
    _verdict(10, ok, "; ".join(lines))


def test_criterion_11_pf_stationarity():
    sc = _fixture()
    result = run_apc_loop(sc, solver="optimal", allocator="pf", iterations=60)
    metrics = np.asarray(result.final.per_channel_metric, dtype=float)
    active = metrics[metrics > 0]
    rel = float((active.max() - active.min()) / active.mean())
    ok = rel < 0.05 and fairness_spread(active) < 0.05
    _verdict(11, ok, f"steady C/phi relative spread {rel:.4f} across {active.size} channels")


def test_criterion_12_cli_byte_determinism(tmp_path):
    # the subprocesses run in tmp_path, so a relative PYTHONPATH would not
    # resolve there: put the directory of the imported package first
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(linkalloc.__file__).parents[1]), env.get("PYTHONPATH", "")])

    def run(args):
        proc = subprocess.run([sys.executable, "-m", "linkalloc", *args],
                              capture_output=True, cwd=str(tmp_path), env=env)
        assert proc.returncode == 0, proc.stderr.decode()
        return proc.stdout

    invocations = [
        (["run", "--scenario", "scenario_3ap_15sta", "--iterations", "5",
          "--seed", "11"], "run.csv"),
        (["run", "--scenario", "scenario_2ap_joint", "--iterations", "4",
          "--seed", "7", "--format", "json"], "run.json"),
        (["sweep", "--scenario", "scenario_slo", "--snr", "5,10", "--rounds", "2",
          "--iterations", "3"], "sweep.csv"),
        (["validate-dcf", "--contenders", "2,5", "--per", "0.0,0.1",
          "--slots", "20000", "--seed", "3"], None),
        (["oracle", "--scenario", "scenario_2ap_joint", "--stas", "4",
          "--seed", "0"], None),
        (["check-tu", "--aps", "3", "--stas", "3", "--submatrix", "3"], None),
    ]
    ok = True
    for args, outname in invocations:
        if outname:
            a, b = tmp_path / f"a_{outname}", tmp_path / f"b_{outname}"
            run(args + ["--out", str(a)])
            run(args + ["--out", str(b)])
            if a.read_bytes() != b.read_bytes():
                ok = False
        else:
            if run(args) != run(args):
                ok = False
    _verdict(12, ok, f"{len(invocations)} CLI invocations byte-stable on repeat")
