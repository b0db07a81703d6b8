import csv
import hashlib
import io
import json
from unittest import mock

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from linkalloc import harness
from linkalloc.cli import main
from linkalloc.harness import (
    compare_joint_vs_two_stage,
    emit_results,
    emit_sweep_stats,
    run_apc_loop,
    run_monte_carlo,
    run_slo_baseline,
    validate_dcf,
)
from linkalloc.scenario import bundled_scenario_path, load_scenario

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
    assert report.selection.s.tolist() == [[1]]
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
    sta_ids = [s.sta_id for s in sc.stas]
    ap_ids = [a.ap_id for a in sc.aps]
    by_sta = {r.sta_id: r for r in result.recommendations}
    triples = {(f, n, m) for (f, n, m) in report.selection.links()}
    for m, sta in enumerate(sta_ids):
        rec = by_sta.get(sta)
        if rec is None:
            continue
        n = ap_ids.index(rec.ap_id)
        assert report.pairing.x[n, m] == 1
        for cid in rec.channel_ids:
            f = [c.channel_id for c in sc.channels].index(cid)
            assert (f, n, m) in triples
    n_links = report.selection.s.sum()
    assert sum(len(r.channel_ids) for r in result.recommendations) == n_links


def test_loop_carry_continues_state():
    sc = _fixture()
    first = run_apc_loop(sc, iterations=4)
    resumed = run_apc_loop(sc, iterations=2, carry=first.carry)
    assert resumed.reports[0].iteration == 5
    straight = run_apc_loop(sc, iterations=6)
    assert straight.reports[-1].per_channel_phi == pytest.approx(resumed.reports[-1].per_channel_phi)


def test_optimal_pf_beats_greedy_rr_at_high_snr():
    sc = _fixture()
    best = run_apc_loop(sc, solver="optimal", allocator="pf", iterations=25, snr_base_db=20.0, mcs_override=3)
    worst = run_apc_loop(sc, solver="greedy", allocator="rr", iterations=25, snr_base_db=20.0, mcs_override=3)
    assert best.final.aggregate_throughput_bps > worst.final.aggregate_throughput_bps


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


def test_slo_outputs_pinned(capsys):
    # SHA-256 of the separate single-link loop's outputs before it became
    # allocator="slo" of run_apc_loop
    sc = _fixture()
    ladder = "".join(emit_results(run_slo_baseline(sc, iterations=10, snr_base_db=snr,
                                                   mcs_override=mcs).reports)
                     for snr in (5.0, 10.0, 15.0, 20.0) for mcs in (3, 9))
    assert _sha256(ladder) == "63c3511754851bb450694250942a603af6c4db843ff1c82d4654680609ab7b8e"
    default = "3c6fb6b9d04ef675ae2eaa04ad20dcaa2c96a838ebc7f30f1c851bd44e460c1e"
    assert _sha256(emit_results(run_slo_baseline(sc).reports)) == default
    assert main(["run", "--scenario", "scenario_3ap_15sta", "--allocator", "slo"]) == 0
    assert _sha256(capsys.readouterr().out) == default


@st.composite
def _small_scenarios(draw):
    """1-3 channels, 1-3 APs, 1-5 STAs; None offsets are out-of-range links."""
    cids = list(range(1, draw(st.integers(1, 3)) + 1))
    ap_ids = [f"ap{n}" for n in range(draw(st.integers(1, 3)))]
    offset = st.one_of(st.none(), st.integers(-30, 30).map(float))
    stas = []
    for m in range(draw(st.integers(1, 5))):
        offsets = {ap: {cid: draw(offset) for cid in cids} for ap in ap_ids}
        if all(v is None for per_ap in offsets.values() for v in per_ap.values()):
            offsets[ap_ids[0]][cids[0]] = 0.0   # the schema needs one in-range link
        stas.append({"id": f"sta{m}", "radios": draw(st.integers(1, 3)),
                     "snr_offset_db": offsets})
    aps = []
    for ap in ap_ids:
        doc = {"id": ap, "radios": draw(st.integers(1, 4))}
        home = draw(st.sampled_from([None] + cids))
        if home is not None:
            doc["slo_channel"] = home
        aps.append(doc)
    doc = {
        "seed": draw(st.integers(0, 100)),
        "snr_base_db": float(draw(st.sampled_from([0, 10, 20, 30]))),
        "channels": [{"id": cid, "band": "5GHz", "bandwidth_mhz": 40,
                      "mcs": draw(st.integers(0, 11))} for cid in cids],
        "aps": aps,
        "stas": stas,
    }
    return load_scenario(io.StringIO(yaml.safe_dump(doc)))


@settings(max_examples=40, deadline=None)
@given(_small_scenarios())
def test_slo_links_home_channel_only_and_pairing_optimal(sc):
    tensors = []
    build = harness.build_rate_tensor

    def recording_build(*args, **kwargs):
        tensors.append(build(*args, **kwargs))
        return tensors[-1]

    with mock.patch.object(harness, "build_rate_tensor", recording_build):
        result = run_slo_baseline(sc, iterations=3)
    home = [n % sc.f_count if ap.slo_channel is None else sc.channel_index(ap.slo_channel)
            for n, ap in enumerate(sc.aps)]
    caps = [-(-sc.m_stas // sc.n_aps)] * sc.n_aps
    for report, tensor in zip(result.reports, tensors, strict=True):
        home_rates = np.array([tensor.values[home[n], n] for n in range(sc.n_aps)])
        links = sorted(report.selection.links())
        want = sorted((home[n], n, m) for n, m in report.pairing.pairs()
                      if home_rates[n, m] > 0.0)
        assert links == want
        assert len({m for _, _, m in links}) == len(links)    # one link per station
        assert report.pairing.x.sum(axis=0).tolist() == [1] * sc.m_stas
        objective = float((home_rates * report.pairing.x).sum())
        assert objective == pytest.approx(oracles.best_assignment_value(home_rates, caps),
                                          rel=1e-9, abs=1e-6)


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
