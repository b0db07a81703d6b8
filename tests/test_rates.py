import io

import numpy as np
import pytest

import oracles
from linkalloc.dcf import DcfParams, airtime_durations, simulate_dcf_slots, solve_bianchi_fixed_point, normalized_throughput
from linkalloc.errors import InvalidInputError
from linkalloc.phy import mcs_data_rate, mcs_entry
from linkalloc.rates import (
    RateTensor,
    average_over_channels,
    bootstrap_contenders,
    build_rate_tensor,
    channel_rate,
    edge_endpoints,
    edge_index,
    link_rate,
)
from linkalloc.scenario import bundled_scenario_path, load_scenario

ONE_LINK_YAML = """
name: one_link
seed: 1
ewma_horizon_t: 10
snr_base_db: 45.0
channels:
  - {id: 1, band: 2.4GHz, bandwidth_mhz: 40, mcs: 3}
aps:
  - {id: ap1, radios: 1, slo_channel: 1}
stas:
  - {id: sta1, radios: 1, snr_offset_db: {ap1: 0.0}}
"""

TWO_BY_TWO_YAML = """
name: two_by_two
seed: 1
ewma_horizon_t: 10
snr_base_db: 18.0
channels:
  - {id: 1, band: 2.4GHz, bandwidth_mhz: 40, mcs: 3}
  - {id: 2, band: 5GHz, bandwidth_mhz: 80, mcs: 3}
aps:
  - {id: ap1, radios: 2, slo_channel: 1}
  - {id: ap2, radios: 2, slo_channel: 2}
stas:
  - {id: sta1, radios: 2, snr_offset_db: {ap1: 0.0, ap2: -4.0}}
  - {id: sta2, radios: 1, snr_offset_db: {ap1: -3.0, ap2: 1.0}}
  - {id: sta3, radios: 1, snr_offset_db: {ap1: out-of-range, ap2: 2.0}}
"""


def _load(text):
    return load_scenario(io.StringIO(text))


def _assert_tensor_matches_scalar_chain(sc, *, contenders=None, snr_field=None,
                                        mcs_override=None):
    if snr_field is None:
        snr_field = sc.snr_field(rng=np.random.default_rng(sc.rng_seed))
    if contenders is None:
        contenders = bootstrap_contenders(sc, snr_field)
    got = build_rate_tensor(sc, contenders=contenders, snr_field=snr_field,
                            mcs_override=mcs_override).values
    want = np.zeros_like(got)
    for f, chan in enumerate(sc.channels):
        n_eff = max(1, int(contenders[f]))
        tau = solve_bianchi_fixed_point(sc.dcf, n_eff).tau
        for n, ap in enumerate(sc.aps):
            mcs = sc.mcs_for(f, ap) if mcs_override is None else mcs_override
            rate = mcs_data_rate(mcs_entry(mcs, chan.bandwidth_mhz))
            curve = sc.per_model.curve_for(mcs)
            for m in range(sc.m_stas):
                want[f, n, m] = oracles.link_rate_scalar(
                    float(snr_field[f, n, m]), curve, rate, tau, n_eff, sc.dcf)
    np.testing.assert_array_equal(got == 0.0, want == 0.0)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


def test_edge_index_round_trip():
    for m_stas in (1, 3, 7):
        for e in range(4 * m_stas):
            n, m = edge_endpoints(e, m_stas)
            assert edge_index(n, m, m_stas) == e


def test_channel_rate_dead_channel():
    assert channel_rate(0.3, 0.0, 68.8e6) == 0.0


def test_channel_rate_perfect_channel():
    assert channel_rate(0.0, 1.0, 68.8e6) == 68.8e6


def test_channel_rate_never_exceeds_mcs_rate():
    rng = np.random.default_rng(3)
    for _ in range(100):
        per = float(rng.uniform(0, 1))
        tpt = float(rng.uniform(0, 1))
        assert channel_rate(per, tpt, 68.8e6) <= 68.8e6


def test_channel_rate_composition_against_simulator():
    p = DcfParams()
    rate = mcs_data_rate(mcs_entry(3, 40))
    d = airtime_durations(p, rate)
    s = solve_bianchi_fixed_point(p, 10)
    tpt = normalized_throughput(s, d, 0.05, p)
    composed = channel_rate(0.05, tpt, rate)
    assert composed == pytest.approx(tpt * rate)
    sim = simulate_dcf_slots(p, 10, 0.05, 150_000, seed=9, durations=d)
    assert abs(composed - sim * rate) / composed < 0.05


def test_single_link_tensor_matches_closed_form():
    sc = _load(ONE_LINK_YAML)
    t = build_rate_tensor(sc)
    p = sc.dcf
    rate = mcs_data_rate(mcs_entry(3, 40))
    d = airtime_durations(p, rate)
    want = oracles.closed_form_n1_throughput(p, d) * rate
    # 45 dB effective SNR leaves no measurable error probability at MCS3
    assert t.values[0, 0, 0] == pytest.approx(want, rel=1e-9)


def test_tensor_matches_scalar_chain_on_fixture():
    sc = load_scenario(bundled_scenario_path("scenario_3ap_15sta"))
    for contenders in ([1, 1, 1], [5, 7, 3], [40, 2, 9]):
        for mcs_override in (None, 0, 11):
            _assert_tensor_matches_scalar_chain(sc, contenders=contenders,
                                                mcs_override=mcs_override)
    for base_db in (-30.0, 60.0):
        _assert_tensor_matches_scalar_chain(sc, snr_field=sc.snr_field(base_db=base_db))


def test_tensor_matches_scalar_chain_with_out_of_range_links():
    _assert_tensor_matches_scalar_chain(_load(TWO_BY_TWO_YAML))
    # APs on one channel at different MCS fall into separate kernel blocks
    mixed = TWO_BY_TWO_YAML.replace("slo_channel: 2}", "slo_channel: 2, mcs: {1: 7}}")
    sc = _load(mixed)
    assert sc.mcs_for(0, sc.aps[0]) != sc.mcs_for(0, sc.aps[1])
    _assert_tensor_matches_scalar_chain(sc)


def test_tensor_matches_scalar_chain_with_table_per(tmp_path):
    table = tmp_path / "per_mcs3.csv"
    table.write_text("esnr_db,per\n0.0,1.0\n8.0,0.6\n14.0,0.1\n20.0,0.0\n")
    text = TWO_BY_TWO_YAML.replace(
        "aps:\n", f"per_model: {{kind: table, tables: {{3: {table}}}}}\naps:\n", 1)
    sc = _load(text)
    assert sc.per_model.curve_for(3).is_tabulated
    _assert_tensor_matches_scalar_chain(sc)
    for base_db in (-30.0, 60.0, 10.0):
        _assert_tensor_matches_scalar_chain(sc, snr_field=sc.snr_field(base_db=base_db))


def test_out_of_range_link_is_zero():
    sc = _load(TWO_BY_TWO_YAML)
    t = build_rate_tensor(sc)
    assert t.values[0, 0, 2] == 0.0  # sta3 cannot hear ap1 on any channel
    assert t.values[1, 0, 2] == 0.0
    assert (t.values[:, 1, 2] > 0).all()


def test_sta_permutation_permutes_tensor_axis():
    sc = _load(TWO_BY_TWO_YAML)
    permuted = TWO_BY_TWO_YAML.replace(
        """  - {id: sta1, radios: 2, snr_offset_db: {ap1: 0.0, ap2: -4.0}}
  - {id: sta2, radios: 1, snr_offset_db: {ap1: -3.0, ap2: 1.0}}
  - {id: sta3, radios: 1, snr_offset_db: {ap1: out-of-range, ap2: 2.0}}""",
        """  - {id: sta3, radios: 1, snr_offset_db: {ap1: out-of-range, ap2: 2.0}}
  - {id: sta1, radios: 2, snr_offset_db: {ap1: 0.0, ap2: -4.0}}
  - {id: sta2, radios: 1, snr_offset_db: {ap1: -3.0, ap2: 1.0}}""",
    )
    sc2 = _load(permuted)
    a = build_rate_tensor(sc)
    b = build_rate_tensor(sc2)
    np.testing.assert_allclose(b.values, a.values[:, :, [2, 0, 1]])


def test_contender_count_never_raises_rates():
    # a lone station wastes idle backoff slots, so utilization peaks just
    # above n=1; the decline is monotone from two contenders onward
    assert link_rate(18.0, 3, 40, n_contenders=1) < link_rate(18.0, 3, 40, n_contenders=2)
    prev = None
    for n in range(2, 51):
        r = link_rate(18.0, 3, 40, n_contenders=n)
        assert r > 0
        if prev is not None:
            assert r <= prev + 1e-9
        prev = r


def test_edge_matrix_layout_is_ap_major():
    vals = np.arange(12, dtype=float).reshape(2, 2, 3)
    edges = RateTensor(values=vals).to_edges()
    for n in range(2):
        for m in range(3):
            assert edges.values[1, edge_index(n, m, 3)] == vals[1, n, m]


def test_average_single_channel_is_identity():
    vals = np.random.default_rng(0).uniform(0, 1e8, size=(1, 3, 4))
    avg = average_over_channels(RateTensor(values=vals))
    np.testing.assert_allclose(avg.values, vals[0])


def test_average_hand_value():
    vals = np.array([[[10.0]], [[20.0]], [[30.0]]])
    assert average_over_channels(RateTensor(values=vals)).values[0, 0] == 20.0


def test_average_matches_summation_oracle():
    rng = np.random.default_rng(8)
    vals = rng.uniform(0, 1e8, size=(4, 3, 5))
    avg = average_over_channels(RateTensor(values=vals)).values
    brute = np.zeros((3, 5))
    for f in range(4):
        brute += vals[f]
    brute /= 4
    np.testing.assert_allclose(avg, brute, rtol=1e-12)


def test_rate_tensor_rejects_bad_values():
    with pytest.raises(InvalidInputError):
        RateTensor(values=np.array([[[-1.0]]]))
    with pytest.raises(InvalidInputError):
        RateTensor(values=np.array([[[np.nan]]]))


def test_bootstrap_contenders_camps_each_sta_once():
    sc = _load(TWO_BY_TWO_YAML)
    counts = np.asarray(bootstrap_contenders(sc, sc.snr_field()))
    assert counts.sum() == sc.m_stas
    assert counts.shape == (sc.f_count,)


def test_tensor_uses_supplied_contender_counts():
    sc = _load(TWO_BY_TWO_YAML)
    light = build_rate_tensor(sc, contenders=np.array([2, 2]))
    heavy = build_rate_tensor(sc, contenders=np.array([12, 12]))
    mask = light.values > 0
    assert (heavy.values[mask] < light.values[mask]).all()


def test_mcs_override_changes_rates():
    sc = _load(TWO_BY_TWO_YAML)
    base = build_rate_tensor(sc)
    slower = build_rate_tensor(sc, mcs_override=0)
    mask = base.values > 0
    assert (slower.values[mask] < base.values[mask]).all()
