import pytest

import oracles
from linkalloc.dcf import (
    DcfParams,
    airtime_durations,
    normalized_throughput,
    solve_bianchi_fixed_point,
)
from linkalloc.errors import InvalidInputError
from linkalloc.phy import mcs_data_rate
from linkalloc.repro import simulate_dcf_slots


def test_default_params_match_reference_table():
    p = DcfParams()
    assert p.slot_time == 9e-6
    assert p.sifs == 16e-6
    assert p.difs == 34e-6
    assert p.phy_header == 20e-6
    assert p.ack_bytes == 14
    assert p.payload_bytes == 1500
    assert p.cw_min == 16
    assert p.cw_max == 1024
    assert p.m_max_backoff_stages == 6
    assert p.prop_delay == 0.1e-6


def test_params_validate_cw_ladder():
    with pytest.raises(InvalidInputError):
        DcfParams(cw_min=16, cw_max=1000, m_max_backoff_stages=6)


def test_single_contender_closed_form():
    state = solve_bianchi_fixed_point(DcfParams(), 1)
    assert state.p_cond_collision == 0.0
    assert state.tau == pytest.approx(2.0 / 17.0, rel=1e-12)


def test_fixed_point_matches_damped_picard():
    p = DcfParams()
    state = solve_bianchi_fixed_point(p, 10)
    ref = oracles.picard_tau(p.cw_min, p.m_max_backoff_stages, 10)
    assert state.tau == pytest.approx(ref, abs=1e-6)


def test_tau_strictly_decreasing_in_contenders():
    p = DcfParams()
    taus = [solve_bianchi_fixed_point(p, n).tau for n in range(2, 51)]
    assert all(a > b for a, b in zip(taus, taus[1:]))


def test_residual_small_up_to_128_contenders():
    p = DcfParams()
    for n in range(1, 129):
        state = solve_bianchi_fixed_point(p, n)
        assert state.residual < 1e-10
        assert 0.0 < state.tau < 1.0


def test_payload_airtime_at_mcs3():
    rate = mcs_data_rate(3, 40)
    d = airtime_durations(DcfParams(), rate)
    assert d.payload_airtime == pytest.approx(1500 * 8 / rate)
    assert d.payload_airtime == pytest.approx(174.4e-6, rel=1e-3)


def test_zero_payload_success_time():
    p = DcfParams(payload_bytes=0)
    rate = 68.8e6
    d = airtime_durations(p, rate)
    ack = p.ack_bytes * 8 / rate + p.phy_header
    assert d.payload_airtime == 0.0
    assert d.t_success == pytest.approx(p.phy_header + p.sifs + p.prop_delay + ack + p.difs + p.prop_delay)


def test_collision_time_is_success_minus_prop_delay():
    # with the default EIFS = SIFS + ACK + DIFS the algebra collapses
    p = DcfParams()
    d = airtime_durations(p, mcs_data_rate(6, 40))
    assert d.t_collision == pytest.approx(d.t_success - p.prop_delay, rel=1e-12)
    assert d.t_success >= d.payload_airtime


def test_throughput_zero_when_per_is_one():
    p = DcfParams()
    d = airtime_durations(p, 68.8e6)
    s = solve_bianchi_fixed_point(p, 5)
    assert normalized_throughput(s, d, 1.0, p) == 0.0


def test_throughput_single_contender_reduction():
    p = DcfParams()
    d = airtime_durations(p, mcs_data_rate(6, 40))
    s = solve_bianchi_fixed_point(p, 1)
    got = normalized_throughput(s, d, 0.0, p)
    assert got == pytest.approx(oracles.closed_form_n1_throughput(p, d), rel=1e-12)


def test_throughput_rejects_bad_per():
    p = DcfParams()
    d = airtime_durations(p, 68.8e6)
    s = solve_bianchi_fixed_point(p, 2)
    with pytest.raises(InvalidInputError):
        normalized_throughput(s, d, 1.5, p)
    with pytest.raises(InvalidInputError):
        normalized_throughput(s, d, -0.1, p)


def test_throughput_bounded_and_monotone_in_per():
    p = DcfParams()
    d = airtime_durations(p, mcs_data_rate(6, 40))
    for n in (1, 2, 5, 10, 20):
        s = solve_bianchi_fixed_point(p, n)
        vals = [normalized_throughput(s, d, per / 10.0, p) for per in range(11)]
        assert all(0.0 <= v <= 1.0 for v in vals)
        assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))
        assert vals[-1] == 0.0


def test_simulator_matches_closed_form_single_station():
    p = DcfParams()
    d = airtime_durations(p, mcs_data_rate(6, 40))
    got = simulate_dcf_slots(p, 1, 0.0, 100_000, seed=5, durations=d)
    want = oracles.closed_form_n1_throughput(p, d)
    assert abs(got - want) / want < 0.02


def test_simulator_seed_determinism():
    p = DcfParams()
    d = airtime_durations(p, mcs_data_rate(6, 40))
    a = simulate_dcf_slots(p, 5, 0.1, 20_000, seed=42, durations=d)
    b = simulate_dcf_slots(p, 5, 0.1, 20_000, seed=42, durations=d)
    c = simulate_dcf_slots(p, 5, 0.1, 20_000, seed=43, durations=d)
    assert a == b
    assert a != c


def test_analytic_vs_simulator_at_ten_contenders():
    p = DcfParams()
    d = airtime_durations(p, mcs_data_rate(6, 40))
    s = solve_bianchi_fixed_point(p, 10)
    analytic = normalized_throughput(s, d, 0.1, p)
    sim = simulate_dcf_slots(p, 10, 0.1, 150_000, seed=2, durations=d)
    assert abs(sim - analytic) / analytic < 0.05


def test_analytic_vs_simulator_at_twenty_contenders():
    p = DcfParams()
    d = airtime_durations(p, mcs_data_rate(6, 40))
    s = solve_bianchi_fixed_point(p, 20)
    analytic = normalized_throughput(s, d, 0.0, p)
    sim = simulate_dcf_slots(p, 20, 0.0, 150_000, seed=3, durations=d)
    assert abs(sim - analytic) / analytic < 0.05
