import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from linkalloc.dcf import (
    AirtimeDurations,
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


@pytest.mark.parametrize("n", [2, 3, 15])
def test_one_slot_window_sends_every_slot(n):
    # W = 1 with no stages: tau(p) = 1 for every p, so the fixed point is tau = 1
    # and every slot collides, in the model and in the slot replay alike
    p = DcfParams(cw_min=1, cw_max=1, m_max_backoff_stages=0)
    state = solve_bianchi_fixed_point(p, n)
    assert (state.tau, state.p_cond_collision, state.residual) == (1.0, 1.0, 0.0)
    durations = airtime_durations(p, mcs_data_rate(3, 40))
    assert normalized_throughput(state, durations, 0.0, p) == 0.0
    assert simulate_dcf_slots(p, n, 0.0, n_slots=2000, seed=0, durations=durations) == 0.0


@pytest.mark.parametrize("n", [2, 40])
def test_fixed_point_below_the_bisection_floor(n):
    # W = 2**62 with no stages: tau is about 4e-19, below the 1e-12 the bisection
    # starts from, so it bisects down from 0 and lands within 1e-9 of the root, relative
    w = 2 ** 62
    state = solve_bianchi_fixed_point(DcfParams(cw_min=w, cw_max=w, m_max_backoff_stages=0), n)
    assert 0.0 < state.tau < 1e-12 and state.residual < 1e-10
    assert state.tau == pytest.approx(oracles.picard_tau(w, 0, n), rel=1e-9, abs=0.0)


@pytest.mark.parametrize("k", [1, 4, 10, 22, 23, 30, 40, 52, 62])
def test_no_stage_root_to_relative_precision(k):
    # with no stages tau(p) = 2 / (W + 1) whatever p is, so that is the root at every n
    w = 2 ** k
    p = DcfParams(cw_min=w, cw_max=w, m_max_backoff_stages=0)
    for n in (2, 3, 10, 1000, 10 ** 7):
        assert solve_bianchi_fixed_point(p, n).tau == pytest.approx(2 / (w + 1), rel=1e-9, abs=0.0)


def test_residual_small_on_every_accepted_ladder():
    # W = 2**k with cw_max up to 2**62, the largest power of two the loader's
    # 64-bit integers hold, and from none to every stage that fits
    for k in range(63):
        for m in {0, 1, 2, 6, (62 - k) // 2, 62 - k}:
            if k + m > 62:
                continue
            p = DcfParams(cw_min=2 ** k, cw_max=2 ** (k + m), m_max_backoff_stages=m)
            for n in (2, 3, 10, 100, 10 ** 4, 10 ** 7):
                assert solve_bianchi_fixed_point(p, n).residual < 1e-10, (k, m, n)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 2 ** 62), st.integers(0, 10), st.integers(2, 10 ** 15))
@example(1, 0, 2)
@example(1, 0, 10 ** 15)
@example(2 ** 62, 0, 2)
@example(2 ** 62, 0, 10 ** 15)
def test_residual_within_1e_12_on_every_ladder(w, m, n):
    # cw_max = W * 2**m, as DcfParams requires: the bisection ends within
    # 1e-12 of the fixed point on every such ladder and contender count, so
    # the solve needs no residual guard
    p = DcfParams(cw_min=w, cw_max=w * 2 ** m, m_max_backoff_stages=m)
    assert solve_bianchi_fixed_point(p, n).residual <= 1e-12


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


_REFUSALS = {
    "slot_time": (lambda: DcfParams(slot_time=0.0), "slot_time must be > 0"),
    "phy_header": (lambda: DcfParams(phy_header=-1e-6), "phy_header must be > 0"),
    "eifs": (lambda: DcfParams(eifs=0.0), "eifs must be > 0 when given"),
    "prop_delay": (lambda: DcfParams(prop_delay=-1e-9), "prop_delay must be >= 0"),
    "ack_bytes": (lambda: DcfParams(ack_bytes=0), "ack_bytes must be > 0 and payload_bytes >= 0"),
    "payload_bytes": (lambda: DcfParams(payload_bytes=-1),
                      "ack_bytes must be > 0 and payload_bytes >= 0"),
    "backoff_stages": (lambda: DcfParams(m_max_backoff_stages=-1),
                       "m_max_backoff_stages must be >= 0"),
    "no_contenders": (lambda: solve_bianchi_fixed_point(DcfParams(), 0),
                      "n_contenders must be >= 1"),
    "mcs_rate_zero": (lambda: airtime_durations(DcfParams(), 0.0),
                      "mcs_rate must be finite and > 0"),
    "mcs_rate_inf": (lambda: airtime_durations(DcfParams(), math.inf),
                     "mcs_rate must be finite and > 0"),
    "durations": (lambda: AirtimeDurations(1e-3, 0.0, 1e-4), "durations must be > 0"),
    # finite durations keep a rate kernel's rates finite, which no step re-checks
    "durations_inf": (lambda: AirtimeDurations(math.inf, 1e-3, 1e-4), "durations must be finite"),
    "durations_nan": (lambda: AirtimeDurations(1e-3, math.nan, 1e-4), "durations must be finite"),
    "payload_inf": (lambda: AirtimeDurations(1e-3, 1e-3, math.inf), "durations must be finite"),
    "durations_overflow": (lambda: airtime_durations(DcfParams(sifs=1e308, difs=1e308), 68.8e6),
                           "durations must be finite"),
    "payload_airtime": (lambda: AirtimeDurations(1e-3, 1e-3, -1e-4),
                        "payload_airtime must be >= 0"),
}


@pytest.mark.parametrize("call, msg", _REFUSALS.values(), ids=_REFUSALS.keys())
def test_dcf_refusals(call, msg):
    with pytest.raises(InvalidInputError) as exc:
        call()
    assert type(exc.value) is InvalidInputError and str(exc.value) == msg
