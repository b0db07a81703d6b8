import dataclasses
import io
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles

from linkalloc import harness
from linkalloc.allocation import (
    LinkSelection,
    RadioBudget,
    allocate_pf,
    allocate_rr,
    checked_phi,
    fairness_spread,
    instantaneous_rates,
    pf_ratio,
    selection_feasible,
)
from linkalloc.errors import InvalidInputError
from linkalloc.harness import LoopCarry, run_apc_loop
from linkalloc.pairing import PairingInstance, PairingMatrix
from linkalloc.phy import TablePer
from linkalloc.rates import RateLinks, RateTensor, bootstrap_contenders, build_rate_tensor
from linkalloc.repro import JointSolution
from linkalloc.scenario import load_scenario


def _rates(values, n_aps, m_stas):
    """Rate tensor from rows of per-channel rates listed AP-major."""
    return RateTensor(np.asarray(values, dtype=float).reshape(-1, n_aps, m_stas))


def _unit_rates(f_count, pairing):
    return RateTensor(np.ones((f_count,) + pairing.x.shape))


def _full_pairing(n_aps, m_stas):
    return PairingMatrix(np.zeros(m_stas, dtype=int), n_aps)


def _cold(c):
    """The averages a cold run starts from: each channel's mean link rate."""
    return c.values.mean(axis=(1, 2))


def _selection(s):
    """The selection of a dense (F, N, M) array whose stations each run
    links to one AP at most; a station with no link is unpaired."""
    active = np.asarray(s).any(axis=0)                  # (N, M)
    assert (active.sum(axis=0) <= 1).all()
    owner = np.where(active.any(axis=0), active.argmax(axis=0), -1)
    return LinkSelection(np.asarray(s).sum(axis=1), PairingMatrix(owner, active.shape[0]))


def _loop_scenario(f_count, horizon_t, stas=1):
    """One AP serving `stas` single-radio stations over `f_count` channels,
    averaging over `horizon_t` steps."""
    channels = "".join(f"  - {{id: {f + 1}, band: 5GHz, bandwidth_mhz: 40, mcs: 3}}\n"
                       for f in range(f_count))
    stations = "".join(f"  - {{id: sta{m}, radios: 1, snr_offset_db: {-3.0 * m}}}\n"
                       for m in range(stas))
    return load_scenario(io.StringIO(
        f"name: loop\newma_horizon_t: {horizon_t}\nsnr_base_db: 30.0\nchannels:\n{channels}"
        f"aps:\n  - {{id: ap1, radios: {stas}, slo_channel: 1}}\nstas:\n{stations}"))


def _served(sc, contenders, selection):
    """The served rates of a step: the dense selection over a tensor rebuilt
    under the contention the step ran under."""
    values = build_rate_tensor(sc, contenders=contenders, snr_field=sc.snr_field()).values
    return oracles.instantaneous_rates_dense(selection.s, values)[0]


def test_ewma_horizon_one_is_instantaneous():
    c = _rates([[100.0, 50.0]], 1, 2)
    s = np.array([[[1, 1]]])
    inst, total = instantaneous_rates(_selection(s), c)
    assert total == 150.0                       # the network total sums the links
    assert inst.tolist() == [75.0]
    # with T = 1 each step's averages are the rates it served
    sc = _loop_scenario(2, 1, stas=2)
    contenders = bootstrap_contenders(sc, sc.snr_field())
    for report in run_apc_loop(sc, iterations=4).reports:
        assert report.per_channel_phi == pytest.approx(
            _served(sc, contenders, report.selection).tolist(), rel=1e-12, abs=0.0)
        contenders = report.selection.per_channel_counts()


def test_ewma_idle_channel_decays():
    sc = _loop_scenario(2, 4)
    carry = dataclasses.replace(run_apc_loop(sc, iterations=1).carry, phi=(8.0, 8.0))
    report = run_apc_loop(sc, iterations=1, carry=carry).final
    counts = report.selection.per_channel_counts().tolist()
    idle, busy = counts.index(0), counts.index(1)
    inst = _served(sc, carry.contenders, report.selection)
    assert report.per_channel_phi[idle] == 0.75 * 8.0
    assert report.per_channel_phi[busy] == pytest.approx(0.75 * 8.0 + inst[busy] / 4)
    assert carry.phi == (8.0, 8.0)              # the carried averages are left as they were
    assert type(report.per_channel_phi) is tuple


def test_ewma_geometric_convergence():
    t = 8
    sc = _loop_scenario(1, t)
    carry = run_apc_loop(sc, iterations=1).carry
    assert carry.contenders == (1,)             # one link, so every step serves one rate
    result = run_apc_loop(sc, iterations=40, carry=dataclasses.replace(carry, phi=(0.0,)))
    rate = _served(sc, (1,), result.final.selection)[0]
    errors = [abs(report.per_channel_phi[0] - rate) for report in result.reports]
    for a, b in zip(errors, errors[1:]):
        assert b == pytest.approx(a * (1 - 1 / t), rel=1e-9)


def test_pf_metric_steady_state_is_one():
    c = _rates([[42.0]], 1, 1)
    s = np.array([[[1]]])
    assert pf_ratio(instantaneous_rates(_selection(s), c)[0][0], 42.0) == pytest.approx(1.0)


def test_pf_metric_reciprocal_scaling():
    c = _rates([[42.0]], 1, 1)
    s = np.array([[[1]]])
    inst, _ = instantaneous_rates(_selection(s), c)
    assert pf_ratio(inst[0], 5.0) == pytest.approx(2 * pf_ratio(inst[0], 10.0))


def test_pf_metric_cold_channel_is_infinite():
    c = _rates([[42.0]], 1, 1)
    s = np.array([[[1]]])
    assert pf_ratio(instantaneous_rates(_selection(s), c)[0][0], 0.0) == math.inf
    assert pf_ratio(0.0, 0.0) == 0.0            # an idle channel that was never served


def test_pf_picks_dominant_rate_channel():
    pairing = _full_pairing(1, 1)
    budget = RadioBudget.from_pairing(pairing, [1])
    c = _rates([[100.0], [10.0]], 1, 1)
    selection = allocate_pf(pairing, budget, c, np.array([50.0, 50.0]))
    assert selection.s[:, 0, 0].tolist() == [1, 0]


def test_pf_single_channel_respects_budget():
    # 1 AP serving 3 single-radio STAs on one channel: one link each, since
    # R(n) counts the AP's stations, not its links
    pairing = PairingMatrix([0, 0, 0], 1)
    budget = RadioBudget.from_pairing(pairing, [1, 1, 1])
    c = _rates([[30.0, 20.0, 10.0]], 1, 3)
    selection = allocate_pf(pairing, budget, c, _cold(c))
    assert selection.s.tolist() == [[[1, 1, 1]]]
    assert selection.unallocated_edges == ()


def test_pf_multi_radio_sta_takes_distinct_channels():
    pairing = _full_pairing(1, 1)
    budget = RadioBudget.from_pairing(pairing, [3])
    c = _rates([[100.0], [80.0], [60.0]], 1, 1)
    selection = allocate_pf(pairing, budget, c, _cold(c))
    assert selection.s[:, 0, 0].tolist() == [1, 1, 1]


def test_pf_skips_dead_links():
    pairing = _full_pairing(1, 2)
    budget = RadioBudget.from_pairing(pairing, [1, 1])
    c = _rates([[100.0, 0.0]], 1, 2)
    selection = allocate_pf(pairing, budget, c, _cold(c))
    assert selection.s[0].tolist() == [[1, 0]]
    assert selection.unallocated_edges == ((0, 1),)


def test_pf_determinism():
    rng = np.random.default_rng(2)
    pairing = PairingMatrix([0, 0, 1, 1], 2)
    budget = RadioBudget.from_pairing(pairing, [2, 1, 2, 1])
    c = _rates(rng.uniform(1, 100, size=(3, 8)), 2, 4)
    phi = _cold(c)
    a = allocate_pf(pairing, budget, c, phi)
    b = allocate_pf(pairing, budget, c, phi)
    np.testing.assert_array_equal(a.s, b.s)
    np.testing.assert_array_equal(oracles.ewma(phi, instantaneous_rates(a, c)[0], 7),
                                  oracles.ewma(phi, instantaneous_rates(b, c)[0], 7))


def test_pf_selection_always_feasible():
    rng = np.random.default_rng(3)
    for _ in range(25):
        n, m, f = 2, 4, 3
        pairing = PairingMatrix([rng.integers(n) for _ in range(m)], n)
        limits = rng.integers(1, 4, size=m)
        budget = RadioBudget.from_pairing(pairing, limits)
        c = _rates(rng.uniform(0, 100, size=(f, n * m)), n, m)
        selection = allocate_pf(pairing, budget, c, _cold(c))
        assert selection_feasible(selection, pairing, budget)


def test_pf_converges_on_static_rates():
    # a dual-radio link spanning both channels plus a single-radio link that
    # only hears channel 1; the split is stable and the C/phi ratios level out
    pairing = PairingMatrix([0, 0], 1)
    budget = RadioBudget.from_pairing(pairing, [2, 1])
    c = _rates([[80.0, 0.0], [50.0, 60.0]], 1, 2)
    phi = _cold(c)
    for _ in range(120):
        inst, _ = instantaneous_rates(allocate_pf(pairing, budget, c, phi), c)
        phi = oracles.ewma(phi, inst, 10)
    spread = fairness_spread(list(map(pf_ratio, inst.tolist(), phi.tolist())))
    assert spread < 0.05
    ratios = inst / phi
    rel = (ratios.max() - ratios.min()) / ratios.mean()
    assert rel < 0.05


def test_pf_log_utility_nondecreasing_after_burn_in():
    t = 10
    pairing = PairingMatrix([0, 0, 0], 1)
    budget = RadioBudget.from_pairing(pairing, [2, 1, 1])
    c = _rates([[80.0, 20.0, 35.0], [50.0, 45.0, 10.0]], 1, 3)
    phi = _cold(c)
    utilities = []
    for _ in range(80):
        selection = allocate_pf(pairing, budget, c, phi)
        phi = oracles.ewma(phi, instantaneous_rates(selection, c)[0], t)
        utilities.append(float(np.log(phi).sum()))
    tail = utilities[t:]
    assert all(b >= a - 1e-9 for a, b in zip(tail, tail[1:]))


@st.composite
def _pf_cases(draw):
    """Pairing, r(m) up to F + 1, phi and rates from small integer sets, so
    that channel scores and means tie, some links are dead and some phi are 0."""
    f = draw(st.integers(1, 4))
    n = draw(st.integers(1, 3))
    m = draw(st.integers(1, 6))
    owner = draw(st.lists(st.integers(-1, n - 1), min_size=m, max_size=m))
    limits = draw(st.lists(st.integers(1, f + 1), min_size=m, max_size=m))
    phi = draw(st.lists(st.sampled_from([0.0, 1.0, 2.0, 3.0]), min_size=f, max_size=f))
    rates = draw(st.lists(st.sampled_from([0.0, 1.0, 2.0, 4.0]),
                          min_size=f * n * m, max_size=f * n * m))
    return (PairingMatrix(owner, n), np.array(limits), np.array(phi),
            np.array(rates).reshape(f, n, m))


def _dense(pairing):
    """X[n, m] of a pairing, built here rather than read off its view."""
    x = np.zeros((pairing.n_aps, pairing.m_stas), dtype=int)
    for m, n in enumerate(pairing.owner.tolist()):
        if n >= 0:
            x[n, m] = 1
    return x


@settings(max_examples=300, deadline=None)
@given(_pf_cases())
def test_pf_matches_per_link_oracle(case):
    pairing, limits, phi, values = case
    x = _dense(pairing)
    selection = allocate_pf(pairing, RadioBudget.from_pairing(pairing, limits),
                            RateTensor(values), phi)
    s, unallocated = oracles.allocate_pf_per_link(x, limits, values, phi)
    np.testing.assert_array_equal(selection.s, s)
    assert selection.unallocated_edges == unallocated


@st.composite
def _owner_cases(draw):
    """A pairing with unpaired stations, r(m) up to F + 1, RR weights, phi
    with zeros, and rates that are 0 or any float up to 1e9, so that sums
    round."""
    f = draw(st.integers(1, 4))
    n = draw(st.integers(1, 4))
    m = draw(st.integers(1, 8))
    owner = draw(st.lists(st.integers(-1, n - 1), min_size=m, max_size=m))
    limits = draw(st.lists(st.integers(1, f + 1), min_size=m, max_size=m))
    weights = draw(st.lists(st.integers(1, 4), min_size=f, max_size=f))
    phi = draw(st.lists(st.sampled_from([0.0, 0.5, 3.0, 7e8]), min_size=f, max_size=f))
    rate = st.one_of(st.just(0.0), st.floats(1e-3, 1e9, allow_nan=False))
    rates = draw(st.lists(rate, min_size=f * n * m, max_size=f * n * m))
    return (PairingMatrix(owner, n), np.array(limits), weights, np.array(phi),
            np.array(rates).reshape(f, n, m))


@settings(max_examples=300, deadline=None)
@given(_owner_cases())
def test_owner_form_matches_dense_path(case):
    pairing, limits, weights, phi, values = case
    x, c = _dense(pairing), RateTensor(values)
    budget = RadioBudget.from_pairing(pairing, limits)
    pf = allocate_pf(pairing, budget, c, phi)
    s, unallocated = oracles.allocate_pf_dense(x, limits, values, phi)
    np.testing.assert_array_equal(pf.s, s)
    assert pf.unallocated_edges == unallocated == tuple(sorted(unallocated))
    rr = allocate_rr(pairing, budget, c, weights)
    np.testing.assert_array_equal(rr.s, oracles.allocate_rr_dense(x, limits, len(weights),
                                                                   weights))
    for selection in (pf, rr):
        assert selection.pairing is pairing
        inst, total = instantaneous_rates(selection, c)
        want_inst, want_total = oracles.instantaneous_rates_dense(selection.s, values)
        np.testing.assert_allclose(inst, want_inst, rtol=1e-12, atol=0.0)
        assert total == pytest.approx(want_total, rel=1e-12, abs=0.0)
        assert selection.per_channel_counts().tolist() == selection.s.sum(axis=(1, 2)).tolist()


@st.composite
def _revisit_cases(draw):
    """One rate tensor, two pairings over it, and a run of steps, each naming
    the pairing it allocates for and its phi (zeros included)."""
    f = draw(st.integers(1, 4))
    n = draw(st.integers(1, 3))
    m = draw(st.integers(1, 6))
    owner = st.lists(st.integers(-1, n - 1), min_size=m, max_size=m)
    pairings = (PairingMatrix(draw(owner), n), PairingMatrix(draw(owner), n))
    limits = draw(st.lists(st.integers(1, f + 1), min_size=m, max_size=m))
    rate = st.one_of(st.just(0.0), st.floats(1e-3, 1e9, allow_nan=False))
    rates = draw(st.lists(rate, min_size=f * n * m, max_size=f * n * m))
    phi = st.lists(st.sampled_from([0.0, 0.5, 3.0, 7e8]), min_size=f, max_size=f)
    steps = draw(st.lists(st.tuples(st.integers(0, 1), phi), min_size=1, max_size=8))
    return pairings, np.array(limits), np.array(rates).reshape(f, n, m), steps


@settings(max_examples=200, deadline=None)
@given(_revisit_cases())
def test_paired_links_view_never_leaks_between_pairings(case):
    # the tensor keeps one pairing's view; alternating pairings and averages
    # must read like a fresh dense computation every time
    pairings, limits, values, steps = case
    c = RateTensor(values)
    budget = RadioBudget.from_pairing(pairings[0], limits)
    previous = None
    for which, phi in steps:
        pairing = pairings[which]
        selection = allocate_pf(pairing, budget, c, phi)
        s, unallocated = oracles.allocate_pf_dense(_dense(pairing), limits, values, np.array(phi))
        np.testing.assert_array_equal(selection.s, s)
        assert selection.unallocated_edges == unallocated
        for seen in (selection, previous or selection):
            inst, total = instantaneous_rates(seen, c)
            want_inst, want_total = oracles.instantaneous_rates_dense(seen.s, values)
            np.testing.assert_allclose(inst, want_inst, rtol=1e-12, atol=0.0)
            assert total == pytest.approx(want_total, rel=1e-12, abs=0.0)
        previous = selection


def test_all_unpaired_pairing_allocates_nothing():
    pairing = PairingMatrix([-1, -1, -1], 2)
    c = RateTensor(np.arange(1.0, 13.0).reshape(2, 2, 3))
    view = c.paired_links(pairing)
    assert view.cand.shape == (2, 0)
    assert view.means == (0.0, 0.0) and view.unallocated_edges == ()
    for phi in ([0.0, 0.0], [1.0, 0.0]):
        selection = allocate_pf(pairing, RadioBudget.from_pairing(pairing, [2, 2, 2]), c, phi)
        assert not selection.links.any() and selection.unallocated_edges == ()
        inst, total = instantaneous_rates(selection, c)
        assert inst.tolist() == [0.0, 0.0] and total == 0.0


def test_paired_links_view_kept_per_pairing_object():
    c = RateTensor(np.array([[[3.0, 0.0, 1.0], [2.0, 5.0, 0.0]]]))
    pairing = PairingMatrix([0, 1, 0], 2)
    view = c.paired_links(pairing)
    assert c.paired_links(pairing) is view
    assert view.cand.tolist() == [[3.0, 1.0, 5.0]]          # AP-major: (0, 0), (0, 2), (1, 1)
    assert view.live.tolist() == [[True, True, True]]
    assert not view.cand.flags.writeable and not view.live.flags.writeable
    equal = PairingMatrix([0, 1, 0], 2)                     # equal owners, another object
    rebuilt = c.paired_links(equal)
    assert rebuilt is not view
    np.testing.assert_array_equal(rebuilt.cand, view.cand)
    assert c.paired_links(equal) is rebuilt
    assert c.paired_links(pairing) is not view              # only the last pairing is kept
    with pytest.raises(InvalidInputError):
        c.paired_links(PairingMatrix([0, 0], 1))


def test_rr_uniform_weights_deal_one_each():
    pairing = PairingMatrix([0, 0, 0], 1)
    budget = RadioBudget.from_pairing(pairing, [1, 1, 1])
    selection = allocate_rr(pairing, budget, _unit_rates(3, pairing), [1, 1, 1])
    assert selection.per_channel_counts().tolist() == [1, 1, 1]
    assert selection.s.sum() == 3


def test_rr_weighted_slices():
    # seven single-radio links, weights 1/2/4 -> 1, 2 and 4 links per channel
    pairing = PairingMatrix([0] * 7, 1)
    budget = RadioBudget.from_pairing(pairing, [1] * 7)
    selection = allocate_rr(pairing, budget, _unit_rates(3, pairing), [1, 2, 4])
    assert selection.per_channel_counts().tolist() == [1, 2, 4]


def test_rr_deals_a_weight_past_any_list_by_its_runs():
    # weights (10**12, 1, 1): positions [0, 10**12) deal channel 0, then one
    # each of channels 1 and 2. Station 0 takes 0 at 0, skips channel 0's run
    # to take 1 and 2; station 1 takes 0 at 10**12 + 2, skips to take 1 at
    # 2 * 10**12 + 2; station 2 takes 2 at 2 * 10**12 + 3; station 3 takes 0
    pairing = PairingMatrix([0, 0, 0, 0], 1)
    budget = RadioBudget.from_pairing(pairing, [3, 2, 1, 1])
    selection = allocate_rr(pairing, budget, _unit_rates(3, pairing), [10**12, 1, 1])
    assert selection.links.tolist() == [[1, 1, 0, 1], [1, 1, 0, 0], [1, 0, 1, 0]]


def test_rr_determinism():
    pairing = PairingMatrix([0, 1, 0], 2)
    budget = RadioBudget.from_pairing(pairing, [2, 2, 1])
    a = allocate_rr(pairing, budget, _unit_rates(2, pairing), [2, 1])
    b = allocate_rr(pairing, budget, _unit_rates(2, pairing), [2, 1])
    np.testing.assert_array_equal(a.s, b.s)


def test_rr_rejects_bad_weights():
    pairing = _full_pairing(1, 1)
    budget = RadioBudget.from_pairing(pairing, [1])
    with pytest.raises(InvalidInputError):
        allocate_rr(pairing, budget, _unit_rates(2, pairing), [1])
    with pytest.raises(InvalidInputError):
        allocate_rr(pairing, budget, _unit_rates(2, pairing), [1, 0])


@pytest.mark.parametrize("weights", [(1.5, 2, 4), (True, 2, 4), (math.nan, 1, 1), ("a", 1, 1),
                                     (np.float64(2.0), 1, 1), (np.True_, 1, 1), (1, 0, 1)])
def test_rr_weights_follow_the_count_rule(weights):
    # an integer (numpy's too), not a bool, >= 1: nothing is rounded or read as 1
    pairing = _full_pairing(1, 2)
    budget = RadioBudget.from_pairing(pairing, [1, 1])
    with pytest.raises(InvalidInputError) as exc:
        allocate_rr(pairing, budget, _unit_rates(3, pairing), weights)
    assert type(exc.value) is InvalidInputError
    assert str(exc.value) == "need one positive weight per channel"


def test_rr_weights_take_numpy_integers():
    pairing = _full_pairing(1, 2)
    budget = RadioBudget.from_pairing(pairing, [1, 1])
    got = allocate_rr(pairing, budget, _unit_rates(3, pairing), np.array([1, 2, 4], dtype=np.int32))
    want = allocate_rr(pairing, budget, _unit_rates(3, pairing), (1, 2, 4))
    assert got.links.tobytes() == want.links.tobytes()


@pytest.mark.parametrize("limits", [np.full(15, 1.5), ["a"] * 15, [True, 1], [1, np.True_],
                                    np.ones(3, dtype=bool), [1.0, 2], [[1, 2]], 3, [1, None],
                                    [1, 2**31], [10**30] * 15])
def test_radio_limits_follow_the_count_rule(limits):
    # the loader's MAX_RADIOS (2**31 - 1) bounds them, so no count passes int64
    with pytest.raises(InvalidInputError) as exc:
        RadioBudget(limits)
    assert type(exc.value) is InvalidInputError
    assert str(exc.value) == "radio limits must be a vector of positive counts"


@pytest.mark.parametrize("limits", [[1, 2], (np.int64(1), 2), np.array([1, 2], dtype=np.uint8)])
def test_radio_limits_take_integers_of_any_kind(limits):
    lim = RadioBudget(limits).sta_radio_limits
    assert lim.tolist() == [1, 2] and lim.dtype == int and not lim.flags.writeable
    assert RadioBudget([2**31 - 1]).sta_radio_limits.tolist() == [2**31 - 1]


def test_fairness_spread_uniform_is_zero():
    for metrics in ([2.0, 2.0, 2.0], [0.0, 0.0, 0.0]):   # all 0: no active link
        assert fairness_spread(metrics) == 0.0


def test_fairness_spread_hand_value():
    assert fairness_spread([1.0, 3.0]) == pytest.approx(1.0)


def test_fairness_spread_rejects_empty():
    with pytest.raises(InvalidInputError):
        fairness_spread([])


def test_fairness_spread_infinite_metric_passthrough():
    assert fairness_spread([1.0, math.inf]) == math.inf


_METRIC = st.one_of(st.just(0.0), st.just(math.inf), st.just(math.nan),
                    st.floats(1e-3, 1e3), st.floats(-1e3, -1e-3))


@st.composite
def _metric_lists(draw):
    if draw(st.booleans()):     # equal values
        return [draw(_METRIC)] * draw(st.integers(1, 16))
    return draw(st.lists(_METRIC, min_size=1, max_size=16))


def _spread_or_error(spread, metrics):
    try:
        return spread(metrics)
    except InvalidInputError as exc:
        return str(exc)


@settings(max_examples=500, deadline=None)
@given(_metric_lists())
def test_fairness_spread_equals_numpy_to_the_bit(metrics):
    # numpy's mean sums 8 or more values in eight interleaved partial sums,
    # where a left fold would round otherwise; any NaN metric spreads NaN
    want = _spread_or_error(oracles.fairness_spread_numpy, metrics)
    got = _spread_or_error(fairness_spread, metrics)
    assert type(got) is type(want)
    if isinstance(want, str):
        assert got == want
    elif math.isnan(want):
        assert math.isnan(got)
    else:
        assert np.float64(got).tobytes() == np.float64(want).tobytes()


def _spread_by_add_reduce(vals):
    """fairness_spread's special cases around (max - min) / (add.reduce / n)."""
    if not vals:
        raise InvalidInputError("need at least one metric")
    if math.inf in vals or -math.inf in vals:
        return math.inf
    mean = float(np.add.reduce(vals)) / len(vals)
    if math.isnan(mean):
        return math.nan
    if max(vals) == min(vals):
        return 0.0
    if mean <= 0:
        raise InvalidInputError("metrics must have positive mean")
    return (max(vals) - min(vals)) / mean


_ANY_METRIC = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, math.nan, math.inf, -math.inf]),
    st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True),
    st.floats(-1e3, 1e3), st.floats(1e-300, 1e300))


@settings(max_examples=500, deadline=None)
@given(st.one_of(st.lists(_ANY_METRIC, min_size=1, max_size=7),      # the Python sum
                 st.lists(_ANY_METRIC, min_size=8, max_size=12)))   # numpy's add.reduce
@example([1.0, 1e16, -1e16]).via("3 added left to right: 0.0, where 1.0 + (1e16 - 1e16) is 1.0")
@example([0.1] * 9).via("9 added pairwise: 0.9, where a left fold reads 0.8999999999999999")
def test_fairness_spread_keeps_add_reduce_bits_at_every_length(metrics):
    with np.errstate(over="ignore"):    # a sum past the float range is inf either way
        want = _spread_or_error(_spread_by_add_reduce, metrics)
        got = _spread_or_error(fairness_spread, metrics)
    assert type(got) is type(want)
    if isinstance(want, str):
        assert got == want
    else:   # repr tells NaN and each finite value apart, copysign the sign of a zero
        assert repr(got) == repr(want) and math.copysign(1.0, got) == math.copysign(1.0, want)


@pytest.mark.parametrize("metrics", [[1.0, math.nan, 1.0], [math.nan], [math.nan, -1.0, 0.0]])
def test_fairness_spread_nan_metric_spreads_nan(metrics):
    assert math.isnan(oracles.fairness_spread_numpy(metrics))
    assert math.isnan(fairness_spread(metrics))


@pytest.mark.parametrize("metrics", [[], [1.0, -2.0], [-1.0, 0.0, 0.0], [-0.5] * 8 + [0.25]])
def test_fairness_spread_refusals_match_numpy(metrics):
    with pytest.raises(InvalidInputError) as want:
        oracles.fairness_spread_numpy(metrics)
    with pytest.raises(InvalidInputError) as got:
        fairness_spread(metrics)
    assert str(got.value) == str(want.value)


def _phi_readers(phi):
    """Each way to hand averages in, called on `phi`: `allocate_pf`, and a run
    of each allocator resumed from a carry that holds `phi` and no records."""
    f = np.shape(phi)[0] if np.ndim(phi) == 1 else 1
    pairing = _full_pairing(1, 1)
    sc = _loop_scenario(f, 5)
    carry = dataclasses.replace(run_apc_loop(sc, iterations=1).carry, phi=phi, memo=())
    return [lambda: allocate_pf(pairing, RadioBudget([1]), RateTensor(np.ones((f, 1, 1))), phi)] + [
        lambda allocator=allocator: run_apc_loop(sc, allocator=allocator, iterations=1, carry=carry)
        for allocator in ("pf", "rr", "slo")]


# as lists, then as tuples, the form the loop carries
@pytest.mark.parametrize("phi", [[1.0, math.nan], [math.inf], [2.0, -math.inf], [-1e-300],
                                 [[1.0, 2.0]], (1.0, math.nan), (math.inf,), (2.0, -math.inf),
                                 (-1e-300,), ((1.0, 2.0),)])
def test_state_refuses_phi(phi):
    for read in _phi_readers(phi):
        # a run refuses a carry before it builds any rate tensor
        with mock.patch.object(harness, "build_rate_tensor",
                               wraps=harness.build_rate_tensor) as build, \
                pytest.raises(InvalidInputError,
                              match="^phi must be a vector of finite, non-negative values$"):
            read()
        assert build.call_count == 0


@pytest.mark.parametrize("phi", [(0.5, -0.0, 3.0), [0.5, -0.0, 3.0], np.array([0.5, -0.0, 3.0]),
                                 (np.float64(0.5), -0.0, 3)],
                         ids=["tuple", "list", "array", "mixed"])
def test_checked_phi_returns_floats_to_the_bit(phi):
    got = checked_phi(phi, 3)
    assert type(got) is tuple and [type(v) for v in got] == [float] * 3
    assert [v.hex() for v in got] == [(0.5).hex(), (-0.0).hex(), (3.0).hex()]
    with pytest.raises(InvalidInputError, match="^phi covers a different channel count$"):
        checked_phi(phi, 2)


def test_state_accepts_negative_zero():
    for read in _phi_readers([-0.0, 0.0]):
        read()
    # an idle channel's -0.0 decays to +0.0 (keep * -0.0 + 0.0 / T)
    sc = _loop_scenario(2, 5)
    carry = dataclasses.replace(run_apc_loop(sc, iterations=1).carry, phi=(-0.0, -0.0))
    report = run_apc_loop(sc, iterations=1, carry=carry).final
    phi = report.per_channel_phi[report.selection.per_channel_counts().tolist().index(0)]
    assert phi == 0.0 and math.copysign(1.0, phi) == 1.0


def test_selection_reports_links():
    # STA 0 runs channels 0 and 1 with AP 1, STA 1 channel 1 with AP 0,
    # STA 2 is unpaired
    pairing = PairingMatrix([1, 0, -1], 2)
    sel = LinkSelection([[1, 0, 0], [1, 1, 0]], pairing)
    assert sel.links.dtype == np.int8 and not sel.links.flags.writeable
    assert sel.s.shape == (2, 2, 3) and sel.s.dtype == np.int8
    assert not sel.s.flags.writeable
    assert np.argwhere(sel.s).tolist() == [[0, 1, 0], [1, 0, 1], [1, 1, 0]]
    assert sel.per_channel_counts().tolist() == [1, 2]
    with pytest.raises(InvalidInputError):
        LinkSelection(sel.s, pairing)            # (F, N, M) is not a selection
    with pytest.raises(InvalidInputError):
        LinkSelection([[1, 0]], pairing)         # one column per station
    with pytest.raises(InvalidInputError):
        LinkSelection([[0, 0, 2]], pairing)      # entries are 0 or 1
    with pytest.raises(InvalidInputError):
        LinkSelection([[0, 0, 1]], pairing)      # STA 2 has no AP to run it with


@pytest.mark.parametrize("links", [
    [[1, 1, 0]],        # STA 1 is unpaired
    [[1, 2, 0]],        # entries are 0 or 1
    [[1, 0]],           # one column per station
    [1, 0, 1],          # one row per channel
])
def test_selection_refusals(links):
    with pytest.raises(InvalidInputError, match=r"^need 0/1 links, \(F, 3\), on paired STAs$"):
        LinkSelection(links, PairingMatrix([0, -1, 0], 1))


def test_selection_feasible_checks_whole_arrays():
    # AP 0 serves STA 0 and AP 1 serves STA 1; 2 channels
    pairing = PairingMatrix([0, 1], 2)
    budget = RadioBudget(sta_radio_limits=np.array([2, 1]))

    def feasible(links):
        s = np.zeros((2, 2, 2), dtype=np.int8)
        for f, n, m in links:
            s[f, n, m] = 1
        return selection_feasible(_selection(s), pairing, budget)

    assert feasible([(0, 0, 0), (1, 0, 0), (1, 1, 1)])
    assert not feasible([(0, 1, 0)])                       # link of an unpaired pair
    assert not feasible([(0, 1, 1), (1, 1, 1)])            # STA 1 has one radio
    with pytest.raises(InvalidInputError):
        selection_feasible(LinkSelection(np.zeros((2, 3)), PairingMatrix([0, 0, 0], 2)),
                           pairing, budget)


_ARRAY_TYPES = {
    "TablePer": lambda: TablePer([0.0, 10.0, 20.0], [1.0, 0.5, 0.0]),
    "RateTensor": lambda: RateTensor(np.ones((2, 1, 3))),
    "PairingMatrix": lambda: PairingMatrix([0, -1, 0], 1),
    "PairingInstance": lambda: PairingInstance(np.ones((1, 3)), [3], [1, 1, 1]),
    "JointSolution": lambda: JointSolution(np.ones((2, 1, 3)), 6.0),
    "LinkSelection": lambda: LinkSelection([[1, 0, 1]], PairingMatrix([0, -1, 0], 1)),
    "RadioBudget": lambda: RadioBudget([1, 2, 3]),
    "LoopCarry": lambda: LoopCarry((1.0,), (3,), 2, links=RateLinks(
        np.arange(3), np.zeros(3), (3,), (0,), ((1.0,), (1.0,), (1.0,), (1.0,)))),
}


@pytest.mark.parametrize("make", _ARRAY_TYPES.values(), ids=_ARRAY_TYPES.keys())
def test_types_holding_arrays_compare_by_identity(make):
    a, b = make(), make()
    assert (a == a) is True and (a == b) is False and (a != b) is True
    assert hash(a) == hash(a) and isinstance(hash(b), int)


def _resume_with_phi(phi, allocator):
    sc = _loop_scenario(2, 5)
    carry = dataclasses.replace(run_apc_loop(sc, iterations=1).carry, phi=phi)
    return run_apc_loop(sc, allocator=allocator, iterations=1, carry=carry)


_REFUSALS = {
    "radio_limit_zero": (lambda: RadioBudget([0, 1]),
                         "radio limits must be a vector of positive counts"),
    "pf_budget_other_stations": (
        lambda: allocate_pf(_full_pairing(1, 2), RadioBudget([1, 1, 1]), RateTensor(np.ones((2, 1, 2))),
                            [1.0, 1.0]),
        "budget covers a different station count"),
    "rr_budget_other_stations": (
        lambda: allocate_rr(_full_pairing(1, 2), RadioBudget([1]), RateTensor(np.ones((2, 1, 2))),
                            [1, 1]),
        "budget covers a different station count"),
    "pf_state_other_channels": (
        lambda: allocate_pf(_full_pairing(1, 2), RadioBudget([1, 1]), RateTensor(np.ones((2, 1, 2))),
                            [1.0, 1.0, 1.0]),
        "phi covers a different channel count"),
    "pf_carry_other_channels": (
        lambda: _resume_with_phi([1.0, 1.0, 1.0], "pf"), "phi covers a different channel count"),
    "rr_carry_other_channels": (
        lambda: _resume_with_phi([1.0], "rr"), "phi covers a different channel count"),
}


@pytest.mark.parametrize("call, msg", _REFUSALS.values(), ids=_REFUSALS.keys())
def test_allocation_refusals(call, msg):
    with pytest.raises(InvalidInputError) as exc:
        call()
    assert type(exc.value) is InvalidInputError and str(exc.value) == msg
