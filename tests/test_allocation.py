import math

import numpy as np
import pytest

from linkalloc.allocation import (
    LinkSelection,
    RadioBudget,
    ThroughputState,
    allocate_pf,
    allocate_rr,
    commit_state,
    ewma_update,
    fairness_spread,
    instantaneous_rates,
    pf_metric,
    selection_feasible,
)
from linkalloc.errors import InvalidInputError
from linkalloc.pairing import PairingMatrix
from linkalloc.rates import EdgeRateMatrix


def _edge_rates(values, n_aps, m_stas):
    return EdgeRateMatrix(values=np.asarray(values, dtype=float), n_aps=n_aps, m_stas=m_stas)


def _full_pairing(n_aps, m_stas):
    x = np.zeros((n_aps, m_stas), dtype=int)
    x[0] = 1
    return PairingMatrix(x=x)


def test_ewma_horizon_one_is_instantaneous():
    c = _edge_rates([[100.0, 50.0]], 1, 2)
    state = ThroughputState(phi_prev=np.array([7.0]), phi_cur=np.array([7.0]), horizon_t=1)
    s = np.array([[1, 1]])
    out = ewma_update(state, s, c)
    assert out.phi_cur[0] == pytest.approx(75.0)


def test_ewma_idle_channel_decays():
    c = _edge_rates([[100.0], [100.0]], 1, 1)
    state = ThroughputState(phi_prev=np.array([8.0, 8.0]), phi_cur=np.array([8.0, 8.0]), horizon_t=4)
    s = np.array([[1], [0]])
    out = ewma_update(state, s, c)
    assert out.phi_cur[1] == pytest.approx(0.75 * 8.0)
    assert out.phi_cur[0] == pytest.approx(0.75 * 8.0 + 100.0 / 4)
    # phi_prev is only advanced by an explicit commit
    assert out.phi_prev[0] == 8.0
    committed = commit_state(out)
    assert committed.phi_prev[0] == out.phi_cur[0]


def test_ewma_geometric_convergence():
    t = 8
    c = _edge_rates([[60.0]], 1, 1)
    s = np.array([[1]])
    state = ThroughputState(phi_prev=np.array([0.0]), phi_cur=np.array([0.0]), horizon_t=t)
    errors = []
    for _ in range(40):
        state = commit_state(ewma_update(state, s, c))
        errors.append(abs(state.phi_cur[0] - 60.0))
    for a, b in zip(errors, errors[1:]):
        assert b == pytest.approx(a * (1 - 1 / t), rel=1e-9)


def test_pf_metric_steady_state_is_one():
    c = _edge_rates([[42.0]], 1, 1)
    s = np.array([[1]])
    state = ThroughputState(phi_prev=np.array([42.0]), phi_cur=np.array([42.0]), horizon_t=5)
    assert pf_metric(state, s, c, 0) == pytest.approx(1.0)


def test_pf_metric_reciprocal_scaling():
    c = _edge_rates([[42.0]], 1, 1)
    s = np.array([[1]])
    full = ThroughputState(phi_prev=np.array([10.0]), phi_cur=np.array([10.0]), horizon_t=5)
    half = ThroughputState(phi_prev=np.array([5.0]), phi_cur=np.array([5.0]), horizon_t=5)
    assert pf_metric(half, s, c, 0) == pytest.approx(2 * pf_metric(full, s, c, 0))


def test_pf_metric_cold_channel_is_infinite():
    c = _edge_rates([[42.0]], 1, 1)
    s = np.array([[1]])
    state = ThroughputState(phi_prev=np.array([0.0]), phi_cur=np.array([0.0]), horizon_t=5)
    assert pf_metric(state, s, c, 0) == math.inf


def test_pf_picks_dominant_rate_channel():
    pairing = _full_pairing(1, 1)
    budget = RadioBudget.from_pairing(pairing, [1])
    c = _edge_rates([[100.0], [10.0]], 1, 1)
    state = ThroughputState(phi_prev=np.array([50.0, 50.0]), phi_cur=np.array([50.0, 50.0]), horizon_t=10)
    selection, _ = allocate_pf(pairing, budget, c, state)
    assert selection.s[0, 0] == 1
    assert selection.s[1, 0] == 0


def test_pf_single_channel_respects_budget():
    # 1 AP with 2 radios, 3 single-radio STAs, one channel: someone is left out
    x = np.array([[1, 1, 1]])
    pairing = PairingMatrix(x=x)
    budget = RadioBudget.from_pairing(pairing, [1, 1, 1])
    assert budget.r_tilde.tolist() == [3]
    tight = RadioBudget(r_tilde=np.array([2]), sta_radio_limits=np.array([1, 1, 1]))
    c = _edge_rates([[30.0, 20.0, 10.0]], 1, 3)
    state = ThroughputState.cold_start(c, horizon_t=10)
    selection, _ = allocate_pf(pairing, tight, c, state)
    assert selection.s.sum() == 2
    assert selection.unallocated_edges == (2,)


def test_pf_multi_radio_sta_takes_distinct_channels():
    pairing = _full_pairing(1, 1)
    budget = RadioBudget.from_pairing(pairing, [3])
    c = _edge_rates([[100.0], [80.0], [60.0]], 1, 1)
    state = ThroughputState.cold_start(c, horizon_t=10)
    selection, _ = allocate_pf(pairing, budget, c, state)
    assert selection.s[:, 0].tolist() == [1, 1, 1]


def test_pf_skips_dead_links():
    pairing = _full_pairing(1, 2)
    budget = RadioBudget.from_pairing(pairing, [1, 1])
    c = _edge_rates([[100.0, 0.0]], 1, 2)
    state = ThroughputState.cold_start(c, horizon_t=10)
    selection, _ = allocate_pf(pairing, budget, c, state)
    assert selection.s[0].tolist() == [1, 0]
    assert selection.unallocated_edges == (1,)


def test_pf_determinism():
    rng = np.random.default_rng(2)
    x = np.array([[1, 1, 0, 0], [0, 0, 1, 1]])
    pairing = PairingMatrix(x=x)
    budget = RadioBudget.from_pairing(pairing, [2, 1, 2, 1])
    c = _edge_rates(rng.uniform(1, 100, size=(3, 8)), 2, 4)
    state = ThroughputState.cold_start(c, horizon_t=7)
    a, sa = allocate_pf(pairing, budget, c, state)
    b, sb = allocate_pf(pairing, budget, c, state)
    np.testing.assert_array_equal(a.s, b.s)
    np.testing.assert_array_equal(sa.phi_cur, sb.phi_cur)


def test_pf_selection_always_feasible():
    rng = np.random.default_rng(3)
    for _ in range(25):
        n, m, f = 2, 4, 3
        x = np.zeros((n, m), dtype=int)
        for j in range(m):
            x[rng.integers(n), j] = 1
        pairing = PairingMatrix(x=x)
        limits = rng.integers(1, 4, size=m)
        budget = RadioBudget.from_pairing(pairing, limits)
        c = _edge_rates(rng.uniform(0, 100, size=(f, n * m)), n, m)
        state = ThroughputState.cold_start(c, horizon_t=5)
        selection, _ = allocate_pf(pairing, budget, c, state)
        assert selection_feasible(selection, pairing, budget)


def test_pf_converges_on_static_rates():
    # a dual-radio link spanning both channels plus a single-radio link that
    # only hears channel 1; the split is stable and the C/phi ratios level out
    x = np.array([[1, 1]])
    pairing = PairingMatrix(x=x)
    budget = RadioBudget.from_pairing(pairing, [2, 1])
    c = _edge_rates([[80.0, 0.0], [50.0, 60.0]], 1, 2)
    state = ThroughputState.cold_start(c, horizon_t=10)
    spread = None
    for _ in range(120):
        selection, state = allocate_pf(pairing, budget, c, state)
    metrics = [pf_metric(state, selection, c, f) for f in range(2)]
    spread = fairness_spread(metrics)
    assert spread < 0.05
    inst = instantaneous_rates(selection.s, c)
    ratios = inst / state.phi_cur
    rel = (ratios.max() - ratios.min()) / ratios.mean()
    assert rel < 0.05


def test_pf_log_utility_nondecreasing_after_burn_in():
    t = 10
    x = np.array([[1, 1, 1]])
    pairing = PairingMatrix(x=x)
    budget = RadioBudget.from_pairing(pairing, [2, 1, 1])
    c = _edge_rates([[80.0, 20.0, 35.0], [50.0, 45.0, 10.0]], 1, 3)
    state = ThroughputState.cold_start(c, horizon_t=t)
    utilities = []
    for _ in range(80):
        _, state = allocate_pf(pairing, budget, c, state)
        utilities.append(float(np.log(state.phi_cur).sum()))
    tail = utilities[t:]
    assert all(b >= a - 1e-9 for a, b in zip(tail, tail[1:]))


def test_rr_uniform_weights_deal_one_each():
    x = np.array([[1, 1, 1]])
    pairing = PairingMatrix(x=x)
    budget = RadioBudget.from_pairing(pairing, [1, 1, 1])
    selection = allocate_rr(pairing, budget, 3, [1, 1, 1])
    assert selection.per_channel_counts().tolist() == [1, 1, 1]
    assert selection.s.sum() == 3


def test_rr_weighted_slices():
    # seven single-radio links, weights 1/2/4 -> 1, 2 and 4 links per channel
    x = np.ones((1, 7), dtype=int)
    pairing = PairingMatrix(x=x)
    budget = RadioBudget.from_pairing(pairing, [1] * 7)
    selection = allocate_rr(pairing, budget, 3, [1, 2, 4])
    assert selection.per_channel_counts().tolist() == [1, 2, 4]


def test_rr_determinism():
    x = np.array([[1, 0, 1], [0, 1, 0]])
    pairing = PairingMatrix(x=x)
    budget = RadioBudget.from_pairing(pairing, [2, 2, 1])
    a = allocate_rr(pairing, budget, 2, [2, 1])
    b = allocate_rr(pairing, budget, 2, [2, 1])
    np.testing.assert_array_equal(a.s, b.s)


def test_rr_respects_budget():
    x = np.array([[1, 1]])
    pairing = PairingMatrix(x=x)
    tight = RadioBudget(r_tilde=np.array([1]), sta_radio_limits=np.array([1, 1]))
    selection = allocate_rr(pairing, tight, 2, [1, 1])
    assert selection.s.sum() == 1
    assert selection.unallocated_edges == (1,)
    assert selection_feasible(selection, pairing, tight)


def test_rr_rejects_bad_weights():
    pairing = _full_pairing(1, 1)
    budget = RadioBudget.from_pairing(pairing, [1])
    with pytest.raises(InvalidInputError):
        allocate_rr(pairing, budget, 2, [1])
    with pytest.raises(InvalidInputError):
        allocate_rr(pairing, budget, 2, [1, 0])


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


def test_cold_start_state_is_channel_mean():
    c = _edge_rates([[10.0, 30.0], [40.0, 0.0]], 1, 2)
    state = ThroughputState.cold_start(c, horizon_t=5)
    assert state.phi_cur.tolist() == [20.0, 20.0]
    assert state.phi_prev.tolist() == [20.0, 20.0]


def test_selection_reports_links():
    s = np.array([[1, 0], [1, 1]], dtype=np.int8)
    sel = LinkSelection(s, n_aps=1, m_stas=2, unallocated_edges=())
    assert sel.f_count == 2
    assert set(sel.links()) == {(0, 0, 0), (1, 0, 0), (1, 0, 1)}
