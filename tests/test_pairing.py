import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from linkalloc.errors import InfeasibleError, InvalidInputError, SizeLimitError
from linkalloc.pairing import (
    PairingInstance,
    PairingMatrix,
    objective_value,
    pair_greedy,
    pair_optimal_lp,
)
from linkalloc.rates import RateTensor
from linkalloc.repro import build_incidence, check_total_unimodularity, solve_joint_mmkp_bruteforce


def _instance(d, caps, limits=None):
    d = np.asarray(d, dtype=float)
    if limits is None:
        limits = [1] * d.shape[1]
    return PairingInstance(d=d, ap_capacity=np.asarray(caps), sta_radio_limits=np.asarray(limits))


def test_incidence_single_edge():
    assert build_incidence(1, 1).tolist() == [[1], [1]]    # station row, AP row


def test_incidence_two_by_two_pattern():
    inc = build_incidence(2, 2)
    assert inc[:2].tolist() == [[1, 1, 0, 0], [0, 0, 1, 1]]     # station rows
    assert inc[2:].tolist() == [[1, 0, 1, 0], [0, 1, 0, 1]]     # AP rows


def test_incidence_columns_sum_to_two():
    for n, m in ((1, 1), (2, 3), (4, 5), (6, 6)):
        inc = build_incidence(n, m)
        assert (inc.sum(axis=0) == 2).all()
        assert inc.shape == (n + m, n * m)


def test_tu_holds_for_incidence():
    res = check_total_unimodularity(build_incidence(3, 5), max_submatrix=5)
    assert bool(res) is True
    assert res.witness_rows == ()


def test_tu_fails_on_known_counterexample():
    mat = np.array([[1, 1], [1, -1]])
    res = check_total_unimodularity(mat, max_submatrix=2)
    assert bool(res) is False
    assert sorted(res.witness_rows) == [0, 1]
    assert sorted(res.witness_cols) == [0, 1]
    assert abs(res.witness_det) == pytest.approx(2.0)


def test_tu_identity_always_passes():
    for k in (1, 4, 7):
        assert bool(check_total_unimodularity(np.eye(k, dtype=int), max_submatrix=5))


def test_tu_rejects_entries_outside_unit_range():
    with pytest.raises(InvalidInputError):
        check_total_unimodularity(np.array([[2, 0], [0, 1]]), max_submatrix=2)


def test_tu_agrees_with_direct_enumeration():
    rng = np.random.default_rng(21)
    for _ in range(40):
        mat = rng.integers(-1, 2, size=(4, 4))
        got = bool(check_total_unimodularity(mat, max_submatrix=4))
        want = oracles.tu_by_direct_enumeration(mat, max_k=4)
        assert got == want


def test_greedy_forced_assignment():
    x = pair_greedy(_instance([[5.0]], [1]))
    assert x.x.tolist() == [[1]]


def test_greedy_suboptimal_exhibit():
    inst = _instance([[9.0, 8.0], [7.0, 1.0]], [1, 1])
    greedy = pair_greedy(inst)
    assert greedy.x.tolist() == [[1, 0], [0, 1]]
    assert objective_value(greedy, inst.d) == 10.0
    best = pair_optimal_lp(inst)
    assert best.x.tolist() == [[0, 1], [1, 0]]
    assert objective_value(best, inst.d) == 15.0


def test_greedy_tie_break_low_index_first():
    inst = _instance([[2.0, 2.0], [2.0, 2.0]], [1, 1])
    x = pair_greedy(inst)
    assert x.x.tolist() == [[1, 0], [0, 1]]


def test_infeasible_capacity_same_message_from_both_solvers():
    inst = _instance([[1.0, 2.0, 3.0]], [2], limits=[1, 1, 1])
    for solver in (pair_greedy, pair_optimal_lp):
        with pytest.raises(InfeasibleError) as exc:
            solver(inst)
        assert str(exc.value) == "total AP capacity 2 cannot serve 3 stations"


def test_lp_argmax_when_one_ap_has_slack():
    rng = np.random.default_rng(4)
    d = rng.uniform(0, 1, size=(3, 6))
    d[1] += 5.0  # AP 1 dominates every column
    inst = _instance(d, [6, 6, 6])
    assert pair_optimal_lp(inst).x[1].tolist() == [1] * 6     # one AP per station


def test_lp_matches_brute_force_on_random_instances():
    rng = np.random.default_rng(17)
    for ties in (False, True):
        for _ in range(100):
            n = int(rng.integers(1, 5))
            m = int(rng.integers(1, 11))
            caps = rng.integers(1, 5, size=n)
            while caps.sum() < m:
                caps[rng.integers(n)] += 1
            if ties:
                # weights in {0, 1, 2} with all-zero rows and columns: many tied optima
                d = rng.integers(0, 3, size=(n, m)).astype(float)
                d[rng.random(n) < 0.3, :] = 0.0
                d[:, rng.random(m) < 0.3] = 0.0
            else:
                d = rng.uniform(0, 100, size=(n, m))
            inst = _instance(d, caps)
            x = pair_optimal_lp(inst)
            assert set(np.unique(x.x)) <= {0, 1}
            got = objective_value(x, d)
            want = oracles.best_assignment_value(d, caps)
            lp = float((d * np.round(oracles.assignment_lp_vertex(d, caps))).sum())
            assert got == pytest.approx(want, rel=1e-9)
            assert got == pytest.approx(lp, rel=1e-9)
            assert (x.x.sum(axis=0) == 1).all()
            assert (x.x.sum(axis=1) <= caps).all()


@st.composite
def _pairing_instances(draw):
    """d (N, M) with N <= 4, M <= 10: uniform, {0, 1, 2} or all-zero weights,
    some rows and columns zeroed, under tight ceil(M/N) or drawn capacities."""
    n = draw(st.integers(1, 4))
    m = draw(st.integers(1, 10))
    weight = draw(st.sampled_from([st.floats(0.0, 100.0), st.sampled_from([0.0, 1.0, 2.0]),
                                   st.just(0.0)]))
    d = np.array(draw(st.lists(weight, min_size=n * m, max_size=n * m))).reshape(n, m)
    d[np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))] = 0.0
    d[:, np.array(draw(st.lists(st.booleans(), min_size=m, max_size=m)))] = 0.0
    if draw(st.booleans()):
        caps = [-(-m // n)] * n
    else:
        caps = draw(st.lists(st.integers(1, 5), min_size=n, max_size=n))
        for i in range(m - sum(caps)):
            caps[i % n] += 1
    return d, np.array(caps)


@settings(max_examples=200, deadline=None)
@given(_pairing_instances())
# a gain below HiGHS's default 1e-7 dual tolerance, which the LP oracle must still see
@example((np.array([[0.0, 0.0], [2.0**-24, 0.0]]), np.array([1, 1])))
def test_optimal_pairing_matches_dp_and_lp_oracles(case):
    d, caps = case
    x = pair_optimal_lp(_instance(d, caps)).x
    assert (x.sum(axis=0) == 1).all()
    assert (x.sum(axis=1) <= caps).all()
    got = objective_value(PairingMatrix(x.argmax(axis=0), len(caps)), d)
    lp = float((d * np.round(oracles.assignment_lp_vertex(d, caps))).sum())
    assert got == pytest.approx(oracles.best_assignment_value(d, caps), rel=1e-9, abs=1e-9)
    assert got == pytest.approx(lp, rel=1e-9, abs=1e-9)


@pytest.mark.parametrize("n, m", [(20, 300), (40, 700), (60, 1200)])
def test_optimal_pairing_matches_hungarian_at_scale(n, m):
    rng = np.random.default_rng(n * m)
    dense = rng.uniform(0.0, 100.0, size=(n, m))
    # as on a synthetic network: each station hears a few APs, the rest weigh 0
    heard = np.zeros((n, m))
    for col in range(m):
        aps = rng.choice(n, size=4, replace=False)
        heard[aps, col] = rng.uniform(0.0, 100.0, size=4)
    for d in (dense, heard):
        for slack in (0, 2):
            caps = np.full(n, -(-m // n) + slack)
            x = pair_optimal_lp(_instance(d, caps)).x
            assert (x.sum(axis=0) == 1).all()
            assert (x.sum(axis=1) <= caps).all()
            assert float((d * x).sum()) == pytest.approx(
                oracles.hungarian_assignment_value(d, caps), rel=1e-9)


def test_optimal_pairing_tie_rule():
    # the start takes the lowest AP index
    assert pair_optimal_lp(_instance(np.ones((2, 2)), [2, 2])).x.tolist() == [[1, 1], [0, 0]]
    # AP 0 is one over: APs 1 and 2 are equally cheap targets, and stations
    # 0-2 equally cheap to move; the lowest index wins both ties
    d = [[2.0, 2.0, 2.0], [1.0, 1.0, 1.0], [1.0, 1.0, 1.0]]
    assert pair_optimal_lp(_instance(d, [2, 3, 3])).x.tolist() == \
        [[0, 1, 1], [1, 0, 0], [0, 0, 0]]


def test_cached_start_survives_a_repair():
    # every station's best AP is AP 0, which serves one: the repair moves two
    inst = _instance([[3.0, 2.0, 1.0], [1.0, 1.0, 0.5]], [1, 2])
    start = inst.best_ap
    assert start.tolist() == [0, 0, 0] and not start.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        start[0] = 1
    owners = [pair_optimal_lp(inst).owner.tolist() for _ in range(2)]
    assert owners == [[0, 1, 1]] * 2
    assert inst.best_ap is start
    assert start.tolist() == inst.d.argmax(axis=0).tolist() == [0, 0, 0]


def test_lp_dominates_greedy_everywhere():
    rng = np.random.default_rng(23)
    for _ in range(60):
        n = int(rng.integers(1, 4))
        m = int(rng.integers(1, 8))
        caps = rng.integers(1, 4, size=n)
        while caps.sum() < m:
            caps[rng.integers(n)] += 1
        d = rng.uniform(0, 10, size=(n, m))
        inst = _instance(d, caps)
        lp = objective_value(pair_optimal_lp(inst), d)
        greedy = objective_value(pair_greedy(inst), d)
        assert lp >= greedy - 1e-9
        assert greedy >= 0.0


def test_lp_scale_invariance():
    rng = np.random.default_rng(29)
    d = rng.uniform(0, 5, size=(3, 7))
    inst = _instance(d, [3, 3, 3])
    base = pair_optimal_lp(inst).x
    for scale in (1e-6, 3.0, 1e6):
        scaled = pair_optimal_lp(_instance(d * scale, [3, 3, 3])).x
        np.testing.assert_array_equal(scaled, base)


def test_lp_infeasible_capacity():
    with pytest.raises(InfeasibleError):
        pair_optimal_lp(_instance([[1.0, 1.0]], [1], limits=[1, 1]))


def test_instance_validation():
    with pytest.raises(InvalidInputError):
        _instance([[-1.0]], [1])
    with pytest.raises(InvalidInputError):
        _instance([[np.inf]], [1])
    with pytest.raises(InvalidInputError):
        _instance([[1.0]], [0])
    with pytest.raises(InvalidInputError):
        _instance(np.zeros((0, 0)), [])


def test_pairing_matrix_rejects_shared_sta():
    # one AP index per station: a station listed under two APs is no owner
    # vector, and neither is an index outside the APs
    with pytest.raises(InvalidInputError):
        PairingMatrix(np.array([[0, 1], [0, 1]]), 2)
    for owner in ([2, 0], [-2, 0], [0.0, 1.0]):
        with pytest.raises(InvalidInputError):
            PairingMatrix(owner, 2)
    pairing = PairingMatrix([1, -1, 1], 2)
    assert pairing.x.tolist() == [[0, 0, 0], [1, 0, 1]]
    assert pairing.m_stas == 3 and not pairing.x.flags.writeable
    assert not pairing.owner.flags.writeable


def test_mmkp_single_cell():
    tensor = RateTensor(values=np.array([[[10.0]]]))
    sol = solve_joint_mmkp_bruteforce(tensor, _instance([[10.0]], [1]))
    assert sol.objective == 10.0
    assert sol.selection.tolist() == [[[1]]]


def test_mmkp_all_zero_tensor():
    tensor = RateTensor(values=np.zeros((2, 2, 2)))
    sol = solve_joint_mmkp_bruteforce(tensor, _instance(np.zeros((2, 2)), [2, 2], limits=[2, 2]))
    assert sol.objective == 0.0


@st.composite
def _joint_instances(draw):
    """Rates (F, N, M) with F * N * M <= 16, some links dead, plus R(n) and r(m)."""
    f = draw(st.integers(1, 3))
    n = draw(st.integers(1, 4))
    m = draw(st.integers(1, 16 // (f * n)))
    rate = st.one_of(st.just(0.0), st.floats(0.0, 100.0))
    vals = np.array(draw(st.lists(rate, min_size=f * n * m, max_size=f * n * m)))
    caps = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    limits = draw(st.lists(st.integers(1, 3), min_size=m, max_size=m))
    return vals.reshape(f, n, m), np.array(caps), np.array(limits)


@settings(max_examples=150, deadline=None)
@given(_joint_instances())
def test_mmkp_matches_exhaustive_oracle(case):
    vals, caps, limits = case
    sol = solve_joint_mmkp_bruteforce(RateTensor(values=vals),
                                      _instance(vals.mean(axis=0), caps, limits=limits))
    assert sol.objective == pytest.approx(oracles.exhaustive_mmkp_value(vals, caps, limits),
                                          rel=1e-12, abs=1e-12)
    assert sol.objective == pytest.approx(oracles.joint_assignment_value(vals, caps, limits),
                                          rel=1e-12, abs=1e-12)
    per_pair = sol.selection.sum(axis=0)
    assert ((per_pair > 0).sum(axis=1) <= caps).all()        # R(n) stations per AP
    assert (per_pair.sum(axis=0) <= limits).all()             # r(m) links per STA
    assert float((sol.selection * vals).sum()) == pytest.approx(sol.objective, rel=1e-12)


def test_mmkp_selection_is_feasible():
    rng = np.random.default_rng(37)
    vals = rng.uniform(0, 10, size=(3, 2, 3))
    caps = np.array([2, 2])
    limits = np.array([2, 1, 2])
    sol = solve_joint_mmkp_bruteforce(RateTensor(values=vals), _instance(vals.mean(axis=0), caps, limits=limits))
    s = sol.selection
    per_pair = s.sum(axis=0)
    assert ((per_pair > 0).sum(axis=0) <= 1).all()          # one AP per STA
    assert (per_pair.sum(axis=0) <= limits).all()           # radio limits
    assert ((per_pair > 0).sum(axis=1) <= caps).all()       # R(n) stations per AP


def test_mmkp_size_guard():
    vals = np.zeros((1, 5, 4))
    inst = _instance(np.zeros((5, 4)), [4] * 5, limits=[1] * 4)
    with pytest.raises(SizeLimitError):
        solve_joint_mmkp_bruteforce(RateTensor(values=vals), inst)
    wide = np.zeros((4, 1, 2))
    with pytest.raises(SizeLimitError):
        solve_joint_mmkp_bruteforce(RateTensor(values=wide), _instance(np.zeros((1, 2)), [2], limits=[1, 1]))


def test_objective_zero_matrix():
    x = PairingMatrix([-1, -1], 2)
    assert objective_value(x, np.array([[9.0, 8.0], [7.0, 1.0]])) == 0.0


def test_objective_hand_value():
    x = PairingMatrix([1, 0], 2)
    assert objective_value(x, np.array([[9.0, 8.0], [7.0, 1.0]])) == 15.0


def test_objective_equals_trace_form():
    rng = np.random.default_rng(41)
    d = rng.uniform(0, 1, size=(3, 4))
    x = PairingMatrix([0, 1, 2, 1], 3)
    assert objective_value(x, d) == pytest.approx(float(np.trace(x.x.T @ d)))
    # drawn pairings, unpaired (-1) stations among them, against the dense sum(d * X)
    for _ in range(300):
        n, m = rng.integers(1, 9, size=2).tolist()
        d = rng.uniform(0, 1e3, size=(n, m)) * (rng.random((n, m)) < 0.8)
        x = PairingMatrix(rng.integers(-1, n, size=m), n)
        assert objective_value(x, d) == pytest.approx(float((d * x.x).sum()), rel=1e-12)


def test_objective_shape_mismatch():
    x = PairingMatrix([0], 1)
    with pytest.raises(InvalidInputError):
        objective_value(x, np.zeros((2, 2)))


def test_objective_shape_mismatch_names_both_shapes():
    x = PairingMatrix(np.array([0, -1, 2]), np.int64(3))
    with pytest.raises(InvalidInputError) as err:
        objective_value(x, np.zeros((3, 2)))
    assert str(err.value) == "shape mismatch: d (3, 2) vs X (3, 3)"


_REFUSALS = {
    "sta_limit_zero": (lambda: _instance([[1.0, 1.0]], [2], limits=[1, 0]),
                       "sta_radio_limits must hold a positive count per STA"),
    "sta_limits_other_count": (lambda: _instance([[1.0, 1.0]], [2], limits=[1]),
                               "sta_radio_limits must hold a positive count per STA"),
}


@pytest.mark.parametrize("call, msg", _REFUSALS.values(), ids=_REFUSALS.keys())
def test_pairing_refusals(call, msg):
    with pytest.raises(InvalidInputError) as exc:
        call()
    assert type(exc.value) is InvalidInputError and str(exc.value) == msg
