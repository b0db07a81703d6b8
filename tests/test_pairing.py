from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from linkalloc import pairing
from linkalloc.errors import InfeasibleError, InvalidInputError, SizeLimitError
from linkalloc.harness import run_slo_baseline
from linkalloc.pairing import (
    PairingInstance,
    PairingMatrix,
    objective_value,
    pair_greedy,
    pair_optimal_lp,
)
from linkalloc.rates import RateTensor
from linkalloc.repro import build_incidence, check_total_unimodularity, solve_joint_mmkp_bruteforce
from linkalloc.scenario import bundled_scenario_path, load_scenario


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


@st.composite
def _tie_heavy_instances(draw):
    """Integer weights 0-3 on N in 1-4 APs and M in 1-10 stations, with
    capacities that cover M, over-filling the best-AP start or not."""
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 10))
    d = np.array(draw(st.lists(st.integers(0, 3), min_size=n * m, max_size=n * m)),
                 dtype=float).reshape(n, m)
    caps = draw(st.lists(st.integers(1, m), min_size=n, max_size=n))
    caps[0] += max(m - sum(caps), 0)
    return d, caps


@settings(max_examples=300, deadline=None)
@given(_tie_heavy_instances())
def test_greedy_is_the_plain_scan(case):
    # when the best-AP start fits, greedy returns it as it is: the scan's result
    d, caps = case
    inst = _instance(d, caps)
    got = pair_greedy(inst).owner
    assert got.tolist() == oracles.greedy_scan(d, caps)
    assert (got is inst.best_ap) == (not (np.bincount(inst.best_ap, minlength=len(caps)) > caps).any())
    assert not got.flags.writeable


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


@st.composite
def _overfull_instances(draw):
    """d (N, M), N in 2-8, whose best-AP start over-fills its APs by 1-6
    stations in all: every AP but the least-loaded starts with R(n) at its
    start load, less the drawn cuts, and that one takes the cut slots."""
    n, over = draw(st.integers(2, 8)), draw(st.integers(1, 6))
    m = draw(st.integers(2 * (over + n), 2 * (over + n) + 8))
    weight = draw(st.sampled_from([st.floats(0.0, 100.0), st.sampled_from([0.0, 1.0, 2.0])]))
    d = np.array(draw(st.lists(weight, min_size=n * m, max_size=n * m))).reshape(n, m)
    load = np.bincount(d.argmax(axis=0), minlength=n)
    caps = np.maximum(load, 1)
    spare = int(load.argmin())
    for _ in range(over):
        caps[draw(st.sampled_from([a for a in range(n) if a != spare and caps[a] > 1]))] -= 1
    caps[spare] += over
    assert np.maximum(load - caps, 0).sum() == over and caps.sum() >= m
    return d, caps


@settings(max_examples=60, deadline=None)
@given(_overfull_instances(), _overfull_instances(), st.lists(st.booleans(), min_size=6,
                                                               max_size=6))
def test_kept_start_repairs_like_a_fresh_instance(case, other_case, order):
    # two shared instances, each called first, then in a drawn order: every call
    # returns a new pairing with the owners a fresh instance gives, at the
    # Hungarian optimum
    shared = [_instance(*case), _instance(*other_case)]
    want = [pair_optimal_lp(_instance(*c)).owner.tobytes() for c in (case, other_case)]
    optimum = [oracles.hungarian_assignment_value(*c) for c in (case, other_case)]
    seen = []
    for k in [0, 1] + order:
        got = pair_optimal_lp(shared[k])
        assert got.owner.tobytes() == want[k]
        assert objective_value(got, shared[k].d) == pytest.approx(optimum[k], rel=1e-9, abs=1e-9)
        assert got.owner is not shared[k].best_ap and all(got is not p for p in seen)
        seen.append(got)
    for inst, c in zip(shared, (case, other_case)):
        assert inst.best_ap.tolist() == c[0].argmax(axis=0).tolist()


def _planted(d, caps, owner):
    """The feasible owner one move to an AP with room, or one swap, from
    `owner` that loses the most weight, and that loss."""
    stas = np.arange(d.shape[1])
    own = d[owner, stas]
    load = np.bincount(owner, minlength=len(caps))
    worst = (0.0, owner)
    for m in stas:
        for b in np.flatnonzero(load < caps):
            if b != owner[m]:
                moved = owner.copy()
                moved[m] = b
                worst = max(worst, (own[m] - d[b, m], moved), key=lambda t: t[0])
        for k in stas[:m]:
            swapped = owner.copy()
            swapped[[m, k]] = owner[[k, m]]
            loss = own[m] + own[k] - d[owner[k], m] - d[owner[m], k]
            worst = max(worst, (loss, swapped), key=lambda t: t[0])
    return worst


@settings(max_examples=150, deadline=None)
@given(_overfull_instances())
# two APs over by one each: a repair that raised no prices after its first
# path would take the second at a reduced cost left negative and end at 238,
# 1 short of the optimum
@example((np.array([[0.0, 0.0, 0.0, 83.0], [30.0, 0.0, 61.0, 0.0], [41.0, 58.0, 0.0, 0.0],
                    [0.0, 53.0, 68.0, 92.0]]), np.array([1, 1, 1, 1])))
def test_repair_is_certified_without_scipy(case):
    # LP duality from Bellman-Ford prices: the repair's owners are certified,
    # and the worst owner one move or swap away is refused
    d, caps = case
    owner = pair_optimal_lp(_instance(d, caps)).owner
    assert oracles.pairing_certified(d, caps, owner)
    u = oracles.pairing_prices(d, owner)
    assert u is not None and (u >= 0).all()
    loss, planted = _planted(d, caps, owner)
    if loss > 1e-9 * d.max():
        assert not oracles.pairing_certified(d, caps, planted)


@pytest.mark.parametrize("scenario, kwargs, over", [
    # SLO at 20 dB, MCS 3 on the fixture: 9 of 15 stations start on one AP of 5
    (bundled_scenario_path("scenario_3ap_15sta"), dict(snr_base_db=20.0, mcs_override=3), 4),
    (Path(__file__).parent / "data" / "synth_10x200_seed1.yaml", {}, 30)])
def test_slo_memo_repairs_are_certified(scenario, kwargs, over):
    carry = run_slo_baseline(load_scenario(scenario), iterations=10, **kwargs).carry
    assert carry.memo
    for instance in (record.instance for _, record in carry.memo):
        caps = instance.ap_capacity
        assert np.maximum(np.bincount(instance.best_ap, minlength=len(caps)) - caps, 0).sum() \
            == over
        # the run's own instance has kept what its calls built; a new one has not
        fresh = PairingInstance(instance.d, caps, instance.sta_radio_limits)
        for inst in (instance, fresh):
            assert oracles.pairing_certified(instance.d, caps, pair_optimal_lp(inst).owner)


def test_certificate_refuses_what_is_not_an_optimum():
    d = np.array([[9.0, 8.0], [7.0, 1.0]])
    assert oracles.pairing_certified(d, [1, 1], [1, 0])
    # greedy's pairing is feasible but 5 short: moving the stations round
    # the cycle 0 -> 1 -> 0 gains, so no prices exist
    assert oracles.pairing_prices(d, [0, 1]) is None
    assert not oracles.pairing_certified(d, [1, 1], [0, 1])
    # over capacity, or a station left unpaired
    assert not oracles.pairing_certified(d, [1, 1], [0, 0])
    assert not oracles.pairing_certified(d, [1, 1], [0, -1])
    # an AP with room whose station could do better elsewhere: its price must be 0
    assert not oracles.pairing_certified(d, [2, 2], [1, 1])


def _row_builds(instance):
    """The (AP, start stations, whole order) of each loss row that one call on
    `instance` builds from the weights."""
    builds = []
    row = pairing._loss_row
    with mock.patch.object(pairing, "_loss_row",
                           lambda d, a, stations, whole: builds.append((a, stations.tolist(), whole))
                           or row(d, a, stations, whole)):
        pair_optimal_lp(instance)
    return builds


def test_untouched_aps_build_no_loss_row_on_a_second_call():
    # AP 0 is one over: Dijkstra pops it and full AP 1 (a loss of 4 away)
    # before AP 2 (7 away), and the one path moves station 1 to AP 2
    d = [[9.0, 8.0, 1.0, 7.0], [5.0, 0.0, 6.0, 0.0], [0.0, 1.0, 0.0, 0.0]]
    inst = _instance(d, [2, 1, 1])
    assert _row_builds(inst) == [(0, [0, 1, 3], False), (1, [2], False)]
    assert _row_builds(inst) == [] == _row_builds(inst)
    assert pair_optimal_lp(inst).owner.tolist() == [0, 2, 1, 0]
    # three over from AP 0, which every path leaves: its start stations are
    # ordered toward every AP at its first pop, AP 1 starts with none, and
    # the stations later paths move in and out are compared by cursor, so a
    # warm call builds nothing from the weights
    d = [[5.0, 4.0, 3.0, 2.0, 1.0], [1.0, 1.0, 1.0, 1.0, 1.0], [0.0] * 5]
    inst = _instance(d, [2, 2, 5])
    assert _row_builds(inst) == [(0, [0, 1, 2, 3, 4], True), (1, [], False)]
    assert _row_builds(inst) == [] == _row_builds(inst)
    assert pair_optimal_lp(inst).owner.tolist() == \
        pair_optimal_lp(_instance(d, [2, 2, 5])).owner.tolist() == [0, 0, 2, 1, 1]
    # APs 0 and 1 are one over each, so their first pops build only their
    # least-loss rows; the first path moves station 2 from AP 0 to AP 2, and
    # the second search pops AP 0 again, which orders its start stations to
    # find the least loss toward each AP once station 2 has left
    d = [[8.0, 7.0, 9.0, 9.0], [9.0, 9.0, 7.0, 0.0], [2.0, 1.0, 9.0, 1.0]]
    inst = _instance(d, [1, 1, 2])
    assert _row_builds(inst) == [(0, [2, 3], False), (1, [0, 1], False), (0, [2, 3], True)]
    assert _row_builds(inst) == [] == _row_builds(inst)
    assert pair_optimal_lp(inst).owner.tolist() == [2, 1, 2, 0]


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
