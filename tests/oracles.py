"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written with different algorithms (and, where
possible, different libraries) than the code under test: damped Picard instead
of bisection, the paper's assignment LP, dynamic programming over capacity
states, Kuhn-Munkres on repeated AP rows and a duality certificate from
Bellman-Ford prices (which needs no scipy) instead of successive shortest
paths, a sorted scan of every edge instead of a stable argsort, bit-mask
enumeration and a per-station assignment instead of recursive
search, plain `math` instead of numpy log-sum-exp. The one exception is the
dense allocation path at the end: the package's PF, RR and served-rate code
as it ran on the (N, M) pairing matrix and the (F, N, M) selection, kept to
pin the owner-vector form to it: its decisions bit for bit, its served rates
within 1e-12 relative. Likewise the package's numpy fairness spread, kept to
pin the Python-float form to it bit for bit, and its rate tensor built one
(channel, MCS) block at a time, with the range check and the PER lookup
redone on every build, kept to pin the heard-link kernel to it bit for bit.
"""

import bisect
import itertools
import math

import numpy as np

from linkalloc import phy
from linkalloc.dcf import airtime_durations, solve_bianchi_fixed_point
from linkalloc.errors import InvalidInputError
from linkalloc.pairing import PairingInstance, pair_greedy, pair_optimal_lp
from linkalloc.phy import TablePer
from linkalloc.rates import bootstrap_contenders, build_rate_tensor


def eesm_scalar(values, beta):
    """Exponential effective SNR of a flat list, straight from the formula.

    The exponent is shifted by the smallest value, which changes nothing
    mathematically but keeps exp(-g / beta) from underflowing to 0 for a
    high SINR (a lone 30 dB sample is g = 1000).
    """
    g_min = min(values)
    acc = math.fsum(math.exp(-(g - g_min) / beta) for g in values) / len(values)
    return g_min - beta * math.log(acc)


def link_rate_scalar(snr_db, curve, mcs_rate, tau, n_contenders, params):
    """One link's rate in bit/s by the per-link PHY+MAC chain, in plain `math`.

    The link SNR becomes a one-sample linear SINR grid, goes through EESM
    (beta 1) and back to dB, indexes the logistic or tabulated PER curve, and
    feeds the saturated-DCF throughput expression at the given tau. NaN is an
    out-of-range link with rate 0.
    """
    if math.isnan(snr_db):
        return 0.0
    esnr_db = 10.0 * math.log10(eesm_scalar([10.0 ** (snr_db / 10.0)], 1.0))
    if isinstance(curve, TablePer):
        xs, ys = list(curve.esnr_db), list(curve.per)
        if esnr_db <= xs[0]:
            per = ys[0]
        elif esnr_db >= xs[-1]:
            per = ys[-1]
        else:
            i = bisect.bisect_right(xs, esnr_db)
            w = (esnr_db - xs[i - 1]) / (xs[i] - xs[i - 1])
            per = ys[i - 1] + w * (ys[i] - ys[i - 1])
    else:
        z = curve.slope_per_db * (esnr_db - curve.midpoint_db)
        per = 0.0 if z > 700.0 else 1.0 / (1.0 + math.exp(z))

    payload = params.payload_bytes * 8 / mcs_rate
    ack = params.ack_bytes * 8 / mcs_rate + params.phy_header
    eifs = params.eifs if params.eifs is not None else params.sifs + ack + params.difs
    t_success = (params.phy_header + payload + ack + params.sifs + params.difs
                 + 2 * params.prop_delay)
    t_fail = params.phy_header + payload + params.prop_delay + eifs

    n = n_contenders
    p_tr = 1.0 - (1.0 - tau) ** n
    p_s = n * tau * (1.0 - tau) ** (n - 1) / p_tr
    idle = (1.0 - p_tr) * params.slot_time
    success = p_tr * p_s * (1.0 - per)
    busy = success * t_success + p_tr * (1.0 - p_s) * t_fail + p_tr * p_s * per * t_fail
    return success * payload / (idle + busy) * mcs_rate


def picard_tau(cw_min, m_stages, n_contenders, damping=0.5, iterations=20000):
    """Bianchi fixed point by damped Picard iteration (closed-form tau(p))."""
    w = cw_min
    tau = 0.1
    for _ in range(iterations):
        p = 1.0 - (1.0 - tau) ** (n_contenders - 1)
        if abs(2.0 * p - 1.0) < 1e-12:
            denom = (w + 1) + p * w * m_stages
        else:
            denom = (1 - 2 * p) * (w + 1) + p * w * (1 - (2 * p) ** m_stages)
            denom /= (1 - 2 * p)
        nxt = 2.0 / denom
        if abs(nxt - tau) < 1e-14:
            return nxt
        tau = (1.0 - damping) * tau + damping * nxt
    return tau


def closed_form_n1_throughput(params, durations):
    """n=1, per=0 normalized throughput: tau*E[Pkt] / ((1-tau)*slot + tau*T_s)."""
    tau = 2.0 / (params.cw_min + 1)
    return tau * durations.payload_airtime / (
        (1.0 - tau) * params.slot_time + tau * durations.t_success
    )


def best_assignment_value(d, caps):
    """Exact optimum of the capacity-limited assignment by DP over used slots.

    Every station must be assigned; the state grid counts radios used per AP.
    Returns -inf when total capacity cannot hold all stations.
    """
    d = np.asarray(d, dtype=float)
    n_aps, m_stas = d.shape
    caps = np.asarray(caps, dtype=int)
    shape = tuple(int(c) + 1 for c in caps)
    val = np.full(shape, -np.inf)
    val[(0,) * n_aps] = 0.0
    for m in range(m_stas):
        new = np.full(shape, -np.inf)
        for n in range(n_aps):
            src = [slice(None)] * n_aps
            dst = [slice(None)] * n_aps
            src[n] = slice(0, shape[n] - 1)
            dst[n] = slice(1, shape[n])
            cand = val[tuple(src)] + d[n, m]
            np.maximum(new[tuple(dst)], cand, out=new[tuple(dst)])
        val = new
    return float(val.max())


def hungarian_assignment_value(d, caps):
    """Optimum of the capacity-limited assignment by Kuhn-Munkres.

    AP n's weight row is repeated min(caps[n], M) times, one row per slot,
    and scipy's `linear_sum_assignment` gives every station one row. Unlike
    the DP it scales to thousands of stations.
    """
    from scipy.optimize import linear_sum_assignment

    d = np.asarray(d, dtype=float)
    n_aps, m_stas = d.shape
    rows = np.repeat(np.arange(n_aps), np.minimum(np.asarray(caps, dtype=int), m_stas))
    r, c = linear_sum_assignment(d[rows], maximize=True)
    if len(c) != m_stas:
        raise ValueError("capacity cannot hold every station")
    return float(d[rows[r], c].sum())


def greedy_scan(d, caps):
    """The greedy pairing as a plain scan: every (AP, station) edge by
    descending weight, ties to the lower AP, then the lower station; a
    station takes the first of its edges whose AP has room. The owner list."""
    d = np.asarray(d, dtype=float)
    n_aps, m_stas = d.shape
    room, owner = [int(c) for c in caps], [-1] * m_stas
    for _, n, m in sorted((-d[n, m], n, m) for n in range(n_aps) for m in range(m_stas)):
        if owner[m] < 0 and room[n] > 0:
            owner[m] = n
            room[n] -= 1
    return owner


def pairing_prices(d, owner, tol=0.0):
    """AP prices u >= 0 for the pairing `owner`, by Bellman-Ford over the AP
    graph, where edge a -> b costs the least loss of moving one of a's
    stations to b, min over them of d[a, m] - d[b, m]: u is minus the shortest
    distance to each AP from a source joined to every AP at cost 0. None while
    a distance still falls by more than `tol` after N + 1 rounds: a cycle of
    negative cost, round which moving stations would gain."""
    d, owner = np.asarray(d, dtype=float), np.asarray(owner)
    n_aps = d.shape[0]
    cost = np.full((n_aps, n_aps), np.inf)
    for a in range(n_aps):
        here = owner == a
        if here.any():
            cost[a] = (d[a, here] - d[:, here]).min(axis=1)
    dist = np.zeros(n_aps)
    for _ in range(n_aps + 1):
        relaxed = np.minimum(dist, (dist[:, None] + cost).min(axis=0))
        if not (relaxed < dist - tol).any():
            return -dist
        dist = relaxed
    return None


def pairing_certified(d, caps, owner, rel=1e-12):
    """Whether `owner` is an optimum of the paper's assignment LP, by duality
    and with no solver: it pairs every station within R(n), and the prices u
    of `pairing_prices` are 0 below capacity, put every station at an argmax
    of d - u, and give the dual objective sum_m max_n (d - u) + sum_n R(n) u
    equal to the primal sum of d over the pairs, each at `rel` of the largest
    weight. By weak duality a certified owner is optimal to that tolerance."""
    d, caps, owner = np.asarray(d, dtype=float), np.asarray(caps), np.asarray(owner)
    stas = np.arange(d.shape[1])
    tol = rel * float(d.max(initial=0.0))
    load = np.bincount(owner[owner >= 0], minlength=len(caps))
    if (owner < 0).any() or (load > caps).any():
        return False
    u = pairing_prices(d, owner, tol)
    if u is None or (u[load < caps] > tol).any():
        return False
    reduced = d - u[:, None]
    best = reduced.max(axis=0)
    primal, dual = d[owner, stas].sum(), best.sum() + (caps * u).sum()
    return bool((reduced[owner, stas] >= best - tol).all() and abs(primal - dual) <= tol)


def assignment_lp_vertex(d, caps):
    """Vertex of the paper's assignment LP relaxation, as an (N, M) float array.

    maximize sum(d * x) subject to sum_n x[n, m] = 1 for every station,
    sum_m x[n, m] <= caps[n] for every AP and 0 <= x <= 1, solved by dual
    simplex on dense constraint matrices. Edge e = n * M + m. The vertex is
    returned unrounded, so callers can check that total unimodularity made
    it integral. The tolerances are tighter than HiGHS's 1e-7 defaults, which
    stop at a vertex short of the optimum by a weight below 1e-7.
    """
    from scipy.optimize import linprog

    d = np.asarray(d, dtype=float)
    n_aps, m_stas = d.shape
    e = n_aps * m_stas
    a_eq = np.zeros((m_stas, e))
    for m in range(m_stas):
        a_eq[m, m::m_stas] = 1.0            # every AP's copy of station m
    a_ub = np.zeros((n_aps, e))
    for n in range(n_aps):
        a_ub[n, n * m_stas:(n + 1) * m_stas] = 1.0
    res = linprog(-d.reshape(e), A_ub=a_ub, b_ub=np.asarray(caps, dtype=float),
                  A_eq=a_eq, b_eq=np.ones(m_stas), bounds=(0.0, 1.0), method="highs-ds",
                  options={"dual_feasibility_tolerance": 1e-10,
                           "primal_feasibility_tolerance": 1e-10})
    if not res.success:
        raise RuntimeError(f"assignment LP failed: {res.message}")
    return res.x.reshape(n_aps, m_stas)


def exhaustive_mmkp_value(values, ap_caps, sta_limits):
    """Global optimum of the joint link-activation problem by bit enumeration.

    values has shape (F, N, M); a selection is any subset of the F*N*M cells.
    Feasible selections give each station at most one AP and at most
    sta_limits[m] links, and each AP at most ap_caps[n] stations.
    Only usable for tiny instances (F*N*M <= ~14).
    """
    values = np.asarray(values, dtype=float)
    f_count, n_aps, m_stas = values.shape
    bits = f_count * n_aps * m_stas
    if bits > 16:
        raise ValueError(f"{bits} cells is too large for exhaustive enumeration")
    ids = np.arange(2 ** bits, dtype=np.int64)
    masks = ((ids[:, None] >> np.arange(bits)) & 1).astype(np.int8)
    sel = masks.reshape(-1, f_count, n_aps, m_stas)

    per_ap_sta = sel.sum(axis=1)                       # (K, N, M) links per pair
    links_per_sta = per_ap_sta.sum(axis=1)             # (K, M)
    aps_per_sta = (per_ap_sta > 0).sum(axis=1)         # (K, M)
    stas_per_ap = (per_ap_sta > 0).sum(axis=2)         # (K, N)
    ok = ((aps_per_sta <= 1).all(axis=1)
          & (links_per_sta <= np.asarray(sta_limits)).all(axis=1)
          & (stas_per_ap <= np.asarray(ap_caps)).all(axis=1))
    gains = (sel * values).sum(axis=(1, 2, 3))
    return float(gains[ok].max())


def joint_assignment_value(values, ap_caps, sta_limits):
    """Optimum of the same joint problem as an assignment.

    With each AP capped in stations, a station served by AP n does best on
    its top min(r(m), F) rates of link (n, m), whatever the other stations
    do, so the joint problem is the assignment with those sums as weights.
    A zero-weight dummy AP that can hold every station lets a station stay
    unserved, and `best_assignment_value` solves the assignment.
    """
    values = np.asarray(values, dtype=float)
    f_count, n_aps, m_stas = values.shape
    top = -np.sort(-values, axis=0)                    # rates descending per link
    w = np.zeros((n_aps + 1, m_stas))
    for m in range(m_stas):
        k = min(int(sta_limits[m]), f_count)
        w[:n_aps, m] = top[:k, :, m].sum(axis=0)
    return best_assignment_value(w, list(ap_caps) + [m_stas])


def tu_by_direct_enumeration(matrix, max_k):
    """Literal TU check: every square submatrix determinant in {-1, 0, 1}.

    No deduplication or batching; only for small matrices.
    """
    a = np.asarray(matrix, dtype=float)
    rows, cols = a.shape
    for k in range(1, min(max_k, rows, cols) + 1):
        for ri in itertools.combinations(range(rows), k):
            for ci in itertools.combinations(range(cols), k):
                det = np.linalg.det(a[np.ix_(ri, ci)])
                if abs(det - round(det)) > 1e-6 or abs(round(det)) > 1:
                    return False
    return True


def document_arrays(doc):
    """The scenario arrays (offsets (F, N, M) in dB with NaN out of range,
    MCS table (F, N), home channel (N)), the AP ids and the station ids (lists
    of str), the radio counts R(n) and r(m), the channel ids (a list of int) and the
    channel widths (F), walked link by link off a raw scenario document, the
    mapping `yaml.safe_load` returns, by the schema rather than by the
    package's parser."""
    cids = [c["id"] for c in doc["channels"]]
    aps = doc["aps"]
    f_count, n_aps, m_stas = len(cids), len(aps), len(doc["stas"])
    offsets = np.full((f_count, n_aps, m_stas), np.nan)
    for mi, sta in enumerate(doc["stas"]):
        raw = sta["snr_offset_db"]
        for ni, ap in enumerate(aps):
            if isinstance(raw, dict):
                per_ap = {str(key): value for key, value in raw.items()}.get(str(ap["id"]))
            else:
                per_ap = raw
            if per_ap is None or per_ap == "out-of-range":
                continue
            for fi, cid in enumerate(cids):
                off = per_ap.get(cid) if isinstance(per_ap, dict) else per_ap
                if off is not None and off != "out-of-range":
                    offsets[fi, ni, mi] = off
    mcs = np.array([[ap.get("mcs", {}).get(cid, chan["mcs"]) for ap in aps]
                    for cid, chan in zip(cids, doc["channels"])])
    home = np.array([ni % f_count if ap.get("slo_channel") is None
                     else cids.index(ap["slo_channel"]) for ni, ap in enumerate(aps)])
    ap_ids = [str(ap["id"]) for ap in aps]
    sta_ids = [str(sta["id"]) for sta in doc["stas"]]
    ap_radios = np.array([ap["radios"] for ap in aps])
    sta_radios = np.array([sta["radios"] for sta in doc["stas"]])
    widths = np.array([chan["bandwidth_mhz"] for chan in doc["channels"]])
    return offsets, mcs, home, ap_ids, sta_ids, ap_radios, sta_radios, cids, widths


def snr_field_loops(doc, base_db=None, rng=None):
    """Per-link SNR field (F, N, M) of a raw scenario document, by a loop
    over every (station, AP, channel), NaN for out-of-range links. Draws the
    same random bases as the package when the document has a range.
    """
    offsets = document_arrays(doc)[0]
    span = doc.get("snr_random_range_db")
    if span is not None and rng is not None:
        base = rng.uniform(float(span[0]), float(span[1]), size=offsets.shape)
    else:
        base = np.full(offsets.shape,
                       float(doc.get("snr_base_db", 20.0) if base_db is None else base_db))
    out = np.full(offsets.shape, np.nan)
    for fi, ni, mi in itertools.product(*map(range, offsets.shape)):
        if not math.isnan(offsets[fi, ni, mi]):
            out[fi, ni, mi] = base[fi, ni, mi] + offsets[fi, ni, mi]
    return out


def bootstrap_contenders_per_station(scenario, snr_field):
    """Contenders per channel when every station camps on its strongest link,
    found station by station (first of equal links in (channel, AP) order)."""
    counts = [0] * scenario.f_count
    flat = np.where(np.isnan(snr_field), -np.inf, snr_field)
    for m in range(scenario.m_stas):
        per_sta = flat[:, :, m]
        if not np.isfinite(per_sta).any():
            continue
        f_best = int(np.unravel_index(np.argmax(per_sta), per_sta.shape)[0])
        counts[f_best] += 1
    return counts


def recommendations_per_station(scenario, pairing, selection):
    """(station id, AP id or None, channel ids) per station, read one station
    at a time off the pairing and the selection."""
    recs = []
    for m, sta_id in enumerate(scenario.sta_ids):
        column = pairing.x[:, m]
        if not column.any():
            recs.append((sta_id, None, ()))
            continue
        n = int(column.argmax())
        cids = tuple(scenario.channel_ids[f] for f in np.flatnonzero(selection.s[:, n, m]))
        recs.append((sta_id, scenario.ap_ids[n], cids))
    return recs


def allocate_pf_per_link(x, limits, values, phi):
    """PF selection one link at a time: one channel order from Python `sorted`
    on (-score, -mean rate, channel), score the mean rate over phi (inf where
    phi is 0 and the mean is not, 0 where both are), then each paired link,
    AP-major, takes the first min(r(m), F) channels in that order on which
    its rate is > 0. Returns the selection (F, N, M) and the links left
    without a channel."""
    f_count, n_aps, m_stas = values.shape
    links = [(n, m) for n in range(n_aps) for m in range(m_stas) if x[n][m]]
    s = np.zeros(values.shape, dtype=np.int8)
    if not links:
        return s, ()
    means = [sum(float(values[f, n, m]) for n, m in links) / len(links)
             for f in range(f_count)]
    scores = [(math.inf if mean > 0 else 0.0) if p == 0 else mean / p
              for mean, p in zip(means, phi)]
    order = sorted(range(f_count), key=lambda f: (-scores[f], -means[f], f))
    unallocated = []
    for n, m in links:
        got = 0
        for f in order:
            if got == min(int(limits[m]), f_count):
                break
            if values[f, n, m] > 0:
                s[f, n, m] = 1
                got += 1
        if got == 0:
            unallocated.append((n, m))
    return s, tuple(unallocated)


# --- the dense allocation path -------------------------------------------------


def allocate_pf_dense(x, limits, values, phi):
    """PF selection over the dense pairing X[n, m], links gathered AP-major
    through `np.nonzero`: the (F, N, M) selection and the links left without
    a channel."""
    ns, ms = np.nonzero(x)
    s = np.zeros(values.shape, dtype=np.int8)
    if ns.size == 0:
        return s, ()
    cand = values[:, ns, ms]
    mean_rate = cand.mean(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = mean_rate / phi
    score = np.where(phi == 0.0, np.where(mean_rate > 0, np.inf, 0.0), ratio)
    order = np.lexsort((np.arange(values.shape[0]), -mean_rate, -score))
    live = cand[order] > 0.0
    s[order[:, None], ns, ms] = live & (live.cumsum(axis=0) <= limits[ms])
    dead = ~live.any(axis=0)
    return s, tuple(zip(ns[dead].tolist(), ms[dead].tolist()))


def allocate_rr_dense(x, limits, f_count, weights):
    """Weighted round robin over the dense pairing: links dealt AP-major
    from the cycle holding channel f `weights[f]` times, skipping a channel
    the link already holds. The (F, N, M) selection."""
    cycle = [f for f in range(f_count) for _ in range(weights[f])]
    s = np.zeros((f_count,) + np.shape(x), dtype=np.int8)
    pos = 0
    for n, m in zip(*np.nonzero(x)):
        for _ in range(min(int(limits[m]), f_count)):
            while s[cycle[pos % len(cycle)], n, m]:
                pos += 1
            s[cycle[pos % len(cycle)], n, m] = 1
            pos += 1
    return s


def instantaneous_rates_dense(s, values):
    """Per-channel mean rate of the active links and the network total, from
    the product of the dense selection and the rate tensor."""
    served = s * values
    counts = s.sum(axis=(1, 2))
    totals = served.sum(axis=(1, 2))
    return (np.divide(totals, counts, out=np.zeros_like(totals, dtype=float), where=counts > 0),
            float(served.sum()))


# --- the loop with nothing kept between steps ----------------------------------


def ewma(phi, inst, horizon_t):
    """The averages after a step that served `inst`, in plain numpy:
    (1 - 1/T) phi + inst / T."""
    t = float(horizon_t)
    return (1.0 - 1.0 / t) * np.asarray(phi, dtype=float) + np.asarray(inst) / t


def reference_loop(segments, rng_seed=None):
    """The controller loop with no memo, view or shared decision: a chain of
    (scenario, iterations, solver, allocator, MCS override) segments, each
    resuming the last as `run_apc_loop` resumes a carry. Only the averages
    phi and the contention pass from step to step. Every step rebuilds the
    SNR field and the rate tensor, pairs a fresh `PairingInstance` with the
    package's solver (so that ties break as in the loop), allocates on the
    dense pairing with `allocate_pf_per_link` or `allocate_rr_dense`, serves
    with `instantaneous_rates_dense` and advances phi in plain numpy with the
    running scenario's horizon. Returns one dict per step."""
    steps, phi, contenders = [], None, None
    for scenario, iterations, solver, allocator, mcs in segments:
        field = scenario.snr_field(seed=rng_seed)
        f_count, n_aps, m_stas = field.shape
        usable = np.ones((f_count, n_aps, 1), dtype=bool)
        if allocator == "slo":      # each AP on its home channel, one radio per station
            usable[:] = False
            usable[scenario.home_channel, np.arange(n_aps)] = True
            caps, limits = [-(-m_stas // n_aps)] * n_aps, np.ones(m_stas, dtype=int)
        else:
            caps, limits = scenario.ap_capacities(), scenario.sta_radio_limits()
        if contenders is None:
            contenders = bootstrap_contenders_per_station(
                scenario, np.where(usable, field, np.nan))
        for _ in range(iterations):
            tensor = build_rate_tensor(scenario, contenders=np.array(contenders),
                                       snr_field=field, mcs_override=mcs)
            if phi is None:
                phi = tensor.values.mean(axis=(1, 2))
            values = tensor.values * usable
            solve = pair_optimal_lp if solver == "optimal" else pair_greedy
            pairing = solve(PairingInstance(values.sum(axis=0) / usable.sum(axis=0),
                                            caps, limits))
            x = np.zeros((n_aps, m_stas), dtype=int)
            for m, n in enumerate(pairing.owner.tolist()):
                if n >= 0:
                    x[n, m] = 1
            if allocator == "rr":
                s, unallocated = allocate_rr_dense(x, limits, f_count, scenario.rr_weights), ()
            else:
                s, unallocated = allocate_pf_per_link(x, limits, values, phi)
            inst, total = instantaneous_rates_dense(s, values)
            metrics = [(math.inf if rate > 0 else 0.0) if p == 0 else rate / p
                       for rate, p in zip(inst.tolist(), phi.tolist())]
            phi = ewma(phi, inst, scenario.ewma_horizon_t)
            contenders = s.sum(axis=(1, 2)).tolist()
            steps.append({"owner": pairing.owner.tobytes(), "s": s.tobytes(),
                          "unallocated": unallocated, "total": total,
                          "phi": phi.tolist(), "metrics": metrics,
                          "spread": fairness_spread_numpy(metrics)})
    return steps


def fairness_spread_numpy(metrics):
    """(max - min) / mean of the metrics over one numpy array: inf with an
    infinite metric, 0.0 when all are equal."""
    vals = np.asarray(list(metrics), dtype=float)
    if vals.size == 0:
        raise InvalidInputError("need at least one metric")
    if np.isinf(vals).any():
        return float("inf")
    if vals.max() == vals.min():
        return 0.0
    mean = vals.mean()
    if mean <= 0:
        raise InvalidInputError("metrics must have positive mean")
    return float((vals.max() - vals.min()) / mean)


# --- the rate tensor one (channel, MCS) block at a time ------------------------


def _block_rates(snr_db, curve, rate, state, params):
    """Rates in bit/s of links that share one MCS and one contention state,
    NaN marking an out-of-range link with rate 0."""
    live = ~np.isnan(snr_db)
    snr = snr_db[live]
    usable = (snr >= -10750 * np.log10(2)) & (snr < 10 * np.log10(np.finfo(float).max))
    if not usable.all():
        raise InvalidInputError(f"a link SNR of {float(snr[~usable][0])} dB is out of "
                                f"the PHY model's range: its linear value must be finite and > 0")
    per = phy.per_lookup(curve, snr)
    durations = airtime_durations(params, rate)
    n, tau = state.n_contenders, state.tau
    p_tr = 1.0 - (1.0 - tau) ** n
    success = n * tau * (1.0 - tau) ** (n - 1) * (1.0 - per)
    t_c = durations.t_collision
    den = (1.0 - p_tr) * params.slot_time + p_tr * t_c + success * (durations.t_success - t_c)
    out = np.zeros(snr_db.shape)
    out[live] = success * durations.payload_airtime / den * rate
    return out


def build_rate_tensor_blocks(scenario, contenders=None, snr_field=None, mcs_override=None):
    """The (F, N, M) rate values as the package built them before the
    heard-link kernel: one kernel call per (channel, MCS) block."""
    mcs_table = scenario.mcs_table if mcs_override is None \
        else np.full_like(scenario.mcs_table, scenario.run_mcs(mcs_override))
    if snr_field is None:
        snr_field = scenario.snr_field()
    snr_field = np.asarray(snr_field, dtype=float)
    if contenders is None:
        contenders = bootstrap_contenders(scenario, snr_field)
    params = scenario.dcf
    out = np.zeros((scenario.f_count, scenario.n_aps, scenario.m_stas))
    for f, width in enumerate(scenario.bandwidth_mhz.tolist()):
        state = solve_bianchi_fixed_point(params, max(1, int(contenders[f])))
        for mcs in sorted(set(mcs_table[f].tolist())):
            rows = mcs_table[f] == mcs
            out[f, rows] = _block_rates(snr_field[f, rows], scenario.per_curves[mcs],
                                        phy.mcs_data_rate(mcs, width), state, params)
    return out
