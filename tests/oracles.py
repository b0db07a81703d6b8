"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written with different algorithms (and, where
possible, different libraries) than the code under test: damped Picard instead
of bisection, the paper's assignment LP and dynamic programming over capacity
states instead of Kuhn-Munkres, bit-mask enumeration instead of recursive
search, plain `math` instead of numpy log-sum-exp.
"""

import bisect
import itertools
import math

import numpy as np


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
    if curve.is_tabulated:
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


def assignment_lp_vertex(d, caps):
    """Vertex of the paper's assignment LP relaxation, as an (N, M) float array.

    maximize sum(d * x) subject to sum_n x[n, m] = 1 for every station,
    sum_m x[n, m] <= caps[n] for every AP and 0 <= x <= 1, solved by dual
    simplex on dense constraint matrices. Edge e = n * M + m. The vertex is
    returned unrounded, so callers can check that total unimodularity made
    it integral.
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
                  A_eq=a_eq, b_eq=np.ones(m_stas), bounds=(0.0, 1.0), method="highs-ds")
    if not res.success:
        raise RuntimeError(f"assignment LP failed: {res.message}")
    return res.x.reshape(n_aps, m_stas)


def exhaustive_mmkp_value(values, ap_caps, sta_limits):
    """Global optimum of the joint link-activation problem by bit enumeration.

    values has shape (F, N, M); a selection is any subset of the F*N*M cells.
    Feasible selections give each station at most one AP, at most
    sta_limits[m] links, and each AP at most ap_caps[n] links in total.
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
    links_per_ap = per_ap_sta.sum(axis=2)              # (K, N)
    ok = ((aps_per_sta <= 1).all(axis=1)
          & (links_per_sta <= np.asarray(sta_limits)).all(axis=1)
          & (links_per_ap <= np.asarray(ap_caps)).all(axis=1))
    gains = (sel * values).sum(axis=(1, 2, 3))
    return float(gains[ok].max())


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
