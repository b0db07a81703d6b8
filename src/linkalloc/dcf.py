"""Saturated DCF contention model.

It solves the classic two-equation fixed point for the per-slot
transmission probability tau of n saturated contenders with binary
exponential backoff, then evaluates normalized MAC throughput including a
per-link PHY error probability. `repro.simulate_dcf_slots` replays the same
backoff rules slot by slot as an independent cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError

__all__ = [
    "DcfParams",
    "ContentionState",
    "AirtimeDurations",
    "solve_bianchi_fixed_point",
    "airtime_durations",
    "normalized_throughput",
]


@dataclass(frozen=True)
class DcfParams:
    """MAC timing and backoff parameters (defaults: saturated 802.11 DCF)."""

    slot_time: float = 9e-6
    sifs: float = 16e-6
    difs: float = 34e-6
    eifs: float | None = None      # None -> SIFS + ACK airtime + DIFS
    phy_header: float = 20e-6      # PHY preamble + header airtime
    ack_bytes: int = 14
    payload_bytes: int = 1500
    cw_min: int = 16
    cw_max: int = 1024
    m_max_backoff_stages: int = 6
    prop_delay: float = 0.1e-6

    def __post_init__(self):
        for name in ("slot_time", "sifs", "difs", "phy_header"):
            if getattr(self, name) <= 0:
                raise InvalidInputError(f"{name} must be > 0")
        if self.eifs is not None and self.eifs <= 0:
            raise InvalidInputError("eifs must be > 0 when given")
        if self.prop_delay < 0:
            raise InvalidInputError("prop_delay must be >= 0")
        if self.ack_bytes <= 0 or self.payload_bytes < 0:
            raise InvalidInputError("ack_bytes must be > 0 and payload_bytes >= 0")
        if self.cw_min < 1 or self.cw_max < self.cw_min:
            raise InvalidInputError("need 1 <= cw_min <= cw_max")
        if self.m_max_backoff_stages < 0:
            raise InvalidInputError("m_max_backoff_stages must be >= 0")
        if self.cw_min * 2 ** self.m_max_backoff_stages != self.cw_max:
            raise InvalidInputError(
                "cw_max must equal cw_min * 2**m_max_backoff_stages "
                f"({self.cw_min} * 2**{self.m_max_backoff_stages} != {self.cw_max})"
            )


@dataclass(frozen=True)
class ContentionState:
    """Solved per-slot behaviour of one saturated channel."""

    n_contenders: int
    tau: float                 # per-slot transmission probability of one node
    p_cond_collision: float    # conditional collision probability seen by a node
    residual: float            # |tau - tau_formula(p(tau))| at the returned point

    @property
    def p_tr(self) -> float:
        """Probability that a slot carries a transmission: 1 - (1 - tau)^n."""
        return 1.0 - (1.0 - self.tau) ** self.n_contenders

    @property
    def p_single(self) -> float:
        """Probability that exactly one node transmits: n tau (1 - tau)^(n - 1)."""
        n = self.n_contenders
        return n * self.tau * (1.0 - self.tau) ** (n - 1)


def _tau_of_p(p: float, w: int, m: int) -> float:
    # tau = 2(1-2p) / ((1-2p)(W+1) + pW(1-(2p)^m)), written with the geometric
    # sum expanded so p = 1/2 is not a 0/0 special case
    s = sum((2.0 * p) ** i for i in range(m))
    return 2.0 / ((w + 1) + p * w * s)


def solve_bianchi_fixed_point(params: DcfParams, n_contenders: int) -> ContentionState:
    """Solve tau = f(p(tau)) for n saturated contenders by bisection."""
    if n_contenders < 1:
        raise InvalidInputError("n_contenders must be >= 1")
    w = params.cw_min
    m = params.m_max_backoff_stages
    if n_contenders == 1:
        tau = 2.0 / (w + 1)
        return ContentionState(1, tau, 0.0, 0.0)

    def residual(tau: float) -> float:
        p = 1.0 - (1.0 - tau) ** (n_contenders - 1)
        return tau - _tau_of_p(p, w, m)

    lo, hi = 1e-12, 1.0 - 1e-12
    if residual(hi) < 0:    # W = 1 with no stages: tau(p) = 1, so every node sends every slot
        return ContentionState(n_contenders, 1.0, 1.0, 0.0)
    if residual(lo) > 0:    # the root is below lo, and residual(0) < 0 always
        lo = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if residual(mid) <= 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-15 and hi - lo < 1e-9 * hi:    # absolute, and relative for tiny tau
            break
    tau = 0.5 * (lo + hi)
    res = abs(residual(tau))
    p = 1.0 - (1.0 - tau) ** (n_contenders - 1)
    return ContentionState(n_contenders, tau, p, res)


@dataclass(frozen=True)
class AirtimeDurations:
    """Channel occupancy of a transmission, in seconds: `t_success` for a
    delivered frame, `t_collision` for a failed one, collided or errored
    (both end in EIFS)."""

    t_success: float
    t_collision: float
    payload_airtime: float   # E[Pkt]: payload bits at the MCS data rate

    def __post_init__(self):
        if not all(map(math.isfinite, (self.t_success, self.t_collision, self.payload_airtime))):
            raise InvalidInputError("durations must be finite")
        if min(self.t_success, self.t_collision) <= 0:
            raise InvalidInputError("durations must be > 0")
        if self.payload_airtime < 0:
            raise InvalidInputError("payload_airtime must be >= 0")


def airtime_durations(params: DcfParams, mcs_rate: float) -> AirtimeDurations:
    """Slot durations for success / failure at a PHY rate.

    ACK frames ride at the same MCS rate plus a PHY header; EIFS defaults to
    SIFS + ACK airtime + DIFS, which makes T_c = T_s - prop_delay.
    """
    if mcs_rate <= 0 or not math.isfinite(mcs_rate):
        raise InvalidInputError("mcs_rate must be finite and > 0")
    payload = params.payload_bytes * 8 / mcs_rate
    ack = params.ack_bytes * 8 / mcs_rate + params.phy_header
    h = params.phy_header
    delta = params.prop_delay
    t_s = h + payload + params.sifs + delta + ack + params.difs + delta
    eifs = params.eifs if params.eifs is not None else params.sifs + ack + params.difs
    t_c = h + payload + delta + eifs
    return AirtimeDurations(t_success=t_s, t_collision=t_c, payload_airtime=payload)


def normalized_throughput(state, durations, per, params: DcfParams):
    """Fraction of channel time carrying successfully delivered payload.

    Success requires winning the slot (single transmitter) and surviving the
    PHY with probability 1 - per, so a slot succeeds with probability
    success = p_single (1 - per), where p_single = n tau (1 - tau)^(n - 1).
    A collided or errored transmission burns t_collision and a successful
    one t_success, so

        success E[P] / ((1 - p_tr) slot + p_tr T_c + success (T_s - T_c))

    `state` is a `ContentionState` and `durations` an `AirtimeDurations`, or
    anything with their `p_tr`, `p_single` and duration attributes: the rate
    kernel passes one array per attribute, one entry per link. `per` is a
    float or an array of links, and the result has the shape of all three.
    """
    if not np.all((0.0 <= per) & (per <= 1.0)):
        raise InvalidInputError(f"per must be in [0, 1], got {per!r}")
    p_tr = state.p_tr
    success = state.p_single * (1.0 - per)
    t_c = durations.t_collision
    den = (1.0 - p_tr) * params.slot_time + p_tr * t_c + success * (durations.t_success - t_c)
    return success * durations.payload_airtime / den
