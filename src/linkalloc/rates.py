"""Channel data rates: per-link capacity combining PHY quality and MAC sharing.

The central object is the rate tensor C[f, n, m]: the throughput STA m would
see on channel f if served by AP n, given the channel's MCS, the link SNR,
and the number of stations currently contending on f. The per-channel MAC
efficiency comes from the saturated-contention fixed point in `dcf`; the PHY
error probability comes from the PER curves in `phy`. One vectorized kernel
evaluates each block of links that share a channel and an MCS.

Edges flatten AP-major: edge e = n * M + m pairs AP n with STA m. The same
convention is shared by the pairing and allocation stages.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import phy
from .dcf import DcfParams, airtime_durations, normalized_throughput, solve_bianchi_fixed_point
from .errors import InvalidInputError
from .scenario import Scenario

__all__ = [
    "RateTensor",
    "EdgeRateMatrix",
    "AverageRateMatrix",
    "channel_rate",
    "link_rate",
    "bootstrap_contenders",
    "build_rate_tensor",
    "average_over_channels",
    "edge_index",
    "edge_endpoints",
]


def edge_index(n: int, m: int, m_stas: int) -> int:
    """Flat edge id of the (AP n, STA m) pair."""
    return n * m_stas + m


def edge_endpoints(e: int, m_stas: int) -> tuple:
    """Inverse of `edge_index`."""
    return e // m_stas, e % m_stas


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class RateTensor:
    """Per-channel per-link rates, shape (F, N, M), bit/s; 0 = unusable link."""

    values: np.ndarray

    def __post_init__(self):
        v = _readonly(self.values)
        if v.ndim != 3:
            raise InvalidInputError(f"rate tensor must be (F, N, M), got shape {v.shape}")
        if not np.isfinite(v).all() or (v < 0).any():
            raise InvalidInputError("rates must be finite and non-negative")
        object.__setattr__(self, "values", v)

    @property
    def f_count(self) -> int:
        return self.values.shape[0]

    @property
    def n_aps(self) -> int:
        return self.values.shape[1]

    @property
    def m_stas(self) -> int:
        return self.values.shape[2]

    def to_edges(self) -> "EdgeRateMatrix":
        f, n, m = self.values.shape
        return EdgeRateMatrix(self.values.reshape(f, n * m), n_aps=n, m_stas=m)


@dataclass(frozen=True)
class EdgeRateMatrix:
    """Rates indexed (channel, edge) with edges AP-major: e = n * M + m."""

    values: np.ndarray
    n_aps: int
    m_stas: int

    def __post_init__(self):
        v = _readonly(self.values)
        if v.ndim != 2 or v.shape[1] != self.n_aps * self.m_stas:
            raise InvalidInputError(
                f"edge matrix must be (F, N*M) = (F, {self.n_aps * self.m_stas}), "
                f"got shape {v.shape}"
            )
        object.__setattr__(self, "values", v)

    @property
    def f_count(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class AverageRateMatrix:
    """Channel-averaged rates D[n, m] used as pairing weights."""

    values: np.ndarray

    def __post_init__(self):
        v = _readonly(self.values)
        if v.ndim != 2:
            raise InvalidInputError(f"average rate matrix must be (N, M), got {v.shape}")
        object.__setattr__(self, "values", v)


def channel_rate(per, tpt, mcs_rate: float):
    """Link throughput in bit/s from PER, MAC efficiency and the MCS rate.

    The MAC efficiency already discounts channel time lost to errored frames
    (the throughput expression only counts successfully delivered payload),
    so the rate is Tpt * rate and `per` is only range-checked. `per` and
    `tpt` are floats or arrays of the same shape.
    """
    if not np.all((0.0 <= per) & (per <= 1.0)):
        raise InvalidInputError(f"per must be in [0, 1], got {per}")
    if np.any(tpt < 0) or mcs_rate <= 0:
        raise InvalidInputError("tpt must be >= 0 and mcs_rate > 0")
    return tpt * mcs_rate


@lru_cache(maxsize=4096)
def _contention(params: DcfParams, n: int):
    return solve_bianchi_fixed_point(params, n)


@lru_cache(maxsize=4096)
def _mcs_rate(mcs_index: int, bandwidth_mhz: int) -> float:
    return phy.mcs_data_rate(phy.mcs_entry(mcs_index, bandwidth_mhz))


def _link_rates(snr_db: np.ndarray, curve: phy.PerCurve, rate: float,
                state, params: DcfParams) -> np.ndarray:
    """Rates in bit/s of links that share one MCS and one contention state.

    Each link is one SINR sample, which must be finite and > 0 in linear
    scale. The EESM of a single sample is the sample itself, so the
    effective SNR is that linear SINR back in dB. NaN marks an out-of-range
    link, whose rate is 0.
    """
    live = ~np.isnan(snr_db)
    with np.errstate(over="ignore"):
        linear = phy.db_to_linear(snr_db[live])
    if not (np.isfinite(linear) & (linear > 0)).all():
        raise InvalidInputError("SINR grid entries must be finite and > 0")
    per = phy.per_lookup(curve, phy.linear_to_db(linear))
    tpt = normalized_throughput(state, airtime_durations(params, rate), per, params)
    out = np.zeros(snr_db.shape)
    out[live] = channel_rate(per, tpt, rate)
    return out


def link_rate(snr_db: float, mcs_index: int, bandwidth_mhz: int, *,
              n_contenders: int = 1, params: DcfParams | None = None,
              per_model=None) -> float:
    """Rate in bit/s of one link: the rate-tensor kernel on a single link."""
    params = params if params is not None else DcfParams()
    if per_model is None:
        curve = phy.default_per_curve(mcs_index)
    else:
        curve = per_model.curve_for(mcs_index)
    rates = _link_rates(np.array([snr_db], dtype=float), curve,
                        _mcs_rate(mcs_index, bandwidth_mhz),
                        _contention(params, n_contenders), params)
    return float(rates[0])


def bootstrap_contenders(scenario: Scenario, snr_field: np.ndarray) -> list:
    """Initial per-channel contender counts before any allocation exists.

    Each STA is assumed to camp on its single strongest link, which is how
    stations behave before the controller has made any decision.
    """
    counts = [0] * scenario.f_count
    flat = np.where(np.isnan(snr_field), -np.inf, snr_field)
    for m in range(scenario.m_stas):
        per_sta = flat[:, :, m]
        if not np.isfinite(per_sta).any():
            continue
        f_best = int(np.unravel_index(np.argmax(per_sta), per_sta.shape)[0])
        counts[f_best] += 1
    return counts


def build_rate_tensor(scenario: Scenario, *, contenders=None,
                      snr_field: np.ndarray | None = None,
                      mcs_override: int | None = None) -> RateTensor:
    """Evaluate C[f, n, m] for every link under the given contention.

    `contenders` is the per-channel number of stations sharing the medium
    (defaults to the bootstrap estimate); each channel is evaluated at
    max(1, contenders[f]) so an empty channel still quotes its unloaded rate.
    """
    if snr_field is None:
        snr_field = scenario.snr_field(rng=np.random.default_rng(scenario.rng_seed))
    snr_field = np.asarray(snr_field, dtype=float)
    expect = (scenario.f_count, scenario.n_aps, scenario.m_stas)
    if snr_field.shape != expect:
        raise InvalidInputError(f"snr_field shape {snr_field.shape} != {expect}")
    if contenders is None:
        contenders = bootstrap_contenders(scenario, snr_field)
    if len(contenders) != scenario.f_count:
        raise InvalidInputError("contenders needs one count per channel")

    params = scenario.dcf
    out = np.zeros(expect)
    for f, chan in enumerate(scenario.channels):
        state = _contention(params, max(1, int(contenders[f])))
        ap_mcs = np.array([scenario.mcs_for(f, ap) if mcs_override is None else mcs_override
                           for ap in scenario.aps])
        # one kernel call per MCS in use on the channel: usually all APs share it
        for mcs in np.unique(ap_mcs).tolist():
            rows = ap_mcs == mcs
            out[f, rows] = _link_rates(snr_field[f, rows], scenario.per_model.curve_for(mcs),
                                       _mcs_rate(mcs, chan.bandwidth_mhz), state, params)
    return RateTensor(out)


def average_over_channels(tensor: RateTensor) -> AverageRateMatrix:
    """Pairing weights D[n, m]: the unweighted mean of C over channels."""
    return AverageRateMatrix(tensor.values.mean(axis=0))
