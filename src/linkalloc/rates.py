"""Channel data rates: per-link capacity combining PHY quality and MAC sharing.

The central object is the rate tensor C[f, n, m]: the throughput STA m would
see on channel f if served by AP n, given the channel's MCS, the link SNR,
and the number of stations currently contending on f. The per-channel MAC
efficiency comes from the saturated-contention fixed point in `dcf`; the PHY
error probability comes from the PER curves in `phy`. One vectorized kernel
evaluates each block of links that share a channel and an MCS.

The (F, N, M) layout is the only rate layout: the pairing weights are the
tensor's mean over channels (N, M), and a selection's (F, M) links read
their rates at the one AP each station's pairing names. Those reads go
through `RateTensor.paired_links`, a view of one pairing's links that the
tensor keeps for the last pairing object it was asked about, so a loop that
revisits a decision gathers its links once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from . import phy
from .dcf import DcfParams, airtime_durations, normalized_throughput, solve_bianchi_fixed_point
from .errors import InvalidInputError
from .scenario import Scenario

__all__ = [
    "PairedLinks",
    "RateTensor",
    "bootstrap_contenders",
    "build_rate_tensor",
]


class PairedLinks(NamedTuple):
    """A rate tensor's read-only view of one pairing's links, in the
    pairing's AP-major `paired` order."""

    cand: np.ndarray            # (F, links) rates
    means: tuple                # per channel, the mean of `cand` as a float; 0.0 with no links
    live: np.ndarray            # (F, M) bool, cand > 0 at the links' station columns
    unallocated_edges: tuple    # the (n, m) links with no channel rate > 0


@dataclass(frozen=True, eq=False)
class RateTensor:
    """Per-channel per-link rates, shape (F, N, M), bit/s; 0 = unusable link.

    Equality is identity: the tensor keeps the `PairedLinks` view of the last
    pairing object it was asked about, holding a reference to that pairing.
    """

    values: np.ndarray
    _paired: tuple = field(default=(None, None), init=False, repr=False)

    def __post_init__(self):
        v = np.array(self.values, dtype=float)
        if v.ndim != 3:
            raise InvalidInputError(f"rate tensor must be (F, N, M), got shape {v.shape}")
        if not np.isfinite(v).all() or (v < 0).any():
            raise InvalidInputError("rates must be finite and non-negative")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def f_count(self) -> int:
        return self.values.shape[0]

    def paired_links(self, pairing) -> PairedLinks:
        """The view of `pairing`'s links, rebuilt only when asked about
        another pairing object than last time."""
        # one tuple, read and replaced whole: concurrent callers each get their own pairing's view
        held, view = self._paired
        if held is pairing:
            return view
        f_count, n_aps, m_stas = self.values.shape
        if (pairing.n_aps, pairing.m_stas) != (n_aps, m_stas):
            raise InvalidInputError("rate tensor does not match the pairing dimensions")
        ns, ms = pairing.paired
        cand = self.values[:, ns, ms]
        pos = cand > 0.0
        live = np.zeros((f_count, m_stas), dtype=bool)
        live[:, ms] = pos
        dead = ~pos.any(axis=0)
        for a in (cand, live):
            a.setflags(write=False)
        view = PairedLinks(cand, tuple(cand.mean(axis=1).tolist()) if ms.size else (0.0,) * f_count,
                           live, tuple(zip(ns[dead].tolist(), ms[dead].tolist())))
        object.__setattr__(self, "_paired", (pairing, view))
        return view


# the link SNRs in dB whose linear value 10**(snr/10) is a finite double > 0:
# below the floor it underflows to 0, from the ceiling up it overflows to inf
_SNR_FLOOR_DB = -10750 * np.log10(2)
_SNR_CEILING_DB = 10 * np.log10(np.finfo(float).max)


@lru_cache(maxsize=4096)
def _contention(params: DcfParams, n: int):
    return solve_bianchi_fixed_point(params, n)


def _link_rates(snr_db: np.ndarray, curve: phy.LogisticPer | phy.TablePer, rate: float,
                state, params: DcfParams) -> np.ndarray:
    """Rates in bit/s of links that share one MCS and one contention state.

    Each link is one SINR sample, which must be finite and > 0 in linear
    scale, checked as the equivalent range in dB; a link SNR outside it (say
    5000 dB, whose linear value overflows) is a configuration error naming
    it. The EESM of a single sample is the sample itself, so the link SNR in
    dB indexes the PER curve directly. NaN marks an out-of-range link, whose rate is 0. The MAC
    efficiency already discounts the channel time lost to errored frames (it
    counts delivered payload only), so a link's rate is that efficiency times
    the MCS rate.
    """
    live = ~np.isnan(snr_db)
    snr = snr_db[live]
    usable = (snr >= _SNR_FLOOR_DB) & (snr < _SNR_CEILING_DB)
    if not usable.all():
        raise InvalidInputError(f"a link SNR of {float(snr[~usable][0])} dB is out of "
                                f"the PHY model's range: its linear value must be finite and > 0")
    per = phy.per_lookup(curve, snr)
    tpt = normalized_throughput(state, airtime_durations(params, rate), per, params)
    out = np.zeros(snr_db.shape)
    out[live] = tpt * rate
    return out


def bootstrap_contenders(scenario: Scenario, snr_field: np.ndarray) -> list:
    """Initial per-channel contender counts before any allocation exists.

    Each STA is assumed to camp on its single strongest link, which is how
    stations behave before the controller has made any decision. Ties go to
    the first link in (channel, AP) order; a STA with no finite link camps
    nowhere.
    """
    f_count, n_aps = scenario.f_count, scenario.n_aps
    flat = np.where(np.isnan(snr_field), -np.inf, snr_field).reshape(f_count * n_aps, -1)
    camps = np.isfinite(flat).any(axis=0)
    f_best = flat.argmax(axis=0)[camps] // n_aps
    return np.bincount(f_best, minlength=f_count).tolist()


def build_rate_tensor(scenario: Scenario, *, contenders=None,
                      snr_field: np.ndarray | None = None,
                      mcs_override: int | None = None) -> RateTensor:
    """Evaluate C[f, n, m] for every link under the given contention.

    `contenders` is the per-channel number of stations sharing the medium
    (defaults to the bootstrap estimate); each channel is evaluated at
    max(1, contenders[f]) so an empty channel still quotes its unloaded rate.
    """
    mcs_table = scenario.mcs_table if mcs_override is None \
        else np.full_like(scenario.mcs_table, scenario.run_mcs(mcs_override))
    if snr_field is None:
        snr_field = scenario.snr_field()
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
    for f, width in enumerate(scenario.bandwidth_mhz.tolist()):
        state = _contention(params, max(1, int(contenders[f])))
        # one kernel call per MCS in use on the channel: usually all APs share it
        for mcs in sorted(set(mcs_table[f].tolist())):
            rows = mcs_table[f] == mcs
            out[f, rows] = _link_rates(snr_field[f, rows], scenario.per_curves[mcs],
                                       phy.mcs_data_rate(mcs, width), state, params)
    return RateTensor(out)

