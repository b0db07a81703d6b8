"""Channel data rates: per-link capacity combining PHY quality and MAC sharing.

The central object is the rate tensor C[f, n, m]: the throughput STA m would
see on channel f if served by AP n, given the channel's MCS, the link SNR,
and the number of stations currently contending on f. The per-channel MAC
efficiency comes from the saturated-contention fixed point in `dcf`; the PHY
error probability comes from the PER curves in `phy`. Only the contention
changes within a run, so the rest is derived once per run (`rate_links`):
the heard links' PER at the SNR field, beside what the scenario keeps per MCS
override, the heard links and the airtime and MCS rate of each block of links
that share a channel and an MCS. A tensor build then takes each channel's
contention terms, spreads them over the links and evaluates the DCF
throughput over all heard links in one vectorized call.

The (F, N, M) layout is the only rate layout: the pairing weights are the
tensor's mean over channels (N, M), and a selection's (F, M) links read
their rates at the one AP each station's pairing names. Those reads go
through `RateTensor.paired_links`, a view of one pairing's links that the
tensor keeps for the last pairing object it was asked about, so a loop that
revisits a decision gathers its links once.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from . import phy
from .dcf import DcfParams, airtime_durations, normalized_throughput, solve_bianchi_fixed_point
from .errors import InvalidInputError, _trusted
from .scenario import Scenario

__all__ = [
    "PairedLinks",
    "RateLinks",
    "RateTensor",
    "bootstrap_contenders",
    "build_rate_tensor",
    "rate_links",
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
    `values` is copied, as a float array.
    """

    values: np.ndarray

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
        held, view = vars(self).get("_paired", (None, None))
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


def _block_airtime(params: DcfParams, mcs: int, width: int) -> tuple:
    rate = phy.mcs_data_rate(mcs, width)
    d = airtime_durations(params, rate)
    return d.t_success, d.t_collision, d.payload_airtime, rate


class RateLinks(NamedTuple):
    """What a rate tensor reads besides the contention (`rate_links`): the
    heard links in blocks that share a channel and an MCS, blocks in
    (channel, MCS) order, links in (f, n, m) order within a block."""

    index: np.ndarray       # (L,) read-only flat (F, N, M) index of each link, smallest uint
    per: np.ndarray         # (L,) read-only PER of each link at its SNR
    block_links: tuple      # (B,) each block's number of links
    block_channel: tuple    # (B,) each block's channel
    block_airtime: tuple    # t_success, t_collision, payload airtime, MCS rate: B floats each


# per-link arrays that `normalized_throughput` reads as its contention state
# and its airtime durations, and each link's MCS rate
_LinkTerms = namedtuple("_LinkTerms", "p_tr p_single t_success t_collision payload_airtime rate")


def _link_layout(scenario: Scenario, mcs_override: int | None) -> tuple:
    """What the scenario fixes of its `RateLinks` under a checked MCS override,
    kept by it (`Scenario.fixed`): the links with no PER, each MCS in use with
    its links' positions, and the MCS label, that one MCS or "mixed"."""
    mcs_table = scenario.mcs_table if mcs_override is None \
        else np.full_like(scenario.mcs_table, mcs_override)
    index = np.flatnonzero(~np.isnan(scenario.snr_offsets_db.ravel()))
    ap_keys = [(f, mcs) for f, row in enumerate(mcs_table.tolist()) for mcs in row]
    blocks = sorted(set(ap_keys))
    link_block = np.array([blocks.index(key) for key in ap_keys])[index // scenario.m_stas]
    index = index[np.argsort(link_block, kind="stable")]   # the same unless a channel mixes MCS
    link_mcs = mcs_table.ravel()[index // scenario.m_stas]
    in_use = sorted({mcs for _, mcs in blocks})
    at = tuple((mcs, np.flatnonzero(link_mcs == mcs) if len(in_use) > 1 else slice(None))
               for mcs in in_use)
    widths = scenario.bandwidth_mhz.tolist()
    airtime = [_block_airtime(scenario.dcf, mcs, widths[f]) for f, mcs in blocks]
    index = index.astype(np.min_scalar_type(scenario.snr_offsets_db.size))
    index.setflags(write=False)
    return (RateLinks(index, None, tuple(np.bincount(link_block, minlength=len(blocks)).tolist()),
                      tuple(f for f, _ in blocks), tuple(zip(*airtime))),
            at, str(in_use[0]) if len(in_use) == 1 else "mixed")


def rate_links(scenario: Scenario, snr_field: np.ndarray,
               mcs_override: int | None = None) -> RateLinks:
    """The `RateLinks` of an SNR field, derived once per run.

    The field is read at the heard links alone, those the scenario's offsets
    do not mark NaN. Each is one SINR sample, which must be finite and > 0 in
    linear scale, checked as the equivalent range in dB; a link SNR outside
    it (say 5000 dB, whose linear value overflows, or NaN) is a configuration
    error naming the first such link in (f, n, m) order. The EESM of a single
    sample is the sample itself, so the link SNR in dB indexes the PER curve
    directly: one `phy.per_lookup` per MCS in use, over all of its links.
    """
    layout, at, _ = scenario.fixed(_link_layout, scenario.run_mcs(mcs_override))
    snr_field = np.asarray(snr_field, dtype=float)
    shape = (scenario.f_count, scenario.n_aps, scenario.m_stas)
    if snr_field.shape != shape:
        raise InvalidInputError(f"snr_field shape {snr_field.shape} != {shape}")
    flat = snr_field.ravel()
    snr = flat[layout.index]
    usable = (snr >= _SNR_FLOOR_DB) & (snr < _SNR_CEILING_DB)
    if not usable.all():
        first = float(flat[layout.index[~usable].min()])     # in (f, n, m) order
        raise InvalidInputError(f"a link SNR of {first} dB is out of the PHY model's range: "
                                "its linear value must be finite and > 0")
    per = np.empty(snr.size)
    for mcs, links in at:
        per[links] = phy.per_lookup(scenario.per_curves[mcs], snr[links])
    per.setflags(write=False)
    return layout._replace(per=per)


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
                      mcs_override: int | None = None,
                      links: RateLinks | None = None) -> RateTensor:
    """Evaluate C[f, n, m] for every link under the given contention.

    `contenders` is the per-channel number of stations sharing the medium
    (defaults to the bootstrap estimate); each channel is evaluated at
    max(1, contenders[f]) so an empty channel still quotes its unloaded rate.
    `links` are the `rate_links` of the SNR field and MCS override, which a
    run derives once; without them this call derives them. Each heard
    link's rate is the DCF throughput at its channel's contention and its
    PER, times its MCS rate: the MAC efficiency already discounts the
    channel time lost to errored frames (it counts delivered payload only).
    One `normalized_throughput` call evaluates every heard link at once.
    """
    if snr_field is None and (links is None or contenders is None):
        snr_field = scenario.snr_field()
    if links is None:
        links = rate_links(scenario, snr_field, mcs_override)
    if contenders is None:
        contenders = bootstrap_contenders(scenario, snr_field)
    if len(contenders) != scenario.f_count:
        raise InvalidInputError("contenders needs one count per channel")

    params = scenario.dcf
    # each channel's contention terms as Python floats (numpy's power is not promised
    # to match Python's to the bit), one column per block, spread over its links
    states = [_contention(params, max(1, int(c))) for c in contenders]
    p_tr, p_single = zip(*((states[f].p_tr, states[f].p_single) for f in links.block_channel))
    terms = _LinkTerms(*np.array((p_tr, p_single) + links.block_airtime)
                       .repeat(links.block_links, axis=1))
    out = np.zeros((scenario.f_count, scenario.n_aps, scenario.m_stas))
    out.reshape(-1)[links.index] = normalized_throughput(terms, terms, links.per, params) \
        * terms.rate
    out.setflags(write=False)   # finite and >= 0, as per and durations are: kept as it is
    return _trusted(RateTensor, values=out)
