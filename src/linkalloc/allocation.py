"""Radio-link allocation across channels for an existing AP-STA pairing.

Given the pairing and the rate tensor C[f, n, m], the allocator decides which
channels each paired link actually runs on, limited by the station's r(m)
radios. The AP's R(n) counts the stations it serves, which pairing already
enforces, so no AP link budget applies here. A station has one AP at most, so
a selection holds links[f, m], STA m's link to its AP on channel f, and the
pairing that names the APs. The proportional-fair policy scores channels by
instantaneous candidate rate over the exponentially averaged served rate (the
classic PF metric applied per channel), so a channel that has been starved
rises in priority until the loop equalizes rate-per-history across channels.
Links share no budget, so PF decides all of them at once. The round-robin
policy is rate-blind and deals links a weighted channel cycle in AP-major
order: by AP, then by station.

Both allocators return a `LinkSelection` and leave the averages alone: phi,
one float per channel, which the loop carries as a tuple and advances with
its scenario's horizon T. The loop computes each step's served rates and
network total once, from one selection x rate product, with
`instantaneous_rates`; its PF metrics take `pf_ratio` of each channel's
served rate over its average, and a carried phi passes `checked_phi` once.

What depends only on the rates and the pairing is the tensor's
`paired_links` view, kept for the last pairing object it saw, so PF on a
revisited decision reads that view and only scores, orders and grants the F
channels, one channel at a time. Each allocator hands its own read-only int8
links, 0 or 1 at paired stations only, to `LinkSelection` unchecked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np

from .errors import InvalidInputError, _trusted
from .pairing import PairingMatrix
from .rates import PairedLinks, RateTensor

__all__ = [
    "LinkSelection",
    "RadioBudget",
    "instantaneous_rates",
    "allocate_pf",
    "allocate_rr",
    "fairness_spread",
    "selection_feasible",
]


@dataclass(frozen=True, eq=False)
class LinkSelection:
    """Binary activation links[f, m] of STA m's link to its AP
    `pairing.owner[m]` on channel f. `unallocated_edges` holds the sorted
    (n, m) pairs that were paired but given no channel. `s` is the dense
    S[f, n, m], indexed like the rate tensor, read-only, built when first read.
    """

    links: np.ndarray
    pairing: PairingMatrix
    unallocated_edges: tuple = ()

    def __post_init__(self):
        links, pairing = np.asarray(self.links), self.pairing
        if links.ndim != 2 or links.shape[1] != pairing.m_stas \
                or links.dtype != bool and not ((links == 0) | (links == 1)).all() \
                or pairing.paired.shape[1] < pairing.m_stas and links[:, pairing.owner < 0].any():
            raise InvalidInputError(f"need 0/1 links, (F, {pairing.m_stas}), on paired STAs")
        links = links.astype(np.int8)   # the one copy
        links.setflags(write=False)
        object.__setattr__(self, "links", links)

    @cached_property
    def s(self) -> np.ndarray:
        s = self.links[:, None, :] * self.pairing.x
        s.setflags(write=False)
        return s

    def per_channel_counts(self) -> np.ndarray:
        """Active link count per channel; feeds the next contention rebuild."""
        return self.links.sum(axis=1)


@dataclass(frozen=True, eq=False)
class RadioBudget:
    """Per-STA limits r(m) on simultaneous links."""

    sta_radio_limits: np.ndarray

    def __post_init__(self):
        lim = np.array(self.sta_radio_limits, dtype=object)     # each entry as given
        if lim.ndim != 1 or not all(map(_is_count, lim.tolist())):
            raise InvalidInputError("radio limits must be a vector of positive counts")
        lim = lim.astype(int)
        lim.setflags(write=False)
        object.__setattr__(self, "sta_radio_limits", lim)

    @classmethod
    def from_pairing(cls, pairing: PairingMatrix, sta_radio_limits) -> "RadioBudget":
        """The limits of the pairing's stations, checked against its size."""
        budget = cls(sta_radio_limits=sta_radio_limits)
        _check_budget(pairing, budget)
        return budget


def _is_count(value) -> bool:
    """The count rule: an integer (numpy's too), not a bool, >= 1."""
    return not isinstance(value, bool) and isinstance(value, (int, np.integer)) and value >= 1


def instantaneous_rates(selection: LinkSelection, rates: RateTensor) -> tuple:
    """The step's served rates, both read off one selection x rate product:
    per channel, the mean rate of its active links (0 when idle), which drives
    the PF metric and the average update; and the network total, the sum of
    every active link's contention-discounted rate. Only the paired links'
    (F, links) product is formed and summed, over the rates of the tensor's
    `paired_links` view."""
    pairing = selection.pairing
    served = selection.links[:, pairing.paired[1]] * rates.paired_links(pairing).cand
    counts = selection.per_channel_counts()
    totals = served.sum(axis=1)
    return (np.divide(totals, counts, out=np.zeros_like(totals, dtype=float), where=counts > 0),
            float(served.sum()))


def checked_phi(phi, f_count: int) -> tuple:
    """The per-channel averages as a tuple of floats, once every value is
    finite and >= 0 and there is one per channel."""
    if type(phi) is tuple and len(phi) == f_count \
            and all(type(v) is float and 0.0 <= v < math.inf for v in phi):
        return phi      # the loop's own averages, already that tuple
    phi = np.asarray(phi, dtype=float)
    if phi.ndim != 1 or not all(0.0 <= v < math.inf for v in phi.tolist()):
        raise InvalidInputError("phi must be a vector of finite, non-negative values")
    if phi.shape[0] != f_count:
        raise InvalidInputError("phi covers a different channel count")
    return tuple(phi.tolist())


def pf_ratio(rate: float, phi: float) -> float:
    """rate / phi; inf where phi is zero but the rate is not (maximally
    under-served), 0 where both are zero."""
    if phi == 0.0:
        return math.inf if rate > 0 else 0.0
    return rate / phi


def fairness_spread(metrics) -> float:
    """Relative spread (max - min) / mean of the per-channel PF metrics.

    Equal metrics spread 0.0, which covers a network where no link is active
    and every metric is 0.
    """
    vals = [float(v) for v in metrics]
    if not vals:
        raise InvalidInputError("need at least one metric")
    if math.inf in vals or -math.inf in vals:
        return math.inf
    # numpy's mean to the bit: below 8 values add.reduce sums left to right from 0.0 (numpy 2.4.6)
    total = reduce(float.__add__, vals, 0.0) if len(vals) < 8 else float(np.add.reduce(vals))
    mean = total / len(vals)
    if mean != mean:    # a NaN metric, which builtin max and min may skip
        return math.nan
    top, bottom = max(vals), min(vals)
    if top == bottom:
        return 0.0
    if mean <= 0:
        raise InvalidInputError("metrics must have positive mean")
    return (top - bottom) / mean


def _check_budget(pairing: PairingMatrix, budget: RadioBudget) -> None:
    if budget.sta_radio_limits.shape != (pairing.m_stas,):
        raise InvalidInputError("budget covers a different station count")


def _paired_links(pairing: PairingMatrix, budget: RadioBudget, rates: RateTensor) -> PairedLinks:
    """The tensor's view of the pairing's links, once the budget is checked."""
    _check_budget(pairing, budget)
    return rates.paired_links(pairing)


def allocate_pf(pairing: PairingMatrix, budget: RadioBudget, rates: RateTensor,
                phi) -> LinkSelection:
    """Proportional-fair channel selection for every paired link.

    Channel priority is fixed once per call from the averages: score(f) =
    mean candidate rate on f over phi[f], descending, then mean candidate
    rate descending, then channel index. Each paired link takes the first
    min(r(m), F) channels in that order on which its rate is > 0; a link
    with no such channel is unallocated. Channels are granted in that order,
    one channel at a time, each to the live links with a radio left.
    """
    view = _paired_links(pairing, budget, rates)
    means = view.means
    score = list(map(pf_ratio, means, checked_phi(phi, rates.f_count)))
    links = np.zeros((rates.f_count, pairing.m_stas), dtype=np.int8)
    free = budget.sta_radio_limits.copy()
    for f in sorted(range(rates.f_count), key=lambda f: (-score[f], -means[f], f)):
        links[f] = view.live[f] & (free > 0)
        free -= links[f]
    links.setflags(write=False)
    return _trusted(LinkSelection, links=links, pairing=pairing,
                    unallocated_edges=view.unallocated_edges)


def allocate_rr(pairing: PairingMatrix, budget: RadioBudget, rates: RateTensor,
                weights) -> LinkSelection:
    """Weighted round-robin baseline: deal channels from a repeating cycle.

    The cycle holds each channel `weights[f]` times (e.g. weights (1, 2, 4)
    yield the cycle [0, 1, 1, 2, 2, 2, 2]), and links are dealt in AP-major
    order, ignoring rates entirely; `rates` only fixes the layout. A cycle
    position already used by the link is skipped. Every paired link gets
    min(r(m), F) channels, so no link is left unallocated.
    """
    _paired_links(pairing, budget, rates)
    ms = pairing.paired[1]
    f_count = rates.f_count
    weights = list(weights)
    if len(weights) != f_count or not all(map(_is_count, weights)):
        raise InvalidInputError("need one positive weight per channel")
    cycle = [f for f in range(f_count) for _ in range(int(weights[f]))]

    links = np.zeros((f_count, pairing.m_stas), dtype=np.int8)
    pos = 0
    for m in ms.tolist():
        for _ in range(min(int(budget.sta_radio_limits[m]), f_count)):
            # the link holds fewer than F channels, so the cycle has a free one
            while links[cycle[pos % len(cycle)], m]:
                pos += 1
            links[cycle[pos % len(cycle)], m] = 1
            pos += 1
    links.setflags(write=False)
    return _trusted(LinkSelection, links=links, pairing=pairing, unallocated_edges=())


def selection_feasible(selection: LinkSelection, pairing: PairingMatrix,
                       budget: RadioBudget) -> bool:
    """True when every link is paired and within its STA's radios."""
    _check_budget(pairing, budget)
    if selection.s.shape[1:] != pairing.x.shape:
        raise InvalidInputError("selection does not match the pairing dimensions")
    per_link = selection.s.sum(axis=0)
    return bool((per_link <= pairing.x * budget.sta_radio_limits).all())
