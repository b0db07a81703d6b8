"""PHY abstraction: SINR, effective-SNR mapping, PER curves, MCS data rates.

A radio link is reduced to a scalar effective SNR via an exponential
effective SNR mapping (EESM) over its per-subcarrier, per-stream SINR grid.
The effective SNR indexes a packet-error-rate curve for the active MCS, and
the MCS itself fixes the raw PHY data rate from the OFDM symbol layout.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import InvalidInputError

__all__ = [
    "SinrComponents",
    "SubcarrierSinrGrid",
    "EesmParams",
    "PerCurve",
    "McsEntry",
    "sinr",
    "eesm_effective_snr",
    "per_lookup",
    "mcs_entry",
    "mcs_data_rate",
    "default_per_curve",
    "db_to_linear",
    "linear_to_db",
    "MCS_MODULATION",
    "DATA_SUBCARRIERS",
    "OFDM_SYMBOL_S",
    "GUARD_INTERVAL_S",
    "DEFAULT_PER_MIDPOINT_DB",
    "DEFAULT_PER_SLOPE_PER_DB",
]


def db_to_linear(value_db):
    """Convert decibels to a linear power ratio."""
    return 10.0 ** (np.asarray(value_db, dtype=float) / 10.0)


def linear_to_db(value):
    """Convert a linear power ratio to decibels."""
    value = np.asarray(value, dtype=float)
    if np.any(value <= 0):
        raise InvalidInputError("linear value must be > 0 to convert to dB")
    return 10.0 * np.log10(value)


@dataclass(frozen=True)
class SinrComponents:
    """Link budget terms, all linear power quantities."""

    signal: float            # received signal power S
    inter_stream_interference: float  # residual inter-stream power I_s
    noise: float             # thermal noise power N (> 0)

    def __post_init__(self):
        for name in ("signal", "inter_stream_interference", "noise"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise InvalidInputError(f"{name} must be finite, got {v!r}")
        if self.signal < 0:
            raise InvalidInputError("signal power must be >= 0")
        if self.inter_stream_interference < 0:
            raise InvalidInputError("interference power must be >= 0")
        if self.noise <= 0:
            raise InvalidInputError("noise power must be > 0")


def sinr(components: SinrComponents) -> float:
    """Post-processing SINR: S / (I_s + N), linear scale."""
    return components.signal / (components.inter_stream_interference + components.noise)


@dataclass(frozen=True)
class SubcarrierSinrGrid:
    """Per-subcarrier, per-stream linear SINR values, shape (n_sc, n_ss)."""

    values: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=float)
        if arr.ndim != 2 or arr.size == 0:
            raise InvalidInputError("SINR grid must be a non-empty 2-D array")
        if not np.all(np.isfinite(arr)) or np.any(arr <= 0):
            raise InvalidInputError("SINR grid entries must be finite and > 0")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    @classmethod
    def uniform(cls, value: float, n_sc: int = 1, n_ss: int = 1) -> "SubcarrierSinrGrid":
        return cls(np.full((n_sc, n_ss), float(value)))

    @property
    def n_subcarriers(self) -> int:
        return self.values.shape[0]

    @property
    def n_streams(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class EesmParams:
    """Tuning parameter of the exponential effective SNR mapping."""

    beta: float = 1.0  # dimensionless, calibrated per MCS

    def __post_init__(self):
        if not math.isfinite(self.beta) or self.beta <= 0:
            raise InvalidInputError(f"beta must be finite and > 0, got {self.beta!r}")


def eesm_effective_snr(grid: SubcarrierSinrGrid, params: EesmParams) -> float:
    """Collapse a SINR grid to a scalar effective SNR (linear scale).

    Computes -beta * ln(mean(exp(-gamma / beta))) over all grid entries,
    as a max-shifted log-sum-exp so large gamma/beta ratios cannot underflow
    to -inf.
    """
    beta = params.beta
    a = -grid.values / beta
    a_max = a.max()
    log_sum = np.log(np.exp(a - a_max).sum()) + a_max
    return float(-beta * (log_sum - math.log(grid.values.size)))


@dataclass(frozen=True)
class PerCurve:
    """Packet error rate as a function of effective SNR in dB, for one MCS.

    Either a tabulated curve (strictly increasing esnr_db grid, linearly
    interpolated, clamped at the endpoints) or a parametric logistic curve
    1 / (1 + exp(slope * (esnr_db - midpoint_db))).
    """

    mcs_index: int
    esnr_db: np.ndarray | None = None
    per: np.ndarray | None = None
    midpoint_db: float | None = None
    slope_per_db: float | None = None

    def __post_init__(self):
        if self.mcs_index < 0:
            raise InvalidInputError("mcs_index must be >= 0")
        tabulated = self.esnr_db is not None or self.per is not None
        parametric = self.midpoint_db is not None or self.slope_per_db is not None
        if tabulated == parametric:
            raise InvalidInputError(
                "PerCurve needs either table points or logistic parameters, not both"
            )
        if tabulated:
            x = np.asarray(self.esnr_db, dtype=float)
            y = np.asarray(self.per, dtype=float)
            if x.ndim != 1 or y.shape != x.shape or x.size < 2:
                raise InvalidInputError("PER table needs matching 1-D arrays of length >= 2")
            if not np.all(np.isfinite(x)) or not np.all(np.diff(x) > 0):
                raise InvalidInputError("esnr_db grid must be finite and strictly increasing")
            if np.any(y < 0) or np.any(y > 1):
                raise InvalidInputError("PER values must lie in [0, 1]")
            if np.any(np.diff(y) > 1e-12):
                raise InvalidInputError("PER must be non-increasing in effective SNR")
            x = x.copy(); x.flags.writeable = False
            y = y.copy(); y.flags.writeable = False
            object.__setattr__(self, "esnr_db", x)
            object.__setattr__(self, "per", y)
        else:
            if self.midpoint_db is None or self.slope_per_db is None:
                raise InvalidInputError("logistic PerCurve needs midpoint_db and slope_per_db")
            if not math.isfinite(self.midpoint_db):
                raise InvalidInputError("midpoint_db must be finite")
            if not math.isfinite(self.slope_per_db) or self.slope_per_db <= 0:
                raise InvalidInputError("slope_per_db must be finite and > 0")

    @property
    def is_tabulated(self) -> bool:
        return self.esnr_db is not None

    @classmethod
    def logistic(cls, mcs_index: int, midpoint_db: float, slope_per_db: float) -> "PerCurve":
        return cls(mcs_index=mcs_index, midpoint_db=float(midpoint_db),
                   slope_per_db=float(slope_per_db))

    @classmethod
    def from_points(cls, mcs_index: int, esnr_db, per) -> "PerCurve":
        return cls(mcs_index=mcs_index, esnr_db=np.asarray(esnr_db, dtype=float),
                   per=np.asarray(per, dtype=float))

    @classmethod
    def from_csv(cls, mcs_index: int, path) -> "PerCurve":
        """Load a table from a CSV file with header ``esnr_db,per``."""
        path = Path(path)
        with path.open(newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or [h.strip() for h in header] != ["esnr_db", "per"]:
                raise InvalidInputError(
                    f"{path}: expected CSV header 'esnr_db,per', got {header!r}"
                )
            rows = [(float(a), float(b)) for a, b in reader]
        if len(rows) < 2:
            raise InvalidInputError(f"{path}: PER table needs at least 2 rows")
        x, y = zip(*rows)
        return cls.from_points(mcs_index, np.array(x), np.array(y))


def per_lookup(curve: PerCurve, esnr_db):
    """Evaluate a PER curve at effective SNRs in dB.

    Returns a float for a scalar `esnr_db` and an array for an array.
    """
    esnr_db = np.asarray(esnr_db, dtype=float)
    if not np.isfinite(esnr_db).all():
        raise InvalidInputError("esnr_db must be finite")
    if curve.is_tabulated:
        # np.interp clamps to the endpoint values outside the grid
        per = np.interp(esnr_db, curve.esnr_db, curve.per)
    else:
        # far above the midpoint exp(z) overflows to inf, which is PER 0
        with np.errstate(over="ignore"):
            per = 1.0 / (1.0 + np.exp(curve.slope_per_db * (esnr_db - curve.midpoint_db)))
    return float(per) if per.ndim == 0 else per


# --- MCS table ---------------------------------------------------------------

# bits per subcarrier per stream and coding rate, indexed by MCS
MCS_MODULATION = {
    0: (1, 1 / 2),
    1: (2, 1 / 2),
    2: (2, 3 / 4),
    3: (4, 1 / 2),
    4: (4, 3 / 4),
    5: (6, 2 / 3),
    6: (6, 3 / 4),
    7: (6, 5 / 6),
    8: (8, 3 / 4),
    9: (8, 5 / 6),
    10: (10, 3 / 4),
    11: (10, 5 / 6),
}

# data subcarriers per channel bandwidth (MHz)
DATA_SUBCARRIERS = {20: 234, 40: 468, 80: 980, 160: 1960}

OFDM_SYMBOL_S = 12.8e-6     # default DFT period
GUARD_INTERVAL_S = 0.8e-6   # default guard interval

# logistic PER curve defaults per MCS (midpoints in dB); denser constellations
# need more SNR for the same error rate
DEFAULT_PER_MIDPOINT_DB = {
    0: 2.0, 1: 5.0, 2: 8.0, 3: 10.0, 4: 13.0, 5: 16.0,
    6: 18.0, 7: 21.0, 8: 24.0, 9: 26.0, 10: 29.0, 11: 32.0,
}
DEFAULT_PER_SLOPE_PER_DB = 1.0


@dataclass(frozen=True)
class McsEntry:
    """OFDM layout and coding parameters of one MCS on one bandwidth."""

    mcs_index: int
    n_sd: int            # data subcarriers
    n_bpscs: int         # coded bits per subcarrier per stream
    coding_rate: float
    t_dft: float         # DFT period, seconds
    t_gi: float          # guard interval, seconds

    def __post_init__(self):
        if self.mcs_index < 0:
            raise InvalidInputError("mcs_index must be >= 0")
        if self.n_sd <= 0:
            raise InvalidInputError("n_sd must be > 0")
        if self.n_bpscs not in (1, 2, 4, 6, 8, 10):
            raise InvalidInputError(f"n_bpscs must be one of 1,2,4,6,8,10, got {self.n_bpscs}")
        if not 0 < self.coding_rate <= 1:
            raise InvalidInputError("coding_rate must be in (0, 1]")
        if self.t_dft <= 0 or self.t_gi < 0:
            raise InvalidInputError("t_dft must be > 0 and t_gi >= 0")


def mcs_entry(mcs_index: int, bandwidth_mhz: int, *,
              t_dft: float = OFDM_SYMBOL_S, t_gi: float = GUARD_INTERVAL_S) -> McsEntry:
    """Build the McsEntry for an (MCS, bandwidth) pair from the standard tables."""
    if mcs_index not in MCS_MODULATION:
        raise InvalidInputError(f"unknown MCS index {mcs_index}")
    if bandwidth_mhz not in DATA_SUBCARRIERS:
        raise InvalidInputError(f"unsupported bandwidth {bandwidth_mhz} MHz")
    n_bpscs, rate = MCS_MODULATION[mcs_index]
    return McsEntry(mcs_index=mcs_index, n_sd=DATA_SUBCARRIERS[bandwidth_mhz],
                    n_bpscs=n_bpscs, coding_rate=rate, t_dft=t_dft, t_gi=t_gi)


def mcs_data_rate(entry: McsEntry, n_streams: int = 1) -> float:
    """Raw PHY data rate in bit/s for `n_streams` spatial streams."""
    if n_streams < 1:
        raise InvalidInputError("n_streams must be >= 1")
    return n_streams * entry.n_sd * entry.n_bpscs * entry.coding_rate / (entry.t_dft + entry.t_gi)


def default_per_curve(mcs_index: int, *, slope_per_db: float = DEFAULT_PER_SLOPE_PER_DB) -> PerCurve:
    """Default logistic PER curve for an MCS."""
    if mcs_index not in DEFAULT_PER_MIDPOINT_DB:
        raise InvalidInputError(f"no default PER midpoint for MCS {mcs_index}")
    return PerCurve.logistic(mcs_index, DEFAULT_PER_MIDPOINT_DB[mcs_index], slope_per_db)
