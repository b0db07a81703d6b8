"""PHY abstraction: SINR, effective-SNR mapping, PER curves, MCS data rates.

The rate path takes one SINR sample per radio link; its exponential
effective SNR mapping (EESM) is the sample itself, so the link SNR indexes
the packet-error-rate curve of the active MCS directly, a parametric
`LogisticPer` or a tabulated `TablePer`. `eesm_effective_snr(sinr,
beta=1.0)` reduces a multi-sample SINR grid, a 2-D array of linear SINRs by
subcarrier and stream, to one effective SNR; the rate path never calls it.
The MCS itself fixes the raw PHY data rate from the OFDM symbol layout.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import InvalidInputError

__all__ = [
    "LogisticPer",
    "TablePer",
    "eesm_effective_snr",
    "per_lookup",
    "mcs_data_rate",
    "MCS_MODULATION",
    "DATA_SUBCARRIERS",
    "OFDM_SYMBOL_S",
    "GUARD_INTERVAL_S",
    "DEFAULT_PER_MIDPOINT_DB",
    "DEFAULT_PER_SLOPE_PER_DB",
]


def eesm_effective_snr(sinr, beta: float = 1.0) -> float:
    """Collapse a grid of linear SINRs, a non-empty 2-D array-like of shape
    (n_sc, n_ss) (subcarriers by streams), to a scalar effective SNR (linear
    scale) under the EESM tuning parameter `beta` (dimensionless, calibrated
    per MCS).

    Computes -beta * ln(mean(exp(-gamma / beta))) over all grid entries,
    as a max-shifted log-sum-exp so large gamma/beta ratios cannot underflow
    to -inf.
    """
    sinr = np.asarray(sinr, dtype=float)
    if sinr.ndim != 2 or sinr.size == 0:
        raise InvalidInputError("SINR grid must be a non-empty 2-D array")
    if not np.all(np.isfinite(sinr)) or np.any(sinr <= 0):
        raise InvalidInputError("SINR grid entries must be finite and > 0")
    if not math.isfinite(beta) or beta <= 0:
        raise InvalidInputError(f"beta must be finite and > 0, got {beta!r}")
    a = -sinr / beta
    a_max = a.max()
    log_sum = np.log(np.exp(a - a_max).sum()) + a_max
    return float(-beta * (log_sum - math.log(sinr.size)))


@dataclass(frozen=True)
class LogisticPer:
    """Parametric PER curve 1 / (1 + exp(slope * (esnr_db - midpoint_db)))."""

    midpoint_db: float
    slope_per_db: float

    def __post_init__(self):
        if not math.isfinite(self.midpoint_db):
            raise InvalidInputError("midpoint_db must be finite")
        if not math.isfinite(self.slope_per_db) or self.slope_per_db <= 0:
            raise InvalidInputError("slope_per_db must be finite and > 0")

    def at(self, esnr_db: np.ndarray) -> np.ndarray:
        # far above the midpoint exp(z) overflows to inf, which is PER 0
        with np.errstate(over="ignore"):
            return 1.0 / (1.0 + np.exp(self.slope_per_db * (esnr_db - self.midpoint_db)))


@dataclass(frozen=True, eq=False)
class TablePer:
    """Tabulated PER curve: a strictly increasing esnr_db grid, linearly
    interpolated and clamped at the endpoints."""

    esnr_db: np.ndarray
    per: np.ndarray

    def __post_init__(self):
        x = np.array(self.esnr_db, dtype=float)
        y = np.array(self.per, dtype=float)
        if x.ndim != 1 or y.shape != x.shape or x.size < 2:
            raise InvalidInputError("PER table needs matching 1-D arrays of length >= 2")
        if not np.all(np.isfinite(x)) or not np.all(np.diff(x) > 0):
            raise InvalidInputError("esnr_db grid must be finite and strictly increasing")
        if not np.all(np.isfinite(y)) or np.any(y < 0) or np.any(y > 1):
            raise InvalidInputError("PER values must be finite and lie in [0, 1]")
        if np.any(np.diff(y) > 1e-12):
            raise InvalidInputError("PER must be non-increasing in effective SNR")
        x.flags.writeable = False
        y.flags.writeable = False
        object.__setattr__(self, "esnr_db", x)
        object.__setattr__(self, "per", y)

    def at(self, esnr_db: np.ndarray) -> np.ndarray:
        return np.interp(esnr_db, self.esnr_db, self.per)

    @classmethod
    def from_csv(cls, path) -> "TablePer":
        """Load a table from a UTF-8 CSV file with header ``esnr_db,per``.

        A table that is not valid raises `InvalidInputError` naming the file;
        a file that cannot be opened raises the `OSError`.
        """
        path = Path(path)
        try:
            with path.open(newline="", encoding="utf-8") as fh:
                reader = csv.reader(fh)
                header = next(reader, None)
                if header is None or [h.strip() for h in header] != ["esnr_db", "per"]:
                    raise InvalidInputError(f"expected CSV header 'esnr_db,per', got {header!r}")
                rows = []
                for row in reader:
                    if len(row) != 2:
                        raise InvalidInputError(
                            f"line {reader.line_num}: expected 2 fields, got {len(row)}")
                    rows.append((float(row[0]), float(row[1])))
            if len(rows) < 2:
                raise InvalidInputError("PER table needs at least 2 rows")
            x, y = zip(*rows)
            return cls(x, y)
        except csv.Error as exc:     # such as a field over the csv module's size limit
            raise InvalidInputError(f"{path}: line {reader.line_num}: {exc}") from exc
        except ValueError as exc:    # also bytes that are not UTF-8, and InvalidInputError
            raise InvalidInputError(f"{path}: {exc}") from exc


def per_lookup(curve: LogisticPer | TablePer, esnr_db):
    """Evaluate a PER curve, `LogisticPer` or `TablePer`, at effective SNRs
    in dB, which must be finite.

    Returns a float for a scalar `esnr_db` and an array for an array.
    """
    esnr_db = np.asarray(esnr_db, dtype=float)
    if not np.isfinite(esnr_db).all():
        raise InvalidInputError("esnr_db must be finite")
    per = curve.at(esnr_db)
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


def mcs_data_rate(mcs_index: int, bandwidth_mhz: int) -> float:
    """Raw PHY data rate in bit/s of one spatial stream of an MCS on a
    channel bandwidth, from the standard tables."""
    if mcs_index not in MCS_MODULATION:
        raise InvalidInputError(f"unknown MCS {mcs_index}")
    if bandwidth_mhz not in DATA_SUBCARRIERS:
        raise InvalidInputError(f"unsupported bandwidth {bandwidth_mhz} MHz")
    n_bpscs, coding_rate = MCS_MODULATION[mcs_index]
    return (DATA_SUBCARRIERS[bandwidth_mhz] * n_bpscs * coding_rate
            / (OFDM_SYMBOL_S + GUARD_INTERVAL_S))
