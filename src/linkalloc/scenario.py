"""Scenario configuration: schema, validation, and bundled fixtures.

A scenario is a YAML document describing channels, APs, STAs, per-link SNR,
MAC parameters, and run settings. Unknown fields are rejected with the field
path so typos fail loudly. All defaults are materialized at load time, so a
loaded `Scenario` echoes the exact numbers the pipeline will use.

Schema (all SNR values in dB)::

    name: demo                      # optional
    seed: 7                         # RNG seed for everything downstream
    ewma_horizon_t: 100             # averaging horizon T of the allocator
    monte_carlo_rounds: 100         # default rounds for sweeps
    snr_base_db: 20.0               # base SNR added to every per-link offset
    snr_random_range_db: [6, 9]     # optional: per-link uniform base draw
    channels:
      - {id: 1, band: 2.4GHz, bandwidth_mhz: 40, mcs: 9}
    rr_weights: {1: 1}              # optional round-robin slice counts
    dcf: {cw_min: 16}               # optional DcfParams overrides
    per_model:                      # optional PER configuration
      kind: logistic                # or "table"
      slope_per_db: 1.0
      midpoints_db: {9: 26.0}       # per-MCS logistic midpoints
      tables: {9: per_mcs9.csv}     # per-MCS CSV tables (kind: table)
    aps:
      - {id: ap1, radios: 5, slo_channel: 1, mcs: {1: 9}}
    stas:
      - id: sta1
        radios: 3
        snr_offset_db: {ap1: {1: 0.0, 2: -1.5, 3: out-of-range}}

`snr_offset_db` may be a scalar (all APs, all channels), a per-AP scalar, or
a per-AP per-channel map; APs absent from the map are out of range. The
effective SNR of a link is `snr_base_db + offset` unless the scenario draws
random bases from `snr_random_range_db`. Every number must be finite: YAML
`.nan` and `.inf` are rejected with their field path, so only
`out-of-range` marks a link out of range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from importlib import resources
from pathlib import Path

import numpy as np
import yaml

from .dcf import DcfParams
from .errors import ConfigurationError, ValidationError
from .phy import (
    DEFAULT_PER_MIDPOINT_DB,
    DEFAULT_PER_SLOPE_PER_DB,
    MCS_MODULATION,
    PerCurve,
)

__all__ = [
    "ChannelSpec",
    "ApConfig",
    "StaConfig",
    "PerModel",
    "Scenario",
    "load_scenario",
    "bundled_scenario_path",
    "list_bundled_scenarios",
    "BAND_MAX_BANDWIDTH_MHZ",
]

BAND_MAX_BANDWIDTH_MHZ = {"2.4GHz": 40, "5GHz": 80, "6GHz": 160}
OUT_OF_RANGE = "out-of-range"


@dataclass(frozen=True)
class ChannelSpec:
    """One operating channel: band, width and the MCS used on it."""

    channel_id: int
    band: str
    bandwidth_mhz: int
    mcs_index: int

    def __post_init__(self):
        if self.band not in BAND_MAX_BANDWIDTH_MHZ:
            raise ValidationError(
                f"channel {self.channel_id}: band must be one of "
                f"{sorted(BAND_MAX_BANDWIDTH_MHZ)}, got {self.band!r}"
            )
        if self.bandwidth_mhz not in (20, 40, 80, 160):
            raise ValidationError(
                f"channel {self.channel_id}: bandwidth_mhz must be 20/40/80/160"
            )
        if self.bandwidth_mhz > BAND_MAX_BANDWIDTH_MHZ[self.band]:
            raise ValidationError(
                f"channel {self.channel_id}: {self.bandwidth_mhz} MHz is not "
                f"available on {self.band}"
            )
        if self.mcs_index not in MCS_MODULATION:
            raise ValidationError(f"channel {self.channel_id}: unknown MCS {self.mcs_index}")


@dataclass(frozen=True)
class ApConfig:
    ap_id: str
    radios: int                       # R(n): pairing capacity of the AP
    slo_channel: int | None = None    # channel id used by the single-link baseline
    mcs_overrides: dict = field(default_factory=dict)  # channel id -> MCS

    def __post_init__(self):
        if self.radios < 1:
            raise ValidationError(f"ap {self.ap_id}: radios must be >= 1")


@dataclass(frozen=True)
class StaConfig:
    sta_id: str
    radios: int                       # r(m): radio links the STA can run at once
    # ap id -> channel id -> offset dB, or None when the link is out of range
    snr_offsets_db: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.radios < 1:
            raise ValidationError(f"sta {self.sta_id}: radios must be >= 1")


@dataclass(frozen=True)
class PerModel:
    """PER curve source for every MCS in use."""

    kind: str = "logistic"
    midpoints_db: dict = field(default_factory=dict)
    slope_per_db: float = DEFAULT_PER_SLOPE_PER_DB
    tables: dict = field(default_factory=dict)     # mcs -> PerCurve

    def curve_for(self, mcs_index: int) -> PerCurve:
        if self.kind == "table":
            curve = self.tables.get(mcs_index)
            if curve is None:
                raise ConfigurationError(f"no PER table configured for MCS {mcs_index}")
            return curve
        midpoint = self.midpoints_db.get(mcs_index, DEFAULT_PER_MIDPOINT_DB.get(mcs_index))
        if midpoint is None:
            raise ConfigurationError(f"no PER midpoint known for MCS {mcs_index}")
        return PerCurve.logistic(mcs_index, midpoint, self.slope_per_db)


@dataclass(frozen=True)
class Scenario:
    """A fully validated, defaults-filled run configuration."""

    name: str
    rng_seed: int
    ewma_horizon_t: int
    monte_carlo_rounds: int
    snr_base_db: float
    snr_random_range_db: tuple | None
    channels: tuple
    aps: tuple
    stas: tuple
    dcf: DcfParams
    per_model: PerModel
    rr_weights: tuple   # slice counts by channel position

    def __post_init__(self):
        if not self.channels:
            raise ValidationError("scenario needs at least one channel")
        if not self.aps or not self.stas:
            raise ValidationError("scenario needs at least one AP and one STA")
        if self.ewma_horizon_t < 1:
            raise ValidationError("ewma_horizon_t must be >= 1")
        if self.monte_carlo_rounds < 1:
            raise ValidationError("monte_carlo_rounds must be >= 1")
        ids = [c.channel_id for c in self.channels]
        if len(set(ids)) != len(ids):
            raise ValidationError("duplicate channel ids")
        ap_ids = [a.ap_id for a in self.aps]
        if len(set(ap_ids)) != len(ap_ids):
            raise ValidationError("duplicate ap ids")
        sta_ids = [s.sta_id for s in self.stas]
        if len(set(sta_ids)) != len(sta_ids):
            raise ValidationError("duplicate sta ids")
        if self.snr_random_range_db is not None:
            lo, hi = self.snr_random_range_db
            if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
                raise ValidationError("snr_random_range_db must be a finite [lo, hi] pair")
        if len(self.rr_weights) != len(self.channels) or any(w < 1 for w in self.rr_weights):
            raise ValidationError("rr_weights needs one positive weight per channel")
        id_set = set(ids)
        for ap in self.aps:
            if ap.slo_channel is not None and ap.slo_channel not in id_set:
                raise ValidationError(f"ap {ap.ap_id}: slo_channel {ap.slo_channel} is not a channel id")
            for cid, mcs in ap.mcs_overrides.items():
                if cid not in id_set:
                    raise ValidationError(f"ap {ap.ap_id}: mcs override for unknown channel {cid}")
                if mcs not in MCS_MODULATION:
                    raise ValidationError(f"ap {ap.ap_id}: unknown MCS {mcs} in override")
        ap_id_set = set(ap_ids)
        for sta in self.stas:
            unknown = set(sta.snr_offsets_db) - ap_id_set
            if unknown:
                raise ValidationError(f"sta {sta.sta_id}: snr_offset_db names unknown ap "
                                      f"{sorted(unknown)[0]!r}")
            in_range = False
            for per_channel in sta.snr_offsets_db.values():
                unknown_c = set(per_channel) - id_set
                if unknown_c:
                    raise ValidationError(f"sta {sta.sta_id}: snr_offset_db names unknown "
                                          f"channel {sorted(unknown_c)[0]}")
                if any(v is not None for v in per_channel.values()):
                    in_range = True
            if not in_range:
                raise ValidationError(f"sta {sta.sta_id}: no in-range AP on any channel")

    # --- lookups -------------------------------------------------------------

    @property
    def f_count(self) -> int:
        return len(self.channels)

    @property
    def n_aps(self) -> int:
        return len(self.aps)

    @property
    def m_stas(self) -> int:
        return len(self.stas)

    def channel_index(self, channel_id: int) -> int:
        for i, c in enumerate(self.channels):
            if c.channel_id == channel_id:
                return i
        raise ValidationError(f"unknown channel id {channel_id}")

    def mcs_for(self, f_index: int, ap: ApConfig) -> int:
        chan = self.channels[f_index]
        return ap.mcs_overrides.get(chan.channel_id, chan.mcs_index)

    def ap_capacities(self) -> np.ndarray:
        return np.array([a.radios for a in self.aps], dtype=int)

    def sta_radio_limits(self) -> np.ndarray:
        return np.array([s.radios for s in self.stas], dtype=int)

    def snr_field(self, base_db: float | None = None, rng=None) -> np.ndarray:
        """Per-link SNR in dB, shape (F, N, M); NaN marks out-of-range links.

        When the scenario declares `snr_random_range_db` and an `rng` is
        given, each link's base is drawn uniformly from the range; otherwise
        the scalar base (argument, falling back to `snr_base_db`) is used.
        """
        f, n, m = self.f_count, self.n_aps, self.m_stas
        if self.snr_random_range_db is not None and rng is not None:
            lo, hi = self.snr_random_range_db
            base = rng.uniform(lo, hi, size=(f, n, m))
        else:
            base_db = self.snr_base_db if base_db is None else float(base_db)
            if math.isnan(base_db):    # NaN would mark every link out of range
                raise ValidationError("SNR base must be a number, got nan")
            base = np.full((f, n, m), base_db)
        out = np.full((f, n, m), np.nan)
        for mi, sta in enumerate(self.stas):
            for ni, ap in enumerate(self.aps):
                per_channel = sta.snr_offsets_db.get(ap.ap_id)
                if per_channel is None:
                    continue
                for fi, chan in enumerate(self.channels):
                    off = per_channel.get(chan.channel_id)
                    if off is not None:
                        out[fi, ni, mi] = base[fi, ni, mi] + off
        return out

    def truncated(self, m_stas: int) -> "Scenario":
        """A copy keeping only the first `m_stas` stations."""
        if not 1 <= m_stas <= self.m_stas:
            raise ValidationError(f"cannot truncate to {m_stas} of {self.m_stas} STAs")
        return replace(self, stas=self.stas[:m_stas])

    def with_mcs(self, mcs_index: int) -> "Scenario":
        """A copy running every channel at the given MCS."""
        chans = tuple(replace(c, mcs_index=mcs_index) for c in self.channels)
        aps = tuple(replace(a, mcs_overrides={}) for a in self.aps)
        return replace(self, channels=chans, aps=aps)


# --- YAML parsing -------------------------------------------------------------


def _reject_unknown(mapping: dict, allowed: set, ctx: str) -> None:
    unknown = set(mapping) - allowed
    if unknown:
        raise ValidationError(f"{ctx}: unknown field {sorted(map(str, unknown))[0]!r}")


def _need(mapping: dict, key: str, ctx: str):
    if key not in mapping:
        raise ValidationError(f"{ctx}: missing required field {key!r}")
    return mapping[key]


def _as_number(value, ctx: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{ctx}: expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:   # an integer beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise ValidationError(f"{ctx}: expected a finite number, got {value!r}")
    return number


def _as_int(value, ctx: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"{ctx}: expected an integer, got {value!r}")
    return value


def _as_mapping(value, ctx: str) -> dict:
    if not isinstance(value, dict):
        raise ValidationError(f"{ctx}: expected a mapping, got {type(value).__name__}")
    return value


def _as_list(value, ctx: str) -> list:
    if not isinstance(value, list):
        raise ValidationError(f"{ctx}: expected a list, got {type(value).__name__}")
    return value


def _parse_channel(doc, ctx: str) -> ChannelSpec:
    doc = _as_mapping(doc, ctx)
    _reject_unknown(doc, {"id", "band", "bandwidth_mhz", "mcs"}, ctx)
    return ChannelSpec(
        channel_id=_as_int(_need(doc, "id", ctx), f"{ctx}.id"),
        band=str(_need(doc, "band", ctx)),
        bandwidth_mhz=_as_int(_need(doc, "bandwidth_mhz", ctx), f"{ctx}.bandwidth_mhz"),
        mcs_index=_as_int(_need(doc, "mcs", ctx), f"{ctx}.mcs"),
    )


def _parse_ap(doc, ctx: str) -> ApConfig:
    doc = _as_mapping(doc, ctx)
    _reject_unknown(doc, {"id", "radios", "slo_channel", "mcs"}, ctx)
    overrides = {}
    for cid, mcs in _as_mapping(doc.get("mcs", {}), f"{ctx}.mcs").items():
        overrides[_as_int(cid, f"{ctx}.mcs")] = _as_int(mcs, f"{ctx}.mcs[{cid}]")
    slo = doc.get("slo_channel")
    return ApConfig(
        ap_id=str(_need(doc, "id", ctx)),
        radios=_as_int(_need(doc, "radios", ctx), f"{ctx}.radios"),
        slo_channel=None if slo is None else _as_int(slo, f"{ctx}.slo_channel"),
        mcs_overrides=overrides,
    )


def _offset_value(value, ctx: str):
    if value is None or (isinstance(value, str) and value == OUT_OF_RANGE):
        return None
    return _as_number(value, ctx)


def _parse_sta(doc, ctx: str, ap_ids: list, channel_ids: list) -> StaConfig:
    doc = _as_mapping(doc, ctx)
    _reject_unknown(doc, {"id", "radios", "snr_offset_db"}, ctx)
    raw = _need(doc, "snr_offset_db", ctx)
    octx = f"{ctx}.snr_offset_db"
    offsets: dict = {}
    if isinstance(raw, (int, float)) and not isinstance(raw, bool):
        v = _as_number(raw, octx)
        for ap in ap_ids:
            offsets[ap] = {cid: v for cid in channel_ids}
    elif isinstance(raw, dict):
        for ap_key, ap_val in raw.items():
            ap_key = str(ap_key)
            if isinstance(ap_val, str) and ap_val == OUT_OF_RANGE:
                continue
            if isinstance(ap_val, dict):
                per_chan = {}
                for cid, v in ap_val.items():
                    off = _offset_value(v, f"{octx}.{ap_key}[{cid}]")
                    per_chan[_as_int(cid, f"{octx}.{ap_key}")] = off
                offsets[ap_key] = per_chan
            else:
                v = _as_number(ap_val, f"{octx}.{ap_key}")
                offsets[ap_key] = {cid: v for cid in channel_ids}
    else:
        raise ValidationError(f"{octx}: expected a number or mapping, got {raw!r}")
    return StaConfig(
        sta_id=str(_need(doc, "id", ctx)),
        radios=_as_int(_need(doc, "radios", ctx), f"{ctx}.radios"),
        snr_offsets_db=offsets,
    )


def _parse_dcf(doc, ctx: str) -> DcfParams:
    doc = _as_mapping(doc, ctx)
    fields = {
        "slot_time", "sifs", "difs", "eifs", "phy_header", "ack_bytes",
        "payload_bytes", "cw_min", "cw_max", "m_max_backoff_stages", "prop_delay",
    }
    _reject_unknown(doc, fields, ctx)
    kwargs = {}
    for key, value in doc.items():
        if key in ("ack_bytes", "payload_bytes", "cw_min", "cw_max", "m_max_backoff_stages"):
            kwargs[key] = _as_int(value, f"{ctx}.{key}")
        else:
            kwargs[key] = _as_number(value, f"{ctx}.{key}")
    try:
        return DcfParams(**kwargs)
    except ValueError as exc:
        raise ValidationError(f"{ctx}: {exc}") from exc


def _parse_per_model(doc, ctx: str, base_dir: Path | None) -> PerModel:
    doc = _as_mapping(doc, ctx)
    _reject_unknown(doc, {"kind", "midpoints_db", "slope_per_db", "tables"}, ctx)
    kind = str(doc.get("kind", "logistic"))
    if kind not in ("logistic", "table"):
        raise ValidationError(f"{ctx}.kind: must be 'logistic' or 'table', got {kind!r}")
    midpoints = {}
    for mcs, db in _as_mapping(doc.get("midpoints_db", {}), f"{ctx}.midpoints_db").items():
        midpoints[_as_int(mcs, f"{ctx}.midpoints_db")] = _as_number(db, f"{ctx}.midpoints_db[{mcs}]")
    tables = {}
    for mcs, rel in _as_mapping(doc.get("tables", {}), f"{ctx}.tables").items():
        mcs = _as_int(mcs, f"{ctx}.tables")
        path = Path(str(rel))
        if not path.is_absolute() and base_dir is not None:
            path = base_dir / path
        if not path.exists():
            raise ConfigurationError(f"{ctx}.tables[{mcs}]: PER table not found: {path}")
        tables[mcs] = PerCurve.from_csv(mcs, path)
    slope = _as_number(doc.get("slope_per_db", DEFAULT_PER_SLOPE_PER_DB), f"{ctx}.slope_per_db")
    return PerModel(kind=kind, midpoints_db=midpoints, slope_per_db=slope, tables=tables)


_TOP_FIELDS = {
    "name", "seed", "ewma_horizon_t", "monte_carlo_rounds", "snr_base_db",
    "snr_random_range_db", "channels", "dcf", "per_model", "aps", "stas",
    "rr_weights",
}


def _default_rr_weights(channels) -> tuple:
    # wider channels get proportionally more round-robin slices
    return tuple(max(1, c.bandwidth_mhz // 40) for c in channels)


def load_scenario(source) -> Scenario:
    """Load and validate a scenario from a path or an open text stream."""
    base_dir = None
    if hasattr(source, "read"):
        text = source.read()
        name_default = "scenario"
    else:
        path = Path(source)
        if not path.exists():
            raise ValidationError(f"scenario file not found: {path}")
        text = path.read_text()
        base_dir = path.parent
        name_default = path.stem
    try:
        doc = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ValidationError(f"scenario is not valid YAML: {exc}") from exc
    doc = _as_mapping(doc, "scenario")
    _reject_unknown(doc, _TOP_FIELDS, "scenario")

    channels = tuple(
        _parse_channel(c, f"channels[{i}]")
        for i, c in enumerate(_as_list(_need(doc, "channels", "scenario"), "channels"))
    )
    channel_ids = [c.channel_id for c in channels]
    aps = tuple(
        _parse_ap(a, f"aps[{i}]")
        for i, a in enumerate(_as_list(_need(doc, "aps", "scenario"), "aps"))
    )
    ap_ids = [a.ap_id for a in aps]
    stas = tuple(
        _parse_sta(s, f"stas[{i}]", ap_ids, channel_ids)
        for i, s in enumerate(_as_list(_need(doc, "stas", "scenario"), "stas"))
    )

    rng_range = doc.get("snr_random_range_db")
    if rng_range is not None:
        rng_range = _as_list(rng_range, "snr_random_range_db")
        if len(rng_range) != 2:
            raise ValidationError("snr_random_range_db: expected [lo, hi]")
        rng_range = (_as_number(rng_range[0], "snr_random_range_db[0]"),
                     _as_number(rng_range[1], "snr_random_range_db[1]"))

    weights_doc = doc.get("rr_weights")
    if weights_doc is None:
        rr_weights = _default_rr_weights(channels)
    else:
        weights_doc = _as_mapping(weights_doc, "rr_weights")
        by_id = {}
        for cid, w in weights_doc.items():
            by_id[_as_int(cid, "rr_weights")] = _as_int(w, f"rr_weights[{cid}]")
        missing = set(channel_ids) - set(by_id)
        if missing:
            raise ValidationError(f"rr_weights: missing weight for channel {sorted(missing)[0]}")
        extra = set(by_id) - set(channel_ids)
        if extra:
            raise ValidationError(f"rr_weights: unknown channel {sorted(extra)[0]}")
        rr_weights = tuple(by_id[cid] for cid in channel_ids)

    return Scenario(
        name=str(doc.get("name", name_default)),
        rng_seed=_as_int(doc.get("seed", 0), "seed"),
        ewma_horizon_t=_as_int(doc.get("ewma_horizon_t", 100), "ewma_horizon_t"),
        monte_carlo_rounds=_as_int(doc.get("monte_carlo_rounds", 100), "monte_carlo_rounds"),
        snr_base_db=_as_number(doc.get("snr_base_db", 20.0), "snr_base_db"),
        snr_random_range_db=rng_range,
        channels=channels,
        aps=aps,
        stas=stas,
        dcf=_parse_dcf(doc.get("dcf", {}), "dcf"),
        per_model=_parse_per_model(doc.get("per_model", {}), "per_model", base_dir),
        rr_weights=rr_weights,
    )


def list_bundled_scenarios() -> list:
    root = resources.files("linkalloc") / "scenarios"
    return sorted(p.name[:-5] for p in root.iterdir() if p.name.endswith(".yaml"))


def bundled_scenario_path(name: str) -> Path:
    """Filesystem path of a bundled fixture scenario by bare name."""
    root = resources.files("linkalloc") / "scenarios"
    candidate = root / f"{name}.yaml"
    if not candidate.is_file():
        raise ValidationError(
            f"no bundled scenario named {name!r}; available: {list_bundled_scenarios()}"
        )
    return Path(str(candidate))
