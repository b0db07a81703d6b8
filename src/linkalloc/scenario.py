"""Scenario configuration: schema, validation, and bundled fixtures.

A scenario is a YAML document describing channels, APs, STAs, per-link SNR,
MAC parameters, and run settings. `load_scenario` reads it in one pass: it
checks each schema rule where it reads the value and names the field path
of a violation (`stas[3].snr_offset_db.ap2[1]: expected a finite number`),
unknown fields included, so typos fail loudly. All defaults are
materialized at load time, so a loaded `Scenario` echoes the exact numbers
the pipeline will use.

This module is the only one that knows the document's layout. The parser
writes the links and radios straight into read-only arrays of `Scenario`,
and the rest of the package reads the AP and station settings from them only:

- `snr_offsets_db[f, n, m]`: the SNR offset in dB of station m from AP n on
  channel f, NaN where the link is out of range;
- `mcs_table[f, n]`: the MCS AP n runs on channel f, its `mcs` overrides
  applied over the channel's;
- `home_channel[n]`: the position in `channels` of AP n's single-link home
  channel, its `slo_channel`, else channel n % F;
- `ap_radios[n]` and `sta_radios[m]`: the radio counts R(n) and r(m).

`ap_ids[n]` names AP n, and `stas[m].sta_id` station m. `StaConfig` stays
only because the benchmark's tests read its `snr_offsets_db` views; the
package reads each radio count from `ap_radios` and `sta_radios` alone.

Schema (all SNR values in dB)::

    name: demo                      # optional
    seed: 7                         # RNG seed (>= 0) of the snr_random_range_db draws
    ewma_horizon_t: 100             # averaging horizon T of the allocator
    monte_carlo_rounds: 100         # default sweep rounds; repeated only if bases are drawn
    snr_base_db: 20.0               # base SNR added to every per-link offset
    snr_random_range_db: [6, 9]     # optional: per-link uniform base draw
    channels:
      - {id: 1, band: 2.4GHz, bandwidth_mhz: 40, mcs: 9}
    rr_weights: {1: 1}              # optional round-robin slice counts
    dcf: {cw_min: 16}               # optional DcfParams overrides
    per_model:                      # optional PER configuration
      kind: logistic                # refuses the fields of kind "table"
      slope_per_db: 1.0             # > 0
      midpoints_db: {9: 26.0}       # keys: MCS 0-11; resolved at load to 12 LogisticPer
    # or: per_model: {kind: table, tables: {9: per_mcs9.csv}}, read at load into
    #     TablePer curves; it needs a table for every MCS an AP runs
    aps:
      - {id: ap1, radios: 5, slo_channel: 1, mcs: {1: 9}}
    stas:
      - id: sta1
        radios: 3
        snr_offset_db: {ap1: {1: 0.0, 2: -1.5, 3: out-of-range}}

`snr_offset_db` may be a scalar (all APs, all channels), a per-AP scalar, or
a per-AP per-channel map. Every key names a known AP or channel. An AP or a
channel whose value is `out-of-range` or null, or that the map leaves out, is
out of range. The effective SNR of a link is `snr_base_db + offset`. A
scenario that declares `snr_random_range_db` instead draws each link's base
uniformly from that range on every run, seeded with the run's seed, else its
own `seed`, and refuses an explicit base. Every number must be finite: YAML
`.nan` and `.inf` are rejected with their field path, so no number marks a
link out of range. A number may be written with an exponent and no
fraction dot (`9e-6`, `1.5e3`), as YAML 1.2 reads it, though PyYAML's YAML
1.1 resolver leaves that text a string. Integers must fit in signed 64 bits,
and radio counts are at most 2**31 - 1. An AP or station id, and the `name`,
is text or an integer: YAML 1.1 reads unquoted `yes`, `off`, `null`, `1.5`
or `2024-01-01` as another type, which is refused with advice to quote it,
and reads `010` as the integer 8 (`1:30` as 90), so quote an id to keep it
as written.
"""

from __future__ import annotations

import gc
import math
import re
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
    LogisticPer,
    TablePer,
)

__all__ = [
    "ChannelSpec",
    "StaConfig",
    "Scenario",
    "load_scenario",
    "bundled_scenario_path",
    "list_bundled_scenarios",
    "BAND_MAX_BANDWIDTH_MHZ",
]

BAND_MAX_BANDWIDTH_MHZ = {"2.4GHz": 40, "5GHz": 80, "6GHz": 160}
OUT_OF_RANGE = "out-of-range"
MAX_RADIOS = 2**31 - 1    # small enough that no sum of radio counts wraps int64
# YAML 1.2's float with an exponent, which YAML 1.1 reads as text unless it has a dot and a sign
_EXPONENT_FLOAT = re.compile(r"[-+]?(\.[0-9]+|[0-9]+(\.[0-9]*)?)[eE][-+]?[0-9]+")


@dataclass(frozen=True)
class ChannelSpec:
    """One operating channel: band, width and the MCS used on it."""

    channel_id: int
    band: str
    bandwidth_mhz: int
    mcs_index: int


@dataclass(frozen=True)
class StaConfig:
    sta_id: str
    # ap id -> that link's offsets by channel position, for each AP the
    # station hears: read-only views of `Scenario.snr_offsets_db`, which is
    # what the package reads
    snr_offsets_db: dict = field(default_factory=dict, compare=False, repr=False)


@dataclass(frozen=True, eq=False)
class Scenario:
    """A validated, defaults-filled run configuration, as `load_scenario`
    builds it; the arrays are described in the module docstring.
    Scenarios compare by identity."""

    name: str
    rng_seed: int
    ewma_horizon_t: int
    monte_carlo_rounds: int
    snr_base_db: float
    snr_random_range_db: tuple | None
    channels: tuple
    ap_ids: tuple                   # (N,) str
    stas: tuple
    dcf: DcfParams
    per_curves: dict                # MCS -> LogisticPer or TablePer, resolved at load
    rr_weights: tuple               # slice counts by channel position
    snr_offsets_db: np.ndarray      # (F, N, M) dB, NaN = out of range
    mcs_table: np.ndarray           # (F, N) MCS index, AP overrides applied
    home_channel: np.ndarray        # (N,) channel position
    ap_radios: np.ndarray           # (N,) R(n)
    sta_radios: np.ndarray          # (M,) r(m)

    @property
    def f_count(self) -> int:
        return len(self.channels)

    @property
    def n_aps(self) -> int:
        return len(self.ap_ids)

    @property
    def m_stas(self) -> int:
        return len(self.stas)

    def ap_capacities(self) -> np.ndarray:
        return self.ap_radios

    def sta_radio_limits(self) -> np.ndarray:
        return self.sta_radios

    def run_seed(self, seed=None) -> tuple | None:
        """The SNR bases' seed: `seed` (an int or a list of ints, each under
        the seed rule), else `rng_seed`, as a tuple of ints; None, once
        checked, when there is no `snr_random_range_db` to draw from."""
        seed = (self.rng_seed,) if seed is None else tuple(
            map(check_seed, seed if isinstance(seed, (list, tuple)) else [seed]))
        return None if self.snr_random_range_db is None else seed

    def run_mcs(self, mcs_override=None) -> int | None:
        """A run's MCS override, None to keep `mcs_table`: under `check_mcs`, with a PER curve."""
        if mcs_override is not None:
            mcs_override = check_mcs(mcs_override, "mcs_override")
            if mcs_override not in self.per_curves:     # a table model may have none
                raise ConfigurationError(f"no PER table configured for MCS {mcs_override}")
        return mcs_override

    def snr_field(self, base_db: float | None = None, seed=None) -> np.ndarray:
        """Per-link SNR in dB, shape (F, N, M); NaN marks out-of-range links.

        The base is `base_db`, else `snr_base_db`. A scenario that declares
        `snr_random_range_db` draws each link's base uniformly from that
        range instead, with `run_seed(seed)`, and refuses a `base_db`. The
        field is that base plus the per-link offsets.
        """
        seed = self.run_seed(seed)
        base = self.snr_base(base_db)
        if seed is not None:
            base = np.random.default_rng(seed).uniform(*self.snr_random_range_db,
                                                       size=self.snr_offsets_db.shape)
        return base + self.snr_offsets_db

    def snr_base(self, base_db: float | None = None) -> float:
        """The SNR base a run reports: `base_db`, else `snr_base_db`, as a
        finite float. A scenario that draws its bases from
        `snr_random_range_db` refuses a `base_db`."""
        base = self.snr_base_db if base_db is None else float(base_db)
        if not math.isfinite(base):     # NaN would mark every link out of range
            raise ValidationError(f"SNR base must be a finite number, got {base}")
        if self.snr_random_range_db is not None and base_db is not None:
            raise ValidationError(
                f"scenario {self.name} draws each link's SNR base from its "
                f"snr_random_range_db {list(self.snr_random_range_db)}, so it takes "
                f"no SNR base (got {base})")
        return base

    def truncated(self, m_stas: int) -> "Scenario":
        """A copy keeping only the first `m_stas` stations."""
        if not 1 <= m_stas <= self.m_stas:
            raise ValidationError(f"cannot truncate to {m_stas} of {self.m_stas} STAs")
        return replace(self, stas=self.stas[:m_stas],
                       snr_offsets_db=self.snr_offsets_db[:, :, :m_stas],
                       sta_radios=self.sta_radios[:m_stas])


# --- YAML parsing -------------------------------------------------------------


def _reject_unknown(mapping: dict, allowed: set, ctx: str) -> None:
    unknown = set(mapping) - allowed
    if unknown:
        raise ValidationError(f"{ctx}: unknown field {sorted(map(str, unknown))[0]!r}")


def _need(mapping: dict, key: str, ctx: str):
    if key not in mapping:
        raise ValidationError(f"{ctx}: missing required field {key!r}")
    return mapping[key]


def _is_number(value) -> bool:
    """An int or a float, not a bool, or text YAML 1.2 reads as a float with an exponent."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            or isinstance(value, str) and _EXPONENT_FLOAT.fullmatch(value) is not None)


def _as_number(value, ctx: str) -> float:
    if not _is_number(value):
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
    if not -2**63 <= value < 2**63:
        raise ValidationError(f"{ctx}: integer {value} is outside the signed 64-bit range")
    return value


def _as_id(value, ctx: str) -> str:
    """An id or a name: YAML text or an integer, as text. YAML 1.1 reads some
    unquoted text as a bool, null, float or date, which would not name the same."""
    if isinstance(value, bool) or not isinstance(value, (str, int)):
        raise ValidationError(f"{ctx}: expected text or an integer, got {value!r}; quote it")
    return str(value)


def _as_count(value, ctx: str, most: int | None = None) -> int:
    """An integer >= 1, and at most `most` when given."""
    value = _as_int(value, ctx)
    if value < 1 or (most is not None and value > most):
        bound = ">= 1" if most is None else f"in [1, {most}]"
        raise ValidationError(f"{ctx}: must be {bound}, got {value}")
    return value


def check_mcs(value, ctx: str) -> int:
    """The one MCS rule: an integer (numpy's too, not a bool) keying `MCS_MODULATION`."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValidationError(f"{ctx}: expected an integer, got {value!r}")
    if value not in MCS_MODULATION:
        raise ValidationError(f"{ctx}: unknown MCS {value}")
    return int(value)


def check_seed(value) -> int:
    """The one seed rule, for scenario seeds and run-time overrides alike: an
    integer in [0, 2**63)."""
    value = _as_int(int(value) if isinstance(value, np.integer) else value, "seed")
    if value < 0:
        raise ValidationError(f"seed must be >= 0, got {value}")
    return value


def _as_mapping(value, ctx: str) -> dict:
    if not isinstance(value, dict):
        raise ValidationError(f"{ctx}: expected a mapping, got {type(value).__name__}")
    return value


def _as_list(value, ctx: str) -> list:
    if not isinstance(value, list):
        raise ValidationError(f"{ctx}: expected a list, got {type(value).__name__}")
    return value


def _entries(doc: dict, key: str, fields: set) -> list:
    """(field path, mapping) of each entry of the required top-level list
    `key`, which must not be empty; an entry may hold `fields` only."""
    entries = _as_list(_need(doc, key, "scenario"), key)
    if not entries:
        raise ValidationError(f"{key}: scenario needs at least one entry")
    out = []
    for i, entry in enumerate(entries):
        ctx = f"{key}[{i}]"
        _reject_unknown(_as_mapping(entry, ctx), fields, ctx)
        out.append((ctx, entry))
    return out


def _read_only(values) -> np.ndarray:
    array = np.array(values)
    array.setflags(write=False)
    return array


def _index(ids: list, key: str) -> dict:
    """id -> position in the list `key`, whose ids must be distinct."""
    index = {}
    for i, entry_id in enumerate(ids):
        if index.setdefault(entry_id, i) != i:
            raise ValidationError(f"{key}[{i}].id: duplicate id {entry_id!r}")
    return index


def _position(index: dict, entry_id, ctx: str, what: str) -> int:
    """Position of the channel or AP that a field refers to by id."""
    if entry_id not in index:
        raise ValidationError(f"{ctx}: unknown {what} {entry_id!r}")
    return index[entry_id]


def _parse_channels(doc: dict) -> tuple:
    channels = []
    for ctx, c in _entries(doc, "channels", {"id", "band", "bandwidth_mhz", "mcs"}):
        band = str(_need(c, "band", ctx))
        if band not in BAND_MAX_BANDWIDTH_MHZ:
            raise ValidationError(f"{ctx}.band: must be one of "
                                  f"{sorted(BAND_MAX_BANDWIDTH_MHZ)}, got {band!r}")
        width = _as_int(_need(c, "bandwidth_mhz", ctx), f"{ctx}.bandwidth_mhz")
        if width not in (20, 40, 80, 160):
            raise ValidationError(f"{ctx}.bandwidth_mhz: must be 20/40/80/160, got {width}")
        if width > BAND_MAX_BANDWIDTH_MHZ[band]:
            raise ValidationError(f"{ctx}.bandwidth_mhz: {width} MHz is not available "
                                  f"on {band}")
        channels.append(ChannelSpec(_as_int(_need(c, "id", ctx), f"{ctx}.id"), band, width,
                                    check_mcs(_need(c, "mcs", ctx), f"{ctx}.mcs")))
    return tuple(channels)


def _parse_aps(doc: dict, channels: tuple, channel_index: dict) -> tuple:
    """The AP ids, their radio counts R(n), the MCS table (F, N) and each
    AP's home channel (N)."""
    entries = _entries(doc, "aps", {"id", "radios", "slo_channel", "mcs"})
    mcs_table = np.array([[c.mcs_index] * len(entries) for c in channels])
    home = np.arange(len(entries)) % len(channels)
    ids, radios = [], []
    for n, (ctx, a) in enumerate(entries):
        for cid, mcs in _as_mapping(a.get("mcs", {}), f"{ctx}.mcs").items():
            f = _position(channel_index, _as_int(cid, f"{ctx}.mcs"), f"{ctx}.mcs", "channel")
            mcs_table[f, n] = check_mcs(mcs, f"{ctx}.mcs[{cid}]")
        if a.get("slo_channel") is not None:
            home[n] = _position(channel_index, _as_int(a["slo_channel"], f"{ctx}.slo_channel"),
                                f"{ctx}.slo_channel", "channel")
        ids.append(_as_id(_need(a, "id", ctx), f"{ctx}.id"))
        radios.append(_as_count(_need(a, "radios", ctx), f"{ctx}.radios", MAX_RADIOS))
    return tuple(ids), _read_only(radios), _read_only(mcs_table), _read_only(home)


def _parse_stas(doc: dict, channel_index: dict, ap_index: dict) -> tuple:
    """The stations, the SNR offset table (F, N, M) and their radio counts r(m)."""
    entries = _entries(doc, "stas", {"id", "radios", "snr_offset_db"})
    table = np.full((len(channel_index), len(ap_index), len(entries)), np.nan)
    ids, radios = [], []
    for m, (ctx, s) in enumerate(entries):
        raw = _need(s, "snr_offset_db", ctx)
        octx = f"{ctx}.snr_offset_db"
        links = table[:, :, m]      # (F, N), written in place
        if isinstance(raw, dict):
            for ap_key, value in raw.items():
                actx = f"{octx}.{ap_key}"
                n = _position(ap_index, str(ap_key), actx, "ap")
                links[:, n] = np.nan    # a repeated AP key replaces the earlier entry
                if isinstance(value, dict):
                    for cid, off in value.items():
                        f = _position(channel_index, _as_int(cid, actx), actx, "channel")
                        if off is not None and off != OUT_OF_RANGE:
                            links[f, n] = _as_number(off, f"{actx}[{cid}]")
                elif value is not None and value != OUT_OF_RANGE:
                    links[:, n] = _as_number(value, actx)
        elif _is_number(raw):
            links[:] = _as_number(raw, octx)
        else:
            raise ValidationError(f"{octx}: expected a number or mapping, got {raw!r}")
        ids.append(_as_id(_need(s, "id", ctx), f"{ctx}.id"))
        radios.append(_as_count(_need(s, "radios", ctx), f"{ctx}.radios", MAX_RADIOS))
    _index(ids, "stas")
    heard = ~np.isnan(table).all(axis=0)        # (N, M)
    deaf = np.flatnonzero(~heard.any(axis=0))
    if deaf.size:
        raise ValidationError(f"stas[{deaf[0]}].snr_offset_db: no in-range AP on any channel")
    table.setflags(write=False)
    ap_ids = list(ap_index)
    stas = tuple(StaConfig(sta_id, {ap_ids[n]: table[:, n, m]
                                    for n in np.flatnonzero(heard[:, m]).tolist()})
                 for m, sta_id in enumerate(ids))
    return stas, table, _read_only(radios)


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


def _parse_per_model(doc, ctx: str, base_dir: Path | None, channels: tuple,
                     mcs_table: np.ndarray) -> dict:
    """The PER curve of each MCS: the logistic curve of every MCS, or the
    configured tables."""
    doc = _as_mapping(doc, ctx)
    _reject_unknown(doc, {"kind", "midpoints_db", "slope_per_db", "tables"}, ctx)
    kind = str(doc.get("kind", "logistic"))
    if kind not in ("logistic", "table"):
        raise ValidationError(f"{ctx}.kind: must be 'logistic' or 'table', got {kind!r}")
    unread = sorted(doc.keys() & ({"tables"} if kind == "logistic"
                                  else {"midpoints_db", "slope_per_db"}))
    if unread:
        raise ValidationError(f"{ctx}.{unread[0]}: not read by kind {kind!r}")
    if kind == "logistic":
        key = f"{ctx}.midpoints_db"
        midpoints = {check_mcs(mcs, key): _as_number(db, f"{key}[{mcs}]")
                     for mcs, db in _as_mapping(doc.get("midpoints_db", {}), key).items()}
        slope = _as_number(doc.get("slope_per_db", DEFAULT_PER_SLOPE_PER_DB), f"{ctx}.slope_per_db")
        if slope <= 0:
            raise ValidationError(f"{ctx}.slope_per_db: must be > 0, got {slope}")
        return {mcs: LogisticPer(midpoints.get(mcs, mid), slope)
                for mcs, mid in DEFAULT_PER_MIDPOINT_DB.items()}
    # every key is checked, and every MCS an AP runs is covered, before any
    # table is read; a relative path is the scenario file's
    paths = {check_mcs(mcs, f"{ctx}.tables"): Path(base_dir or "", str(rel))
             for mcs, rel in _as_mapping(doc.get("tables", {}), f"{ctx}.tables").items()}
    uncovered = np.argwhere(~np.isin(mcs_table, list(paths)))     # (f, n) pairs
    if uncovered.size:
        f, n = uncovered[0]
        mcs, ch = mcs_table[f, n], channels[f]
        who = f"channels[{f}]" if mcs == ch.mcs_index else f"aps[{n}].mcs[{ch.channel_id}]"
        raise ValidationError(f"{ctx}.tables: no table for MCS {mcs}, which {who} runs")
    curves = {}
    for mcs, path in paths.items():
        try:
            curves[mcs] = TablePer.from_csv(path)
        except OSError as exc:
            raise ConfigurationError(f"{ctx}.tables[{mcs}]: cannot read PER table {path}: "
                                     f"{exc.strerror}") from exc
    return curves


_TOP_FIELDS = {
    "name", "seed", "ewma_horizon_t", "monte_carlo_rounds", "snr_base_db",
    "snr_random_range_db", "channels", "dcf", "per_model", "aps", "stas",
    "rr_weights",
}


def _parse_rr_weights(doc: dict, channels: tuple, channel_index: dict) -> tuple:
    weights_doc = doc.get("rr_weights")
    if weights_doc is None:
        # wider channels get proportionally more round-robin slices
        return tuple(max(1, c.bandwidth_mhz // 40) for c in channels)
    weights = [None] * len(channels)
    for cid, w in _as_mapping(weights_doc, "rr_weights").items():
        f = _position(channel_index, _as_int(cid, "rr_weights"), "rr_weights", "channel")
        weights[f] = _as_count(w, f"rr_weights[{cid}]")
    if None in weights:
        raise ValidationError(f"rr_weights: missing weight for channel "
                              f"{channels[weights.index(None)].channel_id}")
    return tuple(weights)


def _parse_random_range(doc: dict) -> tuple | None:
    value = doc.get("snr_random_range_db")
    if value is None:
        return None
    value = _as_list(value, "snr_random_range_db")
    if len(value) != 2:
        raise ValidationError("snr_random_range_db: expected [lo, hi]")
    lo, hi = (_as_number(v, f"snr_random_range_db[{i}]") for i, v in enumerate(value))
    if lo > hi:
        raise ValidationError(f"snr_random_range_db: expected lo <= hi, got [{lo}, {hi}]")
    return lo, hi


class _ScalarMemo:
    """Over a PyYAML loader: resolve each plain scalar's tag, and construct
    each core-tagged scalar, once per distinct text in the document. Both
    depend on the text (and the tag) alone, and the values are immutable."""

    _CORE_TAGS = {f"tag:yaml.org,2002:{t}" for t in ("null", "bool", "int", "float", "str")}

    def __init__(self, stream):
        super().__init__(stream)
        self._tags, self._values = {}, {}

    def resolve(self, kind, value, implicit):
        if kind is not yaml.ScalarNode or not implicit[0] or self.yaml_path_resolvers:
            return super().resolve(kind, value, implicit)
        if value not in self._tags:
            self._tags[value] = super().resolve(kind, value, implicit)
        return self._tags[value]

    def construct_object(self, node, deep=False):
        if node.tag not in self._CORE_TAGS or not isinstance(node, yaml.ScalarNode):
            return super().construct_object(node, deep)
        key = (node.tag, node.value)
        if key not in self._values:
            self._values[key] = super().construct_object(node, deep)
        return self._values[key]


def _yaml_problem(exc: yaml.YAMLError) -> str:
    """One line saying where the parse stopped and why."""
    mark = getattr(exc, "problem_mark", None)
    problem = getattr(exc, "problem", None)
    if mark is not None and problem:
        text = f"line {mark.line + 1}, column {mark.column + 1}: {problem}"
    else:
        text = str(exc)     # a ReaderError has a reason and a position, no mark
    return " ".join(text.split())


def load_scenario(source) -> Scenario:
    """Load and validate a scenario from a path or an open text stream, with
    cyclic GC paused: PyYAML's objects would set off whole-heap collections."""
    gc_enabled = gc.isenabled()
    gc.disable()
    try:
        return _load_scenario(source)
    finally:
        if gc_enabled:
            gc.enable()


def _load_scenario(source) -> Scenario:
    base_dir = None
    if hasattr(source, "read"):
        text = source.read()
        name_default = "scenario"
    else:
        path = Path(source)
        try:
            text = path.read_bytes()    # YAML picks the encoding: UTF-8, or UTF-16 with a BOM
        except OSError as exc:
            raise ValidationError(f"cannot read scenario file {path}: {exc.strerror}") from exc
        base_dir = path.parent
        name_default = path.stem
    try:
        # libyaml's parser when PyYAML was built with it, under the scalar memo; both
        # parsers share SafeLoader's constructor and resolver, so they accept the same documents
        base = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
        doc = yaml.load(text, Loader=type("ScenarioLoader", (_ScalarMemo, base), {}))
    except yaml.YAMLError as exc:
        raise ValidationError(f"scenario is not valid YAML: {_yaml_problem(exc)}") from exc
    doc = _as_mapping(doc, "scenario")
    _reject_unknown(doc, _TOP_FIELDS, "scenario")

    channels = _parse_channels(doc)
    channel_index = _index([c.channel_id for c in channels], "channels")
    ap_ids, ap_radios, mcs_table, home_channel = _parse_aps(doc, channels, channel_index)
    stas, offsets, sta_radios = _parse_stas(doc, channel_index, _index(ap_ids, "aps"))
    return Scenario(
        name=_as_id(doc.get("name", name_default), "name"),
        rng_seed=check_seed(doc.get("seed", 0)),
        ewma_horizon_t=_as_count(doc.get("ewma_horizon_t", 100), "ewma_horizon_t"),
        monte_carlo_rounds=_as_count(doc.get("monte_carlo_rounds", 100), "monte_carlo_rounds"),
        snr_base_db=_as_number(doc.get("snr_base_db", 20.0), "snr_base_db"),
        snr_random_range_db=_parse_random_range(doc),
        channels=channels,
        ap_ids=ap_ids,
        stas=stas,
        dcf=_parse_dcf(doc.get("dcf", {}), "dcf"),
        per_curves=_parse_per_model(doc.get("per_model", {}), "per_model", base_dir,
                                    channels, mcs_table),
        rr_weights=_parse_rr_weights(doc, channels, channel_index),
        snr_offsets_db=offsets,
        mcs_table=mcs_table,
        home_channel=home_channel,
        ap_radios=ap_radios,
        sta_radios=sta_radios,
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
