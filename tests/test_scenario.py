import dataclasses
import gc
import io
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from yaml.constructor import SafeConstructor

from linkalloc import scenario
from linkalloc.dcf import DcfParams
from linkalloc.errors import ConfigurationError, ValidationError
from linkalloc.harness import emit_results, run_apc_loop
from linkalloc.phy import DEFAULT_PER_MIDPOINT_DB, LogisticPer, TablePer
from linkalloc.rates import build_rate_tensor
from linkalloc.scenario import (
    bundled_scenario_path,
    check_mcs,
    list_bundled_scenarios,
    load_scenario,
)
from test_harness import _small_scenario_docs

MINIMAL = """
name: tiny
seed: 1
ewma_horizon_t: 10
snr_base_db: 20.0
channels:
  - {id: 1, band: 2.4GHz, bandwidth_mhz: 40, mcs: 3}
  - {id: 2, band: 6GHz, bandwidth_mhz: 160, mcs: 5}
aps:
  - {id: ap1, radios: 2, slo_channel: 1}
stas:
  - {id: sta1, radios: 2, snr_offset_db: 0.0}
  - {id: sta2, radios: 1, snr_offset_db: {ap1: {1: -3.0, 2: out-of-range}}}
"""


def _load(text):
    return load_scenario(io.StringIO(text))


def _fields(sc):
    """Every field of a scenario; an array as its dtype, shape and bytes."""
    return [(f.name, (v.dtype, v.shape, v.tobytes()) if isinstance(v, np.ndarray) else v)
            for f in dataclasses.fields(sc) for v in [getattr(sc, f.name)]]


def _multi_station_doc(seed: int) -> str:
    """A seeded scenario that mixes YAML styles and every offset form.

    Block and flow collections, comments, an anchor with its aliases, quoted
    keys, and scalars whose type rests on the YAML 1.1 resolver (`0x18`,
    `03`, `.5`, `1.0e+1`, `-1_0.25`) are where two parsers could disagree.
    """
    rng = np.random.default_rng(seed)
    n_aps, m_stas = 5, 60
    floats = ("{:.2f}", "{:+.3f}", "{:.1e}", "{:.0f}.")
    lines = [
        f"name: multi_{seed}  # comment after a scalar",
        f"seed: {seed}",
        "snr_base_db: 1.0e+1",
        "dcf: {cw_min: 0x10, payload_bytes: 1_500, slot_time: 9.0e-6}",
        "per_model:",
        "  midpoints_db: {3: .5e+1, 9: 26.}",
        "rr_weights: {1: 1, 2: 2, 3: 03}",
        "channels:",
        "  - {id: 1, band: 2.4GHz, bandwidth_mhz: 40, mcs: 3}",
        "  - id: 2\n    band: '5GHz'\n    bandwidth_mhz: 80\n    mcs: 9",
        '  - {id: 3, band: "6GHz", bandwidth_mhz: 160, mcs: 7}',
        "aps:",
    ]
    lines += [f"  - {{id: ap{n}, radios: 0x{2 * m_stas // n_aps:x}, slo_channel: {n % 3 + 1},"
              f" mcs: {{{n % 3 + 1}: {n % 10}}}}}" for n in range(n_aps)]
    lines += ["stas:", "  - id: sta0", "    radios: 2",
              "    snr_offset_db: &shared {ap0: -1_0.25, ap1: .5, ap2: out-of-range}"]
    for m in range(1, m_stas):
        form = m % 4
        if form == 0:
            offsets = "*shared"
        elif form == 1:
            offsets = floats[m // 4 % 4].format(rng.normal(0, 4))
        else:
            maps = []
            for n in rng.choice(n_aps, size=int(rng.integers(1, n_aps + 1)), replace=False):
                if form == 2:
                    maps.append(f"ap{n}: {floats[n % 4].format(rng.normal(0, 4))}")
                else:
                    chans = ", ".join(f"{c}: out-of-range" if rng.random() < 0.2
                                      else f"{c}: {rng.normal(0, 4):.3f}" for c in (1, 2, 3))
                    maps.append(f'"ap{n}": {{{chans}}}')
            offsets = "{" + ", ".join(maps) + "}"
        lines += [f"  - id: sta{m}", f"    radios: {m % 3 + 1}", f"    snr_offset_db: {offsets}"]
    return "\n".join(lines) + "\n"


def test_bundled_fixture_matches_reference_topology():
    sc = load_scenario(bundled_scenario_path("scenario_3ap_15sta"))
    assert sc.n_aps == 3
    assert sc.m_stas == 15
    assert (sc.channel_ids, sc.bandwidth_mhz.tolist()) == ((1, 2, 3), [40, 80, 160])
    assert sorted(sc.sta_radio_limits().tolist(), reverse=True) == [3] * 6 + [2] * 6 + [1] * 3


def test_bundled_listing_contains_all_fixtures():
    names = list_bundled_scenarios()
    assert {"scenario_3ap_15sta", "scenario_2ap_joint", "scenario_slo"} <= set(names)
    for name in names:
        load_scenario(bundled_scenario_path(name))


@pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML was built without libyaml")
def test_libyaml_and_pure_python_parsers_load_equal_scenarios(monkeypatch):
    texts = [bundled_scenario_path(name).read_text() for name in list_bundled_scenarios()]
    texts += [_multi_station_doc(seed) for seed in (0, 1)]
    parsed = []

    class CountingCSafeLoader(yaml.CSafeLoader):
        def __init__(self, stream):
            parsed.append(stream)
            super().__init__(stream)

    monkeypatch.setattr(yaml, "CSafeLoader", CountingCSafeLoader)
    with_libyaml = [_load(text) for text in texts]
    assert len(parsed) == len(texts)
    monkeypatch.delattr(yaml, "CSafeLoader")
    pure_python = [_load(text) for text in texts]
    assert len(parsed) == len(texts)
    assert [_fields(sc) for sc in with_libyaml] == [_fields(sc) for sc in pure_python]
    multi = with_libyaml[-1]
    assert (multi.m_stas, multi.snr_base_db, multi.rr_weights) == (60, 10.0, (1, 2, 3))


_BASE_LOADERS = [getattr(yaml, name) for name in ("SafeLoader", "CSafeLoader")
                 if hasattr(yaml, name)]

# documents where a scalar memo keyed too coarsely would part from PyYAML:
# tags that rest on quoting or an explicit tag, YAML 1.1 number forms,
# aliases and merge keys, and documents PyYAML refuses
_EDGE_DOCS = (
    "a: &x 1.5\nb: *x\nc: [*x, 1.5, '1.5', !!str 1.5]\n",
    "base: &b {k: 1, v: yes}\nmerged: {<<: *b, v: 'yes'}\nagain: {<<: *b}\n",
    "[!!str 1, 1, !!float 1, !!int '1', 1.0, '1', !!float '1_0', 1e3]\n",
    "[!!binary aGVsbG8=, !!binary aGVsbG8=]\n",
    "[yes, 'yes', Yes, no, on, off, true, ~, null, '', !!null '', !!str null]\n",
    "[0x1F, 0o17, 017, 1_000, 1:30, 190:20:30, -1_0.25, 6.8523015e+5, 2001-12-14]\n",
    "[.inf, -.inf, .NaN, -0.0, 0.0, +0, -0, -0.0]\n",
    "{a: 1, a: 2, 1: x, 1.0: y, true: z}\n",
    "? [1, 2]\n: v\n",
    "!!python/object:os.system x\n",
    "{a: !!int abc}\n",
    "[!!bool maybe]\n",
    "[1, 2\n",
)


def _outcome(text, loader):
    """The document's repr, which tells 1, 1.0 and True apart, or the error."""
    try:
        return repr(yaml.load(text, Loader=loader))
    except Exception as exc:    # compared, not handled
        return type(exc), str(exc)


def _assert_memo_loads_like_its_base(text):
    for base in _BASE_LOADERS:
        memo = type("Memo", (scenario._ScalarMemo, base), {})
        assert _outcome(text, memo) == _outcome(text, base), (base.__name__, text)


def test_scalar_memo_loads_edge_documents_like_its_base():
    texts = [bundled_scenario_path(name).read_text() for name in list_bundled_scenarios()]
    for text in [*_EDGE_DOCS, _multi_station_doc(0), *texts]:
        _assert_memo_loads_like_its_base(text)


@settings(max_examples=40, deadline=None)
@given(_small_scenario_docs())
def test_scalar_memo_loads_scenarios_like_its_base(doc):
    _assert_memo_loads_like_its_base(yaml.safe_dump(doc))


def test_each_distinct_scalar_constructed_once(monkeypatch):
    # 100 stations share one offset, the document's only float
    stas = "".join(f"  - {{id: sta{m}, radios: 1, snr_offset_db: 0.25}}\n" for m in range(100))
    text = ("channels: [{id: 1, band: 5GHz, bandwidth_mhz: 40, mcs: 3}]\n"
            "aps: [{id: ap1, radios: 100}]\nstas:\n" + stas)
    float_tag = "tag:yaml.org,2002:float"
    construct = SafeConstructor.yaml_constructors[float_tag]

    def counting(loader, node):
        calls.append(node.value)
        return construct(loader, node)

    for base in _BASE_LOADERS[::-1]:
        monkeypatch.setattr(yaml, "CSafeLoader", base, raising=False)
        calls = []
        with mock.patch.dict(SafeConstructor.yaml_constructors, {float_tag: counting}):
            sc = _load(text)
        assert calls == ["0.25"], base.__name__
        assert (sc.snr_offsets_db == 0.25).all() and sc.m_stas == 100


@pytest.mark.parametrize("enabled", [True, False])
def test_load_pauses_gc_and_restores_it(enabled, tmp_path):
    parse_channels, seen = scenario._parse_channels, []
    failures = ((io.StringIO("channels: [1, 2\n"), "scenario is not valid YAML"),
                (io.StringIO(MINIMAL.replace("seed: 1", "seed: -1")), "seed must be >= 0"),
                (tmp_path / "missing.yaml", "cannot read scenario file"))
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        with mock.patch.object(scenario, "_parse_channels", side_effect=lambda doc: (
                seen.append(gc.isenabled()) or parse_channels(doc))):
            assert _load(MINIMAL).m_stas == 2
            assert gc.isenabled() is enabled
            for source, msg in failures:
                with pytest.raises(ValidationError, match=msg):
                    load_scenario(source)
                assert gc.isenabled() is enabled, msg
    finally:
        (gc.enable if was_enabled else gc.disable)()
    assert seen == [False, False]   # paused in the two loads that reach the schema


def test_empty_channel_list_rejected():
    bad = MINIMAL.replace("""channels:
  - {id: 1, band: 2.4GHz, bandwidth_mhz: 40, mcs: 3}
  - {id: 2, band: 6GHz, bandwidth_mhz: 160, mcs: 5}""", "channels: []")
    with pytest.raises(ValidationError):
        _load(bad)


def test_unknown_field_named_in_error():
    # fields the schema no longer has (eesm_beta, ack_timeout) fail like a typo,
    # and so does a PER field the model's kind does not read: a logistic model
    # opens no table file, so a missing one is not what fails
    for extra, name in (("frobnicate: 3", "frobnicate"),
                        ("per_model: {eesm_beta: 1.0}", "eesm_beta"),
                        ("dcf: {ack_timeout: 3.0e-4}", "ack_timeout"),
                        ("per_model: {tables: {3: missing.csv}}",
                         "per_model.tables: not read by kind 'logistic'"),
                        ("per_model: {kind: logistic, slope_per_db: 2.0, tables: {3: x.csv}}",
                         "per_model.tables: not read by kind 'logistic'"),
                        ("per_model: {kind: table, tables: {3: x.csv}, midpoints_db: {3: 1.0}}",
                         "per_model.midpoints_db: not read by kind 'table'"),
                        ("per_model: {kind: table, tables: {3: x.csv}, slope_per_db: 2.0}",
                         "per_model.slope_per_db: not read by kind 'table'")):
        bad = MINIMAL.replace("seed: 1", f"seed: 1\n{extra}")
        with pytest.raises(ValidationError) as exc:
            _load(bad)
        assert name in str(exc.value)


def test_unknown_ap_reference_rejected():
    bad = MINIMAL.replace("snr_offset_db: {ap1: {1: -3.0, 2: out-of-range}}",
                          "snr_offset_db: {ap9: {1: -3.0}}")
    with pytest.raises(ValidationError) as exc:
        _load(bad)
    assert "ap9" in str(exc.value)


def test_offset_map_looks_up_every_ap_key_and_reads_null_as_out_of_range():
    # an AP key must name a known AP whatever its value, and null marks an AP
    # out of range as it marks a channel: like a key left out
    two_aps = MINIMAL.replace("slo_channel: 1}\n", "slo_channel: 1}\n  - {id: ap2, radios: 1}\n")
    sta2 = "snr_offset_db: {ap1: {1: -3.0, 2: out-of-range}}"
    for value in ("out-of-range", "null"):
        with pytest.raises(ValidationError) as exc:
            _load(two_aps.replace(sta2, f"snr_offset_db: {{ap1: 0.0, apX: {value}}}"))
        assert str(exc.value) == "stas[1].snr_offset_db.apX: unknown ap 'apX'"
    for value in ("null", "out-of-range", "{1: null, 2: out-of-range}"):
        sc = _load(two_aps.replace(sta2, f"{sta2[:-1]}, ap2: {value}}}"))
        assert _fields(sc) == _fields(_load(two_aps))


def test_duplicate_ids_rejected():
    bad = MINIMAL.replace("id: sta2", "id: sta1")
    with pytest.raises(ValidationError):
        _load(bad)


def test_slo_channel_must_exist():
    bad = MINIMAL.replace("slo_channel: 1", "slo_channel: 7")
    with pytest.raises(ValidationError):
        _load(bad)


def test_bandwidth_must_fit_band():
    bad = MINIMAL.replace("{id: 1, band: 2.4GHz, bandwidth_mhz: 40, mcs: 3}",
                          "{id: 1, band: 2.4GHz, bandwidth_mhz: 80, mcs: 3}")
    with pytest.raises(ValidationError):
        _load(bad)


def test_sta_needs_at_least_one_reachable_ap():
    bad = MINIMAL.replace("snr_offset_db: {ap1: {1: -3.0, 2: out-of-range}}",
                          "snr_offset_db: {ap1: {1: out-of-range, 2: out-of-range}}")
    with pytest.raises(ValidationError):
        _load(bad)


def test_offset_shorthand_forms_agree():
    sc = _load(MINIMAL)
    field = sc.snr_field()
    # scalar shorthand broadcasts over channels and APs
    assert field[0, 0, 0] == pytest.approx(20.0)
    assert field[1, 0, 0] == pytest.approx(20.0)
    # per-channel mapping applies individually, out-of-range becomes NaN
    assert field[0, 0, 1] == pytest.approx(17.0)
    assert np.isnan(field[1, 0, 1])


def test_snr_field_base_override():
    sc = _load(MINIMAL)
    field = sc.snr_field(base_db=5.0)
    assert field[0, 0, 0] == pytest.approx(5.0)


def test_random_range_always_draws():
    doc = MINIMAL.replace("snr_base_db: 20.0", "snr_base_db: 20.0\nsnr_random_range_db: [6.0, 9.0]")
    sc = _load(doc)
    drawn = sc.snr_field()
    finite = drawn[np.isfinite(drawn)]
    assert ((finite >= 6.0 - 3.0) & (finite < 9.0)).all()
    assert len(np.unique(finite)) == finite.size    # a base per link, none the fixed 20 dB
    # the seed defaults to the scenario's own and counts by value
    assert drawn.tobytes() == sc.snr_field(seed=sc.rng_seed).tobytes() \
        == sc.snr_field(seed=[sc.rng_seed]).tobytes()
    assert drawn.tobytes() != sc.snr_field(seed=sc.rng_seed + 1).tobytes()
    # the rate tensor's default field is that draw
    assert build_rate_tensor(sc).values.tobytes() == \
        build_rate_tensor(sc, snr_field=drawn).values.tobytes()
    # an explicit base is refused with or without a seed, and a bad seed too
    for seed in (None, 3):
        with pytest.raises(ValidationError, match="takes no SNR base"):
            sc.snr_field(base_db=5.0, seed=seed)
    with pytest.raises(ValidationError, match="seed must be >= 0"):
        sc.snr_field(seed=[1, -2])


def test_rr_weights_default_tracks_bandwidth():
    sc = _load(MINIMAL)
    assert sc.rr_weights == (1, 4)


def test_rr_weights_explicit_override():
    doc = MINIMAL.replace("snr_base_db: 20.0", "snr_base_db: 20.0\nrr_weights: {1: 2, 2: 5}")
    assert _load(doc).rr_weights == (2, 5)


def test_mcs_override_per_ap():
    doc = MINIMAL.replace("{id: ap1, radios: 2, slo_channel: 1}",
                          "{id: ap1, radios: 2, slo_channel: 1, mcs: {2: 7}}")
    sc = _load(doc)
    assert sc.mcs_table.tolist() == [[3], [7]]


def test_dcf_overrides_parsed():
    doc = MINIMAL.replace("snr_base_db: 20.0",
                          "snr_base_db: 20.0\ndcf: {payload_bytes: 500, cw_min: 32, cw_max: 2048}")
    sc = _load(doc)
    assert sc.dcf.payload_bytes == 500
    assert sc.dcf.cw_min == 32
    # every DcfParams field loads from YAML, an integer field as an int and the rest as floats
    values = {f.name: 5.0e-5 if f.default is None else f.default
              for f in dataclasses.fields(DcfParams)}
    values.update(payload_bytes=500, cw_min=32, cw_max=2048)
    flow = yaml.safe_dump(values, default_flow_style=True).strip()
    sc = _load(MINIMAL.replace("snr_base_db: 20.0", f"snr_base_db: 20.0\ndcf: {flow}"))
    assert sc.dcf == DcfParams(**values)
    assert {k: type(getattr(sc.dcf, k)) for k in values} == {k: type(v) for k, v in values.items()}
    assert {type(v) for v in values.values()} == {int, float}
    # null loads for a field whose default is None, as that default: the run is the plain one
    null = _load(MINIMAL.replace("snr_base_db: 20.0", "snr_base_db: 20.0\ndcf: {eifs: null}"))
    assert null.dcf == DcfParams()
    assert emit_results(run_apc_loop(null, iterations=3).reports) == \
        emit_results(run_apc_loop(_load(MINIMAL), iterations=3).reports)


def test_per_model_table_from_csv(tmp_path):
    csv = tmp_path / "per3.csv"
    csv.write_text("esnr_db,per\n0.0,1.0\n20.0,0.0\n")
    doc = MINIMAL.replace(
        "snr_base_db: 20.0",
        f"snr_base_db: 20.0\nper_model: {{kind: table, tables: {{3: {csv.name}, 5: {csv.name}}}}}")
    path = tmp_path / "scenario.yaml"
    path.write_text(doc)
    sc = load_scenario(path)
    assert isinstance(sc.per_curves[3], TablePer)


def test_per_model_logistic_midpoint_override():
    doc = MINIMAL.replace(
        "snr_base_db: 20.0",
        "snr_base_db: 20.0\nper_model: {kind: logistic, midpoints_db: {3: 12.0}}")
    sc = _load(doc)
    assert sc.per_curves[3].midpoint_db == 12.0


def test_per_model_keys_follow_the_mcs_rule(tmp_path):
    # each key is checked before any table is read: MCS 3's file is missing,
    # but the unknown MCS 12 is what fails
    (tmp_path / "per.csv").write_text("esnr_db,per\n0.0,1.0\n20.0,0.0\n")
    for per_model, msg in (("{midpoints_db: {12: 5.0}}", "per_model.midpoints_db: unknown MCS 12"),
                           ("{midpoints_db: {-1: 5.0}}", "per_model.midpoints_db: unknown MCS -1"),
                           ("{midpoints_db: {true: 5.0}}",
                            "per_model.midpoints_db: expected an integer, got True"),
                           ("{kind: table, tables: {3: missing.csv, 12: per.csv}}",
                            "per_model.tables: unknown MCS 12")):
        path = tmp_path / "scenario.yaml"
        path.write_text(MINIMAL.replace("seed: 1", f"seed: 1\nper_model: {per_model}"))
        with mock.patch.object(TablePer, "from_csv", side_effect=AssertionError("read")), \
                pytest.raises(ValidationError) as exc:
            load_scenario(path)
        assert str(exc.value) == msg


def test_per_model_checked_against_the_mcs_the_aps_run(tmp_path):
    # a table model covers every MCS an AP runs, checked before any table is
    # read, and a logistic slope must be > 0; each error names its field
    joint = bundled_scenario_path("scenario_2ap_joint").read_text()
    overridden = joint.replace("slo_channel: 3}", "slo_channel: 3, mcs: {2: 7}}")
    for text, per_model, msg in (
            (joint, "{kind: table, tables: {5: per5.csv}}",
             "per_model.tables: no table for MCS 0, which channels[0] runs"),
            (joint, "{kind: table, tables: {0: a.csv, 2: a.csv}}",
             "per_model.tables: no table for MCS 1, which channels[1] runs"),
            (overridden, "{kind: table, tables: {0: a.csv, 1: a.csv, 2: a.csv}}",
             "per_model.tables: no table for MCS 7, which aps[1].mcs[2] runs"),
            (joint, "{slope_per_db: -1.0}", "per_model.slope_per_db: must be > 0, got -1.0"),
            (joint, "{slope_per_db: 0}", "per_model.slope_per_db: must be > 0, got 0.0"),
            (joint, "{slope_per_db: .inf}",
             "per_model.slope_per_db: expected a finite number, got inf")):
        path = tmp_path / "scenario.yaml"
        path.write_text(f"{text}per_model: {per_model}\n")
        with mock.patch.object(TablePer, "from_csv", side_effect=AssertionError("read")), \
                pytest.raises(ValidationError) as exc:
            load_scenario(path)
        assert str(exc.value) == msg
    # a channel MCS that every AP overrides needs no table
    (tmp_path / "per.csv").write_text("esnr_db,per\n0.0,1.0\n20.0,0.0\n")
    (tmp_path / "s.yaml").write_text(MINIMAL.replace("slo_channel: 1}", "slo_channel: 1, "
                                                     "mcs: {2: 7}}").replace(
        "seed: 1", "seed: 1\nper_model: {kind: table, tables: {3: per.csv, 7: per.csv}}"))
    assert sorted(load_scenario(tmp_path / "s.yaml").per_curves) == [3, 7]


def test_per_model_resolved_at_load(tmp_path):
    # every logistic curve is built at load, an override over the defaults;
    # a table model holds exactly its configured MCS
    sc = _load(MINIMAL.replace("seed: 1", "seed: 1\nper_model: {slope_per_db: 2.0, "
                                          "midpoints_db: {3: 12.0}}"))
    assert sorted(sc.per_curves) == list(range(12))
    assert sc.per_curves[3] == LogisticPer(12.0, 2.0)
    assert sc.per_curves[5] == LogisticPer(DEFAULT_PER_MIDPOINT_DB[5], 2.0)
    (tmp_path / "per.csv").write_text("esnr_db,per\n0.0,1.0\n20.0,0.0\n")
    (tmp_path / "s.yaml").write_text(MINIMAL.replace(
        "seed: 1", "seed: 1\nper_model: {kind: table, tables: {3: per.csv, 5: per.csv}}"))
    sc = load_scenario(tmp_path / "s.yaml")
    assert sorted(sc.per_curves) == [3, 5]
    assert all(isinstance(curve, TablePer) for curve in sc.per_curves.values())
    with pytest.raises(ConfigurationError, match="^no PER table configured for MCS 9$"):
        sc.run_mcs(9)


def test_check_mcs_is_the_one_mcs_rule():
    assert check_mcs(np.int64(7), "x") == 7 and type(check_mcs(np.int64(7), "x")) is int
    for value, msg in ((True, "x: expected an integer, got True"),
                       (np.bool_(True), f"x: expected an integer, got {np.bool_(True)!r}"),
                       (3.0, "x: expected an integer, got 3.0"),
                       ("3", "x: expected an integer, got '3'"),
                       (12, "x: unknown MCS 12"), (-1, "x: unknown MCS -1"),
                       (2**70, f"x: unknown MCS {2**70}")):
        with pytest.raises(ValidationError) as exc:
            check_mcs(value, "x")
        assert str(exc.value) == msg


def test_booleans_rejected_as_numbers():
    bad = MINIMAL.replace("radios: 2, slo_channel: 1", "radios: true, slo_channel: 1")
    with pytest.raises(ValidationError):
        _load(bad)
    # nor are numbers with no finite float value (NaN, +-inf, an integer beyond
    # the float range), in the scalar, per-AP and per-channel offset forms
    for value in (".nan", ".inf", "-.inf", "1" + "0" * 400):
        for old, new, path in (
                ("snr_offset_db: 0.0", f"snr_offset_db: {value}", "stas[0].snr_offset_db"),
                ("snr_offset_db: 0.0", f"snr_offset_db: {{ap1: {value}}}",
                 "stas[0].snr_offset_db.ap1"),
                ("{1: -3.0, 2: out-of-range}", f"{{1: {value}, 2: out-of-range}}",
                 "stas[1].snr_offset_db.ap1[1]")):
            with pytest.raises(ValidationError) as exc:
                _load(MINIMAL.replace(old, new))
            assert f"{path}: expected a finite number" in str(exc.value)
    # integers must fit in int64, radio counts in 2**31 - 1 so no sum wraps,
    # and the seed must be one numpy accepts
    huge = "9" * 30
    two_aps = MINIMAL.replace(
        "  - {id: ap1, radios: 2, slo_channel: 1}",
        f"  - {{id: ap1, radios: {2**62}}}\n  - {{id: ap2, radios: {2**62}}}")
    for doc, msg in (
            (MINIMAL.replace("{id: ap1, radios: 2,", f"{{id: ap1, radios: {huge},"),
             f"aps[0].radios: integer {huge} is outside the signed 64-bit range"),
            (MINIMAL.replace("{id: sta1, radios: 2,", f"{{id: sta1, radios: {huge},"),
             f"stas[0].radios: integer {huge} is outside the signed 64-bit range"),
            (two_aps, f"aps[0].radios: must be in [1, 2147483647], got {2**62}"),
            (MINIMAL.replace("{id: sta1, radios: 2,", f"{{id: sta1, radios: {2**31},"),
             f"stas[0].radios: must be in [1, 2147483647], got {2**31}"),
            (MINIMAL.replace("seed: 1", "seed: -4"), "seed must be >= 0, got -4")):
        with pytest.raises(ValidationError) as exc:
            _load(doc)
        assert str(exc.value) == msg


_WITH_DCF = MINIMAL.replace("snr_base_db: 20.0", "snr_base_db: 20.0\ndcf: {slot_time: 9.0e-6}")
_WITH_RANGE = MINIMAL.replace("snr_base_db: 20.0", "snr_random_range_db: [6.0e+0, 9.0e+0]")


@pytest.mark.parametrize("doc, old, exponent, twin", [
    (_WITH_DCF, "slot_time: 9.0e-6", "slot_time: 9e-6", "slot_time: 9.0e-6"),
    (_WITH_DCF, "slot_time: 9.0e-6", "slot_time: 9E-6", "slot_time: 9.0e-6"),
    (MINIMAL, "snr_offset_db: 0.0", "snr_offset_db: 1e-05", "snr_offset_db: 1.0e-05"),
    (MINIMAL, "snr_offset_db: 0.0", "snr_offset_db: {ap1: 1.5e3}", "snr_offset_db: {ap1: 1.5e+3}"),
    (MINIMAL, "{1: -3.0,", "{1: -.3e1,", "{1: -3.0,"),
    (MINIMAL, "snr_base_db: 20.0", "snr_base_db: 1.5e3", "snr_base_db: 1.5e+3"),
    (_WITH_RANGE, "[6.0e+0, 9.0e+0]", "[6e0, +9.e0]", "[6.0e+0, 9.0e+0]"),
], ids=["slot_time", "slot_time_capital_e", "offset", "offset_per_ap", "offset_per_channel",
        "snr_base_db", "snr_random_range_db"])
def test_exponent_floats_load_like_their_yaml_1_1_spelling(doc, old, exponent, twin):
    """YAML 1.2 reads `9e-6` as a float; PyYAML's YAML 1.1 resolver reads it
    as text unless it has a dot and a signed exponent."""
    assert _fields(_load(doc.replace(old, exponent))) == _fields(_load(doc.replace(old, twin)))


@pytest.mark.parametrize("old, new, msg", [
    ("slot_time: 9.0e-6", "slot_time: 1e999", "dcf.slot_time: expected a finite number, got '1e999'"),
    ("slot_time: 9.0e-6", "slot_time: fast", "dcf.slot_time: expected a number, got 'fast'"),
    ("slot_time: 9.0e-6", "slot_time: 1e-6x", "dcf.slot_time: expected a number, got '1e-6x'"),
    ("slot_time: 9.0e-6", "cw_min: 1e1", "dcf.cw_min: expected an integer, got '1e1'"),
    ("snr_offset_db: 0.0", "snr_offset_db: -1E999",
     "stas[0].snr_offset_db: expected a finite number, got '-1E999'"),
    ("snr_offset_db: 0.0", "snr_offset_db: fast",
     "stas[0].snr_offset_db: expected a number or mapping, got 'fast'"),
])
def test_exponent_text_that_is_no_finite_float_refused(old, new, msg):
    with pytest.raises(ValidationError) as exc:
        _load(_WITH_DCF.replace(old, new))
    assert str(exc.value) == msg


def test_exponent_text_stays_text_in_ids():
    sc = _load(MINIMAL.replace("{id: ap1,", "{id: 1e5,").replace("{ap1: {1:", "{1e5: {1:")
               .replace("id: sta2,", "id: 2E-1,"))
    assert sc.ap_ids == ("1e5",) and [s.sta_id for s in sc.stas] == ["sta1", "2E-1"]


# unquoted text that YAML 1.1 reads as a bool, null, float or date, and the repr of that value
_NOT_TEXT = [("yes", "True"), ("True", "True"), ("off", "False"), ("null", "None"),
             ("~", "None"), ("1.5", "1.5"), ("2024-01-01", "datetime.date(2024, 1, 1)")]
# MINIMAL with `@` for an AP id (and the offset key naming it), a station id or the name
_ID_FIELDS = [("aps[0].id", MINIMAL.replace("ap1", "@")),
              ("stas[1].id", MINIMAL.replace("sta2", "@")),
              ("name", MINIMAL.replace("tiny", "@"))]
# an offset map's AP key, unquoted, naming the AP by its quoted id; the path names the key
# as read (an unquoted `True:` no longer names `id: 'True'`, which only its str() matched)
_OFFSET_KEY = ("stas[1].snr_offset_db.{key}",
               MINIMAL.replace("{id: ap1,", "{id: '@',").replace("{ap1: {1:", "{@: {1:"))


@pytest.mark.parametrize("spelling, read", _NOT_TEXT, ids=[s for s, _ in _NOT_TEXT])
@pytest.mark.parametrize("ctx, template", [*_ID_FIELDS, _OFFSET_KEY],
                         ids=[c for c, _ in _ID_FIELDS] + ["offset_key"])
def test_ids_and_name_refuse_what_yaml_reads_as_no_text(ctx, template, spelling, read):
    with pytest.raises(ValidationError) as exc:
        _load(template.replace("@", spelling))
    ctx = ctx.format(key=yaml.safe_load(spelling))
    assert type(exc.value) is ValidationError and \
        str(exc.value) == f"{ctx}: expected text or an integer, got {read}; quote it"


@pytest.mark.parametrize("spelling, text", [*((f"'{s}'", s) for s, _ in _NOT_TEXT),
                                            ("7", "7"), ("010", "8"), ("'010'", "010")])
@pytest.mark.parametrize("ctx, template", _ID_FIELDS, ids=[c for c, _ in _ID_FIELDS])
def test_quoted_ids_and_integers_load_as_text(ctx, template, spelling, text):
    sc = _load(template.replace("@", spelling))
    assert {"aps[0].id": sc.ap_ids[0], "stas[1].id": sc.stas[1].sta_id, "name": sc.name}[ctx] \
        == text


def test_bool_ids_no_longer_collide():
    # YAML 1.1 reads both as False, which was refused as `duplicate id 'False'`
    doc = MINIMAL.replace("id: sta1,", "id: off,").replace("id: sta2,", "id: no,")
    with pytest.raises(ValidationError, match=r"^stas\[0\]\.id: expected text or an integer, "
                                              r"got False; quote it$"):
        _load(doc)
    sc = _load(doc.replace("id: off,", "id: 'off',").replace("id: no,", "id: 'no',"))
    assert [s.sta_id for s in sc.stas] == ["off", "no"]


def test_unquoted_bool_id_exits_1_with_one_line(tmp_path):
    path = tmp_path / "bool_id.yaml"
    path.write_text(MINIMAL.replace("id: sta2,", "id: off,"))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(scenario.__file__).parents[1]), env.get("PYTHONPATH", "")])
    proc = subprocess.run([sys.executable, "-m", "linkalloc", "run", "--scenario", str(path)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        1, "", "linkalloc: stas[1].id: expected text or an integer, got False; quote it\n")


def test_missing_required_field():
    bad = MINIMAL.replace("{id: ap1, radios: 2, slo_channel: 1}", "{id: ap1, slo_channel: 1}")
    with pytest.raises(ValidationError) as exc:
        _load(bad)
    assert "radios" in str(exc.value)


@pytest.mark.parametrize("old, new, msg", [
    ("snr_base_db: 20.0", "snr_base_db: fast", "snr_base_db: expected a number, got 'fast'"),
    ("snr_base_db: 20.0", "snr_base_db: 20.0\ndcf: 5", "dcf: expected a mapping, got int"),
    ("channels:\n  - {id: 1, band: 2.4GHz, bandwidth_mhz: 40, mcs: 3}\n"
     "  - {id: 2, band: 6GHz, bandwidth_mhz: 160, mcs: 5}", "channels: 5",
     "channels: expected a list, got int"),
    # a float for an integer field, and a field DcfParams does not declare
    ("snr_base_db: 20.0", "snr_base_db: 20.0\ndcf: {cw_min: 16.0}",
     "dcf.cw_min: expected an integer, got 16.0"),
    ("snr_base_db: 20.0", "snr_base_db: 20.0\ndcf: {ack_timeout: 3.0e-4}",
     "dcf: unknown field 'ack_timeout'"),
    # the horizon T the loop divides by; runs also refuse it on a Scenario built otherwise
    ("ewma_horizon_t: 10", "ewma_horizon_t: 0", "ewma_horizon_t: must be >= 1, got 0"),
], ids=["snr_base_db", "dcf", "channels", "dcf_float_for_int", "dcf_unknown", "ewma_horizon_zero"])
def test_scenario_refusals(old, new, msg):
    with pytest.raises(ValidationError) as exc:
        _load(MINIMAL.replace(old, new))
    assert type(exc.value) is ValidationError and str(exc.value) == msg
