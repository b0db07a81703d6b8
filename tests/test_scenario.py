import dataclasses
import io
from unittest import mock

import numpy as np
import pytest
import yaml

from linkalloc.errors import ConfigurationError, ValidationError
from linkalloc.phy import DEFAULT_PER_MIDPOINT_DB, PerCurve
from linkalloc.rates import build_rate_tensor
from linkalloc.scenario import (
    bundled_scenario_path,
    check_mcs,
    list_bundled_scenarios,
    load_scenario,
)

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
    assert [(c.band, c.bandwidth_mhz) for c in sc.channels] == [
        ("2.4GHz", 40), ("5GHz", 80), ("6GHz", 160)]
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


def test_truncated_keeps_prefix():
    sc = load_scenario(bundled_scenario_path("scenario_2ap_joint"))
    small = sc.truncated(4)
    assert small.m_stas == 4
    assert [s.sta_id for s in small.stas] == [s.sta_id for s in sc.stas[:4]]
    # the radio counts are built once at load, read-only, and sliced along
    for scenario in (sc, small):
        assert scenario.sta_radio_limits().tolist() == [s.radios for s in scenario.stas]
        assert scenario.ap_capacities().tolist() == [a.radios for a in scenario.aps]
        assert scenario.sta_radio_limits() is scenario.sta_radio_limits()
        assert scenario.ap_capacities() is scenario.ap_capacities()
        assert not scenario.sta_radio_limits().flags.writeable
        assert not scenario.ap_capacities().flags.writeable


def test_dcf_overrides_parsed():
    doc = MINIMAL.replace("snr_base_db: 20.0",
                          "snr_base_db: 20.0\ndcf: {payload_bytes: 500, cw_min: 32, cw_max: 2048}")
    sc = _load(doc)
    assert sc.dcf.payload_bytes == 500
    assert sc.dcf.cw_min == 32


def test_per_model_table_from_csv(tmp_path):
    csv = tmp_path / "per3.csv"
    csv.write_text("esnr_db,per\n0.0,1.0\n20.0,0.0\n")
    doc = MINIMAL.replace(
        "snr_base_db: 20.0",
        f"snr_base_db: 20.0\nper_model: {{kind: table, tables: {{3: {csv.name}, 5: {csv.name}}}}}")
    path = tmp_path / "scenario.yaml"
    path.write_text(doc)
    sc = load_scenario(path)
    curve = sc.per_model.curve_for(3)
    assert curve.is_tabulated


def test_per_model_logistic_midpoint_override():
    doc = MINIMAL.replace(
        "snr_base_db: 20.0",
        "snr_base_db: 20.0\nper_model: {kind: logistic, midpoints_db: {3: 12.0}}")
    sc = _load(doc)
    assert sc.per_model.curve_for(3).midpoint_db == 12.0


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
        with mock.patch.object(PerCurve, "from_csv", side_effect=AssertionError("read")), \
                pytest.raises(ValidationError) as exc:
            load_scenario(path)
        assert str(exc.value) == msg


def test_per_model_resolved_at_load(tmp_path):
    # every logistic curve is built at load, an override over the defaults;
    # a table model holds exactly its configured MCS
    sc = _load(MINIMAL.replace("seed: 1", "seed: 1\nper_model: {slope_per_db: 2.0, "
                                          "midpoints_db: {3: 12.0}}"))
    assert sc.per_model.kind == "logistic" and sorted(sc.per_model.curves) == list(range(12))
    assert sc.per_model.curves[3] == PerCurve.logistic(12.0, 2.0)
    assert sc.per_model.curves[5] == PerCurve.logistic(DEFAULT_PER_MIDPOINT_DB[5], 2.0)
    assert sc.per_model.curve_for(5) is sc.per_model.curve_for(5)
    (tmp_path / "per.csv").write_text("esnr_db,per\n0.0,1.0\n20.0,0.0\n")
    (tmp_path / "s.yaml").write_text(MINIMAL.replace(
        "seed: 1", "seed: 1\nper_model: {kind: table, tables: {3: per.csv, 5: per.csv}}"))
    model = load_scenario(tmp_path / "s.yaml").per_model
    assert model.kind == "table" and sorted(model.curves) == [3, 5]
    with pytest.raises(ConfigurationError, match="^no PER table configured for MCS 9$"):
        model.curve_for(9)


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


def test_missing_required_field():
    bad = MINIMAL.replace("{id: ap1, radios: 2, slo_channel: 1}", "{id: ap1, slo_channel: 1}")
    with pytest.raises(ValidationError) as exc:
        _load(bad)
    assert "radios" in str(exc.value)
