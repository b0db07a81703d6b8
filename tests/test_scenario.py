import io

import numpy as np
import pytest

from linkalloc.errors import ValidationError
from linkalloc.scenario import (
    bundled_scenario_path,
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


def test_empty_channel_list_rejected():
    bad = MINIMAL.replace("""channels:
  - {id: 1, band: 2.4GHz, bandwidth_mhz: 40, mcs: 3}
  - {id: 2, band: 6GHz, bandwidth_mhz: 160, mcs: 5}""", "channels: []")
    with pytest.raises(ValidationError):
        _load(bad)


def test_unknown_field_named_in_error():
    # fields the schema no longer has (eesm_beta, ack_timeout) fail like a typo
    for extra, name in (("frobnicate: 3", "frobnicate"),
                        ("per_model: {eesm_beta: 1.0}", "eesm_beta"),
                        ("dcf: {ack_timeout: 3.0e-4}", "ack_timeout")):
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


def test_random_range_needs_rng():
    doc = MINIMAL.replace("snr_base_db: 20.0", "snr_base_db: 20.0\nsnr_random_range_db: [6.0, 9.0]")
    sc = _load(doc)
    fixed = sc.snr_field()
    assert fixed[0, 0, 0] == pytest.approx(20.0)
    rng = np.random.default_rng(0)
    drawn = sc.snr_field(rng=rng)
    finite = drawn[np.isfinite(drawn)]
    assert ((finite >= 6.0 - 3.0) & (finite <= 9.0)).all()
    assert not np.allclose(drawn[np.isfinite(fixed)], fixed[np.isfinite(fixed)])


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
    assert sc.mcs_for(0, sc.aps[0]) == 3
    assert sc.mcs_for(1, sc.aps[0]) == 7


def test_truncated_keeps_prefix():
    sc = load_scenario(bundled_scenario_path("scenario_2ap_joint"))
    small = sc.truncated(4)
    assert small.m_stas == 4
    assert [s.sta_id for s in small.stas] == [s.sta_id for s in sc.stas[:4]]


def test_with_mcs_rewrites_all_channels():
    sc = _load(MINIMAL)
    swapped = sc.with_mcs(1)
    assert all(c.mcs_index == 1 for c in swapped.channels)
    assert swapped.name == sc.name


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


def test_missing_required_field():
    bad = MINIMAL.replace("{id: ap1, radios: 2, slo_channel: 1}", "{id: ap1, slo_channel: 1}")
    with pytest.raises(ValidationError) as exc:
        _load(bad)
    assert "radios" in str(exc.value)
