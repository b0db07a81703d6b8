import io
import tempfile
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from linkalloc.dcf import DcfParams, airtime_durations, solve_bianchi_fixed_point, normalized_throughput
from linkalloc.errors import InvalidInputError
from linkalloc.phy import (
    DEFAULT_PER_MIDPOINT_DB,
    DEFAULT_PER_SLOPE_PER_DB,
    LogisticPer,
    TablePer,
    mcs_data_rate,
)
from linkalloc.rates import RateTensor, bootstrap_contenders, build_rate_tensor
from linkalloc.repro import simulate_dcf_slots
from linkalloc.scenario import bundled_scenario_path, load_scenario
from test_harness import _small_scenario_docs

ONE_LINK_YAML = """
name: one_link
seed: 1
ewma_horizon_t: 10
snr_base_db: 45.0
channels:
  - {id: 1, band: 2.4GHz, bandwidth_mhz: 40, mcs: 3}
aps:
  - {id: ap1, radios: 1, slo_channel: 1}
stas:
  - {id: sta1, radios: 1, snr_offset_db: {ap1: 0.0}}
"""

TWO_BY_TWO_YAML = """
name: two_by_two
seed: 1
ewma_horizon_t: 10
snr_base_db: 18.0
channels:
  - {id: 1, band: 2.4GHz, bandwidth_mhz: 40, mcs: 3}
  - {id: 2, band: 5GHz, bandwidth_mhz: 80, mcs: 3}
aps:
  - {id: ap1, radios: 2, slo_channel: 1}
  - {id: ap2, radios: 2, slo_channel: 2}
stas:
  - {id: sta1, radios: 2, snr_offset_db: {ap1: 0.0, ap2: -4.0}}
  - {id: sta2, radios: 1, snr_offset_db: {ap1: -3.0, ap2: 1.0}}
  - {id: sta3, radios: 1, snr_offset_db: {ap1: out-of-range, ap2: 2.0}}
"""


def _load(text):
    return load_scenario(io.StringIO(text))


def _document_curve(doc, mcs):
    """The PER curve of `mcs` read off the raw scenario document `doc`, not
    by the loader: the logistic curve of the document's midpoint (else the
    default) and slope, or the table its CSV file holds."""
    model = doc.get("per_model", {})
    if model.get("kind", "logistic") == "logistic":
        midpoint = model.get("midpoints_db", {}).get(mcs, DEFAULT_PER_MIDPOINT_DB[mcs])
        return LogisticPer(float(midpoint), float(model.get("slope_per_db", DEFAULT_PER_SLOPE_PER_DB)))
    rows = Path(model["tables"][mcs]).read_text().splitlines()[1:]
    return TablePer(*zip(*(map(float, row.split(",")) for row in rows)))


def _assert_tensor_matches_scalar_chain(sc, doc, *, contenders=None, snr_field=None,
                                        mcs_override=None):
    """The tensor against the per-link scalar chain, each link's MCS and PER
    curve read off the raw scenario document `doc`."""
    if snr_field is None:
        snr_field = sc.snr_field(seed=sc.rng_seed)
    if contenders is None:
        contenders = bootstrap_contenders(sc, snr_field)
    got = build_rate_tensor(sc, contenders=contenders, snr_field=snr_field,
                            mcs_override=mcs_override).values
    want = np.zeros_like(got)
    mcs_table = oracles.document_arrays(doc)[1]
    for f, chan in enumerate(sc.channels):
        n_eff = max(1, int(contenders[f]))
        tau = solve_bianchi_fixed_point(sc.dcf, n_eff).tau
        for n in range(sc.n_aps):
            mcs = int(mcs_table[f, n]) if mcs_override is None else mcs_override
            rate = mcs_data_rate(mcs, chan.bandwidth_mhz)
            curve = _document_curve(doc, mcs)
            for m in range(sc.m_stas):
                want[f, n, m] = oracles.link_rate_scalar(
                    float(snr_field[f, n, m]), curve, rate, tau, n_eff, sc.dcf)
    np.testing.assert_array_equal(got == 0.0, want == 0.0)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


def _flat_per_table(tmp_path, per):
    """TWO_BY_TWO_YAML whose MCS 3 PER is `per` at every effective SNR."""
    table = tmp_path / "flat_per.csv"
    table.write_text(f"esnr_db,per\n-100.0,{per}\n100.0,{per}\n")
    return _load(TWO_BY_TWO_YAML.replace(
        "aps:\n", f"per_model: {{kind: table, tables: {{3: {table}}}}}\naps:\n", 1))


def test_channel_rate_dead_channel(tmp_path):
    # every frame errored: in-range links deliver nothing
    sc = _flat_per_table(tmp_path, 1.0)
    assert (build_rate_tensor(sc).values == 0.0).all()


def test_channel_rate_perfect_channel(tmp_path):
    # no frame errored: a link's rate is the error-free MAC efficiency times
    # the MCS rate
    sc = _flat_per_table(tmp_path, 0.0)
    contenders = [2, 1]
    t = build_rate_tensor(sc, contenders=contenders)
    for f, chan in enumerate(sc.channels):
        rate = mcs_data_rate(3, chan.bandwidth_mhz)
        tpt = normalized_throughput(solve_bianchi_fixed_point(sc.dcf, contenders[f]),
                                    airtime_durations(sc.dcf, rate), 0.0, sc.dcf)
        live = t.values[f] > 0
        assert live.sum() == 5                  # sta3 cannot hear ap1
        assert (t.values[f][live] == tpt * rate).all()


def test_channel_rate_never_exceeds_mcs_rate():
    sc = load_scenario(bundled_scenario_path("scenario_3ap_15sta"))
    for base_db in (10.0, 30.0, 60.0):
        for contenders in ([1, 1, 1], [2, 5, 9]):
            for mcs in (0, 3, 11):
                t = build_rate_tensor(sc, contenders=contenders, mcs_override=mcs,
                                      snr_field=sc.snr_field(base_db=base_db))
                for f, chan in enumerate(sc.channels):
                    assert t.values[f].max() <= mcs_data_rate(mcs, chan.bandwidth_mhz)


def test_channel_rate_composition_against_simulator():
    p = DcfParams()
    rate = mcs_data_rate(3, 40)
    d = airtime_durations(p, rate)
    s = solve_bianchi_fixed_point(p, 10)
    composed = normalized_throughput(s, d, 0.05, p) * rate
    sim = simulate_dcf_slots(p, 10, 0.05, 150_000, seed=9, durations=d)
    assert abs(composed - sim * rate) / composed < 0.05


def test_single_link_tensor_matches_closed_form():
    sc = _load(ONE_LINK_YAML)
    t = build_rate_tensor(sc)
    p = sc.dcf
    rate = mcs_data_rate(3, 40)
    d = airtime_durations(p, rate)
    want = oracles.closed_form_n1_throughput(p, d) * rate
    # 45 dB effective SNR leaves no measurable error probability at MCS3
    assert t.values[0, 0, 0] == pytest.approx(want, rel=1e-9)


def test_tensor_matches_scalar_chain_on_fixture():
    path = bundled_scenario_path("scenario_3ap_15sta")
    sc, doc = load_scenario(path), yaml.safe_load(path.read_text())
    for contenders in ([1, 1, 1], [5, 7, 3], [40, 2, 9]):
        for mcs_override in (None, 0, 11):
            _assert_tensor_matches_scalar_chain(sc, doc, contenders=contenders,
                                                mcs_override=mcs_override)
    for base_db in (-30.0, 60.0):
        _assert_tensor_matches_scalar_chain(sc, doc, snr_field=sc.snr_field(base_db=base_db))


def test_tensor_matches_scalar_chain_with_out_of_range_links():
    _assert_tensor_matches_scalar_chain(_load(TWO_BY_TWO_YAML), yaml.safe_load(TWO_BY_TWO_YAML))
    # APs on one channel at different MCS fall into separate kernel blocks
    mixed = TWO_BY_TWO_YAML.replace("slo_channel: 2}", "slo_channel: 2, mcs: {1: 7}}")
    sc = _load(mixed)
    assert sc.mcs_table[0, 0] != sc.mcs_table[0, 1]
    _assert_tensor_matches_scalar_chain(sc, yaml.safe_load(mixed))


def test_tensor_matches_scalar_chain_with_table_per(tmp_path):
    table = tmp_path / "per_mcs3.csv"
    table.write_text("esnr_db,per\n0.0,1.0\n8.0,0.6\n14.0,0.1\n20.0,0.0\n")
    text = TWO_BY_TWO_YAML.replace(
        "aps:\n", f"per_model: {{kind: table, tables: {{3: {table}}}}}\naps:\n", 1)
    sc, doc = _load(text), yaml.safe_load(text)
    assert isinstance(sc.per_curves[3], TablePer)
    _assert_tensor_matches_scalar_chain(sc, doc)
    for base_db in (-30.0, 60.0, 10.0):
        _assert_tensor_matches_scalar_chain(sc, doc, snr_field=sc.snr_field(base_db=base_db))


_PER_DB = st.integers(-100, 400).map(lambda tenths: tenths / 10)     # -10 to 40 dB


@settings(max_examples=40, deadline=None)
@given(_small_scenario_docs(), st.data())
def test_tensor_matches_scalar_chain_with_drawn_per_model(doc, data):
    # a drawn PER model of either kind: logistic overrides over the defaults,
    # or a table for every MCS the APs run, written as CSV
    with tempfile.TemporaryDirectory() as tmp:
        if data.draw(st.booleans(), label="tables"):
            tables = {}
            for mcs in np.unique(oracles.document_arrays(doc)[1]).tolist():
                grid = sorted(data.draw(st.sets(_PER_DB, min_size=2, max_size=5)))
                per = sorted(data.draw(st.lists(st.floats(0.0, 1.0), min_size=len(grid),
                                                max_size=len(grid))), reverse=True)
                path = Path(tmp, f"per{mcs}.csv")
                path.write_text("esnr_db,per\n" + "".join(
                    f"{x!r},{y!r}\n" for x, y in zip(grid, per)))
                tables[mcs] = str(path)
            model = {"kind": "table", "tables": tables}
        else:
            model = {"slope_per_db": data.draw(st.floats(0.05, 5.0), label="slope"),
                     "midpoints_db": data.draw(st.dictionaries(st.integers(0, 11), _PER_DB),
                                               label="midpoints")}
        doc = dict(doc, per_model=model)
        _assert_tensor_matches_scalar_chain(load_scenario(io.StringIO(yaml.safe_dump(doc))), doc)


@pytest.mark.parametrize("dcf, sign", [("{eifs: 1.0e-4}", -1),
                                       ("{eifs: 4.0e-5, slot_time: 2.0e-5}", 1)])
def test_tensor_matches_scalar_chain_with_explicit_eifs(dcf, sign):
    # only the default EIFS makes T_s - T_c = prop_delay; an explicit one
    # moves the closed form's success term away from it, either way
    text = TWO_BY_TWO_YAML.replace("aps:\n", f"dcf: {dcf}\naps:\n", 1)
    sc, doc = _load(text), yaml.safe_load(text)
    for chan in sc.channels:
        d = airtime_durations(sc.dcf, mcs_data_rate(3, chan.bandwidth_mhz))
        gap = d.t_success - d.t_collision
        assert np.sign(gap) == sign and abs(gap - sc.dcf.prop_delay) > 1e-6
    for contenders in ([1, 1], [3, 2], [20, 7]):
        _assert_tensor_matches_scalar_chain(sc, doc, contenders=contenders)


def test_link_snr_range_is_the_linear_rule_at_each_bound():
    # the dB range check gives the verdict of 10**(snr/10) being finite and
    # > 0 at each bound and at its neighbours
    sc = _load(ONE_LINK_YAML)
    for bound in (-10750 * np.log10(2), 10 * np.log10(np.finfo(float).max)):
        for snr in (np.nextafter(bound, -np.inf), bound, np.nextafter(bound, np.inf)):
            with np.errstate(over="ignore"):
                linear = 10.0 ** (snr / 10.0)
            try:
                build_rate_tensor(sc, contenders=[1], snr_field=np.full((1, 1, 1), snr))
                usable = True
            except InvalidInputError as exc:
                assert "is out of the PHY model's range" in str(exc)
                usable = False
            assert usable == (np.isfinite(linear) and linear > 0), snr


def test_out_of_range_link_is_zero():
    sc = _load(TWO_BY_TWO_YAML)
    t = build_rate_tensor(sc)
    assert t.values[0, 0, 2] == 0.0  # sta3 cannot hear ap1 on any channel
    assert t.values[1, 0, 2] == 0.0
    assert (t.values[:, 1, 2] > 0).all()


def test_sta_permutation_permutes_tensor_axis():
    sc = _load(TWO_BY_TWO_YAML)
    permuted = TWO_BY_TWO_YAML.replace(
        """  - {id: sta1, radios: 2, snr_offset_db: {ap1: 0.0, ap2: -4.0}}
  - {id: sta2, radios: 1, snr_offset_db: {ap1: -3.0, ap2: 1.0}}
  - {id: sta3, radios: 1, snr_offset_db: {ap1: out-of-range, ap2: 2.0}}""",
        """  - {id: sta3, radios: 1, snr_offset_db: {ap1: out-of-range, ap2: 2.0}}
  - {id: sta1, radios: 2, snr_offset_db: {ap1: 0.0, ap2: -4.0}}
  - {id: sta2, radios: 1, snr_offset_db: {ap1: -3.0, ap2: 1.0}}""",
    )
    sc2 = _load(permuted)
    a = build_rate_tensor(sc)
    b = build_rate_tensor(sc2)
    np.testing.assert_allclose(b.values, a.values[:, :, [2, 0, 1]])


def test_contender_count_never_raises_rates():
    # a lone station wastes idle backoff slots, so utilization peaks just
    # above n=1; the decline is monotone from two contenders onward
    sc = _load(ONE_LINK_YAML)
    snr_field = sc.snr_field(base_db=18.0)

    def rate(n):
        return float(build_rate_tensor(sc, contenders=[n], snr_field=snr_field).values[0, 0, 0])

    assert rate(1) < rate(2)
    prev = None
    for n in range(2, 51):
        r = rate(n)
        assert r > 0
        if prev is not None:
            assert r <= prev + 1e-9
        prev = r


def test_rate_tensor_rejects_bad_values():
    with pytest.raises(InvalidInputError):
        RateTensor(values=np.array([[[-1.0]]]))
    with pytest.raises(InvalidInputError):
        RateTensor(values=np.array([[[np.nan]]]))


def test_bootstrap_contenders_camps_each_sta_once():
    sc = _load(TWO_BY_TWO_YAML)
    counts = np.asarray(bootstrap_contenders(sc, sc.snr_field()))
    assert counts.sum() == sc.m_stas
    assert counts.shape == (sc.f_count,)


def test_tensor_uses_supplied_contender_counts():
    sc = _load(TWO_BY_TWO_YAML)
    light = build_rate_tensor(sc, contenders=np.array([2, 2]))
    heavy = build_rate_tensor(sc, contenders=np.array([12, 12]))
    mask = light.values > 0
    assert (heavy.values[mask] < light.values[mask]).all()


def test_mcs_override_changes_rates():
    sc = _load(TWO_BY_TWO_YAML)
    base = build_rate_tensor(sc)
    slower = build_rate_tensor(sc, mcs_override=0)
    mask = base.values > 0
    assert (slower.values[mask] < base.values[mask]).all()
