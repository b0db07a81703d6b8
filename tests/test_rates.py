import dataclasses
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
from linkalloc.harness import run_apc_loop
from linkalloc import rates
from linkalloc.rates import RateTensor, bootstrap_contenders, build_rate_tensor, rate_links
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
    arrays = oracles.document_arrays(doc)
    mcs_table, widths = arrays[1], arrays[-1]
    for f in range(sc.f_count):
        n_eff = max(1, int(contenders[f]))
        tau = solve_bianchi_fixed_point(sc.dcf, n_eff).tau
        for n in range(sc.n_aps):
            mcs = int(mcs_table[f, n]) if mcs_override is None else mcs_override
            rate = mcs_data_rate(mcs, int(widths[f]))
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
    for f, width in enumerate(sc.bandwidth_mhz.tolist()):
        rate = mcs_data_rate(3, width)
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
                for f, width in enumerate(sc.bandwidth_mhz.tolist()):
                    assert t.values[f].max() <= mcs_data_rate(mcs, width)


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


def _drawn_per_model(doc, data, tmp):
    """A drawn PER model of either kind: logistic overrides over the
    defaults, or a table for every MCS the APs of `doc` run, written as CSV
    into the directory `tmp`."""
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
        return {"kind": "table", "tables": tables}
    return {"slope_per_db": data.draw(st.floats(0.05, 5.0), label="slope"),
            "midpoints_db": data.draw(st.dictionaries(st.integers(0, 11), _PER_DB),
                                      label="midpoints")}


@settings(max_examples=40, deadline=None)
@given(_small_scenario_docs(), st.data())
def test_tensor_matches_scalar_chain_with_drawn_per_model(doc, data):
    with tempfile.TemporaryDirectory() as tmp:
        doc = dict(doc, per_model=_drawn_per_model(doc, data, tmp))
        _assert_tensor_matches_scalar_chain(load_scenario(io.StringIO(yaml.safe_dump(doc))), doc)


def _assert_kernel_is_the_block_build(sc, contenders, snr_field, mcs_override=None, links=None):
    """The heard-link kernel, given the run's links or deriving its own,
    against the per-block build of `oracles.build_rate_tensor_blocks`, as
    bytes."""
    got = build_rate_tensor(sc, contenders=contenders, snr_field=snr_field,
                            mcs_override=mcs_override, links=links).values
    want = oracles.build_rate_tensor_blocks(sc, contenders, snr_field, mcs_override)
    assert got.tobytes() == want.tobytes(), (contenders, mcs_override)


@settings(max_examples=60, deadline=None)
@given(_small_scenario_docs(), st.data())
def test_heard_link_kernel_is_the_block_build_to_the_bit(doc, data):
    # drawn PER models, APs that mix MCS within a channel, out-of-range
    # links, drawn SNR bases, an MCS override and 0 to M + 1 contenders per channel
    with tempfile.TemporaryDirectory() as tmp:
        doc = dict(doc, per_model=_drawn_per_model(doc, data, tmp))
        sc = load_scenario(io.StringIO(yaml.safe_dump(doc)))
        mcs = data.draw(st.one_of(st.none(), st.sampled_from(sorted(sc.per_curves))),
                        label="mcs_override")
        if sc.snr_random_range_db is None:
            field = sc.snr_field(base_db=data.draw(st.sampled_from([-30.0, 0.0, 15.0, 60.0]),
                                                   label="base_db"))
        else:   # it draws its bases and refuses an explicit one: a seed draws them
            field = sc.snr_field(seed=data.draw(st.integers(0, 100), label="seed"))
        links = rate_links(sc, field, mcs)
        counts = st.lists(st.integers(0, sc.m_stas + 1), min_size=sc.f_count,
                          max_size=sc.f_count)
        for contenders in data.draw(st.lists(counts, min_size=1, max_size=4), label="contenders"):
            _assert_kernel_is_the_block_build(sc, contenders, field, mcs, links)
        _assert_kernel_is_the_block_build(sc, None, field, mcs)


@pytest.mark.parametrize("path", [bundled_scenario_path("scenario_3ap_15sta"),
                                  bundled_scenario_path("scenario_slo"),
                                  bundled_scenario_path("scenario_2ap_joint"),
                                  Path(__file__).parent / "data" / "synth_10x200_seed1.yaml"],
                         ids=lambda path: path.stem)
def test_heard_link_kernel_is_the_block_build_on_every_contention_a_run_visits(path):
    sc = load_scenario(path)
    field = sc.snr_field()
    for allocator, mcs in (("pf", None), ("rr", 3), ("slo", None)):
        result = run_apc_loop(sc, allocator=allocator, iterations=30, mcs_override=mcs)
        visited = {tuple(r.selection.per_channel_counts().tolist()) for r in result.reports}
        links = rate_links(sc, field, mcs)
        for contenders in sorted(visited) + [None]:
            _assert_kernel_is_the_block_build(sc, contenders, field, mcs, links)


def _link_bytes(links):
    """A `RateLinks`, field by field: its arrays as their dtype and bytes, its
    block tuples, and the airtime floats as bytes."""
    return (links.index.dtype.str, links.index.tobytes(), links.per.dtype.str,
            links.per.tobytes(), links.block_links, links.block_channel,
            np.array(links.block_airtime, dtype=float).tobytes())


@settings(max_examples=60, deadline=None)
@given(_small_scenario_docs(), st.data())
def test_kept_link_layout_is_the_dense_derivation_to_the_bit(doc, data):
    # APs that mix MCS within a channel, an MCS override or none, drawn bases
    # and PER models of both kinds: the links of a first run, of a second run
    # on the same scenario (another field, the kept layout) and of a
    # `dataclasses.replace` copy, which keeps nothing of the original's, are
    # the ones derived from the field on every run
    with tempfile.TemporaryDirectory() as tmp:
        doc = dict(doc, per_model=_drawn_per_model(doc, data, tmp))
        sc = load_scenario(io.StringIO(yaml.safe_dump(doc)))
    mcs = data.draw(st.one_of(st.none(), st.sampled_from(sorted(sc.per_curves))),
                    label="mcs_override")
    copy = dataclasses.replace(sc)
    kept = []
    for run, scenario in enumerate((sc, sc, copy)):
        if scenario.snr_random_range_db is None:
            field = scenario.snr_field(base_db=data.draw(
                st.sampled_from([-30.0, 0.0, 15.0, 60.0]), label=f"base_db {run}"))
        else:   # it draws its bases and refuses an explicit one: a seed draws them
            field = scenario.snr_field(seed=data.draw(st.integers(0, 100), label=f"seed {run}"))
        assert ((rates._link_layout, mcs) in vars(scenario).get("_fixed", {})) == (run == 1)
        got = rate_links(scenario, field, mcs)
        assert _link_bytes(got) == _link_bytes(oracles.rate_links_dense(scenario, field, mcs))
        assert scenario.fixed(rates._link_layout, mcs)[2] \
            == oracles.mcs_label_dense(scenario, mcs)
        kept.append(got.index)
    assert kept[1] is kept[0] and kept[2] is not kept[0]


# one channel on which ap2 runs MCS 3 and ap1 MCS 9, so ap2's links come
# first in the layout; sta1's links to both are far above the rest
MIXED_ONE_CHANNEL_YAML = """
name: mixed_one_channel
snr_base_db: -2000.0
channels:
  - {id: 1, band: 5GHz, bandwidth_mhz: 80, mcs: 9}
aps:
  - {id: ap1, radios: 2}
  - {id: ap2, radios: 2, mcs: {1: 3}}
stas:
  - {id: sta1, radios: 1, snr_offset_db: {ap1: 4000.0, ap2: 5000.0}}
  - {id: sta2, radios: 1, snr_offset_db: {ap1: 10.0, ap2: 12.0}}
"""


def test_out_of_range_link_named_in_field_order_not_layout_order():
    sc = _load(MIXED_ONE_CHANNEL_YAML)
    assert rate_links(sc, sc.snr_field()).index.tolist() == [2, 3, 0, 1]
    # at base 0 both of sta1's links pass the ceiling; ap1's is first in (f, n, m)
    # order, though the layout holds ap2's first
    field = sc.snr_field(base_db=0.0)
    want = ("a link SNR of 4000.0 dB is out of the PHY model's range: "
            "its linear value must be finite and > 0")
    for call in (lambda: rate_links(sc, field), lambda: oracles.rate_links_dense(sc, field),
                 lambda: run_apc_loop(sc, iterations=1, snr_base_db=0.0)):
        with pytest.raises(InvalidInputError) as exc:
            call()
        assert str(exc.value) == want


def test_field_read_at_the_heard_links_alone():
    # sta3 does not hear ap1: a value there is not read, a NaN at a heard link
    # is refused as out of range
    sc = _load(TWO_BY_TWO_YAML)
    field = sc.snr_field()
    assert np.isnan(field[:, 0, 2]).all()
    filled = field.copy()
    filled[:, 0, 2] = 1e6
    assert _link_bytes(rate_links(sc, filled)) == _link_bytes(rate_links(sc, field))
    field[1, 1, 0] = np.nan
    with pytest.raises(InvalidInputError) as exc:
        rate_links(sc, field)
    assert str(exc.value).startswith("a link SNR of nan dB is out of the PHY model's range")


def test_links_of_a_channel_that_mixes_mcs_keep_their_rates():
    # ap1 runs MCS 7 on channel 1 and ap2 MCS 3, so that channel's blocks are
    # ap2's links, then ap1's: stored block by block, not in (f, n, m) order
    sc = _load(TWO_BY_TWO_YAML.replace("slo_channel: 1}", "slo_channel: 1, mcs: {1: 7}}"))
    links = rate_links(sc, sc.snr_field())
    assert links.block_channel == (0, 0, 1) and links.block_links == (3, 2, 5)
    assert links.index.tolist() == [3, 4, 5, 0, 1, 6, 7, 9, 10, 11]
    _assert_kernel_is_the_block_build(sc, [4, 2], sc.snr_field())


@pytest.mark.parametrize("dcf, sign", [("{eifs: 1.0e-4}", -1),
                                       ("{eifs: 4.0e-5, slot_time: 2.0e-5}", 1)])
def test_tensor_matches_scalar_chain_with_explicit_eifs(dcf, sign):
    # only the default EIFS makes T_s - T_c = prop_delay; an explicit one
    # moves the closed form's success term away from it, either way
    text = TWO_BY_TWO_YAML.replace("aps:\n", f"dcf: {dcf}\naps:\n", 1)
    sc, doc = _load(text), yaml.safe_load(text)
    for width in sc.bandwidth_mhz.tolist():
        d = airtime_durations(sc.dcf, mcs_data_rate(3, width))
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


def _fixture():
    return load_scenario(bundled_scenario_path("scenario_3ap_15sta"))


_REFUSALS = {
    "tensor_2d": (lambda: RateTensor(np.ones((2, 3))),
                  "rate tensor must be (F, N, M), got shape (2, 3)"),
    "snr_field_shape": (lambda: build_rate_tensor(_fixture(), snr_field=np.zeros((3, 3, 14))),
                        "snr_field shape (3, 3, 14) != (3, 3, 15)"),
    "contenders_length": (lambda: build_rate_tensor(_fixture(), contenders=[1, 1]),
                          "contenders needs one count per channel"),
}


@pytest.mark.parametrize("call, msg", _REFUSALS.values(), ids=_REFUSALS.keys())
def test_rates_refusals(call, msg):
    with pytest.raises(InvalidInputError) as exc:
        call()
    assert type(exc.value) is InvalidInputError and str(exc.value) == msg
