import numpy as np
import pytest

import oracles
from linkalloc.errors import InvalidInputError
from linkalloc.phy import (
    DATA_SUBCARRIERS,
    DEFAULT_PER_MIDPOINT_DB,
    DEFAULT_PER_SLOPE_PER_DB,
    LogisticPer,
    TablePer,
    eesm_effective_snr,
    mcs_data_rate,
    per_lookup,
)


def test_eesm_uniform_grid_is_fixed_point():
    rng = np.random.default_rng(0)
    for _ in range(50):
        c = float(rng.uniform(0.05, 40.0))
        beta = float(rng.uniform(0.1, 10.0))
        grid = np.full((int(rng.integers(1, 9)), int(rng.integers(1, 3))), c)
        got = eesm_effective_snr(grid, beta=beta)
        assert abs(got - c) <= 1e-12 * c


def test_eesm_two_point_grid_frozen():
    grid = np.array([[1.0, 3.0]])
    got = eesm_effective_snr(grid, beta=1.0)
    assert got == pytest.approx(1.5662191695169727, rel=1e-12)
    assert got == pytest.approx(oracles.eesm_scalar([1.0, 3.0], 1.0), rel=1e-12)


def test_eesm_large_beta_approaches_arithmetic_mean():
    grid = np.array([[1.0, 3.0]])
    got = eesm_effective_snr(grid, beta=1e6)
    assert abs(got - 2.0) < 1e-3


def test_eesm_bounds_and_monotonicity():
    rng = np.random.default_rng(7)
    for _ in range(200):
        vals = rng.uniform(0.01, 30.0, size=(int(rng.integers(1, 5)), int(rng.integers(1, 7))))
        beta = float(rng.uniform(0.2, 5.0))
        eff = eesm_effective_snr(vals, beta=beta)
        assert vals.min() - 1e-12 <= eff <= vals.max() + 1e-12
        bumped = vals.copy()
        i = int(rng.integers(vals.shape[0]))
        j = int(rng.integers(vals.shape[1]))
        bumped[i, j] += float(rng.uniform(0.1, 5.0))
        eff2 = eesm_effective_snr(bumped, beta=beta)
        assert eff2 >= eff - 1e-12


def test_eesm_rejects_empty_grid():
    with pytest.raises(InvalidInputError):
        eesm_effective_snr(np.zeros((0, 1)))
    with pytest.raises(InvalidInputError):
        eesm_effective_snr([[1.0]], beta=0.0)


def test_per_lookup_table_point_identity():
    curve = TablePer([0.0, 5.0, 10.0], [1.0, 0.5, 0.0])
    assert per_lookup(curve, 5.0) == 0.5
    assert per_lookup(curve, 0.0) == 1.0


def test_per_lookup_clamps_outside_range():
    curve = TablePer([0.0, 10.0], [0.9, 0.1])
    assert per_lookup(curve, -25.0) == 0.9
    assert per_lookup(curve, 99.0) == 0.1


def test_per_lookup_logistic_midpoint():
    curve = LogisticPer(midpoint_db=10.0, slope_per_db=1.0)
    assert per_lookup(curve, 10.0) == pytest.approx(0.5)


def test_per_lookup_interpolates_linearly():
    curve = TablePer([0.0, 10.0], [0.8, 0.2])
    assert per_lookup(curve, 2.5) == pytest.approx(0.65)


def test_per_curve_monotone_nonincreasing_everywhere():
    rng = np.random.default_rng(11)
    curves = [LogisticPer(mid, DEFAULT_PER_SLOPE_PER_DB)
              for mid in DEFAULT_PER_MIDPOINT_DB.values()]
    curves.append(TablePer([-5.0, 0.0, 3.0, 9.0], [1.0, 0.7, 0.7, 0.0]))
    for curve in curves:
        q = np.sort(rng.uniform(-40.0, 60.0, size=64))
        pers = [per_lookup(curve, float(x)) for x in q]
        assert all(0.0 <= p <= 1.0 for p in pers)
        assert all(a >= b - 1e-12 for a, b in zip(pers, pers[1:]))


def test_per_curve_validation():
    with pytest.raises(InvalidInputError):
        TablePer([0.0, 0.0], [0.5, 0.4])  # not strictly increasing x
    with pytest.raises(InvalidInputError):
        TablePer([0.0, 5.0], [0.2, 0.6])  # per increases
    with pytest.raises(InvalidInputError):
        TablePer([0.0, 5.0], [1.4, 0.0])  # per out of [0,1]


def test_per_curve_from_csv(tmp_path):
    p = tmp_path / "mcs3.csv"
    p.write_text("esnr_db,per\n0.0,1.0\n10.0,0.5\n20.0,0.0\n")
    curve = TablePer.from_csv(p)
    assert isinstance(curve, TablePer)
    assert per_lookup(curve, 10.0) == 0.5


def test_default_per_curve_midpoints():
    for m, mid in DEFAULT_PER_MIDPOINT_DB.items():
        curve = LogisticPer(mid, DEFAULT_PER_SLOPE_PER_DB)
        assert per_lookup(curve, float(mid)) == pytest.approx(0.5)


def test_mcs3_rates_match_handbook_values():
    r40 = mcs_data_rate(3, 40)
    r80 = mcs_data_rate(3, 80)
    assert r40 == pytest.approx(68823529.41176471)
    assert r80 == pytest.approx(144117647.05882356)
    # three significant figures: 68.8 / 144.1 Mbps
    assert round(r40 / 1e6, 1) == 68.8
    assert round(r80 / 1e6, 1) == 144.1


def test_mcs_data_rate_unit_case():
    # MCS 0 on 20 MHz: one coded bit at rate 1/2 on each of 234 data
    # subcarriers per 12.8 + 0.8 us symbol
    assert mcs_data_rate(0, 20) == pytest.approx(234 * 0.5 / 13.6e-6)


def test_mcs_data_rate_scaling():
    base = mcs_data_rate(3, 40)
    assert mcs_data_rate(3, 80) / base == pytest.approx(DATA_SUBCARRIERS[80] / DATA_SUBCARRIERS[40])
    # MCS 4 keeps MCS 3's 16-QAM and raises the coding rate from 1/2 to 3/4
    assert mcs_data_rate(4, 40) / base == pytest.approx(1.5)


def test_mcs_data_rate_rejects_unknown_combinations():
    with pytest.raises(InvalidInputError):
        mcs_data_rate(12, 40)
    with pytest.raises(InvalidInputError):
        mcs_data_rate(3, 30)


def _csv(tmp_path, text):
    path = tmp_path / "per.csv"
    path.write_text(text)
    return path


_REFUSALS = {
    "eesm_one_dimensional": (lambda tmp: eesm_effective_snr([1.0, 2.0]),
                             "SINR grid must be a non-empty 2-D array"),
    "eesm_empty": (lambda tmp: eesm_effective_snr(np.zeros((0, 1))),
                   "SINR grid must be a non-empty 2-D array"),
    "eesm_zero_sinr": (lambda tmp: eesm_effective_snr([[1.0, 0.0]]),
                       "SINR grid entries must be finite and > 0"),
    "eesm_nan_sinr": (lambda tmp: eesm_effective_snr([[np.nan]]),
                      "SINR grid entries must be finite and > 0"),
    "eesm_beta_zero": (lambda tmp: eesm_effective_snr([[1.0]], beta=0.0),
                       "beta must be finite and > 0, got 0.0"),
    "eesm_beta_inf": (lambda tmp: eesm_effective_snr([[1.0]], beta=float("inf")),
                      "beta must be finite and > 0, got inf"),
    "midpoint_nan": (lambda tmp: LogisticPer(float("nan"), 1.0), "midpoint_db must be finite"),
    "slope_zero": (lambda tmp: LogisticPer(10.0, 0.0), "slope_per_db must be finite and > 0"),
    "table_lengths": (lambda tmp: TablePer([0.0, 1.0, 2.0], [1.0, 0.0]),
                      "PER table needs matching 1-D arrays of length >= 2"),
    "csv_header": (lambda tmp: TablePer.from_csv(_csv(tmp, "snr,per\n0,1\n9,0\n")),
                   "{path}: expected CSV header 'esnr_db,per', got ['snr', 'per']"),
    "csv_one_row": (lambda tmp: TablePer.from_csv(_csv(tmp, "esnr_db,per\n0,1\n")),
                    "{path}: PER table needs at least 2 rows"),
    # a field beyond the csv module's size limit
    "csv_field_limit": (lambda tmp: TablePer.from_csv(
                            _csv(tmp, "esnr_db,per\n0,1\n9," + "0" * 200_000 + "\n")),
                        "{path}: line 3: field larger than field limit (131072)"),
    "lookup_nan": (lambda tmp: per_lookup(LogisticPer(10.0, 1.0), [5.0, np.nan]),
                   "esnr_db must be finite"),
}


@pytest.mark.parametrize("call, msg", _REFUSALS.values(), ids=_REFUSALS.keys())
def test_phy_refusals(call, msg, tmp_path):
    with pytest.raises(InvalidInputError) as exc:
        call(tmp_path)
    assert type(exc.value) is InvalidInputError
    assert str(exc.value) == msg.format(path=tmp_path / "per.csv")
