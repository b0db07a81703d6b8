import csv
import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import linkalloc
from linkalloc.cli import main
from linkalloc.scenario import bundled_scenario_path


def test_run_writes_csv(tmp_path):
    out = tmp_path / "run.csv"
    rc = main(["run", "--scenario", "scenario_slo", "--iterations", "3",
               "--out", str(out)])
    assert rc == 0
    rows = list(csv.reader(io.StringIO(out.read_text())))
    assert len(rows) == 4
    assert rows[0][0] == "iteration"


def test_run_json_to_stdout(capsys):
    rc = main(["run", "--scenario", "scenario_slo", "--iterations", "2",
               "--format", "json"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["results"]) == 2


def test_run_accepts_explicit_path(tmp_path):
    out = tmp_path / "run.csv"
    rc = main(["run", "--scenario", str(bundled_scenario_path("scenario_slo")),
               "--iterations", "1", "--out", str(out)])
    assert rc == 0


def test_run_missing_scenario_is_validation_exit(capsys):
    assert main(["run", "--scenario", "no_such_scenario"]) == 1
    capsys.readouterr()
    # usage errors are configuration errors too; exit 2 is for solver failures
    for argv, msg in ((["run", "--scenario", "scenario_slo", "--iterations", "abc"],
                       "argument --iterations: invalid int value: 'abc'"),
                      (["bogus"], "invalid choice: 'bogus'"),
                      (["run"], "the following arguments are required: --scenario")):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: linkalloc") and msg in err


def test_run_deterministic_outputs(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    args = ["run", "--scenario", "scenario_3ap_15sta", "--iterations", "4",
            "--seed", "9", "--solver", "greedy", "--allocator", "rr"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_run_extreme_snr_base_outcomes(tmp_path, capsys):
    args = ["run", "--scenario", "scenario_3ap_15sta", "--iterations", "2",
            "--out", str(tmp_path / "run.csv")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # every PER is 0 far above the curves' midpoints
        assert main(args + ["--snr-base", "800"]) == 0
        # 5000 dB has no finite linear SINR: a configuration error, one line
        assert main(args + ["--snr-base", "5000"]) == 1
    err = capsys.readouterr().err
    assert err == "linkalloc: SINR grid entries must be finite and > 0\n"


def test_dead_network_runs(tmp_path, capsys):
    # no link is active at these SNRs: every metric is 0, the spread 0.0
    out = str(tmp_path / "out.csv")
    dead = ["--scenario", "scenario_3ap_15sta", "--iterations", "2", "--out", out]
    assert main(["run", "--snr-base", "-30"] + dead) == 0
    assert main(["run", "--snr-base", "-30", "--allocator", "slo"] + dead) == 0
    rows = list(csv.DictReader(io.StringIO(Path(out).read_text())))
    assert {(r["aggregate_throughput_bps"], r["fairness_spread"]) for r in rows} \
        == {("0.0", "0.0")}
    assert main(["sweep", "--snr=-40,10", "--rounds", "1"] + dead) == 0
    assert capsys.readouterr().err == ""
    # NaN is no SNR, not a network without links
    assert main(["run", "--snr-base", "nan"] + dead) == 1
    assert main(["sweep", "--snr=nan", "--rounds", "1"] + dead) == 1
    assert capsys.readouterr().err == "linkalloc: SNR base must be a number, got nan\n" * 2


def test_run_slo_rejects_greedy_solver(capsys):
    args = ["run", "--scenario", "scenario_3ap_15sta", "--allocator", "slo",
            "--solver", "greedy", "--iterations", "1"]
    assert main(args) == 1
    assert capsys.readouterr().err == \
        "linkalloc: allocator 'slo' pairs with solver 'optimal' only, got 'greedy'\n"


def test_import_leaves_scipy_unloaded():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(linkalloc.__file__).parents[1]), env.get("PYTHONPATH", "")])
    code = "import sys, linkalloc; print('scipy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, check=True)
    assert proc.stdout.strip() == "False"


def test_run_slo_allocator(tmp_path):
    out = tmp_path / "slo.csv"
    rc = main(["run", "--scenario", "scenario_3ap_15sta", "--allocator", "slo",
               "--iterations", "2", "--out", str(out)])
    assert rc == 0
    rows = list(csv.reader(io.StringIO(out.read_text())))
    assert rows[1][1].startswith("slo")


def test_sweep_grid(tmp_path):
    out = tmp_path / "sweep.csv"
    rc = main(["sweep", "--scenario", "scenario_slo", "--snr", "5,10",
               "--rounds", "2", "--iterations", "2", "--out", str(out)])
    assert rc == 0
    rows = list(csv.reader(io.StringIO(out.read_text())))
    assert rows[0][0] == "snr_db"
    assert len(rows) == 3
    assert [r[0] for r in rows[1:]] == ["5.0", "10.0"]


def test_validate_dcf_within_tolerance(capsys):
    rc = main(["validate-dcf", "--contenders", "2", "--per", "0.0",
               "--slots", "30000", "--tolerance", "0.05"])
    assert rc == 0
    text = capsys.readouterr().out
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == ["n_contenders", "per", "analytic", "simulated", "rel_err"]


def test_validate_dcf_flags_exceedance(capsys):
    rc = main(["validate-dcf", "--contenders", "5", "--per", "0.1",
               "--slots", "20000", "--tolerance", "1e-6"])
    assert rc == 2


def test_oracle_dominance(capsys):
    rc = main(["oracle", "--scenario", "scenario_2ap_joint", "--stas", "4",
               "--seed", "0"])
    assert rc == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    rec = dict(zip(rows[0], rows[1]))
    assert float(rec["joint_objective_bps"]) >= float(rec["two_stage_objective_bps"]) - 1e-6


def test_check_tu_passes(capsys):
    rc = main(["check-tu", "--aps", "3", "--stas", "3", "--submatrix", "3"])
    assert rc == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert rows[0] == ["n_aps", "m_stas", "is_tu"]
    assert all(r[2] == "True" for r in rows[1:])


def test_help_exits_zero():
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
