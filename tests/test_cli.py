import csv
import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import yaml

import linkalloc
from linkalloc import cli, repro
from linkalloc.cli import main
from linkalloc.errors import InvalidInputError, SizeLimitError
from linkalloc.repro import validate_dcf
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


def test_run_missing_scenario_is_validation_exit(tmp_path, capsys):
    assert main(["run", "--scenario", "no_such_scenario"]) == 1
    capsys.readouterr()
    # negative seeds, oversized integers and radio sums that would wrap int64
    slo = bundled_scenario_path("scenario_slo").read_text()
    bad = {"seed.yaml": slo.replace("seed: 3", "seed: -4"),
           "huge.yaml": slo.replace("{id: sta1, radios: 1,", f"{{id: sta1, radios: {10**29},"),
           "wrap.yaml": slo.replace("radios: 1, slo_channel", f"radios: {2**62}, slo_channel")}
    huge = "99999999999999999999999"
    bad["huge_seed.yaml"] = slo.replace("seed: 3", f"seed: {huge}")
    # schema refusals, each naming its field path
    def before_aps(line):
        return slo.replace("aps:", f"{line}\naps:", 1)

    refusals = {
        "cw_min.yaml": (before_aps("dcf: {cw_min: 0}"),
                        "dcf: need 1 <= cw_min <= cw_max"),
        # timings whose sum overflows would make every rate inf - inf = NaN, which no
        # step re-checks: the run is refused when its durations are built
        "dcf_overflow.yaml": (before_aps("dcf: {sifs: 1.0e308, difs: 1.0e308}"),
                              "durations must be finite"),
        "per_kind.yaml": (before_aps("per_model: {kind: bogus}"),
                          "per_model.kind: must be 'logistic' or 'table', got 'bogus'"),
        "range_one.yaml": (before_aps("snr_random_range_db: [6.0]"),
                           "snr_random_range_db: expected [lo, hi]"),
        "range_order.yaml": (before_aps("snr_random_range_db: [9.0, 6.0]"),
                             "snr_random_range_db: expected lo <= hi, got [9.0, 6.0]"),
        # a span beyond the float range; a span just inside it loads, and
        # its draws end in the PHY range check
        "range_span.yaml": (before_aps("snr_random_range_db: [-1e308, 1e308]"),
                            "snr_random_range_db: hi - lo overflows, got [-1e+308, 1e+308]"),
        "range_wide.yaml": (before_aps("snr_random_range_db: [-8e307, 8e307]"),
                            "a link SNR of "),
        # a base plus an offset beyond the float range, with no overflow warning
        "sum_overflow.yaml": (slo.replace("snr_base_db: 20.0", "snr_base_db: 1.0e308")
                              .replace("{ap1: 0.0, ap2: -6.0}", "1.0e308"),
                              "a link SNR of inf dB is out of the PHY model's range"),
        "rr_missing.yaml": (before_aps("rr_weights: {}"),
                            "rr_weights: missing weight for channel 1"),
        "offset_list.yaml": (slo.replace("{ap1: 0.0, ap2: -6.0}", "[0.0, -6.0]"),
                             "stas[0].snr_offset_db: expected a number or mapping, "
                             "got [0.0, -6.0]"),
        "band.yaml": (slo.replace("band: 5GHz", "band: 7GHz"),
                      "channels[0].band: must be one of ['2.4GHz', '5GHz', '6GHz'], "
                      "got '7GHz'"),
        "width.yaml": (slo.replace("bandwidth_mhz: 40", "bandwidth_mhz: 30"),
                       "channels[0].bandwidth_mhz: must be 20/40/80/160, got 30"),
        "mcs.yaml": (slo.replace("bandwidth_mhz: 40, mcs: 3", "bandwidth_mhz: 40, mcs: 14"),
                     "channels[0].mcs: unknown MCS 14"),
    }
    bad.update((name, text) for name, (text, _) in refusals.items())
    for name, text in bad.items():
        (tmp_path / name).write_text(text)
    # one seed rule, 0 <= seed < 2**63, with one message for YAML and flags
    beyond = f"seed: integer {huge} is outside the signed 64-bit range"
    for argv, msg in ((["run", "--scenario", "scenario_slo", "--seed", "-1"],
                       "seed must be >= 0, got -1"),
                      (["oracle", "--seed", "-3"], "seed must be >= 0, got -3"),
                      (["run", "--scenario", "scenario_slo", "--seed", huge], beyond),
                      (["oracle", "--seed", huge], beyond),
                      (["run", "--scenario", str(tmp_path / "huge_seed.yaml")], beyond),
                      (["sweep", "--scenario", "scenario_slo", "--rounds", "1",
                        "--workers", "0"], "workers must be >= 1, got 0"),
                      (["sweep", "--scenario", "scenario_slo", "--rounds", "1",
                        "--workers", "-3"], "workers must be >= 1, got -3"),
                      (["run", "--scenario", str(tmp_path / "seed.yaml")], "seed must be >= 0"),
                      (["run", "--scenario", str(tmp_path / "huge.yaml")],
                       "stas[0].radios: integer 1000"),
                      (["run", "--scenario", str(tmp_path / "wrap.yaml")],
                       "aps[0].radios: must be in [1, 2147483647]"),
                      # one MCS rule for run-time MCS too, a sweep's before the pool
                      (["run", "--scenario", "scenario_slo", "--mcs", "12"],
                       "mcs_override: unknown MCS 12"),
                      (["run", "--scenario", "scenario_slo", "--mcs", "-1"],
                       "mcs_override: unknown MCS -1"),
                      (["sweep", "--scenario", "scenario_3ap_15sta", "--mcs", "3,12",
                        "--rounds", "2", "--workers", "2"], "mcs_override: unknown MCS 12"),
                      (["validate-dcf", "--mcs", "12"], "mcs_index: unknown MCS 12"),
                      # an empty grid, before any job reaches the pool
                      *((["sweep", "--scenario", "scenario_3ap_15sta", grid, ",",
                          "--workers", workers], f"a sweep needs at least one {what} point")
                        for grid, what in (("--snr", "SNR"), ("--mcs", "MCS"))
                        for workers in ("1", "2")),
                      *((["run", "--scenario", str(tmp_path / name)], msg)
                        for name, (_, msg) in refusals.items())):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"linkalloc: {msg}") and err.count("\n") == 1
    # usage errors are configuration errors too; exit 2 is for solver failures
    for argv, msg in ((["run", "--scenario", "scenario_slo", "--iterations", "abc"],
                       "argument --iterations: invalid int value: 'abc'"),
                      (["bogus"], "invalid choice: 'bogus'"),
                      (["sweep", "--scenario", "scenario_slo", "--snr", "5,x"],
                       "argument --snr: expected comma-separated numbers: '5,x'"),
                      (["sweep", "--scenario", "scenario_slo", "--mcs", "3,x"],
                       "argument --mcs: expected comma-separated integers: '3,x'"),
                      (["run"], "the following arguments are required: --scenario")):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: linkalloc") and msg in err


@pytest.mark.parametrize("parser", ["libyaml", "pure-python"])
def test_yaml_syntax_error_is_one_line(parser, tmp_path, capsys, monkeypatch):
    if parser == "pure-python":
        monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
    elif not yaml.__with_libyaml__:
        pytest.skip("PyYAML was built without libyaml")
    # the two parsers word a problem differently but mark the same place;
    # a reader error (a control character, a byte that is not UTF-8) carries
    # a position, not a mark
    malformed = {"unclosed_flow": (b"name: bad\nchannels: [{id: 1, band: 5GHz\naps: []\n",
                                   "line 3, column 4: "),
                 "tab_indent": (b"name: bad\nchannels:\n\t- {id: 1}\n", "line 3, column 1: "),
                 "dedented_item": (b"name: bad\nchannels:\n  - id: 1\n - id: 2\n",
                                   "line 4, column 2: "),
                 "control_char": (b"name: bad\x07\n", "unacceptable character #x0007: "),
                 "not_utf8": (b"name: \xff\n", "position 6"),
                 # scalars PyYAML cannot build: a tagged one falls back to yaml.load, which
                 # marks no place; the walk marks where a plain one starts
                 "bad_int": (b"seed: !!int abc\n", "invalid literal for int() with base 10"),
                 # PyYAML's constructors read a tagged text unchecked: a bool looks it up,
                 # an int or float indexes its first character, a date reads a failed match
                 "bad_bool": (b"seed: !!bool maybe\n",
                              "a tagged scalar PyYAML cannot build (KeyError: 'maybe')"),
                 "digit_bool": (b"seed: !!bool 5\n", "(KeyError: '5')"),
                 "empty_int": (b"seed: !!int ''\n", "(IndexError: string index out of range)"),
                 "not_a_date": (b"name: !!timestamp abc\n", "(AttributeError: "),
                 "bad_float": (b"snr_base_db: !!float abc\n", "could not convert string to float"),
                 "bad_date": (b"name: !!timestamp 2001-13-45\n", "month must be in 1..12"),
                 "long_int": (b"name: x\nseed: " + b"7" * 5000 + b"\n",
                              "line 2, column 7: Exceeds the limit (4300 digits)")}
    for name, (text, where) in malformed.items():
        path = tmp_path / f"{name}.yaml"
        path.write_bytes(text)
        assert main(["run", "--scenario", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("linkalloc: scenario is not valid YAML: ") and where in err, err
        assert err.count("\n") == 1, err


def _per_table_scenario(tmp_path, table: str) -> tuple:
    """argv running scenario_slo with every MCS's PER read from `table`, and
    the file name the error should give."""
    slo = bundled_scenario_path("scenario_slo").read_text()
    tables = ", ".join(f"{mcs}: {table}" for mcs in range(12))
    path = tmp_path / "table.yaml"
    per_model = f"per_model: {{kind: table, tables: {{{tables}}}}}\n"
    path.write_text(slo.replace("aps:", per_model + "aps:", 1))
    return ["run", "--scenario", str(path), "--iterations", "1"], table


def _per_table(tmp_path, body: bytes) -> tuple:
    (tmp_path / "per.csv").write_bytes(b"esnr_db,per\n" + body)
    return _per_table_scenario(tmp_path, "per.csv")


def _run_out(path) -> tuple:
    return ["run", "--scenario", "scenario_slo", "--iterations", "1", "--out", str(path)], \
        str(path)


_UNREADABLE_FILES = {
    "scenario_is_dir": lambda tmp: (["run", "--scenario", str(tmp)], str(tmp)),
    "out_is_dir": lambda tmp: _run_out(tmp),
    "out_dir_missing": lambda tmp: _run_out(tmp / "missing" / "x.csv"),
    "table_is_dir": lambda tmp: (tmp / "per.csv").mkdir() or _per_table_scenario(tmp, "per.csv"),
    "table_missing": lambda tmp: _per_table_scenario(tmp, "per.csv"),
    "table_not_numeric": lambda tmp: _per_table(tmp, b"0,abc\n10,0\n"),
    "table_three_fields": lambda tmp: _per_table(tmp, b"0,1,0\n10,0\n"),
    "table_one_field": lambda tmp: _per_table(tmp, b"0\n10,0\n"),
    "table_not_utf8": lambda tmp: _per_table(tmp, b"0,1\n10,\xff0\n"),
    "table_nan_per": lambda tmp: _per_table(tmp, b"0,nan\n10,0\n"),
    "table_field_limit": lambda tmp: _per_table(tmp, b"0,1\n10," + b"0" * 200_000 + b"\n"),
}


@pytest.mark.parametrize("case", sorted(_UNREADABLE_FILES))
def test_unreadable_files_fail_in_one_line(case, tmp_path, capsys):
    argv, name = _UNREADABLE_FILES[case](tmp_path)
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("linkalloc: ") and err.count("\n") == 1, err
    assert name in err and "Traceback" not in err


@pytest.mark.parametrize("case", ["range_span", "sum_overflow"])
def test_snr_beyond_the_float_range_exits_1_in_one_line(case, tmp_path):
    # no traceback and no numpy warning: the loader refuses a span that
    # overflows, and a base plus an offset that overflows reaches the PHY range check
    slo = bundled_scenario_path("scenario_slo").read_text()
    text, msg = {
        "range_span": (slo.replace("aps:", "snr_random_range_db: [-1e308, 1e308]\naps:", 1),
                       "snr_random_range_db: hi - lo overflows, got [-1e+308, 1e+308]"),
        "sum_overflow": (slo.replace("snr_base_db: 20.0", "snr_base_db: 1.0e308")
                         .replace("{ap1: 0.0, ap2: -6.0}", "1.0e308"),
                         "a link SNR of inf dB is out of the PHY model's range: "
                         "its linear value must be finite and > 0"),
    }[case]
    path = tmp_path / f"{case}.yaml"
    path.write_text(text)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(linkalloc.__file__).parents[1]), env.get("PYTHONPATH", "")])
    proc = subprocess.run([sys.executable, "-m", "linkalloc", "run", "--scenario", str(path)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", f"linkalloc: {msg}\n")


@pytest.mark.parametrize("w", [1, 2 ** 62])
def test_every_backoff_ladder_the_loader_accepts_runs(w, tmp_path, capsys):
    # W = 1 sends in every slot (tau = 1); W = 2**62 puts tau below 1e-12
    fixture = bundled_scenario_path("scenario_3ap_15sta").read_text()
    path = tmp_path / "ladder.yaml"
    path.write_text(fixture + f"dcf: {{cw_min: {w}, cw_max: {w}, m_max_backoff_stages: 0}}\n")
    argv = ["run", "--scenario", str(path), "--iterations", "3"]
    assert main(argv) == 0
    out = capsys.readouterr()
    assert out.err == "" and out.out.count("\n") == 4
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(linkalloc.__file__).parents[1]), env.get("PYTHONPATH", "")])
    proc = subprocess.run([sys.executable, "-m", "linkalloc"] + argv,
                          capture_output=True, text=True, env=env, timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, out.out, "")


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
        # a link SNR whose linear value overflows to inf or underflows to 0,
        # from the base or from an offset in the file, is a configuration
        # error naming that SNR, one line
        assert main(args + ["--snr-base", "5000"]) == 1
        assert main(args + ["--snr-base=-5000"]) == 1
        slo = bundled_scenario_path("scenario_slo").read_text()
        offset = tmp_path / "offset.yaml"
        offset.write_text(slo.replace("{ap1: -6.0, ap2: 0.0}", "{ap1: 5000, ap2: 0.0}"))
        assert main(["run", "--scenario", str(offset), "--iterations", "2"]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"linkalloc: a link SNR of {snr} dB is out of the PHY model's range: "
        "its linear value must be finite and > 0"
        for snr in ("5001.28", "-4998.72", "5020.0")]


def test_snr_base_past_the_phy_range_exits_1_in_one_line():
    # 1e308 plus each offset stays finite, far above the PHY ceiling: refused in
    # one line naming the first link's SNR, with no numpy warning under -W error
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(linkalloc.__file__).parents[1]), env.get("PYTHONPATH", "")])
    proc = subprocess.run([sys.executable, "-W", "error", "-m", "linkalloc", "run", "--scenario",
                           "scenario_3ap_15sta", "--snr-base", "1e308"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        1, "", "linkalloc: a link SNR of 1e+308 dB is out of the PHY model's range: "
               "its linear value must be finite and > 0\n")


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
    # both objectives are 0, and the two-stage value never exceeds the joint
    # optimum, so the ratio is 1.0 (JSON has no Infinity)
    text = bundled_scenario_path("scenario_2ap_joint").read_text()
    text = text.replace("snr_base_db: 7.5", "snr_base_db: -40")
    text = "\n".join(line for line in text.splitlines()
                     if not line.startswith("snr_random_range_db"))
    scenario = tmp_path / "dead.yaml"
    scenario.write_text(text)
    assert main(["oracle", "--scenario", str(scenario), "--stas", "3,4", "--format", "json"]) == 0

    def no_constant(name):
        raise AssertionError(f"not valid JSON: {name}")

    records = json.loads(capsys.readouterr().out, parse_constant=no_constant)["oracle"]
    assert [(r["two_stage_objective_bps"], r["joint_objective_bps"], r["ratio"])
            for r in records] == [(0.0, 0.0, 1.0)] * 2
    # every frame errored: model and simulator both read 0.0, which agree
    assert main(["validate-dcf", "--per", "1.0", "--contenders", "2", "--slots", "2000",
                 "--tolerance", "0.05", "--format", "json"]) == 0
    (record,) = json.loads(capsys.readouterr().out, parse_constant=no_constant)["validate_dcf"]
    assert (record["analytic"], record["simulated"], record["rel_err"]) == (0.0, 0.0, 0.0)
    # NaN and the infinities are no SNR, not a network without links
    # (also where the scenario draws each link's base and never reads it)
    drawn = ["--scenario", "scenario_2ap_joint", "--iterations", "2", "--out", out]
    for value in ("nan", "inf", "-inf"):
        assert main(["run", f"--snr-base={value}"] + dead) == 1
        assert main(["sweep", f"--snr={value}", "--rounds", "1"] + dead) == 1
        assert main(["run", f"--snr-base={value}"] + drawn) == 1
        assert capsys.readouterr().err == \
            f"linkalloc: SNR base must be a finite number, got {value}\n" * 3


def test_explicit_snr_base_refused_where_bases_are_drawn(capsys):
    # scenario_2ap_joint draws each link's base from [6, 9] dB on every run,
    # so a base given to run or sweep could only be reported, never used
    drawn = ["--scenario", "scenario_2ap_joint", "--iterations", "2"]
    refused = ("linkalloc: scenario scenario_2ap_joint draws each link's SNR base from "
               "its snr_random_range_db [6.0, 9.0], so it takes no SNR base (got 5.0)\n")
    for argv in (["run", "--snr-base", "5"] + drawn,
                 ["sweep", "--snr", "5,50", "--rounds", "1"] + drawn,
                 ["sweep", "--snr", "5", "--rounds", "2", "--workers", "2"] + drawn):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", refused), argv
    # without one, the scenario's own base is reported
    assert main(["run"] + drawn) == 0
    assert main(["sweep", "--rounds", "1"] + drawn) == 0
    out = capsys.readouterr().out.splitlines()
    assert [line.split(",")[2] for line in out[1:3]] == ["7.5", "7.5"]
    assert out[-1].startswith("7.5,mixed,1,")


def test_run_slo_rejects_greedy_solver(capsys):
    args = ["run", "--scenario", "scenario_3ap_15sta", "--allocator", "slo",
            "--solver", "greedy", "--iterations", "1"]
    assert main(args) == 1
    assert capsys.readouterr().err == \
        "linkalloc: allocator 'slo' pairs with solver 'optimal' only, got 'greedy'\n"


def test_import_leaves_scipy_unloaded(tmp_path):
    # neither scipy nor the process pool, which only `sweep --workers` uses;
    # scipy is a test dependency, so no command on the fixtures loads it either
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(linkalloc.__file__).parents[1]), env.get("PYTHONPATH", "")])
    code = ("import sys, linkalloc; "
            "print('scipy' in sys.modules, 'concurrent.futures.process' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, check=True)
    assert proc.stdout.strip() == "False False"

    out = ["--out", str(tmp_path / "out.csv")]
    commands = (["run", "--scenario", "scenario_3ap_15sta"],
                ["sweep", "--scenario", "scenario_3ap_15sta", "--rounds", "1",
                 "--iterations", "5"],
                ["oracle"])
    code = ("import sys; from linkalloc.cli import main; "
            "rc = main(sys.argv[1:]); print(rc, 'scipy' in sys.modules)")
    for argv in commands:
        proc = subprocess.run([sys.executable, "-c", code, *argv, *out], capture_output=True,
                              text=True, env=env, check=True)
        assert proc.stdout.strip() == "0 False", (argv, proc.stdout, proc.stderr)


def _refuse(*args, **kwargs):
    raise AssertionError("the run started before --out was checked")


@pytest.mark.parametrize("argv, entry", [
    (["run", "--scenario", "scenario_3ap_15sta"], "run_apc_loop"),
    (["sweep", "--scenario", "scenario_3ap_15sta", "--rounds", "1"], "run_monte_carlo"),
    (["oracle"], "compare_joint_vs_two_stage"),
])
def test_bad_out_fails_before_the_work(argv, entry, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(f"linkalloc.cli.{entry}", _refuse)
    for bad in (tmp_path, tmp_path / "missing" / "x.csv"):
        assert main(argv + ["--out", str(bad)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"linkalloc: cannot write {bad}: ") and err.count("\n") == 1, err
    assert list(tmp_path.iterdir()) == []


def test_out_check_keeps_an_existing_file(tmp_path):
    out = tmp_path / "kept.csv"
    out.write_text("earlier results\n")
    argv = ["run", "--scenario", "scenario_3ap_15sta", "--out", str(out)]
    assert main(argv + ["--snr-base", "nan"]) == 1     # fails after the check
    assert out.read_text() == "earlier results\n"
    assert main(argv + ["--iterations", "1"]) == 0
    assert out.read_text().startswith("iteration,")
    fresh = tmp_path / "fresh.csv"
    assert main(["run", "--scenario", "scenario_3ap_15sta", "--snr-base", "nan",
                 "--out", str(fresh)]) == 1
    assert not fresh.exists()


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


def test_validate_dcf_bandwidth_reaches_the_model(capsys):
    # the PHY rate, and so the airtime and the analytic throughput, follow the bandwidth
    argv = ["validate-dcf", "--contenders", "5", "--per", "0.1", "--slots", "2000",
            "--format", "json"]

    def records(extra):
        assert main(argv + extra) == 0
        return json.loads(capsys.readouterr().out)["validate_dcf"]

    at_40 = records([])
    for bandwidth in (20, 80):
        got = records(["--bandwidth", str(bandwidth)])
        assert got == validate_dcf(contenders=[5], pers=[0.1], bandwidth_mhz=bandwidth,
                                   n_slots=2000)
        assert [r["analytic"] for r in got] != [r["analytic"] for r in at_40]
        assert [r["simulated"] for r in got] != [r["simulated"] for r in at_40]


@pytest.mark.parametrize("tolerance", ["nan", "-0.1"])
def test_validate_dcf_rejects_unusable_tolerance(tolerance, capsys):
    # NaN would compare false against every error and pass unchecked
    assert main(["validate-dcf", "--contenders", "2", "--per", "0.0", "--slots", "2000",
                 f"--tolerance={tolerance}"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""       # refused before any simulation
    assert captured.err == f"linkalloc: --tolerance must be a number >= 0, got {float(tolerance)}\n"


def test_validate_dcf_refuses_a_negative_seed(capsys):
    # the one seed rule, before any simulation
    assert main(["validate-dcf", "--contenders", "2", "--per", "0.0", "--seed", "-1"]) == 1
    assert capsys.readouterr() == ("", "linkalloc: seed must be >= 0, got -1\n")


def test_validate_dcf_refuses_a_count_the_replay_cannot_hold(monkeypatch, capsys):
    # every count is checked before the first cell: nothing is solved, timed or replayed
    for name in ("solve_bianchi_fixed_point", "airtime_durations", "simulate_dcf_slots"):
        monkeypatch.setattr(repro, name, mock.Mock(side_effect=AssertionError(name)))
    cap = repro.MAX_REPLAY_CONTENDERS
    for n in (2**63, cap + 1, 0):
        msg = f"a contender count must be an integer from 1 to {cap}, got {n}"
        with pytest.raises(InvalidInputError, match=f"^{msg}$"):
            validate_dcf(contenders=[2, n])
        assert main(["validate-dcf", "--contenders", f"2,{n}"]) == 1
        assert capsys.readouterr() == ("", f"linkalloc: {msg}\n")


def test_validate_dcf_refuses_a_replay_past_its_caps(monkeypatch, capsys):
    # slots and slots x contenders are checked for every count before the first
    # cell: nothing is solved, timed or replayed, and inputs at the caps pass
    for name in ("solve_bianchi_fixed_point", "airtime_durations", "simulate_dcf_slots"):
        monkeypatch.setattr(repro, name, mock.Mock(side_effect=AssertionError(name)))
    slots, work = repro.MAX_REPLAY_SLOTS, repro.MAX_REPLAY_WORK
    for n_slots, counts in ((slots + 1, [1]), (work // 1024 + 1, [2, 1024]),
                            (work // 2**20 + 1, [2, 2**20])):
        msg = (f"{n_slots} slots x {counts[-1]} contenders exceeds the replay's caps of "
               f"{slots} slots and {work} slot-contenders")
        with pytest.raises(SizeLimitError, match=f"^{msg}$"):
            validate_dcf(contenders=counts, n_slots=n_slots)
        argv = ["validate-dcf", "--slots", str(n_slots), "--contenders", ",".join(map(str, counts))]
        assert main(argv) == 2
        assert capsys.readouterr() == ("", f"linkalloc: {msg}\n")
    for n_slots, counts in ((slots, [1, 2]), (work // 1024, [1024]), (200_000, [2, 5, 10, 20])):
        with pytest.raises(AssertionError, match="airtime_durations"):
            validate_dcf(contenders=counts, n_slots=n_slots)


def test_check_tu_refuses_an_enumeration_past_its_cap(monkeypatch, capsys):
    # the cap is read off the arguments before any matrix is built: order 7
    # on the default grid is refused, and the defaults and order 6 go on to the enumeration
    for name in ("build_incidence", "check_total_unimodularity"):
        monkeypatch.setattr(cli, name, mock.Mock(side_effect=AssertionError(name)))
    msg = f"linkalloc: check-tu would reach more than {repro.MAX_TU_WORK} determinants\n"
    for args in (["--submatrix", "7"], ["--aps", "8", "--stas", "8", "--submatrix", "6"],
                 ["--aps", "1000000000", "--stas", "1000000000", "--submatrix", "1000000000"],
                 ["--aps", "1000000000", "--stas", "1", "--submatrix", "0"]):
        assert main(["check-tu", *args]) == 2, args
        assert capsys.readouterr() == ("", msg)
    for args in ([], ["--submatrix", "6"], ["--aps", "2", "--stas", "30", "--submatrix", "3"]):
        with pytest.raises(AssertionError, match="build_incidence"):
            main(["check-tu", *args])


@pytest.mark.parametrize("aps, stas, order", [(3, 3, 4), (2, 5, 3), (4, 3, 5), (1, 4, 6)])
def test_check_tu_cap_counts_no_less_than_the_enumeration_reaches(monkeypatch, capsys,
                                                                  aps, stas, order):
    # the enumeration's row subsets (one np.unique each, counted as 60) and its
    # determinants, counted as it runs: a cap one below them refuses the grid
    reached = []
    unique, det = np.unique, np.linalg.det
    monkeypatch.setattr(repro.np, "unique", lambda *a, **k: reached.append(60) or unique(*a, **k))
    monkeypatch.setattr(repro.np.linalg, "det", lambda m: reached.append(len(m)) or det(m))
    argv = ["check-tu", "--aps", str(aps), "--stas", str(stas), "--submatrix", str(order)]
    assert main(argv) == 0 and sum(reached) > 0
    capsys.readouterr()
    monkeypatch.setattr(cli, "MAX_TU_WORK", sum(reached) - 1)
    assert main(argv) == 2
    assert "check-tu would reach more than" in capsys.readouterr().err


def test_solver_failures_exit_2(tmp_path, capsys):
    crowded = tmp_path / "crowded.yaml"
    crowded.write_text("channels:\n  - {id: 1, band: 5GHz, bandwidth_mhz: 40, mcs: 3}\n"
                       "aps:\n  - {id: ap1, radios: 1}\n"
                       "stas:\n  - {id: sta1, radios: 1, snr_offset_db: 0.0}\n"
                       "  - {id: sta2, radios: 1, snr_offset_db: 0.0}\n")
    for argv, msg in ((["oracle", "--scenario", "scenario_3ap_15sta"],
                       "3 APs x 15 STAs exceeds the 16-cell enumeration cap"),
                      (["run", "--scenario", str(crowded)],
                       "total AP capacity 1 cannot serve 2 stations")):
        assert main(argv) == 2
        assert capsys.readouterr() == ("", f"linkalloc: {msg}\n")


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


def _table(capsys, argv) -> list:
    assert main(argv) == 0
    return list(csv.DictReader(io.StringIO(capsys.readouterr().out)))


def test_timing_flag_fills_only_the_wall_columns(capsys):
    for argv, walls in (
            (["run", "--scenario", "scenario_3ap_15sta", "--iterations", "5"],
             ["wall_time_s"]),
            (["oracle", "--scenario", "scenario_2ap_joint", "--stas", "3,4", "--seed", "0"],
             ["two_stage_wall_s", "joint_wall_s"])):
        plain, timed = _table(capsys, argv), _table(capsys, argv + ["--timing"])
        assert all(row[w] == "0.0" for row in plain for w in walls)
        assert all(float(row[w]) > 0 for row in timed for w in walls)
        blank = dict.fromkeys(walls)
        assert [dict(row, **blank) for row in timed] == [dict(row, **blank) for row in plain]


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


def test_readme_library_example_runs(capsys):
    # the README's library example runs as printed, so a renamed or removed
    # public name fails here
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("## Library", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 5 and lines[1].startswith("sta")
    assert lines[4] == "(3, 3, 15) (3, 3) [0, 1, 2]"


@pytest.mark.parametrize("token", ["{tmp}/missing/x.yaml", "missing/x.yaml", "x.yaml"],
                         ids=["absolute", "relative", "yaml_suffix"])
def test_scenario_path_that_names_no_file_refused(token, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    token = token.format(tmp=tmp_path)
    assert main(["run", "--scenario", token]) == 1
    assert capsys.readouterr() == ("", f"linkalloc: scenario file not found: {token}\n")
