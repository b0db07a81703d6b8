"""Tests of the benchmark itself: python3 -m pytest bench"""

import io
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import linkalloc
from checks import CONFIGURATION, OTHER, SOLVER, Outcomes, check_pairing
from run import ROOT, run
from spans import Tracer
from synth import synth_yaml
from workloads import WORKLOADS, ControllerWorkload, LadderWorkload

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def test_synth_same_seed_same_bytes():
    text = synth_yaml(3, n_aps=6, m_stas=20)
    assert text == synth_yaml(3, n_aps=6, m_stas=20)
    assert text != synth_yaml(4, n_aps=6, m_stas=20)
    sc = linkalloc.load_scenario(io.StringIO(text))
    assert (sc.n_aps, sc.m_stas, sc.f_count) == (6, 20, 3)
    assert all(len(sta.snr_offsets_db) == 4 for sta in sc.stas)
    assert set(sc.sta_radio_limits()) <= {1, 2, 3}
    assert (sc.ap_capacities() == 5).all()          # ceil(1.5 * 20 / 6)


def test_names_and_workloads_match_the_spec():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)
    assert len(names) == len(set(names))
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert "setup_s" in [m["name"] for m in SPEC["end_to_end"]]


def test_outcomes_are_counted_by_class():
    outcomes = Outcomes()

    def fail(exc):
        raise exc

    assert outcomes.attempt(lambda: 7) == 7
    outcomes.attempt(fail, linkalloc.ValidationError("bad field"))
    outcomes.attempt(fail, linkalloc.SolverError("no vertex"))
    outcomes.attempt(fail, KeyError("boom"))
    assert outcomes.attempted == 4
    assert outcomes.failed == {CONFIGURATION: 1, SOLVER: 1, OTHER: 1}


def test_pairing_check_rejects_a_suboptimal_pairing():
    # greedy takes (ap0, sta0) = 10 first and strands sta1 on ap1 = 1
    inst = linkalloc.PairingInstance(d=[[10.0, 9.0], [8.0, 1.0]], ap_capacity=[1, 1],
                                     sta_radio_limits=[1, 1])
    assert check_pairing(inst, linkalloc.pair_optimal_lp(inst), optimal=True) == []
    greedy = linkalloc.pair_greedy(inst)
    assert check_pairing(inst, greedy, optimal=False) == []
    assert check_pairing(inst, greedy, optimal=True)


def test_tracer_patches_where_looked_up_and_restores():
    original = linkalloc.harness.build_rate_tensor
    sc = linkalloc.load_scenario(linkalloc.bundled_scenario_path("scenario_3ap_15sta"))
    tracer = Tracer()
    with tracer.patched([("linkalloc.harness", "build_rate_tensor", "rates.tensor"),
                         ("linkalloc.harness", "no_such_name", "gone")]):
        linkalloc.run_apc_loop(sc, iterations=2)
    assert linkalloc.harness.build_rate_tensor is original
    assert tracer.missing == {"linkalloc.harness.no_such_name"}
    assert [s.name for s in tracer.spans] == ["rates.tensor"] * 2


TINY = (
    ControllerWorkload("tiny-synth", check_steps=3, synth_size=(4, 24)),
    LadderWorkload("tiny-ladder", iterations=2, snrs=(20.0,), mcs=(3,)),
)


@pytest.mark.parametrize("workload", TINY, ids=lambda w: w.name)
@pytest.mark.parametrize("trace", (False, True))
def test_tiny_run_passes_its_checks(workload, trace):
    details = run(workload, seed=1, seconds=0.2, trace=trace)
    res = details["result"]
    assert details["problems"] == []
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    kind = "per_layer" if trace else "end_to_end"
    assert list(res["metrics"]) == [m["name"] for m in SPEC[kind]]
    for spec in SPEC[kind]:
        assert res["metrics"][spec["name"]]["unit"] == spec["unit"]


def test_refuses_to_run_without_the_package_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run([sys.executable, "bench/run.py", "--workload", "fixture-pf",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
