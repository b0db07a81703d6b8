"""The reproduction oracles sit beside the production path: `repro` imports
the production modules, none of them imports it, and every moved name is
exported from the package as the `repro` object, with no alias left behind."""

import ast
from pathlib import Path

import numpy as np
import pytest

import linkalloc
from linkalloc import dcf, harness, pairing, repro
from linkalloc.errors import InvalidInputError, SizeLimitError, ValidationError
from linkalloc.pairing import PairingInstance
from linkalloc.phy import mcs_data_rate
from linkalloc.rates import RateTensor
from linkalloc.scenario import Scenario, bundled_scenario_path, load_scenario

PACKAGE = Path(linkalloc.__file__).parent
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py"))
MOVED = [
    ("build_incidence", pairing),
    ("check_total_unimodularity", pairing),
    ("TuCheckResult", pairing),
    ("solve_joint_mmkp_bruteforce", pairing),
    ("JointSolution", pairing),
    ("simulate_dcf_slots", dcf),
    ("validate_dcf", harness),
    ("compare_joint_vs_two_stage", harness),
]


def _package_imports(module: str) -> set:
    """Package modules that `module`'s source imports, read with `ast`, since
    importing the package loads `repro` whatever a module imports."""
    return _imports_in((PACKAGE / f"{module}.py").read_text())


def _imports_in(source: str) -> set:
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            if node.level == 0:     # absolute: keep only the package's own
                if parts[0] != "linkalloc":
                    continue
                parts = parts[1:]
            found.update(parts[:1] if parts and parts[0] else (a.name for a in node.names))
        elif isinstance(node, ast.Import):
            found.update(a.name.split(".")[1] for a in node.names
                         if a.name.startswith("linkalloc."))
    return found


def test_the_import_reader_sees_every_form():
    source = ("from . import phy, rates\n"
              "from .dcf import DcfParams\n"
              "from .harness.sub import x\n"
              "import numpy, linkalloc.pairing\n"
              "from linkalloc.scenario import Scenario\n"
              "from linkalloc import allocation\n"
              "from numpy import asarray\n"
              "def late():\n"
              "    from .repro import validate_dcf\n")
    assert _imports_in(source) == {"phy", "rates", "dcf", "harness", "pairing", "scenario",
                                   "allocation", "repro"}


@pytest.mark.parametrize("module", MODULES)
def test_only_cli_and_the_package_import_repro(module):
    assert ("repro" in _package_imports(module)) == (module in ("cli", "__init__"))


def test_pairing_imports_nothing_from_rates():
    assert "rates" not in _package_imports("pairing")


@pytest.mark.parametrize("name, old", MOVED, ids=[name for name, _ in MOVED])
def test_moved_names_are_exported_from_repro_only(name, old):
    assert getattr(linkalloc, name) is getattr(repro, name)
    assert name in repro.__all__
    assert not hasattr(old, name) and name not in old.__all__


def test_truncated_keeps_prefix():
    sc = load_scenario(bundled_scenario_path("scenario_2ap_joint"))
    small = repro.truncated(sc, 4)
    assert not hasattr(Scenario, "truncated")      # moved here, no alias left behind
    assert small.m_stas == 4
    assert small.sta_ids == sc.sta_ids[:4]
    # the radio counts are built once at load, read-only, and sliced along
    assert small.ap_ids is sc.ap_ids and small.ap_radios is sc.ap_radios
    assert small.sta_radios.tolist() == sc.sta_radios[:4].tolist()
    for scenario in (sc, small):
        assert scenario.sta_radio_limits() is scenario.sta_radios
        assert scenario.ap_capacities() is scenario.ap_radios
        assert scenario.sta_radio_limits() is scenario.sta_radio_limits()
        assert scenario.ap_capacities() is scenario.ap_capacities()
        assert not scenario.sta_radio_limits().flags.writeable
        assert not scenario.ap_capacities().flags.writeable


def _durations():
    return dcf.airtime_durations(dcf.DcfParams(), mcs_data_rate(3, 40))


_REFUSALS = {
    "incidence_no_ap": (lambda: repro.build_incidence(0, 3),
                        InvalidInputError, "need at least one AP and one STA"),
    "tu_empty": (lambda: repro.check_total_unimodularity(np.zeros((0, 2))),
                 InvalidInputError, "matrix must be 2-D and non-empty"),
    "tu_one_dimensional": (lambda: repro.check_total_unimodularity([1, 0]),
                           InvalidInputError, "matrix must be 2-D and non-empty"),
    "tu_entries": (lambda: repro.check_total_unimodularity([[2]]),
                   InvalidInputError, "total unimodularity requires entries in {-1, 0, 1}"),
    "tu_submatrix": (lambda: repro.check_total_unimodularity(np.eye(2), max_submatrix=0),
                     InvalidInputError, "max_submatrix must be >= 1"),
    "joint_dimensions": (lambda: repro.solve_joint_mmkp_bruteforce(
        RateTensor(np.ones((1, 2, 2))), PairingInstance(np.ones((2, 3)), [3, 3], [1, 1, 1])),
        InvalidInputError, "tensor and instance dimensions disagree"),
    "joint_leaves": (lambda: repro.solve_joint_mmkp_bruteforce(
        RateTensor(np.ones((3, 1, 16))), PairingInstance(np.ones((1, 16)), [16], [3] * 16)),
        SizeLimitError, "enumeration would visit about 2.8e+14 combinations; "
                        "reduce stations, channels, or radios"),
    "dcf_no_contenders": (lambda: repro.simulate_dcf_slots(dcf.DcfParams(), 0, 0.0, 10, 0,
                                                           _durations()),
                          InvalidInputError, "n_contenders must be >= 1"),
    "dcf_per": (lambda: repro.simulate_dcf_slots(dcf.DcfParams(), 2, 1.5, 10, 0, _durations()),
                InvalidInputError, "per must be in [0, 1], got 1.5"),
    "dcf_no_slots": (lambda: repro.simulate_dcf_slots(dcf.DcfParams(), 2, 0.0, 0, 0, _durations()),
                     InvalidInputError, "n_slots must be >= 1"),
    "truncate_to_none": (lambda: repro.truncated(load_scenario(bundled_scenario_path(
        "scenario_2ap_joint")), 0), ValidationError, "cannot truncate to 0 of 8 STAs"),
}


@pytest.mark.parametrize("call, kind, msg", _REFUSALS.values(), ids=_REFUSALS.keys())
def test_repro_refusals(call, kind, msg):
    with pytest.raises(kind) as exc:
        call()
    assert type(exc.value) is kind and str(exc.value) == msg
