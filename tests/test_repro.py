"""The reproduction oracles sit beside the production path: `repro` imports
the production modules, none of them imports it, and every moved name is
exported from the package as the `repro` object, with no alias left behind."""

import ast
from pathlib import Path

import pytest

import linkalloc
from linkalloc import dcf, harness, pairing, repro

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
