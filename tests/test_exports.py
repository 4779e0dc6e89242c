"""The package's export list: every name resolves, and removed helpers
are not exported; every third-party module the package imports is a
declared dependency; and only the structure analysis loads scipy."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import boostcd

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "boostcd").glob("*.py"))


def _imported_modules(path):
    """The top-level module of every absolute import in ``path``, at any depth."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_every_exported_name_resolves():
    assert len(boostcd.__all__) == len(set(boostcd.__all__))
    for name in boostcd.__all__:
        assert getattr(boostcd, name) is not None, name
    namespace = {}
    exec("from boostcd import *", namespace)
    assert set(boostcd.__all__) <= set(namespace)


def test_removed_helpers_are_not_exported():
    for name in ("select_coordinate", "closed_form_step"):
        assert name not in boostcd.__all__
        assert not hasattr(boostcd, name)
        assert not hasattr(boostcd.boost, name) and not hasattr(boostcd.linesearch, name)
    # the risk at an iterate is IterateState.objective; no wrapper class
    assert "RiskFunction" not in boostcd.__all__
    assert not hasattr(boostcd, "RiskFunction") and not hasattr(boostcd.losses, "RiskFunction")


def test_every_imported_third_party_module_is_a_declared_dependency():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        declared = {re.match(r"[A-Za-z0-9_.-]+", req).group().lower().replace("-", "_")
                    for req in tomllib.load(fh)["project"]["dependencies"]}
    imported = {module for path in SOURCES for module in _imported_modules(path)}
    third_party = imported - set(sys.stdlib_module_names) - {"boostcd"}
    assert {"numpy", "scipy"} <= third_party
    assert third_party <= declared, sorted(third_party - declared)


def test_only_the_structure_engine_imports_scipy():
    importers = {path.name for path in SOURCES if "scipy" in _imported_modules(path)}
    assert importers == {"structure.py", "lp.py"}


_DESCENT_ONLY = """
import os, sys
import boostcd, boostcd.cli
from boostcd import RunConfig, make_loss, read_instance, run
boostcd.cli._build_parser()
path = os.path.join(sys.argv[1], "mixed-3x2.json")
assert boostcd.cli.main(["gen", "mixed-3x2", "--out", path]) == 0
assert boostcd.cli.main(["run", path, "--iters", "20", "--out", path + ".csv"]) == 2
inst = read_instance(path)
for kind in ("exp", "logistic"):
    for search in ("wolfe", "exact"):
        cfg = RunConfig(grad_tol=0.0, max_iters=50, line_search=search)
        assert len(run(inst, make_loss(kind, inst.m), cfg).records) == 50
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
print(boostcd.analyze(inst).regime)
"""


def test_the_descent_engine_runs_without_scipy(tmp_path):
    # a fresh interpreter imports the package and the CLI, writes and reads
    # an instance and runs both losses with both searches: no scipy module
    # is loaded until a structure name is looked up
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", _DESCENT_ONLY, str(tmp_path)],
                         capture_output=True, text=True, env=env, check=True, timeout=120)
    assert out.stdout.splitlines()[-2:] == ["[]", "mixed"]
