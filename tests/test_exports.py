"""The package's export list: every name resolves, and removed helpers
are not exported; and every third-party module the package imports is a
declared dependency."""

import ast
import re
import sys
from pathlib import Path

import pytest

import boostcd

ROOT = Path(__file__).resolve().parent.parent


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


def test_every_imported_third_party_module_is_a_declared_dependency():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        declared = {re.match(r"[A-Za-z0-9_.-]+", req).group().lower().replace("-", "_")
                    for req in tomllib.load(fh)["project"]["dependencies"]}
    imported = set()
    for path in sorted((ROOT / "src" / "boostcd").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    third_party = imported - set(sys.stdlib_module_names) - {"boostcd"}
    assert {"numpy", "scipy"} <= third_party
    assert third_party <= declared, sorted(third_party - declared)
