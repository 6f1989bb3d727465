"""Smoke tests for the scripts under demos/.

The sub-second demos run in full; streamline_cem and three_phase_replay
take several seconds each and do not run here.  For every demo an AST
walk checks that each contiform name it imports or reads as a module
attribute exists, so an API deletion fails here rather than in a demo
nobody ran.
"""
import ast
import importlib
import inspect
import runpy

import pytest
from conftest import REPO_ROOT

DEMOS = REPO_ROOT / "demos"
FAST = ("anomaly_detection", "barycentric_weights", "homogeneous_tracking",
        "reference_network")


@pytest.mark.parametrize("name", FAST)
def test_fast_demo_runs(name, capsys):
    runpy.run_path(str(DEMOS / f"{name}.py"), run_name="__main__")
    assert capsys.readouterr().out


def contiform_references(tree):
    """(module, attribute) pairs a demo reads from contiform modules."""
    modules, refs = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module \
                and node.module.split(".")[0] == "contiform":
            for alias in node.names:
                target = getattr(importlib.import_module(node.module),
                                 alias.name, None)
                if inspect.ismodule(target):
                    modules[alias.asname or alias.name] = target.__name__
                else:
                    refs.append((node.module, alias.name))
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id in modules:
            refs.append((modules[node.value.id], node.attr))
    return refs


@pytest.mark.parametrize("path", sorted(DEMOS.glob("*.py")),
                         ids=lambda p: p.stem)
def test_demo_references_exist(path):
    refs = contiform_references(ast.parse(path.read_text()))
    assert refs
    missing = [f"{mod}.{attr}" for mod, attr in refs
               if not hasattr(importlib.import_module(mod), attr)]
    assert missing == []
