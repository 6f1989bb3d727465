"""Smoke tests for the scripts under demos/ and the README examples.

The sub-second demos run in full; streamline_cem and three_phase_replay
take several seconds each and run only in the CI workflow's demo step.  For every demo and every
```python block of README.md an AST walk checks that each contiform name
it imports or reads as a module attribute exists, so an API deletion
fails here rather than in a demo or a doc example nobody ran.
"""
import ast
import importlib
import inspect
import re
import runpy

import pytest
from conftest import REPO_ROOT

DEMOS = REPO_ROOT / "demos"
README_BLOCKS = re.findall(r"^```python\n(.*?)^```",
                           (REPO_ROOT / "README.md").read_text(),
                           flags=re.S | re.M)
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


def missing_references(source):
    refs = contiform_references(ast.parse(source))
    assert refs
    return [f"{mod}.{attr}" for mod, attr in refs
            if not hasattr(importlib.import_module(mod), attr)]


@pytest.mark.parametrize("path", sorted(DEMOS.glob("*.py")),
                         ids=lambda p: p.stem)
def test_demo_references_exist(path):
    assert missing_references(path.read_text()) == []


@pytest.mark.parametrize("block", README_BLOCKS, ids=[
    f"block{k + 1}" for k in range(len(README_BLOCKS))])
def test_readme_references_exist(block):
    assert missing_references(block) == []
