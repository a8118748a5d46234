"""The demos are not run by the test suite, so check here that every name
they import from the package still exists."""

import ast
import glob
import importlib
import os

import pytest

DEMOS = sorted(glob.glob(os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "demos", "*.py")))


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=os.path.basename)
def test_demo_imports_resolve(path):
    tree = ast.parse(open(path).read(), filename=path)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module and (
                node.module.split(".")[0] == "cyclicff"):
            module = importlib.import_module(node.module)
            for alias in node.names:
                assert hasattr(module, alias.name), (
                    f"{os.path.basename(path)}: {node.module}.{alias.name}")
