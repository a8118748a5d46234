"""Demos 01 and 02 take well under a second, so they are run here and must
exit 0. The others only have their package imports resolved: 03 takes
about 4 s, 04 about four minutes, and 05 needs the MNIST files."""

import ast
import glob
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = sorted(glob.glob(os.path.join(ROOT, "demos", "*.py")))
FAST_DEMOS = ["01_graph_topologies.py", "02_single_neuron_goodness.py"]


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=os.path.basename)
def test_demo_imports_resolve(path):
    tree = ast.parse(Path(path).read_text(), filename=path)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module and (
                node.module.split(".")[0] == "cyclicff"):
            module = importlib.import_module(node.module)
            for alias in node.names:
                assert hasattr(module, alias.name), (
                    f"{os.path.basename(path)}: {node.module}.{alias.name}")


@pytest.mark.parametrize("name", FAST_DEMOS)
def test_fast_demo_runs(name):
    paths = [os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "demos", name)],
                          capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
