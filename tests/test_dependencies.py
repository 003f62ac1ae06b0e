"""numpy is the only runtime dependency: every module imports without scipy.

metrics, which works on plain arrays, imports nothing from preprocess, so
preprocess can import metrics without a cycle.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pulseformer

IMPORT_ALL = """
import importlib, pkgutil, sys
sys.modules["scipy"] = None   # any import of scipy now raises ImportError
import pulseformer
for m in pkgutil.iter_modules(pulseformer.__path__):
    importlib.import_module("pulseformer." + m.name)
    print(m.name)
"""


def test_every_module_imports_with_scipy_blocked():
    src = str(Path(pulseformer.__file__).resolve().parent.parent)
    done = subprocess.run([sys.executable, "-c", IMPORT_ALL], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert done.returncode == 0, done.stderr
    assert {"cli", "model", "tensor", "training"} <= set(done.stdout.split())


def test_metrics_imports_nothing_from_preprocess():
    tree = ast.parse((Path(pulseformer.__file__).parent / "metrics.py").read_text())
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            names += [f"{node.module or ''}.{a.name}" for a in node.names]
    assert names and not [n for n in names if "preprocess" in n.split(".")]
