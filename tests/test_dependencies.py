"""numpy is the only runtime dependency: every module imports without scipy."""

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
