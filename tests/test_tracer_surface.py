"""The package surface that perfbench's tracer patches, checked without a workload.

The tracer replaces module attributes (``tensor.backward``, ``cli.make_example``,
``cli.train_model``, ...) from outside the package, so deleting or renaming
one breaks the benchmark; this fails first, in well under a second.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from tracer import Tracer  # noqa: E402


def test_tracer_patches_and_restores_every_attribute():
    tr = Tracer()
    before = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in tr._patches()]
    with tr.patched("op"):
        assert all(owner.__dict__[attr] is not old for owner, attr, old in before)
    assert all(owner.__dict__[attr] is old for owner, attr, old in before)
