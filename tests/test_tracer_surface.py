"""The package surface that perfbench's tracer patches and reads, checked without a workload.

The tracer replaces module attributes (``tensor.backward``, ``cli.make_example``,
``cli.train_model``, ...) from outside the package and samples ``tensor._tape``,
so deleting or renaming one breaks the benchmark; this fails first, in well
under a second.
"""

import sys
from pathlib import Path

import numpy as np

from pulseformer import tensor as T
from pulseformer.tensor import Tensor

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from tracer import Tracer  # noqa: E402


def test_tracer_patches_and_restores_every_attribute():
    tr = Tracer()
    before = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in tr._patches()]
    with tr.patched("op"):
        assert all(owner.__dict__[attr] is not old for owner, attr, old in before)
    assert all(owner.__dict__[attr] is old for owner, attr, old in before)


def test_sample_tape_reads_the_open_tape():
    """After one op inside record() the sample sees 1 entry of more than 0 MiB; outside, 0."""
    tr = Tracer()
    with T.record():
        y = T.elu(Tensor(np.ones(4), requires_grad=True))
        tr.sample_tape()
    tr.sample_tape()
    assert y.requires_grad
    assert tr.samples["tensor.tape_entries"] == [1, 0]
    inside, outside = tr.samples["tensor.tape_mb"]
    assert inside > 0 and outside == 0
