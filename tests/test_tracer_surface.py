"""The package surface that perfbench's tracer patches and reads, checked without a workload.

The tracer replaces module attributes (``tensor.backward``, ``cli.make_example``,
``cli.train_model``, ...) from outside the package and samples ``tensor._tape``,
so deleting or renaming one breaks the benchmark; this fails first, in well
under a second.
"""

import sys
from pathlib import Path

import numpy as np

from pulseformer import nn_ops, tensor as T
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


def test_conv3d_and_attention_pulls_keep_their_spans():
    """The tracer names a backward span from ``pull.__qualname__``; both ops' pulls keep theirs.

    A pull moved into a helper would land on ``tensor.other_ops.bwd``. No
    model forward ran, so the attention's tokens map to no stage.
    ``depthwise_conv3d`` is a grouped ``conv3d``: its forward span holds a
    ``conv3d`` span, and its pull is ``conv3d``'s.
    """
    rng = np.random.default_rng(0)
    x = Tensor(rng.standard_normal((2, 3, 8, 6, 6), dtype=np.float32))
    w = Tensor(rng.standard_normal((4, 3, 3, 3, 3), dtype=np.float32), requires_grad=True)
    wd = Tensor(rng.standard_normal((3, 3, 3, 3), dtype=np.float32), requires_grad=True)
    q = Tensor(rng.standard_normal((1, 2, 16, 4), dtype=np.float32), requires_grad=True)
    tr = Tracer()
    with tr.patched("op"), T.record():
        y = nn_ops.conv3d(x, w, Tensor(np.zeros(4, np.float32)), pad=(1, 1, 1))
        d = nn_ops.depthwise_conv3d(x, wd)
        a = nn_ops.attention_core(q, q, q)
        T.backward(T.add(T.add(T.mean(y), T.mean(d)), T.mean(a)))
    calls = {span: tr.calls[("op", span)] for span in (
        "nn_ops.conv3d.fwd", "nn_ops.depthwise_conv3d.fwd", "nn_ops.conv3d.bwd",
        "nn_ops.depthwise_conv3d.bwd", "nn_ops.attention_core.stage_other.bwd")}
    assert calls == {"nn_ops.conv3d.fwd": 2, "nn_ops.depthwise_conv3d.fwd": 1,
                     "nn_ops.conv3d.bwd": 2, "nn_ops.depthwise_conv3d.bwd": 0,
                     "nn_ops.attention_core.stage_other.bwd": 1}
    for span in ("nn_ops.conv3d.bwd", "nn_ops.attention_core.stage_other.bwd"):
        assert tr.self_s[("op", span)] > 0
    assert w.grad is not None and wd.grad is not None and q.grad is not None
