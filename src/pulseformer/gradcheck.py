"""Finite-difference validation of autodiff gradients.

Each check builds a scalar loss from seeded random inputs, runs one
backward pass, then compares against central differences with the spec'd
reporting: max over elements of |g_ad - g_fd| / max(1, |g_fd|). Float32
rounding would swamp the differences, so every check makes its tensors and
its model inside ``float64()``, and its whole graph is float64.

``OP_CASES`` is the one table of differentiable ops, which the float32
storage tests read too: one entry per op that records a pull, as its input
shapes and the op applied to tensors of them. Every op check is the mse loss
of the op's output against a drawn target, with every input standard
normal; unlike a plain mean, that loss gives a normalised output's input a
gradient.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from . import nn_ops, tensor as T
from .errors import PulseformerError
from .model import ModelConfig, MultiscaleVideoTransformer
from .tensor import Tensor, float64, record

FD_STEP = 1e-5
SEEDS = (0, 1, 2)   # of the op suite and the end-to-end check


def max_relative_error(build_loss: Callable[[], Tensor], params: Sequence[Tensor],
                       sample: int | None = None,
                       rng: np.random.Generator | None = None) -> float:
    """Compare autodiff and central-difference gradients for ``params``.

    ``build_loss`` must rebuild the graph from the current parameter values
    on every call. When ``sample`` is given, only that many randomly chosen
    elements are probed (for expensive end-to-end graphs). Every param must
    be float64, made inside ``float64()``; both the autodiff and the
    finite-difference passes run under it, and only the autodiff pass
    records.
    """
    for p in params:
        if p.data.dtype != np.float64:
            raise PulseformerError(
                f"gradient check needs float64 params, got {p.data.dtype}: "
                "make them inside tensor.float64()")
    with float64():
        for p in params:
            p.grad = None
        with record():
            T.backward(build_loss())
        grads = [p.grad.copy() if p.grad is not None else np.zeros_like(p.data) for p in params]

        coords = [(pi, j) for pi, p in enumerate(params) for j in range(p.size)]
        if sample is not None and sample < len(coords):
            if rng is None:
                rng = np.random.default_rng(0)
            pick = rng.choice(len(coords), size=sample, replace=False)
            coords = [coords[i] for i in pick]

        worst = 0.0
        for pi, j in coords:
            flat = params[pi].data.reshape(-1)
            keep = flat[j]
            flat[j] = keep + FD_STEP
            up = build_loss().item()
            flat[j] = keep - FD_STEP
            dn = build_loss().item()
            flat[j] = keep
            g_fd = (up - dn) / (2 * FD_STEP)
            g_ad = grads[pi].reshape(-1)[j]
            err = abs(g_ad - g_fd) / max(1.0, abs(g_fd))
            worst = max(worst, err)
        return worst


def _bn_eval(x, gamma, beta):
    return nn_ops.batchnorm3d(x, gamma, beta, np.array([0.3, -0.2, 0.1]),
                              np.array([1.5, 0.7, 1.1]), training=False)


def _rel_attention(q, k, v, table_t, table_h, table_w):
    rel = nn_ops.RelativeBias(2, (4, 3, 2))   # three extents: a swapped axis shows
    rel.table_t, rel.table_h, rel.table_w = table_t, table_h, table_w
    return nn_ops.attention_core(q, k, v, rel=rel)


# every op that records a pull: its input shapes, and the op applied to tensors of them;
# the shapes are small, as the check runs two forwards per input element
OP_CASES: dict[str, tuple[list[tuple[int, ...]], Callable[..., Tensor]]] = {
    "linear": ([(2, 5, 3), (4, 3), (4,)], T.linear),
    "conv3d": ([(2, 2, 3, 3, 2), (2, 2, 2, 3, 2), (2,)],
               lambda x, w, b: nn_ops.conv3d(x, w, b, stride=(2, 2, 1), pad=(1, 1, 1))),
    "depthwise_conv3d": ([(2, 2, 2, 3, 3), (2, 3, 3, 3)], nn_ops.depthwise_conv3d),
    "batchnorm3d_train": ([(2, 3, 2, 2, 2), (3,), (3,)],
                          lambda x, g, b: nn_ops.batchnorm3d(x, g, b, np.zeros(3), np.ones(3),
                                                             training=True)),
    "batchnorm3d_eval": ([(2, 3, 2, 2, 2), (3,), (3,)], _bn_eval),
    "layernorm": ([(2, 3, 4), (4,), (4,)], nn_ops.layernorm),
    "elu": ([(3, 4)], T.elu),
    "gelu": ([(3, 4)], T.gelu),
    "mean_axes": ([(2, 3, 4, 5)], lambda x: T.mean(x, axes=(0, 2))),
    "nearest_upsample3d": ([(2, 3, 3, 4, 4)], nn_ops.nearest_upsample3d),
    "mse_loss": ([(4, 5), (4, 5)], T.mse_loss),
    "add": ([(3, 4), (3, 4)], T.add),
    "add_embedding": ([(2, 3, 4), (3, 4)], T.add_embedding),
    "reshape": ([(2, 3, 4)], lambda x: T.reshape(x, (4, 6))),
    "transpose": ([(2, 3, 4)], lambda x: T.transpose(x, (2, 0, 1))),
    "checkpoint_gelu": ([(3, 4)], lambda x: T.checkpoint(T.gelu, x)),
    "attention": ([(2, 2, 3, 2)] * 3, nn_ops.attention_core),
    "attention_rel": ([(1, 2, 24, 1)] * 3 + [(2, 7), (2, 5), (2, 3)], _rel_attention),
}


@float64()
def op_checks(seed: int) -> list[tuple[str, float]]:
    """Gradient check of every ``OP_CASES`` entry, one seed, in table order."""
    rng = np.random.default_rng(seed)
    results = []
    for name, (shapes, op) in OP_CASES.items():
        inputs = [Tensor(rng.standard_normal(s), requires_grad=True) for s in shapes]
        target = Tensor(rng.standard_normal(op(*inputs).shape))
        results.append((name, max_relative_error(lambda: T.mse_loss(op(*inputs), target),
                                                 inputs)))
    return results


def run_op_suite() -> dict[str, float]:
    """Worst error per op across SEEDS."""
    worst: dict[str, float] = {}
    for s in SEEDS:
        for name, err in op_checks(s):
            worst[name] = max(err, worst.get(name, 0.0))
    return worst


@float64()
def model_grad_check(seed: int) -> float:
    """End-to-end finite-difference check of 20 sampled elements on a tiny configuration."""
    cfg = ModelConfig(input_dims=(8, 32, 32), base_width=4, stage_depths=(1, 1, 1, 1),
                      heads_per_stage=(1, 2, 4, 4), scaling=0, output_format="Signal")
    model = MultiscaleVideoTransformer(cfg, seed=seed)
    rng = np.random.default_rng(seed + 1000)
    x = Tensor(rng.standard_normal((1, 3, 8, 32, 32)))
    target = Tensor(rng.standard_normal((1, 8)))
    params = list(model.parameters().values())

    def build():
        return T.mse_loss(model.forward(x, training=True), target)

    return max_relative_error(build, params, sample=20, rng=np.random.default_rng(seed))
