"""Finite-difference validation of autodiff gradients.

Each check builds a scalar loss from seeded random inputs, runs one
backward pass, then compares against central differences with the spec'd
reporting: max over elements of |g_ad - g_fd| / max(1, |g_fd|). Float32
rounding would swamp the differences, so every check makes its tensors and
its model inside ``float64()``, and its whole graph is float64.
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


def _rand(rng, *shape, avoid_zero=False):
    x = rng.standard_normal(shape)
    if avoid_zero:
        # keep ELU inputs away from the kink so central differences are valid
        x = np.where(np.abs(x) < 1e-3, x + np.sign(x + 0.5) * 2e-3, x)
    return x


@float64()
def op_checks(seed: int) -> list[tuple[str, float]]:
    """Gradient checks for every differentiable operator, one seed."""
    rng = np.random.default_rng(seed)
    results = []

    def check(name, build, params):
        results.append((name, max_relative_error(build, params)))

    x = Tensor(_rand(rng, 2, 3), requires_grad=True)
    w = Tensor(_rand(rng, 2, 3), requires_grad=True)
    b = Tensor(_rand(rng, 2), requires_grad=True)
    check("linear", lambda: T.mean(T.linear(x, w, b)), [x, w, b])

    xc = Tensor(_rand(rng, 1, 2, 4, 4, 4), requires_grad=True)
    wc = Tensor(0.3 * _rand(rng, 3, 2, 3, 3, 3), requires_grad=True)
    bc = Tensor(_rand(rng, 3), requires_grad=True)
    check("conv3d",
          lambda: T.mean(nn_ops.conv3d(xc, wc, bc, stride=(2, 1, 2), pad=(1, 1, 0))),
          [xc, wc, bc])

    xd = Tensor(_rand(rng, 1, 3, 3, 4, 4), requires_grad=True)
    wd = Tensor(0.3 * _rand(rng, 3, 3, 3, 3), requires_grad=True)
    check("depthwise_conv3d", lambda: T.mean(nn_ops.depthwise_conv3d(xd, wd)), [xd, wd])

    xb = Tensor(_rand(rng, 2, 3, 2, 2, 2), requires_grad=True)
    gb = Tensor(1.0 + 0.1 * _rand(rng, 3), requires_grad=True)
    bb = Tensor(0.1 * _rand(rng, 3), requires_grad=True)

    check("batchnorm3d_train",
          lambda: T.mean(T.elu(nn_ops.batchnorm3d(xb, gb, bb, np.zeros(3), np.ones(3),
                                                  training=True))),
          [xb, gb, bb])

    mean_eval = 0.3 * _rand(rng, 3)
    var_eval = 1.0 + 0.2 * np.abs(_rand(rng, 3))
    check("batchnorm3d_eval",
          lambda: T.mean(nn_ops.batchnorm3d(xb, gb, bb, mean_eval, var_eval, training=False)),
          [xb, gb, bb])

    xl = Tensor(_rand(rng, 2, 3, 4), requires_grad=True)
    gl = Tensor(1.0 + 0.1 * _rand(rng, 4), requires_grad=True)
    bl = Tensor(0.1 * _rand(rng, 4), requires_grad=True)
    check("layernorm", lambda: T.mean(nn_ops.layernorm(xl, gl, bl)), [xl, gl, bl])

    xe = Tensor(_rand(rng, 3, 4, avoid_zero=True), requires_grad=True)
    check("elu", lambda: T.mean(T.elu(xe)), [xe])
    check("gelu", lambda: T.mean(T.gelu(xe)), [xe])

    xm = Tensor(_rand(rng, 2, 3, 4), requires_grad=True)
    tm = Tensor(_rand(rng, 3))
    check("mean_axes", lambda: T.mse_loss(T.mean(xm, axes=(0, 2)), tm), [xm])

    xu = Tensor(_rand(rng, 1, 2, 2, 2, 2), requires_grad=True)
    tu = Tensor(_rand(rng, 1, 2, 4, 2, 2))
    check("nearest_upsample3d",
          lambda: T.mse_loss(nn_ops.nearest_upsample3d(xu), tu),
          [xu])

    xp_ = Tensor(_rand(rng, 4), requires_grad=True)
    tp = Tensor(_rand(rng, 4))
    check("mse_loss", lambda: T.mse_loss(xp_, tp), [xp_])

    grid = (2, 2, 2)
    ln = grid[0] * grid[1] * grid[2]
    dm, heads = 4, 2
    xa = Tensor(_rand(rng, 1, ln, dm), requires_grad=True)
    proj = {nm: (Tensor(0.5 * _rand(rng, dm, dm), requires_grad=True),
                 Tensor(0.1 * _rand(rng, dm), requires_grad=True))
            for nm in ("q", "k", "v", "o")}

    def attn_plain():
        return T.mean(nn_ops.attention(
            xa, proj["q"][0], proj["q"][1], proj["k"][0], proj["k"][1],
            proj["v"][0], proj["v"][1], proj["o"][0], proj["o"][1], heads))

    check("attention", attn_plain, [xa] + [t for pair in proj.values() for t in pair])

    rel = nn_ops.RelativeBias(heads, grid)
    rel.table_t.data[:] = 0.3 * _rand(rng, *rel.table_t.shape)
    rel.table_h.data[:] = 0.3 * _rand(rng, *rel.table_h.shape)
    rel.table_w.data[:] = 0.3 * _rand(rng, *rel.table_w.shape)

    def attn_rel():
        return T.mean(nn_ops.attention(
            xa, proj["q"][0], proj["q"][1], proj["k"][0], proj["k"][1],
            proj["v"][0], proj["v"][1], proj["o"][0], proj["o"][1], heads, rel=rel))

    check("attention_rel_bias", attn_rel,
          [xa, rel.table_t, rel.table_h, rel.table_w] +
          [t for pair in proj.values() for t in pair])

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
