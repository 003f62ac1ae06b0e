"""Forward-path tests for the tensor core against independent oracles."""

import asyncio
import contextlib
import copy
import math
import threading
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from pulseformer import model, nn_ops
from pulseformer import tensor as T
from pulseformer.errors import DimensionError, PulseformerError
from pulseformer.gradcheck import OP_CASES, max_relative_error
from pulseformer.model import _Block, _ParamStore
from pulseformer.tensor import Tensor
from pulseformer.training import AdamW


def scale(x: Tensor, s: float) -> Tensor:
    """x times a constant, recorded on the tape (turns a mean into a sum)."""
    out = Tensor(x.data * s, requires_grad=T._needs_grad(x))
    T._record(out, lambda g: T._accum(x.slot, g * s))
    return out


def conv3d_oracle(x, w, b, stride, pad):
    """Direct six-loop 3-D convolution, independent of the GEMM path.

    A kernel of C/G input channels makes G groups: filter k sees the input
    channels of group k // (K/G) only.
    """
    n, c, t, h, wl = x.shape
    k, cg, kt, kh, kw = w.shape
    kg = k // (c // cg)   # filters per group
    st, sh, sw = stride
    pt, ph, pw = pad
    xp = np.pad(x, ((0, 0), (0, 0), (pt, pt), (ph, ph), (pw, pw)))
    to = (t + 2 * pt - kt) // st + 1
    ho = (h + 2 * ph - kh) // sh + 1
    wo = (wl + 2 * pw - kw) // sw + 1
    y = np.zeros((n, k, to, ho, wo))
    for ni in range(n):
        for ki in range(k):
            c0 = ki // kg * cg
            for ti in range(to):
                for hi in range(ho):
                    for wi in range(wo):
                        patch = xp[ni, c0:c0 + cg, ti * st:ti * st + kt,
                                   hi * sh:hi * sh + kh, wi * sw:wi * sw + kw]
                        y[ni, ki, ti, hi, wi] = (patch * w[ki]).sum() + b[ki]
    return y


@st.composite
def conv_cases(draw):
    """(x shape, w shape, stride, pad, seed) of a conv3d whose kernel fits its padded input.

    The G groups divide both the C input channels and the K filters.
    """
    axis = st.integers(1, 3)
    kernel = [draw(axis) for _ in range(3)]
    stride = tuple(draw(axis) for _ in range(3))
    pad = tuple(draw(st.integers(0, kk - 1)) for kk in kernel)
    dims = [draw(st.integers(max(1, kk - 2 * pp), 6)) for kk, pp in zip(kernel, pad)]
    n, cg, kg = (draw(st.integers(1, 2)) for _ in range(3))
    groups = draw(st.integers(1, 3))
    return ([n, groups * cg] + dims, [groups * kg, cg] + kernel, stride, pad,
            draw(st.integers(0, 2 ** 32 - 1)))


class TestConv3d:
    def test_output_size_formula(self):
        x = Tensor(np.zeros((1, 1, 120, 64, 64)))
        w = Tensor(np.zeros((4, 1, 3, 7, 7)))
        b = Tensor(np.zeros(4))
        y = nn_ops.conv3d(x, w, b, stride=(2, 4, 4), pad=(1, 3, 3))
        assert y.shape == (1, 4, 60, 16, 16)

    def test_identity_kernel(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.standard_normal((2, 1, 3, 4, 5)))
        w = Tensor(np.ones((1, 1, 1, 1, 1)))
        b = Tensor(np.zeros(1))
        y = nn_ops.conv3d(x, w, b)
        np.testing.assert_array_equal(y.data, x.data)

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((1, 2, 4, 4, 4))
        w = rng.standard_normal((3, 2, 3, 3, 3))
        b = rng.standard_normal(3)
        with T.float64():
            y = nn_ops.conv3d(Tensor(x), Tensor(w), Tensor(b), stride=(1, 1, 1), pad=(0, 0, 0))
        expect = conv3d_oracle(x, w, b, (1, 1, 1), (0, 0, 0))
        np.testing.assert_allclose(y.data, expect, atol=1e-12)

    def test_strided_padded_matches_oracle(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((2, 3, 6, 5, 5))
        w = rng.standard_normal((4, 3, 3, 3, 3))
        b = rng.standard_normal(4)
        with T.float64():
            y = nn_ops.conv3d(Tensor(x), Tensor(w), Tensor(b), stride=(2, 2, 1), pad=(1, 1, 1))
        expect = conv3d_oracle(x, w, b, (2, 2, 1), (1, 1, 1))
        np.testing.assert_allclose(y.data, expect, atol=1e-12)

    @given(conv_cases())
    @example(((1, 16, 25, 10, 10), (32, 16, 3, 3, 3), (1, 1, 1), (1, 1, 1), 0))   # slabs 10, 10, 5
    @example(((1, 32, 60, 16, 16), (64, 32, 3, 3, 3), (2, 2, 2), (1, 1, 1), 0))   # slabs 16, 14
    @example(((1, 4, 5, 5, 5), (4, 1, 3, 3, 3), (1, 1, 1), (1, 1, 1), 0))         # depthwise
    @settings(derandomize=True, max_examples=100, deadline=None, database=None)
    def test_any_stride_and_pad_match_oracle(self, case):
        """Forward equals the oracle; the backward obeys <dx, x> = <dw, w> = <g, y - b>.

        The drawn shapes fit one slab and may have several channel groups;
        the first two examples take several slabs, and the temporal kernel of
        the second overlaps input frames across slab bounds.
        """
        x_shape, w_shape, stride, pad, seed = case
        k = w_shape[0]
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(x_shape)
        w = rng.standard_normal(w_shape)
        b = rng.standard_normal(k)
        with T.float64():
            y = nn_ops.conv3d(Tensor(x), Tensor(w), Tensor(b), stride=stride, pad=pad)
            np.testing.assert_allclose(y.data, conv3d_oracle(x, w, b, stride, pad), atol=1e-12)
            xt, wt = Tensor(x, requires_grad=True), Tensor(w, requires_grad=True)
            g = rng.standard_normal(y.shape)
            with T.record():
                yt = nn_ops.conv3d(xt, wt, Tensor(np.zeros(k)), stride=stride, pad=pad)
                T.backward(T.mean(T.linear(T.reshape(yt, (1, g.size)), Tensor(g.reshape(1, -1)),
                                           Tensor(np.zeros(1)))))
        gy = float((g * (y.data - b[None, :, None, None, None])).sum())
        np.testing.assert_allclose([(xt.grad * x).sum(), (wt.grad * w).sum()], [gy, gy],
                                   rtol=1e-10, atol=1e-10)

    @pytest.mark.parametrize("x_shape, w_shape, stride", [
        ((1, 3, 6, 5, 5), (4, 3, 3, 3, 3), (2, 2, 1)),
        ((2, 3, 6, 5, 5), (4, 3, 3, 3, 3), (2, 2, 1)),
        ((3, 3, 6, 5, 5), (4, 3, 3, 3, 3), (2, 2, 1)),
        ((3, 16, 25, 10, 10), (32, 16, 3, 3, 3), (1, 1, 1)),   # slabs of 10, 10, 5
        ((3, 32, 60, 16, 16), (64, 32, 3, 3, 3), (2, 2, 2)),   # slabs of 16, 14
        ((3, 32, 60, 16, 16), (32, 1, 3, 3, 3), (1, 1, 1)),    # CPE: 15 slabs of 4
    ], ids=["1", "2", "3", "ragged", "transition1-temporal", "cpe"])
    def test_workers_match_one_worker(self, monkeypatch, x_shape, w_shape, stride):
        """Output and all gradients bit-identical for 1, 2 and 3 workers."""
        rng = np.random.default_rng(x_shape[0])
        arrays = [rng.standard_normal(s) for s in (x_shape, w_shape, w_shape[:1])]
        results = []
        for workers in (1, 2, 3):
            monkeypatch.setattr(nn_ops, "_workers", lambda: workers)
            x, w, b = (Tensor(a, requires_grad=True) for a in arrays)
            with T.record():
                y = nn_ops.conv3d(x, w, b, stride=stride, pad=(1, 1, 1))
                T.backward(T.mse_loss(y, Tensor(np.ones(y.shape))))
            results.append([t.tobytes() for t in (y.data, x.grad, w.grad, b.grad)])
        assert results[1] == results[0] and results[2] == results[0]

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("x_shape, w_shape, stride, pad", [
        ((1, 3, 120, 64, 64), (32, 3, 3, 7, 7), (2, 4, 4), (1, 3, 3)),   # stem: 15 whole slabs
        ((1, 32, 60, 16, 16), (64, 32, 3, 3, 3), (1, 2, 2), (1, 1, 1)),  # transition-1
        ((1, 32, 60, 16, 16), (64, 32, 3, 3, 3), (2, 2, 2), (1, 1, 1)),  # temporal stride
        ((1, 64, 80, 8, 8), (64, 64, 3, 1, 1), (1, 1, 1), (1, 0, 0)),    # head conv
        ((1, 16, 25, 10, 10), (32, 16, 3, 3, 3), (1, 1, 1), (1, 1, 1)),  # slabs of 10, 10, 5
        ((1, 8, 4, 36, 36), (16, 8, 3, 3, 3), (1, 1, 1), (1, 1, 1)),     # frame wider than a slab
        ((8, 3, 40, 32, 32), (8, 3, 3, 7, 7), (2, 4, 4), (1, 3, 3)),     # the search's batch 8
        ((1, 3, 9, 13, 13), (12, 3, 3, 3, 3), (1, 1, 1), (1, 1, 1)),     # slabs of 6, 3
        ((1, 32, 60, 16, 16), (32, 1, 3, 3, 3), (1, 1, 1), (1, 1, 1)),   # CPE: 15 slabs of 4
    ], ids=["stem", "transition1", "transition1-temporal", "head", "ragged", "wide-frame",
            "batch8", "small-gemm", "cpe"])
    def test_slabs_match_the_recorded_forward(self, monkeypatch, workers, x_shape, w_shape,
                                              stride, pad):
        """An unrecorded forward has the recorded one's bytes: both take the same slabs.

        At small-gemm, a whole-item GEMM and its slabs differ in the last bit.
        """
        monkeypatch.setattr(nn_ops, "_workers", lambda: workers)
        rng = np.random.default_rng(5)
        x, w = (rng.standard_normal(s, dtype=np.float32) for s in (x_shape, w_shape))
        b = rng.standard_normal(w_shape[0], dtype=np.float32)
        y = nn_ops.conv3d(Tensor(x), Tensor(w), Tensor(b), stride=stride, pad=pad)
        with T.record():
            yr = nn_ops.conv3d(Tensor(x), Tensor(w, requires_grad=True), Tensor(b),
                               stride=stride, pad=pad)
        assert yr.requires_grad and not y.requires_grad
        assert y.data.tobytes() == yr.data.tobytes()

    @pytest.mark.parametrize("recorded", [False, True], ids=["unrecorded", "recorded"])
    def test_stem_peak_memory(self, recorded):
        """A 1 x 3 x 120 x 64 x 64 stem forward, and its pull, each peak under 13 MiB.

        Each holds one 1.7-MiB column slab beside the 6.8-MiB padded input
        copy and the 1.9-MiB output (in the pull, its gradient); the whole
        item's 441 x 15 360 columns would add 25.8 MiB.
        """
        rng = np.random.default_rng(0)
        x = Tensor(rng.standard_normal((1, 3, 120, 64, 64), dtype=np.float32))
        w = Tensor(rng.standard_normal((32, 3, 3, 7, 7), dtype=np.float32),
                   requires_grad=recorded)
        b = Tensor(np.zeros(32, np.float32))
        peaks = []
        tracemalloc.start()
        try:
            with T.record():
                start = tracemalloc.get_traced_memory()[0]
                y = nn_ops.conv3d(x, w, b, stride=(2, 4, 4), pad=(1, 3, 3))
                peaks.append(tracemalloc.get_traced_memory()[1] - start)
                if recorded:
                    tracemalloc.reset_peak()
                    start = tracemalloc.get_traced_memory()[0]
                    T.backward(T.mean(y))
                    peaks.append(tracemalloc.get_traced_memory()[1] - start)
        finally:
            tracemalloc.stop()
        assert y.requires_grad == recorded and (w.grad is not None) == recorded
        assert max(peaks) < 13 * 2 ** 20

    def test_kernel_too_large(self):
        x = Tensor(np.zeros((1, 1, 2, 2, 2)))
        w = Tensor(np.zeros((1, 1, 5, 1, 1)))
        with pytest.raises(DimensionError):
            nn_ops.conv3d(x, w, Tensor(np.zeros(1)))

    def test_depthwise_matches_oracle(self):
        """depthwise_conv3d is the oracle's convolution with one group per channel, pad 1."""
        rng = np.random.default_rng(9)
        x = rng.standard_normal((2, 3, 5, 4, 6))
        w = rng.standard_normal((3, 3, 3, 3))
        with T.float64():
            y = nn_ops.depthwise_conv3d(Tensor(x), Tensor(w))
        expect = conv3d_oracle(x, w[:, None], np.zeros(3), (1, 1, 1), (1, 1, 1))
        np.testing.assert_allclose(y.data, expect, atol=1e-12)

    @pytest.mark.parametrize("x_shape, w_shape", [
        ((1, 4, 3, 3, 3), (2, 3, 1, 1, 1)),   # 4 channels are not groups of 3
        ((1, 4, 3, 3, 3), (3, 2, 1, 1, 1)),   # 3 filters are not split over 2 groups
        ((1, 4, 3, 3, 3), (2, 0, 1, 1, 1)),   # a kernel of no channels makes no groups
        ((1, 3, 5, 5), (3, 3, 3, 3)),         # depthwise on a 4-D input
    ], ids=["channels", "filters", "no-channels", "depthwise-4d"])
    def test_mismatched_shapes_rejected(self, x_shape, w_shape):
        x, w = Tensor(np.zeros(x_shape)), Tensor(np.zeros(w_shape))
        with pytest.raises(DimensionError):
            if len(w_shape) == 4:
                nn_ops.depthwise_conv3d(x, w)
            else:
                nn_ops.conv3d(x, w, Tensor(np.zeros(w_shape[0])))


class TestLinear:
    def test_identity(self):
        x = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]))
        y = T.linear(x, Tensor(np.eye(2)), Tensor(np.zeros(2)))
        np.testing.assert_array_equal(y.data, x.data)

    def test_hand_arithmetic(self):
        y = T.linear(Tensor([1.0, 2.0]), Tensor([[1.0, 1.0], [0.0, 1.0]]), Tensor([0.0, 0.0]))
        np.testing.assert_array_equal(y.data, [3.0, 2.0])

    def test_matches_matmul_oracle(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((2, 5, 3))
        w = rng.standard_normal((4, 3))
        b = rng.standard_normal(4)
        with T.float64():
            y = T.linear(Tensor(x), Tensor(w), Tensor(b))
        np.testing.assert_allclose(y.data, x @ w.T + b, atol=1e-12)

    def test_extent_mismatch(self):
        with pytest.raises(DimensionError):
            T.linear(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 5))), Tensor(np.zeros(4)))


class TestNorms:
    def test_batchnorm_constant_input_zeros(self):
        x = Tensor(np.full((2, 3, 2, 2, 2), 5.0))
        g = Tensor(np.ones(3))
        b = Tensor(np.zeros(3))
        y = nn_ops.batchnorm3d(x, g, b, np.zeros(3), np.ones(3), training=True)
        np.testing.assert_allclose(y.data, 0.0, atol=1e-8)

    def test_batchnorm_plus_minus_one(self):
        data = np.zeros((2, 1, 1, 1, 1))
        data[0] = -1.0
        data[1] = 1.0
        with T.float64():
            y = nn_ops.batchnorm3d(Tensor(data), Tensor(np.ones(1)), Tensor(np.zeros(1)),
                                   np.zeros(1), np.ones(1), training=True)
        np.testing.assert_allclose(y.data.ravel(), data.ravel() / np.sqrt(1 + nn_ops.NORM_EPS),
                                   rtol=1e-12)

    def test_batchnorm_eval_identity(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((1, 2, 2, 2, 2))
        with T.float64():
            y = nn_ops.batchnorm3d(Tensor(x), Tensor(np.ones(2)), Tensor(np.zeros(2)),
                                   np.zeros(2), np.ones(2), training=False)
        np.testing.assert_allclose(y.data, x / np.sqrt(1 + nn_ops.NORM_EPS), rtol=1e-9)

    def test_batchnorm_updates_running_stats(self):
        mean, var = np.zeros(1), np.ones(1)
        x = Tensor(np.arange(8.0).reshape(2, 1, 2, 2, 1))
        nn_ops.batchnorm3d(x, Tensor(np.ones(1)), Tensor(np.zeros(1)), mean, var, training=True)
        m = nn_ops.BN_MOMENTUM
        np.testing.assert_allclose(mean, m * 3.5)
        np.testing.assert_allclose(var, (1 - m) * 1.0 + m * np.var(np.arange(8.0)))

    def test_layernorm_constant_row(self):
        y = nn_ops.layernorm(Tensor([1.0, 1.0, 1.0]), Tensor(np.ones(3)), Tensor(np.zeros(3)))
        np.testing.assert_allclose(y.data, 0.0, atol=1e-8)

    def test_layernorm_population_variance(self):
        y = nn_ops.layernorm(Tensor([1.0, 2.0, 3.0]), Tensor(np.ones(3)), Tensor(np.zeros(3)))
        expect = np.array([-1.0, 0.0, 1.0]) / np.sqrt(2 / 3 + nn_ops.NORM_EPS)
        np.testing.assert_allclose(y.data, expect, atol=1e-6)

    def test_layernorm_beta_passthrough(self):
        y = nn_ops.layernorm(Tensor([2.0, 2.0, 2.0]), Tensor(np.ones(3)),
                             Tensor(np.full(3, 5.0)))
        np.testing.assert_allclose(y.data, 5.0, atol=1e-8)


def attention_oracle(x, wq, bq, wk, bk, wv, bv, wo, bo):
    """Single-head attention via explicit softmax/matmul."""
    q = x @ wq.T + bq
    k = x @ wk.T + bk
    v = x @ wv.T + bv
    s = q @ k.T / np.sqrt(x.shape[-1])
    e = np.exp(s - s.max(axis=-1, keepdims=True))
    p = e / e.sum(axis=-1, keepdims=True)
    return (p @ v) @ wo.T + bo


def dense_rel_bias(rel):
    """(heads, L, L) pairwise bias of a RelativeBias, one table lookup at a time."""
    grid = rel.grid
    ln = grid[0] * grid[1] * grid[2]
    coords = np.unravel_index(np.arange(ln), grid)
    heads = rel.table_t.shape[0]
    bias = np.zeros((heads, ln, ln))
    for hh in range(heads):
        for i in range(ln):
            for j in range(ln):
                for table, c, g in zip(rel.tables(), coords, grid):
                    bias[hh, i, j] += table.data[hh, c[i] - c[j] + g - 1]
    return bias


def dense_attention(q, k, v, bias=0.0):
    """softmax(q kᵀ / sqrt(d) + bias) v in float64 with a shifted exp."""
    q, k, v = (np.asarray(a, dtype=np.float64) for a in (q, k, v))
    s = q @ np.swapaxes(k, -1, -2) / np.sqrt(q.shape[-1]) + bias
    p = np.exp(s - s.max(axis=-1, keepdims=True))
    p /= p.sum(axis=-1, keepdims=True)
    return p @ v


def loss_grads(loss, params):
    """Fresh gradients of every param after one backward of ``loss()``."""
    for p in params:
        p.grad = None
    with T.record():
        T.backward(loss())
    return [p.grad.copy() for p in params]


def widen(*ts):
    """Float64 tensors made inside ``T.float64()`` from the values of ``ts``."""
    with T.float64():
        return [Tensor(t.data, requires_grad=t.requires_grad) for t in ts]


def widen_rel(rel):
    """A copy of ``rel`` whose tables are ``widen``ed."""
    wide = copy.copy(rel)
    wide.table_t, wide.table_h, wide.table_w = widen(*rel.tables())
    return wide


def assert_float32_grads_close(g32, g64):
    # float32 rounding is relative to a gradient's scale, not to each
    # element, so near-zero elements get the same 1e-4 of the array's max
    for a, b in zip(g32, g64):
        np.testing.assert_allclose(a, b, rtol=1e-4, atol=1e-4 * np.abs(b).max())


class TestAttention:
    def _weights(self, rng, d):
        return {nm: (rng.standard_normal((d, d)), rng.standard_normal(d))
                for nm in ("q", "k", "v", "o")}

    def test_single_token_is_v_projection(self):
        rng = np.random.default_rng(2)
        d = 3
        ws = self._weights(rng, d)
        x = rng.standard_normal((1, 1, d))
        with T.float64():
            y = nn_ops.attention(
                Tensor(x), Tensor(ws["q"][0]), Tensor(ws["q"][1]),
                Tensor(ws["k"][0]), Tensor(ws["k"][1]),
                Tensor(ws["v"][0]), Tensor(ws["v"][1]),
                Tensor(np.eye(d)), Tensor(np.zeros(d)), heads=1)
        np.testing.assert_allclose(y.data[0, 0], x[0, 0] @ ws["v"][0].T + ws["v"][1],
                                   atol=1e-12)

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(4)
        d = 2
        ws = self._weights(rng, d)
        x = rng.standard_normal((1, 3, d))
        with T.float64():
            y = nn_ops.attention(
                Tensor(x), Tensor(ws["q"][0]), Tensor(ws["q"][1]),
                Tensor(ws["k"][0]), Tensor(ws["k"][1]),
                Tensor(ws["v"][0]), Tensor(ws["v"][1]),
                Tensor(ws["o"][0]), Tensor(ws["o"][1]), heads=1)
        expect = attention_oracle(x[0], ws["q"][0], ws["q"][1], ws["k"][0], ws["k"][1],
                                  ws["v"][0], ws["v"][1], ws["o"][0], ws["o"][1])
        np.testing.assert_allclose(y.data[0], expect, atol=1e-12)

    def test_zero_rel_tables_match_unbiased(self):
        rng = np.random.default_rng(5)
        grid = (2, 2, 1)
        d, heads = 4, 2
        ws = self._weights(rng, d)
        x = rng.standard_normal((1, 4, d))
        args = [Tensor(x)]
        for nm in ("q", "k", "v", "o"):
            args += [Tensor(ws[nm][0]), Tensor(ws[nm][1])]
        plain = nn_ops.attention(*args, heads=heads)
        rel = nn_ops.RelativeBias(heads, grid)
        biased = nn_ops.attention(*args, heads=heads, rel=rel)
        np.testing.assert_array_equal(plain.data, biased.data)

    @staticmethod
    def _rel_bias_case(monkeypatch, block, grid, key_block=None, wide=False):
        """q, k, v, filled tables, the dense-oracle output and an MSE loss.

        With ``wide``, the tensors are ``widen``ed copies of the ones made
        without it, for a loss run inside ``T.float64()``.
        """
        monkeypatch.setattr(nn_ops, "ATTN_BLOCK", block)
        if key_block is not None:
            monkeypatch.setattr(nn_ops, "KEY_BLOCK", key_block)
        rng = np.random.default_rng(6)
        n, heads, d = 2, 2, 3
        ln = grid[0] * grid[1] * grid[2]
        q, k, v = (Tensor(rng.standard_normal((n, heads, ln, d)), requires_grad=True)
                   for _ in range(3))
        rel = nn_ops.RelativeBias(heads, grid)
        for table in rel.tables():
            table.data[:] = rng.standard_normal(table.shape)
        expect = dense_attention(q.data, k.data, v.data, dense_rel_bias(rel))
        target = Tensor(rng.standard_normal(q.shape))
        if wide:
            q, k, v, target = widen(q, k, v, target)
            rel = widen_rel(rel)

        def loss():
            return T.mse_loss(nn_ops.attention_core(q, k, v, rel=rel), target)

        return q, k, v, rel, expect, loss

    # blocks of 256 hold whole grids, 8 and 3 split planes into w-lines or
    # ragged row ranges, 1 is one query row per block
    rel_grids = pytest.mark.parametrize("grid", [(3, 2, 2), (2, 3, 3), (4, 3, 5)],
                                        ids=lambda g: "x".join(map(str, g)))
    rel_blocks = pytest.mark.parametrize("block", [256, 8, 3, 1], ids=lambda b: f"block{b}")
    # the tests over rel_blocks run one key tile (KEY_BLOCK 1024 > L). Key tiles
    # of 8 are two planes with a ragged one-plane last tile on 3x2x2, and
    # w-lines on the grids whose plane is wider than 8 (ragged on 2x3x3); key
    # tiles of 1 are single w-lines
    key_tiles = pytest.mark.parametrize(
        "block, key_block", [(256, 8), (8, 8), (3, 1), (256, 1)],
        ids=["block256-keys8", "block8-keys8", "block3-keys1", "block256-keys1"])

    def _check_rel_float64(self, monkeypatch, block, grid, key_block=None):
        with T.float64():
            q, k, v, rel, expect, loss = self._rel_bias_case(monkeypatch, block, grid, key_block)
            y = nn_ops.attention_core(q, k, v, rel=rel)
            np.testing.assert_allclose(y.data, expect, atol=1e-12)
            err_tables = max_relative_error(loss, list(rel.tables()))
            err_qkv = max_relative_error(loss, [q, k, v], sample=48,
                                         rng=np.random.default_rng(7))
        assert max(err_tables, err_qkv) <= 1e-5

    def _check_rel_float32(self, monkeypatch, block, grid, key_block=None):
        """The default float32 path against the oracle and the float64 gradients."""
        assert T.compute_dtype() is np.float32
        q, k, v, rel, expect, loss = self._rel_bias_case(monkeypatch, block, grid, key_block)
        y = nn_ops.attention_core(q, k, v, rel=rel)
        np.testing.assert_allclose(y.data, expect, rtol=1e-5, atol=1e-6)
        params = [q, k, v, *rel.tables()]
        g32 = loss_grads(loss, params)
        q, k, v, rel, _, loss = self._rel_bias_case(monkeypatch, block, grid, key_block, wide=True)
        with T.float64():
            g64 = loss_grads(loss, [q, k, v, *rel.tables()])
        assert_float32_grads_close(g32, g64)

    @rel_grids
    @rel_blocks
    def test_rel_bias_matches_dense_oracle(self, monkeypatch, block, grid):
        self._check_rel_float64(monkeypatch, block, grid)

    @rel_grids
    @key_tiles
    def test_rel_bias_key_tiles_match_dense_oracle(self, monkeypatch, block, key_block, grid):
        self._check_rel_float64(monkeypatch, block, grid, key_block)

    @rel_grids
    @rel_blocks
    def test_rel_bias_float32_matches_dense_oracle(self, monkeypatch, block, grid):
        self._check_rel_float32(monkeypatch, block, grid)

    @rel_grids
    @key_tiles
    def test_rel_bias_float32_key_tiles_match_dense_oracle(self, monkeypatch, block,
                                                           key_block, grid):
        self._check_rel_float32(monkeypatch, block, grid, key_block)

    @pytest.mark.parametrize("with_rel", [False, True], ids=["plain", "rel"])
    def test_float32_large_logits_match_float64(self, with_rel):
        """Scores in the hundreds overflow an unshifted float32 exp; the saved lse must not."""
        rng = np.random.default_rng(12)
        n, heads, d, grid = 2, 2, 3, (4, 3, 5)
        ln = grid[0] * grid[1] * grid[2]
        q, k = (Tensor(10.0 * rng.standard_normal((n, heads, ln, d)), requires_grad=True)
                for _ in range(2))
        v = Tensor(rng.standard_normal((n, heads, ln, d)), requires_grad=True)
        params = [q, k, v]
        bias = 0.0
        rel = None
        if with_rel:
            rel = nn_ops.RelativeBias(heads, grid)
            for table in rel.tables():
                table.data[:] = 50.0 * rng.standard_normal(table.shape)
            params += rel.tables()
            bias = dense_rel_bias(rel)
        s = q.data @ np.swapaxes(k.data, -1, -2) / np.sqrt(d) + bias
        assert s.max() > 300 > np.log(np.finfo(np.float32).max)   # exp(s) overflows
        target = Tensor(rng.standard_normal(q.shape))

        def loss():
            return T.mse_loss(nn_ops.attention_core(q, k, v, rel=rel), target)

        y = nn_ops.attention_core(q, k, v, rel=rel).data
        assert np.isfinite(y).all()
        # a float32 score near 300 is rounded by up to 1.5e-5 (half an ulp),
        # so the output is held to the gradients' scale-relative tolerance
        expect = dense_attention(q.data, k.data, v.data, bias)
        np.testing.assert_allclose(y, expect, rtol=1e-4, atol=1e-4 * np.abs(expect).max())
        g32 = loss_grads(loss, params)
        q, k, v, target = widen(q, k, v, target)
        params = [q, k, v]
        if with_rel:
            rel = widen_rel(rel)
            params += rel.tables()
        with T.float64():
            g64 = loss_grads(loss, params)
        assert all(np.isfinite(g).all() for g in g32)
        assert_float32_grads_close(g32, g64)

    def test_float32_ragged_blocks_backward(self, monkeypatch):
        """No bias, 37 rows in blocks of 8: the last block has 5 rows."""
        self._check_ragged_float32(monkeypatch, None)

    @pytest.mark.parametrize("key_block", [8, 5], ids=lambda b: f"keys{b}")
    def test_float32_ragged_key_tiles_backward(self, monkeypatch, key_block):
        """As above with key tiles of 8 or 5: the last key tile has 5 or 2 keys."""
        self._check_ragged_float32(monkeypatch, key_block)

    @staticmethod
    def _check_ragged_float32(monkeypatch, key_block):
        rng = np.random.default_rng(13)
        q, k, v = (Tensor(rng.standard_normal((2, 2, 37, 4)), requires_grad=True)
                   for _ in range(3))
        target = Tensor(rng.standard_normal(q.shape))

        def loss():
            return T.mse_loss(nn_ops.attention_core(q, k, v), target)

        monkeypatch.setattr(nn_ops, "ATTN_BLOCK", 8)
        if key_block is not None:
            monkeypatch.setattr(nn_ops, "KEY_BLOCK", key_block)
        y = nn_ops.attention_core(q, k, v).data
        np.testing.assert_allclose(y, dense_attention(q.data, k.data, v.data),
                                   rtol=1e-5, atol=1e-6)
        g32 = loss_grads(loss, [q, k, v])
        monkeypatch.undo()
        q, k, v, target = widen(q, k, v, target)
        with T.float64():
            g64 = loss_grads(loss, [q, k, v])
        assert_float32_grads_close(g32, g64)

    def test_blocked_matches_unblocked(self, monkeypatch):
        rng = np.random.default_rng(9)
        d, ln = 4, 37
        ws = self._weights(rng, d)
        x = rng.standard_normal((2, ln, d))
        args = [Tensor(x)]
        for nm in ("q", "k", "v", "o"):
            args += [Tensor(ws[nm][0]), Tensor(ws[nm][1])]
        full = nn_ops.attention(*args, heads=2)
        monkeypatch.setattr(nn_ops, "ATTN_BLOCK", 8)
        small = nn_ops.attention(*args, heads=2)
        np.testing.assert_allclose(small.data, full.data, atol=1e-13)

    @pytest.mark.parametrize("key_block", [8, 5], ids=lambda b: f"keys{b}")
    def test_key_tiles_match_one_tile(self, monkeypatch, key_block):
        """37 keys in tiles of 8 or 5 (a ragged last tile) against one tile, in float64."""
        rng = np.random.default_rng(9)
        with T.float64():
            q, k, v = (Tensor(rng.standard_normal((2, 2, 37, 4))) for _ in range(3))
            one = nn_ops.attention_core(q, k, v).data
            monkeypatch.setattr(nn_ops, "KEY_BLOCK", key_block)
            tiled = nn_ops.attention_core(q, k, v).data
        np.testing.assert_allclose(tiled, one, atol=1e-12)

    @pytest.mark.parametrize("with_rel", [False, True], ids=["plain", "rel"])
    def test_float32_row_max_in_last_key_tile(self, monkeypatch, with_rel):
        """Logits rise along the keys to about 80, so each key tile raises the running max.

        The float32 output must match the float64 oracle and, with the
        gradients, stay finite; the float64 output must match it to 1e-12.
        """
        monkeypatch.setattr(nn_ops, "KEY_BLOCK", 8)
        rng = np.random.default_rng(17)
        n, heads, d, grid = 2, 2, 4, (4, 3, 5)
        ln = grid[0] * grid[1] * grid[2]
        ramp = np.linspace(0.0, 80.0, ln)[:, None] * np.sqrt(d) / d
        q = Tensor(1.0 + 0.01 * rng.standard_normal((n, heads, ln, d)), requires_grad=True)
        k = Tensor(ramp + 0.01 * rng.standard_normal((n, heads, ln, d)), requires_grad=True)
        v = Tensor(rng.standard_normal((n, heads, ln, d)), requires_grad=True)
        params, bias, rel = [q, k, v], 0.0, None
        if with_rel:
            rel = nn_ops.RelativeBias(heads, grid)
            for table in rel.tables():
                table.data[:] = 0.1 * rng.standard_normal(table.shape)
            params += rel.tables()
            bias = dense_rel_bias(rel)
        s = q.data @ np.swapaxes(k.data, -1, -2) / np.sqrt(d) + bias
        last_tile = nn_ops.grid_blocks(grid, 8)[-1][0] if with_rel else ln - ln % 8
        assert (s.argmax(axis=-1) >= last_tile).all() and 78 < s.max() < 82
        target = Tensor(rng.standard_normal(q.shape))

        def loss():
            return T.mse_loss(nn_ops.attention_core(q, k, v, rel=rel), target)

        y = nn_ops.attention_core(q, k, v, rel=rel).data
        assert np.isfinite(y).all()
        expect = dense_attention(q.data, k.data, v.data, bias)
        np.testing.assert_allclose(y, expect, rtol=1e-4, atol=1e-4 * np.abs(expect).max())
        assert all(np.isfinite(g).all() for g in loss_grads(loss, params))
        q, k, v = widen(q, k, v)
        if with_rel:
            rel = widen_rel(rel)
        with T.float64():
            y64 = nn_ops.attention_core(q, k, v, rel=rel).data
        np.testing.assert_allclose(y64, dense_attention(q.data, k.data, v.data, bias),
                                   atol=1e-12)

    def _schedule_case(self, monkeypatch, grid, workers, key_block=None):
        """Output and gradients of the block-8 rel case run with ``workers`` workers."""
        q, k, v, rel, _, loss = self._rel_bias_case(monkeypatch, 8, grid, key_block)
        monkeypatch.setattr(nn_ops, "_workers", lambda: workers)
        y = nn_ops.attention_core(q, k, v, rel=rel).data
        return y, loss_grads(loss, [q, k, v, *rel.tables()])

    def _check_workers(self, monkeypatch, grid, workers, key_block=None):
        """Output and gradients bit-identical to one worker, run after run."""
        y1, g1 = self._schedule_case(monkeypatch, grid, 1, key_block)
        for _ in range(2):
            y2, g2 = self._schedule_case(monkeypatch, grid, workers, key_block)
            assert y2.tobytes() == y1.tobytes()
            assert [g.tobytes() for g in g2] == [g.tobytes() for g in g1]

    @rel_grids
    @pytest.mark.parametrize("workers", [2, 3])
    def test_workers_match_one_worker(self, monkeypatch, grid, workers):
        self._check_workers(monkeypatch, grid, workers)

    @rel_grids
    @pytest.mark.parametrize("workers", [2, 3])
    def test_workers_match_one_worker_over_key_tiles(self, monkeypatch, grid, workers):
        self._check_workers(monkeypatch, grid, workers, key_block=8)

    def test_workers_float64_match_dense_oracle(self, monkeypatch):
        """Workers are threads, so they must get float64 from the caller, not a ContextVar."""
        monkeypatch.setattr(nn_ops, "_workers", lambda: 2)
        with T.float64():
            q, k, v, rel, expect, _ = self._rel_bias_case(monkeypatch, 8, (4, 3, 5))
            y = nn_ops.attention_core(q, k, v, rel=rel)
        assert y.data.dtype == np.float64
        np.testing.assert_allclose(y.data, expect, atol=1e-12)

    @pytest.mark.skipif(nn_ops._openblas() is None, reason="no bundled OpenBLAS to switch")
    def test_worker_exception_propagates_and_restores_blas(self, monkeypatch):
        """One backward chunk raises: the same error at 1, 2 and 3 workers."""
        class ChunkFailure(Exception):
            pass

        threads_before = nn_ops._openblas()[0]()
        q, k, v, rel, _, loss = self._rel_bias_case(monkeypatch, 8, (4, 3, 5))
        accumulate = rel.accumulate_grads
        failing = nn_ops.grid_blocks(rel.grid, 8)[5][2]   # a query block of head 1: one chunk

        def fail_on_one_block(sum_t, sum_hw, block, head, grads):
            if head == 1 and block == failing:
                raise ChunkFailure(f"head {head} block {block}")
            accumulate(sum_t, sum_hw, block, head, grads)

        monkeypatch.setattr(rel, "accumulate_grads", fail_on_one_block)
        for workers in (1, 2, 3):
            monkeypatch.setattr(nn_ops, "_workers", lambda: workers)
            with pytest.raises(ChunkFailure, match="head 1"), T.record():
                T.backward(loss())
            assert nn_ops._openblas()[0]() == threads_before
            assert not T._tape

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_lowest_failed_chunk_raises(self, monkeypatch, workers):
        """Chunks 2 and 5 of 9 raise; chunk 2's error is raised at any worker count."""
        monkeypatch.setattr(nn_ops, "_workers", lambda: workers)
        started = []

        def fn(chunk, buffers):
            started.append(chunk)
            if chunk in (2, 5):
                raise ValueError(f"chunk {chunk}")

        with pytest.raises(ValueError, match="chunk 2"):
            nn_ops._run_chunks(fn, 9, tuple)
        if workers == 1:
            assert started == [0, 1, 2]

    def test_chunk_sum_adds_in_chunk_order(self):
        """Chunks handed in out of order sum to the in-order bits; buffers come back zeroed."""
        rng = np.random.default_rng(3)
        parts = [[rng.standard_normal(5).astype(np.float32) * 10.0 ** e] for e in range(4)]
        expect = np.zeros(5, dtype=np.float32)
        for (part,) in parts:
            expect += part
        sums = nn_ops._ChunkSum([np.zeros(5, dtype=np.float32)])
        for chunk in (2, 0, 3, 1):
            buf = [parts[chunk][0].copy()]
            sums.add(chunk, buf)
            assert not buf[0].any()
        assert sums.total[0].tobytes() == expect.tobytes()

    def test_forward_records_one_tape_entry(self, monkeypatch):
        q, k, v, rel, _, _ = self._rel_bias_case(monkeypatch, 8, (4, 3, 5))
        monkeypatch.setattr(nn_ops, "_workers", lambda: 2)
        with T.record():
            nn_ops.attention_core(q, k, v, rel=rel)
            assert len(T._tape) == 1
        assert not T._tape

    def test_inputs_made_under_another_dtype(self):
        """q, k and v made under different compute dtypes are rejected."""
        rng = np.random.default_rng(16)
        q, k, v = (Tensor(rng.standard_normal((1, 2, 10, 3)), requires_grad=True)
                   for _ in range(3))
        (v64,) = widen(v)
        with pytest.raises(DimensionError, match="dtypes differ"):
            nn_ops.attention_core(q, k, v64)

    def test_indivisible_heads_rejected(self):
        from pulseformer.errors import ConfigurationError
        x = Tensor(np.zeros((1, 2, 6)))
        zw = Tensor(np.zeros((6, 6)))
        zb = Tensor(np.zeros(6))
        with pytest.raises(ConfigurationError):
            nn_ops.attention(x, zw, zb, zw, zb, zw, zb, zw, zb, heads=4)


class TestElementwise:
    def test_elu_values(self):
        y = T.elu(Tensor([0.0, 1.0, -20.0]))
        assert y.data[0] == 0.0
        assert y.data[1] == 1.0
        assert abs(y.data[2] - (-1.0)) < 1e-8

    def test_mean_of_ones(self):
        assert T.mean(Tensor(np.ones((2, 3)))).item() == 1.0

    def test_upsample_repeats(self):
        x = Tensor(np.array([1.0, 2.0]).reshape(1, 1, 2, 1, 1))
        y = nn_ops.nearest_upsample3d(x)
        np.testing.assert_array_equal(y.data.ravel(), [1.0, 1.0, 2.0, 2.0])

    def test_upsample_grad_counts_replicas(self):
        rng = np.random.default_rng(1)
        x = Tensor(rng.standard_normal((1, 1, 3, 2, 2)), requires_grad=True)
        with T.record():
            y = nn_ops.nearest_upsample3d(x)
            T.backward(scale(T.mean(y), y.size))  # a sum
        np.testing.assert_array_equal(x.grad, np.full(x.shape, 2.0))


class TestMseAndBackward:
    def test_mse_zero(self):
        rng = np.random.default_rng(0)
        v = rng.standard_normal(5)
        assert T.mse_loss(Tensor(v), Tensor(v.copy())).item() == 0.0

    def test_mse_hand_value(self):
        assert T.mse_loss(Tensor([0.0, 0.0]), Tensor([1.0, 3.0])).item() == 5.0

    def test_mse_random_oracle(self):
        rng = np.random.default_rng(2)
        a, b = rng.standard_normal(17), rng.standard_normal(17)
        with T.float64():
            got = T.mse_loss(Tensor(a), Tensor(b)).item()
        assert got == np.mean((a - b) ** 2)

    def test_sum_backward_all_ones(self):
        x = Tensor(np.zeros((3, 4)), requires_grad=True)
        with T.record():
            T.backward(scale(T.mean(x), x.size))
        np.testing.assert_array_equal(x.grad, np.ones((3, 4)))

    def test_hand_chain_rule(self):
        w = Tensor([2.0], requires_grad=True)
        x = Tensor([3.0])
        y = Tensor([5.0])
        with T.record():
            T.backward(T.mse_loss(T.linear(x, T.reshape(w, (1, 1)), Tensor([0.0])), y))
        np.testing.assert_allclose(w.grad, [6.0])

    def test_accumulation_sums_over_uses(self):
        rng = np.random.default_rng(3)
        x = Tensor(rng.standard_normal(4), requires_grad=True)
        t = Tensor(rng.standard_normal(4))
        with T.record():
            T.backward(T.mse_loss(T.add(x, x), t))
        g_two_uses = x.grad.copy()

        x.grad = None
        with T.record():
            T.backward(T.mse_loss(scale(x, 2.0), t))
        np.testing.assert_array_equal(g_two_uses, x.grad)

    def test_backward_releases_tape_as_it_goes(self):
        """Each entry is popped before its pull; only leaves keep a grad."""
        rng = np.random.default_rng(4)
        with T.float64(), T.record():
            x = Tensor(rng.standard_normal(5), requires_grad=True)
            w = Tensor(rng.standard_normal(5), requires_grad=True)
            t = rng.standard_normal(5)
            tape_in_first_pull = []
            y = Tensor(2.0 * x.data, requires_grad=True)   # y = 2x, recorded first

            def pull(g):
                tape_in_first_pull.append(len(T._tape))
                T._accum(x.slot, 2.0 * g)

            T._record(y, pull)
            s = T.add(y, w)
            loss = T.mse_loss(s, Tensor(t))
            T.backward(loss)
        assert tape_in_first_pull == [0]
        assert loss.grad is None and s.grad is None and y.grad is None
        gs = 2.0 / 5 * (2.0 * x.data + w.data - t)
        np.testing.assert_allclose(w.grad, gs, rtol=1e-14)
        np.testing.assert_allclose(x.grad, 2.0 * gs, rtol=1e-14)

    def test_non_scalar_loss_rejected(self):
        x = Tensor(np.zeros(3), requires_grad=True)
        with pytest.raises(DimensionError), T.record():
            T.backward(T.add(x, x))

    def test_determinism_bit_identical(self):
        def run():
            rng = np.random.default_rng(11)
            x = Tensor(rng.standard_normal((2, 8, 4)), requires_grad=True)
            w = Tensor(rng.standard_normal((4, 4)), requires_grad=True)
            b = Tensor(np.zeros(4))
            with T.record():
                y = T.linear(T.gelu(T.linear(x, w, b)), w, b)
                loss = T.mse_loss(y, Tensor(rng.standard_normal((2, 8, 4))))
                T.backward(loss)
            return loss.item(), x.grad.tobytes(), w.grad.tobytes()

        assert run() == run()

    def test_float64_restores_dtype_when_body_raises(self):
        assert T.compute_dtype() is np.float32
        with pytest.raises(DimensionError):
            with T.float64():
                assert T.compute_dtype() is np.float64
                raise DimensionError("raised inside float64()")
        assert T.compute_dtype() is np.float32

    def test_flags_are_per_thread(self):
        """A thread inside record() and float64() leaves the main thread unrecorded, in float32,
        with an empty tape of its own."""
        inside, done = threading.Event(), threading.Event()
        seen = {}

        def worker():
            with T.record(), T.float64():
                y = T.elu(Tensor(np.ones(2), requires_grad=True))
                seen["worker"] = (T.compute_dtype(), y.requires_grad, len(T._tape))
                inside.set()
                done.wait(10)

        thread = threading.Thread(target=worker)
        thread.start()
        try:
            assert inside.wait(10)
            assert T.compute_dtype() is np.float32
            assert not T.elu(Tensor(np.ones(2), requires_grad=True)).requires_grad
            assert len(T._tape) == 0   # the worker's entry is on the worker's tape
        finally:
            done.set()
            thread.join(10)
        assert seen["worker"] == (np.float64, True, 1)
        assert T.compute_dtype() is np.float32
        assert not T._tape

    def test_tapes_are_per_asyncio_task(self):
        """Task B leaving its own record() leaves task A's tape whole: A's backward fills x.grad."""
        x = Tensor(np.ones(3), requires_grad=True)
        seen = {}

        async def task_a(opened, b_left):
            with T.record():
                loss = T.mean(T.elu(x))
                opened.set()
                await b_left.wait()
                seen["a"] = len(T._tape)
                T.backward(loss)

        async def task_b(opened, b_left):
            await opened.wait()
            with T.record():
                T.elu(Tensor(np.ones(2), requires_grad=True))
                seen["b"] = len(T._tape)
            b_left.set()

        async def main():
            opened, b_left = asyncio.Event(), asyncio.Event()
            await asyncio.gather(task_a(opened, b_left), task_b(opened, b_left))

        asyncio.run(main())
        assert seen == {"a": 2, "b": 1}
        np.testing.assert_allclose(x.grad, np.full(3, 1 / 3), rtol=1e-6)
        assert not T._tape


class TestRecord:
    def test_nothing_recorded_outside_record(self):
        x = Tensor(np.ones(3), requires_grad=True)
        y = T.mean(T.elu(x))
        assert not y.requires_grad
        assert not T._tape

    def test_body_that_raised_leaves_tape_empty(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(DimensionError), T.record():
            T.elu(x)
            assert len(T._tape) == 1
            T.add(x, Tensor(np.ones(2)))
        assert not T._tape
        assert not T.elu(x).requires_grad

    def test_failed_backward_keeps_no_entry_alive(self):
        """A kept exception from a pull holds none of the entries left on the dropped tape."""
        x = Tensor(np.ones(3), requires_grad=True)

        def fail(g):
            raise DimensionError("pull failed")

        with pytest.raises(DimensionError) as info, T.record():
            h = T.elu(x)
            first_pull = weakref.ref(T._tape.entries[0][1])
            out = Tensor(np.ones(3), requires_grad=True)
            T._record(out, fail)
            T.backward(T.mean(T.add(out, h)))
        assert info.value.__traceback__ is not None
        assert first_pull() is None

    def test_nested_scope_keeps_outer_tape(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        with T.record():
            y = T.add(x, x)
            with T.record():
                z = T.mean(y)
            assert len(T._tape) == 2
            T.backward(z)
        np.testing.assert_array_equal(x.grad, [1.0, 1.0])
        assert not T._tape

    def test_backward_outside_record_raises(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(PulseformerError, match=r"record\(\)"):
            T.backward(T.mean(x))
        with T.record():
            loss = T.mean(T.elu(x))
        with pytest.raises(PulseformerError, match=r"record\(\)"):
            T.backward(loss)
        assert x.grad is None


class TestTapeSlots:
    def test_tape_holds_slots_and_iterates_live_outputs(self):
        """len and entries see every entry; iteration yields the outputs still alive."""
        x = Tensor(np.ones(3), requires_grad=True)
        with T.record():
            kept = T.elu(x)
            T.elu(kept)   # its output is dropped at once

            def pull(g):
                T._accum(x.slot, g)

            last = Tensor(np.ones(3), requires_grad=True)
            T._record(last, pull)
            assert len(T._tape) == 3
            assert [out for out, _ in T._tape] == [kept, last]
            assert T._tape.entries[-1][1] is pull
            assert T._tape.entries[-1][0] is last.slot


class TestGradientOwnership:
    def test_residual_block_grads_alias_nothing(self, monkeypatch):
        """Grads handed over without a copy share memory with no grad or tensor data."""
        rng = np.random.default_rng(12)
        store = _ParamStore()
        block = _Block(store, "b", 8, 2, 2.0, rng)
        rel = nn_ops.RelativeBias(2, (1, 2, 3))
        x = Tensor(rng.standard_normal((2, 6, 8)), requires_grad=True)
        z = Tensor(np.zeros(x.shape), requires_grad=True)
        made, record = [], T._record

        def keep(out, pull):   # the tape holds slots: keep every op output alive
            made.append(out)
            record(out, pull)

        monkeypatch.setattr(T, "_record", keep)
        monkeypatch.setattr(nn_ops, "_record", keep)
        with T.record():
            y = block(T.add(x, z), rel)
            loss = T.mse_loss(y, Tensor(rng.standard_normal(y.shape)))
            T.backward(loss)
        leaves = [x, z, *store.params.values(), *rel.tables()]
        grads = [t.grad for t in leaves]
        assert all(g is not None for g in grads)
        datas = [t.data for t in leaves + made]
        for i, g in enumerate(grads):
            assert not any(np.shares_memory(g, o) for o in grads[:i] + grads[i + 1:] + datas)

    def test_mean_hand_over_takes_a_second_contribution(self):
        """x's first gradient comes from mean's pull, and scale's is added into it."""
        x = Tensor(np.ones((2, 4)), requires_grad=True)
        with T.record():
            z = scale(x, 3.0)
            m = T.mean(x, axes=(0,))
            T.backward(T.mean(T.add(m, T.mean(z, axes=(0,)))))
        # 1/4 * 1/2 from the mean of x, three times that through z
        np.testing.assert_array_equal(x.grad, np.full((2, 4), 0.5))

    def test_add_hand_over_takes_a_second_contribution(self):
        """add's pull hands g to x and a copy to w, whose later contribution leaves x alone."""
        x = Tensor(np.ones(4), requires_grad=True)
        w = Tensor(np.ones(4), requires_grad=True)
        with T.record():
            u = scale(w, 2.0)
            T.backward(T.mean(T.add(T.add(x, w), u)))
        np.testing.assert_array_equal(x.grad, np.full(4, 0.25))
        np.testing.assert_array_equal(w.grad, np.full(4, 0.75))


def _block_step(seed=21):
    """Loss and gradient bytes of one _Block step; its MLP hidden array spans 1.125 GELU chunks."""
    rng = np.random.default_rng(seed)
    store = _ParamStore()
    block = _Block(store, "b", 24, 2, 4.0, rng)
    rel = nn_ops.RelativeBias(2, (3, 8, 8))
    x = Tensor(rng.standard_normal((2, 192, 24)), requires_grad=True)
    target = Tensor(rng.standard_normal(x.shape))
    with T.record():
        loss = T.mse_loss(block(x, rel), target)
        T.backward(loss)
    leaves = [x, *store.params.values(), *rel.tables()]
    return [loss.data.tobytes()] + [t.grad.tobytes() for t in leaves]


def _arrays_reached(obj, seen, out):
    """Append every array a pull closure reaches: cells, tensors, containers, nested closures."""
    if id(obj) in seen:
        return
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        out.append(obj)
    elif isinstance(obj, Tensor):
        _arrays_reached(obj.data, seen, out)
    elif isinstance(obj, (tuple, list)):
        for item in obj:
            _arrays_reached(item, seen, out)
    elif callable(obj) and getattr(obj, "__closure__", None):
        for cell in obj.__closure__:
            with contextlib.suppress(ValueError):   # a cell not yet filled
                _arrays_reached(cell.cell_contents, seen, out)
    elif hasattr(obj, "__dict__") and not isinstance(obj, type):
        for item in vars(obj).values():
            _arrays_reached(item, seen, out)


def _gelu_whole(v, g):
    """GELU's output and input gradient from whole-array formulas, in the op's order."""
    th = np.tanh(math.sqrt(2.0 / math.pi) * (v + 0.044715 * (v * v * v)))
    y = 0.5 * v * (1.0 + th)
    b = np.subtract(1.0, th * th)
    b *= 0.5 * v
    du = v * v
    du *= 3 * 0.044715
    du += 1.0
    du *= math.sqrt(2.0 / math.pi)
    b *= du
    th += 1.0
    th *= 0.5
    th += b
    return y, g * th


GELU_SPECIALS = [0.0, -0.0, np.inf, -np.inf, np.nan, 1e-40, -1e-40, 1e-310, -1e-310, 30.0, -30.0]


class TestCheckpoint:
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("wide", [False, True])
    def test_block_step_matches_the_recorded_branch(self, monkeypatch, wide, workers):
        """A checkpointed _Block gives the loss and gradients of one that records its MLP."""
        monkeypatch.setattr(nn_ops, "_workers", lambda: workers)
        with T.float64() if wide else contextlib.nullcontext():
            checkpointed = _block_step()
            monkeypatch.setattr(T, "checkpoint", lambda fn, *xs: fn(*xs))
            recorded = _block_step()
        assert checkpointed == recorded

    def test_block_matches_finite_differences(self):
        rng = np.random.default_rng(22)
        store = _ParamStore()
        with T.float64():
            block = _Block(store, "b", 8, 2, 4.0, rng)
            rel = nn_ops.RelativeBias(2, (2, 2, 3))
            x = Tensor(rng.standard_normal((2, 12, 8)), requires_grad=True)
            target = Tensor(rng.standard_normal(x.shape))
        err = max_relative_error(lambda: T.mse_loss(block(x, rel), target),
                                 [x, *store.params.values()], sample=200,
                                 rng=np.random.default_rng(23))
        assert err <= 1e-5

    def test_tape_reaches_no_mlp_hidden_array(self):
        """At backward start, no activation that a pull keeps alive has the MLP's hidden width."""
        rng = np.random.default_rng(24)
        store = _ParamStore()
        block = _Block(store, "b", 8, 2, 5.0, rng)   # hidden width 40, no other axis is 40
        rel = nn_ops.RelativeBias(2, (2, 3, 4))
        x = Tensor(rng.standard_normal((2, 24, 8)), requires_grad=True)
        with T.record():
            loss = T.mean(block(x, rel))
            reached = []
            _arrays_reached([pull for _, pull in T._tape.entries], set(), reached)
            T.backward(loss)
        params = {id(t.data) for t in [*store.params.values(), *rel.tables()]}
        hidden = [a.shape for a in reached if a.shape[-1:] == (40,) and id(a) not in params]
        assert reached and not hidden

    def test_tape_reaches_no_array_that_no_pull_reads(self, monkeypatch):
        """At backward start, no pull reaches the q/k/v projections, k, v or a branch output."""
        rng = np.random.default_rng(27)
        store = _ParamStore()
        block = _Block(store, "b", 8, 2, 4.0, rng)
        rel = nn_ops.RelativeBias(2, (2, 3, 4))
        x = Tensor(rng.standard_normal((2, 24, 8)), requires_grad=True)
        unread = []
        linear, core, checkpoint = T.linear, nn_ops.attention_core, T.checkpoint

        def spy_linear(*args):   # the q/k/v projections and the attention branch output
            out = linear(*args)
            unread.append(out.data)
            return out

        def spy_core(q, k, v, rel=None):
            unread.extend([k.data, v.data])
            return core(q, k, v, rel=rel)

        def spy_checkpoint(fn, *xs):
            out = checkpoint(fn, *xs)
            unread.append(out.data)
            return out

        monkeypatch.setattr(T, "linear", spy_linear)
        monkeypatch.setattr(nn_ops, "attention_core", spy_core)
        monkeypatch.setattr(T, "checkpoint", spy_checkpoint)
        with T.record():
            loss = T.mean(block(x, rel))
            reached = []
            _arrays_reached([pull for _, pull in T._tape.entries], set(), reached)
            assert len(unread) == 9   # 4 attention and 2 MLP projections, k, v, the MLP branch
            hit = [u.shape for u in unread if any(np.shares_memory(u, a) for a in reached)]
            T.backward(loss)
        assert reached and not hit

    def test_rerun_keeps_the_forward_dtype(self):
        """The rebuilt graph runs in the forward's dtype even when backward runs outside it."""
        with T.float64():
            x = Tensor(np.random.default_rng(25).standard_normal(50), requires_grad=True)

        def grad(checkpoint):
            x.grad = None
            with T.record():
                with T.float64():
                    loss = T.mean(checkpoint(lambda t: T.gelu(T.gelu(t)), x))
                T.backward(loss)
            return x.grad

        got = grad(T.checkpoint)
        assert got.dtype == np.float64
        assert got.tobytes() == grad(lambda fn, *xs: fn(*xs)).tobytes()

    def test_rerun_that_raises_propagates_and_tape_empties(self):
        x = Tensor(np.ones(3), requires_grad=True)
        runs = []

        def fn(t):
            y = T.elu(t)
            runs.append(len(T._tape))
            if len(runs) > 1:
                raise DimensionError("the re-run failed")
            return y

        with pytest.raises(DimensionError, match="re-run"), T.record():
            T.backward(T.mean(T.checkpoint(fn, x)))
        assert runs == [0, 1]   # the forward recorded nothing; the re-run recorded elu
        assert not T._tape
        assert x.grad is None

    def test_without_gradients_it_is_the_function(self):
        """Outside record(), or with no input needing a gradient, nothing is recorded."""
        x = Tensor(np.ones(3), requires_grad=True)
        c = Tensor(np.ones(3))
        made = []

        def fn(t):
            made.append(T.elu(t))
            return made[-1]

        assert T.checkpoint(fn, x) is made[-1] and not made[-1].requires_grad
        with T.record():
            assert T.checkpoint(fn, c) is made[-1] and not made[-1].requires_grad
            assert not T._tape

    def test_model_checkpoints_only_block_mlps(self, monkeypatch):
        """The model checkpoints one branch per block, and none runs batch norm's update."""
        cfg = model.ModelConfig(input_dims=(60, 32, 32), output_format="Signal",
                                frame_format="DiffNorm", base_width=8,
                                stage_depths=(1, 1, 1, 1))
        net = model.MultiscaleVideoTransformer(cfg, seed=0)
        inside, calls = [], []
        checkpoint, batchnorm = T.checkpoint, nn_ops.batchnorm3d

        def spy_checkpoint(fn, *xs):
            calls.append(fn)
            inside.append(True)
            try:
                return checkpoint(fn, *xs)
            finally:
                inside.pop()

        def spy_batchnorm(*args, **kw):
            assert not inside, "batch norm ran inside a checkpointed function"
            return batchnorm(*args, **kw)

        monkeypatch.setattr(T, "checkpoint", spy_checkpoint)
        monkeypatch.setattr(nn_ops, "batchnorm3d", spy_batchnorm)
        x = Tensor(np.random.default_rng(26).standard_normal((1, 3, 60, 32, 32)))
        with T.record():
            T.backward(T.mean(net.forward(x, training=True)))
        assert calls == [model._mlp] * sum(cfg.stage_depths)


@settings(max_examples=60, deadline=None)
@given(n=st.sampled_from([1, 7, T.GELU_CHUNK - 1, T.GELU_CHUNK, T.GELU_CHUNK + 1,
                          2 * T.GELU_CHUNK + 5]),
       wide=st.booleans(), seed=st.integers(0, 2 ** 32 - 1),
       specials=st.lists(st.tuples(st.one_of(st.integers(0, 2 ** 31),
                                             st.sampled_from([T.GELU_CHUNK - 1, T.GELU_CHUNK])),
                                   st.sampled_from(GELU_SPECIALS)), max_size=8))
def test_chunked_gelu_matches_whole_array_formulas(n, wide, seed, specials):
    """Forward and pull over chunks give the whole-array bits, specials included."""
    dtype = np.float64 if wide else np.float32
    rng = np.random.default_rng(seed)
    v = (3.0 * rng.standard_normal(n)).astype(dtype)
    for pos, value in specials:
        v[pos % n] = value
    g = rng.standard_normal(n).astype(dtype)
    with np.errstate(invalid="ignore", over="ignore"):   # inf * 0 where tanh saturates
        with T.float64() if wide else contextlib.nullcontext(), T.record():
            x = Tensor(v, requires_grad=True)
            y = T.gelu(x)
            T._tape.entries[-1][1](g.copy())
        want_y, want_g = _gelu_whole(v, g)
    assert y.data.tobytes() == want_y.tobytes()
    assert x.grad.tobytes() == want_g.tobytes()


class TestRetainedMemory:
    @pytest.mark.parametrize("op", ["gelu", "layernorm", "batchnorm3d"])
    def test_op_keeps_only_its_output(self, op):
        """Under record(), the op's new allocations still alive are its output and row stats."""
        rng = np.random.default_rng(13)
        shape = (2, 4, 8, 16, 16) if op == "batchnorm3d" else (4, 512, 32)
        c = shape[1] if op == "batchnorm3d" else shape[-1]
        x = Tensor(rng.standard_normal(shape), requires_grad=True)
        gamma = Tensor(np.ones(c), requires_grad=True)
        beta = Tensor(np.zeros(c), requires_grad=True)
        run = {"gelu": lambda: T.gelu(x),
               "layernorm": lambda: nn_ops.layernorm(x, gamma, beta),
               "batchnorm3d": lambda: nn_ops.batchnorm3d(x, gamma, beta, np.zeros(c),
                                                         np.ones(c), training=True)}[op]
        with T.record():
            tracemalloc.start()
            try:
                out = run()
                kept = tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()
            assert len(T._tape) == 1
        assert out.data.nbytes <= kept < 1.1 * out.data.nbytes

    def test_backward_drops_the_output_before_its_pull(self):
        """An output that no pull reads is freed before its pull runs: the tape holds its slot."""
        x = Tensor(np.ones(4), requires_grad=True)
        freed = []
        with T.record():
            out = Tensor(np.arange(4.0), requires_grad=True)
            ref = weakref.ref(out.data)

            def pull(g):
                freed.append(ref() is None)
                T._accum(x.slot, g)

            T._record(out, pull)
            loss = T.mean(out)
            del out
            T.backward(loss)
        assert freed == [True]

    def test_gelu_pull_peaks_below_half_its_input(self):
        """On 16 chunks, GELU's pull makes only chunk-sized arrays: it writes into its g."""
        x = Tensor(np.random.default_rng(16).standard_normal(16 * T.GELU_CHUNK),
                   requires_grad=True)
        g = np.ones_like(x.data)
        with T.record():
            T.gelu(x)
            pull = T._tape.entries[-1][1]
            tracemalloc.start()
            try:
                pull(g)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert x.grad is g
        assert peak < 0.5 * x.data.nbytes

    def test_adamw_makes_its_moments_at_the_first_step(self):
        """Building the optimiser allocates no moments; its first step makes them."""
        params = {"w": Tensor(np.zeros(1 << 18), requires_grad=True)}   # 1 MiB of float32
        tracemalloc.start()
        try:
            opt = AdamW(params, lr=0.1)
            built = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert built < 0.1 * params["w"].data.nbytes
        params["w"].grad = np.ones_like(params["w"].data)
        opt.step()
        assert opt.m["w"].shape == opt.v["w"].shape == params["w"].shape


@pytest.mark.parametrize("name", OP_CASES)
def test_float32_op_matches_float64(name):
    """Float32 storage: output and grads in float32, close to the same op in float64."""
    shapes, op = OP_CASES[name]
    rng = np.random.default_rng(14)
    params = [Tensor(rng.standard_normal(s), requires_grad=True) for s in shapes]
    y32 = op(*params).data
    target = Tensor(rng.standard_normal(y32.shape))

    def loss():
        return T.mse_loss(op(*params), target)

    g32 = loss_grads(loss, params)
    assert y32.dtype == np.float32 and all(g.dtype == np.float32 for g in g32)
    *params, target = widen(*params, target)
    with T.float64():
        y64 = op(*params).data
    with T.float64():
        g64 = loss_grads(loss, params)
    assert y64.dtype == np.float64 and all(g.dtype == np.float64 for g in g64)
    np.testing.assert_allclose(y32, y64, rtol=1e-5, atol=1e-5 * np.abs(y64).max())
    assert_float32_grads_close(g32, g64)
