"""Neural-network operators on the autodiff tape.

The three-dimensional convolution is evaluated as GEMMs over each batch
item's columns, copied from a strided patch view (column layout chosen so
the backward scatter adds along aligned axes), one GEMM per channel group,
in the same slabs of whole output frames in its forward and its pull; CPE's
depthwise convolution is the case of one group per channel. Attention is
evaluated in two-dimensional tiles, ATTN_BLOCK query rows by KEY_BLOCK keys,
so every score tile stays in a core's L2 cache however long the token
sequence is. The forward sweeps a query block over its key tiles with a
running row max, as FlashAttention does, and saves one log-sum-exp per query
row; the backward rebuilds each tile's softmax probabilities from it with a
single exp. The decomposed relative position bias of a tile is added from a
zero-copy strided view of one per-head table, and its gradient is binned per
axis from the marginals of the score gradient, summed tile by tile.

Every op computes in its graph's one dtype, the storage dtype of ``tensor``
(float32 unless inside ``tensor.float64()``), and gives any output, scratch
or gradient array it allocates that dtype.

Attention and conv3d split their work into chunks that ``_run_chunks`` hands
to as many workers as ``one_blas_thread`` holds; its docstring states the
chunk contract, under which every worker count gives the same bits.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import itertools
import threading
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import as_strided, sliding_window_view

from . import tensor as T
from .errors import ConfigurationError, DimensionError
from .tensor import Tensor, _accum, _needs_grad, _record

# query rows per attention block and keys per score tile: a float32 tile of
# 256 x 1024 is 1 MiB, so the passes over it run from L2. With a relative bias
# both are cut as whole (h, w) planes, or whole w-lines of one plane, so either
# may reach the grid width when that exceeds it.
ATTN_BLOCK = 256
KEY_BLOCK = 1024
# output columns per conv3d GEMM, in every pass, rounded down to whole output
# frames (at least one): the stem's 441 x 1024 float32 column slab is
# 1.7 MiB, where its whole item's columns are 25.8 MiB
CONV_SLAB = 1024
# contiguous chunks of (head, query block) items in one attention backward;
# fixed, so the chunk-order sums of dk, dv and the tables are too
CHUNKS = 8


# ---------------------------------------------------------------------------
# 3-D convolution
# ---------------------------------------------------------------------------

def _conv3d_out_dims(dims, kernel, stride, pad):
    out = []
    for d, k, s, p in zip(dims, kernel, stride, pad):
        span = d + 2 * p - k
        if span < 0:
            raise DimensionError(
                f"kernel {kernel} does not fit padded input {tuple(dims)} with pad {tuple(pad)}")
        out.append(span // s + 1)
    return tuple(out)


def conv3d(x: Tensor, w: Tensor, b: Tensor,
           stride: tuple[int, int, int] = (1, 1, 1),
           pad: tuple[int, int, int] = (0, 0, 0)) -> Tensor:
    """3-D convolution of x[N,C,T,H,W] with w[K,C/G,kT,kH,kW] plus bias b[K], zero padding.

    The G = C / w.shape[1] groups are read off the shapes: group g's K/G
    filters see only its C/G channels. Output extents follow floor((D + 2p -
    k)/s) + 1 per spatial axis. Each batch item is one chunk of
    ``_run_chunks``, and every pass walks it in the same slabs of whole
    output frames (``CONV_SLAB`` columns, or one frame if a frame is wider),
    so no pass holds more than one slab's columns. The forward copies the
    item into its worker's zero-bordered buffer and makes each slab's
    outputs with one GEMM per group. The pull rebuilds each slab's columns,
    adds g·colsᵀ into the item's dw partial in slab order, then writes w2ᵀ g
    into the same column buffer and scatters it into the zero-bordered dx.
    ``_ChunkSum`` adds the dw partials in item order, so the result does not
    depend on the worker count.
    """
    if x.ndim != 5 or w.ndim != 5:
        raise DimensionError(f"conv3d expects 5-D input/kernel, got {x.shape}, {w.shape}")
    n, c = x.shape[:2]
    k = w.shape[0]
    if not 0 < w.shape[1] <= c or c % w.shape[1] or k % (c // w.shape[1]):
        raise DimensionError(f"conv3d channel mismatch: input {x.shape[1]}, kernel {w.shape[:2]}")
    groups = c // w.shape[1]
    if any(s < 1 for s in stride):
        raise DimensionError(f"conv3d strides must be >= 1, got {stride}")
    if b.shape != (k,):
        raise DimensionError(f"conv3d bias {b.shape} incompatible with {k} filters")
    kernel = w.shape[2:]
    out_dims = _conv3d_out_dims(x.shape[2:], kernel, stride, pad)
    pad_shape = (c,) + tuple(d + 2 * p for d, p in zip(x.shape[2:], pad))
    interior = (Ellipsis,) + tuple(slice(p, p + d) for d, p in zip(x.shape[2:], pad))
    w2 = w.data.reshape(groups, k // groups, -1)
    rows = groups * w2.shape[2]
    (st, sh, sw), (to, ho, wo) = stride, out_dims
    frame = ho * wo
    dtype = x.data.dtype   # the graph's: w, b and g share it
    slab = max(1, CONV_SLAB // frame)
    slabs = [(t0, min(t0 + slab, to)) for t0 in range(0, to, slab)]

    def item_scratch():
        """A zero-bordered item buffer and a column buffer for one slab."""
        return np.zeros(pad_shape, dtype=dtype), np.empty(rows * slab * frame, dtype=dtype)

    def item_columns(xp, buf, t0, t1):
        """The columns of output frames t0:t1 of the item in ``xp``, (G, rows/G, ·) in ``buf``."""
        cols = buf[:rows * (t1 - t0) * frame].reshape(groups, rows // groups, -1)
        s = xp.strides   # a (C, kT, kH, kW, T', H', W') view; sliding_window_view costs 50 µs more
        patches = as_strided(xp[:, t0 * st:], (c,) + kernel + (t1 - t0, ho, wo),
                             s + (s[1] * st, s[2] * sh, s[3] * sw), writeable=False)
        cols.reshape(patches.shape)[...] = patches
        return cols

    y = np.empty((n, groups, k // groups, to * frame), dtype=dtype)

    def forward(i, scratch):
        xp, buf = scratch
        xp[interior] = x.data[i]
        for t0, t1 in slabs:
            np.matmul(w2, item_columns(xp, buf, t0, t1), out=y[i][..., t0 * frame:t1 * frame])
        y[i] += b.data.reshape(groups, -1, 1)

    _run_chunks(forward, n, item_scratch)
    out = Tensor(y.reshape((n, k) + out_dims), requires_grad=_needs_grad(x, w, b))

    def pull(g):
        _accum(b.slot, g.reshape(n, k, -1).sum(axis=(0, 2)))
        g2 = g.reshape(n, groups, k // groups, -1)
        dw2 = _ChunkSum([np.zeros_like(w2)])
        dx = np.empty(x.shape, dtype=dtype) if x.requires_grad else None

        def scratch():   # pages of a buffer that is never written are never touched
            return (*item_scratch(),
                    np.zeros(pad_shape, dtype=dtype) if x.requires_grad else None,
                    [np.zeros_like(w2)])

        def backward(i, scratch):
            xp, buf, dxp, part = scratch
            xp[interior] = x.data[i]
            if x.requires_grad:
                dxp.fill(0)
            for t0, t1 in slabs:
                gs = g2[i][..., t0 * frame:t1 * frame]
                part[0] += gs @ item_columns(xp, buf, t0, t1).transpose(0, 2, 1)
                if x.requires_grad:
                    cols = np.matmul(w2.transpose(0, 2, 1), gs,
                                     out=buf[:rows * gs.shape[2]].reshape(groups, -1, gs.shape[2]))
                    dc = cols.reshape((c,) + kernel + (t1 - t0, ho, wo))
                    span = dxp[:, t0 * st:]
                    for dt, dh, dw_ in np.ndindex(*kernel):
                        span[:, dt:dt + st * (t1 - t0):st, dh:dh + sh * ho:sh,
                             dw_:dw_ + sw * wo:sw] += dc[:, dt, dh, dw_]
            dw2.add(i, part)
            if x.requires_grad:
                dx[i] = dxp[interior]

        _run_chunks(backward, n, scratch)
        _accum(w.slot, dw2.total[0].reshape(w.shape))
        if x.requires_grad:
            _accum(x.slot, dx)

    _record(out, pull)
    return out


def depthwise_conv3d(x: Tensor, w: Tensor) -> Tensor:
    """Per-channel 3x3x3 convolution with padding 1 and stride 1.

    Kernel shape (C, 3, 3, 3); each channel is convolved with its own filter.
    It is ``conv3d`` with one group per channel and no bias.
    """
    if x.ndim != 5 or w.shape != (x.shape[1], 3, 3, 3):
        raise DimensionError(f"depthwise kernel {w.shape} incompatible with input {x.shape}")
    c = x.shape[1]
    return conv3d(x, T.reshape(w, (c, 1, 3, 3, 3)), Tensor(np.zeros(c)), pad=(1, 1, 1))


# ---------------------------------------------------------------------------
# normalisation
# ---------------------------------------------------------------------------

# batch norm's running-estimate momentum, and the variance floor of both norms
BN_MOMENTUM, NORM_EPS = 0.1, 1e-5


def batchnorm3d(x: Tensor, gamma: Tensor, beta: Tensor, running_mean: np.ndarray,
                running_var: np.ndarray, training: bool) -> Tensor:
    """Per-channel batch normalisation over (N, T, H, W) with affine.

    Training mode normalises by population batch statistics and updates the
    float64 running estimates in place; eval mode uses them. The pull
    rebuilds x̂ from the input and the per-channel mean and 1/std rather than
    keeping it, so the op keeps no full-size array besides its output.
    """
    if x.ndim != 5:
        raise DimensionError(f"batchnorm3d expects 5-D input, got {x.shape}")
    c = x.shape[1]
    axes = (0, 2, 3, 4)
    shape = (1, c, 1, 1, 1)
    if training:
        mu = x.data.mean(axis=axes)
        var = x.data.var(axis=axes)
        # in place, so the model's checkpoint buffers see the update
        running_mean[...] = (1 - BN_MOMENTUM) * running_mean + BN_MOMENTUM * mu
        running_var[...] = (1 - BN_MOMENTUM) * running_var + BN_MOMENTUM * var
    else:   # the float64 running buffers, in the graph's dtype
        mu = running_mean.astype(x.data.dtype, copy=False)
        var = running_var.astype(x.data.dtype, copy=False)
    mu, inv = mu.reshape(shape), (1.0 / np.sqrt(var + NORM_EPS)).reshape(shape)
    y = gamma.data.reshape(shape) * ((x.data - mu) * inv) + beta.data.reshape(shape)
    out = Tensor(y, requires_grad=_needs_grad(x, gamma, beta))

    def pull(g):
        xhat = (x.data - mu) * inv
        _accum(gamma.slot, (g * xhat).sum(axis=axes))
        _accum(beta.slot, g.sum(axis=axes))
        if not x.requires_grad:
            return
        gx = g * gamma.data.reshape(shape)
        if training:
            mean_gx = gx.mean(axis=axes).reshape(shape)
            mean_gxx = (gx * xhat).mean(axis=axes).reshape(shape)
            _accum(x.slot, inv * (gx - mean_gx - xhat * mean_gxx))
        else:
            _accum(x.slot, gx * inv)

    _record(out, pull)
    return out


def layernorm(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Normalise over the last axis (population variance), then affine.

    The pull rebuilds x̂ from the input and the per-row mean and 1/std rather
    than keeping it, so the op keeps no full-size array besides its output.
    """
    d = x.shape[-1]
    if gamma.shape != (d,) or beta.shape != (d,):
        raise DimensionError(f"layernorm affine shapes {gamma.shape}/{beta.shape} != ({d},)")
    mu = x.data.mean(axis=-1, keepdims=True)
    var = x.data.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + NORM_EPS)
    out = Tensor(gamma.data * ((x.data - mu) * inv) + beta.data,
                 requires_grad=_needs_grad(x, gamma, beta))

    def pull(g):
        xhat = (x.data - mu) * inv
        red = tuple(range(g.ndim - 1))
        _accum(gamma.slot, (g * xhat).sum(axis=red))
        _accum(beta.slot, g.sum(axis=red))
        if not x.requires_grad:
            return
        gx = g * gamma.data
        mean_gx = gx.mean(axis=-1, keepdims=True)
        mean_gxx = (gx * xhat).mean(axis=-1, keepdims=True)
        _accum(x.slot, inv * (gx - mean_gx - xhat * mean_gxx))

    _record(out, pull)
    return out


# ---------------------------------------------------------------------------
# nearest upsampling
# ---------------------------------------------------------------------------

def nearest_upsample3d(x: Tensor) -> Tensor:
    """Repeat each sample of x[N, C, T, H, W] twice along T; grads sum over both."""
    out = Tensor(np.repeat(x.data, 2, axis=2), requires_grad=_needs_grad(x))
    sx, (n, c, t, h, w) = x.slot, x.shape

    def pull(g):
        _accum(sx, g.reshape(n, c, t, 2, h, w).sum(axis=3))

    _record(out, pull)
    return out


# ---------------------------------------------------------------------------
# attention
# ---------------------------------------------------------------------------

def grid_blocks(grid: tuple[int, int, int], size: int) -> list[tuple]:
    """Token-row blocks as (i0, i1, (t slice, h slice)) of a (gt, gh, gw) token grid.

    Attention cuts both its query blocks and its key tiles with this. A block
    is whole (h, w) planes, or whole w-lines of one plane when a plane has
    more than ``size`` rows, so its rows are contiguous, no block has more
    than max(size, gw) rows, and the bias of a query block over a key tile is
    the view ``bias[qb][:, :, :, kb[0], kb[1]]``. On the grid (L, 1, 1) the
    blocks are the plain ranges of ``size`` rows.
    """
    gt, gh, gw = grid
    plane = gh * gw
    nt = max(1, size // plane)           # planes per block
    nh = min(gh, max(1, size // gw))     # w-lines per block
    return [(t * plane + h * gw, (min(t + nt, gt) - 1) * plane + min(h + nh, gh) * gw,
             (slice(t, t + nt), slice(h, h + nh)))
            for t in range(0, gt, nt) for h in range(0, gh, nh)]


class RelativeBias:
    """Decomposed per-axis relative position tables for one token grid.

    Tables have shape (heads, 2*extent - 1) per axis; the pairwise bias is
    B[i, j] = T[ti-tj] + H[hi-hj] + W[wi-wj]. Each score tile reads its
    bias as a zero-copy strided view of one per-head table, and the table
    gradients are binned from the per-axis difference marginals of dS.
    """

    def __init__(self, heads: int, grid: tuple[int, int, int]):
        gt, gh, gw = grid
        self.grid = grid
        self.table_t = Tensor(np.zeros((heads, 2 * gt - 1)), requires_grad=True)
        self.table_h = Tensor(np.zeros((heads, 2 * gh - 1)), requires_grad=True)
        self.table_w = Tensor(np.zeros((heads, 2 * gw - 1)), requires_grad=True)

    def tables(self):
        return (self.table_t, self.table_h, self.table_w)

    def bias_view(self, head: int) -> np.ndarray:
        """Pairwise bias of one head as a read-only (gt, gh, gw, gt, gh, gw) view.

        The axis-flipped outer sum of the three tables, in their dtype, is
        copied once per query w offset, so the bias of one query row over a
        key plane is a contiguous run of gh*gw values.
        """
        gt, gh, gw = self.grid
        c = (self.table_t.data[head][:, None, None]
             + self.table_h.data[head][None, :, None]
             + self.table_w.data[head][None, None, :])
        flip = c[::-1, ::-1, ::-1]
        # lines[wi, a, b, wj] = flip[a, b, gw-1-wi+wj]
        lines = np.ascontiguousarray(
            sliding_window_view(flip, gw, axis=2)[:, :, ::-1].transpose(2, 0, 1, 3))
        # windows[wi, a0, b0, wj, tj, hj] = lines[wi, a0+tj, b0+hj, wj]; a0 = gt-1-ti
        windows = sliding_window_view(lines, (gt, gh), axis=(1, 2))
        return windows[:, ::-1, ::-1].transpose(1, 2, 0, 4, 5, 3)

    def add_key_sums(self, ds: np.ndarray, key_block: tuple[slice, slice],
                     sum_t: np.ndarray, sum_hw: np.ndarray) -> None:
        """Add the two key marginals of one score-gradient tile to a query block's sums.

        ``ds`` is (rows, keys) over the key rows of ``key_block``. Its sum over
        the key t index is added to the (rows, gh*gw) ``sum_t`` at the tile's
        key (h, w) positions, and its sum over the key (h, w) plane to the
        (rows, gt) ``sum_hw`` at the tile's key t indices. Both sums are
        products with a ones vector, which measured faster than ``sum``.
        """
        gt, gh, gw = self.grid
        t0, t1, _ = key_block[0].indices(gt)
        h0, h1, _ = key_block[1].indices(gh)
        rows, nt, cols = ds.shape[0], t1 - t0, (h1 - h0) * gw
        sum_t[:, h0 * gw:h1 * gw] += np.matmul(np.ones(nt, dtype=ds.dtype),
                                              ds.reshape(rows, nt, cols))
        sum_hw[:, t0:t1] += (ds.reshape(rows * nt, cols)
                             @ np.ones(cols, dtype=ds.dtype)).reshape(rows, nt)

    def accumulate_grads(self, sum_t: np.ndarray, sum_hw: np.ndarray,
                         block: tuple[slice, slice], head: int,
                         grads: tuple[np.ndarray, np.ndarray, np.ndarray]) -> None:
        """Bin one query block's key sums of dS into the table gradients of ``head``.

        ``sum_t`` and ``sum_hw`` are the block's dS summed over the key t index
        and over the key (h, w) plane (see ``add_key_sums``). Only the per-axis
        index-difference marginals of dS are needed, and they follow from
        these, so the full pair matrix never has to be binned; the bins add in
        float64.
        """
        gt, gh, gw = self.grid
        ts, hs = block
        q_t = np.arange(gt)[ts]
        q_h = np.arange(gh)[hs]
        red_t = sum_t.reshape(len(q_t), len(q_h), gw, gh, gw)   # (ti, hi, wi, hj, wj)
        marginals = (sum_hw.reshape(len(q_t), len(q_h) * gw, gt).sum(axis=1),   # (ti, tj)
                     red_t.sum(axis=(0, 2, 4)),                 # (hi, hj)
                     red_t.sum(axis=(0, 1, 3)))                 # (wi, wj)
        for grad, m, q, extent in zip(grads, marginals, (q_t, q_h, np.arange(gw)), self.grid):
            diff = q[:, None] - np.arange(extent)[None, :] + extent - 1
            grad[head] += np.bincount(diff.ravel(), weights=m.ravel(), minlength=2 * extent - 1)


@functools.cache
def _openblas():
    """(get, set) thread-count functions of numpy's bundled OpenBLAS, or None."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas*.so")):
        try:
            so = ctypes.CDLL(str(lib))
            return so.scipy_openblas_get_num_threads64_, so.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
    return None


# OpenBLAS's thread count before the first holder of one_blas_thread entered,
# 0 while none holds it, and the number of holders. Module-level, not a
# ContextVar: the OpenBLAS count is process-global.
_held = 0
_holders = 0
_held_lock = threading.Lock()


@contextlib.contextmanager
def one_blas_thread():
    """Hold OpenBLAS at one thread; ``_run_chunks`` runs as many workers as it had.

    A counted region, shared by every thread: the first holder to enter
    reads the count N and sets it to 1, and the last holder to leave
    restores N, also when its body raised. ``_run_chunks`` holds it for each
    call, ``train_model`` for its epoch loop and ``predict`` for one call, so
    there is one switch per train or predict call.
    """
    global _held, _holders
    blas = _openblas()
    if blas is None:
        yield
        return
    with _held_lock:
        if _holders == 0:
            _held = max(1, blas[0]())
            blas[1](1)
        _holders += 1
    try:
        yield
    finally:
        with _held_lock:
            _holders -= 1
            if _holders == 0:
                blas[1](_held)
                _held = 0


def _workers() -> int:
    """Chunk workers: the count one_blas_thread holds, else 1."""
    return _held or 1


@one_blas_thread()   # a fresh hold for each call
def _run_chunks(fn, count: int, scratch) -> None:
    """fn(chunk, buffers) for every chunk < count, on up to ``_workers()`` workers.

    Worker 0 is the calling thread; the others are threads joined within the
    call. Workers take chunk indices from one shared counter, so a worker
    that is held up takes fewer chunks. Each passes ``fn`` its own
    ``buffers``, made by ``scratch()`` on the calling thread (buffers made on
    the worker threads measured a higher peak RSS). Once a chunk has failed
    no later chunk starts, and once all workers have joined the lowest failed
    chunk's exception is raised: the one a single worker would have stopped
    at, since every earlier chunk was handed out before it.

    The chunk contract: which chunks exist depends on the shapes alone, a
    chunk writes only its own slice of a shared output, and a sum over
    chunks adds one partial per chunk in chunk order (``_ChunkSum``). Then
    every worker count gives the same bits. Workers read no context variable
    and never touch the tape. The call holds ``one_blas_thread``, so the
    workers' GEMMs do not also fan out over OpenBLAS threads.
    """
    nw = min(_workers(), count)
    buffers = [scratch() for _ in range(nw)]
    chunks = itertools.count()
    errors = {}
    end = [count]   # the lowest failed chunk, else count

    def run(w):
        for chunk in chunks:
            if chunk >= end[0]:
                return
            try:
                fn(chunk, buffers[w])
            except BaseException as e:   # re-raised on the caller below
                errors[chunk] = e
                end[0] = min(end[0], chunk)
                return

    started = []
    try:
        for w in range(1, nw):
            thread = threading.Thread(target=run, args=(w,))
            thread.start()
            started.append(thread)
        run(0)
    finally:
        for thread in started:
            thread.join()
    if errors:
        raise errors[min(errors)]


class _ChunkSum:
    """Adds per-chunk partials into ``total`` in chunk order, whatever order chunks finish in.

    ``add`` takes a worker's partial buffers and zeroes them for its next
    chunk; a chunk that finishes ahead of an earlier one is copied aside
    until the earlier ones are in. Partials made and freed on the worker
    threads instead measured a 10 MiB higher peak RSS on the general config.
    """

    def __init__(self, total: list):
        self.total = total
        self._next = 0
        self._early = {}
        self._lock = threading.Lock()

    def add(self, chunk: int, parts: list) -> None:
        with self._lock:
            if chunk == self._next:
                self._add(parts)
                while self._next in self._early:
                    self._add(self._early.pop(self._next))
            else:
                self._early[chunk] = [p.copy() for p in parts]
        for p in parts:
            p.fill(0)

    def _add(self, parts: list) -> None:
        for total, part in zip(self.total, parts):
            total += part
        self._next += 1


def _augment(a: np.ndarray, col) -> np.ndarray:
    """[a | col]: ``a`` with one more last-axis column, in ``a``'s dtype."""
    out = np.empty(a.shape[:-1] + (a.shape[-1] + 1,), dtype=a.dtype)
    out[..., :-1] = a
    out[..., -1] = col
    return out


def attention_core(q: Tensor, k: Tensor, v: Tensor,
                   rel: RelativeBias | None = None) -> Tensor:
    """softmax(q kᵀ / sqrt(d) + B) v over (N, heads, L, d) tensors.

    Scores are made in tiles of ATTN_BLOCK query rows by KEY_BLOCK keys (both
    cut by ``grid_blocks`` along the token grid of ``rel``, or of (L, 1, 1)
    without one; L <= KEY_BLOCK is one key tile), so a tile fits in L2
    whatever L is, and bias views are shared across the batch. The forward sweeps each query
    block over its key tiles with a running row max m and an accumulator
    [y·l | l]: per tile m' = max(m, rowmax(S)), P = exp(S - m'), and the
    accumulator is rescaled by exp(m - m') before P [v | 1] is added. It then
    divides only the rows×d output by l and saves one log-sum-exp per query
    row, lse = m + log(l). The backward needs no max: per tile it rebuilds
    the probabilities from lse alone with one exp, P = exp([q | -lse]
    [k | 1]ᵀ + B), gets dS = P∘([g | -rs] [v | 1]ᵀ) with rs = rowsum(g∘y),
    and adds Pᵀg to dv, dS k to dq and dSᵀq to dk. With a bias, each tile's
    dS is reduced at once to its sums over the key t index and over the key
    (h, w) plane, which add up over tiles and the batch in per-query-block
    buffers and are binned into the table gradients once per block. When a
    pull is recorded, the op keeps q, y, ``lse`` (N, heads, L), [k | 1] and
    [v | 1] for it, and not k or v; the pull builds [q·scl | -lse] and
    [g | -rs] for one query block of one batch item at a time, in its
    worker's scratch, so its score memory stays O(ATTN_BLOCK * KEY_BLOCK)
    per worker regardless of sequence length. q, k and v share one dtype,
    their graph's, and score tiles, ``lse``, the output, dS and the
    gradients are all made in it.

    Both passes run as chunks of ``_run_chunks`` over the (head, query
    block) items. The bias views are made on the calling thread. The
    forward takes one item per chunk; items write disjoint rows of y and
    lse, so the output is the same at any worker count. The backward cuts
    the items into CHUNKS contiguous ranges. Each range writes its own
    rows of dq and keeps its own dk, dv and table partials, which are added
    in chunk order, so the gradients are the same at any worker count too.
    """
    if q.shape != k.shape or q.shape != v.shape:
        raise DimensionError(f"attention shapes differ: {q.shape}, {k.shape}, {v.shape}")
    dt = q.data.dtype
    if k.data.dtype != dt or v.data.dtype != dt:
        raise DimensionError(
            f"attention dtypes differ: {dt}, {k.data.dtype}, {v.data.dtype}")
    n, heads, ln, d = q.shape
    scl = 1.0 / float(np.sqrt(d))   # a Python float keeps float32 products float32

    grid = rel.grid if rel is not None else (ln, 1, 1)
    blocks, key_blocks = grid_blocks(grid, ATTN_BLOCK), grid_blocks(grid, KEY_BLOCK)
    bs = max(i1 - i0 for i0, i1, _ in blocks)
    tile_size = bs * max(j1 - j0 for j0, j1, _ in key_blocks)
    params = (q, k, v) + (rel.tables() if rel is not None else ())
    work = [(hh, i0, i1, block) for hh in range(heads) for i0, i1, block in blocks]

    def block_biases():
        """Per (head, query block) bias views (or Nones), read on the calling thread."""
        if rel is None:
            return [None] * len(work)
        views = [rel.bias_view(hh) for hh in range(heads)]
        return [views[hh][block] for hh, _, _, block in work]

    def scores(buf, a, b, bias, key_block):
        """a bᵀ (+ the tile's bias) in a contiguous (rows, keys) view of ``buf``."""
        s = buf[:len(a) * len(b)].reshape(len(a), len(b))
        np.dot(a, b.T, out=s)
        if bias is not None:
            bb = bias[:, :, :, key_block[0], key_block[1]]
            sv = s.reshape(bb.shape)
            sv += bb
        return s

    qs = q.data * scl
    kk = k.data
    v1 = _augment(v.data, 1.0)
    y = np.empty(q.shape, dtype=dt)
    lse = np.empty((n, heads, ln), dtype=dt)
    biases = block_biases()

    def forward(item, tile):
        hh, i0, i1, _ = work[item]
        bias = biases[item]
        for i in range(n):
            m = np.full(i1 - i0, -np.inf, dtype=dt)
            yl = np.zeros((i1 - i0, d + 1), dtype=dt)      # [y·l | l]
            for j0, j1, key_block in key_blocks:
                sb = scores(tile, qs[i, hh, i0:i1], kk[i, hh, j0:j1], bias, key_block)
                m_new = np.maximum(m, sb.max(axis=1))
                sb -= m_new[:, None]
                np.exp(sb, out=sb)
                yl *= np.exp(m - m_new)[:, None]
                yl += sb @ v1[i, hh, j0:j1]
                m = m_new
            np.divide(yl[:, :d], yl[:, d:], out=y[i, hh, i0:i1])
            np.log(yl[:, d], out=lse[i, hh, i0:i1])
            lse[i, hh, i0:i1] += m

    _run_chunks(forward, len(work), lambda: np.empty(tile_size, dtype=dt))
    out = Tensor(y, requires_grad=_needs_grad(*params))
    if not out.requires_grad:
        return out
    qd, k1 = q.data, _augment(k.data, 1.0)   # the pull reads these, not k or v
    tables, slots = params[3:], [t.slot for t in params]

    def pull(g):
        dq = np.zeros(qd.shape, dtype=dt)
        biases = block_biases()
        nc = min(CHUNKS, len(work))
        bounds = [len(work) * c // nc for c in range(nc + 1)]

        def partials():
            """Zeroed dk, dv and table gradients."""
            return [np.zeros(qd.shape, dtype=dt), np.zeros(qd.shape, dtype=dt),
                    *(np.zeros_like(t.data) for t in tables)]

        sums = _ChunkSum(partials())

        def backward(chunk, scratch):
            p_tile, ds_tile, q_rows, g_rows, parts = scratch
            dk, dv, *dtables = parts
            items = slice(bounds[chunk], bounds[chunk + 1])
            for (hh, i0, i1, block), bias in zip(work[items], biases[items]):
                if rel is not None:   # dS summed over key t and over key (h, w)
                    gt, gh, gw = rel.grid
                    sum_t = np.zeros((i1 - i0, gh * gw), dtype=dt)
                    sum_hw = np.zeros((i1 - i0, gt), dtype=dt)
                qb, gb = q_rows[:i1 - i0], g_rows[:i1 - i0]
                for i in range(n):
                    np.multiply(qd[i, hh, i0:i1], scl, out=qb[:, :d])   # [q·scl | -lse]
                    qb[:, d] = -lse[i, hh, i0:i1]
                    gb[:, :d] = g[i, hh, i0:i1]                          # [g | -rs]
                    gb[:, d] = -(g[i, hh, i0:i1] * y[i, hh, i0:i1]).sum(axis=-1)
                    for j0, j1, key_block in key_blocks:
                        p = scores(p_tile, qb, k1[i, hh, j0:j1], bias, key_block)
                        np.exp(p, out=p)
                        dv[i, hh, j0:j1] += p.T @ gb[:, :d]
                        ds = np.dot(gb, v1[i, hh, j0:j1].T, out=ds_tile[:p.size].reshape(p.shape))
                        ds *= p
                        dq[i, hh, i0:i1] += ds @ k1[i, hh, j0:j1, :d]
                        dk[i, hh, j0:j1] += ds.T @ qb[:, :d]   # dSᵀ q·scl
                        if rel is not None:
                            rel.add_key_sums(ds, key_block, sum_t, sum_hw)
                if rel is not None:
                    rel.accumulate_grads(sum_t, sum_hw, block, hh, dtables)
            sums.add(chunk, parts)

        _run_chunks(backward, nc, lambda: (np.empty(tile_size, dtype=dt),
                                           np.empty(tile_size, dtype=dt),
                                           np.empty((bs, d + 1), dtype=dt),
                                           np.empty((bs, d + 1), dtype=dt), partials()))
        dq *= scl
        for slot, grad in zip(slots, [dq, *sums.total]):
            _accum(slot, grad)

    _record(out, pull)
    return out


def attention(x: Tensor, wq: Tensor, bq: Tensor, wk: Tensor, bk: Tensor,
              wv: Tensor, bv: Tensor, wo: Tensor, bo: Tensor,
              heads: int, rel: RelativeBias | None = None) -> Tensor:
    """Multi-head self-attention over x[N, L, D] with output projection."""
    n, ln, dm = x.shape
    if dm % heads != 0:
        raise ConfigurationError(f"model width {dm} not divisible by {heads} heads")
    dh = dm // heads

    def split(t: Tensor) -> Tensor:
        t = T.reshape(t, (n, ln, heads, dh))
        return T.transpose(t, (0, 2, 1, 3))

    q = split(T.linear(x, wq, bq))
    k = split(T.linear(x, wk, bk))
    v = split(T.linear(x, wv, bv))
    y = attention_core(q, k, v, rel=rel)
    y = T.transpose(y, (0, 2, 1, 3))
    y = T.reshape(y, (n, ln, dm))
    return T.linear(y, wo, bo)
