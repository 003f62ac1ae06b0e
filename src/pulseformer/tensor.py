"""Dense tensors with reverse-mode automatic differentiation.

Values are contiguous row-major numpy arrays in the compute dtype.
``record()`` opens a tape, and while it is open every differentiable op
appends a pull-back closure to it; with no tape open, ops record nothing.
``backward(loss)`` pops the tape in reverse execution order (a valid
topological order by construction) and accumulates gradients into every
reachable tensor with ``requires_grad``, releasing each entry and its
output's gradient as it goes, so only leaf tensors keep a ``.grad``. A
tensor keeps its gradient state (``grad`` and ``requires_grad``) in a slot
apart from its data. The tape holds each output's slot, and a pull
holds the slots of the inputs it sends gradients to and only the arrays it
reads (the saved-tensor rule of Paszke et al., arXiv 1912.01703), so an
array that no pull reads is freed as soon as the program drops its tensor. A
pull hands each input a gradient that nothing else reads, and ``_accum``
adopts it uncopied, so a ``.grad`` may be a strided view. Gradients add up
over calls: set a leaf's ``grad`` to None to start it afresh. The open tape
and the compute dtype are context variables, so each thread and each asyncio
task has its own: ``record``, ``backward`` and ``float64`` in one do not
change them in another.

``checkpoint(fn, *xs)`` records ``fn``'s graph as one entry whose pull
rebuilds it, so its intermediate arrays live only while its backward runs
(Chen et al., arXiv 1604.06174). ``gelu`` works in ``GELU_CHUNK``-element
chunks, so its temporaries are chunk-sized.

Storage follows the compute dtype: float32 by default, for train and
predict, and float64 inside ``float64()``, as finite-difference gradient
checks need. A tensor is stored in the dtype current when it is made, so a
model's parameters, and the optimiser moments made from them, keep the dtype
current when the model was built. A graph is built in one dtype: every
tensor it reads is made under the same compute dtype, each op computes in
it, and every gradient comes back in it.

Broadcasting is deliberately restricted to bias addition and per-channel
affine terms; everything else requires exact shape agreement.
"""

from __future__ import annotations

import math
import weakref
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Callable, Sequence

import numpy as np

from .errors import DimensionError, PulseformerError


# per thread and per asyncio task: each has its own open tape, a list of
# (slot, pull) entries in execution order inside record() and None outside,
# and its own compute dtype, so record(), backward and float64() in one leave
# every other one's alone (a task made inside record() shares its maker's tape)
_open_tape: ContextVar[list | None] = ContextVar("tape", default=None)
_compute_dtype: ContextVar[type] = ContextVar("compute_dtype", default=np.float32)


class _TapeView:
    """The calling context's open tape, read-only; empty outside ``record()``.

    Iterating yields (output, pull) for the entries whose output tensor is
    still alive; ``len`` and ``entries`` see every (slot, pull) entry.
    """

    @property
    def entries(self) -> list[tuple[_Slot, Callable[[np.ndarray], None]]]:
        return _open_tape.get() or []

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        for slot, pull in self.entries:
            out = slot.out()
            if out is not None:
                yield out, pull


_tape = _TapeView()


@contextmanager
def record():
    """Open a tape that differentiable ops record on, for ``backward``.

    The tape is dropped on exit, also when the body raised; a nested
    ``record()`` keeps the open one.
    """
    if _open_tape.get() is not None:
        yield
        return
    token = _open_tape.set([])
    try:
        yield
    finally:
        _open_tape.reset(token)


@contextmanager
def float64():
    """Store new tensors in float64 (finite-difference checks)."""
    token = _compute_dtype.set(np.float64)
    try:
        yield
    finally:
        _compute_dtype.reset(token)


def compute_dtype() -> type:
    """The dtype new tensors are stored in: float32, or float64 inside ``float64()``."""
    return _compute_dtype.get()


class _Slot:
    """A tensor's gradient state without its data: what a pull sends gradients to.

    ``out`` is a weak reference to the tensor, set when its op is recorded.
    """

    __slots__ = ("grad", "requires_grad", "out")

    def __init__(self, requires_grad: bool):
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad


def _slot_attr(name: str) -> property:
    """A Tensor attribute kept in its slot."""
    return property(lambda t: getattr(t.slot, name), lambda t, v: setattr(t.slot, name, v))


class Tensor:
    """N-dimensional array participating in reverse-mode autodiff.

    ``data`` is cast to the compute dtype current when the tensor is made.
    ``grad`` and ``requires_grad`` live in ``slot``.
    """

    __slots__ = ("data", "slot", "__weakref__")
    grad = _slot_attr("grad")
    requires_grad = _slot_attr("requires_grad")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=compute_dtype())
        if not arr.flags["C_CONTIGUOUS"]:
            arr = np.ascontiguousarray(arr)
        self.slot = _Slot(bool(requires_grad))
        self.data = arr

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def _record(out: Tensor, pull: Callable[[np.ndarray], None]) -> None:
    if out.requires_grad:   # set on an op output by _needs_grad, so only inside record()
        out.slot.out = weakref.ref(out)
        _open_tape.get().append((out.slot, pull))


def _accum(s: _Slot, g: np.ndarray) -> None:
    """Accumulate a gradient contribution into a tensor's slot; sums over all uses.

    A first contribution becomes the gradient as it is, and later ones are
    added into it in place. So a pull hands over only a writable array, in
    its graph's dtype, that nothing else reads: one it has just made, or a
    view of its own ``g``, given to one tensor.
    """
    if not s.requires_grad:
        return
    if s.grad is None:
        s.grad = g
    else:
        s.grad += g


def _needs_grad(*ts: Tensor) -> bool:
    return _open_tape.get() is not None and any(t.requires_grad for t in ts)


def backward(loss: Tensor) -> None:
    """Run reverse-mode accumulation from a scalar loss over the whole tape.

    Every leaf tensor with ``requires_grad`` reachable from ``loss`` receives
    dLoss/dTensor in ``.grad``. Each tape entry is popped and its output's
    gradient taken from the slot before its pull runs; the closure, the
    arrays it saved and the intermediate gradient are freed once the pull
    is done. A ``checkpoint`` entry's pull rebuilds its graph on the tape
    and pops it again before it returns. Call ``backward`` inside the
    ``record()`` that built the graph, in the same thread or asyncio task:
    it runs the calling context's open tape.
    """
    if _open_tape.get() is None:
        raise PulseformerError("backward needs a graph built inside tensor.record()")
    if loss.size != 1:
        raise DimensionError(f"backward requires a scalar loss, got shape {loss.shape}")
    if not loss.requires_grad:
        raise PulseformerError("loss is not connected to any tensor requiring gradients")
    loss.grad = np.ones_like(loss.data)
    _pull_back(0)


def _pull_back(stop: int) -> None:
    """Pop and run the open tape's entries down to ``stop`` entries."""
    while len(_open_tape.get()) > stop:   # not a local: a traceback keeps no entry alive
        slot, pull = _open_tape.get().pop()
        g, slot.grad = slot.grad, None
        if g is not None:
            pull(g)


def checkpoint(fn: Callable[..., Tensor], *xs: Tensor) -> Tensor:
    """``fn(*xs)``, recorded as one entry whose pull rebuilds ``fn``'s graph.

    The forward runs ``fn`` with no tape open, so none of its intermediate
    arrays outlive it. The pull runs ``fn`` again on the open tape, in the
    compute dtype the forward ran in, and pulls the gradient back through
    only the entries that re-run made; an exception from the re-run
    propagates, and ``record()``'s exit drops the tape as for any other. The
    re-run must rebuild the graph the forward ran, so ``fn`` must be a pure
    function of ``xs``: the same inputs give the same bits, with no
    randomness and no running-statistic update (as ``batchnorm3d`` makes in
    training). Outside ``record()``, or when no ``x`` needs a gradient, this
    is ``fn(*xs)``.
    """
    if not _needs_grad(*xs):
        return fn(*xs)
    dtype = compute_dtype()
    token = _open_tape.set(None)
    try:
        out = fn(*xs)
    finally:
        _open_tape.reset(token)
    out.requires_grad = True

    def pull(g):
        token = _compute_dtype.set(dtype)
        try:
            stop = len(_open_tape.get())
            y = fn(*xs)
            _accum(y.slot, g)
            del y, g   # y's data is freed here unless a pull reads it
            _pull_back(stop)
        finally:
            _compute_dtype.reset(token)

    _record(out, pull)
    return out


# ---------------------------------------------------------------------------
# elementwise and shape ops
# ---------------------------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise DimensionError(f"add shape mismatch: {a.shape} vs {b.shape}")
    out = Tensor(a.data + b.data, requires_grad=_needs_grad(a, b))
    sa, sb = a.slot, b.slot

    def pull(g):
        _accum(sa, g)
        _accum(sb, g.copy())   # a adopts g itself

    _record(out, pull)
    return out


def add_embedding(x: Tensor, e: Tensor) -> Tensor:
    """Add a per-position embedding shared across the leading batch axis."""
    if e.shape != x.shape[1:]:
        raise DimensionError(f"embedding shape {e.shape} does not match {x.shape[1:]}")
    out = Tensor(x.data + e.data[None], requires_grad=_needs_grad(x, e))
    sx, se = x.slot, e.slot

    def pull(g):
        _accum(sx, g)
        _accum(se, g.sum(axis=0))

    _record(out, pull)
    return out


def reshape(x: Tensor, shape: Sequence[int]) -> Tensor:
    sx, x_shape = x.slot, x.shape
    out = Tensor(x.data.reshape(tuple(shape)), requires_grad=_needs_grad(x))

    def pull(g):
        _accum(sx, g.reshape(x_shape))

    _record(out, pull)
    return out


def transpose(x: Tensor, axes: Sequence[int]) -> Tensor:
    axes = tuple(axes)
    sx, inv = x.slot, np.argsort(axes)
    out = Tensor(np.ascontiguousarray(x.data.transpose(axes)), requires_grad=_needs_grad(x))

    def pull(g):
        _accum(sx, g.transpose(inv))

    _record(out, pull)
    return out


def elu(x: Tensor) -> Tensor:
    """x for x > 0, exp(x) - 1 otherwise."""
    neg = x.data <= 0.0
    y = np.where(neg, np.expm1(x.data), x.data)
    out = Tensor(y, requires_grad=_needs_grad(x))
    sx = x.slot

    def pull(g):
        _accum(sx, g * np.where(neg, y + 1.0, 1.0))

    _record(out, pull)
    return out


_GELU_C = math.sqrt(2.0 / math.pi)
# elements per GELU pass: a float64 chunk's temporaries, 256 KiB each, stay in L2
GELU_CHUNK = 2 ** 15


def _gelu_tanh(v: np.ndarray) -> np.ndarray:
    return np.tanh(_GELU_C * (v + 0.044715 * (v * v * v)))


def _chunks(n: int):
    return (slice(s, s + GELU_CHUNK) for s in range(0, n, GELU_CHUNK))


def gelu(x: Tensor) -> Tensor:
    """Smooth GELU (tanh form).

    Forward and pull run over ``GELU_CHUNK`` elements of the flattened
    arrays at a time, each element in the whole-array formulas' order. The
    pull rebuilds tanh(u) rather than keeping it, and writes the gradient
    into its own ``g`` (made contiguous if it is not), so the op keeps only
    its output and the pull makes no input-sized array.
    """
    v = x.data
    y = np.empty(v.shape, v.dtype)
    vf, yf = v.reshape(-1), y.reshape(-1)
    for c in _chunks(v.size):
        yf[c] = 0.5 * vf[c] * (1.0 + _gelu_tanh(vf[c]))
    out = Tensor(y, requires_grad=_needs_grad(x))

    def pull(g):
        # d = 0.5 (1 + th) + 0.5 v (1 - th^2) du, du = c (1 + 3 * 0.044715 v^2)
        g = np.ascontiguousarray(g)
        gf = g.reshape(-1)
        for c in _chunks(v.size):
            vc = vf[c]
            th = _gelu_tanh(vc)
            b = np.subtract(1.0, th * th)
            b *= 0.5 * vc
            du = vc * vc
            du *= 3 * 0.044715
            du += 1.0
            du *= _GELU_C
            b *= du
            th += 1.0
            th *= 0.5
            th += b
            gf[c] *= th
        _accum(x.slot, g)

    _record(out, pull)
    return out


def mean(x: Tensor, axes: Sequence[int] | None = None) -> Tensor:
    """Arithmetic mean over the given axes (all axes when None)."""
    if axes is None:
        axes = tuple(range(x.ndim))
    else:
        axes = tuple(sorted(a % x.ndim for a in axes))
    sx, x_shape = x.slot, x.shape
    count = math.prod(x_shape[a] for a in axes)
    out = Tensor(x.data.mean(axis=axes), requires_grad=_needs_grad(x))

    def pull(g):
        _accum(sx, np.broadcast_to(np.expand_dims(g, axes) / count, x_shape).copy())

    _record(out, pull)
    return out


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Affine map over the last axis: y[..., o] = sum_i x[..., i] w[o, i] + b[o]."""
    din = x.shape[-1]
    if w.ndim != 2 or w.shape[1] != din:
        raise DimensionError(f"linear weight {w.shape} incompatible with input {x.shape}")
    if b.shape != (w.shape[0],):
        raise DimensionError(f"linear bias {b.shape} incompatible with weight {w.shape}")
    x2 = x.data.reshape(-1, din)
    y2 = x2 @ w.data.T
    y2 += b.data
    out = Tensor(y2.reshape(x.shape[:-1] + (w.shape[0],)), requires_grad=_needs_grad(x, w, b))
    sx, sw, sb, x_shape, w2 = x.slot, w.slot, b.slot, x.shape, w.data

    def pull(g):
        nonlocal x2
        g2 = g.reshape(-1, w2.shape[0])
        _accum(sw, g2.T @ x2)
        x2 = None   # x's data is freed here unless something else holds it
        _accum(sx, (g2 @ w2).reshape(x_shape))
        _accum(sb, g2.sum(axis=0))

    _record(out, pull)
    return out


def mse_loss(pred: Tensor, target: Tensor) -> Tensor:
    """Mean of squared element differences, as a scalar tensor."""
    if pred.shape != target.shape:
        raise DimensionError(f"mse_loss shape mismatch: {pred.shape} vs {target.shape}")
    diff = pred.data - target.data
    n = diff.size
    out = Tensor(np.asarray((diff * diff).sum() / n), requires_grad=_needs_grad(pred, target))
    sp, st = pred.slot, target.slot

    def pull(g):
        gd = (2.0 / n) * g * diff
        _accum(sp, gd)
        _accum(st, -gd)

    _record(out, pull)
    return out
