"""Clip and waveform preprocessing: frame formats, normalisation, windowing.

``VideoClip`` and ``SignalTrace`` wrap a clip or trace only where it enters
(a file, the synthesiser, ``make_example``'s arguments); the functions here
take and return plain arrays. Frames are T x H x W x C floats in [0, 1],
float32 from a clip file or the synthesiser; waveforms are float64 at the
clip frame rate. ``make_example`` resizes and normalises each window in
float64 and stores the model input in float32, the dtype the model computes
in. Both frame formats work in slabs of frames (``frame_slabs``): each slab is
computed in float64 and cast into the float32 window. No float64 array of the
whole window is made: ``pairwise_sum`` replays numpy's summation tree over
slabs of at most ``SLAB`` elements, so the window's global mean and standard
deviation keep numpy's bits. The normalised-difference frame format divides
each successive-frame difference by its sum per pixel, which cancels static
illumination exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import metrics
from .errors import InputError

EPS = 1e-7


def check_fps(fps: float) -> None:
    """Reject a frame rate that is not positive and finite."""
    if not 0 < fps < math.inf:
        raise InputError(f"frame rate must be positive and finite, got {fps}")


@dataclass
class VideoClip:
    """Dense T x H x W x C sample grid with its frame rate in Hz.

    Float32 and float64 frames are kept as given; any other input becomes
    float64.
    """

    frames: np.ndarray
    fps: float

    def __post_init__(self):
        self.frames = np.asarray(self.frames)
        if self.frames.dtype not in (np.float32, np.float64):
            self.frames = self.frames.astype(np.float64)
        if self.frames.ndim != 4 or 0 in self.frames.shape[1:]:
            raise InputError(f"clip frames must be T x H x W x C with positive H, W and C, "
                             f"got {self.frames.shape}")
        if self.frames.shape[0] < 2:
            raise InputError("clip needs at least 2 frames")
        check_fps(self.fps)

    @property
    def length(self) -> int:
        return self.frames.shape[0]


@dataclass
class SignalTrace:
    """1-D physiological waveform sampled at the paired clip's frame rate."""

    samples: np.ndarray
    fps: float

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64).reshape(-1)
        check_fps(self.fps)

    @property
    def length(self) -> int:
        return self.samples.shape[0]


def standardize(x: np.ndarray) -> np.ndarray:
    """(x - mean) / max(std, EPS) over all elements, population std."""
    x = np.asarray(x, dtype=np.float64)
    if x.size == 0:
        raise InputError("cannot standardize an empty array")
    std = x.std()
    return (x - x.mean()) / max(std, EPS)


# elements per slab pass: a slab's float64 temporaries, 768 KiB each, stay near
# one core's L2, and a 120 x 16 x 16 colour window (the search's clips) is one slab
SLAB = 3 * 2 ** 15


def frame_slabs(n: int, frame_size: int):
    """Consecutive slices of ``n`` frames, each of at most ``SLAB`` elements or one frame."""
    step = max(1, SLAB // frame_size)
    return (slice(s, min(s + step, n)) for s in range(0, n, step))


def pairwise_sum(node, lo: int, hi: int):
    """``np.add.reduce`` of elements ``lo:hi`` of a flat float64 array, bit for bit.

    numpy sums a contiguous float64 array by a fixed pairwise tree (Higham,
    SIAM J. Sci. Comput. 14(4), 1993): a node of more than 128 elements
    splits after half its length, rounded down to a multiple of 8. This
    replays the splits down to nodes of at most ``SLAB`` elements, whose sum
    ``node(lo, hi)`` returns from ``np.add.reduce``, and adds them up in
    numpy's order, so the array need never be whole.
    """
    if hi - lo <= SLAB:
        return node(lo, hi)
    half = (hi - lo) // 2
    half -= half % 8
    return pairwise_sum(node, lo, lo + half) + pairwise_sum(node, lo + half, hi)


def _zero_nonfinite(a: np.ndarray) -> None:
    """Set ``a``'s nan and inf elements to zero, in place."""
    finite = np.isfinite(a)
    if not finite.all():
        a[~finite] = 0.0


def _scaled_frames(frames, n, values, scale, dtype):
    """Shared pass of both frame formats: the global moments, then the write pass.

    ``values(sl, v)`` writes frames ``sl`` of the n-frame float64 stack into
    ``v``, and ``scale(v, mean, std)`` turns them into output. The stack is
    never whole: each pass rebuilds it slab by slab in one buffer, and
    ``pairwise_sum`` gives the mean and then the squared deviations' mean
    with the bits of ``stack.mean()`` and ``stack.std()``. The output is T x
    H x W x C in ``dtype``, laid out channel-first, the model's layout;
    frames past ``n`` stay zero.
    """
    if n < 1 or 0 in frames.shape:
        raise InputError(f"frames of shape {frames.shape} leave no values to normalise")
    shape = frames.shape[1:]
    size = math.prod(shape)
    count = n * size
    # a frame slab, or a node of at most SLAB elements, spans at most this many frames
    buf = np.empty((min(n, (SLAB - 1) // size + 2),) + shape)
    last = (-1, 0)   # the last frame a node wrote, and its row in buf

    def node(lo, hi, mean=None):
        nonlocal last
        f0, f1 = lo // size, -(-hi // size)
        # a frame two nodes share is computed once: a node changes only its
        # own elements, so the frame's later elements are still its values
        shared = last[0] == f0
        if shared:
            buf[0] = buf[last[1]]
        values(slice(f0 + shared, f1), buf[shared:f1 - f0])
        last = (f1 - 1, f1 - f0 - 1)
        v = buf.reshape(-1)[lo - f0 * size:hi - f0 * size]
        if mean is not None:   # numpy's _var: the deviations, squared in place
            v -= mean
            v *= v
        return np.add.reduce(v)

    mean = pairwise_sum(node, 0, count) / count
    std = math.sqrt(pairwise_sum(lambda lo, hi: node(lo, hi, mean), 0, count) / count)
    t, h, w, c = frames.shape
    out = np.moveaxis(np.zeros((c, t, h, w), dtype), 0, 3)
    for sl in frame_slabs(n, size):
        v = buf[:sl.stop - sl.start]
        values(sl, v)
        out[sl] = scale(v, mean, std)
    return out


def diffnorm_frames(frames: np.ndarray, dtype=np.float64) -> np.ndarray:
    """Difference-over-sum format of T >= 2 frames, globally standardised to unit spread.

    d_t = (c_{t+1} - c_t) / max(c_{t+1} + c_t, EPS) per pixel and channel;
    the EPS floor only guards black pixels, so a global illumination scale
    cancels exactly. The stack of T-1 difference frames is divided by its
    global standard deviation, or zeroed if that is below EPS (one element,
    say); non-finite values are zeroed and a zero frame restores length T.
    Each slab of frames is widened to float64 and computed there; no float64
    array of the whole stack is made. The result is cast to ``dtype``.
    """
    # frames under 1e30 in magnitude (nan fails the test) keep |d| below 2e37
    # and |d / std| below 2e44: nothing is left to zero
    bounded = bool(frames.size and -1e30 < frames.min() and frames.max() < 1e30)

    wide = np.empty(0)   # a slab's frames in float64, reused by every slab

    def values(sl, d):
        nonlocal wide
        if len(wide) <= len(d):
            wide = np.empty((len(d) + 1,) + d.shape[1:])
        f = wide[:len(d) + 1]
        np.copyto(f, frames[sl.start:sl.stop + 1])
        np.subtract(f[1:], f[:-1], out=d)
        den = np.add(f[1:], f[:-1], out=f[:-1])   # reads ahead of its writes: no copy
        d /= np.maximum(den, EPS, out=den)
        if not bounded:
            _zero_nonfinite(d)

    def scale(d, mean, std):
        d /= std if std >= EPS else math.inf   # no spread to normalise: zeros, not d / EPS
        if not bounded:
            _zero_nonfinite(d)
        return d

    return _scaled_frames(frames, len(frames) - 1, values, scale, dtype)


def standardize_frames(frames: np.ndarray, dtype=np.float64) -> np.ndarray:
    """``standardize`` of T x H x W x C frames, cast to ``dtype``.

    Computed in float64 slabs like ``diffnorm_frames``, with no float64
    copy of all the frames.
    """
    def scale(x, mean, std):
        x -= mean
        x /= max(std, EPS)
        return x

    return _scaled_frames(frames, len(frames), lambda sl, x: np.copyto(x, frames[sl]),
                          scale, dtype)


def diff_labels(samples: np.ndarray) -> np.ndarray:
    """First differences of the float64 waveform, standardised, zero-padded to length T."""
    s = np.asarray(samples, dtype=np.float64)
    if s.shape[0] < 2:
        raise InputError("difference labels need at least 2 samples")
    d = standardize(np.diff(s))
    return np.concatenate([d, [0.0]])


def resize_bilinear(frames: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Per-frame bilinear resampling of T x H x W x C frames, half-pixel centers, edge-clamped.

    Frames already of the target size are returned as they are.
    """
    if out_h < 1 or out_w < 1:
        raise InputError(f"target size must be positive, got {out_h}x{out_w}")
    t, h, w, c = frames.shape
    if (h, w) == (out_h, out_w):
        return frames

    def axis_weights(n_in, n_out):
        centers = (np.arange(n_out) + 0.5) * (n_in / n_out) - 0.5
        lo = np.floor(centers).astype(np.int64)
        frac = centers - lo
        lo0 = np.clip(lo, 0, n_in - 1)
        lo1 = np.clip(lo + 1, 0, n_in - 1)
        return lo0, lo1, frac

    y0, y1, fy = axis_weights(h, out_h)
    x0, x1, fx = axis_weights(w, out_w)
    # W is blended once per input row, then each output row blends its two
    # input rows: per output value, a W blend then an H blend, in float64.
    # np.take, unlike fancy indexing, gathers into C order, so the output is C-contiguous
    rows = np.take(frames, x0, axis=2) * (1 - fx)[None, None, :, None]
    rows += np.take(frames, x1, axis=2) * fx[None, None, :, None]
    out = np.take(rows, y0, axis=1)
    out *= (1 - fy)[None, :, None, None]
    out += np.take(rows, y1, axis=1) * fy[None, :, None, None]
    return out


@dataclass
class WindowExample:
    """One non-overlapping window prepared for the model.

    ``x`` is channel-first (C, T, H, W) float32; ``target`` is a float64
    length-T waveform for signal output or a scalar array for HR output.
    ``trace_window`` keeps the untouched ground-truth samples for label HR
    estimation.
    """

    x: np.ndarray
    target: np.ndarray
    trace_window: np.ndarray
    fps: float
    clip_id: str = ""
    window_index: int = 0


def window_key(cfg) -> tuple:
    """The configuration fields ``make_example`` reads: equal keys, identical windows.

    ``x`` depends only on the first two, the input dims and the frame format.
    """
    return (tuple(cfg.input_dims), cfg.frame_format, cfg.output_format, cfg.signal_norm)


def window_target(tr: np.ndarray, fps: float, cfg) -> np.ndarray:
    """The target of one window's float64 trace samples ``tr``: its rate, or its waveform.

    A Signal target is the waveform's difference for DiffNorm frames, and is
    standardised when ``cfg.signal_norm`` is set.
    """
    if cfg.output_format == "HR":
        return np.asarray(metrics.hr_from_signal(tr, fps))
    target = diff_labels(tr) if cfg.frame_format == "DiffNorm" else tr.copy()
    return standardize(target) if cfg.signal_norm else target


def make_example(clip: VideoClip, trace: SignalTrace, cfg) -> list[WindowExample]:
    """Window, resize, and format one clip/trace pair per the configuration.

    Produces floor(T_total / T_cfg) consecutive non-overlapping windows. It
    reads only the fields in ``window_key(cfg)``. ``diffnorm_frames`` or
    ``standardize_frames`` writes each window straight into its float32,
    channel-first ``x``; only ``resize_bilinear`` makes float64 arrays of a
    whole window, and only when the frame size changes.
    """
    t_cfg, h_cfg, w_cfg = cfg.input_dims
    if trace.length < clip.length:
        raise InputError(
            f"trace length {trace.length} shorter than clip length {clip.length}")
    if trace.fps != clip.fps:
        raise InputError(f"trace frame rate {trace.fps} Hz differs from clip's {clip.fps} Hz")
    if clip.length < t_cfg:
        raise InputError(f"clip length {clip.length} shorter than window {t_cfg}")

    n_win = clip.length // t_cfg
    fmt = diffnorm_frames if cfg.frame_format == "DiffNorm" else standardize_frames
    out = []
    for wi in range(n_win):
        sl = slice(wi * t_cfg, (wi + 1) * t_cfg)
        win = fmt(resize_bilinear(clip.frames[sl], h_cfg, w_cfg), np.float32)
        tr = trace.samples[sl].copy()
        out.append(WindowExample(
            x=np.ascontiguousarray(np.moveaxis(win, 3, 0)),   # a view: win is channel-first
            target=window_target(tr, trace.fps, cfg),
            trace_window=tr,
            fps=trace.fps,
            window_index=wi,
        ))
    return out
