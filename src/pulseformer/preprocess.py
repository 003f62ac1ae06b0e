"""Clip and waveform preprocessing: frame formats, normalisation, windowing.

``VideoClip`` and ``SignalTrace`` wrap a clip or trace only where it enters
(a file, the synthesiser, ``make_example``'s arguments); the functions here
take and return plain arrays. Frames are T x H x W x C floats in [0, 1],
float32 from a clip file or the synthesiser; waveforms are float64 at the
clip frame rate. ``make_example`` resizes and normalises each window in
float64 and stores the model input in float32, the dtype the model computes
in. Both frame formats work in slabs of frames (``frame_slabs``): each slab is
computed in float64 and cast into the float32 window. The one full-size
float64 array they make is the stack that the window's global mean and
standard deviation reduce over; it is kept whole so that those reductions
keep numpy's bits. The normalised-difference frame format divides each
successive-frame difference by its sum per pixel, which cancels static
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


def mean_std(x: np.ndarray) -> tuple[float, float]:
    """``x.mean()`` and ``x.std()`` bit for bit, squaring ``x``'s deviations in place.

    These are the reductions and elementwise ops of numpy's own ``_var``,
    without its full-size temporary; ``x`` holds the squares afterwards.
    """
    mean = np.add.reduce(x, axis=None) / x.size
    x -= mean
    x *= x
    return mean, math.sqrt(np.add.reduce(x, axis=None) / x.size)


def _zero_nonfinite(a: np.ndarray) -> None:
    """Set ``a``'s nan and inf elements to zero, in place."""
    finite = np.isfinite(a)
    if not finite.all():
        a[~finite] = 0.0


def _scaled_frames(frames, n, values, scale, dtype):
    """Shared pass of both frame formats: the global moments, then the write pass.

    ``values(sl, v)`` writes frames ``sl`` of the n-frame float64 stack into
    ``v``, and ``scale(v, mean, std)`` turns them into output. The stack is
    the one full-size float64 array: numpy reduces over it whole, so mean and
    std keep their bits. It is freed before the output is made, and the write
    pass rebuilds each slab but the last from ``frames``. The output is T x H
    x W x C in ``dtype``, laid out channel-first, the model's layout; frames
    past ``n`` stay zero.
    """
    if n < 1 or 0 in frames.shape:
        raise InputError(f"frames of shape {frames.shape} leave no values to normalise")
    shape = frames.shape[1:]
    stack = np.empty((n,) + shape)
    slabs = list(frame_slabs(n, stack[0].size))
    for sl in slabs:
        values(sl, stack[sl])
    last = stack[slabs[-1]].copy()   # kept, so the write pass need not rebuild it
    mean, std = mean_std(stack)
    del stack
    t, h, w, c = frames.shape
    out = np.moveaxis(np.zeros((c, t, h, w), dtype), 0, 3)
    out[slabs[-1]] = scale(last, mean, std)
    for sl in slabs[:-1]:
        v = np.empty((sl.stop - sl.start,) + shape)
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
    Each slab of frames is widened to float64 and computed there; only the
    difference stack that the standard deviation reduces over is ever whole
    in float64. The result is cast to ``dtype``.
    """
    def values(sl, d):
        f = np.asarray(frames[sl.start:sl.stop + 1], np.float64)
        np.subtract(f[1:], f[:-1], out=d)
        den = np.add(f[1:], f[:-1])
        d /= np.maximum(den, EPS, out=den)
        _zero_nonfinite(d)

    def scale(d, mean, std):
        d /= std if std >= EPS else math.inf   # no spread to normalise: zeros, not d / EPS
        _zero_nonfinite(d)
        return d

    return _scaled_frames(frames, len(frames) - 1, values, scale, dtype)


def standardize_frames(frames: np.ndarray, dtype=np.float64) -> np.ndarray:
    """``standardize`` of T x H x W x C frames, cast to ``dtype``.

    Computed in float64 slabs like ``diffnorm_frames``; the float64 copy of
    the frames that mean and std reduce over is the one full-size array.
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
    # np.take, unlike fancy indexing, gathers into C order, so the output is C-contiguous
    f0, f1 = np.take(frames, y0, axis=1), np.take(frames, y1, axis=1)
    wx0, wx1 = (1 - fx)[None, None, :, None], fx[None, None, :, None]
    top = np.take(f0, x0, axis=2) * wx0 + np.take(f0, x1, axis=2) * wx1
    bot = np.take(f1, x0, axis=2) * wx0 + np.take(f1, x1, axis=2) * wx1
    return top * (1 - fy)[None, :, None, None] + bot * fy[None, :, None, None]


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
    """The configuration fields ``make_example`` reads: equal keys, identical windows."""
    return (tuple(cfg.input_dims), cfg.frame_format, cfg.output_format, cfg.signal_norm)


def make_example(clip: VideoClip, trace: SignalTrace, cfg) -> list[WindowExample]:
    """Window, resize, and format one clip/trace pair per the configuration.

    Produces floor(T_total / T_cfg) consecutive non-overlapping windows. It
    reads only the fields in ``window_key(cfg)``. ``diffnorm_frames`` or
    ``standardize_frames`` writes each window straight into its float32,
    channel-first ``x``; besides a resized window's own float64 frames, the
    only full-size float64 array is their stack for the global moments.
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

        if cfg.output_format == "HR":
            target = np.asarray(metrics.hr_from_signal(tr, trace.fps))
        else:
            if cfg.frame_format == "DiffNorm":
                target = diff_labels(tr)
            else:
                target = tr.copy()
            if cfg.signal_norm:
                target = standardize(target)
        out.append(WindowExample(
            x=np.ascontiguousarray(np.moveaxis(win, 3, 0)),   # a view: win is channel-first
            target=target,
            trace_window=tr,
            fps=trace.fps,
            window_index=wi,
        ))
    return out
