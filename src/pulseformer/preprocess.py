"""Clip and waveform preprocessing: frame formats, normalisation, windowing.

Frames travel as T x H x W x C float arrays in [0, 1], float32 as read from
a clip file or float64 as synthesised; the paired waveform is float64,
sampled at the clip frame rate. ``make_example`` widens one window at a time
to float64 for resizing and normalisation and stores the model input in
float32, the dtype the model computes in. The normalised-difference frame
format computes the per-pixel ratio of successive-frame difference to sum,
which cancels any static multiplicative illumination exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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


def diffnorm_frames(clip: VideoClip) -> VideoClip:
    """Difference-over-sum frame format, globally standardised to unit spread.

    d_t = (c_{t+1} - c_t) / max(c_{t+1} + c_t, EPS) per pixel and channel;
    the EPS floor only guards black pixels, so a global illumination scale
    cancels exactly. The stack of T-1 difference frames is divided by its
    global standard deviation (floored at EPS), non-finite values are
    zeroed, and a zero frame is appended to restore length T. Every step
    writes into the float64 output, whose last frame stays zero.
    """
    f = clip.frames   # a VideoClip has at least 2 frames
    out = np.zeros(f.shape)
    d = out[:-1]
    np.subtract(f[1:], f[:-1], out=d, dtype=np.float64)
    den = np.add(f[1:], f[:-1], dtype=np.float64)
    d /= np.maximum(den, EPS, out=den)
    del den   # before std() makes its own full-size temporary
    d[~np.isfinite(d)] = 0.0
    d /= max(d.std(), EPS)
    d[~np.isfinite(d)] = 0.0
    return VideoClip(out, clip.fps)


def diff_labels(trace: SignalTrace) -> SignalTrace:
    """First differences of the waveform, standardised, zero-padded to length T."""
    s = trace.samples
    if s.shape[0] < 2:
        raise InputError("difference labels need at least 2 samples")
    d = standardize(np.diff(s))
    return SignalTrace(np.concatenate([d, [0.0]]), trace.fps)


def resize_bilinear(clip: VideoClip, out_h: int, out_w: int) -> VideoClip:
    """Per-frame bilinear resampling with half-pixel centers, edge-clamped.

    A clip already of the target size is returned as it is.
    """
    if out_h < 1 or out_w < 1:
        raise InputError(f"target size must be positive, got {out_h}x{out_w}")
    t, h, w, c = clip.frames.shape
    if (h, w) == (out_h, out_w):
        return clip

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
    f0, f1 = np.take(clip.frames, y0, axis=1), np.take(clip.frames, y1, axis=1)
    wx0, wx1 = (1 - fx)[None, None, :, None], fx[None, None, :, None]
    top = np.take(f0, x0, axis=2) * wx0 + np.take(f0, x1, axis=2) * wx1
    bot = np.take(f1, x0, axis=2) * wx0 + np.take(f1, x1, axis=2) * wx1
    out = top * (1 - fy)[None, :, None, None] + bot * fy[None, :, None, None]
    return VideoClip(out, clip.fps)


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
    reads only the fields in ``window_key(cfg)``.
    """
    from .metrics import hr_from_signal

    t_cfg, h_cfg, w_cfg = cfg.input_dims
    if trace.length < clip.length:
        raise InputError(
            f"trace length {trace.length} shorter than clip length {clip.length}")
    if trace.fps != clip.fps:
        raise InputError(f"trace frame rate {trace.fps} Hz differs from clip's {clip.fps} Hz")
    if clip.length < t_cfg:
        raise InputError(f"clip length {clip.length} shorter than window {t_cfg}")

    n_win = clip.length // t_cfg
    out = []
    for wi in range(n_win):
        sl = slice(wi * t_cfg, (wi + 1) * t_cfg)
        win = VideoClip(clip.frames[sl].astype(np.float64, copy=False), clip.fps)
        win = resize_bilinear(win, h_cfg, w_cfg)
        if cfg.frame_format == "DiffNorm":
            win = diffnorm_frames(win)
        else:
            win = VideoClip(standardize(win.frames), win.fps)
        tr = trace.samples[sl].copy()

        if cfg.output_format == "HR":
            target = np.asarray(hr_from_signal(SignalTrace(tr, trace.fps)))
        else:
            if cfg.frame_format == "DiffNorm":
                target = diff_labels(SignalTrace(tr, trace.fps)).samples
            else:
                target = tr.copy()
            if cfg.signal_norm:
                target = standardize(target)
        out.append(WindowExample(
            x=np.ascontiguousarray(np.moveaxis(win.frames, 3, 0), dtype=np.float32),
            target=target,
            trace_window=tr,
            fps=trace.fps,
            window_index=wi,
        ))
    return out
