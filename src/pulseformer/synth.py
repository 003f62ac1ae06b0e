"""Synthetic clips with a planted blood-volume-pulse signal.

Each clip is a smooth random "skin" image modulated by a pulse waveform
(fundamental plus half-amplitude second harmonic), an optional per-frame
illumination random walk, per-pixel Gaussian noise, and an optional linear
integer-pixel drift. The noise-free waveform is kept as ground truth. Frames
and trace are the float32 values ``gen`` writes; file headers store fps as
float32, so the round trip is exact at rates it holds exactly (30, 50 fps).
Frames are computed in float64 one slab of frames at a time and cast into
the float32 clip, so no full-size float64 array is made: nothing is reduced
over the whole clip. ``generate_dataset`` yields its clips one at a time, so a
caller that writes or windows each clip as it comes holds one clip, not the
dataset; its arguments are checked at the call, before the first clip.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .preprocess import SignalTrace, VideoClip, check_fps, frame_slabs, resize_bilinear


@dataclass(frozen=True)
class SynthPreset:
    name: str
    pulse_amplitude: float = 0.01
    noise_std: float = 0.005
    illumination_drift_std: float = 0.0
    motion_max_px: int = 0
    hr_range: tuple[float, float] = (45.0, 150.0)


SIMPLE = SynthPreset("simple", noise_std=0.005)
HARD = SynthPreset("hard", noise_std=0.02, illumination_drift_std=0.002, motion_max_px=2)

PRESETS = {"simple": SIMPLE, "hard": HARD}

# illumination walk stays within this multiplicative envelope
DRIFT_CLAMP = (0.8, 1.2)
BLOTCH_GRID = 8


@dataclass
class LabeledClip:
    clip: VideoClip
    trace: SignalTrace
    planted_hr: float
    subject_id: str
    clip_id: str


def _base_image(rng: np.random.Generator, h: int, w: int) -> np.ndarray:
    """Smooth random blotches in [0.3, 0.7], shape (H, W, 3)."""
    low = rng.random((BLOTCH_GRID, BLOTCH_GRID, 3))
    up = resize_bilinear(low[None], h, w)[0]
    lo, hi = up.min(), up.max()
    if hi - lo < 1e-12:
        return np.full((h, w, 3), 0.5)
    return 0.3 + 0.4 * (up - lo) / (hi - lo)


def pulse_waveform(t_seconds: np.ndarray, hr_bpm: float, phase: float) -> np.ndarray:
    """Fundamental plus half-amplitude second harmonic at hr_bpm."""
    f = hr_bpm / 60.0
    return np.sin(2 * np.pi * f * t_seconds) + 0.5 * np.sin(4 * np.pi * f * t_seconds + phase)


def _check_length(t: int, fps: float) -> None:
    check_fps(fps)
    if t < 2 * fps:
        raise InputError(f"clip length {t} shorter than 2 seconds at {fps} Hz")


def generate_clip(preset: SynthPreset, t: int, fps: float, seed, base: np.ndarray,
                  hr: float, subject_id: str, clip_id: str) -> LabeledClip:
    """``base`` pulsing at ``hr`` bpm in the float32 that ``gen`` writes; same seed, same bits.

    Each slab of frames is built in float64, gets its noise, is clipped to
    [0, 1] and is cast into the float32 frames. The slabs draw their noise
    in turn from the one generator, which gives the stream of one whole-clip
    draw, so the clip's bits do not depend on the slab size.
    """
    _check_length(t, fps)
    rng = np.random.default_rng(seed)
    ts = np.arange(t) / fps
    phase = float(rng.uniform(0, 2 * np.pi))
    g = pulse_waveform(ts, hr, phase)

    if preset.illumination_drift_std > 0:
        steps = rng.normal(0.0, preset.illumination_drift_std, size=t)
        steps[0] = 0.0
        lum = np.clip(1.0 + np.cumsum(steps), *DRIFT_CLAMP)
    else:
        lum = np.ones(t)

    m = preset.motion_max_px
    end = rng.integers(-m, m + 1, size=2) if m > 0 else None

    scale = (1.0 + preset.pulse_amplitude * g) * lum
    slabs = list(frame_slabs(t, base.size))
    # every slab is built in one buffer, made before the frames so that it is
    # not freed above them: glibc would trim that memory and fault it in again
    # for the next clip
    buf = np.empty((slabs[0].stop,) + base.shape)
    frames = np.empty((t,) + base.shape, np.float32)
    for sl in slabs:
        f = np.multiply(base[None], scale[sl, None, None, None], out=buf[:sl.stop - sl.start])
        if end is not None:
            for j, i in enumerate(range(sl.start, sl.stop)):
                frac = i / (t - 1) if t > 1 else 0.0
                sy, sx = np.rint(frac * end).astype(int)
                if sy or sx:
                    f[j] = np.roll(f[j], (sy, sx), axis=(0, 1))
        if preset.noise_std > 0:
            f += rng.normal(0.0, preset.noise_std, size=f.shape)
        frames[sl] = np.clip(f, 0.0, 1.0, out=f)

    return LabeledClip(clip=VideoClip(frames, fps), trace=SignalTrace(g.astype(np.float32), fps),
                       planted_hr=hr, subject_id=subject_id, clip_id=clip_id)


def generate_dataset(preset: SynthPreset, n_subjects: int, clips_per_subject: int,
                     dims: tuple[int, int, int], fps: float, seed: int) -> Iterator[LabeledClip]:
    """Yield each subject's clips in turn; per-subject base image and HR drawn once.

    Clip ``ci`` of subject ``si`` is ``generate_clip`` at seed ``[seed, si,
    ci]``, with phase and noise resampled per clip. The counts, the rate and
    the clip length are checked here, so a bad argument raises ``InputError``
    at the call, not at the first ``next()``.
    """
    if n_subjects < 1 or clips_per_subject < 1:
        raise InputError(
            f"need at least one subject and one clip each, got {n_subjects} x {clips_per_subject}")
    _check_length(dims[0], fps)
    return _clips(preset, n_subjects, clips_per_subject, dims, fps, seed)


def _clips(preset, n_subjects, clips_per_subject, dims, fps, seed) -> Iterator[LabeledClip]:
    t, h, w = dims
    for si in range(n_subjects):
        srng = np.random.default_rng([seed, si])
        base = _base_image(srng, h, w)
        hr = float(srng.uniform(*preset.hr_range))
        for ci in range(clips_per_subject):
            yield generate_clip(preset, t, fps, seed=[seed, si, ci], base=base, hr=hr,
                                subject_id=f"s{si:03d}", clip_id=f"s{si:03d}c{ci:02d}")
