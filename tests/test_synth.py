"""Planted-signal generator tests."""

import tracemalloc

import numpy as np
import pytest

from pulseformer.errors import InputError
from pulseformer.metrics import DEFAULT_BAND, hr_from_signal, power_spectrum
from pulseformer.preprocess import diffnorm_frames, frame_slabs, standardize
from pulseformer.synth import (DRIFT_CLAMP, HARD, SIMPLE, SynthPreset, _base_image,
                               generate_clip, generate_dataset, pulse_waveform)


def one_clip(preset, t, seed, hr, hw=8):
    """``generate_clip`` at an explicit rate on a blotch base drawn from its own seed."""
    base = _base_image(np.random.default_rng([seed, 1]), hw, hw)
    return generate_clip(preset, t, 30.0, seed, base, hr, "s000", "s000c00")


class TestGenerateClip:
    def test_planted_rate_recoverable(self):
        lc = one_clip(SIMPLE, 600, seed=0, hr=90.0)
        bpm = hr_from_signal(lc.trace.samples, lc.trace.fps)
        assert abs(bpm - 90.0) <= 0.5

    def test_same_seed_bit_identical(self):
        (a,) = generate_dataset(HARD, 1, 1, (120, 16, 16), 30.0, seed=42)
        (b,) = generate_dataset(HARD, 1, 1, (120, 16, 16), 30.0, seed=42)
        np.testing.assert_array_equal(a.clip.frames, b.clip.frames)
        np.testing.assert_array_equal(a.trace.samples, b.trace.samples)
        assert a.planted_hr == b.planted_hr

    def test_zero_amplitude_carries_no_pulse(self):
        preset = SynthPreset("flat", pulse_amplitude=0.0, noise_std=0.0)
        lc = one_clip(preset, 300, seed=1, hr=80.0, hw=4)
        assert np.ptp(lc.clip.frames) > 0          # base pattern present
        per_frame = lc.clip.frames.reshape(300, -1).mean(axis=1)
        assert np.ptp(per_frame) < 1e-12           # but constant in time

    def test_values_in_unit_range(self):
        (lc,) = generate_dataset(HARD, 1, 1, (150, 8, 8), 30.0, seed=7)
        assert lc.clip.frames.min() >= 0.0
        assert lc.clip.frames.max() <= 1.0

    def test_too_short_rejected(self):
        with pytest.raises(InputError):
            generate_dataset(SIMPLE, 1, 1, (30, 8, 8), 30.0, seed=0)


def _clip_reference(preset, t, fps, seed, base, hr):
    """``generate_clip``'s frames and trace built whole in float64, then cast once."""
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
    frames = base[None] * ((1.0 + preset.pulse_amplitude * g) * lum)[:, None, None, None]
    if preset.motion_max_px > 0:
        m = preset.motion_max_px
        end = rng.integers(-m, m + 1, size=2)
        for i in range(t):
            frac = i / (t - 1) if t > 1 else 0.0
            sy, sx = np.rint(frac * end).astype(int)
            if sy or sx:
                frames[i] = np.roll(frames[i], (sy, sx), axis=(0, 1))
    if preset.noise_std > 0:
        frames += rng.normal(0.0, preset.noise_std, size=frames.shape)
    return np.clip(frames, 0.0, 1.0, out=frames).astype(np.float32), g.astype(np.float32)


class TestSlabs:
    @pytest.mark.parametrize("preset", [SIMPLE, HARD], ids=["simple", "hard"])
    def test_clip_matches_whole_array_reference(self, preset):
        """61 frames of 40 x 40 span several slabs, the last short: bytes equal the one-array build."""
        t, hw = 61, 40
        sizes = [sl.stop - sl.start for sl in frame_slabs(t, hw * hw * 3)]
        assert len(sizes) > 1 and sizes[-1] < sizes[0]
        base = _base_image(np.random.default_rng([4, 1]), hw, hw)
        lc = generate_clip(preset, t, 30.0, [4, 2], base, 77.0, "s000", "s000c00")
        frames, trace = _clip_reference(preset, t, 30.0, [4, 2], base, 77.0)
        assert lc.clip.frames.dtype == np.float32
        assert lc.clip.frames.tobytes() == frames.tobytes()
        assert lc.trace.samples.tobytes() == trace.astype(np.float64).tobytes()

    def test_peak_memory_one_float32_clip(self):
        """A 120 x 64 x 64 clip peaks under 8 MiB: its float32 frames and one slab, not 22.5."""
        base = _base_image(np.random.default_rng(0), 64, 64)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            generate_clip(HARD, 120, 30.0, 0, base, 80.0, "s000", "s000c00")
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2 ** 20


class TestGenerateDataset:
    def test_yields_generate_clip_at_the_documented_seeds(self):
        """Clip ``ci`` of subject ``si`` is ``generate_clip`` at ``[seed, si, ci]``, byte for byte."""
        seed, t, hw = 6, 60, 8
        yielded = generate_dataset(HARD, 2, 3, (t, hw, hw), 30.0, seed)
        for si in range(2):
            srng = np.random.default_rng([seed, si])
            base = _base_image(srng, hw, hw)
            hr = float(srng.uniform(*HARD.hr_range))
            for ci in range(3):
                want = generate_clip(HARD, t, 30.0, [seed, si, ci], base, hr,
                                     f"s{si:03d}", f"s{si:03d}c{ci:02d}")
                got = next(yielded)
                assert got.clip.frames.tobytes() == want.clip.frames.tobytes()
                assert got.trace.samples.tobytes() == want.trace.samples.tobytes()
                assert (got.planted_hr, got.subject_id, got.clip_id) == \
                    (want.planted_hr, want.subject_id, want.clip_id)
        assert next(yielded, None) is None

    @pytest.mark.parametrize("subjects, clips, fps", [
        (0, 1, 30.0), (1, 0, 30.0), (1, 1, float("nan")), (1, 1, 0.0)],
        ids=["no-subjects", "no-clips", "nan-fps", "zero-fps"])
    def test_bad_arguments_raise_at_the_call(self, subjects, clips, fps):
        """Validation is eager: the call raises, before any ``next()`` (as for a short clip)."""
        with pytest.raises(InputError):
            generate_dataset(SIMPLE, subjects, clips, (90, 8, 8), fps, seed=0)

    def test_counts_and_distinct_bases(self):
        data = list(generate_dataset(SIMPLE, 4, 4, (90, 8, 8), 30.0, seed=0))
        assert len(data) == 16
        assert len({lc.subject_id for lc in data}) == 4
        first_frames = {lc.subject_id: lc.clip.frames[0].tobytes() for lc in data[::4]}
        assert len(set(first_frames.values())) == 4

    def test_rates_within_range(self):
        data = generate_dataset(SIMPLE, 6, 1, (90, 8, 8), 30.0, seed=3)
        for lc in data:
            assert 45.0 <= lc.planted_hr <= 150.0

    def test_subject_shares_rate_clips_differ(self):
        data = list(generate_dataset(SIMPLE, 1, 3, (90, 8, 8), 30.0, seed=5))
        assert len({lc.planted_hr for lc in data}) == 1
        assert data[0].clip.frames.tobytes() != data[1].clip.frames.tobytes()

    def test_spectral_ground_truth_all_clips(self):
        data = generate_dataset(HARD, 3, 2, (300, 8, 8), 30.0, seed=9)
        for lc in data:
            assert abs(hr_from_signal(lc.trace.samples, lc.trace.fps) - lc.planted_hr) <= 1.0


def band_power_fraction(samples, fps, band=DEFAULT_BAND):
    """Share of total spectral power (DC excluded) that falls inside the band.

    Measures how concentrated a waveform's energy is in the pulse band;
    drift and other out-of-band disturbances lower it.
    """
    freqs, spec = power_spectrum(samples, fps)
    mask = (freqs >= band[0]) & (freqs <= band[1])
    total = spec[1:].sum()
    if total <= 0.0:
        return 0.0
    return float(spec[mask].sum() / total)


class TestIlluminationMechanism:
    def test_diffnorm_raises_band_power_fraction_under_drift(self):
        """Drift-only clips: the difference format strictly concentrates
        spectral power into the pulse band versus standardized raw frames."""
        preset = SynthPreset("drift", pulse_amplitude=0.01, noise_std=0.0,
                             illumination_drift_std=0.002, motion_max_px=0)
        for seed in range(10):
            lc = one_clip(preset, 600, seed=seed, hr=90.0)
            t = lc.clip.length
            raw = standardize(lc.clip.frames)
            dn = diffnorm_frames(lc.clip.frames)
            raw_mean = raw.reshape(t, -1).mean(axis=1)
            dn_mean = dn.reshape(t, -1).mean(axis=1)
            assert (band_power_fraction(dn_mean, 30.0)
                    > band_power_fraction(raw_mean, 30.0)), f"seed {seed}"
