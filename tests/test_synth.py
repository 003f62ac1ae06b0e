"""Planted-signal generator tests."""

import numpy as np
import pytest

from pulseformer.errors import InputError
from pulseformer.metrics import DEFAULT_BAND, hr_from_signal, power_spectrum
from pulseformer.preprocess import diffnorm_frames, standardize
from pulseformer.synth import (HARD, SIMPLE, SynthPreset, _base_image, generate_clip,
                               generate_dataset)


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


class TestGenerateDataset:
    def test_counts_and_distinct_bases(self):
        data = generate_dataset(SIMPLE, 4, 4, (90, 8, 8), 30.0, seed=0)
        assert len(data) == 16
        assert len({lc.subject_id for lc in data}) == 4
        first_frames = {lc.subject_id: lc.clip.frames[0].tobytes() for lc in data[::4]}
        assert len(set(first_frames.values())) == 4

    def test_rates_within_range(self):
        data = generate_dataset(SIMPLE, 6, 1, (90, 8, 8), 30.0, seed=3)
        for lc in data:
            assert 45.0 <= lc.planted_hr <= 150.0

    def test_subject_shares_rate_clips_differ(self):
        data = generate_dataset(SIMPLE, 1, 3, (90, 8, 8), 30.0, seed=5)
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
