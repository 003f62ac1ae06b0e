"""HR estimation and metric oracles."""

import numpy as np
import pytest

from pulseformer.errors import EstimationError, InputError
from pulseformer.metrics import (DEFAULT_BAND, compute_metrics, hr_from_signal,
                                 integrate_diff, power_spectrum)
from pulseformer.preprocess import diff_labels


def dft_argmax_oracle(samples, fps, band=(0.6, 3.3)):
    """Brute-force DFT over the same detrend/window/pad pipeline."""
    x = np.asarray(samples, dtype=np.float64)
    n = len(x)
    t = np.arange(n) - (n - 1) / 2.0
    slope = (t @ x) / (t @ t)
    x = (x - x.mean() - slope * t) * np.hamming(n)
    nfft = 4096
    while nfft < n:
        nfft *= 2
    ks = np.arange(nfft // 2 + 1)
    best_k, best_p = None, -1.0
    for k in ks:
        f = k * fps / nfft
        if f < band[0] or f > band[1]:
            continue
        w = np.exp(-2j * np.pi * k * np.arange(n) / nfft)
        p = abs((x * w).sum()) ** 2
        if p > best_p:
            best_p, best_k = p, k
    return 60.0 * best_k * fps / nfft


class TestHrFromSignal:
    def test_planted_sinusoid(self):
        t = np.arange(600) / 30.0
        bpm = hr_from_signal(np.sin(2 * np.pi * 1.5 * t), 30.0)
        assert abs(bpm - 90.0) <= 0.5

    def test_constant_rejected(self):
        with pytest.raises(EstimationError):
            hr_from_signal(np.full(300, 2.0), 30.0)

    def test_non_finite_sample_rejected(self):
        s = np.sin(2 * np.pi * 1.5 * np.arange(300) / 30.0)
        s[100] = np.nan
        with pytest.raises(EstimationError, match="non-finite"):
            hr_from_signal(s, 30.0)

    def test_too_short_rejected(self):
        with pytest.raises(EstimationError):
            hr_from_signal(np.sin(np.arange(30)), 30.0)

    def test_dominant_peak_wins(self):
        t = np.arange(600) / 30.0
        s = 1.0 * np.sin(2 * np.pi * 1.0 * t) + 0.3 * np.sin(2 * np.pi * 2.0 * t)
        bpm = hr_from_signal(s, 30.0)
        assert abs(bpm - 60.0) <= 0.5

    @pytest.mark.parametrize("f", [0.8, 1.5, 2.5])
    def test_matches_brute_force_dft(self, f):
        t = np.arange(600) / 30.0
        rng = np.random.default_rng(3)
        s = np.sin(2 * np.pi * f * t + 0.3) + 0.05 * rng.standard_normal(600)
        bpm = hr_from_signal(s, 30.0)
        oracle = dft_argmax_oracle(s, 30.0)
        assert bpm == oracle
        assert abs(bpm - 60.0 * f) <= 0.5

    def test_amplitude_invariance(self):
        t = np.arange(450) / 30.0
        s = np.sin(2 * np.pi * 1.2 * t) + 0.2 * np.cos(2 * np.pi * 2.9 * t)
        a = hr_from_signal(s, 30.0)
        b = hr_from_signal(123.4 * s, 30.0)
        assert a == b


class TestIntegrateDiff:
    def test_zeros(self):
        out = integrate_diff(np.zeros(50))
        np.testing.assert_array_equal(out, 0.0)

    def test_constant_becomes_line_removed(self):
        out = integrate_diff(np.full(64, 0.7))
        assert np.abs(out).max() <= 1e-9

    def test_round_trip_recovers_frequency(self):
        t = np.arange(600) / 30.0
        s = np.sin(2 * np.pi * 1.3 * t) + 0.5 * np.sin(4 * np.pi * 1.3 * t + 0.4)
        rec = integrate_diff(diff_labels(s))
        bpm = hr_from_signal(rec, 30.0)
        assert abs(bpm - 60.0 * 1.3) <= 0.5


class TestFloat32Waveform:
    """A float32 model output gives the bits of its float64 copy: each function widens first."""

    S32 = (np.sin(np.arange(300) / 4.0) + 0.01 * np.arange(300)).astype(np.float32)

    def test_hr_from_signal(self):
        assert hr_from_signal(self.S32, 30.0) == hr_from_signal(self.S32.astype(np.float64), 30.0)

    @pytest.mark.parametrize("fn", [integrate_diff, diff_labels])
    def test_float64_out_same_bits(self, fn):
        got, ref = fn(self.S32), fn(self.S32.astype(np.float64))
        assert (got.dtype, got.tobytes()) == (np.float64, ref.tobytes())


class TestComputeMetrics:
    def test_identical_pairs(self):
        pairs = [("a", 70.0, 70.0), ("b", 80.0, 80.0), ("c", 90.0, 90.0)]
        r = compute_metrics(pairs)
        assert (r.mae, r.rmse) == (0.0, 0.0)
        assert r.pearson == pytest.approx(1.0)

    def test_constant_offset(self):
        pairs = [("a", 72.0, 70.0), ("b", 82.0, 80.0), ("c", 92.0, 90.0)]
        r = compute_metrics(pairs)
        assert r.mae == pytest.approx(2.0)
        assert r.rmse == pytest.approx(2.0)
        assert r.pearson == pytest.approx(1.0)

    def test_random_pairs_match_naive_oracle(self):
        rng = np.random.default_rng(10)
        p = 60 + 60 * rng.random(20)
        l = 60 + 60 * rng.random(20)
        r = compute_metrics([(f"c{i}", p[i], l[i]) for i in range(20)])
        assert abs(r.mae - np.mean(np.abs(p - l))) <= 1e-9
        assert abs(r.rmse - np.sqrt(np.mean((p - l) ** 2))) <= 1e-9
        pear = (np.mean(p * l) - p.mean() * l.mean()) / (p.std() * l.std())
        assert abs(r.pearson - pear) <= 1e-9

    def test_rmse_at_least_mae(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            n = rng.integers(2, 30)
            p = 150 * rng.random(n)
            l = 150 * rng.random(n)
            r = compute_metrics([(str(i), p[i], l[i]) for i in range(n)])
            assert r.rmse >= r.mae >= 0.0

    def test_constant_labels_no_pearson(self):
        r = compute_metrics([("a", 71.0, 70.0), ("b", 73.0, 70.0)])
        assert r.pearson is None

    def test_empty_rejected(self):
        with pytest.raises(InputError):
            compute_metrics([])


def band_peak_fraction(samples, fps, f_target, band=DEFAULT_BAND):
    """Fraction of in-band power concentrated at the bin nearest ``f_target``."""
    freqs, spec = power_spectrum(samples, fps)
    mask = (freqs >= band[0]) & (freqs <= band[1])
    inband = spec[mask]
    total = inband.sum()
    if total <= 0.0:
        return 0.0
    idx = int(np.argmin(np.abs(freqs[mask] - f_target)))
    return float(inband[idx] / total)


def test_band_peak_fraction_prefers_planted_bin():
    t = np.arange(600) / 30.0
    clean = np.sin(2 * np.pi * 1.5 * t)
    noisy = clean + np.cumsum(np.random.default_rng(0).normal(0, 0.3, 600))
    f_clean = band_peak_fraction(clean, 30.0, 1.5)
    f_noisy = band_peak_fraction(noisy, 30.0, 1.5)
    assert f_clean > f_noisy


def test_power_spectrum_parseval_scale():
    rng = np.random.default_rng(1)
    s = rng.standard_normal(256)
    freqs, spec = power_spectrum(s, 30.0)
    assert freqs[0] == 0.0
    assert len(freqs) == len(spec)
