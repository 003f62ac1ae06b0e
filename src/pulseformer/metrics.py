"""Heart-rate estimation from waveforms and the evaluation metrics.

A waveform is a plain 1-D array, its frame rate passed beside it. Each
function widens it to float64 first: a float32 model output gives the bits
of its float64 copy.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import EstimationError, InputError

# beats 36..198 per minute; wide enough for any plausible planted rate
DEFAULT_BAND = (0.6, 3.3)
MIN_FFT = 4096


@dataclass
class ExperimentResult:
    """MAE/RMSE/Pearson triple plus the per-window paired HR records.

    ``excluded`` holds ("<clip_id>#<window_index>", error message) for each
    window left out because its rate could not be estimated.
    """

    mae: float
    rmse: float
    pearson: float | None
    pairs: list[tuple[str, float, float]] = field(default_factory=list)
    excluded: list[tuple[str, str]] = field(default_factory=list)

    @property
    def excluded_windows(self) -> int:
        return len(self.excluded)


def detrend_linear(x: np.ndarray) -> np.ndarray:
    """Subtract the least-squares straight line."""
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[0]
    t = np.arange(n) - (n - 1) / 2.0
    slope = (t @ x) / (t @ t) if n > 1 else 0.0
    return x - x.mean() - slope * t


def power_spectrum(samples: np.ndarray, fps: float) -> tuple[np.ndarray, np.ndarray]:
    """Detrended, Hamming-windowed, zero-padded magnitude-squared spectrum."""
    x = detrend_linear(samples)
    x = x * np.hamming(len(x))
    nfft = max(MIN_FFT, 1 << (len(x) - 1).bit_length())   # a power of two
    spec = np.abs(np.fft.rfft(x, nfft)) ** 2
    freqs = np.fft.rfftfreq(nfft, 1.0 / fps)
    return freqs, spec


def hr_from_signal(samples: np.ndarray, fps: float) -> float:
    """Dominant spectral frequency in DEFAULT_BAND of a waveform sampled at ``fps``, in bpm.

    Requires at least two seconds of finite samples and a non-constant waveform.
    """
    s = np.asarray(samples, dtype=np.float64)
    if s.shape[0] < 2 * fps:
        raise EstimationError(
            f"waveform too short for HR estimation: {s.shape[0]} samples at {fps} Hz")
    if not np.isfinite(s).all():
        raise EstimationError("waveform has non-finite samples")
    if np.ptp(s) == 0.0:
        raise EstimationError("waveform is constant; no dominant frequency")
    freqs, spec = power_spectrum(s, fps)
    mask = (freqs >= DEFAULT_BAND[0]) & (freqs <= DEFAULT_BAND[1])
    if not mask.any():
        raise EstimationError(f"no spectral bins inside band {DEFAULT_BAND}")
    inband = spec[mask]
    if inband.sum() <= 0.0:
        raise EstimationError("waveform has no in-band energy")
    return 60.0 * freqs[mask][int(np.argmax(inband))]


def integrate_diff(samples: np.ndarray) -> np.ndarray:
    """Float64 cumulative sum followed by linear-trend removal (inverse of differencing)."""
    return detrend_linear(np.cumsum(samples, dtype=np.float64))


def compute_metrics(pairs: list[tuple[str, float, float]]) -> ExperimentResult:
    """MAE, RMSE, and Pearson correlation of predicted vs label bpm."""
    if not pairs:
        raise InputError("no prediction pairs to score")
    p = np.array([x[1] for x in pairs], dtype=np.float64)
    l = np.array([x[2] for x in pairs], dtype=np.float64)
    err = p - l
    mae = float(np.abs(err).mean())
    rmse = float(np.sqrt((err ** 2).mean()))
    pearson = None
    if len(pairs) >= 2 and np.ptp(l) > 0.0 and np.ptp(p) > 0.0:
        pc = np.corrcoef(p, l)[0, 1]
        pearson = float(pc)
    return ExperimentResult(mae=mae, rmse=rmse, pearson=pearson, pairs=list(pairs))
