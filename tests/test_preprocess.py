"""Preprocessing oracles: frame formats, normalisation, resizing, windowing."""

import math
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pulseformer.errors import InputError
from pulseformer.model import ModelConfig
from pulseformer import preprocess
from pulseformer.preprocess import (SLAB, SignalTrace, VideoClip, diff_labels,
                                    diffnorm_frames, frame_slabs, make_example,
                                    pairwise_sum, resize_bilinear, standardize,
                                    standardize_frames, window_key)
from pulseformer.search import general_config


def _frames_from_scalar(values):
    v = np.asarray(values, dtype=np.float64)
    return v.reshape(-1, 1, 1, 1).repeat(3, axis=3)


class TestDiffNorm:
    def test_constant_clip_all_zero(self):
        out = diffnorm_frames(_frames_from_scalar(np.full(6, 0.4)))
        assert out.shape[0] == 6
        np.testing.assert_array_equal(out, 0.0)

    def test_alternating_pattern(self):
        out = diffnorm_frames(_frames_from_scalar([0.2, 0.6, 0.2, 0.6, 0.2]))
        got = out[:, 0, 0, 0]
        np.testing.assert_allclose(got, [1.0, -1.0, 1.0, -1.0, 0.0], atol=1e-6)

    def test_boundary_two_frames(self):
        out = diffnorm_frames(_frames_from_scalar([0.2, 0.6]))
        assert out.shape[0] == 2
        assert np.all(out[1] == 0.0)

    def test_zero_spread_stack_zeroed(self):
        """Equal differences have no spread to normalise: all zeros, not d / EPS."""
        out = diffnorm_frames(_frames_from_scalar([0.2, 0.6]))
        np.testing.assert_array_equal(out, 0.0)

    def test_too_short_rejected(self):
        with pytest.raises(InputError):
            VideoClip(np.zeros((1, 2, 2, 3)), 30.0)

    @pytest.mark.parametrize("fmt, shape", [
        (diffnorm_frames, (1, 2, 2, 3)), (diffnorm_frames, (3, 0, 2, 3)),
        (standardize_frames, (0, 2, 2, 3)), (standardize_frames, (3, 2, 2, 0))])
    def test_no_values_rejected(self, fmt, shape):
        with pytest.raises(InputError):
            fmt(np.zeros(shape))

    def test_unit_global_std(self):
        rng = np.random.default_rng(0)
        out = diffnorm_frames(rng.random((12, 4, 4, 3)))
        assert abs(out[:-1].std() - 1.0) < 1e-6

    def test_invariant_to_global_scaling(self):
        rng = np.random.default_rng(1)
        frames = 0.2 + 0.5 * rng.random((10, 3, 3, 3))
        a = diffnorm_frames(frames)
        b = diffnorm_frames(0.37 * frames)
        np.testing.assert_allclose(a, b, atol=1e-9)

    @given(st.data())
    @settings(derandomize=True, max_examples=50, deadline=None, database=None)
    def test_global_scale_property(self, data):
        """A power-of-two scale gives the same bits; any scale in [0.25, 4] agrees to 1e-12.

        The 1e-12 is relative to the outputs' size, floored at 1: a stack
        whose two differences nearly coincide has a small spread, so its
        outputs reach the hundreds, and one ulp of the ratio moves them by
        more than 1e-12.
        """
        shape = [data.draw(st.integers(2, 6)), data.draw(st.integers(1, 4)),
                 data.draw(st.integers(1, 4)), data.draw(st.integers(1, 3))]
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        frames = rng.uniform(0.05, 1.0, shape)
        base = diffnorm_frames(frames)
        k = data.draw(st.integers(-4, 4))
        exact = diffnorm_frames(frames * 2.0 ** k)
        assert exact.tobytes() == base.tobytes()
        s = data.draw(st.floats(0.25, 4.0))
        scaled = diffnorm_frames(frames * s)
        np.testing.assert_allclose(scaled, base, rtol=0,
                                   atol=1e-12 * max(1.0, np.abs(base).max()))


class TestStandardize:
    def test_constant_guard(self):
        np.testing.assert_array_equal(standardize(np.array([5.0, 5.0, 5.0])), 0.0)

    def test_population_std(self):
        np.testing.assert_allclose(standardize(np.array([1.0, 2.0, 3.0])),
                                   [-1.22474487, 0.0, 1.22474487], atol=1e-6)

    def test_moments(self):
        rng = np.random.default_rng(2)
        y = standardize(rng.random(100))
        assert abs(y.mean()) <= 1e-12
        assert abs(y.std() - 1.0) <= 1e-12

    def test_idempotent(self):
        rng = np.random.default_rng(3)
        y = standardize(rng.random(50))
        np.testing.assert_allclose(standardize(y), y, atol=1e-12)


class TestMeanStd:
    """``pairwise_sum`` replays numpy's summation tree, so the window moments keep their bits.

    With nodes of at most 128 elements (numpy's own leaf size) every split
    of the tree is replayed, so sizes next to multiples of 8 and of 128 check
    the split rule; the sizes next to ``SLAB`` check it where windows use it.
    """

    @pytest.mark.parametrize("shape", [
        (1,), (7,), (3, 5), (2, 3, 5, 7), (119, 13, 11, 3), (1001, 17),
        (129,), (136,), (137,), (263,), (1023,),
        (SLAB,), (SLAB + 1,), (2 * SLAB + 17,), (3 * SLAB - 9,), (119, 64, 64, 3)])
    def test_matches_ndarray_bit_for_bit(self, shape, monkeypatch):
        x = np.random.default_rng(sum(shape)).normal(0.4, 0.3, shape)
        flat = x.reshape(-1)
        for slab in (128, SLAB):
            monkeypatch.setattr(preprocess, "SLAB", slab)
            mean = pairwise_sum(lambda lo, hi: np.add.reduce(flat[lo:hi]), 0, x.size) / x.size
            sq = pairwise_sum(lambda lo, hi: np.add.reduce((flat[lo:hi] - mean) ** 2), 0, x.size)
            assert (mean, math.sqrt(sq / x.size)) == (x.mean(), x.std()), slab


class TestDiffLabels:
    def test_constant_trace(self):
        out = diff_labels(np.full(5, 2.0))
        np.testing.assert_array_equal(out, 0.0)

    def test_hand_example(self):
        out = diff_labels([1.0, 2.0, 4.0])
        np.testing.assert_allclose(out, [-1.0, 1.0, 0.0], atol=1e-12)

    def test_linear_ramp(self):
        out = diff_labels(np.arange(10.0))
        np.testing.assert_array_equal(out, 0.0)


class TestFrameDtype:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_float_frames_kept_as_given(self, dtype):
        frames = np.zeros((2, 3, 3, 3), dtype=dtype)
        clip = VideoClip(frames, 30.0)
        assert clip.frames.dtype == dtype and np.shares_memory(clip.frames, frames)

    @pytest.mark.parametrize("dtype", [np.uint8, np.int64, np.float16])
    def test_other_frames_become_float64(self, dtype):
        clip = VideoClip(np.arange(54, dtype=dtype).reshape(2, 3, 3, 3), 30.0)
        assert clip.frames.dtype == np.float64
        np.testing.assert_array_equal(clip.frames, np.arange(54.0).reshape(2, 3, 3, 3))


def _diffnorm_reference(f, eps=1e-7):
    """DiffNorm out of place in float64, one new array per step."""
    d = (f[1:] - f[:-1]) / np.maximum(f[1:] + f[:-1], eps)
    d = np.where(np.isfinite(d), d, 0.0)
    d = d / max(d.std(), eps)
    d = np.where(np.isfinite(d), d, 0.0)
    return np.concatenate([d, np.zeros_like(f[:1])], axis=0)


class TestWindowDtype:
    """``x`` is float32 and equals the float64 computation rounded once."""

    @staticmethod
    def _clip(dtype, kind="noise"):
        rng = np.random.default_rng(10)
        frames = rng.random((60, 8, 8, 3))
        if kind == "flat":           # one value: a zero-spread stack in both formats
            return VideoClip(np.full(frames.shape, 0.3, dtype), 30.0)
        if kind == "static":         # equal frames: a zero-spread difference stack
            frames[:] = frames[0]
        frames[:, :2] = 0.0          # black in every frame: a zero sum
        frames[::7, 5, 5] = 0.0      # black in some frames only
        return VideoClip(frames.astype(dtype), 30.0)

    def test_wide_windows_span_uneven_slabs(self):
        """The 48 x 48 case below splits both formats' stacks into three or more slabs, the last short."""
        for n in (29, 30):
            sizes = [sl.stop - sl.start for sl in frame_slabs(n, 48 * 48 * 3)]
            assert len(sizes) > 2 and sizes[-1] < sizes[0]

    @pytest.mark.parametrize("frame_format", ["DiffNorm", "Raw"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("hw", [(8, 8), (6, 5), (48, 48)])
    def test_x_is_rounded_float64_reference(self, frame_format, dtype, hw):
        cfg = ModelConfig(input_dims=(30,) + hw, frame_format=frame_format)
        trace = SignalTrace(np.sin(np.arange(60) / 3.0), 30.0)
        for kind in ("noise", "static", "flat"):
            clip = self._clip(dtype, kind)
            examples = make_example(clip, trace, cfg)
            assert len(examples) == 2
            for wi, ex in enumerate(examples):
                f = resize_bilinear(clip.frames[30 * wi:30 * (wi + 1)].astype(np.float64), *hw)
                ref = _diffnorm_reference(f) if frame_format == "DiffNorm" else standardize(f)
                ref = np.moveaxis(ref, 3, 0).astype(np.float32)
                assert (ex.x.dtype, ex.x.shape) == (np.float32, ref.shape)
                assert ex.x.tobytes() == ref.tobytes(), kind

    def test_diffnorm_matches_reference_bit_for_bit(self, monkeypatch):
        """Also across slabs, with non-finite pixels, whose differences are zeroed.

        At a 128-element ``SLAB`` a summation node is smaller than a frame,
        and most frames are shared between nodes.
        """
        frames = self._clip(np.float64).frames
        wide = resize_bilinear(frames, 48, 48)
        wide[3, 0, 0] = np.nan
        wide[40, 5, 5, 1] = np.inf
        for slab in (SLAB, 128):
            monkeypatch.setattr(preprocess, "SLAB", slab)
            with np.errstate(invalid="ignore"):   # the nan and inf / inf that zeroing removes
                for f in (frames, wide):
                    assert diffnorm_frames(f).tobytes() == _diffnorm_reference(f).tobytes(), slab


def _resize_two_gathers(frames, out_h, out_w):
    """Bilinear resize that gathers both input rows of each output row, then blends W and H."""
    def axis_weights(n_in, n_out):
        centers = (np.arange(n_out) + 0.5) * (n_in / n_out) - 0.5
        lo = np.floor(centers).astype(np.int64)
        return np.clip(lo, 0, n_in - 1), np.clip(lo + 1, 0, n_in - 1), centers - lo

    y0, y1, fy = axis_weights(frames.shape[1], out_h)
    x0, x1, fx = axis_weights(frames.shape[2], out_w)
    f0, f1 = frames[:, y0], frames[:, y1]
    wx0, wx1 = (1 - fx)[None, None, :, None], fx[None, None, :, None]
    top = f0[:, :, x0] * wx0 + f0[:, :, x1] * wx1
    bot = f1[:, :, x0] * wx0 + f1[:, :, x1] * wx1
    return top * (1 - fy)[None, :, None, None] + bot * fy[None, :, None, None]


class TestResize:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("hw", [(32, 32), (24, 40), (16, 5), (7, 5), (1, 1)])
    def test_matches_two_gather_reference_bit_for_bit(self, hw, dtype):
        frames = np.random.default_rng(11).random((4, 16, 12, 3)).astype(dtype)
        out = resize_bilinear(frames, *hw)
        ref = _resize_two_gathers(frames, *hw)
        assert (out.dtype, out.shape, out.tobytes()) == (ref.dtype, ref.shape, ref.tobytes())

    def test_same_size_identity(self):
        rng = np.random.default_rng(4)
        frames = rng.random((3, 4, 5, 3))
        assert resize_bilinear(frames, 4, 5) is frames

    def test_two_by_two_to_one(self):
        f = np.array([[0.0, 2.0], [4.0, 6.0]]).reshape(1, 2, 2, 1).repeat(2, axis=0)
        out = resize_bilinear(np.repeat(f, 3, axis=3), 1, 1)
        np.testing.assert_allclose(out, 3.0, atol=1e-12)

    def test_constant_stays_constant(self):
        frames = np.full((2, 5, 7, 3), 0.3)
        for hw in ((2, 2), (9, 11), (1, 1)):
            out = resize_bilinear(frames, *hw)
            np.testing.assert_allclose(out, 0.3, atol=1e-12)
            assert out.flags.c_contiguous


class TestMakeExample:
    def test_general_config_windowing(self):
        cfg = general_config(simple=True)
        rng = np.random.default_rng(5)
        clip = VideoClip(0.3 + 0.4 * rng.random((360, 32, 32, 3)), 30.0)
        trace = SignalTrace(np.sin(2 * np.pi * 1.5 * np.arange(360) / 30.0), 30.0)
        examples = make_example(clip, trace, cfg)
        assert len(examples) == 3
        for ex in examples:
            assert ex.x.shape == (3, 120, 64, 64)
            assert ex.target.shape == (120,)

    def test_hr_target_matches_planted(self):
        cfg = general_config(simple=True)
        cfg.output_format = "HR"
        cfg.input_dims = (120, 32, 32)
        rng = np.random.default_rng(6)
        clip = VideoClip(0.3 + 0.4 * rng.random((120, 8, 8, 3)), 30.0)
        trace = SignalTrace(np.sin(2 * np.pi * 1.5 * np.arange(120) / 30.0), 30.0)
        (ex,) = make_example(clip, trace, cfg)
        assert abs(float(ex.target) - 90.0) <= 0.5

    def test_raw_no_norm_passthrough(self):
        cfg = general_config(simple=False)
        cfg.frame_format = "Raw"
        cfg.input_dims = (60, 32, 32)
        rng = np.random.default_rng(7)
        clip = VideoClip(0.3 + 0.4 * rng.random((60, 32, 32, 3)), 30.0)
        tr = rng.random(60)
        (ex,) = make_example(clip, SignalTrace(tr, 30.0), cfg)
        np.testing.assert_array_equal(ex.target, tr)
        ref = np.moveaxis(standardize(clip.frames), 3, 0).astype(np.float32)
        assert (ex.x.dtype, ex.x.tobytes()) == (ref.dtype, ref.tobytes())

    @pytest.mark.parametrize("frame_format", ["DiffNorm", "Raw"])
    def test_peak_memory_below_two_float64_windows(self, frame_format):
        """No float64 array of the whole window: a 120 x 64 x 64 window peaks under x + 4 MiB."""
        rng = np.random.default_rng(9)
        clip = VideoClip(rng.random((120, 64, 64, 3), dtype=np.float32), 30.0)
        trace = SignalTrace(np.zeros(120), 30.0)
        cfg = ModelConfig(input_dims=(120, 64, 64), frame_format=frame_format)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            (ex,) = make_example(clip, trace, cfg)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak < ex.x.nbytes + 4 * 2 ** 20

    def test_short_trace_rejected(self):
        cfg = general_config(simple=True)
        rng = np.random.default_rng(8)
        clip = VideoClip(rng.random((120, 8, 8, 3)), 30.0)
        with pytest.raises(InputError):
            make_example(clip, SignalTrace(np.zeros(100), 30.0), cfg)


# two values per ModelConfig field; each base below differs from at least one
FIELD_VALUES = {
    "input_dims": ((30, 16, 16), (60, 8, 8)), "output_format": ("Signal", "HR"),
    "frame_format": ("DiffNorm", "Raw"), "signal_norm": (True, False),
    "pos_encoding": ("ABS", "CPE"), "scaling": (1, 3), "base_width": (16, 8),
    "stage_depths": ((2, 2, 2, 2), (0, 0, 0, 0)), "heads_per_stage": ((1, 1, 1, 1), (2, 2, 2, 2)),
    "mlp_ratio": (2.0, 3.0),
}


class TestWindowKey:
    @pytest.mark.parametrize("base", [
        ModelConfig(input_dims=(60, 16, 16), output_format="HR", frame_format="Raw",
                    signal_norm=False, scaling=0),
        ModelConfig(input_dims=(60, 16, 16), output_format="Signal", frame_format="DiffNorm",
                    signal_norm=True, scaling=2),
    ], ids=["unadapted", "general"])
    def test_fields_outside_key_leave_windows_bit_identical(self, base):
        assert set(FIELD_VALUES) == {f.name for f in fields(ModelConfig)}
        rng = np.random.default_rng(9)
        clip = VideoClip(0.3 + 0.4 * rng.random((120, 8, 8, 3)), 30.0)
        ts = np.arange(120) / 30.0
        trace = SignalTrace(np.sin(2 * np.pi * 1.5 * ts) + 0.1 * rng.random(120), 30.0)
        ref = make_example(clip, trace, base)
        outside = []
        for name, values in FIELD_VALUES.items():
            cfg = base.copy(**{name: next(v for v in values if v != getattr(base, name))})
            if window_key(cfg) != window_key(base):
                continue
            outside.append(name)
            got = make_example(clip, trace, cfg)
            assert len(got) == len(ref)
            for a, b in zip(ref, got):
                for attr in ("x", "target", "trace_window"):
                    u, v = getattr(a, attr), getattr(b, attr)
                    assert (u.dtype, u.shape, u.tobytes()) == (v.dtype, v.shape, v.tobytes())
        assert set(FIELD_VALUES) - set(outside) == {
            "input_dims", "output_format", "frame_format", "signal_norm"}
