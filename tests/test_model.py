"""Architecture tests: shape schedules, encodings, determinism, gradients."""

import contextlib

import numpy as np
import pytest

from pulseformer import nn_ops
from pulseformer import tensor as T
from pulseformer.errors import ConfigurationError, DimensionError
from pulseformer.gradcheck import model_grad_check
from pulseformer.model import (ModelConfig, MultiscaleVideoTransformer,
                               head_upsample_count, parse_scaling,
                               scaling_label, stage_grids, trunc_normal)
from pulseformer.tensor import Tensor

# per-stage grids for 120x64x64 input, one row per scaling strategy
SCHEDULE_120_64 = {
    0: [(60, 16, 16), (60, 8, 8), (60, 4, 4), (60, 2, 2)],
    1: [(60, 16, 16), (30, 8, 8), (30, 4, 4), (30, 2, 2)],
    2: [(60, 16, 16), (60, 8, 8), (30, 4, 4), (30, 2, 2)],
    3: [(60, 16, 16), (60, 8, 8), (60, 4, 4), (30, 2, 2)],
    4: [(60, 16, 16), (30, 8, 8), (15, 4, 4), (15, 2, 2)],
    5: [(60, 16, 16), (30, 8, 8), (30, 4, 4), (15, 2, 2)],
    6: [(60, 16, 16), (60, 8, 8), (30, 4, 4), (15, 2, 2)],
}
HEAD_K_120 = {0: 1, 1: 2, 2: 2, 3: 2, 4: 3, 5: 3, 6: 3}

TINY = dict(input_dims=(8, 32, 32), base_width=4, stage_depths=(1, 1, 1, 1),
            heads_per_stage=(1, 2, 4, 4), scaling=0)


class TestShapeSchedule:
    @pytest.mark.parametrize("sid", range(7))
    def test_grids_per_strategy(self, sid):
        cfg = ModelConfig(input_dims=(120, 64, 64), scaling=sid).validate()
        assert stage_grids(cfg) == SCHEDULE_120_64[sid]

    @pytest.mark.parametrize("sid", [*range(7), "Scale-4", "Scale-9"])
    def test_head_upsample_count(self, sid):
        """An id or its "Scale-N" label gives the count; an unknown label is a typed error."""
        cfg = ModelConfig(input_dims=(120, 64, 64), scaling=sid)
        if sid == "Scale-9":
            with pytest.raises(ConfigurationError, match="Scale-9"):
                head_upsample_count(cfg)
        else:
            assert head_upsample_count(cfg) == HEAD_K_120[parse_scaling(sid)]

    def test_channels_double_per_transition(self):
        cfg = ModelConfig(**TINY)
        model = MultiscaleVideoTransformer(cfg, seed=0)
        assert model.channels == [4, 8, 16, 32]

    def test_forward_shapes_signal_and_hr(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.standard_normal((2, 3, 8, 32, 32)))
        m = MultiscaleVideoTransformer(ModelConfig(**TINY), seed=0)
        assert m.forward(x).shape == (2, 8)
        hr_cfg = ModelConfig(**{**TINY, "output_format": "HR"})
        mh = MultiscaleVideoTransformer(hr_cfg, seed=0)
        assert mh.forward(x).shape == (2,)

    def test_indivisible_dims_rejected(self):
        with pytest.raises(ConfigurationError):
            ModelConfig(input_dims=(120, 48, 48)).validate()
        with pytest.raises(ConfigurationError):
            ModelConfig(input_dims=(30, 64, 64), scaling=4).validate()

    def test_heads_checked_against_each_stage_width(self):
        """Stage widths 4, 8, 16, 32 take heads (1, 2, 4, 8); 3 heads at width 8 do not."""
        ModelConfig(base_width=4).validate()
        cfg = ModelConfig(**{**TINY, "heads_per_stage": ModelConfig.heads_per_stage}).validate()
        x = Tensor(np.random.default_rng(0).standard_normal((1, 3, 8, 32, 32)))
        assert MultiscaleVideoTransformer(cfg, seed=0).forward(x).shape == (1, 8)
        with pytest.raises(ConfigurationError, match="stage-2 width 8 not divisible .* heads 3"):
            ModelConfig(**{**TINY, "heads_per_stage": (1, 3, 4, 8)}).validate()

    def test_scaling_labels(self):
        assert scaling_label(3) == "Scale-3"
        assert parse_scaling("Scale-5") == 5
        assert parse_scaling(2) == 2
        with pytest.raises(ConfigurationError):
            parse_scaling("Scale-7")

    def test_scaling_label_config_validates_to_its_id(self):
        cfg = ModelConfig(**{**TINY, "scaling": "Scale-2"}).validate()
        assert cfg.scaling == 2
        assert head_upsample_count(cfg) == 2
        assert MultiscaleVideoTransformer(cfg, seed=0).grids == stage_grids(cfg)

    @pytest.mark.parametrize("label", [2.0, True, "Scale-", "2", None])
    def test_scaling_other_types_rejected(self, label):
        with pytest.raises(ConfigurationError):
            parse_scaling(label)

    @pytest.mark.parametrize("dims", [(0, 32, 32), (-60, 32, 32), (60, 0, 32)])
    def test_non_positive_dims_rejected(self, dims):
        with pytest.raises(ConfigurationError, match="positive"):
            ModelConfig(input_dims=dims).validate()

    @pytest.mark.parametrize("field, value", [
        ("input_dims", (8, 32.0, 32)), ("base_width", 4.0),
        ("stage_depths", (1, 1.0, 1, 1)), ("heads_per_stage", (1, 2, 4.0, 8))])
    def test_float_int_fields_rejected(self, field, value):
        """A float, integral or not, is a configuration error naming its field."""
        cfg = ModelConfig(**{**TINY, field: value})
        with pytest.raises(ConfigurationError, match=f"^{field} "):
            cfg.validate()
        with pytest.raises(ConfigurationError, match=f"^{field} "):
            MultiscaleVideoTransformer(cfg)

    def test_overflowing_mlp_width_rejected(self):
        with pytest.raises(ConfigurationError, match="overflows"):
            ModelConfig(mlp_ratio=1e308).validate()

    def test_unallocatable_width_is_configuration_error(self):
        """Too large to allocate (MemoryError) or for numpy to shape (ValueError)."""
        for width, cause in ((2 ** 40, MemoryError), (2 ** 62, ValueError),
                             (10 ** 30, ValueError)):
            cfg = ModelConfig(**{**TINY, "base_width": width})
            with pytest.raises(ConfigurationError, match=f"base width {width} ") as info:
                MultiscaleVideoTransformer(cfg)
            assert isinstance(info.value.__cause__, cause)


class TestEncodings:
    def _forward(self, pos, seed=0):
        cfg = ModelConfig(**{**TINY, "pos_encoding": pos})
        m = MultiscaleVideoTransformer(cfg, seed=seed)
        x = Tensor(np.random.default_rng(9).standard_normal((1, 3, 8, 32, 32)))
        return m.forward(x).data

    def test_zero_init_encodings_agree(self):
        base = self._forward("ABS")
        np.testing.assert_array_equal(base, self._forward("REL"))
        np.testing.assert_array_equal(base, self._forward("CPE"))

    def test_abs_table_shifts_output(self):
        cfg = ModelConfig(**{**TINY, "pos_encoding": "ABS"})
        m = MultiscaleVideoTransformer(cfg, seed=0)
        x = Tensor(np.random.default_rng(9).standard_normal((1, 3, 8, 32, 32)))
        before = m.forward(x).data.copy()
        m.parameters()["pos.abs"].data += 0.5
        after = m.forward(x).data
        assert np.abs(after - before).max() > 1e-6

    def test_rel_tables_registered_per_stage(self):
        cfg = ModelConfig(**{**TINY, "pos_encoding": "REL"})
        m = MultiscaleVideoTransformer(cfg, seed=0)
        for i, grid in enumerate(stage_grids(cfg)):
            tbl = m.parameters()[f"stage{i + 1}.rel.t"]
            assert tbl.shape == (cfg.heads_per_stage[i], 2 * grid[0] - 1)


class TestDeterminism:
    def test_same_seed_bit_identical_params(self):
        cfg = ModelConfig(**TINY)
        a = MultiscaleVideoTransformer(cfg, seed=3)
        b = MultiscaleVideoTransformer(cfg, seed=3)
        for name, t in a.parameters().items():
            np.testing.assert_array_equal(t.data, b.parameters()[name].data)

    def test_different_seed_differs(self):
        cfg = ModelConfig(**TINY)
        a = MultiscaleVideoTransformer(cfg, seed=3)
        b = MultiscaleVideoTransformer(cfg, seed=4)
        assert any(np.any(t.data != b.parameters()[n].data)
                   for n, t in a.parameters().items())

    def test_checkpoint_keeps_batchnorm_running_stats(self):
        m = MultiscaleVideoTransformer(ModelConfig(**TINY), seed=0)
        x = np.random.default_rng(5).standard_normal((1, 3, 8, 32, 32))
        m.forward(Tensor(x), training=True)
        assert np.any(m.store.buffers["head.up0.bn.running_mean"] != 0.0)
        restored = MultiscaleVideoTransformer(ModelConfig(**TINY), seed=1)
        restored.load_arrays(m.named_arrays())
        np.testing.assert_array_equal(restored.predict(x[0]), m.predict(x[0]))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_params_take_dtype_current_at_build(self, dtype):
        with T.float64() if dtype is np.float64 else contextlib.nullcontext():
            m = MultiscaleVideoTransformer(ModelConfig(**TINY), seed=0)
        assert {t.data.dtype for t in m.parameters().values()} == {np.dtype(dtype)}
        assert {b.dtype for b in m.store.buffers.values()} == {np.dtype(np.float64)}

    def test_trunc_normal_bounded(self):
        x = trunc_normal(np.random.default_rng(0), (1000,), std=0.02)
        assert np.abs(x).max() <= 0.04

    @pytest.mark.parametrize("seed", [0, 1, 7])
    @pytest.mark.parametrize("shape", [(1000,), (32, 3, 3, 7, 7), (64, 17)])
    def test_trunc_normal_matches_full_rescan(self, seed, shape):
        """Same draws in the same slots as re-scanning the whole array each round."""
        def rescan(rng, shape, std):
            x = rng.normal(0.0, std, size=shape)
            bad = np.abs(x) > 2 * std
            while bad.any():
                x[bad] = rng.normal(0.0, std, size=int(bad.sum()))
                bad = np.abs(x) > 2 * std
            return x

        rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        x = trunc_normal(rng, shape, std=0.02)
        expect = rescan(oracle_rng, shape, 0.02)
        assert x.shape == shape and x.tobytes() == expect.tobytes()
        assert rng.random() == oracle_rng.random()   # both consumed the same draws


class TestStageBehaviour:
    def test_zero_depth_stage_is_identity_path(self):
        cfg = ModelConfig(**{**TINY, "stage_depths": (0, 0, 0, 0)})
        m = MultiscaleVideoTransformer(cfg, seed=0)
        x = Tensor(np.random.default_rng(2).standard_normal((1, 3, 8, 32, 32)))
        assert m.forward(x).shape == (1, 8)

    def test_zero_block_weights_residual_identity(self):
        cfg = ModelConfig(**TINY)
        m = MultiscaleVideoTransformer(cfg, seed=0)
        blk = m.stages[0][0]
        for pair in blk.proj.values():
            pair[0].data[:] = 0.0
            pair[1].data[:] = 0.0
        blk.fc1_w.data[:] = 0.0
        blk.fc1_b.data[:] = 0.0
        blk.fc2_w.data[:] = 0.0
        blk.fc2_b.data[:] = 0.0
        tok = Tensor(np.random.default_rng(3).standard_normal((1, 6, 4)))
        out = blk(tok, None)
        np.testing.assert_array_equal(out.data, tok.data)

    def test_error_names_failing_component(self):
        cfg = ModelConfig(**TINY)
        m = MultiscaleVideoTransformer(cfg, seed=0)
        with pytest.raises(DimensionError):
            m.forward(Tensor(np.zeros((1, 3, 8, 16, 16))))

    def test_stem_zero_weights_constant_bias(self):
        cfg = ModelConfig(**TINY)
        m = MultiscaleVideoTransformer(cfg, seed=0)
        m.parameters()["stem.w"].data[:] = 0.0
        m.parameters()["stem.b"].data[:] = 0.25
        x = Tensor(np.random.default_rng(4).standard_normal((1, 3, 8, 32, 32)))
        g = nn_ops.conv3d(x, m.stem_w, m.stem_b, stride=(2, 4, 4), pad=(1, 3, 3))
        np.testing.assert_allclose(g.data, 0.25, atol=1e-15)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_end_to_end_gradient_check(seed):
    assert model_grad_check(seed) <= 1e-4
