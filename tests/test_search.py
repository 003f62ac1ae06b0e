"""Greedy-adaptation tests with stub evaluators."""

import math

import numpy as np
import pytest

from pulseformer.errors import ConfigurationError
from pulseformer.model import ModelConfig
from pulseformer import search
from pulseformer.search import general_config, greedy_adapt

TARGET = dict(input_dims=(120, 64, 64), output_format="Signal",
              frame_format="DiffNorm", signal_norm=True,
              pos_encoding="REL", scaling=2)


def distance_evaluator(cfg: ModelConfig) -> float:
    """MAE proportional to the mismatch against the voted configuration."""
    miss = 0
    miss += cfg.input_dims != TARGET["input_dims"]
    miss += cfg.output_format != TARGET["output_format"]
    miss += (cfg.frame_format, cfg.signal_norm) != ("DiffNorm", True)
    miss += cfg.pos_encoding != TARGET["pos_encoding"]
    miss += cfg.scaling != TARGET["scaling"]
    return 1.0 + miss


class TestGreedyAdapt:
    def test_recovers_general_configuration(self):
        trace = greedy_adapt(distance_evaluator)
        final = trace.final_config
        expect = general_config(simple=True)
        assert final.input_dims == expect.input_dims
        assert final.output_format == expect.output_format
        assert final.frame_format == expect.frame_format
        assert final.signal_norm == expect.signal_norm
        assert final.pos_encoding == expect.pos_encoding
        assert final.scaling == expect.scaling

    def test_exactly_19_evaluator_calls(self):
        calls = []

        def counting(cfg):
            calls.append(cfg)
            return distance_evaluator(cfg)

        trace = greedy_adapt(counting)
        assert trace.evaluator_calls == 19
        assert len(calls) == 19

    def test_memoization_no_repeat_configs(self):
        seen = set()

        def unique_only(cfg):
            key = (cfg.input_dims, cfg.output_format, cfg.frame_format,
                   cfg.signal_norm, cfg.pos_encoding, cfg.scaling)
            assert key not in seen, f"re-evaluated {key}"
            seen.add(key)
            return distance_evaluator(cfg)

        greedy_adapt(unique_only)

    def test_constant_evaluator_tie_breaking(self):
        trace = greedy_adapt(lambda cfg: 1.0)
        final = trace.final_config
        assert final.input_dims == (search.TEMPORAL[0], search.SPATIAL[0], search.SPATIAL[0])
        assert final.output_format == search.OUTPUTS[0]
        assert (final.frame_format, final.signal_norm) == search.FRAME_NORM[0]
        assert final.pos_encoding == search.POS_ENCODINGS[0]
        assert final.scaling == search.SCALINGS[0]

    def test_failed_candidates_recorded_as_inf(self):
        def flaky(cfg):
            if cfg.input_dims[1] == 128:
                raise ConfigurationError("boom")
            return distance_evaluator(cfg)

        trace = greedy_adapt(flaky)
        failed = [s for s in trace.steps if not math.isfinite(s.mae)]
        assert len(failed) == 1
        assert failed[0].candidate == "spatial=128"
        assert failed[0].error == "ConfigurationError: boom"
        assert not any(s.error for s in trace.steps if math.isfinite(s.mae))
        assert trace.final_config.input_dims == (120, 64, 64)

    def test_evaluator_bug_propagates(self):
        def buggy(cfg):
            if cfg.input_dims[1] == 128:
                raise TypeError("bug in evaluator")
            return distance_evaluator(cfg)

        with pytest.raises(TypeError, match="bug in evaluator"):
            greedy_adapt(buggy)

    @pytest.mark.parametrize("seed", range(100))
    def test_monotone_carried_best(self, seed):
        rng = np.random.default_rng(seed)

        def random_eval(cfg):
            key = hash((cfg.input_dims, cfg.output_format, cfg.frame_format,
                        cfg.signal_norm, cfg.pos_encoding, cfg.scaling))
            return float(np.random.default_rng([seed, key % (2**31)]).random())

        trace = greedy_adapt(random_eval)
        best = [mae for _, mae in trace.best_by_phase()]
        assert all(b <= a + 1e-12 for a, b in zip(best, best[1:]))

    def test_separable_evaluator_reaches_global_minimum(self):
        rng = np.random.default_rng(7)
        tables = {
            "spatial": {s: rng.random() for s in search.SPATIAL},
            "temporal": {t: rng.random() for t in search.TEMPORAL},
            "output": {o: rng.random() for o in search.OUTPUTS},
            "frame": {fn: rng.random() for fn in search.FRAME_NORM},
            "pos": {p: rng.random() for p in search.POS_ENCODINGS},
            "scale": {s: rng.random() for s in search.SCALINGS},
        }

        def separable(cfg):
            return (tables["spatial"][cfg.input_dims[1]]
                    + tables["temporal"][cfg.input_dims[0]]
                    + tables["output"][cfg.output_format]
                    + tables["frame"][(cfg.frame_format, cfg.signal_norm)]
                    + tables["pos"][cfg.pos_encoding]
                    + tables["scale"][cfg.scaling])

        trace = greedy_adapt(separable)
        f = trace.final_config
        assert f.input_dims[1] == min(tables["spatial"], key=tables["spatial"].get)
        assert f.input_dims[0] == min(tables["temporal"], key=tables["temporal"].get)
        assert f.output_format == min(tables["output"], key=tables["output"].get)
        assert (f.frame_format, f.signal_norm) == min(tables["frame"], key=tables["frame"].get)
        assert f.pos_encoding == min(tables["pos"], key=tables["pos"].get)
        assert f.scaling == min(tables["scale"], key=tables["scale"].get)


class TestGeneralConfig:
    def test_simple_flag_controls_normalisation(self):
        simple = general_config(simple=True)
        hardset = general_config(simple=False)
        assert simple.signal_norm is True
        assert hardset.signal_norm is False
        for cfg in (simple, hardset):
            assert cfg.input_dims == (120, 64, 64)
            assert cfg.output_format == "Signal"
            assert cfg.frame_format == "DiffNorm"
            assert cfg.pos_encoding == "REL"
            assert cfg.scaling == 2

    def test_passes_validation(self):
        general_config(simple=True).validate()
        general_config(simple=False).validate()

    def test_baseline_is_unadapted(self):
        start = general_config(simple=True).copy(base_width=16)
        first = greedy_adapt(lambda cfg: 1.0, start=start).steps[0].config
        assert first.output_format == "HR"
        assert first.frame_format == "Raw"
        assert first.signal_norm is False
        assert first.scaling == 0
        assert first.input_dims == (search.PROBE_TEMPORAL, 256, 256)
        assert (first.base_width, first.pos_encoding) == (16, "REL")
