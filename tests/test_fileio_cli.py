"""File-format round trips and CLI behaviour."""

import json
import shutil
import struct
import tempfile
import tracemalloc
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from pulseformer import cli, fileio, model, synth, training
from pulseformer.cli import main
from pulseformer.errors import ConfigurationError, InputError, PulseformerError
from pulseformer.gradcheck import OP_CASES
from pulseformer.model import ModelConfig, MultiscaleVideoTransformer
from pulseformer.preprocess import SignalTrace, VideoClip, make_example
from pulseformer.training import TrainConfig

MICRO_CONFIG = {
    "input_dims": [60, 32, 32],
    "base_width": 8,
    "stage_depths": [1, 1, 1, 1],
    "epochs": 1,
    "seed": 0,
    "split_mode": "cross",
}


def _int(values):
    """Integers, some of them written as integral floats."""
    return values | values.map(float)


def _ints(values, n):
    return st.lists(_int(values), min_size=n, max_size=n)


# Per config key, values the schema accepts in most draws; any JSON value
# besides, so that documents with wrong types and values are common too.
VALID_VALUES = {
    "input_dims": st.tuples(_int(st.sampled_from([8, 16, 120, 240])),
                            _int(st.sampled_from([32, 64, 128])),
                            _int(st.sampled_from([32, 64]))).map(list),
    "output_format": st.sampled_from(model.OUTPUT_FORMATS),
    "frame_format": st.sampled_from(model.FRAME_FORMATS),
    "signal_norm": st.booleans(),
    "pos_encoding": st.sampled_from(model.POS_ENCODINGS),
    "scaling": st.integers(0, 6) | st.integers(0, 6).map(model.scaling_label),
    "base_width": _int(st.sampled_from([8, 16, 32])),
    "stage_depths": _ints(st.integers(0, 3), 4),
    "heads_per_stage": _ints(st.sampled_from([1, 2, 4, 8]), 4),
    "mlp_ratio": st.floats(0.1, 8.0) | st.integers(1, 8),
    "batch_size": _int(st.integers(1, 64)),
    "epochs": _int(st.integers(1, 500)),
    "learning_rate": st.floats(1e-6, 1.0) | st.just(1),
    "weight_decay": st.floats(0.0, 1.0) | st.just(0),
    "seed": _int(st.integers(0, 2 ** 40)),
    "loss": st.just("MSE"),
    "split_mode": st.sampled_from(training.SPLIT_MODES),
    "fold": _int(st.integers(-3, 5)),
}
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=8)
EXTREMES = st.sampled_from([-1, 0, 0.5, 2 ** 64, 10 ** 400, 1e308, float("inf"), float("nan")])
VALID_DOCS = st.fixed_dictionaries({}, optional=VALID_VALUES)
FIELD_DEFAULTS = fileio.config_to_dict(ModelConfig(), TrainConfig())


def _as_library(key, value, numpy):
    """A valid document value as a library caller passes it: integral floats of int
    fields as ints, lists as tuples, and ints as numpy ints if ``numpy``."""
    if isinstance(value, list):
        return tuple(_as_library(key, v, numpy) for v in value)
    if isinstance(FIELD_DEFAULTS[key], (int, list)) and isinstance(value, float):
        value = int(value)
    return np.int64(value) if numpy and type(value) is int and abs(value) < 2 ** 63 else value


# keyword arguments of the two configs, valid in type in most draws, with at
# most one key of any type
LIBRARY_KWARGS = st.tuples(
    st.fixed_dictionaries({}, optional={
        key: st.builds(_as_library, st.just(key), values, st.booleans())
        for key, values in VALID_VALUES.items()}),
    st.just({}) | st.sampled_from(sorted(VALID_VALUES)).flatmap(
        lambda key: st.fixed_dictionaries({key: EXTREMES | JSON_VALUES})),
).map(lambda kws: {**kws[0], **kws[1]})
ANY_DOCS = st.fixed_dictionaries({}, optional={
    key: values | EXTREMES | JSON_VALUES for key, values in VALID_VALUES.items()})

# Headers whose declared payload overflows 64-bit sizes or exceeds the file;
# each is followed by a few stray payload bytes.
HUGE = 2 ** 31
OVERSIZED_HEADERS = {
    "clip": (fileio.read_clip, fileio.CLIP_MAGIC
             + struct.pack("<IIIIIf", fileio.FORMAT_VERSION, HUGE, HUGE, HUGE, HUGE, 30.0)),
    "trace": (fileio.read_trace, fileio.TRACE_MAGIC
              + struct.pack("<IIf", fileio.FORMAT_VERSION, 2 ** 32 - 1, 30.0)),
    "checkpoint": (fileio.read_checkpoint, fileio.CHECKPOINT_MAGIC
                   + struct.pack("<IIIB", fileio.FORMAT_VERSION, 1, 1, ord("w"))
                   + struct.pack("<IIII", 3, HUGE, HUGE, HUGE)),
}
# one 0-d array whose one-byte name is not UTF-8
BAD_NAME_CHECKPOINT = (fileio.CHECKPOINT_MAGIC
                       + struct.pack("<IIIB", fileio.FORMAT_VERSION, 1, 1, 0xff)
                       + struct.pack("<Id", 0, 1.0))


def _clip_bytes(fps=30.0):
    """A valid 2x2x2x3 clip file."""
    return (fileio.CLIP_MAGIC + struct.pack("<IIIIIf", fileio.FORMAT_VERSION, 2, 2, 2, 3, fps)
            + np.full(24, 0.5, dtype="<f4").tobytes())


def _zero_extent(path, axis: int) -> None:
    """Rewrite a clip file's header with extent ``axis`` (1 H, 2 W, 3 C) set to 0.

    The payload is dropped with it, so the file is consistent with its header.
    """
    head = path.read_bytes()[:28]
    version, *dims, fps = struct.unpack("<IIIIIf", head[4:])
    dims[axis] = 0
    path.write_bytes(head[:4] + struct.pack("<IIIIIf", version, *dims, fps))


def _trace_bytes(fps=30.0):
    """A valid 4-sample trace file."""
    return (fileio.TRACE_MAGIC + struct.pack("<IIf", fileio.FORMAT_VERSION, 4, fps)
            + np.zeros(4, dtype="<f4").tobytes())


# one (2,)-shaped array named "a"
CHECKPOINT_BYTES = (fileio.CHECKPOINT_MAGIC + struct.pack("<IIIB", fileio.FORMAT_VERSION, 1, 1,
                                                          ord("a"))
                    + struct.pack("<II", 1, 2) + np.ones(2, dtype="<f8").tobytes())

# per reader: a valid file and its header fields as (byte offset, struct code)
READERS = {
    "clip": (fileio.read_clip, _clip_bytes(),
             [(4, "I"), (8, "I"), (12, "I"), (16, "I"), (20, "I"), (24, "f")]),
    "trace": (fileio.read_trace, _trace_bytes(), [(4, "I"), (8, "I"), (12, "f")]),
    "checkpoint": (fileio.read_checkpoint, CHECKPOINT_BYTES,
                   [(4, "I"), (8, "I"), (12, "I"), (16, "B"), (17, "I"), (21, "I")]),
}
HEADER_VALUES = {"I": st.integers(0, 8) | st.integers(0, 2 ** 32 - 1),
                 "B": st.integers(0, 255),
                 "f": st.floats(width=32)}


@st.composite
def mutated_files(draw, kind):
    """A valid file of ``kind`` with one header field overwritten, then cut or padded."""
    _, blob, header = READERS[kind]
    offset, code = draw(st.sampled_from(header))
    value = struct.pack("<" + code, draw(HEADER_VALUES[code]))
    blob = blob[:offset] + value + blob[offset + len(value):]
    cut = draw(st.integers(-8, 8) | st.integers(0, 300))
    return blob[:len(blob) + cut] if cut < 0 else blob + b"\x00" * cut


def _parses_or_raises_typed(reader, blob, name):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / name
        path.write_bytes(blob)
        try:
            reader(path)
        except PulseformerError:
            pass


MANIFEST_PATHS = st.sampled_from(["c.gvtc", "t.gvts", ".", "", "nope", "\x00"]) | JSON_VALUES
MANIFEST_DOCS = st.fixed_dictionaries({}, optional={
    "clips": st.lists(st.fixed_dictionaries({}, optional={
        "clip_path": MANIFEST_PATHS, "trace_path": MANIFEST_PATHS,
        "subject_id": st.text(max_size=4) | JSON_VALUES}) | JSON_VALUES, max_size=3) | JSON_VALUES,
    "metadata": JSON_VALUES})


def _write_micro_config(tmp_path) -> Path:
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(MICRO_CONFIG))
    return path


class TestBinaryFormats:
    def test_clip_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        frames = rng.random((5, 4, 6, 3)).astype(np.float32).astype(np.float64)
        clip = VideoClip(frames, 30.0)
        path = tmp_path / "c.gvtc"
        fileio.write_clip(path, clip)
        again = fileio.read_clip(path)
        assert again.frames.dtype == np.float32
        np.testing.assert_array_equal(again.frames, frames)
        assert again.fps == 30.0
        fileio.write_clip(tmp_path / "c2.gvtc", again)
        assert (tmp_path / "c.gvtc").read_bytes() == (tmp_path / "c2.gvtc").read_bytes()

    def test_trace_round_trip_bit_exact(self, tmp_path):
        samples = np.linspace(-1, 1, 77, dtype=np.float32).astype(np.float64)
        path = tmp_path / "t.gvts"
        fileio.write_trace(path, SignalTrace(samples, 30.0))
        again = fileio.read_trace(path)
        np.testing.assert_array_equal(again.samples, samples)

    @pytest.mark.parametrize("fps", [30.0, 50.0])
    @pytest.mark.parametrize("preset", [synth.SIMPLE, synth.HARD], ids=["simple", "hard"])
    @pytest.mark.parametrize("hw", [32, 24], ids=["same-size", "resized"])
    def test_synthesised_clip_windows_as_its_files_do(self, tmp_path, fps, preset, hw):
        """``make_example`` gives the same bytes in-process and from the written files."""
        (lc,) = synth.generate_dataset(preset, 1, 1, (120, hw, hw), fps, seed=5)
        assert lc.clip.frames.dtype == np.float32
        fileio.write_clip(tmp_path / "c.gvtc", lc.clip)
        fileio.write_trace(tmp_path / "c.gvts", lc.trace)
        clip, trace = fileio.read_clip(tmp_path / "c.gvtc"), fileio.read_trace(tmp_path / "c.gvts")
        for frame_format in ("DiffNorm", "Raw"):
            cfg = ModelConfig(input_dims=(60, 32, 32), frame_format=frame_format)
            pairs = zip(make_example(lc.clip, lc.trace, cfg), make_example(clip, trace, cfg),
                        strict=True)
            for a, b in pairs:
                assert a.x.tobytes() == b.x.tobytes()
                assert a.target.tobytes() == b.target.tobytes()
                assert a.trace_window.tobytes() == b.trace_window.tobytes()
                assert a.fps == b.fps

    def test_checkpoint_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(1)
        arrays = {"stem.w": rng.standard_normal((4, 3, 3, 7, 7)),
                  "head.out.b": rng.standard_normal(1),
                  "bn.running_mean": rng.standard_normal(8)}
        path = tmp_path / "m.gvtm"
        fileio.write_checkpoint(path, arrays)
        again = fileio.read_checkpoint(path)
        assert list(again) == list(arrays)
        for name in arrays:
            np.testing.assert_array_equal(again[name], arrays[name])

    def test_checkpoint_restores_float32_params_bit_exact(self, tmp_path):
        cfg = ModelConfig(input_dims=(8, 32, 32), base_width=4, stage_depths=(1, 1, 1, 1),
                          heads_per_stage=(1, 2, 4, 4), scaling=0)
        saved = MultiscaleVideoTransformer(cfg, seed=0)
        path = tmp_path / "m.gvtm"
        fileio.write_checkpoint(path, saved.named_arrays())
        restored = MultiscaleVideoTransformer(cfg, seed=1)
        restored.load_arrays(fileio.read_checkpoint(path))
        for name, t in saved.parameters().items():
            got = restored.parameters()[name].data
            assert got.dtype == np.float32
            assert got.tobytes() == t.data.tobytes(), name

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.gvtc"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(InputError, match="magic"):
            fileio.read_clip(path)

    def test_truncated_payload_rejected(self, tmp_path):
        clip = VideoClip(np.zeros((2, 2, 2, 3)), 30.0)
        path = tmp_path / "c.gvtc"
        fileio.write_clip(path, clip)
        path.write_bytes(path.read_bytes()[:-5])
        with pytest.raises(InputError):
            fileio.read_clip(path)

    @pytest.mark.parametrize("kind", sorted(OVERSIZED_HEADERS))
    def test_oversized_header_rejected(self, tmp_path, kind):
        reader, header = OVERSIZED_HEADERS[kind]
        path = tmp_path / kind
        path.write_bytes(header + b"\x00" * 16)
        with pytest.raises(InputError, match="end of file"):
            reader(path)

    def test_undecodable_checkpoint_name_rejected(self, tmp_path):
        path = tmp_path / "model.gvtm"
        path.write_bytes(BAD_NAME_CHECKPOINT)
        with pytest.raises(InputError, match="not UTF-8"):
            fileio.read_checkpoint(path)

    def test_duplicate_checkpoint_name_rejected(self, tmp_path):
        def entry(value):
            return struct.pack("<IcI", 1, b"a", 1) + struct.pack("<I2d", 2, value, value)

        path = tmp_path / "model.gvtm"
        path.write_bytes(fileio.CHECKPOINT_MAGIC
                         + struct.pack("<II", fileio.FORMAT_VERSION, 2) + entry(0.0) + entry(1.0))
        with pytest.raises(InputError, match="array 'a' appears twice"):
            fileio.read_checkpoint(path)

    @pytest.mark.parametrize("fps", [float("nan"), float("inf"), -30.0, 0.0])
    def test_non_finite_or_non_positive_fps_header_rejected(self, tmp_path, fps):
        for name, blob, reader in (("c.gvtc", _clip_bytes(fps), fileio.read_clip),
                                   ("t.gvts", _trace_bytes(fps), fileio.read_trace)):
            (tmp_path / name).write_bytes(blob)
            with pytest.raises(InputError, match="frame rate"):
                reader(tmp_path / name)

    @pytest.mark.parametrize("axis", [1, 2, 3], ids=["H", "W", "C"])
    def test_zero_extent_clip_header_rejected(self, tmp_path, axis):
        path = tmp_path / "c.gvtc"
        path.write_bytes(_clip_bytes())
        _zero_extent(path, axis)
        with pytest.raises(InputError, match="positive H, W and C"):
            fileio.read_clip(path)

    def test_fuzz_seed_files_are_valid(self):
        for kind, (reader, blob, _) in READERS.items():
            with tempfile.TemporaryDirectory() as tmp:
                path = Path(tmp) / kind
                path.write_bytes(blob)
                reader(path)   # the unmutated file is valid

    @pytest.mark.parametrize("kind", sorted(READERS))
    @settings(derandomize=True, max_examples=60, deadline=None, database=None)
    @given(data=st.data())
    def test_any_bytes_parse_or_raise_typed(self, kind, data):
        reader, blob, _ = READERS[kind]
        magic = blob[:4]
        junk = data.draw(st.binary(max_size=64) | st.binary(max_size=64).map(lambda b: magic + b))
        _parses_or_raises_typed(reader, junk, kind)

    @pytest.mark.parametrize("kind", sorted(READERS))
    @settings(derandomize=True, max_examples=80, deadline=None, database=None)
    @given(data=st.data())
    def test_mutated_header_parses_or_raises_typed(self, kind, data):
        reader = READERS[kind][0]
        _parses_or_raises_typed(reader, data.draw(mutated_files(kind)), kind)

    def test_checkpoint_array_beyond_numpy_dims_rejected(self, tmp_path):
        """65 zero-length dims: the payload is empty, but numpy allows at most 64 dims."""
        path = tmp_path / "m.gvtm"
        path.write_bytes(CHECKPOINT_BYTES[:17] + struct.pack("<I", 65) + b"\x00" * 260)
        with pytest.raises(InputError, match="'a'"):
            fileio.read_checkpoint(path)

    @settings(derandomize=True, max_examples=80, deadline=None, database=None)
    @given(st.binary(max_size=64) | MANIFEST_DOCS.map(lambda d: json.dumps(d).encode()))
    @example(b"\xff\xfe")
    @example(b"[" * 100_000)
    def test_any_manifest_reads_or_raises_typed(self, blob):
        with tempfile.TemporaryDirectory() as tmp:
            base = Path(tmp)
            (base / "c.gvtc").write_bytes(_clip_bytes())
            (base / "t.gvts").write_bytes(_trace_bytes())
            (base / "manifest.json").write_bytes(blob)
            try:
                fileio.read_manifest(base / "manifest.json")
            except PulseformerError:
                pass


class TestConfigDocuments:
    def test_round_trip_defaults(self):
        doc = fileio.config_to_dict(ModelConfig(), TrainConfig())
        mc, tc = fileio.config_from_dict(doc)
        assert mc == ModelConfig()
        assert tc == TrainConfig()
        assert (tc.split_mode, tc.fold) == ("intra", 0)

    def test_scaling_serialised_as_label(self):
        doc = fileio.config_to_dict(ModelConfig(scaling=2), TrainConfig())
        assert doc["scaling"] == "Scale-2"
        assert doc["input_dims"] == [120, 64, 64]

    def test_unknown_key_named(self):
        with pytest.raises(InputError, match="lernrate"):
            fileio.config_from_dict({"lernrate": 1})

    def test_bad_value_rejected(self):
        with pytest.raises(InputError):
            fileio.config_from_dict({"input_dims": "huge"})

    @pytest.mark.parametrize("key,value", [
        ("base_width", 8.5), ("stage_depths", [1, 1, 1]), ("signal_norm", 1),
        ("pos_encoding", 3), ("mlp_ratio", True), ("mlp_ratio", 10 ** 400),
        ("fold", "0"), ("seed", None),
    ], ids=["width_fraction", "depths_short", "norm_int", "pos_int", "mlp_bool",
            "mlp_huge_int", "fold_string", "seed_null"])
    def test_wrong_type_names_key(self, key, value):
        with pytest.raises(InputError, match=key):
            fileio.config_from_dict({key: value})

    def test_integral_floats_become_ints(self):
        mc, tc = fileio.config_from_dict(
            {"base_width": 8.0, "input_dims": [60.0, 32, 32], "epochs": 2.0, "fold": 1.0})
        assert (mc.base_width, mc.input_dims, tc.epochs, tc.fold) == (8, (60, 32, 32), 2, 1)
        assert all(type(v) is int for v in (mc.base_width, *mc.input_dims, tc.epochs, tc.fold))

    def test_generated_documents_cover_every_key(self):
        assert set(VALID_VALUES) == set(fileio.config_to_dict(ModelConfig(), TrainConfig()))

    def test_non_object_document_rejected(self):
        with pytest.raises(InputError, match="JSON object"):
            fileio.config_from_dict([1, 2])

    @settings(derandomize=True, max_examples=100, deadline=None, database=None)
    @given(ANY_DOCS)
    @example({"mlp_ratio": 1e308})
    @example({"mlp_ratio": 10 ** 400})
    @example({"input_dims": [float("inf"), 32, 32]})
    def test_any_document_parses_or_raises_typed(self, doc):
        try:
            fileio.config_from_dict(doc)
        except PulseformerError:
            pass

    @settings(derandomize=True, max_examples=100, deadline=None, database=None)
    @given(VALID_DOCS)
    def test_accepted_document_round_trips(self, doc):
        try:
            parsed = fileio.config_from_dict(doc)
        except PulseformerError:   # e.g. a temporal extent the scaling cannot halve
            return
        echo = json.loads(json.dumps(fileio.config_to_dict(*parsed)))
        assert fileio.config_from_dict(echo) == parsed

    @pytest.mark.parametrize("cls, key, value", [
        (ModelConfig, "input_dims", (120, 64)), (ModelConfig, "input_dims", 120),
        (ModelConfig, "stage_depths", 5), (ModelConfig, "mlp_ratio", "4"),
        (ModelConfig, "mlp_ratio", True), (ModelConfig, "signal_norm", "yes"),
        (TrainConfig, "learning_rate", "0.1"), (TrainConfig, "weight_decay", None),
        (TrainConfig, "batch_size", True),
    ], ids=["dims_short", "dims_int", "depths_int", "mlp_str", "mlp_bool", "norm_str",
            "lr_str", "decay_none", "batch_bool"])
    def test_wrongly_typed_field_raises_its_class_error(self, cls, key, value):
        """A library caller's wrongly typed field is the class's typed error naming it."""
        error = ConfigurationError if cls is ModelConfig else InputError
        with pytest.raises(error, match=f"^{key} "):
            cls(**{key: value}).validate()

    @settings(derandomize=True, max_examples=100, deadline=None, database=None)
    @given(LIBRARY_KWARGS)
    @example({"signal_norm": "yes"})
    @example({"mlp_ratio": True, "batch_size": True})
    @example({"input_dims": (np.int64(120), 64, 64), "learning_rate": 1, "seed": np.int64(3)})
    def test_validated_config_round_trips(self, kwargs):
        """Any pair of configs ``validate`` accepts reads back equal from its run config."""
        model_fields = asdict(ModelConfig())
        try:
            mc = ModelConfig(**{k: v for k, v in kwargs.items() if k in model_fields}).validate()
            tc = TrainConfig(**{k: v for k, v in kwargs.items()
                                if k not in model_fields}).validate()
        except PulseformerError:
            return
        with tempfile.TemporaryDirectory() as tmp:
            fileio.write_run_config(tmp, mc, tc)
            doc = json.loads((Path(tmp) / "config.json").read_text())
        assert fileio.config_from_dict(doc) == (mc, tc)

    @settings(derandomize=True, max_examples=50, deadline=None, database=None)
    @given(st.binary(max_size=64) | ANY_DOCS.map(lambda d: json.dumps(d).encode()))
    @example(b"[" * 100_000)
    def test_any_config_file_reads_or_raises_typed(self, blob):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "cfg.json"
            path.write_bytes(blob)
            try:
                cli._read_config(str(path))
            except PulseformerError:
                pass


class TestCliGen:
    def test_gen_writes_dataset(self, tmp_path, capsys):
        out = tmp_path / "d"
        rc = main(["gen", "--preset", "simple", "--subjects", "4",
                   "--clips-per-subject", "4", "--dims", "60x8x8",
                   "--fps", "30", "--seed", "0", "--out", str(out)])
        assert rc == 0
        clips = sorted(out.glob("*.gvtc"))
        traces = sorted(out.glob("*.gvts"))
        assert len(clips) == 16 and len(traces) == 16
        entries, metadata = fileio.read_manifest(out / "manifest.json")
        assert len(entries) == 16
        assert metadata["preset"] == "simple"

    def test_gen_peak_does_not_grow_with_clip_count(self, tmp_path):
        """``gen`` writes each clip as it is made: 8 clips peak within one clip of 2."""
        peaks = []
        for clips in (2, 8):
            tracemalloc.start()
            try:
                start = tracemalloc.get_traced_memory()[0]
                rc = main(["gen", "--preset", "simple", "--subjects", "1",
                           "--clips-per-subject", str(clips), "--dims", "120x32x32",
                           "--out", str(tmp_path / str(clips))])
                peaks.append(tracemalloc.get_traced_memory()[1] - start)
            finally:
                tracemalloc.stop()
            assert rc == 0
        assert abs(peaks[1] - peaks[0]) < 120 * 32 * 32 * 3 * 4

    def test_gen_byte_identical_same_seed(self, tmp_path):
        for name in ("a", "b"):
            rc = main(["gen", "--preset", "hard", "--subjects", "2",
                       "--clips-per-subject", "1", "--dims", "60x8x8",
                       "--seed", "7", "--out", str(tmp_path / name)])
            assert rc == 0
        for f in sorted((tmp_path / "a").iterdir()):
            assert f.read_bytes() == (tmp_path / "b" / f.name).read_bytes()

    @pytest.mark.parametrize("fps", ["nan", "inf"])
    def test_gen_non_finite_fps_data_error(self, tmp_path, capsys, fps):
        out = tmp_path / "d"
        rc = main(["gen", "--preset", "simple", "--subjects", "1",
                   "--clips-per-subject", "1", "--dims", "60x8x8",
                   "--fps", fps, "--out", str(out)])
        assert rc == 2
        assert f"data error: frame rate must be positive and finite, got {fps}" \
            in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_gen_zero_dim_usage_error(self, tmp_path, capsys):
        rc = main(["gen", "--preset", "simple", "--subjects", "1",
                   "--clips-per-subject", "1", "--dims", "0x64x64",
                   "--out", str(tmp_path / "x")])
        assert rc == 1
        assert "dims" in capsys.readouterr().err

    def test_unknown_command_usage_error(self, capsys):
        assert main(["frobnicate"]) == 1


@pytest.fixture(scope="module")
def micro_dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("data") / "d"
    rc = main(["gen", "--preset", "simple", "--subjects", "10",
               "--clips-per-subject", "1", "--dims", "60x32x32",
               "--fps", "30", "--seed", "0", "--out", str(out)])
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def micro_run(micro_dataset, tmp_path_factory):
    run = tmp_path_factory.mktemp("runs") / "r"
    cfg = tmp_path_factory.mktemp("cfg") / "cfg.json"
    cfg.write_text(json.dumps(MICRO_CONFIG))
    rc = main(["train", "--data", str(micro_dataset), "--config", str(cfg),
               "--out", str(run)])
    assert rc == 0
    return run


class TestCliTrainEval:
    def test_run_directory_layout(self, micro_run):
        for name in ("config.json", "telemetry.jsonl", "pairs.csv",
                     "metrics.json", "model.gvtm"):
            assert (micro_run / name).exists(), name

    def test_config_echo_reproducible_fields(self, micro_run):
        doc = json.loads((micro_run / "config.json").read_text())
        assert doc["scaling"] == "Scale-2"
        assert doc["input_dims"] == [60, 32, 32]
        assert doc["epochs"] == 1
        assert doc["split_mode"] == "cross"

    def test_metrics_json_shape(self, micro_run):
        doc = json.loads((micro_run / "metrics.json").read_text())
        assert set(doc) == {"mae", "rmse", "pearson", "excluded_windows", "excluded"}
        assert doc["excluded_windows"] == len(doc["excluded"])
        assert doc["rmse"] >= doc["mae"] >= 0.0

    def test_pairs_csv_header(self, micro_run):
        lines = (micro_run / "pairs.csv").read_text().splitlines()
        assert lines[0] == "clip_id,pred_bpm,label_bpm"
        assert len(lines) > 1

    def test_eval_checkpoint_round_trip(self, micro_run, micro_dataset, capsys):
        rc = main(["eval", "--run", str(micro_run), "--data", str(micro_dataset)])
        assert rc == 0
        assert "mae" in capsys.readouterr().out

    def test_eval_perfect_stub_zero_mae(self, micro_run, micro_dataset):
        rc = main(["eval", "--run", str(micro_run), "--data", str(micro_dataset),
                   "--stub", "perfect"])
        assert rc == 0
        doc = json.loads((micro_run / "metrics.json").read_text())
        assert doc["mae"] <= 1e-9

    def test_eval_missing_run_data_error(self, micro_dataset, tmp_path, capsys):
        rc = main(["eval", "--run", str(tmp_path / "nope"), "--data", str(micro_dataset)])
        assert rc == 2
        assert "data error" in capsys.readouterr().err

    def test_eval_oversized_checkpoint_data_error(self, micro_run, micro_dataset,
                                                  tmp_path, capsys):
        run = tmp_path / "r"
        run.mkdir()
        (run / "config.json").write_bytes((micro_run / "config.json").read_bytes())
        (run / "model.gvtm").write_bytes(OVERSIZED_HEADERS["checkpoint"][1] + b"\x00" * 16)
        rc = main(["eval", "--run", str(run), "--data", str(micro_dataset)])
        assert rc == 2
        assert "end of file" in capsys.readouterr().err

    def test_eval_undecodable_checkpoint_name_data_error(self, micro_run, micro_dataset,
                                                         tmp_path, capsys):
        run = tmp_path / "r"
        run.mkdir()
        (run / "config.json").write_bytes((micro_run / "config.json").read_bytes())
        (run / "model.gvtm").write_bytes(BAD_NAME_CHECKPOINT)
        rc = main(["eval", "--run", str(run), "--data", str(micro_dataset)])
        assert rc == 2
        assert "not UTF-8" in capsys.readouterr().err

    @pytest.mark.parametrize("value", [float("nan"), 1e300], ids=["nan", "beyond_float32"])
    def test_eval_non_finite_checkpoint_data_error(self, micro_run, micro_dataset, tmp_path,
                                                   capsys, value):
        arrays = fileio.read_checkpoint(micro_run / "model.gvtm")
        arrays["stem.b"][0] = value
        run = tmp_path / "r"
        run.mkdir()
        (run / "config.json").write_bytes((micro_run / "config.json").read_bytes())
        fileio.write_checkpoint(run / "model.gvtm", arrays)
        rc = main(["eval", "--run", str(run), "--data", str(micro_dataset)])
        assert rc == 2
        assert "stem.b" in capsys.readouterr().err

    @pytest.mark.parametrize("drop,extra,name", [
        (("head.up0.bn.running_mean", "head.up0.bn.running_var"), {},
         "head.up0.bn.running_mean"),
        ((), {"bogus": np.zeros(3)}, "bogus"),
    ], ids=["missing_buffer", "unexpected_array"])
    def test_eval_checkpoint_names_must_match(self, micro_run, micro_dataset, tmp_path,
                                              capsys, drop, extra, name):
        arrays = fileio.read_checkpoint(micro_run / "model.gvtm")
        arrays = {k: v for k, v in arrays.items() if k not in drop} | extra
        run = tmp_path / "r"
        run.mkdir()
        (run / "config.json").write_bytes((micro_run / "config.json").read_bytes())
        fileio.write_checkpoint(run / "model.gvtm", arrays)
        rc = main(["eval", "--run", str(run), "--data", str(micro_dataset)])
        assert rc == 2
        assert name in capsys.readouterr().err

    def test_train_unallocatable_model_data_error(self, micro_dataset, tmp_path, capsys):
        for width in (2 ** 40, 2 ** 62, 10 ** 30):
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"base_width": width, "input_dims": [60, 32, 32],
                                       "split_mode": "cross"}))
            rc = main(["train", "--data", str(micro_dataset), "--config", str(cfg),
                       "--out", str(tmp_path / f"r{width}")])
            err = capsys.readouterr().err
            assert rc == 2
            assert "data error" in err and f"base width {width} " in err
            assert "Traceback" not in err
            assert not list((tmp_path / f"r{width}").glob("**/config.json"))

    def test_train_zero_extent_clip_data_error(self, micro_dataset, tmp_path, capsys):
        data = tmp_path / "d"
        shutil.copytree(micro_dataset, data)
        _zero_extent(next(data.glob("*.gvtc")), 1)
        rc = main(["train", "--data", str(data), "--config", str(_write_micro_config(tmp_path)),
                   "--out", str(tmp_path / "r")])
        err = capsys.readouterr().err
        assert rc == 2
        assert "data error" in err and "positive H, W and C" in err
        assert "Traceback" not in err

    def test_train_mismatched_frame_rates_data_error(self, micro_dataset, tmp_path, capsys):
        data = tmp_path / "d"
        shutil.copytree(micro_dataset, data)
        path = next(data.glob("*.gvts"))
        fileio.write_trace(path, SignalTrace(fileio.read_trace(path).samples, 50.0))
        rc = main(["train", "--data", str(data), "--config", str(_write_micro_config(tmp_path)),
                   "--out", str(tmp_path / "r")])
        err = capsys.readouterr().err
        assert rc == 2
        assert "data error" in err and "50.0 Hz" in err and "30.0 Hz" in err
        assert not (tmp_path / "r" / "model.gvtm").exists()

    def test_train_windows_each_clip_once(self, micro_dataset, tmp_path, monkeypatch):
        """A cross split is evaluated on the validation windows training already made."""
        calls = []
        make_example = cli.make_example

        def counting(*args):
            calls.append(args[0])
            return make_example(*args)

        monkeypatch.setattr(cli, "make_example", counting)
        rc = main(["train", "--data", str(micro_dataset),
                   "--config", str(_write_micro_config(tmp_path)), "--out", str(tmp_path / "r")])
        assert rc == 0
        assert len(calls) == 10

    @pytest.mark.parametrize("command", ["train", "search"])
    def test_uncreatable_out_data_error_before_training(self, micro_dataset, tmp_path,
                                                        capsys, monkeypatch, command):
        def no_training(*args, **kw):
            raise AssertionError("trained before checking --out")

        monkeypatch.setattr(cli, "train_model", no_training)
        blocker = tmp_path / "file"
        blocker.write_text("")
        rc = main([command, "--data", str(micro_dataset),
                   "--config", str(_write_micro_config(tmp_path)),
                   "--out", str(blocker / "run")])
        err = capsys.readouterr().err
        assert rc == 2
        assert "data error: output directory" in err and "not writable" in err

    def test_train_missing_manifest_data_error(self, tmp_path, capsys):
        rc = main(["train", "--data", str(tmp_path), "--out", str(tmp_path / "r")])
        assert rc == 2

    @pytest.mark.parametrize("doc", [
        [1], {"clips": [1]}, {"clips": {}},
        {"clips": [{"clip_path": 5, "trace_path": "t.gvts", "subject_id": "s000"}]},
        {"clips": [{"clip_path": "c.gvtc", "trace_path": None, "subject_id": "s000"}]},
        {"clips": [{"clip_path": "c.gvtc", "trace_path": "t.gvts", "subject_id": [0]}]},
        {"clips": [{"clip_path": ".", "trace_path": "t.gvts", "subject_id": "s000"}]},
        {"metadata": [1],
         "clips": [{"clip_path": "c.gvtc", "trace_path": "t.gvts", "subject_id": "s000"}]},
    ], ids=["list_doc", "int_entry", "clips_object", "int_clip_path", "null_trace_path",
            "list_subject", "dir_clip_path", "list_metadata"])
    def test_train_malformed_manifest_data_error(self, tmp_path, capsys, doc):
        data = tmp_path / "d"
        data.mkdir()
        fileio.write_clip(data / "c.gvtc", VideoClip(np.zeros((4, 2, 2, 3)), 30.0))
        fileio.write_trace(data / "t.gvts", SignalTrace(np.zeros(4), 30.0))
        (data / "manifest.json").write_text(json.dumps(doc))
        rc = main(["train", "--data", str(data), "--out", str(tmp_path / "r")])
        assert rc == 2
        assert "manifest" in capsys.readouterr().err

    def test_train_malformed_config_names_key(self, micro_dataset, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"lerning_rate": 0.1}))
        rc = main(["train", "--data", str(micro_dataset), "--config", str(cfg),
                   "--out", str(tmp_path / "r")])
        assert rc == 2
        assert "lerning_rate" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", [
        {"base_width": 0}, {"mlp_ratio": float("nan")}, {"mlp_ratio": 1e-9},
        {"learning_rate": float("nan")}, {"weight_decay": float("inf")},
        {"input_dims": [0, 32, 32]}, {"input_dims": [-60, 32, 32]},
        {"signal_norm": "false"}, {"heads_per_stage": [1, 2, 4, 8.5]},
        {"epochs": 1.5}, {"fold": 1.7}, {"scaling": True}, {"batch_size": True},
        {"scaling": 2.0}, {"seed": -1},
    ], ids=["width0", "mlp_nan", "mlp_empty", "lr_nan", "wd_inf",
            "dims_zero", "dims_negative", "norm_string", "heads_fraction",
            "epochs_fraction", "fold_fraction", "scaling_bool", "batch_bool",
            "scaling_float", "seed_negative"])
    def test_train_bad_config_value_data_error(self, micro_dataset, tmp_path, capsys, bad):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({**MICRO_CONFIG, **bad}))
        rc = main(["train", "--data", str(micro_dataset), "--config", str(cfg),
                   "--out", str(tmp_path / "r")])
        assert rc == 2
        assert "data error" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    def test_train_integral_float_width_trains_as_int(self, micro_run, micro_dataset,
                                                       tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**MICRO_CONFIG, "base_width": 8.0}))
        run = tmp_path / "r"
        rc = main(["train", "--data", str(micro_dataset), "--config", str(cfg),
                   "--out", str(run)])
        assert rc == 0
        for name in ("config.json", "model.gvtm"):
            assert (run / name).read_bytes() == (micro_run / name).read_bytes(), name

    def test_train_writes_step_and_epoch_telemetry(self, micro_dataset, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**MICRO_CONFIG, "epochs": 2}))
        run = tmp_path / "r"
        rc = main(["train", "--data", str(micro_dataset), "--config", str(cfg),
                   "--out", str(run)])
        assert rc == 0
        rows = [json.loads(line) for line in (run / "telemetry.jsonl").read_text().splitlines()]
        # 8 training windows at batch 4: two steps, then the epoch row
        assert [(r["kind"], r["epoch"]) for r in rows] == [
            ("step", 0), ("step", 0), ("epoch", 0), ("step", 1), ("step", 1), ("epoch", 1)]
        steps = [r for r in rows if r["kind"] == "step"]
        epochs = [r for r in rows if r["kind"] == "epoch"]
        assert all(set(r) == {"kind", "epoch", "step", "loss", "grad_norm", "seconds",
                              "nonfinite"} for r in steps)
        assert all(set(r) == {"kind", "epoch", "train_loss", "val_mae", "seconds",
                              "peak_rss_mb"} for r in epochs)
        assert [r["step"] for r in steps] == [0, 1, 2, 3]
        assert all(r["grad_norm"] > 0 and r["seconds"] > 0 and r["nonfinite"] is False
                   for r in steps)
        assert all(r["seconds"] > 0 and r["peak_rss_mb"] > 0 and r["val_mae"] is not None
                   for r in epochs)
        for e in epochs:
            assert e["train_loss"] == np.mean([r["loss"] for r in steps
                                              if r["epoch"] == e["epoch"]])


class TestCliGradcheck:
    def test_gradcheck_passes(self, capsys):
        """One line per op case, in table order, then the end-to-end line."""
        rc = main(["gradcheck"])
        out = capsys.readouterr().out
        assert rc == 0
        assert [line.split()[0] for line in out.splitlines()[1:]] == [
            *OP_CASES, "model_end_to_end"]
        assert "FAIL" not in out
