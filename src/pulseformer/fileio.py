"""Bit-exact file formats: clips, traces, checkpoints, manifests, run dirs.

All binary formats are little-endian with a four-byte magic and a u32
version. Clip and trace payloads are f32 on disk. A clip keeps its f32
payload in memory (read-only, without a copy); a trace is promoted to f64 on
load. Checkpoints hold f64 arrays whatever the parameters' dtype;
``MultiscaleVideoTransformer.load_arrays`` casts each to its parameter's.
"""

from __future__ import annotations

import csv
import json
import math
import os
import struct
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .errors import InputError
from .metrics import ExperimentResult
from .model import ModelConfig, config_field, parse_scaling, scaling_label
from .preprocess import SignalTrace, VideoClip
from .training import TrainConfig

CLIP_MAGIC = b"GVTC"
TRACE_MAGIC = b"GVTS"
CHECKPOINT_MAGIC = b"GVTM"
FORMAT_VERSION = 1


def _read_exact(f, n: int) -> bytes:
    """Read ``n`` bytes, first checking that the file still holds them.

    Sizes come from file headers, so a corrupt header must fail here rather
    than reach the allocator.
    """
    left = os.fstat(f.fileno()).st_size - f.tell()
    if n > left:
        raise InputError(f"unexpected end of file: need {n} bytes, {left} left")
    return f.read(n)


def _check_header(f, magic: bytes, path) -> None:
    got = _read_exact(f, 4)
    if got != magic:
        raise InputError(f"{path}: bad magic {got!r}, expected {magic!r}")
    (version,) = struct.unpack("<I", _read_exact(f, 4))
    if version != FORMAT_VERSION:
        raise InputError(f"{path}: unsupported version {version}")


def write_clip(path, clip: VideoClip) -> None:
    t, h, w, c = clip.frames.shape
    with open(path, "wb") as f:
        f.write(CLIP_MAGIC)
        f.write(struct.pack("<IIIIIf", FORMAT_VERSION, t, h, w, c, clip.fps))
        f.write(np.ascontiguousarray(clip.frames, dtype="<f4").tobytes())


def read_clip(path) -> VideoClip:
    with open(path, "rb") as f:
        _check_header(f, CLIP_MAGIC, path)
        t, h, w, c, fps = struct.unpack("<IIIIf", _read_exact(f, 20))
        payload = np.frombuffer(_read_exact(f, 4 * math.prod((t, h, w, c))), dtype="<f4")
        if f.read(1):
            raise InputError(f"{path}: trailing bytes after payload")
    return VideoClip(payload.reshape(t, h, w, c), float(fps))


def write_trace(path, trace: SignalTrace) -> None:
    with open(path, "wb") as f:
        f.write(TRACE_MAGIC)
        f.write(struct.pack("<IIf", FORMAT_VERSION, trace.length, trace.fps))
        f.write(np.ascontiguousarray(trace.samples, dtype="<f4").tobytes())


def read_trace(path) -> SignalTrace:
    with open(path, "rb") as f:
        _check_header(f, TRACE_MAGIC, path)
        t, fps = struct.unpack("<If", _read_exact(f, 8))
        payload = np.frombuffer(_read_exact(f, 4 * t), dtype="<f4")
        if f.read(1):
            raise InputError(f"{path}: trailing bytes after payload")
    return SignalTrace(payload.astype(np.float64), float(fps))


def write_checkpoint(path, arrays: dict[str, np.ndarray]) -> None:
    """Named f64 buffers, written in insertion order."""
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<II", FORMAT_VERSION, len(arrays)))
        for name, arr in arrays.items():
            blob = name.encode("utf-8")
            f.write(struct.pack("<I", len(blob)))
            f.write(blob)
            f.write(struct.pack("<I", arr.ndim))
            f.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            f.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def read_checkpoint(path) -> dict[str, np.ndarray]:
    out: dict[str, np.ndarray] = {}
    with open(path, "rb") as f:
        _check_header(f, CHECKPOINT_MAGIC, path)
        (count,) = struct.unpack("<I", _read_exact(f, 4))
        for _ in range(count):
            (name_len,) = struct.unpack("<I", _read_exact(f, 4))
            blob = _read_exact(f, name_len)
            try:
                name = blob.decode("utf-8")
            except UnicodeDecodeError as e:
                raise InputError(f"{path}: array name {blob!r} is not UTF-8") from e
            if name in out:
                raise InputError(f"{path}: array {name!r} appears twice")
            (ndim,) = struct.unpack("<I", _read_exact(f, 4))
            shape = struct.unpack(f"<{ndim}I", _read_exact(f, 4 * ndim))
            data = np.frombuffer(_read_exact(f, 8 * math.prod(shape)), dtype="<f8")
            try:
                out[name] = data.astype(np.float64).reshape(shape)
            except ValueError as e:   # more dimensions than numpy allows
                raise InputError(f"{path}: array {name!r}: {e}") from e
        if f.read(1):
            raise InputError(f"{path}: trailing bytes after payload")
    return out


# ---------------------------------------------------------------------------
# manifests
# ---------------------------------------------------------------------------

def write_manifest(path, entries: list[dict], metadata: dict) -> None:
    doc = {"metadata": metadata, "clips": entries}
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def read_manifest(path) -> tuple[list[dict], dict]:
    try:   # ValueError: undecodable text or bad JSON; RecursionError: deep nesting
        doc = json.loads(Path(path).read_text())
    except (OSError, ValueError, RecursionError) as e:
        raise InputError(f"cannot read manifest {path}: {e}") from e
    if not isinstance(doc, dict) or not isinstance(doc.get("clips"), list):
        raise InputError(f"manifest {path} has no clip list")
    metadata = doc.get("metadata", {})
    if not isinstance(metadata, dict):
        raise InputError(f"manifest {path} metadata is not an object")
    base = Path(path).parent
    for entry in doc["clips"]:
        if not isinstance(entry, dict):
            raise InputError(f"manifest clip entry {entry!r} is not an object")
        for key in ("clip_path", "trace_path", "subject_id"):
            if not isinstance(entry.get(key), str):
                raise InputError(f"manifest entry {key!r} is missing or not a string")
        for key in ("clip_path", "trace_path"):
            if not (base / entry[key]).is_file():
                raise InputError(f"manifest references missing file {entry[key]}")
    return doc["clips"], metadata


# ---------------------------------------------------------------------------
# configuration documents
# ---------------------------------------------------------------------------

def config_to_dict(model_cfg: ModelConfig, train_cfg: TrainConfig) -> dict:
    d = {**asdict(model_cfg), **asdict(train_cfg)}
    d = {k: list(v) if isinstance(v, tuple) else v for k, v in d.items()}
    d["scaling"] = scaling_label(model_cfg.scaling)
    return d


def _typed(key: str, value, default):
    """A JSON value as its field's ``config_field`` value; an integral float may be an int."""
    def whole(v):
        return int(v) if isinstance(v, float) and v.is_integer() else v

    if type(default) is not float:
        value = [*map(whole, value)] if isinstance(value, list) else whole(value)
    return config_field(key, value, default, InputError)


def config_from_dict(doc: dict) -> tuple[ModelConfig, TrainConfig]:
    """Parse a config document over the ``ModelConfig`` and ``TrainConfig`` fields.

    Missing keys keep their defaults; an unknown key or a value of the wrong
    JSON type is an ``InputError`` naming the key. Each value must have its
    default's type as ``model.config_field`` states, but an integer may be
    written as an integral float. ``scaling`` takes an int or a ``"Scale-N"``
    label. Both configs are then validated.
    """
    if not isinstance(doc, dict):
        raise InputError(f"config must be a JSON object, got {type(doc).__name__}")
    model_kw, train_kw = asdict(ModelConfig()), asdict(TrainConfig())
    for key, value in doc.items():
        kw = next((kw for kw in (model_kw, train_kw) if key in kw), None)
        if kw is None:
            raise InputError(f"unknown config key {key!r}")
        kw[key] = parse_scaling(value) if key == "scaling" else _typed(key, value, kw[key])
    return ModelConfig(**model_kw).validate(), TrainConfig(**train_kw).validate()


# ---------------------------------------------------------------------------
# run directories
# ---------------------------------------------------------------------------

def write_run_config(run_dir, model_cfg, train_cfg) -> None:
    """Write ``config.json`` into the existing directory ``run_dir``."""
    run_dir = Path(run_dir)
    doc = config_to_dict(model_cfg, train_cfg)
    (run_dir / "config.json").write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def write_result(run_dir, result: ExperimentResult) -> None:
    run_dir = Path(run_dir)
    with open(run_dir / "pairs.csv", "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["clip_id", "pred_bpm", "label_bpm"])
        for cid, pred, label in result.pairs:
            w.writerow([cid, f"{pred:.12g}", f"{label:.12g}"])
    doc = {"mae": result.mae, "rmse": result.rmse, "pearson": result.pearson,
           "excluded_windows": result.excluded_windows,
           "excluded": [{"window": wid, "error": msg} for wid, msg in result.excluded]}
    (run_dir / "metrics.json").write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def write_search_trace(path, trace) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["phase", "candidate", "mae", "selected", "seconds", "cached", "error"])
        for s in trace.steps:
            w.writerow([s.phase, s.candidate,
                        "inf" if not np.isfinite(s.mae) else f"{s.mae:.12g}",
                        int(s.selected), f"{s.seconds:.3f}", int(s.cached), s.error])
