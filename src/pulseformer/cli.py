"""Command-line interface: dataset generation, training, evaluation, search.

``train`` splits subjects by the config's ``split_mode`` and ``fold``;
``search`` always splits them 8:2 (cross, fold 0), but keeps both in the
``config.json`` it writes. ``train`` evaluates on the test subjects, or on
the validation windows when the split has no test set. Its run dir holds
``telemetry.jsonl`` (the step and epoch rows of ``train_model``'s ``log``,
written as it trains), ``config.json``, ``model.gvtm``, and the
evaluation's ``pairs.csv`` and ``metrics.json``.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import fileio
from .errors import (ConfigurationError, EstimationError, InputError,
                     NumericError, PulseformerError)
from .gradcheck import SEEDS, model_grad_check, run_op_suite
from .model import ModelConfig, MultiscaleVideoTransformer, stage_grids
from .preprocess import make_example, window_key
from .search import greedy_adapt
from .synth import PRESETS, generate_dataset
from .training import (ModelPredictor, PerfectStub, evaluate, split_dataset,
                       train_model)

OP_TOL = 1e-5
E2E_TOL = 1e-4


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _parse_dims(text: str) -> tuple[int, int, int]:
    parts = text.lower().split("x")
    if len(parts) != 3:
        raise UsageError(f"dims must look like TxHxW, got {text!r}")
    try:
        t, h, w = (int(p) for p in parts)
    except ValueError:
        raise UsageError(f"dims must be integers, got {text!r}") from None
    if min(t, h, w) < 1:
        raise UsageError(f"dims must be positive, got {text!r}")
    return t, h, w


def build_parser() -> _Parser:
    p = _Parser(prog="pulseformer",
                description="Multiscale video transformers for remote pulse estimation")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a synthetic planted-signal dataset")
    g.add_argument("--preset", choices=sorted(PRESETS), required=True)
    g.add_argument("--subjects", type=int, required=True)
    g.add_argument("--clips-per-subject", type=int, required=True)
    g.add_argument("--dims", type=str, required=True, help="clip dims TxHxW")
    g.add_argument("--fps", type=float, default=30.0)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", type=str, required=True)

    t = sub.add_parser("train", help="train a model on a generated dataset")
    t.add_argument("--data", type=str, required=True)
    t.add_argument("--config", type=str, default=None, help="JSON config file")
    t.add_argument("--out", type=str, required=True)

    e = sub.add_parser("eval", help="evaluate a finished run on a dataset")
    e.add_argument("--run", type=str, required=True)
    e.add_argument("--data", type=str, required=True)
    e.add_argument("--stub", choices=["perfect"], default=None,
                   help="evaluate a reference stub instead of the checkpoint")

    s = sub.add_parser("search", help="greedy configuration search on a dataset",
                       description="Subjects are always split 8:2 (cross, fold 0); "
                       "the config's split_mode and fold are ignored for the search "
                       "but kept in the config.json it writes.")
    s.add_argument("--data", type=str, required=True)
    s.add_argument("--config", type=str, default=None)
    s.add_argument("--out", type=str, required=True)
    s.add_argument("--max-tokens", type=int, default=20000,
                   help="skip candidates whose stem token grid exceeds this")

    sub.add_parser("gradcheck", help="finite-difference check of every operator")
    return p


# ---------------------------------------------------------------------------
# shared data plumbing
# ---------------------------------------------------------------------------

def _load_clips(data_dir: str):
    manifest = Path(data_dir) / "manifest.json"
    if not manifest.exists():
        raise InputError(f"no manifest.json under {data_dir}")
    entries, metadata = fileio.read_manifest(manifest)
    base = Path(data_dir)

    loaded = [(entry, fileio.read_clip(base / entry["clip_path"]),
               fileio.read_trace(base / entry["trace_path"])) for entry in entries]
    return loaded, metadata


def _windows(loaded, cfg: ModelConfig, subjects=None):
    out = []
    for entry, clip, trace in loaded:
        if subjects is not None and entry["subject_id"] not in subjects:
            continue
        examples = make_example(clip, trace, cfg)
        for ex in examples:
            ex.clip_id = Path(entry["clip_path"]).stem
        out.extend(examples)
    return out


def _writable_dir(path: str) -> Path:
    """Create ``path`` and check a file can be written in it, before any work."""
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
        probe = out / ".write_probe"
        probe.write_bytes(b"")
        probe.unlink()
    except OSError as e:
        raise InputError(f"output directory {out} is not writable: {e}") from e
    return out


def _read_config(path: str | None):
    if path is None:
        return fileio.config_from_dict({})
    try:   # ValueError: undecodable text, bad JSON, huge ints; RecursionError: deep nesting
        doc = json.loads(Path(path).read_text())
    except (OSError, ValueError, RecursionError) as e:
        raise InputError(f"cannot read config {path}: {e}") from e
    return fileio.config_from_dict(doc)


def _report(run_dir: Path, result) -> None:
    """Write the evaluation's pairs.csv and metrics.json and print its summary line."""
    fileio.write_result(run_dir, result)
    pearson = "n/a" if result.pearson is None else f"{result.pearson:.4f}"
    print(f"mae {result.mae:.4f} rmse {result.rmse:.4f} pearson {pearson} "
          f"excluded {result.excluded_windows}")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_gen(args) -> int:
    dims = _parse_dims(args.dims)
    if args.subjects < 1 or args.clips_per_subject < 1:
        raise UsageError("subjects and clips-per-subject must be positive")
    out = _writable_dir(args.out)
    entries = []
    for lc in generate_dataset(PRESETS[args.preset], args.subjects,
                               args.clips_per_subject, dims, args.fps, args.seed):
        clip_path = f"{lc.clip_id}.gvtc"
        trace_path = f"{lc.clip_id}.gvts"
        fileio.write_clip(out / clip_path, lc.clip)
        fileio.write_trace(out / trace_path, lc.trace)
        entries.append({"clip_path": clip_path, "trace_path": trace_path,
                        "subject_id": lc.subject_id,
                        "planted_hr": round(lc.planted_hr, 6)})
    fileio.write_manifest(out / "manifest.json", entries, {
        "preset": args.preset, "seed": args.seed, "fps": args.fps,
        "dims": list(dims), "subjects": args.subjects,
        "clips_per_subject": args.clips_per_subject,
    })
    print(f"wrote {len(entries)} clips to {out}")
    return 0


def cmd_train(args) -> int:
    model_cfg, train_cfg = _read_config(args.config)
    loaded, _ = _load_clips(args.data)
    train_subj, val_subj, test_subj = split_dataset(
        (entry["subject_id"] for entry, _, _ in loaded), train_cfg.split_mode,
        train_cfg.seed, train_cfg.fold)
    train_ex = _windows(loaded, model_cfg, train_subj)
    val_ex = _windows(loaded, model_cfg, val_subj)
    run_dir = _writable_dir(args.out)

    with open(run_dir / "telemetry.jsonl", "w") as telemetry:
        def log(row):
            telemetry.write(json.dumps(row) + "\n")
            if row["kind"] == "epoch":
                val = "" if row["val_mae"] is None else f" val_mae {row['val_mae']:.3f}"
                print(f"epoch {row['epoch']}: train_loss {row['train_loss']:.6f}{val}")

        model, _ = train_model(model_cfg, train_cfg, train_ex,
                               val_examples=val_ex or None, log=log)
    fileio.write_run_config(run_dir, model_cfg, train_cfg)
    fileio.write_checkpoint(run_dir / "model.gvtm", model.named_arrays())
    eval_ex = _windows(loaded, model_cfg, test_subj) if test_subj else val_ex
    _report(run_dir, evaluate(ModelPredictor(model), model_cfg, eval_ex))
    return 0


def cmd_eval(args) -> int:
    run_dir = Path(args.run)
    cfg_path = run_dir / "config.json"
    if not cfg_path.exists():
        raise InputError(f"no config.json under {run_dir}")
    model_cfg, train_cfg = _read_config(cfg_path)
    loaded, _ = _load_clips(args.data)
    examples = _windows(loaded, model_cfg)
    if args.stub == "perfect":
        result = evaluate(PerfectStub(model_cfg), model_cfg, examples)
    else:
        ckpt = run_dir / "model.gvtm"
        if not ckpt.exists():
            raise InputError(f"no checkpoint under {run_dir}")
        model = MultiscaleVideoTransformer(model_cfg, seed=train_cfg.seed)
        model.load_arrays(fileio.read_checkpoint(ckpt))
        result = evaluate(ModelPredictor(model), model_cfg, examples)
    _report(run_dir, result)
    return 0


def cmd_search(args) -> int:
    model_cfg, train_cfg = _read_config(args.config)
    loaded, _ = _load_clips(args.data)
    run_dir = _writable_dir(args.out)
    train_subj, val_subj, _ = split_dataset(
        (entry["subject_id"] for entry, _, _ in loaded), "cross", train_cfg.seed)
    # the (train, val) windows of the last windowing key; consecutive
    # candidates mostly differ only in architecture, so they reuse it
    windows: dict[tuple, tuple[list, list]] = {}

    def evaluator(cfg: ModelConfig) -> float:
        grid = stage_grids(cfg.validate())[0]
        tokens = grid[0] * grid[1] * grid[2]
        if tokens > args.max_tokens:
            raise ConfigurationError(
                f"stem grid {grid} exceeds --max-tokens {args.max_tokens}")
        key = window_key(cfg)
        if key not in windows:
            windows.clear()   # drop the old windows before building new ones
            windows[key] = (_windows(loaded, cfg, train_subj), _windows(loaded, cfg, val_subj))
        train_ex, val_ex = windows[key]
        model, _ = train_model(cfg, train_cfg, train_ex)
        return evaluate(ModelPredictor(model), cfg, val_ex).mae

    trace = greedy_adapt(evaluator, start=model_cfg)
    fileio.write_search_trace(run_dir / "search_trace.csv", trace)
    final = trace.final_config
    fileio.write_run_config(run_dir, final, train_cfg)
    print(f"evaluator calls: {trace.evaluator_calls}")
    for phase, mae in trace.best_by_phase():
        print(f"{phase}: best mae {mae:.4f}")
    print(f"final config written to {run_dir / 'config.json'}")
    return 0


def cmd_gradcheck(args) -> int:
    failures = 0
    print(f"{'operator':28s}{'max rel err':>14s}  threshold")
    worst = run_op_suite()
    for name, err in worst.items():
        ok = err <= OP_TOL
        failures += not ok
        print(f"{name:28s}{err:14.3e}  {OP_TOL:.0e} {'ok' if ok else 'FAIL'}")
    e2e = max(model_grad_check(seed) for seed in SEEDS)
    ok = e2e <= E2E_TOL
    failures += not ok
    print(f"{'model_end_to_end':28s}{e2e:14.3e}  {E2E_TOL:.0e} {'ok' if ok else 'FAIL'}")
    if failures:
        raise NumericError(f"{failures} gradient checks failed")
    return 0


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    try:
        handler = {
            "gen": cmd_gen,
            "train": cmd_train,
            "eval": cmd_eval,
            "search": cmd_search,
            "gradcheck": cmd_gradcheck,
        }[args.command]
        return handler(args)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    except (InputError, ConfigurationError, EstimationError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return 2
    except NumericError as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return 3
    except PulseformerError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
