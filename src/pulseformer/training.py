"""Optimisation, dataset splitting, the training loop, and evaluation."""

from __future__ import annotations

import math
import resource
import time
from dataclasses import dataclass, field, fields

import numpy as np

from . import nn_ops, tensor as T
from .errors import EstimationError, InputError, NumericError
from .metrics import ExperimentResult, compute_metrics, hr_from_signal, integrate_diff
from .model import ModelConfig, MultiscaleVideoTransformer, config_field
from .preprocess import WindowExample
from .tensor import Tensor

SPLIT_MODES = ("intra", "cross", "kfold")
K_FOLDS = 3


@dataclass
class TrainConfig:
    batch_size: int = 4
    epochs: int = 50
    learning_rate: float = 1e-3
    weight_decay: float = 1e-4
    seed: int = 0
    loss: str = "MSE"
    split_mode: str = "intra"   # the subject split of ``pulseformer train``; search ignores it
    fold: int = 0

    def validate(self) -> "TrainConfig":
        """Check every field and return self; each field becomes its ``config_field`` value."""
        for f in fields(self):
            setattr(self, f.name, config_field(f.name, getattr(self, f.name), f.default,
                                               InputError))
        if self.batch_size < 1 or self.epochs < 1:
            raise InputError("batch size and epochs must be positive")
        if self.seed < 0:
            raise InputError(f"seed {self.seed} must be non-negative")
        if not (math.isfinite(self.learning_rate) and math.isfinite(self.weight_decay)):
            raise InputError("learning rate and weight decay must be finite")
        if self.learning_rate <= 0 or self.weight_decay < 0:
            raise InputError("learning rate must be positive, weight decay non-negative")
        if self.loss != "MSE":
            raise InputError(f"unsupported loss {self.loss!r}")
        if self.split_mode not in SPLIT_MODES:
            raise InputError(f"unknown config value for 'split_mode': {self.split_mode!r}")
        return self


# ---------------------------------------------------------------------------
# optimiser
# ---------------------------------------------------------------------------

# AdamW's moment decay rates and denominator floor
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


def adamw_update(p: np.ndarray, g: np.ndarray, m: np.ndarray, v: np.ndarray,
                 t: int, lr: float, weight_decay: float = 0.0) -> None:
    """One decoupled-weight-decay step, in place; ``t`` counts from 1."""
    if weight_decay:
        p -= lr * weight_decay * p
    m *= BETA1
    m += (1 - BETA1) * g
    v *= BETA2
    v += (1 - BETA2) * g * g
    mhat = m / (1 - BETA1 ** t)
    vhat = v / (1 - BETA2 ** t)
    p -= lr * mhat / (np.sqrt(vhat) + EPS)


class AdamW:
    """Decoupled weight-decay optimiser over a named parameter dict.

    The moments are made at the first ``step()``, in each parameter's dtype,
    so they take no memory while the first forward and backward run; they
    are resident through every later step.
    """

    def __init__(self, params: dict[str, Tensor], lr: float, weight_decay: float = 0.0):
        self.params = params
        self.lr = lr
        self.weight_decay = weight_decay
        self.t = 0
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}

    def step(self) -> None:
        if not self.t:
            self.m = {k: np.zeros_like(t.data) for k, t in self.params.items()}
            self.v = {k: np.zeros_like(t.data) for k, t in self.params.items()}
        self.t += 1
        for name, p in self.params.items():
            g = p.grad
            if g is None:
                continue
            adamw_update(p.data, g, self.m[name], self.v[name], self.t,
                         self.lr, self.weight_decay)


# ---------------------------------------------------------------------------
# dataset splitting
# ---------------------------------------------------------------------------

def split_dataset(ids, mode: str, seed: int, fold: int = 0) -> tuple[set, set, set]:
    """(train, val, test) subject sets: a seeded shuffle, then a contiguous partition.

    The shuffle runs over the sorted unique ids. ``intra`` splits 7:1:2 into
    train/val/test and ``cross`` 8:2 into train/val with an empty test (floor
    for train, remainder to later parts). ``kfold`` partitions into
    ``K_FOLDS`` folds balanced within one element; fold ``fold`` is the test
    set, the others train, and val is empty.
    """
    ids = sorted(set(ids))
    if mode not in SPLIT_MODES:
        raise InputError(f"unknown split mode {mode!r}")
    if mode == "kfold":
        if len(ids) < K_FOLDS:
            raise InputError(f"k-fold needs at least {K_FOLDS} ids, got {len(ids)}")
        if not 0 <= fold < K_FOLDS:
            raise InputError(f"fold {fold} out of range for {K_FOLDS}-fold split")
    elif len(ids) < 10:
        raise InputError(f"ratio splits need at least 10 ids, got {len(ids)}")

    rng = np.random.default_rng(seed)
    order = [ids[i] for i in rng.permutation(len(ids))]
    n = len(order)
    if mode == "intra":
        n_train = int(n * 0.7)
        n_val = int(n * 0.1)
        return (set(order[:n_train]), set(order[n_train:n_train + n_val]),
                set(order[n_train + n_val:]))
    if mode == "cross":
        n_train = int(n * 0.8)
        return set(order[:n_train]), set(order[n_train:]), set()
    folds = [{order[j] for j in f} for f in np.array_split(np.arange(n), K_FOLDS)]
    test = folds.pop(fold)
    return set().union(*folds), set(), test


# ---------------------------------------------------------------------------
# prediction adapters
# ---------------------------------------------------------------------------

class ModelPredictor:
    """Adapter running the real model on a window's input tensor.

    A Signal model on difference-formatted frames predicts the waveform's
    difference, which is integrated back to the waveform here.
    """

    def __init__(self, model: MultiscaleVideoTransformer):
        self.model = model

    def predict_example(self, ex: WindowExample) -> np.ndarray:
        y = self.model.predict(ex.x)
        cfg = self.model.cfg
        if cfg.output_format == "Signal" and cfg.frame_format == "DiffNorm":
            return integrate_diff(y)
        return y


class PerfectStub:
    """Returns the ground-truth trace (or its exact rate) for every window."""

    def __init__(self, cfg: ModelConfig):
        self.cfg = cfg

    def predict_example(self, ex: WindowExample) -> np.ndarray:
        if self.cfg.output_format == "HR":
            return np.asarray(hr_from_signal(ex.trace_window, ex.fps))
        return ex.trace_window.copy()


# ---------------------------------------------------------------------------
# evaluation and training
# ---------------------------------------------------------------------------

def evaluate(predictor, cfg: ModelConfig, examples: list[WindowExample]) -> ExperimentResult:
    """Per-window HR pairing of predictions against ground truth.

    A predictor returns a rate for HR output and a waveform for Signal
    output. Windows whose estimation fails (EstimationError), including a
    non-finite predicted rate, are excluded and counted, and any other error
    propagates; each excluded window's id and message are kept on the
    result. Label rates always come from the untouched ground-truth trace
    through the same estimator.
    """
    if not examples:
        raise InputError("evaluation set is empty")
    pairs, excluded = [], []
    for ex in examples:
        wid = f"{ex.clip_id}#{ex.window_index}"
        try:
            label = hr_from_signal(ex.trace_window, ex.fps)
            pred = predictor.predict_example(ex)
            if cfg.output_format == "HR":
                pred_bpm = float(pred)
                if not math.isfinite(pred_bpm):
                    raise EstimationError(f"predicted rate {pred_bpm} is not finite")
            else:
                pred_bpm = hr_from_signal(pred, ex.fps)
        except EstimationError as e:
            excluded.append((wid, str(e)))
            continue
        pairs.append((wid, pred_bpm, label))
    if not pairs:
        raise InputError(f"all {len(excluded)} windows failed HR estimation")
    result = compute_metrics(pairs)
    result.excluded = excluded
    return result


@dataclass
class TrainHistory:
    epochs: list[dict] = field(default_factory=list)


def _batch(examples: list[WindowExample], idx) -> tuple[Tensor, Tensor]:
    """The batch's inputs and targets; a batch of one takes its window's ``x`` as a view."""
    xs = examples[idx[0]].x[None] if len(idx) == 1 else np.stack([examples[i].x for i in idx])
    ts = np.stack([examples[i].target for i in idx])
    return Tensor(xs), Tensor(ts)


def _grad_norm(params: dict[str, Tensor]) -> float:
    """Global L2 norm of the parameter gradients, summed in float64."""
    grads = [p.grad for p in params.values() if p.grad is not None]
    return math.sqrt(sum(float(np.square(g, dtype=np.float64).sum()) for g in grads))


def _step_row(epoch: int, step: int, loss: float, seconds: float,
              grad_norm: float | None = None) -> dict:
    return {"kind": "step", "epoch": epoch, "step": step, "loss": loss,
            "grad_norm": grad_norm, "seconds": seconds,
            "nonfinite": not math.isfinite(loss) or
            (grad_norm is not None and not math.isfinite(grad_norm))}


def train_model(model_cfg: ModelConfig, train_cfg: TrainConfig,
                train_examples: list[WindowExample],
                val_examples: list[WindowExample] | None = None,
                log=None) -> tuple[MultiscaleVideoTransformer, TrainHistory]:
    """Seeded epoch loop with MSE loss and best-validation-epoch selection.

    With an empty validation set the final epoch's parameters are kept.
    Aborts with a diagnostic naming the batch and step if the loss goes
    non-finite. The epoch loop, validation included, runs inside
    ``nn_ops.one_blas_thread``. Each step sets every parameter's ``grad`` to
    None before its forward, so the last step's gradients are freed first,
    then records inside ``tensor.record()`` and runs ``tensor.backward(loss)``.

    ``log``, when given, receives one row per step, ``{"kind": "step",
    "epoch", "step", "loss", "grad_norm", "seconds", "nonfinite"}``, and one
    per epoch, ``{"kind": "epoch", "epoch", "train_loss", "val_mae",
    "seconds", "peak_rss_mb"}``. ``grad_norm`` is the global L2 norm of the
    parameter gradients, computed only for ``log``; ``nonfinite`` is set when
    the loss or that norm is not finite, and a step with a non-finite loss is
    logged, without a norm, before the abort.
    """
    train_cfg.validate()
    if not train_examples:
        raise InputError("training set is empty")
    model = MultiscaleVideoTransformer(model_cfg, seed=train_cfg.seed)
    opt = AdamW(model.parameters(), lr=train_cfg.learning_rate,
                weight_decay=train_cfg.weight_decay)
    shuffle_rng = np.random.default_rng([train_cfg.seed, 1])
    history = TrainHistory()
    best_mae = np.inf
    best_state = None
    step = 0
    n = len(train_examples)
    with nn_ops.one_blas_thread():   # one OpenBLAS switch per call, not per attention
        for epoch in range(train_cfg.epochs):
            epoch_start = time.perf_counter()
            order = shuffle_rng.permutation(n)
            losses = []
            for b0 in range(0, n, train_cfg.batch_size):
                step_start = time.perf_counter()
                idx = order[b0:b0 + train_cfg.batch_size]
                x, target = _batch(train_examples, idx)
                for p in opt.params.values():
                    p.grad = None
                with T.record():
                    pred = model.forward(x, training=True)
                    loss = T.mse_loss(pred, target)
                    value = loss.item()
                    if not np.isfinite(value):
                        if log:
                            log(_step_row(epoch, step, value, time.perf_counter() - step_start))
                        raise NumericError(
                            f"non-finite loss {value} at epoch {epoch} step {step} "
                            f"(batch indices {idx.tolist()})")
                    T.backward(loss)
                opt.step()
                if log:
                    log(_step_row(epoch, step, value, time.perf_counter() - step_start,
                                  _grad_norm(opt.params)))
                losses.append(value)
                step += 1
            val_mae = None
            if val_examples:
                val_mae = evaluate(ModelPredictor(model), model_cfg, val_examples).mae
                if val_mae < best_mae:
                    best_mae = val_mae
                    best_state = {k: v.copy() for k, v in model.named_arrays().items()}
            row = {"epoch": epoch, "train_loss": float(np.mean(losses)), "val_mae": val_mae}
            history.epochs.append(row)
            if log:
                rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss   # KiB on Linux
                log({"kind": "epoch", **row, "seconds": time.perf_counter() - epoch_start,
                     "peak_rss_mb": rss_kib / 1024})
    if best_state is not None:
        model.load_arrays(best_state)
    return model, history
