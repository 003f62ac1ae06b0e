"""Per-layer tracing of pulseformer, patched in from outside the package.

While ``Tracer.patched()`` is active, calls into each module's public
functions are wrapped in spans. A span records its name, duration and the
part of that duration its child spans cover, so every per-layer figure is a
self time: span minus children. Backward time per op comes from wrapping the
pull closures that ops hand to ``_record``; they are named by the function
that created them (``pull.__qualname__``). Spans stay in memory and are
summed into the per-layer metrics by ``per_layer_metrics``.

Nothing under ``src/`` is modified; leaving the context restores every
patched attribute.
"""

from __future__ import annotations

import functools
import math
import statistics
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

from pulseformer import cli, fileio, metrics, model, nn_ops, preprocess, synth, tensor, training

# Spans reported as ``<name>_s`` (self seconds per op) and ``<name>.calls``
# (calls per op). An attention span name carries its stage; the stage-free
# names below are the sums over all stages.
TIMED = (
    "nn_ops.attention_core.fwd",
    "nn_ops.attention_core.stage1.fwd",
    "nn_ops.attention_core.stage2.fwd",
    "nn_ops.attention_core.bwd",
    "nn_ops.attention_core.stage1.bwd",
    "nn_ops.attention_core.stage2.bwd",
    "nn_ops.conv3d.fwd",
    "nn_ops.conv3d.bwd",
    "nn_ops.depthwise_conv3d.fwd",
    "nn_ops.depthwise_conv3d.bwd",
    "nn_ops.batchnorm3d.fwd",
    "nn_ops.batchnorm3d.bwd",
    "nn_ops.layernorm.fwd",
    "nn_ops.layernorm.bwd",
    "tensor.gelu.fwd",
    "tensor.gelu.bwd",
    "tensor.linear.fwd",
    "tensor.linear.bwd",
    "tensor.other_ops.bwd",
    "model.forward",
    "model.build",
    "tensor.backward",
    "training.adamw_step",
    "training.train_model",
    "training.evaluate",
    "preprocess.make_example",
    "fileio.read",
    "metrics.hr_from_signal",
    "cli.main",
)

# Pull closures timed under their own name; every other op's pull is
# summed into tensor.other_ops.bwd.
NAMED_PULLS = {"attention_core", "conv3d", "depthwise_conv3d", "batchnorm3d",
               "layernorm", "gelu", "linear"}

# Set-up spans, reported as self seconds per set-up repetition.
SETUP = {
    "setup.synth_s": ("synth.generate",),
    "setup.preprocess_s": ("preprocess.make_example",),
    "setup.fileio_s": ("fileio.write",),
    "setup.model_s": ("model.build",),
}

# Metrics that are not spans: (name, unit, better).
OTHER = (
    ("nn_ops.attention_core.stage1.gflops", "GFLOP/s", "higher"),
    ("nn_ops.conv3d.gflops", "GFLOP/s", "higher"),
    ("model.forward_total_s", "s", "lower"),
    ("tensor.backward_total_s", "s", "lower"),
    ("tensor.tape_entries", "count", "lower"),
    ("tensor.tape_mb", "MiB", "lower"),
    ("training.excluded_windows", "count", "lower"),
    ("training.train_loss", "mse", "lower"),
    ("search.evaluator_calls", "count", "lower"),
    ("search.cache_hits", "count", "higher"),
    ("search.candidates_failed", "count", "lower"),
    ("search.candidate_s", "s", "lower"),
    ("search.best_mae_bpm", "bpm", "lower"),
    ("trace.op_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


def metric_specs() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better), in report order."""
    out = []
    for name in TIMED:
        out.append((f"{name}_s", "s", "lower"))
        out.append((f"{name}.calls", "count", "lower"))
    out.extend((name, "s", "lower") for name in SETUP)
    out.extend(OTHER)
    return out


def _arg(args, kwargs, index, key, default):
    if key in kwargs:
        return kwargs[key]
    return args[index] if len(args) > index else default


def _attention_flops(args, kwargs) -> float:
    """Two GEMMs of 2·L·L·d each per (batch, head); softmax not counted."""
    n, heads, ln, d = args[0].shape
    return 4.0 * n * heads * ln * ln * d


def _conv3d_flops(args, kwargs) -> float:
    """One multiply-add per kernel tap per output element."""
    x, w = args[0], args[1]
    stride = _arg(args, kwargs, 3, "stride", (1, 1, 1))
    pad = _arg(args, kwargs, 4, "pad", (0, 0, 0))
    out = 1
    for dim, k, s, p in zip(x.shape[2:], w.shape[2:], stride, pad):
        out *= (dim + 2 * p - k) // s + 1
    return 2.0 * x.shape[0] * w.shape[0] * math.prod(w.shape[1:]) * out


class Tracer:
    """In-memory spans and counters for one traced benchmark run."""

    def __init__(self):
        self.phase = "setup"
        self._stack: list[list] = []          # [name, start, child seconds]
        self.self_s = defaultdict(float)      # (phase, span) -> seconds
        self.total_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.flops = defaultdict(float)       # (phase, span) -> computed FLOPs
        self.samples = defaultdict(list)      # series name -> values
        self.counts = defaultdict(float)      # counter name -> value
        self._stage_of_tokens: dict[int, int] = {}

    # -- spans ----------------------------------------------------------------

    def _enter(self, name: str) -> None:
        self._stack.append([name, perf_counter(), 0.0])

    def _exit(self) -> float:
        name, start, child = self._stack.pop()
        dur = perf_counter() - start
        if self._stack:
            self._stack[-1][2] += dur
        key = (self.phase, name)
        self.total_s[key] += dur
        self.self_s[key] += dur - child
        self.calls[key] += 1
        return dur

    def _stage(self, tokens: int) -> str:
        stage = self._stage_of_tokens.get(tokens)
        return f"stage{stage}" if stage else "stage_other"

    def _wrap(self, name, fn, flops=None, after=None):
        """Time ``fn`` as span ``name`` (a string, or a function of the call's args)."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = name(args) if callable(name) else name
            tracer._enter(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._exit()
            if flops is not None:
                tracer.flops[(tracer.phase, span)] += flops(args, kwargs)
            if after is not None:
                after(out)
            return out

        return wrapper

    def _wrap_record(self, module: str, record):
        tracer = self

        def traced_record(out, pull):
            op = pull.__qualname__.split(".")[0]
            if op == "attention_core":
                span = f"nn_ops.attention_core.{tracer._stage(out.shape[2])}.bwd"
            elif op in NAMED_PULLS:
                span = f"{module}.{op}.bwd"
            else:
                span = "tensor.other_ops.bwd"

            def timed_pull(g):
                tracer._enter(span)
                try:
                    pull(g)
                finally:
                    tracer._exit()

            record(out, timed_pull)

        return traced_record

    # -- patch set --------------------------------------------------------------

    def _patches(self):
        """(owner, attribute, replacement) for every traced entry point."""
        t = self
        orig_forward = model.MultiscaleVideoTransformer.forward
        orig_init = model.MultiscaleVideoTransformer.__init__
        orig_backward = tensor.backward
        orig_greedy = cli.greedy_adapt

        def forward(self_model, *args, **kwargs):
            t._stage_of_tokens = {math.prod(g): i + 1
                                  for i, g in enumerate(model.stage_grids(self_model.cfg))}
            return orig_forward(self_model, *args, **kwargs)

        def backward(loss):
            t.sample_tape()
            return orig_backward(loss)

        def record_train(result):
            t.samples["training.train_loss"].append(result[1].epochs[-1]["train_loss"])

        def record_eval(result):
            t.counts["training.excluded_windows"] += result.excluded_windows

        def greedy_adapt(evaluator, *args, **kwargs):
            def timed_evaluator(cfg):
                t._enter("search.candidate")
                try:
                    return evaluator(cfg)
                finally:
                    t.samples["search.candidate_s"].append(t._exit())

            trace = orig_greedy(timed_evaluator, *args, **kwargs)
            t.counts["search.evaluator_calls"] += trace.evaluator_calls
            t.counts["search.cache_hits"] += sum(s.cached for s in trace.steps)
            t.counts["search.candidates_failed"] += sum(
                not s.cached and not math.isfinite(s.mae) for s in trace.steps)
            best = trace.best_by_phase()[-1][1]
            if math.isfinite(best):   # inf when every candidate failed
                t.samples["search.best_mae_bpm"].append(best)
            return trace

        attention = t._wrap(lambda a: f"nn_ops.attention_core.{t._stage(a[0].shape[2])}.fwd",
                            nn_ops.attention_core, flops=_attention_flops)
        train = t._wrap("training.train_model", training.train_model, after=record_train)
        evaluate = t._wrap("training.evaluate", training.evaluate, after=record_eval)
        make_example = t._wrap("preprocess.make_example", preprocess.make_example)
        hr = t._wrap("metrics.hr_from_signal", metrics.hr_from_signal)
        generate = t._wrap("synth.generate", synth.generate_dataset)
        return [
            (nn_ops, "attention_core", attention),
            (nn_ops, "conv3d", t._wrap("nn_ops.conv3d.fwd", nn_ops.conv3d, flops=_conv3d_flops)),
            (nn_ops, "depthwise_conv3d", t._wrap("nn_ops.depthwise_conv3d.fwd",
                                                 nn_ops.depthwise_conv3d)),
            (nn_ops, "batchnorm3d", t._wrap("nn_ops.batchnorm3d.fwd", nn_ops.batchnorm3d)),
            (nn_ops, "layernorm", t._wrap("nn_ops.layernorm.fwd", nn_ops.layernorm)),
            (nn_ops, "_record", t._wrap_record("nn_ops", nn_ops._record)),
            (tensor, "_record", t._wrap_record("tensor", tensor._record)),
            (tensor, "gelu", t._wrap("tensor.gelu.fwd", tensor.gelu)),
            (tensor, "linear", t._wrap("tensor.linear.fwd", tensor.linear)),
            (tensor, "backward", t._wrap("tensor.backward", backward)),
            (model.MultiscaleVideoTransformer, "forward", t._wrap("model.forward", forward)),
            (model.MultiscaleVideoTransformer, "__init__", t._wrap("model.build", orig_init)),
            (training.AdamW, "step", t._wrap("training.adamw_step", training.AdamW.step)),
            (training, "train_model", train),
            (training, "evaluate", evaluate),
            (training, "hr_from_signal", hr),
            (metrics, "hr_from_signal", hr),
            (preprocess, "make_example", make_example),
            (synth, "generate_dataset", generate),
            (fileio, "read_manifest", t._wrap("fileio.read", fileio.read_manifest)),
            (fileio, "read_clip", t._wrap("fileio.read", fileio.read_clip)),
            (fileio, "read_trace", t._wrap("fileio.read", fileio.read_trace)),
            (fileio, "write_manifest", t._wrap("fileio.write", fileio.write_manifest)),
            (fileio, "write_clip", t._wrap("fileio.write", fileio.write_clip)),
            (fileio, "write_trace", t._wrap("fileio.write", fileio.write_trace)),
            (cli, "main", t._wrap("cli.main", cli.main)),
            (cli, "make_example", make_example),
            (cli, "evaluate", evaluate),
            (cli, "train_model", train),
            (cli, "generate_dataset", generate),
            (cli, "greedy_adapt", greedy_adapt),
        ]

    @contextmanager
    def patched(self, phase: str):
        """Trace every call made inside the block, attributed to ``phase``."""
        self.phase = phase
        patches = self._patches()
        saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
        try:
            for owner, attr, new in patches:
                setattr(owner, attr, new)
            yield self
        finally:
            for owner, attr, old in saved:
                setattr(owner, attr, old)

    def sample_tape(self) -> None:
        """Entries and output bytes the tape holds right now.

        Sampled at the start of each backward, and after each op, where
        anything left was recorded without a backward.
        """
        outs = {id(out): out.data.nbytes for out, _ in tensor._tape}
        self.samples["tensor.tape_entries"].append(len(tensor._tape))
        self.samples["tensor.tape_mb"].append(sum(outs.values()) / 2**20)

    # -- report -------------------------------------------------------------------

    def _sum(self, table, phase: str, span: str) -> float:
        if span.startswith("nn_ops.attention_core.") and span.count(".") == 2:
            # stage-free name: sum over every stage's span
            kind = span.rsplit(".", 1)[1]
            return sum(v for (p, s), v in table.items()
                       if p == phase and s.startswith("nn_ops.attention_core.")
                       and s.endswith("." + kind))
        return table.get((phase, span), 0)

    def per_layer_metrics(self, ops: int, setups: int, op_s: float,
                          untraced_op_s: float) -> dict[str, tuple[float, str]]:
        """Per-layer figures; span times and counts are per op (see README)."""
        out: dict[str, tuple[float, str]] = {}
        for name in TIMED:
            out[f"{name}_s"] = (self._sum(self.self_s, "op", name) / ops, "s")
            out[f"{name}.calls"] = (self._sum(self.calls, "op", name) / ops, "count")
        for metric, spans in SETUP.items():
            out[metric] = (sum(self.self_s.get(("setup", s), 0.0) for s in spans) / setups, "s")

        def gflops(span):
            secs = self.self_s.get(("op", span), 0.0)
            return self.flops[("op", span)] / secs / 1e9 if secs > 0 else 0.0

        def median(series):
            values = self.samples.get(series)
            return statistics.median(values) if values else 0.0

        def largest(series):
            return max(self.samples.get(series) or [0.0])

        out["nn_ops.attention_core.stage1.gflops"] = (
            gflops("nn_ops.attention_core.stage1.fwd"), "GFLOP/s")
        out["nn_ops.conv3d.gflops"] = (gflops("nn_ops.conv3d.fwd"), "GFLOP/s")
        out["model.forward_total_s"] = (self.total_s.get(("op", "model.forward"), 0.0) / ops, "s")
        out["tensor.backward_total_s"] = (
            self.total_s.get(("op", "tensor.backward"), 0.0) / ops, "s")
        out["tensor.tape_entries"] = (largest("tensor.tape_entries"), "count")
        out["tensor.tape_mb"] = (largest("tensor.tape_mb"), "MiB")
        out["training.excluded_windows"] = (self.counts["training.excluded_windows"] / ops, "count")
        losses = self.samples.get("training.train_loss")
        out["training.train_loss"] = (statistics.fmean(losses) if losses else 0.0, "mse")
        for name in ("evaluator_calls", "cache_hits", "candidates_failed"):
            out[f"search.{name}"] = (self.counts[f"search.{name}"] / ops, "count")
        out["search.candidate_s"] = (median("search.candidate_s"), "s")
        out["search.best_mae_bpm"] = (median("search.best_mae_bpm"), "bpm")
        out["trace.op_s"] = (op_s, "s")
        out["trace.overhead_s"] = (op_s - untraced_op_s, "s")
        return out
