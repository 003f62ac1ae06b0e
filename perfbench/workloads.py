"""The three benchmark workloads, driven through pulseformer's public API.

Each workload has a set-up (synthesise, window, build), a unit of timed
work that is repeated for the run's seconds, and correctness checks that run
outside the timed region. ``op`` is the work a user pays for once: a batch-1
training window, one evaluated window, or one full search. Each timed unit
is one op, and ``op_s`` is the median unit time.
"""

from __future__ import annotations

import csv
import io
import json
import math
import resource
import statistics
from contextlib import redirect_stdout
from pathlib import Path
from time import perf_counter

import numpy as np

from pulseformer import cli, model, preprocess, search, synth, training
from pulseformer.errors import PulseformerError
from tracer import Tracer

SETUP_MIN_REPS = 3
SETUP_MIN_SECONDS = 1.0
SEARCH_PHASES = ("spatial", "temporal", "output", "frame_norm", "pos_encoding", "scaling")
SEARCH_EVALUATOR_CALLS = 19


def general_windows(cfg: model.ModelConfig, fps: float, count: int, seed: int):
    """``count`` single-window clips of the configured size, one subject."""
    clips = synth.generate_dataset(synth.SIMPLE, 1, count, cfg.input_dims, fps, seed)
    return [w for lc in clips for w in preprocess.make_example(lc.clip, lc.trace, cfg)]


# ---------------------------------------------------------------------------
# correctness checks; each returns a list of problems, empty when correct
# ---------------------------------------------------------------------------

def check_losses(losses: list[float]) -> list[str]:
    """Every step's loss is finite and repeats of one seed agree bit for bit."""
    problems = []
    if not losses:
        problems.append("no training step completed")
    if any(not math.isfinite(v) for v in losses):
        problems.append(f"non-finite loss in {losses}")
    if len({float(v) for v in losses}) > 1:
        problems.append(f"loss differs between repeats of one seed: {losses}")
    return problems


def check_grads(grads: dict[str, np.ndarray | None]) -> list[str]:
    """Every parameter received a finite gradient."""
    problems = []
    missing = [k for k, g in grads.items() if g is None]
    bad = [k for k, g in grads.items() if g is not None and not np.isfinite(g).all()]
    if missing:
        problems.append(f"no gradient for {missing[:3]}")
    if bad:
        problems.append(f"non-finite gradient in {bad[:3]}")
    return problems


def check_predict(outputs: list[np.ndarray], t: int) -> list[str]:
    """Every prediction is a finite waveform of the window's length."""
    problems = []
    if not outputs:
        problems.append("no window was predicted")
    for y in outputs:
        if y.shape != (t,):
            problems.append(f"prediction shape {y.shape}, expected ({t},)")
        elif not np.isfinite(y).all():
            problems.append("non-finite prediction")
    return problems


def check_search(rc: int, stdout: str, trace_csv: Path) -> list[str]:
    """Exit 0, 19 evaluator calls, and a trace with six phases of one selection each."""
    problems = []
    if rc != 0:
        problems.append(f"search exited with {rc}")
    calls = [line for line in stdout.splitlines() if line.startswith("evaluator calls:")]
    if calls != [f"evaluator calls: {SEARCH_EVALUATOR_CALLS}"]:
        problems.append(f"expected {SEARCH_EVALUATOR_CALLS} evaluator calls, got {calls}")
    if not trace_csv.is_file():
        return problems + [f"no search trace at {trace_csv.name}"]
    with open(trace_csv, newline="") as f:
        rows = list(csv.DictReader(f))
    phases = list(dict.fromkeys(r["phase"] for r in rows))
    if phases != list(SEARCH_PHASES):
        problems.append(f"search phases {phases}")
    for phase in phases:
        chosen = sum(r["selected"] == "1" for r in rows if r["phase"] == phase)
        if chosen != 1:
            problems.append(f"phase {phase} selected {chosen} candidates")
    return problems


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class TrainGeneral:
    """``train_model`` on one window of the general config, batch 1, one epoch."""

    name = "train_general"
    min_units = 2   # the repeat is what the bit-identity check compares

    def __init__(self, seed: int, cfg: model.ModelConfig | None = None, fps: float = 30.0):
        self.seed = seed
        self.cfg = cfg or search.general_config(simple=True)
        self.fps = fps
        self.losses: list[float] = []
        self.problems_found: list[str] = []
        self._trained = None

    def setup(self) -> None:
        self.windows = general_windows(self.cfg, self.fps, 1, self.seed)

    def unit(self) -> int:
        tc = training.TrainConfig(batch_size=1, epochs=1, seed=self.seed)
        try:
            self._trained, history = training.train_model(self.cfg, tc, self.windows)
        except PulseformerError:
            return 1
        self.losses.append(history.epochs[0]["train_loss"])
        return 0

    def after_unit(self) -> None:
        trained, self._trained = self._trained, None
        if trained is not None:
            self.problems_found += check_grads(
                {k: p.grad for k, p in trained.parameters().items()})

    def problems(self) -> list[str]:
        return check_losses(self.losses) + self.problems_found


class _RecordingPredictor(training.ModelPredictor):
    """ModelPredictor that keeps each output for the untimed checks."""

    def __init__(self, m, sink: list):
        super().__init__(m)
        self.sink = sink

    def predict_example(self, ex):
        y = super().predict_example(ex)
        self.sink.append(y)
        return y


class PredictGeneral:
    """``evaluate`` of a seeded general-config model on fresh windows."""

    name = "predict_general"
    min_units = 1
    distinct_windows = 4

    def __init__(self, seed: int, cfg: model.ModelConfig | None = None, fps: float = 30.0):
        self.seed = seed
        self.cfg = cfg or search.general_config(simple=True)
        self.fps = fps
        self.outputs: list[np.ndarray] = []
        self._next = 0

    def setup(self) -> None:
        self.windows = general_windows(self.cfg, self.fps, self.distinct_windows, self.seed)
        self.model = model.MultiscaleVideoTransformer(self.cfg, seed=self.seed)

    def unit(self) -> int:
        window = self.windows[self._next % len(self.windows)]
        self._next += 1
        try:
            result = training.evaluate(_RecordingPredictor(self.model, self.outputs),
                                       self.cfg, [window])
        except PulseformerError:
            return 1
        return result.excluded_windows

    def after_unit(self) -> None:
        pass

    def problems(self) -> list[str]:
        return check_predict(self.outputs, self.cfg.input_dims[0])


class SearchSmall:
    """``pulseformer search`` over a generated ten-subject miniature dataset.

    The clips have 120 frames at 50 fps. Of the temporal candidates only the
    120-frame window both fits the clip and lasts the 2 s that HR estimation
    needs, so every seed takes the same path through the phases and trains
    the same candidates; at 15 fps the seed decides between 30-, 60- and
    120-frame paths whose run times differ by about 60 %.
    """

    name = "search_small"
    min_units = 1

    def __init__(self, seed: int, workdir: Path, max_tokens: int = 4000):
        self.seed = seed
        self.workdir = workdir
        self.max_tokens = max_tokens
        self.runs = 0
        self.found: list[str] = []

    def setup(self) -> None:
        data = self.workdir / "data"
        with redirect_stdout(io.StringIO()):
            rc = cli.main(["gen", "--preset", "simple", "--subjects", "10",
                           "--clips-per-subject", "1", "--dims", "120x16x16",
                           "--fps", "50", "--seed", str(self.seed), "--out", str(data)])
        if rc != 0:
            raise RuntimeError(f"dataset generation exited with {rc}")
        (self.workdir / "config.json").write_text(json.dumps(
            {"base_width": 8, "stage_depths": [1, 1, 1, 1], "epochs": 1,
             "seed": self.seed, "batch_size": 8}))

    def unit(self) -> int:
        self.runs += 1
        out = self.workdir / f"run{self.runs}"
        captured = io.StringIO()
        with redirect_stdout(captured):
            rc = cli.main(["search", "--data", str(self.workdir / "data"),
                           "--config", str(self.workdir / "config.json"),
                           "--out", str(out), "--max-tokens", str(self.max_tokens)])
        self._last = (rc, captured.getvalue(), out / "search_trace.csv")
        return int(rc != 0)

    def after_unit(self) -> None:
        self.found += check_search(*self._last)

    def problems(self) -> list[str]:
        return self.found


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def _setup_times(w) -> list[float]:
    times = []
    while len(times) < SETUP_MIN_REPS or sum(times) < SETUP_MIN_SECONDS:
        start = perf_counter()
        w.setup()
        times.append(perf_counter() - start)
    return times


def _run_units(w, seconds: float, min_units: int, after=None):
    """Repeat ``w.unit`` until one more would pass ``seconds`` (at least ``min_units``).

    Only ``w.unit`` is timed; checks and ``after`` run between units.
    Returns per-unit times and the number of failed ops.
    """
    times, failed = [], 0
    start = perf_counter()
    while True:
        t0 = perf_counter()
        failed += w.unit()
        times.append(perf_counter() - t0)
        w.after_unit()
        if after is not None:
            after()
        elapsed = perf_counter() - start
        if len(times) >= min_units and elapsed + statistics.median(times) > seconds:
            return times, failed


def measure(w, seconds: float, trace: bool) -> tuple[dict, list[str]]:
    """Run one workload; return the result object the benchmark prints and any problems."""
    if not trace:
        setups = _setup_times(w)
        times, failed = _run_units(w, seconds, w.min_units)
        metrics = {
            "op_s": (statistics.median(times), "s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        }
        units = len(times)
    else:
        # half the time untraced, half traced; their difference is the overhead
        tr = Tracer()
        with tr.patched("setup"):
            setups = _setup_times(w)
        plain, failed = _run_units(w, seconds / 2, max(1, w.min_units - 1))
        with tr.patched("op"):
            traced, failed_traced = _run_units(w, seconds / 2, 1, after=tr.sample_tape)
        failed += failed_traced
        units = len(plain) + len(traced)
        metrics = tr.per_layer_metrics(
            ops=len(traced), setups=len(setups), op_s=statistics.median(traced),
            untraced_op_s=statistics.median(plain))
    problems = w.problems()
    return {
        "correct": not problems,
        "attempted": units,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }, problems


def make(name: str, seed: int, workdir: Path):
    if name == "train_general":
        return TrainGeneral(seed)
    if name == "predict_general":
        return PredictGeneral(seed)
    if name == "search_small":
        return SearchSmall(seed, workdir)
    raise ValueError(f"unknown workload {name!r}")
