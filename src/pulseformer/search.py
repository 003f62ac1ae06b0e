"""Greedy sequential adaptation over the preprocessing/architecture space.

Six phases are searched in a fixed order (spatial size, temporal size,
output format, frame format x signal normalisation, positional encoding,
scaling strategy); each phase keeps the configuration with the lowest
validation MAE and later phases build on it. Evaluations are memoised by
full configuration, and a candidate whose evaluation raises a
PulseformerError scores +inf, keeping the error's type and message, so the
sweep goes on; any other exception is a bug and propagates. Ties resolve to
the first candidate in declared order.
"""

from __future__ import annotations

import math
import time
from dataclasses import astuple, dataclass, field
from typing import Callable

from .errors import PulseformerError
from .model import ModelConfig, scaling_label


# the candidates of each phase, in the order ties resolve
SPATIAL = (256, 128, 64, 32)
TEMPORAL = (240, 120, 60, 30)
OUTPUTS = ("HR", "Signal")
FRAME_NORM = (("Raw", False), ("Raw", True), ("DiffNorm", False), ("DiffNorm", True))
POS_ENCODINGS = ("ABS", "REL", "CPE")
SCALINGS = (0, 1, 2, 3, 4, 5, 6)
# spatial candidates are probed with the temporal extent pinned here
PROBE_TEMPORAL = 120


@dataclass
class SearchStep:
    phase: str
    candidate: str
    config: ModelConfig
    mae: float
    selected: bool = False
    cached: bool = False
    seconds: float = 0.0   # evaluator wall time; 0 for a cached result
    error: str = ""        # "<type>: <message>" of the PulseformerError it raised


@dataclass
class SearchTrace:
    steps: list[SearchStep] = field(default_factory=list)
    final_config: ModelConfig | None = None
    evaluator_calls: int = 0

    def best_by_phase(self) -> list[tuple[str, float]]:
        out = []
        for phase in dict.fromkeys(s.phase for s in self.steps):
            sel = [s for s in self.steps if s.phase == phase and s.selected]
            out.append((phase, sel[0].mae))
        return out


def general_config(simple: bool) -> ModelConfig:
    """The majority-vote configuration; targets are normalised only in simple scenarios."""
    return ModelConfig(input_dims=(120, 64, 64), output_format="Signal",
                       frame_format="DiffNorm", signal_norm=bool(simple),
                       pos_encoding="REL", scaling=2).validate()


def greedy_adapt(evaluator: Callable[[ModelConfig], float],
                 start: ModelConfig = ModelConfig()) -> SearchTrace:
    """Run the six greedy phases, memoising evaluator calls by configuration.

    The search starts unadapted: ``start`` with rate output, raw frames, no
    target normalisation and no temporal scaling (its input dims are unused).
    """
    carried = start.copy(output_format="HR", frame_format="Raw", signal_norm=False, scaling=0)
    trace = SearchTrace()
    memo: dict[tuple, dict] = {}

    def score(cfg: ModelConfig) -> dict:
        """The SearchStep fields mae, error, and seconds or cached, of ``cfg``."""
        key = astuple(cfg)
        if key in memo:
            return dict(memo[key], cached=True)
        trace.evaluator_calls += 1
        error = ""
        t0 = time.perf_counter()
        try:
            mae = float(evaluator(cfg))
            if math.isnan(mae):
                mae = math.inf
        except PulseformerError as e:
            mae, error = math.inf, f"{type(e).__name__}: {e}"
        memo[key] = dict(mae=mae, error=error)
        return dict(memo[key], seconds=time.perf_counter() - t0)

    def run_phase(phase: str, candidates: list[tuple[str, ModelConfig]]) -> ModelConfig:
        steps = [SearchStep(phase=phase, candidate=label, config=cfg, **score(cfg))
                 for label, cfg in candidates]
        best = min(range(len(steps)), key=lambda i: (steps[i].mae, i))
        steps[best].selected = True
        trace.steps.extend(steps)
        return steps[best].config

    carried = run_phase("spatial", [
        (f"spatial={s}", carried.copy(input_dims=(PROBE_TEMPORAL, s, s))) for s in SPATIAL])
    hw = carried.input_dims[1:]
    carried = run_phase("temporal", [
        (f"temporal={t}", carried.copy(input_dims=(t,) + hw)) for t in TEMPORAL])
    carried = run_phase("output", [
        (f"output={o}", carried.copy(output_format=o)) for o in OUTPUTS])
    carried = run_phase("frame_norm", [
        (f"frame={f}{'+norm' if n else ''}", carried.copy(frame_format=f, signal_norm=n))
        for f, n in FRAME_NORM])
    carried = run_phase("pos_encoding", [
        (f"pos={p}", carried.copy(pos_encoding=p)) for p in POS_ENCODINGS])
    carried = run_phase("scaling", [
        (scaling_label(s), carried.copy(scaling=s)) for s in SCALINGS])

    trace.final_config = carried
    return trace
