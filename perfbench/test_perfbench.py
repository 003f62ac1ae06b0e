"""Self-test of the benchmark harness at toy size.

    python3 -m pytest perfbench -q

Runs every workload on the 8x32x32 width-4 configuration of
``model_grad_check`` (the search with a token cap that rejects every
candidate), checks that each metric of BENCHMARK.json is emitted with its
unit, and that corrupted outputs trip the correctness checks.
"""

import csv
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import workloads  # noqa: E402
from pulseformer import tensor  # noqa: E402
from pulseformer.model import ModelConfig  # noqa: E402

TOY = ModelConfig(input_dims=(8, 32, 32), base_width=4, stage_depths=(1, 1, 1, 1),
                  heads_per_stage=(1, 2, 4, 4), scaling=0, output_format="Signal")
TOY_FPS = 4.0   # 8 frames must last the 2 s that HR estimation needs
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def toy(name, tmp_path):
    if name == "train_general":
        return workloads.TrainGeneral(3, cfg=TOY, fps=TOY_FPS)
    if name == "predict_general":
        return workloads.PredictGeneral(3, cfg=TOY, fps=TOY_FPS)
    return workloads.SearchSmall(3, tmp_path, max_tokens=1)


def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", run.WORKLOADS)
def test_every_metric_emitted_with_unit(name, trace, tmp_path):
    result, problems = workloads.measure(toy(name, tmp_path), seconds=0.0, trace=trace)
    assert problems == []
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in listed}
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
        return
    values = {k: m["value"] for k, m in result["metrics"].items()}
    if name == "train_general":
        assert values["tensor.tape_entries"] > 0
        assert values["tensor.backward.calls"] == 1
        assert values["nn_ops.attention_core.stage1.bwd.calls"] == 1
        assert values["training.adamw_step.calls"] == 1
    if name == "predict_general":
        assert values["tensor.tape_entries"] == 0
        assert values["tensor.backward_s"] == 0
        assert values["model.forward.calls"] == 1
        assert values["nn_ops.attention_core.stage1.fwd.calls"] == 1
        assert values["nn_ops.attention_core.stage1.gflops"] > 0
    if name == "search_small":
        assert values["search.evaluator_calls"] == 19
        assert values["search.candidates_failed"] == 19
        assert values["cli.main.calls"] == 1
        assert values["setup.synth_s"] > 0 and values["setup.fileio_s"] > 0


def test_tracing_restores_every_patched_attribute():
    from tracer import Tracer

    tr = Tracer()
    before = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in tr._patches()]
    original = tensor._record
    with tr.patched("op"):
        assert tensor._record is not original
    assert all(owner.__dict__[attr] is old for owner, attr, old in before)


def test_corrupted_training_trips_checks():
    assert workloads.check_losses([0.9, 0.9]) == []
    assert workloads.check_losses([0.9, float("nan")])
    assert workloads.check_losses([0.9, float(np.nextafter(0.9, 1.0))])
    assert workloads.check_losses([])
    assert workloads.check_grads({"w": np.ones(3)}) == []
    assert workloads.check_grads({"w": None})
    assert workloads.check_grads({"w": np.array([1.0, np.inf])})


def test_corrupted_prediction_trips_checks():
    assert workloads.check_predict([np.zeros(8)], 8) == []
    assert workloads.check_predict([np.full(8, np.nan)], 8)
    assert workloads.check_predict([np.zeros(7)], 8)
    assert workloads.check_predict([], 8)


def test_nan_model_output_makes_run_incorrect(monkeypatch):
    w = workloads.PredictGeneral(3, cfg=TOY, fps=TOY_FPS)
    monkeypatch.setattr(workloads.training.ModelPredictor, "predict_example",
                        lambda self, ex: np.full(ex.trace_window.shape, np.nan))
    result, problems = workloads.measure(w, seconds=0.0, trace=False)
    assert result["correct"] is False
    assert "non-finite prediction" in problems


def test_corrupted_search_trips_checks(tmp_path):
    w = toy("search_small", tmp_path)
    w.setup()
    w.unit()
    rc, stdout, trace_csv = w._last
    assert workloads.check_search(rc, stdout, trace_csv) == []
    assert workloads.check_search(1, stdout, trace_csv)
    assert workloads.check_search(rc, stdout.replace("calls: 19", "calls: 18"), trace_csv)
    assert workloads.check_search(rc, stdout, tmp_path / "missing.csv")
    with open(trace_csv, newline="") as f:
        rows = list(csv.DictReader(f))
    for r in rows:
        if r["phase"] == "scaling":
            r["selected"] = "0"
    broken = tmp_path / "broken.csv"
    with open(broken, "w", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    assert workloads.check_search(rc, stdout, broken)


def test_fails_without_the_program(tmp_path):
    """Given only BENCHMARK.json and perfbench/, the run exits non-zero with no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "train_general",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
