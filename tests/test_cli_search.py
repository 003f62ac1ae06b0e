"""End-to-end greedy search through the CLI on a miniature dataset.

Candidates above the token cap and windows too short for HR estimation
are expected to fail and score +inf without aborting the sweep. The shared
search runs on 120-frame clips at 50 fps, where only the 120-frame window
both fits a clip and lasts the 2 s HR estimation needs, so the same six
candidates fail on any seed.
"""

import csv
import json
import math

import pytest

from pulseformer import cli, fileio
from pulseformer.cli import main
from pulseformer.errors import ConfigurationError
from pulseformer.model import stage_grids
from pulseformer.search import greedy_adapt
from pulseformer.training import ModelPredictor, evaluate, split_dataset, train_model


@pytest.fixture(scope="module")
def search_run(tmp_path_factory):
    data = tmp_path_factory.mktemp("sdata") / "d"
    rc = main(["gen", "--preset", "simple", "--subjects", "10",
               "--clips-per-subject", "1", "--dims", "120x16x16",
               "--fps", "50", "--seed", "1", "--out", str(data)])
    assert rc == 0
    cfg = tmp_path_factory.mktemp("scfg") / "cfg.json"
    # the search ignores the split, and its config.json keeps it
    cfg.write_text(json.dumps({"base_width": 8, "stage_depths": [1, 1, 1, 1],
                               "epochs": 1, "seed": 0, "batch_size": 8,
                               "split_mode": "kfold", "fold": 2}))
    run = tmp_path_factory.mktemp("srun") / "r"
    rc = main(["search", "--data", str(data), "--config", str(cfg),
               "--out", str(run), "--max-tokens", "4000"])
    assert rc == 0
    return run


def test_search_writes_trace_csv(search_run):
    with open(search_run / "search_trace.csv") as f:
        rows = list(csv.DictReader(f))
    assert {r["phase"] for r in rows} == {"spatial", "temporal", "output",
                                          "frame_norm", "pos_encoding", "scaling"}
    sel = [r for r in rows if r["selected"] == "1"]
    assert len(sel) == 6


def test_search_trace_records_failures(search_run):
    with open(search_run / "search_trace.csv") as f:
        rows = list(csv.DictReader(f))
    failed = {r["candidate"]: r["error"].split(":")[0] for r in rows if r["error"]}
    assert failed == {"spatial=256": "ConfigurationError", "spatial=128": "ConfigurationError",
                      "spatial=64": "ConfigurationError", "temporal=240": "ConfigurationError",
                      "temporal=60": "EstimationError", "temporal=30": "EstimationError"}
    assert all(r["mae"] == "inf" for r in rows if r["error"])
    assert all("--max-tokens 4000" in r["error"] for r in rows
               if r["error"].startswith("ConfigurationError"))
    cached = [r for r in rows if r["cached"] == "1"]
    assert cached and all(float(r["seconds"]) == 0 for r in cached)
    assert all(float(r["seconds"]) >= 0 for r in rows)


def test_search_blocks_oversized_candidates(search_run):
    with open(search_run / "search_trace.csv") as f:
        rows = list(csv.DictReader(f))
    big = [r for r in rows if r["candidate"] in ("spatial=256", "spatial=128")]
    assert big and all(r["mae"] == "inf" for r in big)
    feasible = [r for r in rows if r["mae"] != "inf"]
    assert feasible, "at least some candidates must train"


def test_search_monotone_selected_mae(search_run):
    with open(search_run / "search_trace.csv") as f:
        rows = list(csv.DictReader(f))
    best = [float(r["mae"]) for r in rows if r["selected"] == "1"]
    finite = [b for b in best if math.isfinite(b)]
    assert all(b <= a + 1e-12 for a, b in zip(finite, finite[1:]))


def test_search_writes_final_config(search_run):
    doc = json.loads((search_run / "config.json").read_text())
    assert "scaling" in doc and "input_dims" in doc
    assert (doc["split_mode"], doc["fold"]) == ("kfold", 2)


def _gen(out, subjects):
    assert main(["gen", "--preset", "simple", "--subjects", str(subjects),
                 "--clips-per-subject", "1", "--dims", "120x16x16",
                 "--fps", "15", "--seed", "1", "--out", str(out)]) == 0


def test_search_reuses_windows(tmp_path, monkeypatch):
    """Windows are rebuilt only when a windowing field changes; the trace is the same."""
    data = tmp_path / "d"
    _gen(data, 10)
    cfg = tmp_path / "cfg.json"
    # stages without blocks keep the two searches cheap; windowing is what is counted
    cfg.write_text(json.dumps({"base_width": 8, "stage_depths": [0, 0, 0, 0],
                               "epochs": 1, "seed": 0, "batch_size": 8}))
    calls = []
    real = cli.make_example

    def counting(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(cli, "make_example", counting)
    run = tmp_path / "r"
    assert main(["search", "--data", str(data), "--config", str(cfg),
                 "--out", str(run), "--max-tokens", "4000"]) == 0
    cached_calls = len(calls)

    # the same search with every candidate windowed afresh
    model_cfg, train_cfg = cli._read_config(str(cfg))
    loaded, _ = cli._load_clips(str(data))
    train_subj, val_subj, _ = split_dataset(
        (entry["subject_id"] for entry, _, _ in loaded), "cross", train_cfg.seed)

    def evaluator(c):
        grid = stage_grids(c.validate())[0]
        if grid[0] * grid[1] * grid[2] > 4000:
            raise ConfigurationError("over the token cap")
        model, _ = train_model(c, train_cfg, cli._windows(loaded, c, train_subj))
        return evaluate(ModelPredictor(model), c, cli._windows(loaded, c, val_subj)).mae

    del calls[:]
    ref = greedy_adapt(evaluator, start=model_cfg)
    assert cached_calls < len(calls)
    ref_csv = tmp_path / "ref.csv"
    fileio.write_search_trace(ref_csv, ref)
    # seconds are never equal, and the two evaluators word the token cap apart
    same = ("phase", "candidate", "mae", "selected", "cached")
    with open(run / "search_trace.csv") as a, open(ref_csv) as b:
        got, want = ([[r[c] for c in same] for r in csv.DictReader(f)] for f in (a, b))
    assert got == want


def test_search_too_few_subjects_data_error(tmp_path, capsys):
    data = tmp_path / "d"
    _gen(data, 3)
    rc = main(["search", "--data", str(data), "--out", str(tmp_path / "r")])
    assert rc == 2
    assert "at least 10" in capsys.readouterr().err
