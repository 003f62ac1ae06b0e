"""Optimiser, split, training-loop, and evaluation tests."""

import contextlib
import json
import sys
import threading

import numpy as np
import pytest

from pulseformer import metrics, nn_ops, tensor as T, training
from pulseformer.errors import DimensionError, EstimationError, InputError, NumericError
from pulseformer.fileio import write_result
from pulseformer.metrics import hr_from_signal, integrate_diff
from pulseformer.model import ModelConfig, MultiscaleVideoTransformer
from pulseformer.preprocess import WindowExample, make_example
from pulseformer.synth import SIMPLE, generate_dataset
from pulseformer.tensor import Tensor
from pulseformer.training import (AdamW, ModelPredictor, PerfectStub, TrainConfig,
                                  adamw_update, evaluate, split_dataset, train_model)

TINY_CFG = ModelConfig(input_dims=(60, 32, 32), output_format="Signal",
                       frame_format="DiffNorm", signal_norm=True,
                       pos_encoding="REL", scaling=2, base_width=8,
                       stage_depths=(1, 1, 1, 1))


class ConstantStub:
    """Returns one constant rate, or a constant waveform."""

    def __init__(self, value: float):
        self.value = float(value)

    def predict_example(self, ex):
        if ex.target.ndim == 0:
            return np.asarray(self.value)
        return np.full_like(ex.trace_window, self.value)


class LabelOffsetStub:
    """HR-output stub returning the label rate plus a fixed offset."""

    def __init__(self, offset: float):
        self.offset = float(offset)

    def predict_example(self, ex):
        return np.asarray(hr_from_signal(ex.trace_window, ex.fps) + self.offset)


def reference_adamw(p, g_seq, lr, b1=0.9, b2=0.999, eps=1e-8, wd=0.0):
    """Textbook re-implementation used as the oracle."""
    p = p.copy()
    m = np.zeros_like(p)
    v = np.zeros_like(p)
    for t, g in enumerate(g_seq, start=1):
        p = p - lr * wd * p
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        mhat = m / (1 - b1 ** t)
        vhat = v / (1 - b2 ** t)
        p = p - lr * mhat / (np.sqrt(vhat) + eps)
    return p


class TestAdamW:
    def test_zero_gradient_pure_decay(self):
        p = np.array([1.0])
        m = np.zeros(1)
        v = np.zeros(1)
        adamw_update(p, np.zeros(1), m, v, t=1, lr=0.01, weight_decay=0.1)
        np.testing.assert_allclose(p, [0.999], rtol=1e-15)
        assert m[0] == 0.0 and v[0] == 0.0

    def test_single_step_closed_form(self):
        p = np.array([1.0])
        m = np.zeros(1)
        v = np.zeros(1)
        lr, eps = 0.01, 1e-8
        adamw_update(p, np.ones(1), m, v, t=1, lr=lr, weight_decay=0.0)
        np.testing.assert_allclose(p, [1.0 - lr * 1.0 / (1.0 + eps)], rtol=1e-15)

    def test_two_steps_match_reference(self):
        rng = np.random.default_rng(0)
        p0 = rng.standard_normal(5)
        g = [rng.standard_normal(5), rng.standard_normal(5)]
        p = p0.copy()
        m = np.zeros(5)
        v = np.zeros(5)
        for t, gt_ in enumerate(g, start=1):
            adamw_update(p, gt_, m, v, t=t, lr=0.05, weight_decay=0.02)
        np.testing.assert_allclose(p, reference_adamw(p0, g, lr=0.05, wd=0.02),
                                   atol=1e-12)

    def test_optimizer_skips_gradless_params(self):
        params = {"a": Tensor(np.ones(2), requires_grad=True),
                  "b": Tensor(np.ones(2), requires_grad=True)}
        params["a"].grad = np.full(2, 0.5)
        opt = AdamW(params, lr=0.1)
        opt.step()
        assert not np.array_equal(params["a"].data, np.ones(2))
        np.testing.assert_array_equal(params["b"].data, np.ones(2))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_step_keeps_the_build_dtype(self, dtype):
        """Params, grads and moments all stay in the dtype the model was built in."""
        cfg = ModelConfig(input_dims=(8, 32, 32), base_width=4, stage_depths=(1, 1, 1, 1),
                          heads_per_stage=(1, 2, 4, 4), scaling=0)
        rng = np.random.default_rng(0)
        with T.float64() if dtype is np.float64 else contextlib.nullcontext():
            model = MultiscaleVideoTransformer(cfg, seed=0)
            opt = AdamW(model.parameters(), lr=1e-3)
            x = Tensor(rng.standard_normal((1, 3, 8, 32, 32)))
            target = Tensor(rng.standard_normal((1, 8)))
            with T.record():
                T.backward(T.mse_loss(model.forward(x, training=True), target))
            opt.step()
        arrays = [a for p in model.parameters().values() for a in (p.data, p.grad)]
        arrays += list(opt.m.values()) + list(opt.v.values())
        assert {a.dtype for a in arrays} == {np.dtype(dtype)}


class TestSplits:
    def test_intra_sizes_10(self):
        train, val, test = split_dataset([f"s{i}" for i in range(10)], "intra", seed=0)
        assert (len(train), len(val), len(test)) == (7, 1, 2)

    def test_cross_sizes_10(self):
        train, val, test = split_dataset([f"s{i}" for i in range(10)], "cross", seed=0)
        assert (len(train), len(val), test) == (8, 2, set())

    def test_kfold_balanced_7(self):
        ids = [f"s{i}" for i in range(7)]
        tests = []
        for fold in range(3):
            train, val, test = split_dataset(ids, "kfold", seed=1, fold=fold)
            assert val == set() and train | test == set(ids) and not train & test
            tests.append(test)
        assert sorted(len(t) for t in tests) == [2, 2, 3]
        assert set().union(*tests) == set(ids)

    def test_partitions_disjoint_exhaustive(self):
        ids = [f"s{i}" for i in range(23)]
        for mode in ("intra", "cross", "kfold"):
            parts = split_dataset(ids, mode, seed=3)
            seen = [i for part in parts for i in part]
            assert sorted(seen) == sorted(ids)
            assert len(set(seen)) == len(seen)

    def test_deterministic_under_seed(self):
        ids = [f"s{i}" for i in range(12)]
        a = split_dataset(ids, "intra", seed=5)
        assert a == split_dataset(ids, "intra", seed=5)
        assert a == split_dataset(ids[::-1] + ids[:3], "intra", seed=5)   # order, repeats
        assert a != split_dataset(ids, "intra", seed=6)

    def test_too_few_ids_rejected(self):
        with pytest.raises(InputError, match="at least 10"):
            split_dataset(["a", "b"], "intra", seed=0)
        with pytest.raises(InputError, match="at least 3"):
            split_dataset(["a", "b"], "kfold", seed=0)
        with pytest.raises(InputError, match="at least 10"):
            split_dataset(["a"] * 10, "cross", seed=0)   # ten entries, one subject

    @pytest.mark.parametrize("fold", [-1, 3])
    def test_fold_out_of_range_rejected(self, fold):
        with pytest.raises(InputError, match="out of range for 3-fold"):
            split_dataset([f"s{i}" for i in range(7)], "kfold", seed=0, fold=fold)


def _hr_example(hr, t=120, fps=30.0):
    ts = np.arange(t) / fps
    trace = np.sin(2 * np.pi * (hr / 60.0) * ts)
    return WindowExample(x=np.zeros((3, 4, 4, 4)), target=np.asarray(hr),
                         trace_window=trace, fps=fps, clip_id=f"hr{hr}")


class TestEvaluate:
    def _signal_examples(self, cfg, n=3, seed=0):
        data = generate_dataset(SIMPLE, n, 1, (60, 32, 32), 30.0, seed=seed)
        out = []
        for lc in data:
            exs = make_example(lc.clip, lc.trace, cfg)
            for ex in exs:
                ex.clip_id = lc.clip_id
            out.extend(exs)
        return out

    def test_perfect_stub_zero_mae(self):
        examples = self._signal_examples(TINY_CFG)
        res = evaluate(PerfectStub(TINY_CFG), TINY_CFG, examples)
        assert res.mae <= 1e-9
        assert res.excluded_windows == 0

    def test_constant_stub_excluded_windows(self):
        examples = self._signal_examples(TINY_CFG)
        with pytest.raises(InputError):
            evaluate(ConstantStub(0.0), TINY_CFG, examples)

    def test_constant_hr_stub_mae_matches_hand_value(self):
        cfg = TINY_CFG.copy(output_format="HR")
        examples = [_hr_example(60.0), _hr_example(90.0), _hr_example(120.0)]
        res = evaluate(ConstantStub(90.0), cfg, examples)
        labels = [hr_from_signal(e.trace_window, 30.0) for e in examples]
        expect = np.mean([abs(90.0 - l) for l in labels])
        assert abs(res.mae - expect) <= 1e-9

    def test_excluded_window_kept_with_its_message(self, tmp_path):
        """One flat predicted waveform is excluded by id and message, and written out."""
        examples = self._signal_examples(TINY_CFG)
        flat = examples[1]

        class FlatOnOne(PerfectStub):
            def predict_example(self, ex):
                return np.zeros_like(ex.trace_window) if ex is flat else super().predict_example(ex)

        with pytest.raises(EstimationError) as err:
            hr_from_signal(np.zeros_like(flat.trace_window), flat.fps)
        res = evaluate(FlatOnOne(TINY_CFG), TINY_CFG, examples)
        wid = f"{flat.clip_id}#{flat.window_index}"
        assert res.excluded == [(wid, str(err.value))]
        assert res.excluded_windows == 1 and len(res.pairs) == len(examples) - 1
        write_result(tmp_path, res)
        doc = json.loads((tmp_path / "metrics.json").read_text())
        assert doc["excluded_windows"] == 1
        assert doc["excluded"] == [{"window": wid, "error": str(err.value)}]

    def test_non_finite_hr_never_scores(self):
        cfg = TINY_CFG.copy(output_format="HR")
        examples = [_hr_example(60.0), _hr_example(90.0)]
        with pytest.raises(InputError, match="all 2 windows"):
            evaluate(ConstantStub(np.nan), cfg, examples)

    def test_predictor_bug_propagates(self):
        class BuggyPredictor:
            def predict_example(self, ex):
                raise TypeError("bug in predictor")

        cfg = TINY_CFG.copy(output_format="HR")
        with pytest.raises(TypeError, match="bug in predictor"):
            evaluate(BuggyPredictor(), cfg, [_hr_example(60.0)])

    def test_label_offset_stub(self):
        cfg = TINY_CFG.copy(output_format="HR")
        examples = [_hr_example(h) for h in (60.0, 80.0, 100.0)]
        res = evaluate(LabelOffsetStub(3.0), cfg, examples)
        assert abs(res.mae - 3.0) <= 1e-9
        assert abs(res.rmse - 3.0) <= 1e-9
        assert res.pearson == pytest.approx(1.0)

    def test_empty_set_rejected(self):
        with pytest.raises(InputError):
            evaluate(PerfectStub(TINY_CFG), TINY_CFG, [])

    @pytest.mark.parametrize("cfg, integrated", [
        (TINY_CFG, True), (TINY_CFG.copy(frame_format="Raw"), False),
        (TINY_CFG.copy(output_format="HR"), False)], ids=["diffnorm_signal", "raw_signal", "hr"])
    def test_model_predictor_integrates_only_difference_signals(self, cfg, integrated):
        model = MultiscaleVideoTransformer(cfg, seed=0)
        ex = window_examples(cfg, 1, seed=9)[0]
        y = model.predict(ex.x)
        if integrated:
            y = integrate_diff(y)
        np.testing.assert_array_equal(ModelPredictor(model).predict_example(ex), y)


@pytest.mark.parametrize("output_format", ["HR", "Signal"])
def test_hr_estimates_go_through_patched_names(monkeypatch, output_format):
    """make_example and evaluate call the estimator through a patchable name.

    perfbench's tracer times it by patching ``metrics.hr_from_signal``, which
    make_example looks up at call time, and ``training.hr_from_signal``; a
    name bound at import anywhere else would escape it.
    """
    calls = []
    real = metrics.hr_from_signal

    def counting(samples, fps):
        calls.append(fps)
        return real(samples, fps)

    monkeypatch.setattr(metrics, "hr_from_signal", counting)
    monkeypatch.setattr(training, "hr_from_signal", counting)
    cfg = TINY_CFG.copy(output_format=output_format)
    examples = window_examples(cfg, 2, seed=0)
    assert len(calls) == (len(examples) if output_format == "HR" else 0)
    calls.clear()
    evaluate(PerfectStub(cfg), cfg, examples)
    assert len(calls) == 2 * len(examples)   # the label's rate and the stub's


def window_examples(cfg, subjects, seed):
    """The windows of one synthetic 60x32x32 clip per subject."""
    data = generate_dataset(SIMPLE, subjects, 1, (60, 32, 32), 30.0, seed=seed)
    out = []
    for lc in data:
        exs = make_example(lc.clip, lc.trace, cfg)
        for ex in exs:
            ex.clip_id = lc.clip_id
        out.extend(exs)
    return out


class TestTrainModel:
    def test_loss_decreases_on_overfit_run(self):
        cfg = TINY_CFG.copy(base_width=8)
        train = window_examples(cfg, 8, seed=0)
        tcfg = TrainConfig(epochs=13, seed=0)   # 13 epochs x 2 batches = 26 steps
        model, hist = train_model(cfg, tcfg, train)
        losses = [row["train_loss"] for row in hist.epochs]
        assert losses[-1] < 0.5 * losses[0]
        assert all(np.isfinite(l) for l in losses)

    def test_empty_val_best_epoch_is_last(self, monkeypatch):
        """With no validation set the last epoch's parameters are kept: none is loaded back."""
        loaded = []
        monkeypatch.setattr(MultiscaleVideoTransformer, "load_arrays",
                            lambda self, arrays: loaded.append(arrays))
        cfg = TINY_CFG.copy(base_width=8)
        train = window_examples(cfg, 4, seed=1)
        tcfg = TrainConfig(epochs=2, seed=0)
        _, hist = train_model(cfg, tcfg, train)
        assert len(hist.epochs) == 2
        assert loaded == []

    def test_same_seed_bit_identical_history(self):
        cfg = TINY_CFG.copy(base_width=8)
        train = window_examples(cfg, 4, seed=2)
        tcfg = TrainConfig(epochs=2, seed=0)
        _, h1 = train_model(cfg, tcfg, train)
        _, h2 = train_model(cfg, tcfg, train)
        assert h1.epochs == h2.epochs

    def test_same_bits_at_any_worker_count(self, monkeypatch):
        """Batches of 2 run conv3d and attention on 1, 2 and 3 workers alike."""
        train = window_examples(TINY_CFG, 4, seed=6)
        runs = []
        for workers in (1, 2, 3):
            monkeypatch.setattr(nn_ops, "_workers", lambda: workers)
            model, hist = train_model(TINY_CFG, TrainConfig(epochs=2, batch_size=2, seed=0),
                                      train)
            runs.append((hist.epochs, {k: a.tobytes() for k, a in model.named_arrays().items()}))
        assert runs[1] == runs[0] and runs[2] == runs[0]

    @pytest.mark.parametrize("batch_size", [1, 2])
    def test_training_leaves_window_inputs_unchanged(self, batch_size):
        """A batch of one trains on a view of its window's ``x``: no step may write to it."""
        train = window_examples(TINY_CFG, 3, seed=3)
        before = [ex.x.tobytes() for ex in train]
        train_model(TINY_CFG, TrainConfig(epochs=1, batch_size=batch_size, seed=0), train)
        assert [ex.x.tobytes() for ex in train] == before

    def test_two_threads_train_as_one_at_a_time(self):
        """Each thread records on its own tape: two models trained at once match solo runs."""
        train = window_examples(TINY_CFG, 4, seed=6)

        def run(seed):
            model, hist = train_model(TINY_CFG, TrainConfig(epochs=2, batch_size=2, seed=seed),
                                      train)
            return hist.epochs, {k: a.tobytes() for k, a in model.named_arrays().items()}

        alone = [run(0), run(1)]
        together = [None, None]
        threads = [threading.Thread(target=lambda i=i: together.__setitem__(i, run(i)))
                   for i in (0, 1)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(300)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert together == alone

    def test_step_forward_starts_without_gradients(self, monkeypatch):
        """The previous step's gradients are dropped before the next step's forward."""
        held = []
        forward = MultiscaleVideoTransformer.forward

        def watched(self, x, training=False):
            held.append(any(p.grad is not None for p in self.parameters().values()))
            return forward(self, x, training=training)

        monkeypatch.setattr(MultiscaleVideoTransformer, "forward", watched)
        train_model(TINY_CFG, TrainConfig(epochs=2, batch_size=1, seed=0),
                    window_examples(TINY_CFG, 1, seed=3))
        assert held == [False, False]

    def test_empty_train_set_rejected(self):
        with pytest.raises(InputError):
            train_model(TINY_CFG, TrainConfig(), [])

    @pytest.mark.parametrize("field, value", [
        ("batch_size", 1.5), ("epochs", 2.0), ("seed", 1.5), ("fold", "0")])
    def test_non_integer_counts_rejected(self, field, value):
        """A library caller's non-integer count raises InputError, not a TypeError mid-run."""
        tcfg = TrainConfig(**{"epochs": 1, field: value})
        with pytest.raises(InputError, match=f"{field} .* must be an integer"):
            train_model(TINY_CFG, tcfg, window_examples(TINY_CFG, 1, seed=3))

    def test_non_finite_loss_diagnostic(self):
        cfg = TINY_CFG.copy(base_width=8)
        train = window_examples(cfg, 4, seed=3)
        for ex in train:
            ex.target = ex.target * np.inf
        rows = []
        with pytest.raises(NumericError, match="epoch 0 step 0"):
            train_model(cfg, TrainConfig(epochs=1, seed=0), train, log=rows.append)
        assert [(r["kind"], r["step"], r["grad_norm"], r["nonfinite"]) for r in rows] == [
            ("step", 0, None, True)]

    def test_forward_error_leaves_tape_empty(self, monkeypatch):
        """A forward that raises after recording ops leaves nothing on the tape."""
        recorded = []

        def fail(*args, **kw):
            recorded.append(len(T._tape))
            raise DimensionError("attention rejected its input")

        cfg = TINY_CFG.copy(base_width=8)
        train = window_examples(cfg, 4, seed=3)
        monkeypatch.setattr(nn_ops, "attention", fail)
        with pytest.raises(DimensionError, match="stage1.block0"):
            train_model(cfg, TrainConfig(epochs=1, seed=0), train)
        assert recorded[0] > 0
        assert not T._tape

    def test_validation_selects_best_epoch(self):
        cfg = TINY_CFG.copy(base_width=8)
        train = window_examples(cfg, 6, seed=4)
        val = window_examples(cfg, 2, seed=5)
        tcfg = TrainConfig(epochs=3, seed=2)   # its first epoch scores best
        model, hist = train_model(cfg, tcfg, train, val_examples=val)
        best = min(row["val_mae"] for row in hist.epochs)
        assert best < hist.epochs[-1]["val_mae"]
        assert evaluate(ModelPredictor(model), cfg, val).mae == best


class FakeBlas:
    """A (get, set) OpenBLAS thread-count pair that records each set call."""

    def __init__(self, threads: int):
        self.threads = threads
        self.sets = []

    def get(self):
        return self.threads

    def set(self, n):
        self.sets.append(n)
        self.threads = n


class TestBlasRegion:
    """OpenBLAS is switched to one thread once per train or predict call, or per direct pass."""

    @pytest.fixture
    def blas(self, monkeypatch):
        fake = FakeBlas(2)
        monkeypatch.setattr(nn_ops, "_openblas", lambda: (fake.get, fake.set))
        return fake

    @pytest.fixture
    def attention_calls(self, monkeypatch):
        calls = []
        core = nn_ops.attention_core

        def counted(*args, **kw):
            calls.append(nn_ops._workers())
            return core(*args, **kw)

        monkeypatch.setattr(nn_ops, "attention_core", counted)
        return calls

    def test_train_switches_once(self, blas, attention_calls):
        train = window_examples(TINY_CFG, 4, seed=6)
        val = window_examples(TINY_CFG, 1, seed=7)
        train_model(TINY_CFG, TrainConfig(epochs=2, batch_size=2, seed=0), train,
                    val_examples=val)
        assert len(attention_calls) >= 2
        assert set(attention_calls) == {2}   # every call ran the held count of workers
        assert blas.sets == [1, 2]

    def test_predict_switches_once_and_nested_entry_adds_none(self, blas, attention_calls):
        model = MultiscaleVideoTransformer(TINY_CFG, seed=0)
        x = window_examples(TINY_CFG, 1, seed=8)[0].x
        model.predict(x)
        assert len(attention_calls) >= 2
        assert blas.sets == [1, 2]
        with nn_ops.one_blas_thread():
            assert nn_ops._workers() == 2
            model.predict(x)
        assert blas.sets == [1, 2, 1, 2]

    def test_direct_attention_call_switches_per_pass(self, blas):
        rng = np.random.default_rng(0)
        q, k, v = (Tensor(rng.standard_normal((1, 2, 10, 3)), requires_grad=True)
                   for _ in range(3))
        with T.record():
            T.backward(T.mse_loss(nn_ops.attention_core(q, k, v), Tensor(np.zeros(q.shape))))
        assert blas.sets == [1, 2, 1, 2]
        assert nn_ops._workers() == 1

    def test_direct_conv3d_call_switches_per_pass(self, blas, monkeypatch):
        workers = []
        run_chunks = nn_ops._run_chunks

        def counted(fn, count, scratch):   # one scratch() per worker
            made = []
            run_chunks(fn, count, lambda: made.append(1) or scratch())
            workers.append(len(made))

        monkeypatch.setattr(nn_ops, "_run_chunks", counted)
        rng = np.random.default_rng(0)
        x = Tensor(rng.standard_normal((2, 3, 4, 4, 4)), requires_grad=True)
        w = Tensor(rng.standard_normal((4, 3, 3, 3, 3)), requires_grad=True)
        with T.record():
            y = nn_ops.conv3d(x, w, Tensor(np.zeros(4)), pad=(1, 1, 1))
            assert blas.sets == [1, 2]
            T.backward(T.mse_loss(y, Tensor(np.zeros(y.shape))))
        assert blas.sets == [1, 2, 1, 2]
        assert workers == [2, 2]

    def test_count_restored_after_numeric_error(self, blas):
        train = window_examples(TINY_CFG, 2, seed=3)
        for ex in train:
            ex.target = ex.target * np.inf
        with pytest.raises(NumericError):
            train_model(TINY_CFG, TrainConfig(epochs=1, seed=0), train)
        assert blas.sets == [1, 2]
        assert blas.threads == 2
        assert nn_ops._workers() == 1

    def test_overlapping_threads_restore_once_the_last_leaves(self, blas):
        entered, release_a, a_left = threading.Event(), threading.Event(), threading.Event()

        def hold_a():
            with nn_ops.one_blas_thread():
                entered.set()
                release_a.wait(10)
            a_left.set()

        a = threading.Thread(target=hold_a)
        a.start()
        assert entered.wait(10)
        with nn_ops.one_blas_thread():
            release_a.set()
            assert a_left.wait(10)
            # A left while this thread still holds the region
            assert blas.threads == 1 and blas.sets == [1]
            assert nn_ops._workers() == 2
        a.join(10)
        assert not a.is_alive()
        assert blas.sets == [1, 2]
        assert nn_ops._workers() == 1

    def test_many_threads_never_lose_the_count(self, blas):
        """8 threads enter and leave 200 times each with a short switch interval."""
        seen = []

        def churn():
            for _ in range(200):
                with nn_ops.one_blas_thread():
                    seen.append(blas.threads)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=churn) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(seen) == 1600 and set(seen) == {1}
        assert blas.sets == [1, 2] * (len(blas.sets) // 2)
        assert blas.threads == 2 and nn_ops._workers() == 1

    def test_one_worker_without_openblas(self, monkeypatch):
        monkeypatch.setattr(nn_ops, "_openblas", lambda: None)
        with nn_ops.one_blas_thread():
            assert nn_ops._workers() == 1
