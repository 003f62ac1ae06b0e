"""Finite-difference gradient checks across seeds for every operator.

The op cases are ``gradcheck.OP_CASES``, the table the float32 storage tests
read too: each is the mse loss of one op's output against a drawn target.
The suite must pass every case, fail a wrong pull, and have a case for every
function that records a pull.
"""

import inspect
import re

import numpy as np
import pytest

from pulseformer import nn_ops, tensor as T
from pulseformer.cli import main
from pulseformer.errors import PulseformerError
from pulseformer.gradcheck import OP_CASES, max_relative_error, op_checks
from pulseformer.tensor import Tensor

TOL = 1e-5


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_all_ops_match_finite_differences(seed):
    for name, err in op_checks(seed):
        assert err <= TOL, f"{name} gradient error {err:.3e} exceeds {TOL}"


def test_grad_check_interface_linear():
    rng = np.random.default_rng(0)
    with T.float64():
        x = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
        w = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
    err = max_relative_error(lambda: T.mean(T.linear(x, w, Tensor(np.zeros(2)))), [x, w])
    assert err <= TOL


def test_grad_check_sampling_subset():
    rng = np.random.default_rng(1)
    with T.float64():
        x = Tensor(rng.standard_normal((4, 8)), requires_grad=True)
        t = Tensor(rng.standard_normal((4, 8)))
    err = max_relative_error(lambda: T.mse_loss(T.gelu(x), t), [x],
                             sample=10, rng=np.random.default_rng(2))
    assert err <= TOL


def test_grad_check_refuses_float32_params():
    """A param made outside float64() is refused with an error that names float64()."""
    x = Tensor(np.array([-1.0, 0.5, 2.0]), requires_grad=True)
    with pytest.raises(PulseformerError, match=r"float64\(\)"):
        max_relative_error(lambda: T.mean(T.elu(x)), [x])
    assert x.data.dtype == np.float32


def _wrong_add_embedding(x, e):
    """``add_embedding`` whose pull doubles the embedding's gradient."""
    out = Tensor(x.data + e.data[None], requires_grad=T._needs_grad(x, e))

    def pull(g):
        T._accum(x.slot, g)
        T._accum(e.slot, 2 * g.sum(axis=0))

    T._record(out, pull)
    return out


def test_suite_fails_a_wrong_pull(monkeypatch, capsys):
    """A case with a wrong pull reads above the tolerance, and the CLI exits 3 naming it."""
    monkeypatch.setitem(OP_CASES, "add_embedding_wrong",
                        ([(2, 3, 4), (3, 4)], _wrong_add_embedding))
    assert dict(op_checks(0))["add_embedding_wrong"] > TOL
    assert main(["gradcheck"]) == 3
    assert re.search(r"^add_embedding_wrong .* FAIL$", capsys.readouterr().out, re.M)


def _recording_functions() -> set[str]:
    """The functions of ``tensor`` and ``nn_ops`` whose source records a pull."""
    return {name for mod in (T, nn_ops)
            for name, fn in inspect.getmembers(mod, inspect.isfunction)
            if fn.__module__ == mod.__name__ and "_record(out, pull)" in inspect.getsource(fn)}


def test_op_table_has_a_case_for_every_recorded_pull(monkeypatch):
    """The pulls the table's cases record last are those of every function that records one.

    The last pull is the case's own op, so an op met only inside another
    case (as ``reshape`` in ``depthwise_conv3d``) still needs its own.
    """
    pulls = []
    record = T._record

    def collect(out, pull):
        pulls.append(pull.__qualname__.split(".")[0])
        record(out, pull)

    monkeypatch.setattr(T, "_record", collect)
    monkeypatch.setattr(nn_ops, "_record", collect)
    rng = np.random.default_rng(0)
    own = set()
    with T.record():
        for shapes, op in OP_CASES.values():
            op(*(Tensor(rng.standard_normal(s), requires_grad=True) for s in shapes))
            own.add(pulls[-1])
    assert own == _recording_functions()
