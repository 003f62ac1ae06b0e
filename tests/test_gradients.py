"""Finite-difference gradient checks across seeds for every operator."""

import numpy as np
import pytest

from pulseformer import tensor as T
from pulseformer.errors import PulseformerError
from pulseformer.gradcheck import max_relative_error, op_checks
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
