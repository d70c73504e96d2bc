"""Tests for optimizers."""

import numpy as np
import pytest

from repro.nn.base import Parameter
from repro.nn.optim import Adam


class TestAdam:
    def test_converges_on_quadratic(self):
        parameter = Parameter(np.array([0.0, 10.0]))
        optimizer = Adam(learning_rate=0.1)
        for _ in range(600):
            parameter.zero_grad()
            parameter.grad += parameter.value - np.array([3.0, -2.0])
            optimizer.step([parameter])
        np.testing.assert_allclose(parameter.value, [3.0, -2.0], atol=5e-2)

    def test_first_step_size_close_to_learning_rate(self):
        parameter = Parameter(np.array([0.0]))
        parameter.grad[:] = 100.0
        Adam(learning_rate=0.01).step([parameter])
        np.testing.assert_allclose(parameter.value, [-0.01], atol=1e-6)

    def test_state_tracked_per_parameter(self):
        first = Parameter(np.array([0.0]))
        second = Parameter(np.array([0.0]))
        optimizer = Adam(learning_rate=0.1)
        first.grad[:] = 1.0
        second.grad[:] = -1.0
        optimizer.step([first, second])
        assert first.value[0] < 0.0
        assert second.value[0] > 0.0

    def test_rejects_invalid_hyperparameters(self):
        with pytest.raises(ValueError):
            Adam(learning_rate=0.1, beta1=1.0)
        with pytest.raises(ValueError):
            Adam(learning_rate=-0.1)
        with pytest.raises(ValueError):
            Adam(learning_rate=0.0)
        with pytest.raises(ValueError):
            Adam(learning_rate=0.1, weight_decay=-1.0)

    def test_zero_grad_helper(self):
        parameter = Parameter(np.array([1.0]))
        parameter.grad[:] = 5.0
        Adam().zero_grad([parameter])
        np.testing.assert_allclose(parameter.grad, 0.0)
