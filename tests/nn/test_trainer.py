"""Tests for the training loop."""

import numpy as np
import pytest

from repro.nn.base import Sequential
from repro.nn.dense import Dense, Flatten
from repro.nn.layers import Conv2D, MaxPool2D, ReLU
from repro.nn.optim import Adam
from repro.nn.trainer import Trainer


def _toy_problem(rng=None, count=120, size=8):
    """A linearly separable two-class image problem.

    Uses its own seeded generator by default so the learning-behaviour
    assertions do not depend on test execution order.
    """
    rng = rng if rng is not None else np.random.default_rng(2024)
    images = rng.normal(size=(count, 1, size, size))
    labels = (
        images[:, 0, : size // 2].mean(axis=(1, 2))
        > images[:, 0, size // 2:].mean(axis=(1, 2))
    ).astype(int)
    return images, labels


def _small_model(seed=0):
    rng = np.random.default_rng(seed)
    return Sequential([
        Conv2D(1, 4, 3, padding=1, rng=rng),
        ReLU(),
        MaxPool2D(),
        Flatten(),
        Dense(4 * 4 * 4, 2, rng=rng),
    ])


class TestTrainer:
    def test_learns_toy_problem(self):
        images, labels = _toy_problem()
        trainer = Trainer(_small_model(), optimizer=Adam(0.01), seed=0)
        history = trainer.fit(images, labels, epochs=10)
        assert trainer.evaluate(images, labels) > 0.9
        assert history.train_loss[-1] < history.train_loss[0]

    def test_history_lengths(self):
        images, labels = _toy_problem(count=40)
        trainer = Trainer(_small_model(), optimizer=Adam(0.01), seed=0)
        history = trainer.fit(
            images, labels, epochs=3, validation_data=(images, labels)
        )
        assert len(history.train_loss) == 3
        assert len(history.train_accuracy) == 3
        assert len(history.validation_accuracy) == 3

    def test_no_validation_history_when_not_requested(self):
        images, labels = _toy_problem(count=40)
        trainer = Trainer(_small_model(), optimizer=Adam(0.01), seed=0)
        history = trainer.fit(images, labels, epochs=2)
        assert history.validation_accuracy == []

    def test_reproducible_given_seeds(self):
        images, labels = _toy_problem(count=60)
        results = []
        for _ in range(2):
            trainer = Trainer(_small_model(seed=1), optimizer=Adam(0.05), seed=4)
            trainer.fit(images, labels, epochs=2)
            results.append(trainer.evaluate(images, labels))
        assert results[0] == results[1]

    def test_rejects_mismatched_labels(self, rng):
        trainer = Trainer(_small_model(), Adam(), seed=0)
        with pytest.raises(ValueError):
            trainer.fit(rng.normal(size=(10, 1, 8, 8)), np.zeros(9, dtype=int))

    def test_rejects_non_nchw_images(self, rng):
        trainer = Trainer(_small_model(), Adam(), seed=0)
        with pytest.raises(ValueError):
            trainer.fit(rng.normal(size=(10, 8, 8)), np.zeros(10, dtype=int))

    def test_invalid_batch_size(self):
        with pytest.raises(ValueError):
            Trainer(_small_model(), Adam(), batch_size=0)

