"""Mini-batch training loop and evaluation utilities."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.nn.base import Sequential
from repro.nn.dtype import resolve_dtype
from repro.nn.losses import SoftmaxCrossEntropy
from repro.nn.optim import Optimizer
from repro.runtime.blas import split_pool


@dataclass
class TrainingHistory:
    """Per-epoch metrics collected by :class:`Trainer.fit`."""

    train_loss: "list[float]" = field(default_factory=list)
    train_accuracy: "list[float]" = field(default_factory=list)
    validation_accuracy: "list[float]" = field(default_factory=list)

    @property
    def epochs(self) -> int:
        """Number of completed epochs."""
        return len(self.train_loss)

    def final_validation_accuracy(self) -> float:
        """Validation accuracy after the last epoch (NaN if never computed)."""
        if not self.validation_accuracy:
            return float("nan")
        return self.validation_accuracy[-1]


class Trainer:
    """Trains a :class:`~repro.nn.base.Sequential` classifier.

    Parameters
    ----------
    model:
        The network to train.
    optimizer:
        Any :class:`~repro.nn.optim.Optimizer`, such as
        ``Adam(learning_rate=0.002)``, which the experiments train with.
    loss:
        Loss object with ``forward(logits, labels)`` / ``backward()``.
    batch_size:
        Mini-batch size.
    seed:
        Seed for the shuffling generator, for reproducible runs.
    dtype:
        Compute dtype the datasets are cast to before every epoch.
        ``None`` (the default) follows the model's parameter dtype, so a
        float32 model trains entirely in float32 without per-layer
        casting; pass ``"float64"`` to force the reference mode.
    """

    def __init__(
        self,
        model: Sequential,
        optimizer: Optimizer,
        loss: SoftmaxCrossEntropy = None,
        batch_size: int = 32,
        seed: int = 0,
        dtype=None,
    ) -> None:
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        self.model = model
        self.optimizer = optimizer
        self.loss = loss if loss is not None else SoftmaxCrossEntropy()
        self.batch_size = int(batch_size)
        self.dtype = (
            resolve_dtype(dtype) if dtype is not None else model.dtype
        )
        self._rng = np.random.default_rng(seed)

    def fit(
        self,
        images: np.ndarray,
        labels: np.ndarray,
        epochs: int = 5,
        validation_data: tuple = None,
        verbose: bool = False,
    ) -> TrainingHistory:
        """Train for ``epochs`` passes over ``(images, labels)``.

        ``images`` is an NCHW float array; ``labels`` an integer vector.
        If ``validation_data=(val_images, val_labels)`` is given, validation
        accuracy is recorded after every epoch (used by the Fig. 2(b)
        accuracy-versus-epoch experiment).

        The fit runs inside :func:`~repro.runtime.blas.split_pool`, so the
        convolution and batch-norm kernels split each batch over the
        process's CPUs; the trained weights are bit-identical to a
        serial fit.
        """
        images, labels = _check_dataset(images, labels, self.dtype)
        if images.shape[0] == 0:
            raise ValueError("cannot fit on an empty dataset (0 images)")
        with split_pool():
            return self._fit(images, labels, epochs, validation_data, verbose)

    def _fit(self, images, labels, epochs, validation_data, verbose):
        history = TrainingHistory()
        for epoch in range(epochs):
            order = self._rng.permutation(images.shape[0])
            epoch_loss = 0.0
            correct = 0
            for start in range(0, images.shape[0], self.batch_size):
                batch_idx = order[start:start + self.batch_size]
                batch_images = images[batch_idx]
                batch_labels = labels[batch_idx]
                logits = self.model.forward(batch_images, training=True)
                loss_value = self.loss.forward(logits, batch_labels)
                parameters = self.model.parameters()
                self.optimizer.zero_grad(parameters)
                self.model.backward(
                    self.loss.backward(), need_input_grad=False
                )
                self.optimizer.step(parameters)
                epoch_loss += loss_value * batch_labels.shape[0]
                correct += int(
                    (np.argmax(logits, axis=1) == batch_labels).sum()
                )
            history.train_loss.append(epoch_loss / images.shape[0])
            history.train_accuracy.append(correct / images.shape[0])
            if validation_data is not None:
                history.validation_accuracy.append(
                    self.evaluate(validation_data[0], validation_data[1])
                )
            if verbose:  # pragma: no cover - console reporting only
                message = (
                    f"epoch {epoch + 1}/{epochs} "
                    f"loss={history.train_loss[-1]:.4f} "
                    f"train_acc={history.train_accuracy[-1]:.3f}"
                )
                if validation_data is not None:
                    message += f" val_acc={history.validation_accuracy[-1]:.3f}"
                print(message)
        return history

    def evaluate(self, images: np.ndarray, labels: np.ndarray) -> float:
        """Top-1 accuracy of the model on ``(images, labels)``."""
        images, labels = _check_dataset(images, labels, self.dtype)
        predictions = self.model.predict(images, batch_size=self.batch_size)
        return float((predictions == labels).mean())


def _check_dataset(
    images: np.ndarray, labels: np.ndarray, dtype=np.float64
) -> tuple:
    images = np.asarray(images, dtype=dtype)
    labels = np.asarray(labels, dtype=np.intp)
    if images.ndim != 4:
        raise ValueError(f"expected NCHW images, got shape {images.shape}")
    if labels.shape != (images.shape[0],):
        raise ValueError(
            f"labels shape {labels.shape} does not match images {images.shape}"
        )
    return images, labels
