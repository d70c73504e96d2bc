"""A compact, from-scratch neural-network framework built on numpy.

This package is the training/inference substrate for the DeepN-JPEG
evaluation.  It provides the layers the model zoo builds — convolution
(im2col based), 2x2 max and global average pooling, batch normalisation,
ReLU, dense layers, residual and inception blocks — plus losses,
optimizers and a small training loop, so the accuracy-vs-compression
experiments of the paper can run end-to-end on CPU without any
deep-learning dependency.

Each layer has one production path per direction: training runs
``forward(training=True)`` then ``backward``, and inference runs the
compiled plans of :mod:`repro.nn.engine`.  A backward pass needs a
training forward first; after an inference forward it raises.

Quick use::

    from repro.nn import models, Trainer, SGD

    model = models.alexnet_mini(num_classes=8, input_shape=(1, 32, 32))
    trainer = Trainer(model, optimizer=SGD(learning_rate=0.05, momentum=0.9))
    history = trainer.fit(train_images, train_labels, epochs=5)
    accuracy = trainer.evaluate(test_images, test_labels)  # planned
    probabilities = model.predict_proba(test_images)       # planned
"""

from repro.nn import models
from repro.nn.dtype import DEFAULT_DTYPE, REFERENCE_DTYPE, resolve_dtype
from repro.nn.layers import (
    BatchNorm2D,
    Conv2D,
    Dense,
    Dropout,
    Flatten,
    GlobalAvgPool2D,
    InceptionBlock,
    Layer,
    MaxPool2D,
    ReLU,
    ResidualBlock,
    Sequential,
)
from repro.nn.losses import SoftmaxCrossEntropy
from repro.nn.optim import SGD, Adam, Optimizer
from repro.nn.trainer import Trainer, TrainingHistory

__all__ = [
    "Adam",
    "BatchNorm2D",
    "Conv2D",
    "DEFAULT_DTYPE",
    "REFERENCE_DTYPE",
    "Dense",
    "Dropout",
    "Flatten",
    "GlobalAvgPool2D",
    "InceptionBlock",
    "Layer",
    "MaxPool2D",
    "Optimizer",
    "ReLU",
    "ResidualBlock",
    "SGD",
    "Sequential",
    "SoftmaxCrossEntropy",
    "resolve_dtype",
    "Trainer",
    "TrainingHistory",
    "models",
]
