"""Aggregated layer namespace.

Convenience re-exports so user code (and :mod:`repro.nn.models`) can import
every layer from one place.
"""

from repro.nn.activations import ReLU
from repro.nn.base import Layer, Parameter, Sequential
from repro.nn.blocks import InceptionBlock, ResidualBlock
from repro.nn.conv import Conv2D
from repro.nn.dense import Dense, Flatten
from repro.nn.norm import BatchNorm2D
from repro.nn.pooling import GlobalAvgPool2D, MaxPool2D
from repro.nn.regularization import Dropout

__all__ = [
    "BatchNorm2D",
    "Conv2D",
    "Dense",
    "Dropout",
    "Flatten",
    "GlobalAvgPool2D",
    "InceptionBlock",
    "Layer",
    "MaxPool2D",
    "Parameter",
    "ReLU",
    "ResidualBlock",
    "Sequential",
]
