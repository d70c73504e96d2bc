"""DeepN-JPEG: a DNN-favourable JPEG-based image compression framework.

A from-scratch reproduction of *DeepN-JPEG: A Deep Neural Network
Favorable JPEG-based Image Compression Framework* (Liu et al., DAC 2018),
including every substrate the paper depends on:

* :mod:`repro.jpeg` — a complete grayscale JPEG-style codec (DCT,
  quantization, zig-zag, run-length + Annex K Huffman entropy coding)
  with real byte counts.
* :mod:`repro.nn` — a numpy neural-network framework with mini versions of
  the paper's evaluation architectures (AlexNet, VGG, GoogLeNet, ResNet).
* :mod:`repro.data` — FreqNet, a synthetic frequency-structured
  image-classification dataset standing in for ImageNet.
* :mod:`repro.analysis` — Algorithm 1 frequency statistics, band
  segmentation and coefficient-distribution fits.
* :mod:`repro.core` — the DeepN-JPEG quantization-table design (piece-wise
  linear mapping) and the RM-HF / SAME-Q / JPEG baselines.
* :mod:`repro.power` — the wireless data-offloading energy model.
* :mod:`repro.experiments` — one module per figure of the evaluation.

Quickstart::

    from repro.core import DeepNJpeg
    from repro.data import generate_freqnet

    dataset = generate_freqnet()
    deepn = DeepNJpeg().fit(dataset)
    result = deepn.compress_dataset(dataset)
    print(result.compression_ratio, result.mean_psnr)
"""

__version__ = "1.0.0"

from repro.core import DeepNJpeg, DeepNJpegConfig
from repro.data import Dataset, FreqNetConfig, generate_freqnet
from repro.jpeg import QuantizationTable

__all__ = [
    "Dataset",
    "DeepNJpeg",
    "DeepNJpegConfig",
    "FreqNetConfig",
    "QuantizationTable",
    "__version__",
    "generate_freqnet",
]
