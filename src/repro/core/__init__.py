"""DeepN-JPEG core: the paper's primary contribution.

The core package turns the frequency statistics of a labelled dataset
(:mod:`repro.analysis`) into a DNN-favourable quantization table through
the piece-wise linear mapping of Eq. 3.  The fitted :class:`DeepNJpeg`
and the baseline compressors the paper compares against share one small
surface: a quantization table, a ``spec()`` store identity and
``compress_dataset()``.

Typical use::

    from repro.core import DeepNJpeg, DeepNJpegConfig
    from repro.data import generate_freqnet

    dataset = generate_freqnet()
    deepn = DeepNJpeg(DeepNJpegConfig())
    deepn.fit(dataset)                       # Algorithm 1 + PLM table design
    result = deepn.compress_dataset(dataset) # real byte counts + reconstructions
    print(result.compression_ratio)
"""

from repro.core.baselines import (
    CompressedDataset,
    DatasetCompressor,
    JpegCompressor,
    RemoveHighFrequencyCompressor,
    SameQCompressor,
    compress_dataset_with_table,
)
from repro.core.config import DeepNJpegConfig
from repro.core.pipeline import DeepNJpeg
from repro.core.plm import PiecewiseLinearMapping
from repro.core.table_design import DeepNJpegTableDesigner, TableDesignResult

__all__ = [
    "CompressedDataset",
    "DatasetCompressor",
    "DeepNJpeg",
    "DeepNJpegConfig",
    "DeepNJpegTableDesigner",
    "JpegCompressor",
    "PiecewiseLinearMapping",
    "RemoveHighFrequencyCompressor",
    "SameQCompressor",
    "TableDesignResult",
    "compress_dataset_with_table",
]
