"""Output checks that feed ``failed``, and the benchmark's own contract."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from perfbench.layers import LAYERS, per_layer_metric_names
from perfbench.run import parse_importtime
from perfbench.workloads import (
    WORKLOAD_NAMES,
    count_row_failures,
    image_failed,
    load_digests,
    row_digest,
)

ROOT = Path(__file__).resolve().parents[2]


def test_row_failures_count_changed_missing_and_extra_rows():
    rows = [["magnitude", "LF", 1.0, 0.90625, 1.0], ["position", "HF", 20.0, 0.5, 0.9]]
    reference = [row_digest(row) for row in rows]
    assert count_row_failures(reference, reference) == 0
    changed = [rows[0], ["position", "HF", 20.0, 0.5, 0.9000000000000001]]
    assert count_row_failures([row_digest(r) for r in changed], reference) == 1
    assert count_row_failures(reference[:1], reference) == 1
    assert count_row_failures(reference + reference, reference) == 2


def test_row_digest_serialises_numpy_floats_like_the_cli():
    assert row_digest(["a", np.float64(0.5)]) == row_digest(["a", 0.5])


def test_corrupted_container_counts_as_a_failed_image():
    from repro.jpeg import (
        ContainerError,
        GrayscaleJpegCodec,
        QuantizationTable,
        decode_image_bytes,
    )

    image = np.clip(
        np.random.default_rng(0).normal(128, 50, (32, 32)), 0, 255
    )
    codec = GrayscaleJpegCodec(QuantizationTable.standard_luminance(50))
    expected = codec.compress(image).reconstructed
    data = codec.encode_to_bytes(image)
    assert not image_failed(decode_image_bytes(data), 3, expected, 3)
    assert image_failed(decode_image_bytes(data), 2, expected, 3)

    with pytest.raises(ContainerError):
        decode_image_bytes(data[:-1])
    flipped = bytearray(data)
    flipped[-4] ^= 0x5A
    try:
        decoded = decode_image_bytes(bytes(flipped))
    except Exception:  # a decode error is a failed image too
        return
    assert image_failed(decoded, 3, expected, 3)


def test_parse_importtime_counts_outermost_package_imports():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     scipy._lib",
        "import time:       200 |        300 |   scipy",
        "import time:        50 |         50 |     scipy.stats._x",
        "import time:       400 |        450 |   scipy.stats",
        "import time:        10 |       1000 |   repro.analysis",
        "import time:        20 |       1100 | repro",
        "import time:        30 |       1200 | repro.cli",
        "import time:         5 |          5 | json",
    ])
    assert parse_importtime(text) == {"repro": 2300 / 1e6, "scipy": 750 / 1e6}


def test_benchmark_json_lists_every_per_layer_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = [
        (metric["name"], metric["unit"], metric["better"])
        for metric in spec["per_layer"]
    ]
    assert listed == per_layer_metric_names()
    assert len(listed) <= 128
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOAD_NAMES)
    assert len({layer.name for layer in LAYERS}) == len(LAYERS)


def test_digests_cover_the_figure_workloads():
    digests = load_digests()
    assert len(digests["fig5-sweep"]) == 44
    assert len(digests["fig8-train"]) == 16


def test_benchmark_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "edge-stream",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode != 0
    assert completed.stdout == ""


def test_injected_faults_count_as_failed_images(tmp_path):
    from perfbench.workloads import make_workload

    workload = make_workload("edge-stream", tmp_path, inject_fault=True)
    workload.setup(0)
    result = workload.run_pass()
    assert result.attempted == 128
    # Every eighth container is truncated and fails to decode.
    assert result.failed == 16
    assert sum(unit is None for unit in result.units) == 16
