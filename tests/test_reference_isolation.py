"""Production code never loads the parity references.

``repro.reference`` holds the scalar twins of the production kernels
for the tests alone.  A fresh interpreter that imports the package, the
CLI and every registered experiment, round-trips an image through the
byte container and runs one planned prediction must not have imported
it.
"""

import os
import subprocess
import sys

import repro

PROBE = """
import sys

import numpy as np

import repro
import repro.cli
from repro.experiments.api import build_experiment, experiment_names
from repro.jpeg import GrayscaleJpegCodec, QuantizationTable, decode_image_bytes
from repro.nn import models
from repro.nn.engine import InferencePlan

for name in experiment_names():
    build_experiment(name)

image = np.random.default_rng(0).uniform(0.0, 255.0, (16, 16))
codec = GrayscaleJpegCodec(QuantizationTable.standard_luminance(50))
decoded = decode_image_bytes(codec.encode_to_bytes(image))
assert decoded.shape == image.shape

model = models.build_model(
    "AlexNet", num_classes=4, input_shape=(1, 16, 16), seed=0
)
model.predict_proba(decoded[np.newaxis, np.newaxis])
assert [type(plan) for plan in model._plan_cache.values()] == [InferencePlan]

print("repro.reference" in sys.modules)
"""


def test_production_never_loads_the_references():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [
        os.path.dirname(os.path.dirname(repro.__file__)),
        env.get("PYTHONPATH"),
    ]))
    child = subprocess.run(
        [sys.executable, "-c", PROBE], env=env, capture_output=True,
        text=True, timeout=120,
    )
    assert child.returncode == 0, child.stderr
    assert child.stdout.strip() == "False"
