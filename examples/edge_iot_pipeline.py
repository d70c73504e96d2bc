"""Edge-IoT offloading scenario: compress on-device, classify in the cloud.

This is the deployment the paper motivates: an edge sensor produces
images, compresses them before uploading over a constrained wireless
link, and a cloud-hosted DNN (trained on data that went through the same
compressor) classifies them.  The script compares standard JPEG and
DeepN-JPEG end to end: classification accuracy, upload volume, upload
latency and transmit energy per image on 3G / LTE / Wi-Fi.

The fitted DeepN-JPEG pipeline is also saved to / reloaded from a JSON
artifact — the ship-to-the-edge step: the server fits the table once,
every sensor loads the artifact and compresses bit-identically.

The comparison itself is a *custom declarative experiment*
(:class:`EdgeOffloadExperiment`): it declares one ``pipeline`` axis and
a cell function, registers under ``edge-offload``, and the framework
(:mod:`repro.experiments.api`) supplies the sweep loop, ``workers=``
sharding and deterministic assembly — the "declaring a new experiment"
pattern from the README, on a real workload.

Run with::

    python examples/edge_iot_pipeline.py
"""

import os
import tempfile

from repro.core import DeepNJpeg, DeepNJpegConfig, JpegCompressor
from repro.data import train_test_split, generate_freqnet, FreqNetConfig
from repro.experiments import api
from repro.experiments.common import ExperimentConfig, train_classifier
from repro.jpeg import decode_image_bytes
from repro.power import WIRELESS_LINKS

#: The wireless links whose per-image transmit energy the table reports.
LINK_NAMES = ("3G", "LTE", "WiFi")


class EdgeOffloadExperiment(api.Experiment):
    """Accuracy / upload-volume / energy of one compression pipeline.

    A minimal custom experiment: the state holds the splits, each cell
    compresses them with one candidate (shipped as the task's extra
    payload, since it embeds the fitted DeepN-JPEG artifact) and trains
    the cloud classifier, and ``assemble`` renders the comparison rows.
    """

    name = "edge-offload"
    title = "Edge-IoT offloading comparison (accuracy, bytes, energy)"
    headers = [
        "Pipeline", "Cloud accuracy", "Upload bytes/image",
        *(f"{link} energy (mJ)" for link in LINK_NAMES),
    ]
    defaults = {"candidates": None, "splits": None}

    def axes(self, ctx):
        return [api.Axis("pipeline", tuple(ctx.params["candidates"]))]

    def cell_identity(self, ctx, point):
        # Bind the candidate's codec spec() into the cache address (the
        # fig7/8/9 pattern): a cell computed from one fitted artifact
        # must never replay for a differently-fitted one.
        pipeline = point["pipeline"]
        return {
            "pipeline": pipeline,
            "codec": ctx.params["candidates"][pipeline].spec(),
        }

    def build_state(self, ctx):
        train_set, test_set = ctx.params["splits"] or self._make_splits(
            ctx.config
        )
        return {"train_set": train_set, "test_set": test_set}

    @staticmethod
    def _make_splits(config):
        dataset = generate_freqnet(
            FreqNetConfig(
                images_per_class=config.images_per_class,
                seed=config.dataset_seed,
            )
        )
        return train_test_split(
            dataset,
            test_fraction=config.test_fraction,
            seed=config.split_seed,
        )

    def task_extra(self, ctx, index, cell):
        return ctx.params["candidates"][cell["pipeline"]]

    def compute_cell(self, key, state, cell, extra):
        # One candidate pipeline per cell: the *grid* shards over
        # ``config.workers`` processes, so each cell compresses and
        # trains serially (``key`` is the task key, whose workers knob
        # is normalised to 1).
        compressor = extra
        compressed_train = compressor.compress_dataset(state["train_set"])
        compressed_test = compressor.compress_dataset(state["test_set"])
        classifier = train_classifier(compressed_train, key)
        accuracy = classifier.accuracy_on(compressed_test)
        bytes_per_image = compressed_test.bytes_per_image
        link_columns = []
        for link_name in LINK_NAMES:
            link = WIRELESS_LINKS[link_name]
            energy_mj = 1e3 * link.transfer_energy_joules(bytes_per_image)
            link_columns.append(f"{energy_mj:.2f}")
        return (
            [cell["pipeline"], accuracy, round(bytes_per_image, 1)]
            + link_columns
        )

    def assemble(self, ctx, results, scalars):
        return api.TableResult(self.headers, list(results))


api.register_experiment(EdgeOffloadExperiment.name, EdgeOffloadExperiment)


def main() -> None:
    # workers=0 shards the candidate sweep over every CPU (results are
    # identical to the serial run; workers=1 keeps everything in-process).
    config = ExperimentConfig(images_per_class=24, epochs=14, workers=0)
    dataset = generate_freqnet(
        FreqNetConfig(
            images_per_class=config.images_per_class, seed=config.dataset_seed
        )
    )
    train_set, test_set = train_test_split(
        dataset, test_fraction=config.test_fraction, seed=config.split_seed
    )

    # Fit once (the cloud side), save the artifact, and hand every edge
    # device the reloaded pipeline — compression is bit-identical.
    fitted = DeepNJpeg(DeepNJpegConfig(sampling_interval=2)).fit(train_set)
    # A private directory per run: concurrent runs never share the file,
    # and nothing is left behind.
    with tempfile.TemporaryDirectory(prefix="deepn-jpeg-edge-") as directory:
        artifact_path = os.path.join(directory, "artifact.json")
        fitted.save(artifact_path)
        artifact_bytes = os.path.getsize(artifact_path)
        edge_pipeline = DeepNJpeg.load(artifact_path)
    sample = test_set.images[0]
    container = edge_pipeline.encode_to_bytes(sample)
    decoded = decode_image_bytes(container)
    print(
        f"fitted artifact: {artifact_bytes} bytes; one {sample.shape} "
        f"sample ships as a {len(container)}-byte self-contained "
        f"container (decoded shape {decoded.shape})\n"
    )

    candidates = {
        "JPEG QF=100": JpegCompressor(100),
        "JPEG QF=50": JpegCompressor(50),
        "DeepN-JPEG": edge_pipeline,
    }

    # The registered custom experiment runs the candidate sweep — by
    # name, with the framework's sharding and ordering (the splits built
    # above are handed over so they are not regenerated).
    result = api.run_experiment(
        api.build_experiment("edge-offload"), config,
        candidates=candidates, splits=(train_set, test_set),
    )
    print(result.format_table())
    print(
        "\nDeepN-JPEG uploads the least data at the same accuracy level, "
        "which is the storage/energy saving the paper targets for edge "
        "devices."
    )


if __name__ == "__main__":
    main()
