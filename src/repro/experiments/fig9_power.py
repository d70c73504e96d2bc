"""Fig. 9: normalized data-offloading power of the compression candidates.

The candidates are Original (QF=100), RM-HF3, SAME-Q4 and DeepN-JPEG.
Their average compressed image sizes (measured on the test set) are fed
into the wireless offloading energy model of :mod:`repro.power`; the
output is each candidate's total per-inference energy normalised to the
Original dataset, reproducing the bar chart of Fig. 9.

Declared on :mod:`repro.experiments.api` as one ``codec`` axis over the
candidates (skipped entirely when ``bytes_per_method`` is supplied, e.g.
from a Fig. 7 run); the assemble step runs the energy model.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.baselines import (
    JpegCompressor,
    RemoveHighFrequencyCompressor,
    SameQCompressor,
)
from repro.experiments import api
from repro.experiments.common import ExperimentConfig, format_table, make_splits
from repro.experiments.design_flow import derive_design_config, fitted_pipeline
from repro.power.breakdown import offloading_power_breakdown

#: Table columns (shared by the result table and the CLI --json payload).
FIG9_HEADERS = [
    "Method", "Bytes/image", "Comm (J)", "Compute (J)", "Normalized power",
]


@dataclass(frozen=True)
class Fig9Entry:
    """Energy figures of one candidate."""

    method: str
    bytes_per_image: float
    communication_joules: float
    computation_joules: float
    normalized_power: float


@dataclass
class Fig9Result:
    """All candidates of the Fig. 9 power comparison."""

    entries: "list[Fig9Entry]" = field(default_factory=list)
    link_name: str = "WiFi"
    workload_name: str = "AlexNet"

    def rows(self) -> "list[list]":
        return [
            [entry.method, round(entry.bytes_per_image, 1),
             f"{entry.communication_joules:.3e}",
             f"{entry.computation_joules:.3e}", entry.normalized_power]
            for entry in self.entries
        ]

    def format_table(self) -> str:
        return format_table(FIG9_HEADERS, self.rows())


class Fig9Experiment(api.Experiment):
    """The offloading-power comparison as a declarative experiment.

    ``include_computation`` defaults to ``False``: the paper's offloading
    power is measured for ~100 KB ImageNet-scale images where upload
    energy dwarfs the (method-independent) inference energy, so for the
    small synthetic images used here the normalisation considers
    communication only.  Set it to ``True`` to add the fixed compute
    term.
    """

    name = "fig9"
    title = "Normalized data-offloading power of the candidates"
    headers = FIG9_HEADERS
    defaults = {
        "deepn_config": None,
        "anchors": None,
        "link_name": "WiFi",
        "workload_name": "AlexNet",
        "bytes_per_method": None,
        "include_computation": False,
    }

    def prepare(self, ctx: api.RunContext) -> None:
        if ctx.params["bytes_per_method"] is not None:
            # Sizes supplied (e.g. from a Fig. 7 run): no sweep at all.
            return
        splits: "list" = []

        def _test_dataset():
            if not splits:
                splits.extend(make_splits(ctx.config))
            return splits[1]

        deepn_config = ctx.params["deepn_config"]
        if deepn_config is None:
            # Power depends only on compressed size, so the default anchors
            # are acceptable when none are supplied; reuse the design flow
            # for consistency with Fig. 7 when anchors are given.
            deepn_config = derive_design_config(
                ctx.config, anchors=ctx.params["anchors"], store=ctx.store
            ) if ctx.params["anchors"] is not None else None
        # The paper's Fig. 9 sizing fits on the (offloaded) test set; a
        # cached fit skips the split generation and analysis entirely.
        deepn = fitted_pipeline(
            ctx.config, deepn_config, _test_dataset,
            store=ctx.store, fit_on="test",
        )
        ctx.derived["candidates"] = [
            JpegCompressor(100),
            RemoveHighFrequencyCompressor(3),
            SameQCompressor(4),
            deepn,
        ]
        ctx.derived["splits"] = splits

    def cells(self, ctx: api.RunContext) -> "list[dict]":
        if ctx.params["bytes_per_method"] is not None:
            return []
        return [
            {"cell": "bytes_per_image", "codec": compressor.spec()}
            for compressor in ctx.derived["candidates"]
        ]

    def setup_state(self, ctx: api.RunContext) -> dict:
        splits = ctx.derived["splits"]
        if not splits:
            splits.extend(make_splits(ctx.config))
        return {"test_dataset": splits[1]}

    def build_state(self, config: ExperimentConfig) -> dict:
        """The test split, reconstructible from the config alone."""
        _, test_dataset = make_splits(config)
        return {"test_dataset": test_dataset}

    def task_extra(self, ctx: api.RunContext, index: int, cell: dict):
        return ctx.derived["candidates"][index]

    def compute_cell(self, key, state, cell: dict, extra) -> tuple:
        """One candidate: compress the test set and report bytes per image."""
        compressor = extra
        compressed = compressor.compress_dataset(state["test_dataset"])
        method = (
            "Original" if compressor.name == "JPEG (QF=100)" else compressor.name
        )
        return method, compressed.bytes_per_image

    def cell_to_payload(self, value: tuple) -> list:
        return list(value)

    def cell_from_payload(self, payload: list) -> tuple:
        return tuple(payload)

    def assemble(
        self, ctx: api.RunContext, results: list, scalars: dict
    ) -> Fig9Result:
        bytes_per_method = ctx.params["bytes_per_method"]
        if bytes_per_method is None:
            bytes_per_method = dict(results)
        breakdowns = offloading_power_breakdown(
            bytes_per_method,
            reference_method=next(iter(bytes_per_method)),
            link_name=ctx.params["link_name"],
            workload_name=ctx.params["workload_name"],
            include_computation=ctx.params["include_computation"],
        )
        result = Fig9Result(
            link_name=ctx.params["link_name"],
            workload_name=ctx.params["workload_name"],
        )
        for breakdown, (method, size) in zip(
            breakdowns, bytes_per_method.items()
        ):
            result.entries.append(
                Fig9Entry(
                    method=method,
                    bytes_per_image=float(size),
                    communication_joules=breakdown.communication_joules,
                    computation_joules=breakdown.computation_joules,
                    normalized_power=breakdown.normalized_total,
                )
            )
        return result


api.register_experiment(Fig9Experiment.name, Fig9Experiment)
