"""R2 clean: every field classified."""

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class ExperimentConfig:

    images_per_class: int = 30
    image_size: int = 32
    noise_std: float = 1.5
    test_fraction: float = 0.25
    epochs: int = 20
    batch_size: int = 32
    learning_rate: float = 0.002
    model_name: str = "AlexNet"
    compute_dtype: str = "float32"
    dataset_seed: int = 7
    split_seed: int = 0
    model_seed: int = 0
    sampling_interval: int = 2
    workers: int = 1
    on_error: str = "fail-fast"
    retries: int = 2
    task_timeout: float = None


    def task_key(self):
        return replace(
            self,
            workers=1,
            on_error="fail-fast",
            retries=2,
            task_timeout=None,
        )

