"""Pipeline configuration: one flat JSON object, validated strictly.

Every key is a field of `PipelineConfig`: the paths a run reads and
writes, and the settings of the attribute, calibration and training
stages. A run has one attention setting, `calibration()`, which every
stage reads. Unknown keys are rejected so typos never silently fall back
to defaults, and every value is type- and range-checked where a config
is made. A run is named by its `settings()`, every key but the paths:
the config hash in every artifact's provenance digests them, less `topk`
when `clusters` is 0. The inputs the paths name are stamped by content.
"""

from dataclasses import asdict, dataclass, fields
from pathlib import Path

from .blobio import is_finite_number, read_json_object
from .encoder import Calibration
from .errors import UsageError
from .hashing import config_digest

PATH_KEYS = ("weights", "knowledge", "dataset", "out_dir")


@dataclass
class PipelineConfig:
    weights: str = ""
    knowledge: str = ""
    dataset: str = ""
    out_dir: str = ""
    lr: float = 1e-4
    weight_decay: float = 1e-2
    iterations: int = 500
    batch_size: int = 4
    seed: int = 0
    tau_fg: float = 0.55
    tau_bg: float = 0.25
    alpha: float = 3.0
    beta: float = 1.0
    calib_layers: int = Calibration.layers
    calib_weights: tuple = Calibration.weights
    topk: int = 8
    lam: float = 0.5
    clusters: int = 16
    d_proj: int = 64
    d_dyn: int = 256
    fusion_kernel: int = 1
    adapter_init_sigma: float = 0.02
    pair_sample_limit: int = 4096

    def __post_init__(self):
        """Values are type- and range-checked where a config is made, so
        every command refuses the same ones, whether it parsed them from a
        file or was given them in code."""
        for f in fields(self):
            setattr(self, f.name, _typed(f.name, getattr(self, f.name), f.type))
        checks = [
            (self.lr > 0, f"lr must be positive, got {self.lr}"),
            (self.weight_decay >= 0, f"weight decay must be >= 0, got {self.weight_decay}"),
            (self.iterations >= 0, f"iterations must be >= 0, got {self.iterations}"),
            (self.batch_size >= 1, f"batch size must be >= 1, got {self.batch_size}"),
            (
                0 <= self.tau_bg < self.tau_fg <= 1,
                f"thresholds must satisfy 0 <= tau_bg < tau_fg <= 1, got bg={self.tau_bg} fg={self.tau_fg}",
            ),
            (self.alpha > 0, f"alpha must be positive, got {self.alpha}"),
            (self.topk >= 1, f"topk must be >= 1, got {self.topk}"),
            (self.lam >= 0, f"lambda must be >= 0, got {self.lam}"),
            (self.clusters >= 0, f"clusters must be >= 0, got {self.clusters}"),
            (self.d_proj >= 1 and self.d_dyn >= 1, "adapter dims must be >= 1"),
            (self.fusion_kernel in (1, 3), f"fusion kernel must be 1 or 3, got {self.fusion_kernel}"),
            (self.adapter_init_sigma >= 0, "adapter init sigma must be >= 0"),
            (self.pair_sample_limit >= 1, "pair sample limit must be >= 1"),
        ]
        for ok, msg in checks:
            if not ok:
                raise UsageError(msg)
        self.calibration()

    def calibration(self) -> Calibration:
        """The run's calibrated attention, which static CAMs, training and
        dynamic CAMs all consume; validates `calib_layers` and
        `calib_weights`."""
        return Calibration(layers=self.calib_layers, weights=self.calib_weights)

    def validate(self):
        """Refuses a config without one of the paths a run reads or writes."""
        for key in PATH_KEYS:
            if not getattr(self, key):
                raise UsageError(f"config is missing required path '{key}'")

    def to_dict(self) -> dict:
        return asdict(self) | {"calib_weights": list(self.calib_weights)}

    def settings(self) -> dict:
        """What a run computes: every key but the paths it reads and writes."""
        return {k: v for k, v in self.to_dict().items() if k not in PATH_KEYS}

    def digest(self) -> str:
        # the settings, so one run spelled with other paths, or into
        # another directory, stamps the same provenance; the no-clustering
        # baseline reads no topk, so two such configs that differ only
        # there hash alike
        settings = self.settings()
        if self.clusters == 0:
            del settings["topk"]
        return config_digest(settings)


def _typed(key: str, value, kind):
    """`value` checked against the field type `kind`: ints stay exact,
    floats accept an int or a float and must be finite, and the one tuple
    field takes a list or tuple of 3 finite numbers."""
    if kind is int:
        if not isinstance(value, int) or isinstance(value, bool):
            raise UsageError(f"config key '{key}' must be an integer, got {value!r}")
        return value
    if kind is float:
        if not is_finite_number(value):
            raise UsageError(f"config key '{key}' must be a finite number, got {value!r}")
        return float(value)
    if kind is str:
        if not isinstance(value, str):
            raise UsageError(f"config key '{key}' must be a string, got {value!r}")
        return value
    # calib_weights, the one tuple field
    if not isinstance(value, (list, tuple)) or len(value) != 3 or not all(is_finite_number(w) for w in value):
        raise UsageError(f"config key '{key}' must be a list of 3 finite numbers, got {value!r}")
    return tuple(float(w) for w in value)


def parse_config(mapping: dict) -> PipelineConfig:
    unknown = sorted(set(mapping) - {f.name for f in fields(PipelineConfig)})
    if unknown:
        raise UsageError(f"unknown config keys: {', '.join(unknown)}")
    return PipelineConfig(**mapping)


def load_config(path) -> PipelineConfig:
    path = Path(path)
    cfg = parse_config(read_json_object(path, "config", UsageError))
    base = path.parent
    for key in PATH_KEYS:
        value = getattr(cfg, key)
        if value and not Path(value).is_absolute():
            setattr(cfg, key, str(base / value))
    return cfg
