"""Pipeline configuration: one flat JSON object, validated strictly.

Path keys (weights, knowledge, dataset, out_dir) plus the policy selector
sit alongside every training field; unknown keys are rejected so typos
never silently fall back to defaults, and every value is type- and
range-checked where it is parsed. The config hash in every artifact's
provenance is the digest of the full flat mapping.
"""

import dataclasses
from dataclasses import dataclass, field
from pathlib import Path

from .blobio import is_finite_number, read_json_object, write_json
from .encoder import Calibration, named_calibration
from .errors import UsageError
from .hashing import config_digest
from .training_eval import TrainConfig

PATH_KEYS = ("weights", "knowledge", "dataset", "out_dir")


@dataclass
class PipelineConfig:
    weights: str = ""
    knowledge: str = ""
    dataset: str = ""
    out_dir: str = ""
    policy: str = "intra_correlation"
    train: TrainConfig = field(default_factory=TrainConfig)

    @property
    def seed(self) -> int:
        return self.train.seed

    def static_policy(self) -> Calibration:
        """Attention of the exported static stage, named by `policy`.
        Training and dynamic CAMs use `train.calibration()` whatever this
        selects."""
        return named_calibration(self.policy, self.train.calibration())

    def __post_init__(self):
        """Values are checked where a config is made, so every command refuses the same ones."""
        self.train.validate()
        self.static_policy()

    def validate(self):
        """Refuses a config without one of the paths a run reads or writes."""
        for key in PATH_KEYS:
            if not getattr(self, key):
                raise UsageError(f"config is missing required path '{key}'")

    def to_dict(self) -> dict:
        out = {"policy": self.policy, "seed": self.train.seed}
        for key in PATH_KEYS:
            out[key] = getattr(self, key)
        train = self.train.to_dict()
        train.pop("seed")
        out.update(train)
        return out

    def digest(self) -> str:
        # identifies the computation: out_dir is where results land, not
        # part of what they are, so identical runs into different
        # directories stamp identical provenance
        mapping = {k: v for k, v in self.to_dict().items() if k != "out_dir"}
        return config_digest(mapping)


_TRAIN_TYPES = {f.name: f.type for f in dataclasses.fields(TrainConfig)}
_STR_KEYS = (*PATH_KEYS, "policy")


def _typed(key: str, value, kind):
    """`value` checked against the field type `kind`; ints stay exact,
    floats accept either finite JSON number (the parser also reads
    `Infinity` and `NaN`)."""
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
    known = set(_STR_KEYS) | set(_TRAIN_TYPES)
    unknown = sorted(set(mapping) - known)
    if unknown:
        raise UsageError(f"unknown config keys: {', '.join(unknown)}")
    train = {k: _typed(k, mapping[k], kind) for k, kind in _TRAIN_TYPES.items() if k in mapping}
    paths = {k: _typed(k, mapping[k], str) for k in _STR_KEYS if k in mapping}
    return PipelineConfig(**paths, train=TrainConfig(**train))


def load_config(path) -> PipelineConfig:
    path = Path(path)
    cfg = parse_config(read_json_object(path, "config", UsageError))
    base = path.parent
    for key in PATH_KEYS:
        value = getattr(cfg, key)
        if value and not Path(value).is_absolute():
            setattr(cfg, key, str(base / value))
    return cfg


def save_config(path, cfg: PipelineConfig) -> Path:
    return write_json(path, cfg.to_dict())
