"""Run configuration: dataclasses, JSON round-trip, validation, presets.

Three presets ship with the package: `tiny` sized for the exhaustive
finite-difference gradient check, `desk` sized for CPU training runs, and
`paper` carrying the full-scale hyperparameters. The canonical JSON form
(sorted keys, fixed separators) feeds both the config hash and the
checkpoint header.
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

from .data import MIN_POINTS, SHAPE_KINDS
from .errors import ConfigError
from .fileio import read_input
from .projection import CLIP_MARGIN
from .tokenizer import round_half_up

CONFIG_VERSION = 1
# integer fields that may be 0; every other integer field must be positive
_MAY_BE_ZERO = {"dec_depth", "warmup_steps", "dataset_seed"}


@dataclass(frozen=True)
class ModelConfig:
    C: int = 64  # token width
    enc_depth: int = 4
    dec_depth: int = 2
    heads: int = 4
    n: int = 64  # patches per cloud
    k: int = 32  # points per patch
    m: float = 0.75  # mask ratio
    V: int = 12  # pose pool size
    K: int = 3  # reconstructed views per sample
    H_i: int = 64  # depth image rows
    W_i: int = 64
    H_t: int = 8  # token grid rows
    W_t: int = 8
    elevation_deg: float = 30.0
    radius: float = 2.2
    fov_deg: float = 50.0


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 1e-3
    lr_min: float = 0.0
    weight_decay: float = 0.05
    warmup_steps: int = 0
    epochs: int = 30
    batch_size: int = 8
    ckpt_every: int = 200  # steps between periodic checkpoints

    def total_steps(self, n_clouds: int) -> int:
        """Steps in a run over n_clouds: a short last batch is a step."""
        return self.epochs * -(-n_clouds // self.batch_size)


@dataclass(frozen=True)
class DataConfig:
    n_points: int = 1024
    n_classes: int = 5
    instances_per_class: int = 200
    dataset_seed: int = 0


@dataclass(frozen=True)
class Config:
    version: int = CONFIG_VERSION
    model: ModelConfig = field(default_factory=ModelConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    data: DataConfig = field(default_factory=DataConfig)

    def validate(self) -> "Config":
        if type(self.version) is not int or self.version != CONFIG_VERSION:
            raise ConfigError(f"unsupported config version {self.version!r}")
        # each field's type and sign first: the checks below divide by some
        for section in ("model", "train", "data"):
            part = getattr(self, section)
            for f in fields(part):
                _check_field(section, f.name, f.type, getattr(part, f.name))
        m, t, d = self.model, self.train, self.data
        # before n_masked: m·n overflows to inf for a finite m near float max
        if not 0.0 < m.m < 1.0:
            raise ConfigError(f"mask ratio {m.m} outside (0, 1)")
        n_masked = round_half_up(m.m * m.n)
        min_points = max(m.n, m.k, MIN_POINTS)
        total_steps = t.total_steps(d.n_classes * d.instances_per_class)
        checks = [
            (m.H_i % m.H_t == 0, f"H_i {m.H_i} not divisible by H_t {m.H_t}"),
            (m.W_i % m.W_t == 0, f"W_i {m.W_i} not divisible by W_t {m.W_t}"),
            (m.K <= m.V, f"K {m.K} outside [1, V={m.V}]"),
            (m.dec_depth < m.enc_depth, f"dec_depth {m.dec_depth} must be below enc_depth {m.enc_depth}"),
            (m.C % 4 == 0, f"token width {m.C} must be divisible by 4"),
            (m.C % m.heads == 0, f"token width {m.C} not divisible by {m.heads} heads"),
            (n_masked >= 1, f"mask ratio {m.m} leaves no masked patches at n={m.n}"),
            (n_masked < m.n, f"mask ratio {m.m} leaves no visible patches at n={m.n}"),
            (m.radius > CLIP_MARGIN, f"camera radius {m.radius} puts the near plane behind the camera"),
            (0.0 < m.fov_deg < 180.0, f"fov {m.fov_deg} outside (0, 180)"),
            (d.n_points >= min_points, f"n_points {d.n_points} below {min_points}"),
            (d.n_classes <= len(SHAPE_KINDS), f"at most {len(SHAPE_KINDS)} classes available, got {d.n_classes}"),
            (t.lr > 0.0, f"lr {t.lr} must be positive"),
            (t.lr_min >= 0.0, f"lr_min {t.lr_min} must be non-negative"),
            (t.weight_decay >= 0.0, "weight decay must be non-negative"),
            (t.warmup_steps < total_steps, f"warmup_steps {t.warmup_steps} must be below the run's {total_steps} steps"),
        ]
        for ok, message in checks:
            if not ok:
                raise ConfigError(message)
        return self

    def canonical_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, separators=(",", ":"))

    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical_json().encode("ascii")).hexdigest()


def _check_field(section: str, name: str, kind: str, value) -> None:
    """An int field holds an int (not a bool or a float) at least 1, or 0
    where _MAY_BE_ZERO allows; a float field holds a finite number, an int
    within a float's range included."""
    if kind == "int":
        low = 0 if name in _MAY_BE_ZERO else 1
        if not isinstance(value, int) or isinstance(value, bool) or value < low:
            raise ConfigError(
                f"{section}.{name} must be an integer >= {low}, got {value!r}"
            )
    elif (
        not isinstance(value, (int, float))
        or isinstance(value, bool)
        or not abs(value) <= sys.float_info.max  # NaN compares false
    ):
        raise ConfigError(f"{section}.{name} must be a finite number, got {value!r}")


def config_from_dict(raw: dict) -> Config:
    unknown = sorted(set(raw) - {f.name for f in fields(Config)})
    if unknown:
        raise ConfigError(f"unknown config sections {unknown}")
    try:
        cfg = Config(
            version=raw.get("version", CONFIG_VERSION),
            model=ModelConfig(**raw.get("model", {})),
            train=TrainConfig(**raw.get("train", {})),
            data=DataConfig(**raw.get("data", {})),
        )
    except TypeError as exc:  # unknown field names
        raise ConfigError(f"bad config structure: {exc}") from exc
    cfg.validate()
    # a float field spelled as an integer holds that float, so "lr_min": 0
    # hashes as "lr_min": 0.0 does; validate kept it within a float's range
    return replace(cfg, **{
        section: replace(part, **{
            f.name: float(getattr(part, f.name)) for f in fields(part) if f.type == "float"
        })
        for section, part in (("model", cfg.model), ("train", cfg.train), ("data", cfg.data))
    })


def load_config(path: str | Path) -> Config:
    try:
        raw = json.loads(read_input(path, ConfigError, "config file"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path} must hold a JSON object")
    return config_from_dict(raw)


def tiny_config() -> Config:
    """Smallest config that exercises every code path; sized so the full
    finite-difference gradient check stays under a minute."""
    return Config(
        model=ModelConfig(
            C=16, enc_depth=2, dec_depth=1, heads=2, n=8, k=4, m=0.75,
            V=4, K=2, H_i=16, W_i=16, H_t=4, W_t=4,
        ),
        train=TrainConfig(lr=1e-3, epochs=2, batch_size=2, ckpt_every=4),
        data=DataConfig(n_points=64, instances_per_class=4),
    ).validate()


def desk_config() -> Config:
    """CPU-scale training preset."""
    return Config().validate()


def paper_config() -> Config:
    """Full-scale hyperparameters; not intended for CPU runs."""
    return Config(
        model=ModelConfig(
            C=384, enc_depth=12, dec_depth=4, heads=6, n=64, k=32, m=0.75,
            V=12, K=3, H_i=224, W_i=224, H_t=14, W_t=14,
        ),
        train=TrainConfig(
            lr=2e-4, weight_decay=0.05, epochs=300, batch_size=128,
            ckpt_every=1000,
        ),
        data=DataConfig(n_points=1024),
    ).validate()


PRESETS = {"tiny": tiny_config, "desk": desk_config, "paper": paper_config}


def preset_or_file(spec: str | Path) -> Config:
    """A preset name or a JSON file path, whichever matches."""
    if isinstance(spec, str) and spec in PRESETS:
        return PRESETS[spec]()
    return load_config(spec)


__all__ = [
    "CONFIG_VERSION", "Config", "DataConfig", "ModelConfig", "TrainConfig",
    "config_from_dict", "desk_config", "load_config", "paper_config",
    "preset_or_file", "replace", "tiny_config",
]
