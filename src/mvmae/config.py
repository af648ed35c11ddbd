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
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

from .errors import ConfigError
from .fileio import read_input

CONFIG_VERSION = 1


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
        m = self.model
        checks = [
            (self.version == CONFIG_VERSION, f"unsupported config version {self.version}"),
            (m.H_i % m.H_t == 0, f"H_i {m.H_i} not divisible by H_t {m.H_t}"),
            (m.W_i % m.W_t == 0, f"W_i {m.W_i} not divisible by W_t {m.W_t}"),
            (1 <= m.K <= m.V, f"K {m.K} outside [1, V={m.V}]"),
            (m.dec_depth < m.enc_depth, f"dec_depth {m.dec_depth} must be below enc_depth {m.enc_depth}"),
            (m.C % 4 == 0, f"token width {m.C} must be divisible by 4"),
            (m.C % m.heads == 0, f"token width {m.C} not divisible by {m.heads} heads"),
            (0.0 < m.m < 1.0, f"mask ratio {m.m} outside (0, 1)"),
            (m.n >= 2, f"patch count {m.n} below 2"),
            (m.k >= 1, f"patch size {m.k} below 1"),
            (m.radius > 1.0, f"camera radius {m.radius} inside the unit sphere"),
            (0.0 < m.fov_deg < 180.0, f"fov {m.fov_deg} outside (0, 180)"),
            (self.data.n_points >= max(m.n, m.k), "cloud smaller than patch layout"),
            (self.data.n_classes >= 1, "need at least one class"),
            (self.data.instances_per_class >= 1, "need at least one instance per class"),
            (self.train.lr > 0.0, f"lr {self.train.lr} must be positive"),
            (self.train.lr_min >= 0.0, f"lr_min {self.train.lr_min} must be non-negative"),
            (self.train.weight_decay >= 0.0, "weight decay must be non-negative"),
            (self.train.epochs >= 1, "epochs must be at least 1"),
            (self.train.batch_size >= 1, "batch size must be at least 1"),
            (self.train.ckpt_every >= 1, "ckpt_every must be at least 1"),
            (self.train.warmup_steps >= 0, "warmup_steps must be non-negative"),
        ]
        for ok, message in checks:
            if not ok:
                raise ConfigError(message)
        return self

    def canonical_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, separators=(",", ":"))

    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical_json().encode("ascii")).hexdigest()


def config_from_dict(raw: dict) -> Config:
    try:
        cfg = Config(
            version=raw.get("version", CONFIG_VERSION),
            model=ModelConfig(**raw.get("model", {})),
            train=TrainConfig(**raw.get("train", {})),
            data=DataConfig(**raw.get("data", {})),
        )
    except TypeError as exc:  # unknown field names
        raise ConfigError(f"bad config structure: {exc}") from exc
    return cfg.validate()


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
