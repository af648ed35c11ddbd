"""Binary checkpoint serialization.

Little-endian layout:

    magic "MVMAE\\0" | u32 format version
    u32 length | canonical config JSON (utf-8)
    u32 count  | per parameter: array record
    u32 length | optimizer hyperparameter JSON
    u32 count  | per parameter: two array records (first moment, second moment)
    u64 step
    u32 length | rng/bookkeeping JSON

An array record is: u32 name length, name (utf-8), u8 dtype tag (0 =
float64), u32 rank, rank x u64 dims, then the raw little-endian float64
buffer in C order. Records are written in sorted name order so that
save -> load -> save reproduces the file byte for byte.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .autodiff.optim import AdamWState
from .config import Config, config_from_dict
from .errors import CheckpointError

MAGIC = b"MVMAE\x00"
CHECKPOINT_VERSION = 1
_DTYPE_F64 = 0


@dataclass
class Checkpoint:
    version: int
    config: Config
    params: dict[str, np.ndarray]
    opt: AdamWState
    step: int
    rng_state: dict


class _Writer:
    def __init__(self):
        self.chunks: list[bytes] = []

    def raw(self, data: bytes) -> None:
        self.chunks.append(data)

    def u8(self, value: int) -> None:
        self.raw(struct.pack("<B", value))

    def u32(self, value: int) -> None:
        self.raw(struct.pack("<I", value))

    def u64(self, value: int) -> None:
        self.raw(struct.pack("<Q", value))

    def sized(self, data: bytes) -> None:
        self.u32(len(data))
        self.raw(data)

    def array(self, name: str, values: np.ndarray) -> None:
        encoded = name.encode("utf-8")
        self.u32(len(encoded))
        self.raw(encoded)
        self.u8(_DTYPE_F64)
        self.u32(values.ndim)
        for dim in values.shape:
            self.u64(dim)
        self.raw(np.ascontiguousarray(values, dtype="<f8").tobytes())

    def blob(self) -> bytes:
        return b"".join(self.chunks)


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.offset = 0

    def fail(self, message: str) -> "CheckpointError":
        return CheckpointError(f"{message} (at byte {self.offset})")

    def take(self, size: int) -> bytes:
        if self.offset + size > len(self.data):
            raise self.fail(
                f"truncated: wanted {size} bytes, "
                f"{len(self.data) - self.offset} remain"
            )
        out = self.data[self.offset : self.offset + size]
        self.offset += size
        return out

    def u8(self) -> int:
        return struct.unpack("<B", self.take(1))[0]

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def u64(self) -> int:
        return struct.unpack("<Q", self.take(8))[0]

    def sized(self) -> bytes:
        return self.take(self.u32())

    def json_block(self, what: str) -> dict:
        raw = self.sized()
        try:
            parsed = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise self.fail(f"unreadable {what} JSON: {exc}") from exc
        if not isinstance(parsed, dict):
            raise self.fail(f"{what} JSON must hold an object")
        return parsed

    def array(self) -> tuple[str, np.ndarray]:
        try:
            name = self.take(self.u32()).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise self.fail(f"parameter name is not utf-8: {exc}") from exc
        tag = self.u8()
        if tag != _DTYPE_F64:
            raise self.fail(f"unknown dtype tag {tag} for {name}")
        rank = self.u32()
        shape = tuple(self.u64() for _ in range(rank))
        # exact integer product: a numpy int64 product can wrap on huge dims
        buf = self.take(math.prod(shape) * 8)
        values = np.frombuffer(buf, dtype="<f8").astype(np.float64).reshape(shape)
        return name, values

    def done(self) -> None:
        if self.offset != len(self.data):
            raise self.fail(f"{len(self.data) - self.offset} trailing bytes")


def _canonical(obj: dict) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")


def save_checkpoint(
    path: str | Path,
    config: Config,
    params: dict[str, np.ndarray],
    opt: AdamWState,
    step: int,
    rng_state: dict,
) -> None:
    w = _Writer()
    w.raw(MAGIC)
    w.u32(CHECKPOINT_VERSION)
    w.sized(config.canonical_json().encode("utf-8"))

    names = sorted(params)
    w.u32(len(names))
    for name in names:
        w.array(name, np.asarray(params[name], dtype=np.float64))

    hypers = {
        "lr": opt.lr,
        "betas": list(opt.betas),
        "eps": opt.eps,
        "weight_decay": opt.weight_decay,
        "step": opt.step,
    }
    w.sized(_canonical(hypers))
    moment_names = sorted(opt.m)
    w.u32(len(moment_names))
    for name in moment_names:
        w.array(name, opt.m[name])
        w.array(name, opt.v[name])

    w.u64(step)
    w.sized(_canonical(rng_state))
    Path(path).write_bytes(w.blob())


def load_checkpoint(path: str | Path) -> Checkpoint:
    path = Path(path)
    if not path.exists():
        raise CheckpointError(f"checkpoint not found: {path}")
    r = _Reader(path.read_bytes())

    if r.take(len(MAGIC)) != MAGIC:
        r.offset = 0
        raise r.fail("bad magic, not a checkpoint file")
    version = r.u32()
    if version != CHECKPOINT_VERSION:
        r.offset = len(MAGIC)
        raise r.fail(
            f"format version {version} unsupported (expected {CHECKPOINT_VERSION})"
        )
    try:
        config = config_from_dict(r.json_block("config"))
    except (TypeError, ValueError) as exc:  # ConfigError is a ValueError
        raise r.fail(f"invalid config: {exc}") from exc

    params: dict[str, np.ndarray] = {}
    for _ in range(r.u32()):
        name, values = r.array()
        if name in params:
            raise r.fail(f"duplicate parameter {name}")
        params[name] = values

    hypers = r.json_block("optimizer")
    try:
        opt = AdamWState(
            lr=float(hypers["lr"]),
            betas=tuple(float(b) for b in hypers["betas"]),
            eps=float(hypers["eps"]),
            weight_decay=float(hypers["weight_decay"]),
            step=int(hypers["step"]),
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise r.fail(f"invalid optimizer hyperparameters: {exc!r}") from exc
    for _ in range(r.u32()):
        name_m, m = r.array()
        name_v, v = r.array()
        if name_m != name_v:
            raise r.fail(f"moment pair mismatch: {name_m} vs {name_v}")
        if name_m not in params:
            raise r.fail(f"moments for unknown parameter {name_m}")
        opt.m[name_m] = m
        opt.v[name_m] = v

    step = r.u64()
    rng_state = r.json_block("rng state")
    r.done()
    return Checkpoint(
        version=version,
        config=config,
        params=params,
        opt=opt,
        step=step,
        rng_state=rng_state,
    )


def restore_params(model_params: dict, ckpt: Checkpoint) -> None:
    """Copy checkpoint arrays into live parameters; validates first so a
    mismatch mutates nothing."""
    missing = sorted(set(model_params) - set(ckpt.params))
    extra = sorted(set(ckpt.params) - set(model_params))
    if missing or extra:
        raise CheckpointError(
            f"parameter set mismatch: missing {missing}, unexpected {extra}"
        )
    for name, p in model_params.items():
        if p.data.shape != ckpt.params[name].shape:
            raise CheckpointError(
                f"shape mismatch for {name}: "
                f"{p.data.shape} vs {ckpt.params[name].shape}"
            )
    for name, p in model_params.items():
        p.data[...] = ckpt.params[name]
