"""Binary checkpoint serialization.

Little-endian layout:

    magic "MVMAE\\0" | u32 format version
    u32 length | canonical config JSON (utf-8)
    u32 count  | per parameter: array record
    u32 count  | per parameter: two array records (AdamW first, second moment)
    u64 step   | AdamW updates taken
    u32 length | bookkeeping JSON (run seed, total steps, each step's losses)

The file holds no optimizer settings: the rate, the decay and the
schedule come from the config block, and AdamW's betas and eps are
constants of `autodiff.optim`.

An array record is: u32 name length, name (utf-8), u8 dtype tag (0 =
float64), u32 rank, rank x u64 dims, then the raw little-endian float64
buffer in C order. Records are written in sorted name order so that
save -> load -> save reproduces the file byte for byte.
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO

import numpy as np

from .autodiff.optim import AdamWState
from .config import Config, config_from_dict
from .errors import CheckpointError
from .fileio import open_input, write_atomic

MAGIC = b"MVMAE\x00"
CHECKPOINT_VERSION = 2
_DTYPE_F64 = 0


@dataclass
class Checkpoint:
    config: Config
    params: dict[str, np.ndarray]
    opt: AdamWState
    bookkeeping: dict  # run_seed, total_steps and losses ([l3d, l2d] per step)

    @property
    def step(self) -> int:
        return self.opt.step


class _Reader:
    """Fields and records read in file order from an open binary file of
    `size` bytes. Every read is checked against the bytes that remain
    before anything is allocated for it."""

    def __init__(self, fh: BinaryIO, size: int):
        self.fh = fh
        self.size = size
        self.offset = 0

    def fail(self, message: str) -> "CheckpointError":
        return CheckpointError(f"{message} (at byte {self.offset})")

    def _truncated(self, size: int) -> "CheckpointError":
        return self.fail(f"truncated: wanted {size} bytes, {self.size - self.offset} remain")

    def take(self, size: int) -> bytes:
        if self.offset + size > self.size:
            raise self._truncated(size)
        out = self.fh.read(size)
        if len(out) != size:  # the file shrank after it was opened
            raise self._truncated(size)
        self.offset += size
        return out

    def unpack(self, fmt: str) -> int:
        """One little-endian field of struct format `fmt`: "B", "I" or "Q"."""
        (value,) = struct.unpack("<" + fmt, self.take(struct.calcsize("<" + fmt)))
        return value

    def sized(self) -> bytes:
        return self.take(self.unpack("I"))

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
        """One array record. Its payload is read from the file straight
        into the array that is returned: nothing is copied."""
        try:
            name = self.take(self.unpack("I")).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise self.fail(f"parameter name is not utf-8: {exc}") from exc
        tag = self.unpack("B")
        if tag != _DTYPE_F64:
            raise self.fail(f"unknown dtype tag {tag} for {name}")
        rank = self.unpack("I")
        shape = struct.unpack(f"<{rank}Q", self.take(8 * rank))
        # exact integer product (a numpy int64 product can wrap on huge
        # dims), checked before it grows past the bytes left
        left = self.size - self.offset
        count = 0 if 0 in shape else 1
        for n in shape:
            count *= n
            if count * 8 > left:
                raise self.fail(f"truncated: {name} ({rank} dims) needs more than {left} bytes")
        values = np.empty(shape, dtype="<f8")
        if self.fh.readinto(values) != values.nbytes:  # the file shrank after it was opened
            raise self._truncated(values.nbytes)
        self.offset += values.nbytes
        return name, values

    def done(self) -> None:
        if self.offset != self.size:
            raise self.fail(f"{self.size - self.offset} trailing bytes")


def _canonical(obj: dict) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")


def _sized(data: bytes) -> list[bytes]:
    return [struct.pack("<I", len(data)), data]


def _record(name: str, values: np.ndarray) -> list:
    """An array record as [header, payload]. The payload is the array itself
    when it is C-contiguous little-endian float64, so nothing is copied. The
    rank and dims are read first: `ascontiguousarray` makes a 0-d array 1-d."""
    encoded = name.encode("utf-8")
    rank = values.ndim
    header = struct.pack(
        f"<I{len(encoded)}sBI{rank}Q", len(encoded), encoded, _DTYPE_F64, rank, *values.shape
    )
    return [header, np.ascontiguousarray(values, dtype="<f8")]


def save_checkpoint(
    path: str | Path,
    config: Config,
    params: dict[str, np.ndarray],
    opt: AdamWState,
    bookkeeping: dict,
) -> None:
    chunks = [MAGIC, struct.pack("<I", CHECKPOINT_VERSION)]
    chunks += _sized(config.canonical_json().encode("utf-8"))
    chunks.append(struct.pack("<I", len(params)))
    for name in sorted(params):
        chunks += _record(name, np.asarray(params[name], dtype=np.float64))
    chunks.append(struct.pack("<I", len(opt.m)))
    for name in sorted(opt.m):
        chunks += _record(name, opt.m[name]) + _record(name, opt.v[name])
    chunks.append(struct.pack("<Q", opt.step))
    chunks += _sized(_canonical(bookkeeping))
    write_atomic(path, chunks)


def load_checkpoint(path: str | Path) -> Checkpoint:
    """Read a checkpoint file record by record: each array is read from the
    file into its own buffer, so loading holds about the file's size."""
    with open_input(path, CheckpointError, "checkpoint") as fh:
        r = _Reader(fh, os.fstat(fh.fileno()).st_size)
        if r.take(len(MAGIC)) != MAGIC:
            r.offset = 0
            raise r.fail("bad magic, not a checkpoint file")
        version = r.unpack("I")
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
        for _ in range(r.unpack("I")):
            name, values = r.array()
            if name in params:
                raise r.fail(f"duplicate parameter {name}")
            params[name] = values

        opt = AdamWState()
        for _ in range(r.unpack("I")):
            name_m, m = r.array()
            name_v, v = r.array()
            if name_m != name_v:
                raise r.fail(f"moment pair mismatch: {name_m} vs {name_v}")
            if name_m not in params:
                raise r.fail(f"moments for unknown parameter {name_m}")
            if not m.shape == v.shape == params[name_m].shape:
                shapes = f"{m.shape}, {v.shape} vs {params[name_m].shape}"
                raise r.fail(f"moment shapes of {name_m} differ from the parameter: {shapes}")
            opt.m[name_m] = m
            opt.v[name_m] = v

        opt.step = r.unpack("Q")
        bookkeeping = r.json_block("bookkeeping")
        r.done()
        return Checkpoint(config=config, params=params, opt=opt, bookkeeping=bookkeeping)
