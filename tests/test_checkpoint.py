import math
import struct
import tempfile
from functools import cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvmae.autodiff import backward
from mvmae.autodiff.optim import AdamWState, adamw_step
from mvmae.checkpoint import (
    CHECKPOINT_VERSION,
    MAGIC,
    _Reader,
    _Writer,
    load_checkpoint,
    restore_params,
    save_checkpoint,
)
from mvmae.config import tiny_config
from mvmae.data import SyntheticShape, generate_shape
from mvmae.errors import CheckpointError
from mvmae.model import MultiviewMae, forward_pretrain
from mvmae.rng import Rng


def trained_state(steps=3, seed=0):
    cfg = tiny_config()
    model = MultiviewMae(cfg.model, Rng(seed).derive("init"))
    opt = AdamWState(lr=cfg.train.lr, weight_decay=cfg.train.weight_decay)
    cloud = generate_shape(SyntheticShape(kind="torus", n_points=64, seed=1))
    for step in range(steps):
        for p in model.params.values():
            p.grad = None
        loss, _, _ = forward_pretrain(model, cloud, Rng(seed).derive("s", step))
        backward(loss)
        adamw_step(model.params, opt, 1e-3)
    return cfg, model, opt


def save_state(path, cfg, model, opt, step=3, rng_state=None):
    save_checkpoint(
        path,
        cfg,
        {name: p.data for name, p in model.params.items()},
        opt,
        step,
        rng_state if rng_state is not None else {"run_seed": 7},
    )


def test_round_trip_bit_exact(tmp_path):
    cfg, model, opt = trained_state()
    path = tmp_path / "a.ckpt"
    save_state(path, cfg, model, opt)
    ckpt = load_checkpoint(path)
    assert ckpt.version == CHECKPOINT_VERSION
    assert ckpt.config == cfg
    assert ckpt.step == 3
    assert ckpt.rng_state == {"run_seed": 7}
    assert set(ckpt.params) == set(model.params)
    for name, p in model.params.items():
        np.testing.assert_array_equal(ckpt.params[name], p.data)
    assert ckpt.opt.step == opt.step
    assert ckpt.opt.betas == opt.betas
    for name in opt.m:
        np.testing.assert_array_equal(ckpt.opt.m[name], opt.m[name])
        np.testing.assert_array_equal(ckpt.opt.v[name], opt.v[name])
        assert np.abs(opt.m[name]).sum() > 0  # moments actually exercised


def test_save_load_save_byte_identical(tmp_path):
    cfg, model, opt = trained_state()
    first = tmp_path / "a.ckpt"
    save_state(first, cfg, model, opt)
    ckpt = load_checkpoint(first)
    second = tmp_path / "b.ckpt"
    save_checkpoint(second, ckpt.config, ckpt.params, ckpt.opt, ckpt.step, ckpt.rng_state)
    assert first.read_bytes() == second.read_bytes()


def test_checkpoints_at_different_steps_differ(tmp_path):
    cfg, model3, _ = trained_state(steps=3)
    _, model5, _ = trained_state(steps=5)
    deltas = [
        np.abs(model3.params[n].data - model5.params[n].data).max()
        for n in model3.params
    ]
    assert max(deltas) > 0


def test_missing_file():
    with pytest.raises(CheckpointError, match="not found"):
        load_checkpoint("/nonexistent/x.ckpt")


def test_bad_magic(tmp_path):
    cfg, model, opt = trained_state(steps=1)
    path = tmp_path / "a.ckpt"
    save_state(path, cfg, model, opt)
    blob = bytearray(path.read_bytes())
    blob[0] = ord("X")
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match=r"magic.*byte 0"):
        load_checkpoint(path)


def test_version_mismatch(tmp_path):
    cfg, model, opt = trained_state(steps=1)
    path = tmp_path / "a.ckpt"
    save_state(path, cfg, model, opt)
    blob = bytearray(path.read_bytes())
    blob[6:10] = (99).to_bytes(4, "little")
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="version 99"):
        load_checkpoint(path)


def test_truncation_errors_with_offset(tmp_path):
    cfg, model, opt = trained_state(steps=1)
    path = tmp_path / "a.ckpt"
    save_state(path, cfg, model, opt)
    blob = path.read_bytes()
    cut_path = tmp_path / "cut.ckpt"
    cuts = set(range(min(600, len(blob))))  # full header region
    cuts.update(range(0, len(blob), 997))
    cuts.update(np.random.default_rng(0).integers(0, len(blob), 200).tolist())
    for cut in sorted(cuts):
        cut_path.write_bytes(blob[:cut])
        with pytest.raises(CheckpointError, match="byte"):
            load_checkpoint(cut_path)


def test_trailing_bytes_rejected(tmp_path):
    cfg, model, opt = trained_state(steps=1)
    path = tmp_path / "a.ckpt"
    save_state(path, cfg, model, opt)
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(CheckpointError, match="trailing"):
        load_checkpoint(path)


def test_unknown_dtype_tag(tmp_path):
    w = _Writer()
    w.raw(MAGIC)
    w.u32(CHECKPOINT_VERSION)
    cfg = tiny_config()
    w.sized(cfg.canonical_json().encode())
    w.u32(1)
    name = b"p"
    w.u32(len(name))
    w.raw(name)
    w.u8(7)  # not a known tag
    path = tmp_path / "bad.ckpt"
    path.write_bytes(w.blob())
    with pytest.raises(CheckpointError, match="dtype tag 7"):
        load_checkpoint(path)


def test_duplicate_parameter_rejected(tmp_path):
    w = _Writer()
    w.raw(MAGIC)
    w.u32(CHECKPOINT_VERSION)
    w.sized(tiny_config().canonical_json().encode())
    w.u32(2)
    w.array("p", np.zeros(2))
    w.array("p", np.ones(2))
    path = tmp_path / "dup.ckpt"
    path.write_bytes(w.blob())
    with pytest.raises(CheckpointError, match="duplicate"):
        load_checkpoint(path)


def single_record(name: bytes, dims: tuple[int, ...], payload: bytes) -> bytes:
    w = _Writer()
    w.raw(MAGIC)
    w.u32(CHECKPOINT_VERSION)
    w.sized(tiny_config().canonical_json().encode())
    w.u32(1)
    w.u32(len(name))
    w.raw(name)
    w.u8(0)
    w.u32(len(dims))
    for dim in dims:
        w.u64(dim)
    w.raw(payload)
    return w.blob()


def test_huge_dims_rejected(tmp_path):
    # 2**62 * 4 wraps to 0 in int64 arithmetic
    path = tmp_path / "huge.ckpt"
    path.write_bytes(single_record(b"p", (2**62, 4), bytes(64)))
    with pytest.raises(CheckpointError, match="truncated"):
        load_checkpoint(path)


def test_non_utf8_name_rejected(tmp_path):
    path = tmp_path / "name.ckpt"
    path.write_bytes(single_record(b"\xff\xfe", (1,), bytes(8)))
    with pytest.raises(CheckpointError, match="utf-8"):
        load_checkpoint(path)


@cache
def fuzz_base() -> tuple[bytes, tuple[int, ...], tuple[range, ...]]:
    """A saved checkpoint, the byte offset of every u64 dim field and the
    byte ranges of its three JSON blocks."""
    cfg, model, opt = trained_state(steps=1)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "a.ckpt"
        save_state(path, cfg, model, opt)
        blob = path.read_bytes()
    r = _Reader(blob)
    offsets = []
    spans = []

    def json_block():
        size = r.u32()
        spans.append(range(r.offset, r.offset + size))
        r.take(size)

    def record():
        r.take(r.u32())
        r.u8()
        rank = r.u32()
        offsets.extend(r.offset + 8 * i for i in range(rank))
        r.take(8 * math.prod(r.u64() for _ in range(rank)))

    r.take(len(MAGIC))
    r.u32()
    json_block()
    for _ in range(r.u32()):
        record()
    json_block()
    for _ in range(r.u32()):
        record()
        record()
    r.u64()
    json_block()
    return blob, tuple(offsets), tuple(spans)


@settings(max_examples=200, deadline=None)
@given(
    cut=st.none() | st.floats(0.0, 1.0, exclude_max=True),
    dim=st.none() | st.tuples(
        st.integers(0, 10**6),
        st.one_of(st.integers(0, 2**64 - 1), st.sampled_from([0, 1, 2**61, 2**62, 2**63])),
    ),
    flips=st.lists(st.tuples(st.floats(0.0, 1.0, exclude_max=True), st.integers(0, 7)), max_size=3),
    json_flip=st.none() | st.tuples(st.integers(0, 2), st.integers(0, 10**6), st.integers(0, 7)),
)
def test_malformed_checkpoint_only_raises_checkpoint_error(cut, dim, flips, json_flip):
    blob, offsets, spans = fuzz_base()
    if dim is not None:
        at = offsets[dim[0] % len(offsets)]
        blob = blob[:at] + struct.pack("<Q", dim[1]) + blob[at + 8 :]
    raw = bytearray(blob)
    for where, bit in flips:
        raw[int(where * len(raw))] ^= 1 << bit
    if json_flip is not None:
        block, where, bit = json_flip
        raw[spans[block][where % len(spans[block])]] ^= 1 << bit
    blob = bytes(raw)
    if cut is not None:
        blob = blob[: int(cut * len(blob))]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.ckpt"
        path.write_bytes(blob)
        try:
            load_checkpoint(path)
        except CheckpointError:
            pass


def test_restore_params_round_trip(tmp_path):
    cfg, model, opt = trained_state()
    path = tmp_path / "a.ckpt"
    save_state(path, cfg, model, opt)
    ckpt = load_checkpoint(path)
    fresh = MultiviewMae(cfg.model, Rng(99).derive("init"))
    restore_params(fresh.params, ckpt)
    for name, p in model.params.items():
        np.testing.assert_array_equal(fresh.params[name].data, p.data)


def test_restore_params_mismatch_mutates_nothing(tmp_path):
    cfg, model, opt = trained_state(steps=1)
    path = tmp_path / "a.ckpt"
    save_state(path, cfg, model, opt)
    ckpt = load_checkpoint(path)
    del ckpt.params["head3d.bias"]
    fresh = MultiviewMae(cfg.model, Rng(99).derive("init"))
    before = {n: p.data.copy() for n, p in fresh.params.items()}
    with pytest.raises(CheckpointError, match="head3d.bias"):
        restore_params(fresh.params, ckpt)
    for name, p in fresh.params.items():
        np.testing.assert_array_equal(p.data, before[name])


def test_restore_params_shape_guard(tmp_path):
    cfg, model, opt = trained_state(steps=1)
    path = tmp_path / "a.ckpt"
    save_state(path, cfg, model, opt)
    ckpt = load_checkpoint(path)
    ckpt.params["head3d.bias"] = np.zeros(5)
    fresh = MultiviewMae(cfg.model, Rng(99).derive("init"))
    before = {n: p.data.copy() for n, p in fresh.params.items()}
    with pytest.raises(CheckpointError, match="shape"):
        restore_params(fresh.params, ckpt)
    for name, p in fresh.params.items():
        np.testing.assert_array_equal(p.data, before[name])


def test_header_layout_golden(tmp_path):
    cfg, model, opt = trained_state(steps=1)
    path = tmp_path / "a.ckpt"
    save_state(path, cfg, model, opt)
    blob = path.read_bytes()
    assert blob[:6] == b"MVMAE\x00"
    assert int.from_bytes(blob[6:10], "little") == CHECKPOINT_VERSION
    json_len = int.from_bytes(blob[10:14], "little")
    assert blob[14 : 14 + json_len] == cfg.canonical_json().encode()
    n_params = int.from_bytes(blob[14 + json_len : 18 + json_len], "little")
    assert n_params == len(model.params)
    # first record is the alphabetically first parameter, little-endian f64
    first = sorted(model.params)[0]
    off = 18 + json_len
    name_len = int.from_bytes(blob[off : off + 4], "little")
    assert blob[off + 4 : off + 4 + name_len].decode() == first
    off += 4 + name_len
    assert blob[off] == 0  # dtype tag
    rank = int.from_bytes(blob[off + 1 : off + 5], "little")
    shape = model.params[first].data.shape
    assert rank == len(shape)
    off += 5
    for dim in shape:
        assert int.from_bytes(blob[off : off + 8], "little") == dim
        off += 8
    raw = np.frombuffer(blob[off : off + model.params[first].data.size * 8], "<f8")
    np.testing.assert_array_equal(raw.reshape(shape), model.params[first].data)
