import dataclasses
import io
import math
import re
import struct
import tempfile
from functools import cache
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvmae import checkpoint
from mvmae.autodiff.optim import AdamWState, adamw_step
from mvmae.checkpoint import (
    CHECKPOINT_VERSION,
    MAGIC,
    _Reader,
    _record,
    load_checkpoint,
    save_checkpoint,
)
from mvmae.config import desk_config, tiny_config
from mvmae.data import SyntheticShape, generate_shape
from mvmae.errors import CheckpointError
from mvmae.model import MultiviewMae, build_pretrain_plan
from mvmae.pipeline import load_pretrained, step_gradients
from mvmae.rng import Rng

from oracles import checkpoint_by_join, traced_peak


def trained_state(steps=3, seed=0):
    cfg = tiny_config()
    model = MultiviewMae(cfg.model, Rng(seed).derive("init"))
    opt = AdamWState()
    cloud = generate_shape(SyntheticShape(kind="torus", n_points=64, seed=1))
    for step in range(steps):
        plan = build_pretrain_plan(cloud, cfg.model, Rng(seed).derive("s", step))
        step_gradients(model, [plan], 1.0)
        adamw_step(model.params, opt, 1e-3, cfg.train.weight_decay)
    return cfg, model, opt


def save_state(path, cfg, model, opt, bookkeeping=None):
    save_checkpoint(
        path,
        cfg,
        {name: p.data for name, p in model.params.items()},
        opt,
        bookkeeping if bookkeeping is not None else {"run_seed": 7},
    )


def test_round_trip_bit_exact(tmp_path):
    cfg, model, opt = trained_state()
    path = tmp_path / "a.ckpt"
    save_state(path, cfg, model, opt)
    ckpt = load_checkpoint(path)
    assert ckpt.config == cfg
    assert ckpt.step == ckpt.opt.step == 3
    assert ckpt.bookkeeping == {"run_seed": 7}
    assert set(ckpt.params) == set(model.params)
    for name, p in model.params.items():
        np.testing.assert_array_equal(ckpt.params[name], p.data)
    # the step and the moments are the whole optimizer state
    assert [f.name for f in dataclasses.fields(AdamWState)] == ["step", "m", "v"]
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
    save_checkpoint(second, ckpt.config, ckpt.params, ckpt.opt, ckpt.bookkeeping)
    assert first.read_bytes() == second.read_bytes()


def test_checkpoints_at_different_steps_differ(tmp_path):
    cfg, model3, _ = trained_state(steps=3)
    _, model5, _ = trained_state(steps=5)
    deltas = [
        np.abs(model3.params[n].data - model5.params[n].data).max()
        for n in model3.params
    ]
    assert max(deltas) > 0


def test_save_matches_the_join_oracle(tmp_path):
    cfg, model, opt = trained_state()
    path = tmp_path / "a.ckpt"
    save_state(path, cfg, model, opt)
    params = {name: p.data for name, p in model.params.items()}
    assert path.read_bytes() == checkpoint_by_join(cfg, params, opt, {"run_seed": 7})

    # 0-d, empty-dimension, strided and big-endian arrays
    grid = np.arange(12.0).reshape(3, 4)
    crafted = {
        "a": np.array(-1.5),
        "b": np.zeros((3, 0, 2)),
        "c": np.zeros(0),
        "d": grid.T,
        "e": grid.astype(">f8"),
    }
    state = AdamWState(
        step=9,
        m={name: np.asarray(v) * 0.5 for name, v in crafted.items()},
        v={name: np.asarray(v) ** 2 for name, v in crafted.items()},
    )
    save_checkpoint(path, cfg, crafted, state, {"run_seed": 1})
    assert path.read_bytes() == checkpoint_by_join(cfg, crafted, state, {"run_seed": 1})
    back = load_checkpoint(path)
    for name, values in crafted.items():
        assert back.params[name].shape == values.shape
        np.testing.assert_array_equal(back.params[name], values)


def desk_state():
    """Desk-size parameters and AdamW moments: an ~8 MB checkpoint."""
    cfg = desk_config()
    model = MultiviewMae(cfg.model, Rng(0).derive("init"))
    params = {name: p.data for name, p in model.params.items()}
    opt = AdamWState(
        step=1,
        m={name: v * 0.5 for name, v in params.items()},
        v={name: v * v for name, v in params.items()},
    )
    return cfg, params, opt


def test_save_allocates_far_less_than_the_file(tmp_path):
    # the arrays go to the file as they are: no per-array copy, no join
    cfg, params, opt = desk_state()
    path = tmp_path / "a.ckpt"
    peak = traced_peak(lambda: save_checkpoint(path, cfg, params, opt, {"run_seed": 7}))
    size = path.stat().st_size
    assert peak < 0.1 * size, (peak, size)


def test_load_holds_about_the_file_size(tmp_path):
    # each record is read straight into its array: the file is never held
    # whole and no array is copied
    cfg, params, opt = desk_state()
    path = tmp_path / "a.ckpt"
    save_checkpoint(path, cfg, params, opt, {"run_seed": 7})
    loaded = []
    peak = traced_peak(lambda: loaded.append(load_checkpoint(path)))
    size = path.stat().st_size
    assert peak <= 1.1 * size, (peak, size)
    for name, values in params.items():
        np.testing.assert_array_equal(loaded[0].params[name], values)


def test_oversized_record_is_refused_before_it_is_allocated(tmp_path):
    path = tmp_path / "huge.ckpt"
    path.write_bytes(single_record(b"p", (2**40,), bytes(64)))

    def load():
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(path)

    assert traced_peak(load) < 2**20


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


def test_zeroed_heads_in_config_block_rejected(tmp_path):
    # "heads":2 -> "heads":0 is a single bit flip, and the config checks
    # take the token width modulo heads
    blob, _, _ = fuzz_base()
    assert blob.count(b'"heads":2') == 1
    path = tmp_path / "a.ckpt"
    path.write_bytes(blob.replace(b'"heads":2', b'"heads":0'))
    with pytest.raises(CheckpointError, match="heads"):
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


def header(n_params: int) -> bytes:
    """A file's magic, version, tiny config block and parameter count."""
    config = tiny_config().canonical_json().encode()
    fields = struct.pack(f"<II{len(config)}sI", CHECKPOINT_VERSION, len(config), config, n_params)
    return MAGIC + fields


def test_unknown_dtype_tag(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(header(1) + struct.pack("<I1sB", 1, b"p", 7))  # 7: not a known tag
    with pytest.raises(CheckpointError, match="dtype tag 7"):
        load_checkpoint(path)


def test_duplicate_parameter_rejected(tmp_path):
    chunks = [header(2), *_record("p", np.zeros(2)), *_record("p", np.ones(2))]
    path = tmp_path / "dup.ckpt"
    path.write_bytes(b"".join(chunks))
    with pytest.raises(CheckpointError, match="duplicate"):
        load_checkpoint(path)


@pytest.mark.parametrize("moment", ["m", "v"])
def test_misshaped_moments_rejected(tmp_path, moment):
    cfg, model, opt = trained_state(steps=1)
    getattr(opt, moment)["head3d.bias"] = np.zeros((4, 12))
    path = tmp_path / "a.ckpt"
    save_state(path, cfg, model, opt)
    with pytest.raises(CheckpointError, match="head3d.bias"):
        load_checkpoint(path)


def single_record(name: bytes, dims: tuple[int, ...], payload: bytes) -> bytes:
    fields = struct.pack(f"<I{len(name)}sBI{len(dims)}Q", len(name), name, 0, len(dims), *dims)
    return header(1) + fields + payload


def test_huge_dims_rejected(tmp_path):
    # 2**62 * 4 wraps to 0 in int64 arithmetic; the exact product of 600
    # dims of 2**64 - 1 has more digits than Python formats into a message
    path = tmp_path / "huge.ckpt"
    for dims in ((2**62, 4), (2**64 - 1,) * 600):
        path.write_bytes(single_record(b"p", dims, bytes(64)))
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(path)


def test_non_utf8_name_rejected(tmp_path):
    path = tmp_path / "name.ckpt"
    path.write_bytes(single_record(b"\xff\xfe", (1,), bytes(8)))
    with pytest.raises(CheckpointError, match="utf-8"):
        load_checkpoint(path)


def test_oversized_block_length_is_refused_before_it_is_read(tmp_path):
    # without the size check, read(n) allocates all n bytes before reading
    path = tmp_path / "long.ckpt"
    path.write_bytes(MAGIC + struct.pack("<II", CHECKPOINT_VERSION, 0xFFFFFFFF) + bytes(100))

    def load():
        with pytest.raises(CheckpointError, match=r"truncated: wanted 4294967295 bytes"):
            load_checkpoint(path)

    assert traced_peak(load) < 2**20


def with_moments(*records: tuple[str, np.ndarray]) -> bytes:
    """A file with parameter p = [1, 2] and the given moment records
    (m and v alternate), then a step and a bookkeeping block."""
    chunks = [header(1), *_record("p", np.array([1.0, 2.0])), struct.pack("<I", len(records) // 2)]
    for name, values in records:
        chunks += _record(name, values)
    chunks += [struct.pack("<QI", 1, 2), b"{}"]
    return b"".join(bytes(c) for c in chunks)


def test_moment_pair_names_must_match(tmp_path):
    path = tmp_path / "pair.ckpt"
    path.write_bytes(with_moments(("p", np.zeros(2)), ("p", np.ones(2))))
    assert load_checkpoint(path).opt.v["p"].tolist() == [1.0, 1.0]
    path.write_bytes(with_moments(("p", np.zeros(2)), ("q", np.ones(2))))
    with pytest.raises(CheckpointError, match="moment pair mismatch: p vs q"):
        load_checkpoint(path)


def test_moments_for_an_unknown_parameter_rejected(tmp_path):
    path = tmp_path / "unknown.ckpt"
    path.write_bytes(with_moments(("q", np.zeros(2)), ("q", np.ones(2))))
    with pytest.raises(CheckpointError, match="moments for unknown parameter q"):
        load_checkpoint(path)


@pytest.mark.parametrize("block", ["config", "bookkeeping"])
def test_json_block_must_hold_an_object(tmp_path, block):
    path = tmp_path / "list.ckpt"
    if block == "config":
        path.write_bytes(MAGIC + struct.pack("<II2s", CHECKPOINT_VERSION, 2, b"[]"))
    else:
        cfg, model, opt = trained_state(steps=1)
        save_state(path, cfg, model, opt, bookkeeping=[7])
    with pytest.raises(CheckpointError, match=f"{block} JSON must hold an object"):
        load_checkpoint(path)


@pytest.mark.parametrize("where", ["field", "payload"])
def test_file_that_shrinks_after_it_is_opened(tmp_path, monkeypatch, where):
    # fstat reports the whole file, but it was cut: a field read or a
    # record's payload comes back short
    blob = with_moments(("p", np.zeros(2)), ("p", np.ones(2)))
    payload_at = len(header(1)) + len(_record("p", np.zeros(2))[0])
    step_at = len(blob) - 14  # u64 step, u32 length, b"{}"
    at = payload_at if where == "payload" else step_at
    wanted = 16 if where == "payload" else 8
    path = tmp_path / "shrunk.ckpt"
    path.write_bytes(blob[: at + 3])
    monkeypatch.setattr(checkpoint.os, "fstat", lambda fd: SimpleNamespace(st_size=len(blob)))
    message = f"truncated: wanted {wanted} bytes, {len(blob) - at} remain (at byte {at})"
    with pytest.raises(CheckpointError, match=re.escape(message)):
        load_checkpoint(path)


@cache
def fuzz_base() -> tuple[bytes, tuple[int, ...], tuple[range, ...]]:
    """A saved checkpoint, the byte offset of every u64 dim field and the
    byte ranges of its two JSON blocks (config, bookkeeping)."""
    cfg, model, opt = trained_state(steps=1)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "a.ckpt"
        save_state(path, cfg, model, opt)
        blob = path.read_bytes()
    r = _Reader(io.BytesIO(blob), len(blob))
    offsets = []
    spans = []

    def json_block():
        size = r.unpack("I")
        spans.append(range(r.offset, r.offset + size))
        r.take(size)

    def record():
        r.take(r.unpack("I"))
        r.unpack("B")
        rank = r.unpack("I")
        offsets.extend(r.offset + 8 * i for i in range(rank))
        r.take(8 * math.prod(r.unpack("Q") for _ in range(rank)))

    r.take(len(MAGIC))
    r.unpack("I")
    json_block()
    for _ in range(r.unpack("I")):
        record()
    for _ in range(r.unpack("I")):
        record()
        record()
    r.unpack("Q")
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
    json_flip=st.none() | st.tuples(st.integers(0, 1), st.integers(0, 10**6), st.integers(0, 7)),
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


def test_model_takes_the_checkpoint_arrays(tmp_path):
    cfg, model, opt = trained_state()
    path = tmp_path / "a.ckpt"
    save_state(path, cfg, model, opt)
    ckpt = load_checkpoint(path)
    fresh = MultiviewMae(cfg.model, ckpt.params)
    for name, p in model.params.items():
        np.testing.assert_array_equal(fresh.params[name].data, p.data)
        assert fresh.params[name].data is ckpt.params[name]


def test_load_pretrained_draws_nothing_and_is_bit_exact(tmp_path, monkeypatch):
    cfg, model, opt = trained_state()
    path = tmp_path / "a.ckpt"
    save_state(path, cfg, model, opt)

    def no_draw(*args, **kwargs):
        raise AssertionError("loading a checkpoint drew random numbers")

    for method in ("uniform", "normal", "integers", "choice", "permutation"):
        monkeypatch.setattr(Rng, method, no_draw)
    loaded, _ = load_pretrained(path)
    assert set(loaded.params) == set(model.params)
    for name, p in model.params.items():
        assert loaded.params[name].data.dtype == np.float64
        np.testing.assert_array_equal(
            loaded.params[name].data.view(np.int64), p.data.view(np.int64)
        )


def save_params(path, cfg, params):
    save_checkpoint(path, cfg, params, AdamWState(), {"run_seed": 7})


def test_load_pretrained_refuses_a_different_parameter_set(tmp_path):
    cfg, model, _ = trained_state(steps=1)
    params = {name: p.data for name, p in model.params.items() if name != "head3d.bias"}
    params["stray"] = np.zeros(2)
    path = tmp_path / "a.ckpt"
    save_params(path, cfg, params)
    message = "parameter set mismatch: missing ['head3d.bias'], unexpected ['stray']"
    with pytest.raises(CheckpointError, match=re.escape(message)):
        load_pretrained(path)


def test_load_pretrained_shape_guard(tmp_path):
    cfg, model, _ = trained_state(steps=1)
    params = {name: p.data for name, p in model.params.items()}
    shape = params["head3d.bias"].shape
    params["head3d.bias"] = np.zeros(5)
    path = tmp_path / "a.ckpt"
    save_params(path, cfg, params)
    message = f"shape mismatch for head3d.bias: {shape} vs (5,)"
    with pytest.raises(CheckpointError, match=re.escape(message)):
        load_pretrained(path)


def test_header_layout_golden(tmp_path):
    # walks the file to its last byte: config, parameters, moments, step
    # and bookkeeping, with no optimizer settings anywhere
    cfg, model, opt = trained_state(steps=1)
    path = tmp_path / "a.ckpt"
    save_state(path, cfg, model, opt, bookkeeping={"run_seed": 7, "total_steps": 20})
    blob = path.read_bytes()
    off = 0

    def take(size):
        nonlocal off
        out = blob[off : off + size]
        assert len(out) == size
        off += size
        return out

    def u32():
        return int.from_bytes(take(4), "little")

    def u64():
        return int.from_bytes(take(8), "little")

    def record(name, values):
        assert take(u32()).decode() == name
        assert take(1) == b"\x00"  # dtype tag
        assert u32() == values.ndim
        assert tuple(u64() for _ in range(values.ndim)) == values.shape
        raw = np.frombuffer(take(values.size * 8), "<f8")
        np.testing.assert_array_equal(raw.reshape(values.shape), values)

    names = sorted(model.params)
    assert take(6) == b"MVMAE\x00"
    assert u32() == CHECKPOINT_VERSION == 2
    assert take(u32()) == cfg.canonical_json().encode()
    assert u32() == len(names)
    for name in names:
        record(name, model.params[name].data)
    assert u32() == len(names)
    for name in names:
        record(name, opt.m[name])
        record(name, opt.v[name])
    assert u64() == opt.step == 1
    assert take(u32()) == b'{"run_seed":7,"total_steps":20}'
    assert off == len(blob)
