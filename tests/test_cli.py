import builtins
import dataclasses
import io
import json
import hashlib
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mvmae
from mvmae.checkpoint import load_checkpoint, save_checkpoint
from mvmae.autodiff import no_grad
from mvmae.autodiff.optim import AdamWState
from mvmae.cli import main
from mvmae.config import Config, DataConfig, ModelConfig, TrainConfig, load_config, tiny_config
from mvmae.geometry import load_cloud
from mvmae.model import MultiviewMae, build_pretrain_plan, plan_losses
from mvmae.pipeline import load_pretrained
from mvmae.projection import rasterize_depth, write_pgm
from mvmae.rng import Rng

from oracles import read_metrics, read_pgm


def micro_config() -> Config:
    return Config(
        model=ModelConfig(
            C=8, enc_depth=1, dec_depth=0, heads=2, n=4, k=2, m=0.5,
            V=2, K=1, H_i=8, W_i=8, H_t=2, W_t=2,
        ),
        train=TrainConfig(lr=1e-3, epochs=1, batch_size=2, ckpt_every=10),
        data=DataConfig(n_points=16, n_classes=2, instances_per_class=2),
    )


def untrained_checkpoint(path, cfg, bookkeeping=None):
    model = MultiviewMae(cfg.model, Rng(0).derive("init"))
    save_checkpoint(
        path, cfg,
        {name: p.data for name, p in model.params.items()},
        AdamWState(),
        {"run_seed": 0} if bookkeeping is None else bookkeeping,
    )


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "run"
    code = main(["pretrain", "--config", "tiny", "--out", str(out), "--seed", "5"])
    assert code == 0
    return out


@pytest.fixture()
def origin_xyz(tmp_path):
    path = tmp_path / "origin.xyz"
    path.write_text("0 0 0\n")
    return path


# --- pretrain -------------------------------------------------------------


def test_pretrain_writes_outputs_and_manifest(tiny_run):
    names = {p.name for p in tiny_run.iterdir()}
    assert {"final.ckpt", "metrics.tsv", "manifest.json"} <= names
    manifest = json.loads((tiny_run / "manifest.json").read_text())
    assert manifest["command"] == "pretrain"
    assert manifest["seed"] == 5
    assert manifest["config_hash"] == tiny_config().config_hash()
    assert manifest["tool_version"]
    assert manifest["finished_at"] is not None
    assert manifest["finished_at"] >= manifest["started_at"]


def test_pretrain_missing_config(tmp_path, capsys):
    code = main(
        ["pretrain", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o")]
    )
    assert code == 2
    assert "nope.json" in capsys.readouterr().err


def test_pretrain_refuses_manifest_collision(tiny_run, capsys):
    code = main(["pretrain", "--config", "tiny", "--out", str(tiny_run), "--seed", "5"])
    assert code == 2
    assert "--force" in capsys.readouterr().err


def test_pretrain_resume_reproduces_tail(tiny_run, tmp_path):
    resumed = tmp_path / "resumed"
    code = main([
        "pretrain", "--config", "tiny", "--out", str(resumed), "--seed", "5",
        "--resume", str(tiny_run / "ckpt_00000008.ckpt"),
    ])
    assert code == 0
    # a fresh directory gets the run's whole metrics.tsv, rows 0 to 7 from
    # the checkpoint's losses
    for name in ("metrics.tsv", "final.ckpt"):
        assert (resumed / name).read_bytes() == (tiny_run / name).read_bytes()


def test_resume_reads_its_checkpoint_and_rows_once(tiny_run, tmp_path, monkeypatch):
    # the checkpoint is loaded once, and --out's metrics.tsv is never read:
    # it is replaced whole from the checkpoint's losses
    import mvmae.pipeline as pipeline

    out = tmp_path / "o"
    out.mkdir()
    metrics = out / "metrics.tsv"
    metrics.write_text("garbage\n")
    loads, reads = [], []
    real_load, real_open = pipeline.load_checkpoint, io.open

    def load(path):
        loads.append(Path(path).name)
        return real_load(path)

    def opened(file, mode="r", *args, **kwargs):
        # Path.open, read_text and read_bytes all open through io.open
        if not isinstance(file, int) and Path(file) == metrics and "r" in mode:
            reads.append(mode)
        return real_open(file, mode, *args, **kwargs)

    monkeypatch.setattr(pipeline, "load_checkpoint", load)
    monkeypatch.setattr(io, "open", opened)
    monkeypatch.setattr(builtins, "open", opened)
    assert main([
        "pretrain", "--config", "tiny", "--out", str(out), "--seed", "5",
        "--resume", str(tiny_run / "ckpt_00000008.ckpt"),
    ]) == 0
    assert loads == ["ckpt_00000008.ckpt"]
    assert reads == []
    assert metrics.read_bytes() == (tiny_run / "metrics.tsv").read_bytes()


def test_pretrain_resume_with_other_epochs_exit_2(tiny_run, tmp_path, capsys):
    code = main([
        "pretrain", "--config", "tiny", "--out", str(tmp_path / "o"), "--seed", "5",
        "--epochs", str(tiny_config().train.epochs + 1),
        "--resume", str(tiny_run / "ckpt_00000008.ckpt"),
    ])
    assert code == 2
    assert "train.epochs (checkpoint 2, requested 3)" in capsys.readouterr().err
    assert not (tmp_path / "o" / "final.ckpt").exists()


def test_pretrain_resume_with_other_seed_exit_2(tiny_run, tmp_path, capsys):
    # tiny_run trained with --seed 5; a resume without --seed asks for seed 0
    code = main([
        "pretrain", "--config", "tiny", "--out", str(tmp_path / "o"),
        "--resume", str(tiny_run / "ckpt_00000004.ckpt"),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert "seed 5" in err and "seed 0" in err
    assert not (tmp_path / "o" / "final.ckpt").exists()


def test_refused_resume_claims_no_out(tiny_run, tmp_path, capsys):
    # refused at the config check, the resume leaves --out unclaimed, so
    # the corrected command then runs without --force
    out = tmp_path / "o"
    resume = [
        "pretrain", "--config", "tiny", "--out", str(out), "--seed", "5",
        "--resume", str(tiny_run / "ckpt_00000008.ckpt"),
    ]
    assert main([*resume, "--epochs", "3"]) == 2
    assert "train.epochs" in capsys.readouterr().err
    assert not out.exists()
    assert main(resume) == 0
    assert (out / "final.ckpt").read_bytes() == (tiny_run / "final.ckpt").read_bytes()


def test_refused_resume_with_force_keeps_the_run(tmp_path, capsys):
    # --force into a finished run: the seed check refuses the resume, and
    # its manifest, metrics and checkpoints stay as they were
    run = tmp_path / "a"
    assert main(["pretrain", "--config", "tiny", "--out", str(run), "--epochs", "1"]) == 0
    before = {p.name: p.read_bytes() for p in run.iterdir()}
    code = main([
        "pretrain", "--config", "tiny", "--out", str(run), "--epochs", "1", "--seed", "7",
        "--resume", str(run / "ckpt_00000004.ckpt"), "--force",
    ])
    assert code == 2
    assert "seed 7" in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in run.iterdir()} == before


def test_resume_past_the_runs_end_claims_no_out(tiny_run, tmp_path, capsys):
    # a checkpoint whose step is beyond its run's total steps is refused
    # by name before --out gets a manifest
    ckpt = load_checkpoint(tiny_run / "ckpt_00000008.ckpt")
    ckpt.opt.step = 99
    path = tmp_path / "past.ckpt"
    save_checkpoint(path, ckpt.config, ckpt.params, ckpt.opt, ckpt.bookkeeping)
    out = tmp_path / "o"
    out.mkdir()
    code = main([
        "pretrain", "--config", "tiny", "--out", str(out), "--seed", "5",
        "--resume", str(path),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert "step 99" in err and f"{ckpt.bookkeeping['total_steps']}-step run" in err
    assert list(out.iterdir()) == []


def drop_head3d_bias_moments(ckpt, path):
    del ckpt.opt.m["head3d.bias"], ckpt.opt.v["head3d.bias"]
    save_checkpoint(path, ckpt.config, ckpt.params, ckpt.opt, ckpt.bookkeeping)


def repeat_head3d_bias_moments(ckpt, path):
    # a pair saved under a stand-in name of the same length, which sorts
    # right after head3d.bias, is renamed to it in the file
    ckpt.opt.m["head3d.biat"] = ckpt.opt.m["head3d.bias"]
    ckpt.opt.v["head3d.biat"] = ckpt.opt.v["head3d.bias"]
    save_checkpoint(path, ckpt.config, ckpt.params, ckpt.opt, ckpt.bookkeeping)
    path.write_bytes(path.read_bytes().replace(b"head3d.biat", b"head3d.bias"))


@pytest.mark.parametrize("corrupt", [drop_head3d_bias_moments, repeat_head3d_bias_moments])
def test_resume_with_a_wrong_moment_set_claims_no_out(tiny_run, tmp_path, capsys, corrupt):
    # AdamW would restart a missing moment from zeros, and the later of a
    # repeated pair would win: either way the resumed run would drift
    path = tmp_path / "moments.ckpt"
    corrupt(load_checkpoint(tiny_run / "ckpt_00000008.ckpt"), path)
    out = tmp_path / "o"
    out.mkdir()
    code = main([
        "pretrain", "--config", "tiny", "--out", str(out), "--seed", "5",
        "--resume", str(path),
    ])
    assert code == 2
    assert "head3d.bias" in capsys.readouterr().err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize(
    "bad",
    [
        lambda good: None,
        lambda good: good[:-1],
        lambda good: [*good[:3], {"l3d": 0.1, "l2d": 0.1}],
        lambda good: [*good[:3], [0.1, 0.1, 0.1]],
        lambda good: [*good[:3], [True, 0.1]],
        lambda good: [*good[:3], [0.1, 1]],
        lambda good: [*good[:3], ["0.1", 0.1]],
        lambda good: [*good[:3], [0.1, float("nan")]],
        lambda good: [*good[:3], [float("inf"), 0.1]],
    ],
    ids=["missing", "wrong_count", "non_list_row", "pair_of_three", "bool", "int",
         "string", "nan", "inf"],
)
def test_resume_refuses_bad_losses_and_claims_no_out(tiny_run, tmp_path, capsys, bad):
    # the checkpoint's losses must be exactly its 4 steps' [l3d, l2d] pairs
    # of finite floats; anything else is refused before --out is claimed
    ckpt = load_checkpoint(tiny_run / "ckpt_00000004.ckpt")
    losses = bad(ckpt.bookkeeping["losses"])
    bookkeeping = {k: v for k, v in ckpt.bookkeeping.items() if k != "losses"}
    if losses is not None:
        bookkeeping["losses"] = losses
    path = tmp_path / "bad.ckpt"
    save_checkpoint(path, ckpt.config, ckpt.params, ckpt.opt, bookkeeping)
    out = tmp_path / "o"
    code = main([
        "pretrain", "--config", "tiny", "--out", str(out), "--seed", "5", "--resume", str(path),
    ])
    assert code == 2
    assert "has no losses of its 4 steps" in capsys.readouterr().err
    assert not out.exists()


def test_checkpoint_without_losses_still_probes_and_reconstructs(tiny_run, tmp_path, capsys):
    # written before checkpoints held their run's losses: probe and
    # reconstruct read it as before, only --resume refuses it
    ckpt = load_checkpoint(tiny_run / "final.ckpt")
    old = tmp_path / "old.ckpt"
    bookkeeping = {k: v for k, v in ckpt.bookkeeping.items() if k != "losses"}
    save_checkpoint(old, ckpt.config, ckpt.params, ckpt.opt, bookkeeping)
    cloud = shape_cloud(tmp_path)
    written = []
    for path in (tiny_run / "final.ckpt", old):
        assert main(["probe", "--checkpoint", str(path), "--mode", "linear"]) == 0
        out = tmp_path / path.stem
        code = main([
            "reconstruct", "--checkpoint", str(path), "--input", str(cloud), "--out", str(out),
        ])
        assert code == 0
        written.append({p.name: p.read_bytes() for p in out.iterdir() if p.suffix != ".json"})
    probes = capsys.readouterr().out.splitlines()
    assert probes[0] == probes[2] and written[0] == written[1]
    out = tmp_path / "resumed"
    code = main([
        "pretrain", "--config", "tiny", "--out", str(out), "--seed", "5", "--resume", str(old),
    ])
    assert code == 2
    assert "has no losses of its 20 steps" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("epochs", ["0", "-2"])
def test_pretrain_epochs_below_one_exit_2(tmp_path, capsys, epochs):
    out = tmp_path / "o"
    for _ in range(2):
        code = main(["pretrain", "--config", "tiny", "--out", str(out), f"--epochs={epochs}"])
        assert code == 2
        assert f"train.epochs must be an integer >= 1, got {epochs}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "edits, rule",
    [
        ({"model": {"m": 0.05}}, "mask ratio 0.05 leaves no masked patches at n=8"),
        ({"model": {"m": 0.97}}, "mask ratio 0.97 leaves no visible patches at n=8"),
        ({"data": {"n_classes": 6}}, "at most 5 classes available, got 6"),
        ({"model": {"n": 2, "k": 2, "m": 0.5}, "data": {"n_points": 4}}, "n_points 4 below 8"),
        ({"model": {"H_t": 5}}, "H_i 16 not divisible by H_t 5"),
        ({"model": {"W_t": 3}}, "W_i 16 not divisible by W_t 3"),
        ({"model": {"K": 5}}, "K 5 outside [1, V=4]"),
        ({"model": {"dec_depth": 2}}, "dec_depth 2 must be below enc_depth 2"),
        ({"model": {"C": 18}}, "token width 18 must be divisible by 4"),
        ({"model": {"C": 20, "heads": 3}}, "token width 20 not divisible by 3 heads"),
        ({"model": {"m": 1.5}}, "mask ratio 1.5 outside (0, 1)"),
        ({"model": {"m": -0.25}}, "mask ratio -0.25 outside (0, 1)"),
        ({"model": {"m": 0.0}}, "mask ratio 0.0 outside (0, 1)"),
        ({"model": {"m": 1.0}}, "mask ratio 1.0 outside (0, 1)"),
        # m·n would overflow: the range rule comes before the masked count
        ({"model": {"m": 1e308}}, "mask ratio 1e+308 outside (0, 1)"),
        ({"model": {"m": -1e308}}, "mask ratio -1e+308 outside (0, 1)"),
        ({"model": {"radius": 1.0}}, "camera radius 1.0 puts the near plane behind the camera"),
        ({"model": {"radius": 1.05}}, "camera radius 1.05 puts the near plane behind the camera"),
        ({"model": {"fov_deg": 180.0}}, "fov 180.0 outside (0, 180)"),
        ({"model": {"fov_deg": 0.0}}, "fov 0.0 outside (0, 180)"),
        ({"train": {"lr": 0.0}}, "lr 0.0 must be positive"),
        ({"train": {"lr_min": -0.001}}, "lr_min -0.001 must be non-negative"),
        ({"train": {"weight_decay": -0.05}}, "weight decay must be non-negative"),
        ({"train": {"warmup_steps": 20}}, "warmup_steps 20 must be below the run's 20 steps"),
    ],
    ids=[
        "none_masked", "none_visible", "n_classes", "n_points", "H_t", "W_t", "K",
        "dec_depth", "C_by_4", "C_by_heads", "m_above_1", "m_below_0", "m_0", "m_1",
        "m_huge", "m_huge_negative", "radius", "radius_at_clip_margin", "fov", "fov_0",
        "lr", "lr_min", "weight_decay", "warmup_steps",
    ],
)
def test_refused_config_writes_nothing(tmp_path, capsys, edits, rule):
    raw = json.loads(tiny_config().canonical_json())
    for section, values in edits.items():
        raw[section].update(values)
    cfg_path = tmp_path / "refused.json"
    cfg_path.write_text(json.dumps(raw))
    out = tmp_path / "o"
    for _ in range(2):  # refused again: the first attempt claimed nothing
        code = main(["pretrain", "--config", str(cfg_path), "--out", str(out)])
        assert code == 2
        assert rule in capsys.readouterr().err
    assert not out.exists()


def test_misspelt_config_field_exit_2(tmp_path, capsys):
    raw = json.loads(tiny_config().canonical_json())
    raw["model"]["bogus"] = 1
    cfg_path = tmp_path / "misspelt.json"
    cfg_path.write_text(json.dumps(raw))
    out = tmp_path / "o"
    assert main(["pretrain", "--config", str(cfg_path), "--out", str(out)]) == 2
    assert "bogus" in capsys.readouterr().err
    assert not (out / "manifest.json").exists()


def test_epochs_override_is_the_runs_config(tmp_path, capsys):
    whole = tmp_path / "whole"
    assert main(["pretrain", "--config", "tiny", "--out", str(whole), "--epochs", "1"]) == 0
    cfg = tiny_config()
    effective = dataclasses.replace(cfg, train=dataclasses.replace(cfg.train, epochs=1))
    assert load_checkpoint(whole / "final.ckpt").config == effective
    manifest = json.loads((whole / "manifest.json").read_text())
    assert manifest["config_hash"] == effective.config_hash()
    # a run stopped after step 4 of its 10 resumes to the same bytes
    cut = tmp_path / "cut"
    cut.mkdir()
    for name in ("ckpt_00000004.ckpt", "metrics.tsv"):
        (cut / name).write_bytes((whole / name).read_bytes())
    resume = ["pretrain", "--config", "tiny", "--resume", str(cut / "ckpt_00000004.ckpt")]
    assert main([*resume, "--out", str(cut), "--epochs", "1"]) == 0
    for name in ("final.ckpt", "metrics.tsv"):
        assert (cut / name).read_bytes() == (whole / name).read_bytes()
    # a resume that forgets --epochs asks for the preset's 2 epochs
    capsys.readouterr()
    assert main([*resume, "--out", str(tmp_path / "o")]) == 2
    assert "train.epochs (checkpoint 1, requested 2)" in capsys.readouterr().err


def test_int_spelled_float_fields_keep_the_presets_hash(tiny_run, tmp_path):
    raw = json.loads(tiny_config().canonical_json())
    raw["train"]["lr_min"] = 0
    raw["model"].update(elevation_deg=30, fov_deg=50)
    cfg_path = tmp_path / "tiny_ints.json"
    cfg_path.write_text(json.dumps(raw))
    assert load_config(cfg_path).config_hash() == tiny_config().config_hash()
    out = tmp_path / "o"
    code = main([
        "pretrain", "--config", str(cfg_path), "--out", str(out), "--seed", "5",
        "--resume", str(tiny_run / "ckpt_00000008.ckpt"),
    ])
    assert code == 0
    assert (out / "final.ckpt").read_bytes() == (tiny_run / "final.ckpt").read_bytes()


def test_pretrain_warmup_not_below_total_steps_exit_2(tmp_path, capsys, monkeypatch):
    # tiny runs 20 steps; the check comes before --out is claimed and
    # before the corpus is built, so the same command is refused again
    cfg = tiny_config()
    warm = dataclasses.replace(cfg, train=dataclasses.replace(cfg.train, warmup_steps=100))
    cfg_path = tmp_path / "warm.json"
    cfg_path.write_text(warm.canonical_json())
    out = tmp_path / "o"

    def no_corpus(_):
        raise AssertionError("corpus built for a refused run")

    monkeypatch.setattr("mvmae.cli.make_dataset", no_corpus)
    for _ in range(2):
        code = main(["pretrain", "--config", str(cfg_path), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert "warmup_steps 100" in err and "20 steps" in err
    assert not out.exists()


def test_checkpoint_with_warmup_past_its_run_exit_2(tmp_path, capsys):
    # written before validate counted a config's steps: tiny runs 20
    cfg = tiny_config()
    ckpt = tmp_path / "warm.ckpt"
    untrained_checkpoint(ckpt, dataclasses.replace(cfg, train=dataclasses.replace(cfg.train, warmup_steps=20)))
    assert main(["probe", "--checkpoint", str(ckpt)]) == 2
    assert "warmup_steps 20 must be below the run's 20 steps" in capsys.readouterr().err


def test_pretrain_radius_within_clip_margin_exit_2(tmp_path, capsys):
    # radius 1.02 would put the near clip plane (radius - 1.05) behind the
    # camera; the config is refused before --out is claimed
    cfg = tiny_config()
    near = dataclasses.replace(cfg, model=dataclasses.replace(cfg.model, radius=1.02))
    cfg_path = tmp_path / "near.json"
    cfg_path.write_text(near.canonical_json())
    out = tmp_path / "o"
    code = main(["pretrain", "--config", str(cfg_path), "--out", str(out)])
    assert code == 2
    assert "camera radius 1.02" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        "pretrain --config tiny --out {d}/o --seed 5 --resume {ckpt}",
        "probe --checkpoint {ckpt}",
    ],
    ids=["pretrain_resume", "probe"],
)
def test_format_1_checkpoint_exit_2(tiny_run, tmp_path, capsys, argv):
    blob = bytearray((tiny_run / "ckpt_00000008.ckpt").read_bytes())
    blob[6:10] = (1).to_bytes(4, "little")
    ckpt = tmp_path / "v1.ckpt"
    ckpt.write_bytes(bytes(blob))
    code = main(argv.format(d=tmp_path, ckpt=ckpt).split())
    assert code == 2
    assert "format version 1 unsupported" in capsys.readouterr().err
    assert not (tmp_path / "o" / "final.ckpt").exists()


def test_pretrain_resume_without_run_seed_exit_2(tmp_path, capsys):
    cfg = micro_config()
    cfg_path = tmp_path / "micro.json"
    cfg_path.write_text(cfg.canonical_json())
    ckpt = tmp_path / "no_seed.ckpt"
    untrained_checkpoint(ckpt, cfg, {"seed": 1})
    code = main([
        "pretrain", "--config", str(cfg_path), "--out", str(tmp_path / "o"),
        "--resume", str(ckpt),
    ])
    assert code == 2
    assert "run_seed" in capsys.readouterr().err


def test_pretrain_resume_with_misshaped_moments_exit_2(tmp_path, capsys):
    cfg = micro_config()
    cfg_path = tmp_path / "micro.json"
    cfg_path.write_text(cfg.canonical_json())
    model = MultiviewMae(cfg.model, Rng(0).derive("init"))
    opt = AdamWState()
    for name, p in model.params.items():
        opt.m[name] = np.zeros_like(p.data)
        opt.v[name] = np.zeros_like(p.data)
    opt.m["head3d.bias"] = np.zeros((4, 12))
    ckpt = tmp_path / "moments.ckpt"
    save_checkpoint(
        ckpt, cfg, {name: p.data for name, p in model.params.items()}, opt,
        {"run_seed": 0, "total_steps": 2},
    )
    code = main([
        "pretrain", "--config", str(cfg_path), "--out", str(tmp_path / "o"),
        "--resume", str(ckpt),
    ])
    assert code == 2
    assert "head3d.bias" in capsys.readouterr().err


def test_pretrain_nan_abort_exit_code(tmp_path, capsys):
    cfg = micro_config()
    blown = dataclasses.replace(
        cfg, train=dataclasses.replace(cfg.train, lr=1e9, epochs=30)
    )
    cfg_path = tmp_path / "blown.json"
    cfg_path.write_text(blown.canonical_json())
    with np.errstate(all="ignore"):
        code = main(
            ["pretrain", "--config", str(cfg_path), "--out", str(tmp_path / "o")]
        )
    assert code == 3
    assert "aborted at step" in capsys.readouterr().err


# --- render ----------------------------------------------------------------


def test_render_origin_golden(origin_xyz, tmp_path, capsys):
    out = tmp_path / "d.pgm"
    code = main(["render", "--input", str(origin_xyz), "--out", str(out)])
    assert code == 0
    values = read_pgm(out)
    assert values.shape == (224, 224)
    occupied = np.flatnonzero(values)
    assert len(occupied) == 1
    raw = int(np.rint(values.reshape(-1)[occupied[0]] * 65535))
    assert abs(raw - 32768) <= 1


def test_render_repeat_identical(origin_xyz, tmp_path):
    out_a, out_b = tmp_path / "a.pgm", tmp_path / "b.pgm"
    assert main(["render", "--input", str(origin_xyz), "--out", str(out_a)]) == 0
    assert main(["render", "--input", str(origin_xyz), "--out", str(out_b)]) == 0
    assert hashlib.sha256(out_a.read_bytes()).hexdigest() == hashlib.sha256(
        out_b.read_bytes()
    ).hexdigest()


def test_render_empty_frustum(tmp_path):
    cloud = tmp_path / "far.xyz"
    cloud.write_text("0 0 100\n")  # far beyond the clip range
    out = tmp_path / "empty.pgm"
    assert main(["render", "--input", cloud.as_posix(), "--out", out.as_posix()]) == 0
    assert read_pgm(out).max() == 0.0


def test_render_custom_pose_and_size(origin_xyz, tmp_path):
    out = tmp_path / "c.pgm"
    code = main([
        "render", "--input", str(origin_xyz), "--out", str(out),
        "--pose", "90,45,3.0,60", "--size", "64x32",
    ])
    assert code == 0
    assert read_pgm(out).shape == (64, 32)


def test_render_bad_inputs(origin_xyz, tmp_path, capsys):
    assert main(["render", "--input", str(tmp_path / "no.xyz"), "--out", str(tmp_path / "x.pgm")]) == 2
    assert main(["render", "--input", str(origin_xyz), "--out", str(tmp_path / "y.pgm"), "--pose", "1,2,3"]) == 2
    assert main(["render", "--input", str(origin_xyz), "--out", str(tmp_path / "y.pgm"), "--pose", "0,30,x,50"]) == 2
    out = tmp_path / "z.pgm"
    assert main(["render", "--input", str(origin_xyz), "--out", str(out)]) == 0
    assert main(["render", "--input", str(origin_xyz), "--out", str(out)]) == 2
    assert main(["render", "--input", str(origin_xyz), "--out", str(out), "--force"]) == 0
    nan_xyz = tmp_path / "nan.xyz"
    nan_xyz.write_text("0 0 0\nnan 0 0\n")
    assert main(["render", "--input", str(nan_xyz), "--out", str(tmp_path / "n.pgm")]) == 2
    assert not (tmp_path / "n.pgm").exists()
    for size in ("0x64", "64x0", "-5x64", "64xwide", "tall"):
        sized = tmp_path / f"{size}.pgm"
        assert main(["render", "--input", str(origin_xyz), "--out", str(sized), f"--size={size}"]) == 2
        assert not sized.exists()


# --- reconstruct -----------------------------------------------------------


def shape_cloud(tmp_path):
    from mvmae.data import SyntheticShape, generate_shape
    from mvmae.geometry import write_xyz

    cloud = generate_shape(SyntheticShape(kind="cylinder", n_points=64, seed=8))
    path = tmp_path / "shape.xyz"
    write_xyz(path, cloud)
    return path


def test_reconstruct_file_census(tiny_run, tmp_path):
    cloud = shape_cloud(tmp_path)
    out = tmp_path / "rec"
    code = main([
        "reconstruct", "--checkpoint", str(tiny_run / "final.ckpt"),
        "--input", str(cloud), "--out", str(out),
    ])
    assert code == 0
    names = sorted(p.name for p in out.iterdir())
    assert names == [
        "gt_view0.pgm", "gt_view1.pgm", "manifest.json", "masked_input.xyz",
        "pred_view0.pgm", "pred_view1.pgm", "reconstructed.xyz",
    ]
    for name in ("pred_view0.pgm", "pred_view1.pgm"):
        values = read_pgm(out / name)
        assert values.min() >= 0.0 and values.max() <= 1.0


def test_reconstruct_writes_the_plan_views(tiny_run, tmp_path):
    # gt_view{v} is the input's raster at the plan's v-th pose, and
    # pred_view{v} holds each head2d row at its token's block
    cloud_path = shape_cloud(tmp_path)
    out = tmp_path / "rec"
    code = main([
        "reconstruct", "--checkpoint", str(tiny_run / "final.ckpt"),
        "--input", str(cloud_path), "--out", str(out), "--seed", "3",
    ])
    assert code == 0
    model, ckpt = load_pretrained(tiny_run / "final.ckpt")
    cfg, cloud = ckpt.config.model, load_cloud(cloud_path)
    plan = build_pretrain_plan(cloud, cfg, Rng(3).derive("reconstruct"))
    with no_grad():
        [(_, recon, _)] = plan_losses(model, [plan])
    rows = np.clip(recon.predicted_tiles.data, 0.0, 1.0)
    ph, pw, t = cfg.H_i // cfg.H_t, cfg.W_i // cfg.W_t, cfg.H_t * cfg.W_t
    want = tmp_path / "want.pgm"
    for v, pose in enumerate(plan.poses):
        write_pgm(want, rasterize_depth(cloud.points, pose, cfg.H_i, cfg.W_i))
        assert (out / f"gt_view{v}.pgm").read_bytes() == want.read_bytes()
        image = np.empty((cfg.H_i, cfg.W_i))
        for token in range(t):
            r0, c0 = (token // cfg.W_t) * ph, (token % cfg.W_t) * pw
            image[r0 : r0 + ph, c0 : c0 + pw] = rows[v * t + token].reshape(ph, pw)
        write_pgm(want, image)
        assert (out / f"pred_view{v}.pgm").read_bytes() == want.read_bytes()


def test_reconstruct_views_override(tiny_run, tmp_path):
    cloud = shape_cloud(tmp_path)
    out = tmp_path / "rec3"
    code = main([
        "reconstruct", "--checkpoint", str(tiny_run / "final.ckpt"),
        "--input", str(cloud), "--out", str(out), "--views", "3",
    ])
    assert code == 0
    pgms = [p.name for p in out.iterdir() if p.suffix == ".pgm"]
    assert len(pgms) == 6


def test_reconstruct_views_out_of_range(tiny_run, tmp_path, capsys):
    cloud = shape_cloud(tmp_path)
    for views, rule in (("0", "model.K must be an integer >= 1"), ("99", "K 99 outside [1, V=4]")):
        code = main([
            "reconstruct", "--checkpoint", str(tiny_run / "final.ckpt"),
            "--input", str(cloud), "--out", str(tmp_path / "bad"), "--views", views,
        ])
        assert code == 2
        assert rule in capsys.readouterr().err
    assert not (tmp_path / "bad").exists()


def test_reconstruct_untrained_is_near_constant(tmp_path):
    cfg = tiny_config()
    ckpt = tmp_path / "fresh.ckpt"
    untrained_checkpoint(ckpt, cfg)
    cloud = shape_cloud(tmp_path)
    out = tmp_path / "rec"
    code = main([
        "reconstruct", "--checkpoint", str(ckpt),
        "--input", str(cloud), "--out", str(out),
    ])
    assert code == 0
    pred = read_pgm(out / "pred_view0.pgm")
    gt = read_pgm(out / "gt_view0.pgm")
    assert np.ptp(pred) < 0.5  # fresh weights: output hugs the head bias
    assert np.ptp(gt) > 0.8  # while the target has full structure


@pytest.mark.parametrize(
    "name, text",
    [
        ("bad.xyz", "0 0 0\n1 2 x\n"),
        ("bad.off", "abc 0 0\n0 0 0\n"),
        ("nan.xyz", "0 0 0\nnan 0 0\n"),
        ("inf.off", "OFF\n2 0 0\n0 0 0\n1 inf 1\n"),
        ("empty.off", ""),
        ("comments.off", "# a comment and nothing else\n"),
    ],
)
def test_reconstruct_malformed_input_exit_2(tiny_run, tmp_path, capsys, name, text):
    cloud = tmp_path / name
    cloud.write_text(text)
    code = main([
        "reconstruct", "--checkpoint", str(tiny_run / "final.ckpt"),
        "--input", str(cloud), "--out", str(tmp_path / "rec"),
    ])
    assert code == 2
    assert name in capsys.readouterr().err


def test_reconstruct_nan_parameter_exit_3(tmp_path, capsys):
    cfg = tiny_config()
    model = MultiviewMae(cfg.model, Rng(0).derive("init"))
    params = {name: p.data for name, p in model.params.items()}
    params["head3d.bias"][0] = np.nan
    ckpt = tmp_path / "nan.ckpt"
    save_checkpoint(ckpt, cfg, params, AdamWState(), {"run_seed": 0})
    with np.errstate(all="ignore"):
        code = main([
            "reconstruct", "--checkpoint", str(ckpt),
            "--input", str(shape_cloud(tmp_path)), "--out", str(tmp_path / "rec"),
        ])
    assert code == 3
    assert "non-finite" in capsys.readouterr().err


# --- probe -------------------------------------------------------------------


def test_probe_linear_json(tiny_run, capsys):
    code = main([
        "probe", "--checkpoint", str(tiny_run / "final.ckpt"),
        "--mode", "linear", "--seed", "1",
    ])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"mode", "accuracy", "confusion", "seeds"}
    assert payload["mode"] == "linear"
    assert payload["seeds"] == [Rng(1).derive("probe").seed]
    assert 0.0 <= payload["accuracy"] <= 1.0
    confusion = np.array(payload["confusion"])
    assert confusion.shape == (5, 5)
    assert confusion.sum(axis=1).tolist() == [1, 1, 1, 1, 1]


def test_probe_same_seed_identical_stdout(tiny_run, capsys):
    argv = [
        "probe", "--checkpoint", str(tiny_run / "final.ckpt"),
        "--mode", "linear", "--seed", "9",
    ]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == first


def test_probe_fewshot_json(tmp_path, capsys):
    cfg = dataclasses.replace(
        micro_config(),
        data=DataConfig(n_points=16, n_classes=2, instances_per_class=22),
    )
    ckpt = tmp_path / "m.ckpt"
    untrained_checkpoint(ckpt, cfg)
    code = main([
        "probe", "--checkpoint", str(ckpt), "--mode", "fewshot",
        "--n-way", "2", "--m-shot", "1", "--trials", "3", "--seed", "2",
    ])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"mode", "n_way", "m_shot", "trials", "mean", "std", "reports"}
    assert payload["mode"] == "fewshot"
    assert payload["n_way"] == 2 and payload["m_shot"] == 1 and payload["trials"] == 3
    assert 0.0 <= payload["mean"] <= 1.0 and payload["std"] >= 0.0
    stream = Rng(2).derive("fewshot").seed
    assert len(payload["reports"]) == 3
    for t, report in enumerate(payload["reports"]):
        assert set(report) == {"accuracy", "confusion", "seeds", "n_way", "m_shot"}
        assert report["seeds"] == [stream, t]
        assert report["n_way"] == 2 and report["m_shot"] == 1
        assert 0.0 <= report["accuracy"] <= 1.0
        assert np.array(report["confusion"]).sum(axis=1).tolist() == [20, 20]


def test_probe_insufficient_data_exit_2(tiny_run, capsys):
    code = main([
        "probe", "--checkpoint", str(tiny_run / "final.ckpt"),
        "--mode", "fewshot", "--n-way", "2", "--m-shot", "1",
    ])
    assert code == 2  # tiny corpus lacks 20 queries per class


# --- gradcheck ----------------------------------------------------------------


def test_gradcheck_micro_pass(tmp_path, capsys, monkeypatch):
    # with the slow-run threshold below the micro model's size, the warning
    # counts the scalars of the model that the check then runs on
    monkeypatch.setattr("mvmae.cli._GRADCHECK_WARN_SCALARS", 0)
    cfg_path = tmp_path / "micro.json"
    cfg_path.write_text(micro_config().canonical_json())
    code = main(["gradcheck", "--config", str(cfg_path), "--seed", "3"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out.startswith("PASS")
    model = MultiviewMae(micro_config().model, Rng(3).derive("init"))
    scalars = sum(p.data.size for p in model.params.values())
    assert captured.err == f"warning: {scalars} scalars to perturb; this will be slow\n"
    assert f"; {scalars} scalars in {len(model.params)} parameters" in captured.out


def test_gradcheck_corrupted_gradient_fails(tmp_path, capsys):
    cfg_path = tmp_path / "micro.json"
    cfg_path.write_text(micro_config().canonical_json())
    code = main([
        "gradcheck", "--config", str(cfg_path), "--seed", "3",
        "--corrupt-param", "head3d.bias",
    ])
    out = capsys.readouterr().out
    assert code == 1
    assert out.startswith("FAIL")
    assert "head3d.bias" in out


def test_gradcheck_unknown_corrupt_param(tmp_path, capsys):
    cfg_path = tmp_path / "micro.json"
    cfg_path.write_text(micro_config().canonical_json())
    code = main([
        "gradcheck", "--config", str(cfg_path), "--corrupt-param", "nope",
    ])
    assert code == 2


# --- exit-code policy ------------------------------------------------------


@pytest.fixture()
def bad_inputs(tmp_path):
    """Paths for the input cases: a directory, a non-UTF-8 cloud, a good
    cloud, a config file that is not JSON and one that holds no object, an
    untrained checkpoint, and one whose config asks for six classes."""
    (tmp_path / "dir").mkdir()
    (tmp_path / "binary.xyz").write_bytes(b"\xff\xfe 0 0\n")
    (tmp_path / "cloud.xyz").write_text("0 0 0\n")
    (tmp_path / "broken.json").write_text("{")
    (tmp_path / "list.json").write_text("[]")
    untrained_checkpoint(tmp_path / "micro.ckpt", micro_config())
    six = dataclasses.replace(
        micro_config(), data=DataConfig(n_points=16, n_classes=6, instances_per_class=2)
    )
    untrained_checkpoint(tmp_path / "six.ckpt", six)
    return tmp_path


@pytest.mark.parametrize(
    "argv",
    [
        "render --input {d}/cloud.xyz --pose inf,30,2.2,50 --out {d}/o.pgm",
        # near plane at radius - 1.05 < 0: behind the camera
        "render --input {d}/cloud.xyz --pose 0,30,1.02,50 --out {d}/o.pgm",
        "render --input {d}/dir --out {d}/o.pgm",
        "reconstruct --input {d}/dir --checkpoint {d}/micro.ckpt --out {d}/o",
        "reconstruct --input {d}/cloud.xyz --checkpoint {d}/dir --out {d}/o",
        "probe --checkpoint {d}/dir",
        "pretrain --config {d}/dir --out {d}/o",
        "pretrain --config {d}/broken.json --out {d}/o",
        "pretrain --config {d}/list.json --out {d}/o",
        "reconstruct --input {d}/binary.xyz --checkpoint {d}/micro.ckpt --out {d}/o",
        "probe --checkpoint {d}/six.ckpt",
    ],
    ids=[
        "render_inf_pose", "render_near_plane_behind_camera", "render_dir_input", "reconstruct_dir_input",
        "reconstruct_dir_checkpoint", "probe_dir_checkpoint", "pretrain_dir_config",
        "pretrain_config_not_json", "pretrain_config_not_an_object",
        "reconstruct_non_utf8_input", "probe_six_classes",
    ],
)
def test_bad_input_exit_2(bad_inputs, capsys, argv):
    code = main(argv.format(d=bad_inputs).split())
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize(
    "argv",
    [
        "pretrain --config tiny --out {d}/afile/run",
        "reconstruct --input {d}/cloud.xyz --checkpoint {d}/micro.ckpt --out {d}/afile",
        "render --input {d}/cloud.xyz --out {d}/afile/x.pgm",
    ],
    ids=["pretrain", "reconstruct", "render"],
)
def test_unwritable_output_exit_2(bad_inputs, capsys, argv):
    (bad_inputs / "afile").write_text("a regular file\n")
    code = main(argv.format(d=bad_inputs).split())
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err


def test_entry_point_exit_2_without_traceback(tmp_path):
    src = str(Path(mvmae.__file__).parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "mvmae.cli", "render", "--input", str(tmp_path),
         "--out", str(tmp_path / "o.pgm")],
        capture_output=True, text=True, cwd=src,
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--version"])
    assert info.value.code == 0
    assert capsys.readouterr().out.strip()
