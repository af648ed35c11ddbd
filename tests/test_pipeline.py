import dataclasses
import errno
import os
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mvmae
from mvmae import fileio
from mvmae.autodiff import no_grad, ops
from mvmae.autodiff.optim import cosine_lr
from mvmae.checkpoint import load_checkpoint, save_checkpoint
from mvmae.config import desk_config, tiny_config
from mvmae.data import SyntheticShape, generate_shape, make_dataset
from mvmae.errors import CheckpointError, ContractViolation, TrainingAborted
from mvmae.geometry import PointCloud
from mvmae.model import MultiviewMae, build_pretrain_plan, plan_losses
from mvmae.pipeline import (
    METRICS_HEADER,
    QUERIES_PER_CLASS,
    ProbeReport,
    extract_features,
    fewshot_trials,
    load_pretrained,
    pretrain,
    probe_features,
    resume_point,
    step_gradients,
    summarize_accuracy,
)
from mvmae.projection import write_pgm
from mvmae.rng import Rng

from oracles import (
    StartedWorker,
    param_fingerprint,
    per_sample_gradients,
    read_metrics,
    traced_peak,
)


@pytest.fixture(scope="module")
def corpus():
    cfg = tiny_config()
    clouds, labels = make_dataset(cfg.data)
    return cfg, clouds, labels


def with_epochs(cfg, epochs):
    return dataclasses.replace(cfg, train=dataclasses.replace(cfg.train, epochs=epochs))


def resume_run(cfg, clouds, out_dir, run_seed, checkpoint, **kwargs):
    """A run resumed from a checkpoint the way `mvmae pretrain --resume`
    does it: resume_point refuses or accepts, pretrain takes its result."""
    resume = resume_point(cfg, len(clouds), run_seed, checkpoint)
    return pretrain(cfg, clouds, out_dir, run_seed=run_seed, resume=resume, **kwargs)


@pytest.fixture(scope="module")
def trained(corpus, tmp_path_factory):
    cfg, clouds, _ = corpus
    out = tmp_path_factory.mktemp("trained")
    return pretrain(cfg, clouds, out, run_seed=11), out


# --- pretraining loop -----------------------------------------------------


def test_metrics_layout_and_lr_schedule(trained, corpus):
    cfg = corpus[0]
    result, _ = trained
    text = result.metrics_path.read_text()
    lines = text.splitlines()
    assert lines[0] == METRICS_HEADER
    rows = read_metrics(result.metrics_path)
    assert [r["step"] for r in rows] == list(range(result.total_steps))
    for r in rows:
        want = cosine_lr(
            r["step"], result.total_steps, cfg.train.lr,
            lr_min=cfg.train.lr_min, warmup_steps=cfg.train.warmup_steps,
        )
        assert r["lr"] == want  # logged lr is the formula value, bit for bit
        assert abs(r["total"] - (r["l3d"] + r["l2d"])) < 1e-12
        assert np.isfinite([r["l3d"], r["l2d"], r["total"]]).all()


def test_checkpoint_cadence(trained):
    result, out = trained
    names = sorted(p.name for p in out.iterdir())
    assert "final.ckpt" in names
    assert "metrics.tsv" in names
    expected = [f"ckpt_{s:08d}.ckpt" for s in (4, 8, 12, 16)]
    assert [n for n in names if n.startswith("ckpt_")] == expected
    final = load_checkpoint(out / "final.ckpt")
    assert final.step == result.total_steps


def test_identical_seeds_identical_metrics(corpus, tmp_path):
    cfg, clouds, _ = corpus
    cfg = with_epochs(cfg, 1)
    a = pretrain(cfg, clouds, tmp_path / "a", run_seed=3)
    b = pretrain(cfg, clouds, tmp_path / "b", run_seed=3)
    assert a.metrics_path.read_bytes() == b.metrics_path.read_bytes()
    assert (tmp_path / "a" / "final.ckpt").read_bytes() == (
        tmp_path / "b" / "final.ckpt"
    ).read_bytes()


def test_different_seed_different_run(corpus, tmp_path):
    cfg, clouds, _ = corpus
    cfg = with_epochs(cfg, 1)
    a = pretrain(cfg, clouds, tmp_path / "a", run_seed=3)
    b = pretrain(cfg, clouds, tmp_path / "b", run_seed=4)
    assert a.metrics_path.read_bytes() != b.metrics_path.read_bytes()


@pytest.mark.parametrize("cut", [3, 10, 16])
def test_resume_any_cut_reproduces_run(corpus, trained, tmp_path, cut):
    cfg, clouds, _ = corpus
    full_result, full_dir = trained
    part = pretrain(cfg, clouds, tmp_path / "p", run_seed=11, stop_after_step=cut)
    assert part.steps_run == cut
    resumed = resume_run(cfg, clouds, tmp_path / "p", 11, part.checkpoint_path)
    assert resumed.metrics_path.read_bytes() == full_result.metrics_path.read_bytes()
    assert (tmp_path / "p" / "final.ckpt").read_bytes() == (
        full_dir / "final.ckpt"
    ).read_bytes()


def test_resume_discards_rows_past_checkpoint(corpus, trained, tmp_path):
    # simulate a crash that wrote metrics beyond the last saved checkpoint
    cfg, clouds, _ = corpus
    full_result, _ = trained
    run = pretrain(cfg, clouds, tmp_path / "c", run_seed=11, stop_after_step=11)
    resumed = resume_run(
        cfg, clouds, tmp_path / "c", 11, tmp_path / "c" / "ckpt_00000008.ckpt",
    )
    assert resumed.metrics_path.read_bytes() == full_result.metrics_path.read_bytes()


def test_stop_before_start_step_rejected_before_any_write(corpus, trained, tmp_path):
    cfg, clouds, _ = corpus
    _, full_dir = trained
    out = tmp_path / "s"
    with pytest.raises(ContractViolation, match="stop_after_step 3 is before the start step 8"):
        resume_run(cfg, clouds, out, 11, full_dir / "ckpt_00000008.ckpt", stop_after_step=3)
    with pytest.raises(ContractViolation, match="stop_after_step -1 is before the start step 0"):
        pretrain(cfg, clouds, out, run_seed=11, stop_after_step=-1)
    assert not out.exists()


def test_resume_replaces_metrics_whole(corpus, tmp_path, monkeypatch):
    # the checkpoint's rows go to a new file that replaces the old one, so
    # a failure before the swap leaves the old rows in place
    cfg, clouds, _ = corpus
    run = pretrain(cfg, clouds, tmp_path / "a", run_seed=1, stop_after_step=6)
    metrics = tmp_path / "a" / "metrics.tsv"
    before = metrics.read_bytes()

    def interrupted(src, dst):
        raise OSError("interrupted")

    monkeypatch.setattr("mvmae.fileio.os.replace", interrupted)
    with pytest.raises(OSError, match="interrupted"):
        resume_run(cfg, clouds, tmp_path / "a", 1, tmp_path / "a" / "ckpt_00000004.ckpt")
    assert metrics.read_bytes() == before
    assert len(read_metrics(metrics)) == 6


def test_each_checkpoint_written_once(corpus, tmp_path, monkeypatch):
    cfg, clouds, _ = corpus
    written = []

    def recording(path, *rest):
        written.append(Path(path).name)
        save_checkpoint(path, *rest)

    monkeypatch.setattr("mvmae.pipeline.save_checkpoint", recording)
    run = pretrain(cfg, clouds, tmp_path / "a", run_seed=1, stop_after_step=4)
    assert written == ["ckpt_00000004.ckpt"]
    written.clear()
    resume_run(cfg, clouds, tmp_path / "a", 1, run.checkpoint_path)
    assert written == [f"ckpt_{s:08d}.ckpt" for s in (8, 12, 16)] + ["final.ckpt"]


class HalfWrite:
    """A file whose write stores half its bytes, then fails."""

    def __init__(self, *args):
        self.fh = open(*args)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        self.fh.write(data[: len(data) // 2])
        raise OSError(errno.ENOSPC, "No space left on device")


def test_failed_checkpoint_write_keeps_previous(corpus, trained, tmp_path, monkeypatch):
    cfg, clouds, _ = corpus
    full_result, full_dir = trained
    run = pretrain(cfg, clouds, tmp_path / "p", run_seed=11, stop_after_step=8)
    before = run.checkpoint_path.read_bytes()
    monkeypatch.setattr(fileio, "open", HalfWrite, raising=False)
    ckpt = load_checkpoint(run.checkpoint_path)
    ckpt.opt.step += 1
    with pytest.raises(OSError, match="No space"):
        save_checkpoint(run.checkpoint_path, cfg, ckpt.params, ckpt.opt, ckpt.bookkeeping)
    monkeypatch.undo()
    assert run.checkpoint_path.read_bytes() == before
    assert not list(run.checkpoint_path.parent.glob("*.tmp"))
    resumed = resume_run(cfg, clouds, tmp_path / "p", 11, run.checkpoint_path)
    assert resumed.metrics_path.read_bytes() == full_result.metrics_path.read_bytes()
    assert resumed.checkpoint_path.read_bytes() == (full_dir / "final.ckpt").read_bytes()


def test_failed_pgm_write_keeps_previous(tmp_path, monkeypatch):
    path = tmp_path / "depth.pgm"
    write_pgm(path, np.full((4, 6), 0.25))
    before = path.read_bytes()
    monkeypatch.setattr(fileio, "open", HalfWrite, raising=False)
    with pytest.raises(OSError, match="No space"):
        write_pgm(path, np.full((4, 6), 0.75))
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert not list(tmp_path.glob("*.tmp"))



def test_write_atomic_writes_a_buffer_sequence_in_order(tmp_path):
    chunks = [
        b"head",
        np.arange(6.0).reshape(2, 3),
        np.array(2.5),
        b"",
        np.zeros((3, 0)),
        np.array([1, -2], dtype="<i4"),
        b"tail",
    ]
    fileio.write_atomic(tmp_path / "a.bin", chunks)
    want = b"".join(c.tobytes() if isinstance(c, np.ndarray) else c for c in chunks)
    assert (tmp_path / "a.bin").read_bytes() == want
    fileio.write_atomic(tmp_path / "a.bin", (b"x", b"y"))
    assert (tmp_path / "a.bin").read_bytes() == b"xy"


def test_write_atomic_syncs_the_directory_after_the_rename(tmp_path, monkeypatch):
    # only the order of the calls is checked: whether the rename survives
    # a power loss cannot be observed from a test
    events, dir_fds = [], []
    real_fsync, real_replace = os.fsync, os.replace

    def fsync(fd):
        is_dir = stat.S_ISDIR(os.fstat(fd).st_mode)
        events.append(("fsync", is_dir))
        if is_dir:
            dir_fds.append(fd)
        real_fsync(fd)

    def replace(src, dst):
        events.append(("replace", Path(dst).name))
        real_replace(src, dst)

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(os, "replace", replace)
    fileio.write_atomic(tmp_path / "a.txt", "x")
    monkeypatch.undo()
    assert events == [("fsync", False), ("replace", "a.txt"), ("fsync", True)]
    with pytest.raises(OSError):
        os.fstat(dir_fds[0])  # closed again

BLAS_THREADS_RUN = """
import sys
from mvmae.config import desk_config
from mvmae.data import make_dataset
from mvmae.pipeline import pretrain
cfg = desk_config()
pretrain(cfg, make_dataset(cfg.data)[0][:64], sys.argv[1], run_seed=3, stop_after_step=3)
"""


def test_blas_thread_count_keeps_bytes(tmp_path):
    # no byte may depend on how many threads run, so the BLAS thread count
    # must not reach the numbers: a 3-step desk run writes the same bytes
    src = str(Path(mvmae.__file__).parents[1])
    written = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        env = dict(
            os.environ,
            OPENBLAS_NUM_THREADS=threads,
            PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
        )
        subprocess.run([sys.executable, "-c", BLAS_THREADS_RUN, str(out)], env=env, check=True)
        written.append([(out / name).read_bytes() for name in ("metrics.tsv", "ckpt_00000003.ckpt")])
    assert written[0] == written[1]


def test_resume_drops_row_cut_short_by_crash(corpus, trained, tmp_path):
    cfg, clouds, _ = corpus
    full_result, _ = trained
    run = pretrain(cfg, clouds, tmp_path / "c", run_seed=11, stop_after_step=11)
    with run.metrics_path.open("a") as metrics:
        metrics.write("1")  # the row of step 11, cut after its first byte
    resumed = resume_run(
        cfg, clouds, tmp_path / "c", 11, tmp_path / "c" / "ckpt_00000008.ckpt",
    )
    assert resumed.metrics_path.read_bytes() == full_result.metrics_path.read_bytes()


def test_resume_keeps_a_tail_directory(corpus, trained, tmp_path):
    # a directory resumed from another run's step-8 checkpoint, stopped at
    # step 14, then resumed from its own step-12 checkpoint: each resume
    # writes the run's whole history, so it ends with the full run's bytes
    cfg, clouds, _ = corpus
    full_result, full_dir = trained
    full_rows = full_result.metrics_path.read_text().splitlines(keepends=True)
    tail = tmp_path / "tail"
    for _ in range(2):
        resume_run(cfg, clouds, tail, 11, full_dir / "ckpt_00000008.ckpt", stop_after_step=14)
        assert (tail / "metrics.tsv").read_text() == "".join(full_rows[:15])
    resumed = resume_run(cfg, clouds, tail, 11, tail / "ckpt_00000012.ckpt")
    assert resumed.metrics_path.read_bytes() == full_result.metrics_path.read_bytes()
    assert (tail / "final.ckpt").read_bytes() == (full_dir / "final.ckpt").read_bytes()


@pytest.mark.parametrize(
    "metrics", [None, "garbage\n", "other_run"], ids=["missing", "garbage", "other_run"]
)
def test_resume_ignores_the_metrics_it_finds(corpus, trained, tmp_path, metrics):
    # --out's metrics.tsv is missing, garbage or another run's rows 0 to 11:
    # a resume from step 8 writes the uninterrupted run's bytes over it
    cfg, clouds, _ = corpus
    full_result, full_dir = trained
    out = tmp_path / "o"
    if metrics == "other_run":
        pretrain(cfg, clouds, out, run_seed=12, stop_after_step=12)
    elif metrics is not None:
        out.mkdir()
        (out / "metrics.tsv").write_text(metrics)
    resumed = resume_run(cfg, clouds, out, 11, full_dir / "ckpt_00000008.ckpt")
    assert resumed.metrics_path.read_bytes() == full_result.metrics_path.read_bytes()
    assert resumed.checkpoint_path.read_bytes() == (full_dir / "final.ckpt").read_bytes()


def test_every_checkpoint_holds_the_losses_of_its_steps(trained):
    # each checkpoint's losses are its first `step` rows of metrics.tsv,
    # which format_metrics_row spells from them and the schedule's lr
    result, out = trained
    rows = read_metrics(result.metrics_path)
    for path in sorted(out.glob("*.ckpt")):
        ckpt = load_checkpoint(path)
        losses = ckpt.bookkeeping["losses"]
        assert len(losses) == ckpt.step, path.name
        assert losses == [[row["l3d"], row["l2d"]] for row in rows[: ckpt.step]], path.name


def test_resume_rejects_other_config(corpus, tmp_path):
    cfg, clouds, _ = corpus
    run = pretrain(cfg, clouds, tmp_path / "a", run_seed=1, stop_after_step=4)
    other = dataclasses.replace(
        cfg, train=dataclasses.replace(cfg.train, lr=cfg.train.lr * 2)
    )
    with pytest.raises(CheckpointError, match=r"in train\.lr \(checkpoint 0\.001, requested 0\.002\)$"):
        resume_run(other, clouds, tmp_path / "b", 1, run.checkpoint_path)


def test_empty_dataset_rejected(corpus, tmp_path):
    cfg = corpus[0]
    with pytest.raises(ContractViolation, match="non-empty"):
        pretrain(cfg, [], tmp_path / "x", run_seed=0)


def test_divergence_aborts_with_step(corpus, tmp_path):
    cfg, clouds, _ = corpus
    bad = dataclasses.replace(
        cfg, train=dataclasses.replace(cfg.train, lr=1e8)
    )
    with pytest.raises(TrainingAborted) as info:
        with np.errstate(all="ignore"):
            pretrain(bad, clouds, tmp_path / "boom", run_seed=0)
    assert info.value.step >= 0
    rows = read_metrics(tmp_path / "boom" / "metrics.tsv")
    assert len(rows) == info.value.step  # finite steps logged, the bad one not


def test_nonfinite_gradient_aborts_before_update(corpus, tmp_path, monkeypatch):
    import mvmae.pipeline as pipeline

    cfg, clouds, _ = corpus
    batch = cfg.train.batch_size
    seen = {"backward": 0}
    real_step, real_backward = pipeline.step_gradients, pipeline.backward

    def step(model, plans, weight):
        seen["model"] = model
        return real_step(model, plans, weight)

    def backward(loss):
        real_backward(loss)
        seen["backward"] += 1
        if seen["backward"] == 2 * batch:  # last sample of step 1
            params = seen["model"].params
            seen["before"] = param_fingerprint(params)
            names = list(params)
            seen["first"] = names[3]
            params[names[3]].grad.flat[0] = np.inf
            params[names[-1]].grad.flat[-1] = -np.inf

    monkeypatch.setattr(pipeline, "step_gradients", step)
    monkeypatch.setattr(pipeline, "backward", backward)
    with pytest.raises(TrainingAborted) as info:
        pretrain(cfg, clouds, tmp_path / "g", run_seed=0)
    assert info.value.step == 1
    assert str(info.value) == f"non-finite gradient for {seen['first']}"
    # no update was applied, and only the finite step 0 was logged
    assert param_fingerprint(seen["model"].params) == seen["before"]
    rows = read_metrics(tmp_path / "g" / "metrics.tsv")
    assert [r["step"] for r in rows] == [0]
    assert np.isfinite(rows[0]["total"])


def test_nonfinite_loss_aborts_before_any_backward(corpus, tmp_path, monkeypatch):
    # a NaN in the patch embedding reaches every encoded row, so the rows
    # that ops.segment_pool pools too; its VJP may assume finite rows only
    # because the first sample's loss aborts the step before any backward
    import mvmae.pipeline as pipeline

    cfg, clouds, _ = corpus
    real_step = pipeline.step_gradients
    backwards = []

    def step(model, plans, weight):
        model.params["patch_embed.fc1.bias"].data[0] = np.nan
        return real_step(model, plans, weight)

    monkeypatch.setattr(pipeline, "step_gradients", step)
    monkeypatch.setattr(pipeline, "backward", backwards.append)
    with pytest.raises(TrainingAborted, match="non-finite loss") as info:
        with np.errstate(all="ignore"):
            pretrain(cfg, clouds, tmp_path / "nan", run_seed=0)
    assert info.value.step == 0
    assert backwards == []


# --- one step's gradients ---------------------------------------------------


def step_inputs(preset, batch):
    cfg = desk_config() if preset == "desk" else tiny_config()
    model = MultiviewMae(cfg.model, Rng(0).derive("init"))
    kinds = ("torus", "cone", "sphere", "cube", "cylinder")
    plans = [
        build_pretrain_plan(
            generate_shape(SyntheticShape(kinds[i % 5], cfg.data.n_points, seed=i)),
            cfg.model,
            Rng(1).derive("sample", i),
        )
        for i in range(batch)
    ]
    return model, plans


def batched_step(model, plans):
    step_gradients(model, plans, 1.0 / len(plans))
    return {name: p.grad.copy() for name, p in model.params.items()}


# tiny 5 runs a full front-end batch and a batch of one
@pytest.mark.parametrize("preset,batch", [("tiny", 2), ("tiny", 5), ("desk", 8)])
def test_step_gradients_match_per_sample_accumulation(preset, batch):
    model, plans = step_inputs(preset, batch)
    got = batched_step(model, plans)
    want = per_sample_gradients(model, plans, 1.0 / batch)
    for name, g in want.items():
        # the batched front end reorders sums only
        assert np.linalg.norm(got[name] - g) <= 1e-12 * np.linalg.norm(g), name


def deferred_weight_adjoints(model, plans) -> int:
    """How many weight adjoints of a step over one front-end batch of plans
    reach ops._DEFER_MIN_PRODUCT multiply-adds, so go to the worker: each
    linear map's (rows, d_in, d_out), read from the model's layer sizes."""
    cfg, b = model.cfg, len(plans)
    c, visible = cfg.C, b * len(plans[0].mask.visible_idx)

    def mlp(rows, d_in, d_hidden, d_out):
        return [(rows, d_in, d_hidden), (rows, d_hidden, d_out)]

    def block(rows):  # wq, the key projection, wv, wo, then the MLP
        return [(rows, c, c)] * 4 + mlp(rows, c, 4 * c, c)

    pixels = (cfg.H_i // cfg.H_t) * (cfg.W_i // cfg.W_t)
    image_rows = cfg.K * model.tokens_per_view
    maps = mlp(visible * cfg.k, 3, c // 2, c) + mlp(b * cfg.n, 3, c, c)
    maps += block(visible) * cfg.enc_depth
    for plan in plans:
        fused = sum(len(grouping.groups) for grouping in plan.groupings)
        maps += mlp(fused, c, c, c) + mlp(1, 2, c, c) * 2 + mlp(cfg.K, 5, c, c)
        maps += block(cfg.n + image_rows) * cfg.dec_depth
        maps += [(len(plan.mask.masked_idx), c, 3 * cfg.k), (image_rows, c, pixels)]
    return sum(rows * d_in * d_out >= ops._DEFER_MIN_PRODUCT for rows, d_in, d_out in maps)


def test_step_gradients_keep_their_bytes_with_the_worker_off(monkeypatch):
    # the desk decoder's (4, 256, 256) attention maps are past the split
    # threshold, so with a worker each shares its heads between two threads:
    # forward and VJP in each decoder block of each sample. The large weight
    # adjoints go to the worker whole
    model, plans = step_inputs("desk", 4)
    worker = StartedWorker()
    monkeypatch.setattr(ops, "_WORKER", worker)
    try:
        split = batched_step(model, plans)
    finally:
        worker.shutdown()
    deferred = deferred_weight_adjoints(model, plans)
    assert deferred  # the decoder's projections and MLPs at least
    assert worker.tasks == 2 * model.cfg.dec_depth * len(plans) + deferred
    monkeypatch.setattr(ops, "_WORKER", None)
    inline = batched_step(model, plans)
    for name, g in inline.items():
        assert split[name].tobytes() == g.tobytes(), name


def test_desk_step_memory_is_bounded():
    # traced peaks on numpy 2.4: 19.3 MB one sample at a time, 25.3 MB with
    # front ends batched by 4, 30.9 MB with all 8 front ends alive at once
    model, plans = step_inputs("desk", 8)
    batched_step(model, plans)  # first-use allocations stay out of the peaks
    batched = traced_peak(lambda: batched_step(model, plans))
    per_sample = traced_peak(lambda: per_sample_gradients(model, plans, 1.0 / 8))
    assert batched < 1.4 * per_sample, (batched, per_sample)


def test_resume_without_run_seed_rejected(corpus, tmp_path):
    cfg, clouds, _ = corpus
    run = pretrain(cfg, clouds, tmp_path / "a", run_seed=1, stop_after_step=4)
    ckpt = load_checkpoint(run.checkpoint_path)
    for bookkeeping in ({"seed": 1}, {"run_seed": "1"}, {"run_seed": True}):
        path = tmp_path / "bad.ckpt"
        save_checkpoint(path, cfg, ckpt.params, ckpt.opt, bookkeeping)
        with pytest.raises(CheckpointError, match="run_seed"):
            resume_run(cfg, clouds, tmp_path / "b", 1, path)


def test_resume_with_other_epochs_rejected(corpus, tmp_path):
    cfg, clouds, _ = corpus
    one = with_epochs(cfg, 1)
    run = pretrain(one, clouds, tmp_path / "a", run_seed=1, stop_after_step=2)
    losses = [[row["l3d"], row["l2d"]] for row in read_metrics(run.metrics_path)]
    assert load_checkpoint(run.checkpoint_path).bookkeeping == {
        "run_seed": 1, "total_steps": run.total_steps, "losses": losses,
    }
    with pytest.raises(CheckpointError, match=r"in train\.epochs \(checkpoint 1, requested 2\)"):
        resume_run(cfg, clouds, tmp_path / "a", 1, run.checkpoint_path)
    # the same epochs resumes, and matches an uninterrupted run
    resumed = resume_run(one, clouds, tmp_path / "a", 1, run.checkpoint_path)
    whole = pretrain(one, clouds, tmp_path / "b", run_seed=1)
    assert resumed.metrics_path.read_bytes() == whole.metrics_path.read_bytes()
    assert resumed.checkpoint_path.read_bytes() == whole.checkpoint_path.read_bytes()


def test_corpus_smaller_than_the_configs(corpus, tmp_path):
    # Config.validate counts the steps of the config's own corpus; a Python
    # caller may pass fewer clouds, which makes a shorter run
    cfg, clouds, _ = corpus
    run = pretrain(cfg, clouds, tmp_path / "a", run_seed=1, stop_after_step=4)
    with pytest.raises(CheckpointError, match="a 20-step run, this run has 4 steps$"):
        resume_run(cfg, clouds[:4], tmp_path / "a", 1, run.checkpoint_path)
    warm = dataclasses.replace(cfg, train=dataclasses.replace(cfg.train, warmup_steps=4))
    with pytest.raises(ContractViolation, match="warmup_steps 4"):
        pretrain(warm, clouds[:4], tmp_path / "w", run_seed=1)
    assert not (tmp_path / "w" / "metrics.tsv").exists()


def test_resume_without_total_steps_rejected(corpus, tmp_path):
    cfg, clouds, _ = corpus
    run = pretrain(cfg, clouds, tmp_path / "a", run_seed=1, stop_after_step=4)
    ckpt = load_checkpoint(run.checkpoint_path)
    for bookkeeping in ({"run_seed": 1}, {"run_seed": 1, "total_steps": 20.0}):
        path = tmp_path / "bad.ckpt"
        save_checkpoint(path, cfg, ckpt.params, ckpt.opt, bookkeeping)
        with pytest.raises(CheckpointError, match="total_steps"):
            resume_run(cfg, clouds, tmp_path / "b", 1, path)


# --- learning gate ----------------------------------------------------------


def heldout_losses(model, plans) -> tuple[float, float]:
    """Mean l3d and l2d of a model over fixed plans."""
    with no_grad():
        diags = [diag for _, _, diag in plan_losses(model, plans)]
    return (
        float(np.mean([d["l3d"] for d in diags])),
        float(np.mean([d["l2d"] for d in diags])),
    )


def test_pretraining_lowers_heldout_losses(corpus, tmp_path):
    # measured on the seed-0 tiny run: l3d 0.0729 -> 0.0523, l2d 0.0698 ->
    # 0.0538; the run is bit-exact, so a 10% floor on each drop cannot flake
    cfg, clouds, _ = corpus
    heldout, _ = make_dataset(dataclasses.replace(cfg.data, dataset_seed=1))
    plans = [
        build_pretrain_plan(cloud, cfg.model, Rng(123).derive("heldout", i))
        for i, cloud in enumerate(heldout)
    ]
    before = heldout_losses(MultiviewMae(cfg.model, Rng(0).derive("init")), plans)
    result = pretrain(cfg, clouds, tmp_path, run_seed=0)
    after = heldout_losses(load_pretrained(result.checkpoint_path)[0], plans)
    for name, b, a in zip(("l3d", "l2d"), before, after):
        assert a <= 0.9 * b, f"{name} {b:.4f} -> {a:.4f}"


# --- linear probe -----------------------------------------------------------


def separable_features(per_class=30, classes=4, noise=0.01, seed=0):
    rng = np.random.default_rng(seed)
    labels = np.repeat(np.arange(classes), per_class)
    features = np.zeros((per_class * classes, 8))
    features[np.arange(len(labels)), labels] = 1.0
    features += rng.normal(0, noise, features.shape)
    return features, labels


def test_probe_separable_features_perfect():
    features, labels = separable_features()
    report = probe_features(features, labels, Rng(0).derive("p"))
    assert report.accuracy == 1.0
    assert np.array_equal(np.diag(report.confusion), report.confusion.sum(axis=1))


def test_probe_confusion_rows_match_test_counts():
    features, labels = separable_features(per_class=25, classes=3)
    report = probe_features(features, labels, Rng(1).derive("p"))
    # 25 instances -> 20 train / 5 test per class
    assert report.confusion.sum(axis=1).tolist() == [5, 5, 5]
    assert 0.0 <= report.accuracy <= 1.0


def test_probe_deterministic():
    features, labels = separable_features(noise=0.5)
    a = probe_features(features, labels, Rng(2).derive("p"))
    b = probe_features(features, labels, Rng(2).derive("p"))
    assert a.accuracy == b.accuracy
    assert np.array_equal(a.confusion, b.confusion)


def test_probe_permuted_labels_near_chance():
    features, labels = separable_features(per_class=100, classes=5)
    permuted = np.random.default_rng(3).permutation(labels)
    report = probe_features(features, permuted, Rng(4).derive("p"))
    assert report.accuracy < 0.45  # chance is 0.2 for 5 classes


def test_probe_rejects_single_class():
    features = np.random.default_rng(5).normal(size=(10, 4))
    with pytest.raises(ContractViolation, match="2 classes"):
        probe_features(features, np.zeros(10, dtype=int), Rng(0).derive("p"))


def test_probe_rejects_sparse_labels():
    features = np.random.default_rng(6).normal(size=(10, 4))
    labels = np.array([0, 0, 0, 0, 0, 2, 2, 2, 2, 2])
    with pytest.raises(ContractViolation, match="labels"):
        probe_features(features, labels, Rng(0).derive("p"))


def test_probe_rejects_a_class_with_one_instance():
    features = np.random.default_rng(7).normal(size=(7, 4))
    labels = np.array([0, 0, 0, 0, 0, 0, 1])
    with pytest.raises(ContractViolation, match="class 1 needs at least 2 instances"):
        probe_features(features, labels, Rng(0).derive("p"))


def test_linear_probe_on_encoder_keeps_params(corpus, trained):
    _, clouds, labels = corpus
    model, _ = load_pretrained(trained[0].checkpoint_path)
    before = param_fingerprint(model.params)
    features = extract_features(model, clouds)
    report = probe_features(features, labels, Rng(7).derive("p"))
    assert param_fingerprint(model.params) == before
    assert 0.0 <= report.accuracy <= 1.0
    # 4 instances/class at tiny scale -> 3 train / 1 test per class
    assert report.confusion.sum(axis=1).tolist() == [1, 1, 1, 1, 1]


def test_extract_features_guard_detects_mutation(corpus, trained, monkeypatch):
    _, clouds, _ = corpus
    model, _ = load_pretrained(trained[0].checkpoint_path)
    import mvmae.pipeline as pipeline_mod

    real = pipeline_mod.encoder_features

    def hostile(model, cloud):
        out = real(model, cloud)
        next(iter(model.params.values())).data += 1.0
        return out

    monkeypatch.setattr(pipeline_mod, "encoder_features", hostile)
    before = param_fingerprint(model.params)
    with pytest.raises(ContractViolation, match="mutated"):
        extract_features(model, clouds[:2])
    # the write was refused, and every parameter is writable again
    assert param_fingerprint(model.params) == before
    assert all(p.data.flags.writeable for p in model.params.values())


def test_extract_features_guard_detects_rebinding(corpus, trained, monkeypatch):
    _, clouds, _ = corpus
    model, _ = load_pretrained(trained[0].checkpoint_path)
    import mvmae.pipeline as pipeline_mod

    real = pipeline_mod.encoder_features
    first = next(iter(model.params.values()))
    original = first.data

    def hostile(model, cloud):
        out = real(model, cloud)
        first.data = first.data + 1.0
        return out

    monkeypatch.setattr(pipeline_mod, "encoder_features", hostile)
    with pytest.raises(ContractViolation, match=f"mutated.*{first.name}"):
        extract_features(model, clouds[:2])
    assert original.flags.writeable


def test_extract_features_passes_other_value_errors_through(corpus, trained, monkeypatch):
    # only a write into a read-only parameter is reported as a mutation
    _, clouds, _ = corpus
    model, _ = load_pretrained(trained[0].checkpoint_path)
    import mvmae.pipeline as pipeline_mod

    def failing(model, cloud):
        raise ValueError("operands could not be broadcast together")

    monkeypatch.setattr(pipeline_mod, "encoder_features", failing)
    with pytest.raises(ValueError, match="broadcast") as info:
        extract_features(model, clouds[:2])
    assert type(info.value) is ValueError
    assert all(p.data.flags.writeable for p in model.params.values())


def test_nan_point_in_one_cloud_is_rejected(corpus, trained):
    _, clouds, _ = corpus
    model, _ = load_pretrained(trained[0].checkpoint_path)
    assert len(clouds) == 20
    points = clouds[7].points.copy()
    points[3, 0] = np.nan
    with pytest.raises(ContractViolation, match="non-finite"):
        PointCloud(points, source_id=clouds[7].source_id)
    # a cloud whose points went non-finite after construction is caught
    # at its feature row instead of turning the probe into a constant
    poisoned = [PointCloud(c.points.copy(), source_id=c.source_id) for c in clouds]
    poisoned[7].points[3, 0] = np.nan
    with pytest.raises(ContractViolation, match=f"non-finite features.*{clouds[7].source_id}"):
        extract_features(model, poisoned)


# --- few-shot episodes ----------------------------------------------------


def test_fewshot_separable_features_perfect():
    features, labels = separable_features(per_class=25, classes=4)
    reports = fewshot_trials(features, labels, n_way=3, m_shot=2, trials=5,
                             rng=Rng(0).derive("f"))
    assert len(reports) == 5
    for r in reports:
        assert r.accuracy == 1.0
        assert r.confusion.shape == (3, 3)
        assert r.confusion.sum(axis=1).tolist() == [QUERIES_PER_CLASS] * 3
    mean, std = summarize_accuracy(reports)
    assert mean == 1.0 and std == 0.0


def test_fewshot_deterministic():
    features, labels = separable_features(per_class=25, classes=4, noise=1.0)
    a = fewshot_trials(features, labels, 3, 2, 4, Rng(1).derive("f"))
    b = fewshot_trials(features, labels, 3, 2, 4, Rng(1).derive("f"))
    assert [r.accuracy for r in a] == [r.accuracy for r in b]


def test_fewshot_full_support_hits_separability_ceiling():
    # every non-query instance in the support set: nearest-centroid then
    # realizes the feature space's full separability, here exactly 1.0
    features, labels = separable_features(per_class=25, classes=3)
    m_full = 25 - QUERIES_PER_CLASS
    reports = fewshot_trials(features, labels, 3, m_full, 5, Rng(2).derive("f"))
    assert all(r.accuracy == 1.0 for r in reports)


def test_fewshot_contracts():
    features, labels = separable_features(per_class=25, classes=3)
    rng = Rng(0).derive("f")
    with pytest.raises(ContractViolation, match="n_way"):
        fewshot_trials(features, labels, 4, 1, 2, rng)
    with pytest.raises(ContractViolation, match="n_way"):
        fewshot_trials(features, labels, 1, 1, 2, rng)
    with pytest.raises(ContractViolation, match="fewer than"):
        fewshot_trials(features, labels, 3, 6, 2, rng)  # 6 + 20 > 25
    with pytest.raises(ContractViolation, match="positive"):
        fewshot_trials(features, labels, 3, 0, 2, rng)


def test_fewshot_rejects_labels_that_are_not_class_indices():
    # labels {0, 2}: episode classes are drawn as indices 0..C-1
    features, labels = separable_features(per_class=25, classes=3)
    keep = labels != 1
    with pytest.raises(ContractViolation, match="0..n_classes-1"):
        fewshot_trials(features[keep], labels[keep], 2, 1, 2, Rng(0).derive("f"))


def test_fewshot_on_encoder_insufficient_data(corpus, trained):
    _, clouds, labels = corpus
    model, _ = load_pretrained(trained[0].checkpoint_path)
    with pytest.raises(ContractViolation, match="fewer than"):
        fewshot_trials(extract_features(model, clouds), labels,
                       n_way=2, m_shot=1, trials=2, rng=Rng(0).derive("f"))


def test_summarize_accuracy_values():
    reports = [
        ProbeReport(accuracy=a, confusion=np.zeros((2, 2), dtype=np.int64))
        for a in (0.2, 0.4, 0.6)
    ]
    mean, std = summarize_accuracy(reports)
    assert abs(mean - 0.4) < 1e-15
    assert abs(std - np.std([0.2, 0.4, 0.6])) < 1e-15
