"""Pretraining loop, checkpoint cadence, and frozen-encoder evaluation.

Determinism contract: every random draw in a run derives from the run
seed and structural indices (epoch, item), never from loop state, so a
run resumed from any checkpoint replays the remaining steps bit for bit.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .autodiff import backward, ops
from .autodiff.optim import AdamWState, adamw_step, cosine_lr
from .checkpoint import Checkpoint, load_checkpoint, restore_params, save_checkpoint
from .config import Config
from .errors import CheckpointError, ConfigError, ContractViolation, TrainingAborted
from .fileio import read_input, write_atomic
from .geometry import PointCloud, augment
from .model import MultiviewMae, encoder_features, forward_pretrain
from .rng import Rng

METRICS_HEADER = "step\tlr\tl3d\tl2d\ttotal"
QUERIES_PER_CLASS = 20
PROBE_STEPS = 400
PROBE_LR = 0.5
PROBE_WEIGHT_DECAY = 1e-4
PROBE_TRAIN_FRACTION = 0.8


def format_metrics_row(step: int, lr: float, l3d: float, l2d: float, total: float) -> str:
    return f"{step}\t{lr!r}\t{l3d!r}\t{l2d!r}\t{total!r}"


def _metrics_rows(path: Path) -> list[list[str]]:
    """The rows of a metrics file below its header, split into fields and
    checked: an integer step, then four numbers. A last line without its
    newline is a row that a crash cut short, and is left out."""
    lines = read_input(path, ContractViolation, "metrics file").split("\n")[:-1]
    if not lines or lines[0] != METRICS_HEADER:
        raise ContractViolation(f"{path} is not a metrics file (empty or foreign header)")
    rows = []
    for number, line in enumerate(lines[1:], start=2):
        fields = line.split("\t")
        try:
            if len(fields) != 5 or not fields[0].isdecimal():
                raise ValueError
            for value in fields[1:]:
                float(value)
        except ValueError:
            raise ContractViolation(
                f"{path}:{number}: want an integer step and four numbers, got {line!r}"
            ) from None
        rows.append(fields)
    return rows


def read_metrics(path: str | Path) -> list[dict]:
    return [
        {"step": int(step), "lr": float(lr), "l3d": float(l3d),
         "l2d": float(l2d), "total": float(total)}
        for step, lr, l3d, l2d, total in _metrics_rows(Path(path))
    ]


def param_fingerprint(params: dict) -> str:
    digest = hashlib.sha256()
    for name in sorted(params):
        digest.update(name.encode("utf-8"))
        digest.update(np.ascontiguousarray(params[name].data, dtype="<f8").tobytes())
    return digest.hexdigest()


@dataclass
class PretrainResult:
    model: MultiviewMae
    opt: AdamWState
    checkpoint_path: Path
    metrics_path: Path
    steps_run: int
    total_steps: int


def _bookkeeping_int(ckpt: Checkpoint, key: str, path) -> int:
    value = ckpt.rng_state.get(key)
    if not isinstance(value, int) or isinstance(value, bool):
        raise CheckpointError(f"{path}: bookkeeping has no integer {key}")
    return value


def pretrain(
    cfg: Config,
    clouds: list[PointCloud],
    out_dir: str | Path,
    run_seed: int,
    epochs: int | None = None,
    resume_from: str | Path | None = None,
    stop_after_step: int | None = None,
) -> PretrainResult:
    """Run (or continue) masked multi-view pretraining.

    Writes a metrics TSV (replaced whole at the start, then appended one
    row per step) and periodic binary checkpoints under out_dir. Raises
    TrainingAborted with the offending step when the loss or a gradient
    goes non-finite, before that step's update.
    """
    if not clouds:
        raise ContractViolation("pretraining needs a non-empty dataset")
    cfg.validate()
    epochs = cfg.train.epochs if epochs is None else epochs
    if epochs < 1:
        raise ConfigError(f"epochs must be at least 1, got {epochs}")
    out_dir = Path(out_dir)
    metrics_path = out_dir / "metrics.tsv"
    batch = cfg.train.batch_size
    steps_per_epoch = -(-len(clouds) // batch)
    total_steps = epochs * steps_per_epoch

    model = MultiviewMae(cfg.model, Rng(run_seed).derive("init"))
    opt = AdamWState(lr=cfg.train.lr, weight_decay=cfg.train.weight_decay)
    start_step = 0
    metrics_lines = [METRICS_HEADER]
    if resume_from is not None:
        ckpt = load_checkpoint(resume_from)
        if ckpt.config.config_hash() != cfg.config_hash():
            raise CheckpointError(
                "checkpoint config does not match the requested config"
            )
        saved_seed = _bookkeeping_int(ckpt, "run_seed", resume_from)
        if saved_seed != run_seed:
            raise CheckpointError(
                f"{resume_from}: checkpoint belongs to a run with seed {saved_seed}, "
                f"this run has seed {run_seed} (different --seed?)"
            )
        saved_total = _bookkeeping_int(ckpt, "total_steps", resume_from)
        if saved_total != total_steps:
            raise CheckpointError(
                f"{resume_from}: checkpoint belongs to a {saved_total}-step run, "
                f"this run has {total_steps} steps (different --epochs?)"
            )
        restore_params(model.params, ckpt)
        opt = ckpt.opt
        start_step = ckpt.step
        if metrics_path.exists():  # drop rows a crashed run wrote past its checkpoint
            metrics_lines += [
                "\t".join(fields) for fields in _metrics_rows(metrics_path)
                if int(fields[0]) < start_step
            ]
    last_step = total_steps if stop_after_step is None else min(stop_after_step, total_steps)
    if last_step < start_step:
        raise ContractViolation(
            f"stop_after_step {stop_after_step} is before the start step {start_step}"
        )
    write_atomic(metrics_path, "".join(line + "\n" for line in metrics_lines))

    bookkeeping = {"run_seed": run_seed, "total_steps": total_steps}
    root = Rng(run_seed)
    order_epoch, order = -1, None

    with metrics_path.open("a") as metrics:
        for step in range(start_step, last_step):
            epoch = step // steps_per_epoch
            if epoch != order_epoch:
                order = root.derive("order", epoch).permutation(len(clouds))
                order_epoch = epoch
            slot = step % steps_per_epoch
            items = order[slot * batch : (slot + 1) * batch]
            lr = cosine_lr(
                step,
                total_steps,
                cfg.train.lr,
                lr_min=cfg.train.lr_min,
                warmup_steps=cfg.train.warmup_steps,
            )

            for p in model.params.values():
                p.grad = None
            sum_l3d = 0.0
            sum_l2d = 0.0
            for item_idx in items:
                item_rng = root.derive("sample", epoch, int(item_idx))
                cloud = augment(clouds[item_idx], item_rng.derive("augment"))
                try:
                    loss, _, diag = forward_pretrain(
                        model, cloud, item_rng.derive("forward")
                    )
                except TrainingAborted as exc:
                    raise TrainingAborted(step, str(exc)) from exc
                backward(ops.scale(loss, 1.0 / len(items)))
                sum_l3d += diag["l3d"]
                sum_l2d += diag["l2d"]
            for name, p in model.params.items():
                if p.grad is not None and not np.isfinite(p.grad).all():
                    raise TrainingAborted(step, f"non-finite gradient for {name}")
            adamw_step(model.params, opt, lr)

            l3d = sum_l3d / len(items)
            l2d = sum_l2d / len(items)
            metrics.write(format_metrics_row(step, lr, l3d, l2d, l3d + l2d) + "\n")
            metrics.flush()

            done = step + 1
            if done % cfg.train.ckpt_every == 0 and done < total_steps:
                save_checkpoint(
                    out_dir / f"ckpt_{done:08d}.ckpt",
                    cfg,
                    {name: p.data for name, p in model.params.items()},
                    opt,
                    done,
                    bookkeeping,
                )

    if last_step == total_steps:
        checkpoint_path = out_dir / "final.ckpt"
    else:
        checkpoint_path = out_dir / f"ckpt_{last_step:08d}.ckpt"
    save_checkpoint(
        checkpoint_path,
        cfg,
        {name: p.data for name, p in model.params.items()},
        opt,
        last_step,
        bookkeeping,
    )
    return PretrainResult(
        model=model,
        opt=opt,
        checkpoint_path=checkpoint_path,
        metrics_path=metrics_path,
        steps_run=last_step,
        total_steps=total_steps,
    )


# --- downstream evaluation ------------------------------------------------


@dataclass
class ProbeReport:
    accuracy: float
    confusion: np.ndarray  # (classes, classes): rows true, cols predicted
    n_way: int | None = None
    m_shot: int | None = None
    seeds: list[int] = field(default_factory=list)

    def __post_init__(self):
        if not 0.0 <= self.accuracy <= 1.0:
            raise ContractViolation(f"accuracy {self.accuracy} outside [0, 1]")


def extract_features(model: MultiviewMae, clouds: list[PointCloud]) -> np.ndarray:
    """Frozen-encoder descriptors for a whole corpus, with guards that
    feature extraction never changes a parameter and that no descriptor
    is non-finite (one NaN row would silently ruin a whole probe)."""
    before = param_fingerprint(model.params)
    features = np.stack([encoder_features(model, cloud) for cloud in clouds])
    if param_fingerprint(model.params) != before:
        raise ContractViolation("feature extraction mutated encoder parameters")
    bad = np.flatnonzero(~np.isfinite(features).all(axis=1))
    if len(bad):
        raise ContractViolation(
            f"non-finite features for {len(bad)} cloud(s), first "
            f"{clouds[bad[0]].source_id or bad[0]}"
        )
    return features


def _split_per_class(labels: np.ndarray, rng: Rng) -> tuple[np.ndarray, np.ndarray]:
    train_idx, test_idx = [], []
    for cls in np.unique(labels):
        members = np.flatnonzero(labels == cls)
        if len(members) < 2:
            raise ContractViolation(
                f"class {cls} needs at least 2 instances to split"
            )
        perm = rng.derive("split", int(cls)).permutation(len(members))
        n_train = int(round(PROBE_TRAIN_FRACTION * len(members)))
        n_train = min(max(n_train, 1), len(members) - 1)
        train_idx.append(members[perm[:n_train]])
        test_idx.append(members[perm[n_train:]])
    return np.concatenate(train_idx), np.concatenate(test_idx)


def _softmax_rows(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def probe_features(
    features: np.ndarray, labels: np.ndarray, rng: Rng
) -> ProbeReport:
    """Linear softmax classifier on standardized features, fixed-budget
    full-batch gradient descent, 80/20 per-class split."""
    labels = np.asarray(labels)
    classes = np.unique(labels)
    if len(classes) < 2:
        raise ContractViolation("probe needs at least 2 classes")
    if not np.array_equal(classes, np.arange(len(classes))):
        raise ContractViolation("labels must be 0..n_classes-1")
    train_idx, test_idx = _split_per_class(labels, rng)

    mu = features[train_idx].mean(axis=0)
    sigma = features[train_idx].std(axis=0)
    sigma[sigma < 1e-8] = 1.0
    x_train = (features[train_idx] - mu) / sigma
    x_test = (features[test_idx] - mu) / sigma
    y_train = labels[train_idx]

    n, d = x_train.shape
    c = len(classes)
    weight = np.zeros((d, c))
    bias = np.zeros(c)
    onehot = np.zeros((n, c))
    onehot[np.arange(n), y_train] = 1.0
    for _ in range(PROBE_STEPS):
        probs = _softmax_rows(x_train @ weight + bias)
        err = (probs - onehot) / n
        weight -= PROBE_LR * (x_train.T @ err + PROBE_WEIGHT_DECAY * weight)
        bias -= PROBE_LR * err.sum(axis=0)

    predicted = np.argmax(x_test @ weight + bias, axis=1)
    truth = labels[test_idx]
    confusion = np.zeros((c, c), dtype=np.int64)
    np.add.at(confusion, (truth, predicted), 1)
    return ProbeReport(
        accuracy=float((predicted == truth).mean()),
        confusion=confusion,
        seeds=[rng.seed],
    )


def fewshot_trials(
    features: np.ndarray,
    labels: np.ndarray,
    n_way: int,
    m_shot: int,
    trials: int,
    rng: Rng,
) -> list[ProbeReport]:
    """Nearest-centroid episodes on L2-normalized features: per trial,
    n_way classes, m_shot supports and QUERIES_PER_CLASS queries each."""
    labels = np.asarray(labels)
    classes = np.unique(labels)
    if not np.array_equal(classes, np.arange(len(classes))):
        raise ContractViolation("labels must be 0..n_classes-1")
    if n_way < 2 or n_way > len(classes):
        raise ContractViolation(f"n_way {n_way} outside [2, {len(classes)}]")
    if m_shot < 1 or trials < 1:
        raise ContractViolation("m_shot and trials must be positive")
    counts = {int(c): int((labels == c).sum()) for c in classes}
    short = {c: k for c, k in counts.items() if k < m_shot + QUERIES_PER_CLASS}
    if short:
        raise ContractViolation(
            f"classes {sorted(short)} have fewer than "
            f"{m_shot + QUERIES_PER_CLASS} instances"
        )

    norms = np.linalg.norm(features, axis=1, keepdims=True)
    norms[norms < 1e-12] = 1.0
    unit = features / norms

    reports = []
    for t in range(trials):
        trial = rng.derive("trial", t)
        chosen = np.sort(trial.choice(len(classes), n_way, replace=False))
        centroids = np.zeros((n_way, unit.shape[1]))
        query_rows, query_truth = [], []
        for local, cls in enumerate(chosen):
            members = np.flatnonzero(labels == cls)
            perm = trial.derive("class", int(cls)).permutation(len(members))
            support = members[perm[:m_shot]]
            queries = members[perm[m_shot : m_shot + QUERIES_PER_CLASS]]
            centroids[local] = unit[support].mean(axis=0)
            query_rows.append(unit[queries])
            query_truth.append(np.full(QUERIES_PER_CLASS, local))
        queries = np.concatenate(query_rows)
        truth = np.concatenate(query_truth)
        d2 = ((queries[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        predicted = np.argmin(d2, axis=1)
        confusion = np.zeros((n_way, n_way), dtype=np.int64)
        np.add.at(confusion, (truth, predicted), 1)
        reports.append(
            ProbeReport(
                accuracy=float((predicted == truth).mean()),
                confusion=confusion,
                n_way=n_way,
                m_shot=m_shot,
                seeds=[rng.seed, t],
            )
        )
    return reports


def summarize_accuracy(reports: list[ProbeReport]) -> tuple[float, float]:
    """Mean and population std of trial accuracies."""
    acc = np.array([r.accuracy for r in reports])
    return float(acc.mean()), float(acc.std())


def load_pretrained(path: str | Path) -> tuple[MultiviewMae, Checkpoint]:
    """Rebuild a model from a checkpoint file."""
    ckpt = load_checkpoint(path)
    model = MultiviewMae(ckpt.config.model, Rng(0).derive("init"))
    restore_params(model.params, ckpt)
    return model, ckpt
