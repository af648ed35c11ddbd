"""Pretraining loop, checkpoint cadence, and frozen-encoder evaluation.

Determinism contract: every random draw in a run derives from the run
seed and structural indices (epoch, item), never from loop state, so a
run resumed from any checkpoint replays the remaining steps bit for bit.
A checkpoint also holds the losses of every step before it, so a resume
reads the checkpoint alone and writes the run's whole metrics TSV.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import asdict, dataclass
from itertools import islice
from pathlib import Path

import numpy as np

from .autodiff import Tensor, backward, ops
from .autodiff.optim import AdamWState, adamw_step, cosine_lr
from .checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from .config import Config
from .errors import CheckpointError, ContractViolation, TrainingAborted
from .fileio import write_atomic
from .geometry import PointCloud, augment
from . import model as mmodel
from .model import MultiviewMae, PretrainPlan, encoder_features
from .rng import Rng

METRICS_HEADER = "step\tlr\tl3d\tl2d\ttotal"
QUERIES_PER_CLASS = 20
PROBE_STEPS = 400
PROBE_LR = 0.5
PROBE_WEIGHT_DECAY = 1e-4
PROBE_TRAIN_FRACTION = 0.8
# samples whose front ends run as one batch: the batch's front-end graph
# stays alive while its decoders run, so this bounds a step's memory
FRONT_END_GROUP = 4


def format_metrics_row(step: int, lr: float, l3d: float, l2d: float) -> str:
    return f"{step}\t{lr!r}\t{l3d!r}\t{l2d!r}\t{l3d + l2d!r}"


@dataclass
class PretrainResult:
    checkpoint_path: Path
    metrics_path: Path
    steps_run: int
    total_steps: int


def _bookkeeping_int(ckpt: Checkpoint, key: str, path) -> int:
    value = ckpt.bookkeeping.get(key)
    if not isinstance(value, int) or isinstance(value, bool):
        raise CheckpointError(f"{path}: bookkeeping has no integer {key}")
    return value


def resume_point(
    cfg: Config, n_clouds: int, run_seed: int, resume_from: str | Path
) -> Checkpoint:
    """Load the checkpoint a run resumes from and refuse it unless it holds
    this run's config, seed and step count at a step inside that run, and
    the [l3d, l2d] losses of each step before it. It writes nothing, so a
    caller can decide every resume refusal before it claims an output
    directory."""
    ckpt = load_checkpoint(resume_from)
    saved, wanted = asdict(ckpt.config), asdict(cfg)
    differing = [
        f"{s}.{name} (checkpoint {saved[s][name]!r}, requested {value!r})"
        for s in ("model", "train", "data") for name, value in wanted[s].items()
        if saved[s][name] != value
    ]
    if differing:
        raise CheckpointError(f"{resume_from}: checkpoint config differs in {', '.join(differing)}")
    saved_seed = _bookkeeping_int(ckpt, "run_seed", resume_from)
    if saved_seed != run_seed:
        raise CheckpointError(
            f"{resume_from}: checkpoint belongs to a run with seed {saved_seed}, "
            f"this run has seed {run_seed} (different --seed?)"
        )
    saved_total = _bookkeeping_int(ckpt, "total_steps", resume_from)
    total_steps = cfg.train.total_steps(n_clouds)
    if saved_total != total_steps:
        raise CheckpointError(
            f"{resume_from}: checkpoint belongs to a {saved_total}-step run, "
            f"this run has {total_steps} steps"
        )
    if ckpt.step > total_steps:
        raise CheckpointError(
            f"{resume_from}: checkpoint is at step {ckpt.step}, "
            f"past the end of its {total_steps}-step run"
        )
    losses = ckpt.bookkeeping.get("losses")
    if not (
        isinstance(losses, list) and len(losses) == ckpt.step
        and all(
            isinstance(pair, list) and len(pair) == 2
            and all(isinstance(v, float) and np.isfinite(v) for v in pair)
            for pair in losses
        )
    ):
        raise CheckpointError(
            f"{resume_from}: bookkeeping has no losses of its {ckpt.step} steps as "
            "[l3d, l2d] pairs of finite floats (written before checkpoints held them?)"
        )
    return ckpt


def sample_plan(
    cfg: Config, clouds: list[PointCloud], root: Rng, epoch: int, item: int
) -> PretrainPlan:
    """The plan of corpus item `item` in `epoch`: its augmented cloud's
    patches, mask, views and targets, each drawn from a stream derived
    from the run's root stream, the epoch and the item alone."""
    item_rng = root.derive("sample", epoch, item)
    cloud = augment(clouds[item], item_rng.derive("augment"))
    return mmodel.build_pretrain_plan(cloud, cfg.model, item_rng.derive("forward"))


def step_gradients(
    model: MultiviewMae, plans: Iterable[PretrainPlan], weight: float
) -> list[dict]:
    """Set each parameter's .grad to weight * d(loss)/d(parameter) summed
    over every plan's loss (None where no loss reaches it) and return each
    plan's diagnostics, in plan order.

    Plans are taken FRONT_END_GROUP at a time, so only one batch of them
    need exist at once, and the front ends of each batch run as one
    (`encode_plans`); each decoder runs on its own sample's rows. All but
    the last decoder of a batch run on leaves cut from those rows, and
    their backward stops at the leaves. The last one runs on the batch's
    own rows, and its backward also carries the leaves' gradients into
    the front end, so a batch of B samples takes B backward sweeps.

    Model functions are called through the module, where the benchmark's
    trace wraps them."""
    for p in model.params.values():
        p.grad = None
    diags = []
    plans = iter(plans)
    while group := list(islice(plans, FRONT_END_GROUP)):
        front = mmodel.encode_plans(model, group)
        seeds = [np.zeros_like(t.data) for t in front]
        for i, plan in enumerate(group[:-1]):
            leaves = [Tensor(t.data[i], requires_grad=True) for t in front]
            loss, _, diag = mmodel.loss_from_plan(model, plan, *leaves)
            backward(ops.scale(loss, weight))
            for seed, leaf in zip(seeds, leaves):
                seed[i] = leaf.grad
            diags.append(diag)
        last = len(group) - 1
        rows = (ops.gather_rows(t, last) for t in front)
        loss, _, diag = mmodel.loss_from_plan(model, group[last], *rows)
        # sum(t * seed) hands each front-end output its seed as its adjoint
        carried = [ops.sum_(ops.mul(t, Tensor(seed))) for t, seed in zip(front, seeds)]
        backward(ops.add(ops.scale(loss, weight), ops.add(*carried)))
        diags.append(diag)
    return diags


def pretrain(
    cfg: Config,
    clouds: list[PointCloud],
    out_dir: str | Path,
    run_seed: int,
    resume: Checkpoint | None = None,
    stop_after_step: int | None = None,
) -> PretrainResult:
    """Run (or continue) masked multi-view pretraining.

    Writes a metrics TSV (replaced whole at the start, then appended one
    row per step) and periodic binary checkpoints under out_dir. Each
    checkpoint's bookkeeping holds the [l3d, l2d] losses of every step it
    has taken, so a resumed run writes its metrics TSV whole from the
    checkpoint alone. Raises TrainingAborted with the offending step when
    the loss or a gradient goes non-finite, before that step's update. A
    resumed run takes the checkpoint that `resume_point` returned for this
    config, corpus and seed.
    """
    if not clouds:
        raise ContractViolation("pretraining needs a non-empty dataset")
    cfg.validate()
    total_steps = cfg.train.total_steps(len(clouds))
    # Config.validate counts the steps of the config's own corpus; a caller
    # may pass fewer clouds, so the warmup is checked against this run
    # before the model is built or anything is written
    if not cfg.train.warmup_steps < total_steps:
        raise ContractViolation(
            f"warmup_steps {cfg.train.warmup_steps} must be below the run's {total_steps} steps"
        )
    steps_per_epoch = total_steps // cfg.train.epochs
    out_dir = Path(out_dir)
    metrics_path = out_dir / "metrics.tsv"
    batch = cfg.train.batch_size

    if resume is None:
        model = MultiviewMae(cfg.model, Rng(run_seed).derive("init"))
        opt = AdamWState()
        losses = []
    else:
        model = MultiviewMae(cfg.model, resume.params)
        opt = resume.opt
        losses = list(resume.bookkeeping["losses"])
    start_step = opt.step
    last_step = total_steps if stop_after_step is None else min(stop_after_step, total_steps)
    if last_step < start_step:
        raise ContractViolation(
            f"stop_after_step {stop_after_step} is before the start step {start_step}"
        )

    def lr_at(step: int) -> float:
        train = cfg.train
        return cosine_lr(step, total_steps, train.lr, train.lr_min, train.warmup_steps)

    rows = [format_metrics_row(step, lr_at(step), *pair) for step, pair in enumerate(losses)]
    write_atomic(metrics_path, "".join(line + "\n" for line in [METRICS_HEADER, *rows]))

    bookkeeping = {"run_seed": run_seed, "total_steps": total_steps, "losses": losses}
    root = Rng(run_seed)

    def save(done: int) -> Path:
        path = out_dir / ("final.ckpt" if done == total_steps else f"ckpt_{done:08d}.ckpt")
        save_checkpoint(
            path, cfg, {name: p.data for name, p in model.params.items()}, opt, bookkeeping
        )
        return path

    with metrics_path.open("a") as metrics:
        for step in range(start_step, last_step):
            epoch = step // steps_per_epoch
            slot = step % steps_per_epoch
            order = root.derive("order", epoch).permutation(len(clouds))
            items = order[slot * batch : (slot + 1) * batch]
            lr = lr_at(step)

            # drawn a front-end batch at a time by step_gradients
            plans = (sample_plan(cfg, clouds, root, epoch, int(i)) for i in items)
            try:
                diags = step_gradients(model, plans, 1.0 / len(items))
            except TrainingAborted as exc:
                raise TrainingAborted(step, str(exc)) from exc
            for name, p in model.params.items():
                if p.grad is not None and not np.isfinite(p.grad).all():
                    raise TrainingAborted(step, f"non-finite gradient for {name}")
            adamw_step(model.params, opt, lr, cfg.train.weight_decay)

            l3d = sum(diag["l3d"] for diag in diags) / len(items)
            l2d = sum(diag["l2d"] for diag in diags) / len(items)
            losses.append([l3d, l2d])
            metrics.write(format_metrics_row(step, lr, l3d, l2d) + "\n")
            metrics.flush()

            if (step + 1) % cfg.train.ckpt_every == 0 and step + 1 < last_step:
                save(step + 1)

    return PretrainResult(
        checkpoint_path=save(last_step),
        metrics_path=metrics_path,
        steps_run=last_step,
        total_steps=total_steps,
    )


# --- downstream evaluation ------------------------------------------------


@dataclass
class ProbeReport:
    accuracy: float
    confusion: np.ndarray  # (classes, classes): rows true, cols predicted


def _score(truth: np.ndarray, predicted: np.ndarray, classes: int) -> ProbeReport:
    confusion = np.zeros((classes, classes), dtype=np.int64)
    np.add.at(confusion, (truth, predicted), 1)
    return ProbeReport(accuracy=float((predicted == truth).mean()), confusion=confusion)


def _class_count(labels: np.ndarray) -> int:
    """C, for labels that are exactly the class indices 0..C-1."""
    classes = np.unique(labels)
    if not np.array_equal(classes, np.arange(len(classes))):
        raise ContractViolation("labels must be 0..n_classes-1")
    return len(classes)


def extract_features(model: MultiviewMae, clouds: list[PointCloud]) -> np.ndarray:
    """Frozen-encoder descriptors for a whole corpus, with guards that
    feature extraction never changes a parameter and that no descriptor
    is non-finite (one NaN row would silently ruin a whole probe).

    The parameter arrays are read-only while the encoder runs, so a write
    into one fails where it happens; each parameter must still hold the
    same array afterwards. Their write flags are put back either way."""
    arrays = {name: p.data for name, p in model.params.items()}
    writeable = {name: a.flags.writeable for name, a in arrays.items()}
    for a in arrays.values():
        a.flags.writeable = False
    try:
        features = np.stack([encoder_features(model, cloud) for cloud in clouds])
    except ValueError as exc:
        if isinstance(exc, ContractViolation) or "read-only" not in str(exc):
            raise
        raise ContractViolation(f"feature extraction mutated encoder parameters: {exc}") from exc
    finally:
        for name, a in arrays.items():
            a.flags.writeable = writeable[name]
    rebound = [name for name, p in model.params.items() if p.data is not arrays[name]]
    if rebound:
        raise ContractViolation(f"feature extraction mutated encoder parameters {rebound}")
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
    c = _class_count(labels)
    if c < 2:
        raise ContractViolation("probe needs at least 2 classes")
    train_idx, test_idx = _split_per_class(labels, rng)

    mu = features[train_idx].mean(axis=0)
    sigma = features[train_idx].std(axis=0)
    sigma[sigma < 1e-8] = 1.0
    x_train = (features[train_idx] - mu) / sigma
    x_test = (features[test_idx] - mu) / sigma
    y_train = labels[train_idx]

    n, d = x_train.shape
    weight = np.zeros((d, c))
    bias = np.zeros(c)
    onehot = np.zeros((n, c))
    onehot[np.arange(n), y_train] = 1.0
    for _ in range(PROBE_STEPS):
        probs = _softmax_rows(x_train @ weight + bias)
        err = (probs - onehot) / n
        weight -= PROBE_LR * (x_train.T @ err + PROBE_WEIGHT_DECAY * weight)
        bias -= PROBE_LR * err.sum(axis=0)

    return _score(labels[test_idx], np.argmax(x_test @ weight + bias, axis=1), c)


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
    n_classes = _class_count(labels)
    if n_way < 2 or n_way > n_classes:
        raise ContractViolation(f"n_way {n_way} outside [2, {n_classes}]")
    if m_shot < 1 or trials < 1:
        raise ContractViolation("m_shot and trials must be positive")
    counts = {c: int((labels == c).sum()) for c in range(n_classes)}
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
        chosen = np.sort(trial.choice(n_classes, n_way, replace=False))
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
        reports.append(_score(truth, np.argmin(d2, axis=1), n_way))
    return reports


def summarize_accuracy(reports: list[ProbeReport]) -> tuple[float, float]:
    """Mean and population std of trial accuracies."""
    acc = np.array([r.accuracy for r in reports])
    return float(acc.mean()), float(acc.std())


def load_pretrained(path: str | Path) -> tuple[MultiviewMae, Checkpoint]:
    """Rebuild a model from a checkpoint file. The model's parameters are
    the checkpoint's arrays themselves: nothing is drawn or copied."""
    ckpt = load_checkpoint(path)
    return MultiviewMae(ckpt.config.model, ckpt.params), ckpt
