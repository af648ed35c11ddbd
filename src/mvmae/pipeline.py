"""Pretraining loop, checkpoint cadence, and frozen-encoder evaluation.

Determinism contract: every random draw in a run derives from the run
seed and structural indices (epoch, item), never from loop state, so a
run resumed from any checkpoint replays the remaining steps bit for bit.
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
from .fileio import read_input, write_atomic
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


def format_metrics_row(step: int, lr: float, l3d: float, l2d: float, total: float) -> str:
    return f"{step}\t{lr!r}\t{l3d!r}\t{l2d!r}\t{total!r}"


def _metrics_rows(path: Path) -> list[tuple[int, str]]:
    """The rows of a metrics file below its header as (step, line) pairs,
    each checked to read exactly as format_metrics_row writes it: a step
    in ASCII digits, then four finite values. A last line without its
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
            step, values = int(fields[0]), [float(value) for value in fields[1:]]
            if not np.isfinite(values).all() or line != format_metrics_row(step, *values):
                raise ValueError
        except ValueError:
            raise ContractViolation(
                f"{path}:{number}: not a row as pretrain writes it: {line!r}"
            ) from None
        rows.append((step, line))
    return rows


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
    cfg: Config, n_clouds: int, out_dir: str | Path, run_seed: int, resume_from: str | Path
) -> tuple[Checkpoint, list[str]]:
    """Load the checkpoint a run resumes from and refuse it unless it holds
    this run's config, seed and step count at a step inside that run, and
    `out_dir`'s metrics rows parse, are consecutive ascending steps and,
    when any comes before the checkpoint, reach the step just before it.
    Returns it with the metrics lines (header first) that the run keeps. It
    writes nothing, so a caller can decide every resume refusal before it
    claims `out_dir`."""
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
    metrics_path = Path(out_dir) / "metrics.tsv"
    rows = _metrics_rows(metrics_path) if metrics_path.exists() else []
    # line numbers: the header is line 1, rows[i] is line i + 2
    for number, ((before, _), (step, _)) in enumerate(zip(rows, rows[1:]), start=3):
        if step != before + 1:
            raise ContractViolation(
                f"{metrics_path}:{number}: step {step} follows step {before}; "
                "a run's rows are consecutive ascending steps"
            )
    if rows and rows[0][0] < ckpt.step and rows[-1][0] < ckpt.step - 1:
        raise ContractViolation(
            f"{metrics_path}:{len(rows) + 1}: rows end at step {rows[-1][0]}, but "
            f"{resume_from} resumes at step {ckpt.step} (another run's checkpoint?)"
        )
    # rows a crashed run wrote past its checkpoint are dropped
    return ckpt, [METRICS_HEADER] + [line for step, line in rows if step < ckpt.step]


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
    """Add weight * d(loss)/d(parameter) of every plan's loss into the
    parameters' .grad and return each plan's diagnostics, in plan order.

    Plans are taken FRONT_END_GROUP at a time, so only one batch of them
    need exist at once, and the front ends of each batch run as one
    (`encode_plans`); each decoder runs on its own sample's rows. All but
    the last decoder of a batch run on leaves cut from those rows, and
    their backward stops at the leaves. The last one runs on the batch's
    own rows, and its backward also carries the leaves' gradients into
    the front end, so a batch of B samples takes B backward sweeps.

    Model functions are called through the module, where the benchmark's
    trace wraps them."""
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
    resume: tuple[Checkpoint, list[str]] | None = None,
    stop_after_step: int | None = None,
) -> PretrainResult:
    """Run (or continue) masked multi-view pretraining.

    Writes a metrics TSV (replaced whole at the start, then appended one
    row per step) and periodic binary checkpoints under out_dir. Raises
    TrainingAborted with the offending step when the loss or a gradient
    goes non-finite, before that step's update. A resumed run takes the
    (checkpoint, metrics lines) pair that `resume_point` returned for
    this config, corpus, out_dir and seed.
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
        start_step = 0
        metrics_lines = [METRICS_HEADER]
    else:
        ckpt, metrics_lines = resume
        model = MultiviewMae(cfg.model, ckpt.params)
        opt = ckpt.opt
        start_step = ckpt.step
    last_step = total_steps if stop_after_step is None else min(stop_after_step, total_steps)
    if last_step < start_step:
        raise ContractViolation(
            f"stop_after_step {stop_after_step} is before the start step {start_step}"
        )
    write_atomic(metrics_path, "".join(line + "\n" for line in metrics_lines))

    bookkeeping = {"run_seed": run_seed, "total_steps": total_steps}
    root = Rng(run_seed)

    def save(done: int) -> Path:
        path = out_dir / ("final.ckpt" if done == total_steps else f"ckpt_{done:08d}.ckpt")
        save_checkpoint(
            path, cfg, {name: p.data for name, p in model.params.items()}, opt, bookkeeping
        )
        return path

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
            metrics.write(format_metrics_row(step, lr, l3d, l2d, l3d + l2d) + "\n")
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
