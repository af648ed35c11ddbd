"""Workloads, timing hooks, output checks and metrics of the mvmae benchmark.

Each workload is a closed loop in one process: the next optimizer step (or
encoded cloud) starts only when the previous one has completed. The program
is driven only through its public modules (`mvmae.config`, `mvmae.data`,
`mvmae.pipeline`); timing comes from wrappers installed from outside and
removed afterwards.

- desk_pretrain: the shipped `desk` preset, batch 8, repeated runs of
  STEPS_PER_RUN consecutive steps from step 0. The autodiff graph is most of
  a step, so batching the forward/backward shows here.
- dense_pretrain: the same model on 8192-point clouds (dense.json, the only
  data change). FPS and kNN become most of a step while the graph keeps its
  size, so plan-stage changes show here.
- frozen_eval: load a desk checkpoint that set-up pretrains and writes, then
  extract features for the whole corpus, linear probe and few-shot. Read
  only, no decoder, projection, backward or optimizer: a change that speeds
  up training but slows inference shows here.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from mvmae import config as mconfig
from mvmae import data as mdata
from mvmae import model as mmodel
from mvmae import pipeline, tokenizer
from mvmae.errors import CheckpointError, ConfigError, ContractViolation, TrainingAborted
from mvmae.rng import Rng

from refclock import RefClock, WallClock
from spans import NO_PARENT, Patches, Tracer, self_times, write_spans

HERE = Path(__file__).resolve().parent
DENSE_CONFIG = HERE / "dense.json"
REFERENCE_PATH = HERE / "reference.json"

WORKLOADS = ("desk_pretrain", "dense_pretrain", "frozen_eval")
PRETRAIN = ("desk_pretrain", "dense_pretrain")

# steps in one pretrain() call; each call restarts from step 0, so every
# call must write the same metrics.tsv
STEPS_PER_RUN = {"desk_pretrain": 8, "dense_pretrain": 4}
SETUP_REPEATS = 5  # setup_s is the median of this many set-ups
SETUP_STEPS = 2  # frozen_eval: pretraining steps that write its checkpoint
# pretrain workloads probe their final checkpoint on the first clouds of
# CHECK_CLASSES classes; 21 per class is the fewest 1-shot episodes accept
CHECK_CLASSES = 2
CHECK_PER_CLASS = 21
CHECK_SHARE = 0.15  # share of a pretrain run's timed window spent probing
FEWSHOT = {"frozen_eval": (5, 10, 10), "check": (2, 1, 10)}  # n_way, m_shot, trials
# step_ms_tail: per workload, the highest of p50, p75, p90, p95 and p99 with
# at least 10 operations beyond it on a 2-core machine at this commit (about
# 50 desk steps, 22 dense steps, 2000 clouds per run). It is fixed so that two
# commits are compared at the same percentile; p99.5 on frozen_eval would
# read bursts of interference from other load that stall ~20 clouds at once
TAIL_PERCENTILE = {"desk_pretrain": 75, "dense_pretrain": 50, "frozen_eval": 99}

LOSS_RTOL = 1e-6  # reference losses, relative
ACCURACY_ATOL = 0.01  # reference probe accuracies, absolute

PACKAGE_ERRORS = (CheckpointError, ConfigError, ContractViolation, TrainingAborted)

# (span name, owner, attribute): each function is wrapped where its caller
# looks it up, e.g. pipeline imports backward, so pipeline.backward
TRACED = (
    ("data.make_dataset", mdata, "make_dataset"),
    ("geometry.augment", pipeline, "augment"),
    ("geometry.farthest_point_sampling", tokenizer, "farthest_point_sampling"),
    ("geometry.knn", tokenizer, "knn"),
    ("tokenizer.build_patches", mmodel, "build_patches"),
    ("tokenizer.apply_mask", mmodel, "apply_mask"),
    ("tokenizer.PatchEmbed", tokenizer.PatchEmbed, "__call__"),
    ("tokenizer.PosEmbed3D", tokenizer.PosEmbed3D, "__call__"),
    ("projection.group_by_image_token", mmodel, "group_by_image_token"),
    ("projection.rasterize_depth", mmodel, "rasterize_depth"),
    ("model.build_pretrain_plan", mmodel, "build_pretrain_plan"),
    ("model.loss_from_plan", mmodel, "loss_from_plan"),
    ("model.encode", mmodel.MultiviewMae, "encode"),
    ("model.fuse_image_tokens", mmodel.MultiviewMae, "fuse_image_tokens"),
    ("model.assemble_decoder_input", mmodel.MultiviewMae, "assemble_decoder_input"),
    ("model.joint_decode", mmodel.MultiviewMae, "joint_decode"),
    ("model.project_heads", mmodel.MultiviewMae, "project_heads"),
    ("model.loss_3d", mmodel, "loss_3d"),
    ("model.loss_2d", mmodel, "loss_2d"),
    ("model.encoder_features", pipeline, "encoder_features"),
    ("autodiff.backward", pipeline, "backward"),
    ("autodiff.adamw_step", pipeline, "adamw_step"),
    ("checkpoint.save_checkpoint", pipeline, "save_checkpoint"),
    ("checkpoint.load_checkpoint", pipeline, "load_checkpoint"),
    ("pipeline.pretrain", pipeline, "pretrain"),
    ("pipeline.extract_features", pipeline, "extract_features"),
    ("pipeline.probe_features", pipeline, "probe_features"),
    ("pipeline.fewshot_trials", pipeline, "fewshot_trials"),
)
STEP_SPAN = "pipeline.step"
LAYER_SPANS = tuple(name for name, _, _ in TRACED) + (STEP_SPAN,)

END_TO_END_UNITS = {
    "samples_per_s": "1/s",
    "step_ms_p50": "ms",
    "step_ms_tail": "ms",
    "setup_s": "s",
    "clouds_per_s": "1/s",
    "eval_s": "s",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for name in LAYER_SPANS:
        units[f"{name}.self_ms"] = "ms"
        units[f"{name}.calls"] = "count"
    units["autodiff.graph_nodes"] = "count"
    units["model.fused_tokens_ratio"] = "ratio"
    units["checkpoint.bytes"] = "bytes"
    units["trace.overhead_samples_per_s"] = "1/s"
    return units


# --- workload inputs -------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    cfg: mconfig.Config
    run_seed: int


def make_workload(name: str, seed: int) -> Workload:
    """The workload's config and run seed; the seed sets both the corpus
    (dataset_seed) and the run (run_seed)."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    base = mconfig.load_config(DENSE_CONFIG) if name == "dense_pretrain" else mconfig.desk_config()
    cfg = mconfig.replace(base, data=mconfig.replace(base.data, dataset_seed=seed))
    return Workload(name, cfg.validate(), seed)


def check_subset(labels: np.ndarray) -> np.ndarray:
    """Corpus indices of the clouds the pretrain workloads probe with."""
    return np.concatenate(
        [np.flatnonzero(labels == c)[:CHECK_PER_CLASS] for c in range(CHECK_CLASSES)]
    )


# --- hooks -----------------------------------------------------------------


def count_graph_nodes(loss) -> int:
    """Nodes the backward sweep visits: every node reachable from the loss
    that requires a gradient, parameters included."""
    seen: set[int] = set()
    stack = [loss]
    while stack:
        node = stack.pop()
        if id(node) in seen or not node.requires_grad:
            continue
        seen.add(id(node))
        stack.extend(node._parents)
    return len(seen)


class Instrument:
    """Timestamps of completed operations, and in traced mode the spans and
    counts of every wrapped function.

    Untraced, the only hooks are a timestamp when adamw_step returns and one
    when encoder_features returns. After each of them, after each training
    sample is augmented and after each cloud make_dataset generates, the
    clock may run its calibration kernel.
    """

    def __init__(self, cfg: mconfig.Config, clock: RefClock | WallClock | None = None):
        self.clock = clock or WallClock()
        self.tracer = Tracer()
        self.op_ends: list[float] = []
        self.label = ""  # names the run or pass in step and cloud keys
        self.graph_nodes: list[int] = []
        self.fused_ratios: list[float] = []
        self.checkpoint_bytes: list[int] = []
        self._tokens_per_view = cfg.model.H_t * cfg.model.W_t
        self._step: tuple[int, int] | None = None  # (open step span, step number)
        self._cloud = 0

    def install(self, traced: bool) -> Patches:
        patches = Patches()
        try:
            if traced:
                self._install_traced(patches)
            else:
                patches.replace(pipeline, "adamw_step", self._stamped)
                patches.replace(pipeline, "encoder_features", self._stamped)
                patches.replace(pipeline, "augment", self._ticking)
                patches.replace(mdata, "generate_shape", self._ticking)
        except BaseException:
            patches.restore()
            raise
        return patches

    def _stamped(self, original):
        @functools.wraps(original)
        def stamped(*args, **kwargs):
            out = original(*args, **kwargs)
            self.op_ends.append(perf_counter())
            self.clock.tick()
            return out

        return stamped

    def _ticking(self, original):
        @functools.wraps(original)
        def ticking(*args, **kwargs):
            out = original(*args, **kwargs)
            self.clock.tick()
            return out

        return ticking

    def _install_traced(self, patches: Patches) -> None:
        special = {
            "pipeline.pretrain": self._pretrain,
            "autodiff.adamw_step": self._adamw_step,
            "autodiff.backward": self._backward,
            "projection.group_by_image_token": self._group,
            "checkpoint.save_checkpoint": self._sized("checkpoint.save_checkpoint"),
            "checkpoint.load_checkpoint": self._sized("checkpoint.load_checkpoint"),
            "pipeline.extract_features": self._extract,
            "model.encoder_features": self._encode_cloud,
        }
        for name, owner, attr in TRACED:
            if name in special:
                patches.replace(owner, attr, special[name])
            else:
                self.tracer.wrap(patches, owner, attr, name)

    def _pretrain(self, original):
        # a step runs from one adamw_step return to the next; step 0 starts
        # when pretrain() is called, and the stretch after the last step
        # (final checkpoint) belongs to pretrain itself
        @functools.wraps(original)
        def traced(*args, **kwargs):
            outer = self.tracer.open("pipeline.pretrain")
            self._step = (self.tracer.open(STEP_SPAN, f"step:{self.label}:0"), 0)
            try:
                return original(*args, **kwargs)
            finally:
                self.tracer.dissolve(self._step[0])
                self._step = None
                self.tracer.close(outer)

        return traced

    def _adamw_step(self, original):
        @functools.wraps(original)
        def traced(*args, **kwargs):
            out = self.tracer.call("autodiff.adamw_step", original, args, kwargs)
            self.op_ends.append(perf_counter())
            if self._step is not None:
                index, number = self._step
                self.tracer.close(index)
                key = f"step:{self.label}:{number + 1}"
                self._step = (self.tracer.open(STEP_SPAN, key), number + 1)
            return out

        return traced

    def _backward(self, original):
        @functools.wraps(original)
        def traced(loss, *args, **kwargs):
            self.graph_nodes.append(self.tracer.call("trace.graph_walk", count_graph_nodes, (loss,)))
            return self.tracer.call("autodiff.backward", original, (loss,) + args, kwargs)

        return traced

    def _group(self, original):
        @functools.wraps(original)
        def traced(*args, **kwargs):
            grouping = self.tracer.call("projection.group_by_image_token", original, args, kwargs)
            self.fused_ratios.append(grouping.g / self._tokens_per_view)
            return grouping

        return traced

    def _sized(self, name: str):
        """Wrapper factory for checkpoint save and load, which also records
        the size of the file."""

        def make_wrapper(original):
            @functools.wraps(original)
            def traced(path, *args, **kwargs):
                out = self.tracer.call(name, original, (path,) + args, kwargs)
                self.checkpoint_bytes.append(os.path.getsize(path))
                return out

            return traced

        return make_wrapper

    def _extract(self, original):
        @functools.wraps(original)
        def traced(*args, **kwargs):
            self._cloud = 0
            return self.tracer.call("pipeline.extract_features", original, args, kwargs)

        return traced

    def _encode_cloud(self, original):
        @functools.wraps(original)
        def traced(*args, **kwargs):
            key = f"cloud:{self.label}:{self._cloud}"
            self._cloud += 1
            out = self.tracer.call("model.encoder_features", original, args, kwargs, key)
            self.op_ends.append(perf_counter())
            return out

        return traced

    @contextmanager
    def phase(self, name: str, key: str, traced: bool):
        """Install the hooks for one phase and, when traced, open its root
        span; `key` names the phase in step and cloud keys."""
        self.label = key
        with self.install(traced):
            if not traced:
                self.clock.tick()
                yield
                self.clock.tick()
                return
            index = self.tracer.open(name, key)
            try:
                yield
            finally:
                self.tracer.close(index)


# --- set-up and timed work -------------------------------------------------


@dataclass
class Corpus:
    clouds: list
    labels: np.ndarray
    checkpoint: Path | None  # frozen_eval: written by set-up pretraining
    setup_lines: list[str]  # frozen_eval: metrics rows of that pretraining


def set_up(w: Workload, work_dir: Path) -> Corpus:
    clouds, labels = mdata.make_dataset(w.cfg.data)
    if w.name != "frozen_eval":
        return Corpus(clouds, labels, None, [])
    result = pipeline.pretrain(
        w.cfg, clouds, work_dir / "setup", w.run_seed, stop_after_step=SETUP_STEPS
    )
    lines = result.metrics_path.read_text().splitlines()[1:]
    return Corpus(clouds, labels, result.checkpoint_path, lines)


# timed work keeps its perf_counter timestamps; durations are read from them
# at the end, in the run's clock (reference time, or wall time when traced)


def op_ms(clock, stamps: list[float]) -> list[float]:
    """Durations between successive timestamps, in ms."""
    return [1e3 * clock.seconds(a, b) for a, b in zip(stamps, stamps[1:])]


@dataclass
class TrainRun:
    traced: bool
    start: float
    end: float
    stamps: list[float]  # the call's start, then each adamw_step return
    lines: list[str]  # metrics.tsv rows, header dropped
    checkpoint: Path
    checkpoint_sha: str

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def steps(self) -> int:
        return len(self.stamps) - 1


def train_once(w: Workload, corpus: Corpus, out_dir: Path, inst: Instrument) -> TrainRun:
    first = len(inst.op_ends)
    start = perf_counter()
    result = pipeline.pretrain(
        w.cfg, corpus.clouds, out_dir, w.run_seed, stop_after_step=STEPS_PER_RUN[w.name]
    )
    end = perf_counter()
    return TrainRun(
        traced=False,
        start=start,
        end=end,
        stamps=[start] + inst.op_ends[first:],
        lines=result.metrics_path.read_text().splitlines()[1:],
        checkpoint=result.checkpoint_path,
        checkpoint_sha=hashlib.sha256(result.checkpoint_path.read_bytes()).hexdigest(),
    )


@dataclass
class EvalRun:
    traced: bool
    start: float  # start to end: checkpoint load, extraction, linear probe and few-shot
    end: float
    stamps: list[float]  # extraction's start, then each encoder_features return
    extract_end: float
    features: np.ndarray
    checkpoint_step: int
    linear_accuracy: float
    fewshot_accuracy: float

    @property
    def seconds(self) -> float:
        return self.end - self.start


def evaluate_once(
    w: Workload, checkpoint: Path, clouds: list, labels: np.ndarray, fewshot, inst: Instrument
) -> EvalRun:
    n_way, m_shot, trials = fewshot
    start = perf_counter()
    model, ckpt = pipeline.load_pretrained(checkpoint)
    first = len(inst.op_ends)
    extract_start = perf_counter()
    features = pipeline.extract_features(model, clouds)
    extract_end = perf_counter()
    rng = Rng(w.run_seed)
    linear = pipeline.probe_features(features, labels, rng.derive("probe"))
    reports = pipeline.fewshot_trials(
        features, labels, n_way, m_shot, trials, rng.derive("fewshot")
    )
    end = perf_counter()
    return EvalRun(
        traced=False,
        start=start,
        end=end,
        stamps=[extract_start] + inst.op_ends[first:],
        extract_end=extract_end,
        features=features,
        checkpoint_step=ckpt.step,
        linear_accuracy=linear.accuracy,
        fewshot_accuracy=pipeline.summarize_accuracy(reports)[0],
    )


def closed_loop(inst: Instrument, seconds: float, trace: bool, main, prefix: str, check=None):
    """Run `main` until the next run would end past `seconds`, at least once.

    After a run of `main`, `check(run)` (if given) runs too while checks have
    taken at most CHECK_SHARE of the elapsed time, so both sample the whole
    window. With tracing, runs of each alternate untraced and traced, and
    there are at least one of each. Returns the main runs, the check runs,
    and how many raised (0 or 1): a run that raises one of the package's
    errors ends the loop.
    """
    mains, checks = [], []
    check_seconds = 0.0
    start = perf_counter()

    def attempt(fn, phase, key_prefix, runs):
        traced = trace and len(runs) % 2 == 1
        with inst.phase(phase, f"{key_prefix}{len(runs)}", traced):
            run = fn()
        run.traced = traced
        runs.append(run)
        return run

    try:
        while True:
            attempt(main, "bench.timed", prefix, mains)
            elapsed = perf_counter() - start
            if check and (check_seconds <= CHECK_SHARE * elapsed or (trace and len(checks) < 2)):
                last = mains[-1]
                check_seconds += attempt(lambda: check(last), "bench.check", "check", checks).seconds
            if trace and len(mains) < 2:
                continue
            typical = statistics.median(r.seconds for r in mains)
            if perf_counter() - start + typical > seconds:
                return mains, checks, 0
    except PACKAGE_ERRORS as exc:
        print(f"operation failed: {type(exc).__name__}: {exc}")
        if not mains or (check and not checks):
            raise
        return mains, checks, 1


# --- output checks ---------------------------------------------------------


def parse_row(line: str) -> list[float]:
    """lr, l3d, l2d, total of one metrics.tsv row."""
    return [float(v) for v in line.split("\t")[1:]]


def outputs_of(lines: list[str], evals: list[EvalRun]) -> dict:
    """What a run is checked against its reference by."""
    return {
        "rows": [parse_row(line) for line in lines],
        "linear_accuracy": evals[0].linear_accuracy,
        "fewshot_accuracy": evals[0].fewshot_accuracy,
    }


def loss_close(value: float, reference: float) -> bool:
    return abs(value - reference) <= LOSS_RTOL * abs(reference)


def reference_mismatches(outputs: dict, reference: dict) -> list[str]:
    """Differences beyond LOSS_RTOL (losses) and ACCURACY_ATOL (accuracies)."""
    problems = []
    if len(outputs["rows"]) != len(reference["rows"]):
        problems.append(
            f"{len(outputs['rows'])} loss rows, reference has {len(reference['rows'])}"
        )
    for step, (got, want) in enumerate(zip(outputs["rows"], reference["rows"])):
        for column, a, b in zip(("lr", "l3d", "l2d", "total"), got, want):
            if not loss_close(a, b):
                problems.append(f"step {step} {column} {a!r} vs reference {b!r}")
    for name in ("linear_accuracy", "fewshot_accuracy"):
        if not abs(outputs[name] - reference[name]) <= ACCURACY_ATOL:
            problems.append(f"{name} {outputs[name]!r} vs reference {reference[name]!r}")
    return problems


def corrupted(reference: dict) -> dict:
    """The reference with its first loss moved by 100x the tolerance."""
    rows = [list(row) for row in reference["rows"]]
    rows[0][3] *= 1.0 + 100 * LOSS_RTOL
    return {**reference, "rows": rows}


def load_reference(workload: str, seed: int) -> dict | None:
    if not REFERENCE_PATH.exists():
        return None
    return json.loads(REFERENCE_PATH.read_text())["workloads"].get(workload, {}).get(str(seed))


def row_ok(line: str, step: int, reference_row) -> bool:
    fields = line.split("\t")
    if len(fields) != 5 or fields[0] != str(step):
        return False
    values = parse_row(line)
    if not all(math.isfinite(v) for v in values):
        return False
    return reference_row is None or all(map(loss_close, values, reference_row))


@dataclass
class Verdict:
    attempted: int = 0
    failed: int = 0
    checks: dict = field(default_factory=dict)
    outputs: dict = field(default_factory=dict)  # what the reference holds

    @property
    def correct(self) -> bool:
        return self.failed == 0 and all(self.checks.values())


def judge(w: Workload, corpus: Corpus, trains: list[TrainRun], evals: list[EvalRun]) -> Verdict:
    verdict = Verdict()
    checks = verdict.checks
    reference = load_reference(w.name, w.run_seed)
    expected_rows = STEPS_PER_RUN[w.name] if trains else SETUP_STEPS
    lines = trains[0].lines if trains else corpus.setup_lines
    ref_rows = reference["rows"] if reference else []

    # one operation per optimizer step: its row must be finite, repeat the
    # first run's row byte for byte, and match the reference when there is one
    for run in trains:
        verdict.attempted += expected_rows
        for step in range(expected_rows):
            ok = (
                step < len(run.lines)
                and step < len(lines)
                and run.lines[step] == lines[step]
                and row_ok(run.lines[step], step, ref_rows[step] if step < len(ref_rows) else None)
            )
            verdict.failed += not ok
    checks["metrics_rows_exact"] = all(len(r.lines) == expected_rows for r in trains) and (
        len(corpus.setup_lines) == (0 if trains else SETUP_STEPS)
    )
    checks["setup_losses_finite"] = all(
        row_ok(line, step, None) for step, line in enumerate(corpus.setup_lines)
    )
    checks["checkpoints_identical"] = len({r.checkpoint_sha for r in trains}) <= 1
    checks["final_checkpoint_loads"] = all(e.checkpoint_step == expected_rows for e in evals)

    # one operation per encoded cloud: finite, and equal to the first pass
    base = evals[0].features
    for run in evals:
        verdict.attempted += len(run.features)
        good = np.isfinite(run.features).all(axis=1) & (run.features == base).all(axis=1)
        verdict.failed += int((~good).sum())
    checks["accuracy_in_range"] = all(
        0.0 <= e.linear_accuracy <= 1.0 and 0.0 <= e.fewshot_accuracy <= 1.0 for e in evals
    )
    checks["accuracy_repeats"] = (
        len({(e.linear_accuracy, e.fewshot_accuracy) for e in evals}) == 1
    )
    if any(r.traced for r in trains + evals):
        checks["traced_matches_untraced"] = (
            all(r.lines == lines for r in trains)
            and all(np.array_equal(e.features, base) for e in evals)
            and checks["accuracy_repeats"]
        )

    outputs = outputs_of(lines, evals)
    verdict.outputs = outputs
    if reference is not None:
        problems = reference_mismatches(outputs, reference)
        checks["matches_reference"] = not problems
        for problem in problems:
            print(f"reference mismatch: {problem}")
    # negative control: a corrupted reference must be caught; without a
    # recorded reference for this seed, the run's own outputs stand in
    control = reference if reference is not None else outputs
    checks["negative_control_caught"] = bool(reference_mismatches(outputs, corrupted(control)))
    return verdict


# --- metrics ---------------------------------------------------------------


def tail(values: list[float], percentile: float) -> tuple[float, int]:
    """The percentile (linear interpolation) and how many values lie beyond it."""
    value = float(np.percentile(values, percentile))
    return value, sum(v > value for v in values)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # kB on Linux


def samples_per_s(w: Workload, clock, trains, evals, traced: bool) -> float:
    """Samples per second over the timed calls: training samples over the
    pretrain() calls, or clouds over the evaluation passes on frozen_eval."""
    if w.name in PRETRAIN:
        runs = [r for r in trains if r.traced == traced]
        samples = sum(r.steps for r in runs) * w.cfg.train.batch_size
    else:
        runs = [e for e in evals if e.traced == traced]
        samples = sum(len(e.features) for e in runs)
    return samples / sum(clock.seconds(r.start, r.end) for r in runs)


def end_to_end(w, clock, setups, trains, evals) -> tuple[dict, dict]:
    """Each metric's value and sample count, from the untraced calls and
    `setups` ((start, end) of each set-up), in the clock's time; plus notes.
    Rates pool all calls and eval_s is a mean."""
    trains = [r for r in trains if not r.traced]
    evals = [e for e in evals if not e.traced]
    if w.name in PRETRAIN:
        ops_ms = [ms for r in trains for ms in op_ms(clock, r.stamps)]
        samples = len(ops_ms) * w.cfg.train.batch_size
    else:
        ops_ms = [ms for e in evals for ms in op_ms(clock, e.stamps)]
        samples = len(ops_ms)
    tail_ms, beyond = tail(ops_ms, TAIL_PERCENTILE[w.name])
    clouds = sum(len(e.features) for e in evals)
    extract_seconds = sum(clock.seconds(e.stamps[0], e.extract_end) for e in evals)
    values = {
        "samples_per_s": (samples_per_s(w, clock, trains, evals, False), samples),
        "step_ms_p50": (statistics.median(ops_ms), len(ops_ms)),
        "step_ms_tail": (tail_ms, len(ops_ms)),
        "setup_s": (statistics.median(clock.seconds(a, b) for a, b in setups), len(setups)),
        "clouds_per_s": (clouds / extract_seconds, clouds),
        "eval_s": (statistics.mean(clock.seconds(e.start, e.end) for e in evals), len(evals)),
        "peak_rss_mb": (peak_rss_mb(), 1),
    }
    notes = {
        "step_ms_tail_percentile": TAIL_PERCENTILE[w.name],
        "step_ms_tail_beyond": beyond,
        "op_ms": ops_ms,
    }
    return values, notes


def root_phase(spans, index: int) -> str:
    while spans[index].parent != NO_PARENT:
        index = spans[index].parent
    return spans[index].name


def per_layer(w, inst: Instrument, spans, trains, evals) -> dict:
    """Per wrapped function: mean self ms per call over the whole traced
    process (set-up, timed work, checks), and calls per operation of the
    traced timed work (training sample, or encoded cloud on frozen_eval)."""
    selfs = self_times(spans)
    if w.name in PRETRAIN:
        ops = sum(r.steps for r in trains if r.traced) * w.cfg.train.batch_size
    else:
        ops = sum(len(e.features) for e in evals if e.traced)
    total_ms: dict[str, float] = {}
    calls: dict[str, int] = {}
    timed_calls: dict[str, int] = {}
    for index, (span, own) in enumerate(zip(spans, selfs)):
        total_ms[span.name] = total_ms.get(span.name, 0.0) + 1e3 * own
        calls[span.name] = calls.get(span.name, 0) + 1
        if root_phase(spans, index) == "bench.timed":
            timed_calls[span.name] = timed_calls.get(span.name, 0) + 1
    values = {}
    for name in LAYER_SPANS:
        if name not in calls:
            raise RuntimeError(f"traced run never called {name}")
        values[f"{name}.self_ms"] = total_ms[name] / calls[name]
        values[f"{name}.calls"] = timed_calls.get(name, 0) / ops
    values["autodiff.graph_nodes"] = statistics.mean(inst.graph_nodes)
    values["model.fused_tokens_ratio"] = statistics.mean(inst.fused_ratios)
    values["checkpoint.bytes"] = statistics.mean(inst.checkpoint_bytes)
    values["trace.overhead_samples_per_s"] = samples_per_s(
        w, inst.clock, trains, evals, False
    ) - samples_per_s(w, inst.clock, trains, evals, True)
    return values


# --- environment -----------------------------------------------------------


def git_sha(root: Path) -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: ") :]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(root: Path) -> dict:
    blas = "unknown"
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info['name']} {info['version']}"
    except (KeyError, TypeError):
        pass
    return {
        "git_sha": git_sha(root),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
    }


# --- one run of a workload ------------------------------------------------


def run(name: str, seed: int, seconds: float, trace: bool, root: Path) -> dict:
    """Set up, run the timed work for about `seconds`, check the outputs and
    compute the metrics; writes result.json (and trace.json) under
    root/.benchrun and removes everything else it wrote.

    Untraced, the end-to-end metrics are in reference time (see refclock);
    their wall-time values are kept beside them. Traced, both are wall time.
    """
    w = make_workload(name, seed)
    out_dir = root / ".benchrun" / f"{name}-seed{seed}-trace{int(trace)}"
    work_dir = out_dir / "work"
    shutil.rmtree(out_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    clock = WallClock() if trace else RefClock()
    inst = Instrument(w.cfg, clock)

    try:
        clock.calibrate()
        setups = []
        corpus = None
        for i in range(1 if trace else SETUP_REPEATS):
            corpus = None  # free the previous corpus before building the next
            start = perf_counter()
            with inst.phase("bench.setup", f"setup{i}", trace):
                corpus = set_up(w, work_dir)
            setups.append((start, perf_counter()))

        if w.name in PRETRAIN:
            subset = check_subset(corpus.labels)
            clouds = [corpus.clouds[i] for i in subset]
            trains, evals, raised = closed_loop(
                inst, seconds, trace,
                lambda: train_once(w, corpus, work_dir / "train", inst), "run",
                lambda train: evaluate_once(
                    w, train.checkpoint, clouds, corpus.labels[subset], FEWSHOT["check"], inst
                ),
            )
        else:
            evals, _, raised = closed_loop(
                inst, seconds, trace,
                lambda: evaluate_once(
                    w, corpus.checkpoint, corpus.clouds, corpus.labels, FEWSHOT["frozen_eval"], inst
                ),
                "pass",
            )
            trains = []
        clock.calibrate()

        verdict = judge(w, corpus, trains, evals)
        verdict.attempted += raised
        verdict.failed += raised
        values, notes = end_to_end(w, clock, setups, trains, evals)
        wall, _ = end_to_end(w, WallClock(), setups, trains, evals)
        if isinstance(clock, RefClock):
            kernel_ms = clock.kernel_ms()
            notes["calibrations"] = len(kernel_ms)
            notes["kernel_ms_median"] = statistics.median(kernel_ms)
            notes["kernel_share"] = sum(kernel_ms) / 1e3 / (perf_counter() - clock.marks[0][0])
        result = {
            "workload": name,
            "seed": seed,
            "seconds": seconds,
            "trace": trace,
            "environment": environment(root),
            "checks": verdict.checks,
            "outputs": verdict.outputs,
            "attempted": verdict.attempted,
            "failed": verdict.failed,
            "end_to_end": {
                k: {"value": v, "n": n, "wall": wall[k][0]} for k, (v, n) in values.items()
            },
            "notes": notes,
        }
        if trace:
            spans = inst.tracer.finished()
            write_spans(out_dir / "trace.json", spans)
            result["per_layer"] = per_layer(w, inst, spans, trains, evals)
        result["correct"] = verdict.correct
        (out_dir / "result.json").write_text(json.dumps(result, indent=2) + "\n")
        return result
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def report(result: dict) -> dict:
    """Print the human-readable lines and return the final JSON object."""
    env = result["environment"]
    print("environment: " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"workload {result['workload']} seed {result['seed']} trace {int(result['trace'])}")
    print(f"  {'metric':<14} {'value':>14} {'unit':<4} {'wall time':>14}")
    for name, entry in result["end_to_end"].items():
        print(
            f"  {name:<14} {entry['value']:14.4f} {END_TO_END_UNITS[name]:<4} "
            f"{entry['wall']:14.4f} n={entry['n']}"
        )
    notes = result["notes"]
    if "calibrations" in notes:
        print(
            f"  values in reference time: {notes['calibrations']} calibrations, kernel median "
            f"{notes['kernel_ms_median']:.3f} ms, {100 * notes['kernel_share']:.1f}% of the run"
        )
    print(
        f"  step_ms_tail is p{notes['step_ms_tail_percentile']}, "
        f"{notes['step_ms_tail_beyond']} operations beyond it"
    )
    rate = result["failed"] / result["attempted"]
    print(f"  error_rate     {rate:14.4f} ratio ({result['failed']}/{result['attempted']} operations)")
    for check, ok in result["checks"].items():
        print(f"  check {check}: {'ok' if ok else 'FAILED'}")
    if result["trace"]:
        units = per_layer_units()
        metrics = {k: {"value": v, "unit": units[k]} for k, v in result["per_layer"].items()}
        for name, entry in metrics.items():
            print(f"  {name:<44} {entry['value']:14.4f} {entry['unit']}")
    else:
        metrics = {
            k: {"value": e["value"], "unit": END_TO_END_UNITS[k]}
            for k, e in result["end_to_end"].items()
        }
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }
