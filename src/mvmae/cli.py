"""Command-line driver: pretraining, depth rendering, reconstruction
dumps, frozen-encoder probes, and the gradient-check harness.

Exit codes: 0 success, 1 failed gradient check, 2 configuration, input
or output error, 3 a non-finite loss (pretrain or reconstruct).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .autodiff import no_grad
from .config import preset_or_file
from .data import make_dataset
from .errors import CheckpointError, ConfigError, ContractViolation, TrainingAborted
from .fileio import write_atomic
from .geometry import PointCloud, load_cloud, write_xyz
from .gradcheck import GRADCHECK_TOLERANCE, run_gradcheck
from .model import MultiviewMae, build_pretrain_plan, plan_losses, untile_images
from .pipeline import (
    extract_features,
    fewshot_trials,
    load_pretrained,
    pretrain,
    probe_features,
    resume_point,
    summarize_accuracy,
)
from .projection import CameraPose, rasterize_depth, write_pgm
from .rng import Rng

EXIT_OK = 0
EXIT_GRADCHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_NAN_ABORT = 3

_GRADCHECK_WARN_SCALARS = 50_000


# --- run manifests -------------------------------------------------------


@contextlib.contextmanager
def _run_manifest(args, config_path: str, config_hash: str):
    """Claim `--out` for one run and yield it. A directory that already
    holds a manifest is refused without --force; the manifest is written
    when the run starts and again, with `finished_at`, when it succeeds."""
    out_dir = Path(args.out)
    path = out_dir / "manifest.json"
    if path.exists() and not args.force:
        raise ConfigError(
            f"{out_dir} already holds a run manifest; pass --force to reuse it"
        )
    manifest = {
        "command": args.command,
        "config_path": config_path,
        "config_hash": config_hash,
        "seed": args.seed,
        "tool_version": __version__,
        "out_dir": str(out_dir),
        "started_at": time.time(),
        "finished_at": None,
    }
    write_atomic(path, json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    yield out_dir
    manifest["finished_at"] = time.time()
    write_atomic(path, json.dumps(manifest, indent=2, sort_keys=True) + "\n")


# --- subcommands ----------------------------------------------------------


def cmd_pretrain(args) -> int:
    cfg = preset_or_file(args.config)
    if args.epochs is not None:
        cfg = replace(cfg, train=replace(cfg.train, epochs=args.epochs)).validate()
    clouds, _ = make_dataset(cfg.data)
    resume = None
    if args.resume is not None:  # refuse before --out is claimed
        resume = resume_point(cfg, len(clouds), args.seed, args.resume)
    with _run_manifest(args, args.config, cfg.config_hash()) as out_dir:
        result = pretrain(cfg, clouds, out_dir, run_seed=args.seed, resume=resume)
    print(
        f"pretrained {result.steps_run}/{result.total_steps} steps; "
        f"final checkpoint {result.checkpoint_path}"
    )
    return EXIT_OK


def cmd_render(args) -> int:
    cloud = load_cloud(args.input)
    try:
        parts = [float(x) for x in args.pose.split(",")]
        h_txt, _, w_txt = args.size.partition("x")
        height, width = int(h_txt), int(w_txt)
    except ValueError as exc:
        raise ConfigError(f"bad --pose {args.pose!r} or --size {args.size!r}: {exc}") from None
    if len(parts) != 4:
        raise ConfigError(f'pose must be "az,el,radius,fov", got {args.pose!r}')
    if height < 1 or width < 1:
        raise ConfigError(f"image size must be positive, got {args.size!r}")
    pose = CameraPose(*parts)  # az, el, radius, fov: the field order
    out = Path(args.out)
    if out.exists() and not args.force:
        raise ConfigError(f"{out} exists; pass --force to overwrite")
    depth = rasterize_depth(cloud.points, pose, height, width)
    write_pgm(out, depth)
    print(
        f"wrote {out} ({height}x{width}, "
        f"{int((depth > 0).sum())} occupied pixels)"
    )
    return EXIT_OK


def cmd_reconstruct(args) -> int:
    model, ckpt = load_pretrained(args.checkpoint)
    cloud = load_cloud(args.input)
    cfg = ckpt.config
    if args.views is not None:
        cfg = replace(cfg, model=replace(cfg.model, K=args.views)).validate()
    with _run_manifest(args, args.checkpoint, cfg.config_hash()) as out_dir:
        plan = build_pretrain_plan(cloud, cfg.model, Rng(args.seed).derive("reconstruct"))
        with no_grad():
            [(_, recon, diag)] = plan_losses(model, [plan])

        visible_abs = plan.patches.absolute()[plan.mask.visible_idx].reshape(-1, 3)
        write_xyz(out_dir / "masked_input.xyz", PointCloud(visible_abs))
        centers = plan.patches.centers[plan.mask.masked_idx]
        predicted_abs = (recon.predicted_patches.data + centers[:, None, :]).reshape(-1, 3)
        write_xyz(out_dir / "reconstructed.xyz", PointCloud(predicted_abs))
        predicted = np.clip(recon.predicted_tiles.data, 0.0, 1.0)
        for name, tiles in (("gt", plan.target_tiles), ("pred", predicted)):
            for v, image in enumerate(untile_images(tiles, cfg.model)):
                write_pgm(out_dir / f"{name}_view{v}.pgm", image)
    print(
        f"wrote 2 clouds and {2 * cfg.model.K} depth images to {out_dir} "
        f"(l3d={diag['l3d']:.6f}, l2d={diag['l2d']:.6f})"
    )
    return EXIT_OK


def _report_dict(report, **provenance) -> dict:
    return {"accuracy": report.accuracy, "confusion": report.confusion.tolist(), **provenance}


def cmd_probe(args) -> int:
    model, ckpt = load_pretrained(args.checkpoint)
    clouds, labels = make_dataset(ckpt.config.data)
    rng = Rng(args.seed)
    features = extract_features(model, clouds)
    if args.mode == "linear":
        stream = rng.derive("probe")
        report = probe_features(features, labels, stream)
        payload = {"mode": "linear", **_report_dict(report, seeds=[stream.seed])}
    else:
        stream = rng.derive("fewshot")
        reports = fewshot_trials(
            features, labels, args.n_way, args.m_shot, args.trials, stream
        )
        mean, std = summarize_accuracy(reports)
        payload = {
            "mode": "fewshot",
            "n_way": args.n_way,
            "m_shot": args.m_shot,
            "trials": args.trials,
            "mean": mean,
            "std": std,
            "reports": [
                _report_dict(r, seeds=[stream.seed, t], n_way=args.n_way, m_shot=args.m_shot)
                for t, r in enumerate(reports)
            ],
        }
    print(json.dumps(payload, sort_keys=True))
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    cfg = preset_or_file(args.config)
    model = MultiviewMae(cfg.model, Rng(args.seed).derive("init"))
    scalars = sum(p.data.size for p in model.params.values())
    if scalars > _GRADCHECK_WARN_SCALARS:
        print(
            f"warning: {scalars} scalars to perturb; this will be slow",
            file=sys.stderr,
        )
    result = run_gradcheck(cfg, model, args.seed, corrupt_param=args.corrupt_param)
    status = "PASS" if result.passed else "FAIL"
    print(
        f"{status}: worst {result.worst_name} "
        f"rel_err {result.worst_error:.3e} (tolerance {GRADCHECK_TOLERANCE:.0e}); "
        f"{result.n_scalars} scalars in {result.n_parameters} parameters, "
        f"{result.seconds:.1f}s"
    )
    return EXIT_OK if result.passed else EXIT_GRADCHECK_FAILED


# --- parser ---------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mvmae",
        description=(
            "Masked point-cloud pretraining with joint multi-view depth "
            "reconstruction, plus frozen-encoder evaluation."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pretrain", help="run masked multi-view pretraining")
    p.add_argument("--config", required=True, help="preset name or JSON path")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--epochs", type=int, default=None, help="override config epochs")
    p.add_argument("--resume", default=None, help="checkpoint to continue from")
    p.add_argument("--force", action="store_true")
    p.set_defaults(run=cmd_pretrain)

    p = sub.add_parser("render", help="rasterize one depth image to PGM")
    p.add_argument("--input", required=True, help="XYZ or OFF cloud")
    p.add_argument("--pose", default="0,30,2.2,50", help='"az,el,radius,fov"')
    p.add_argument("--size", default="224x224", help="HxW pixels")
    p.add_argument("--out", required=True, help="output PGM path")
    p.add_argument("--force", action="store_true")
    p.set_defaults(run=cmd_render)

    p = sub.add_parser("reconstruct", help="dump masked input and reconstructions")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--input", required=True, help="XYZ or OFF cloud")
    p.add_argument("--views", type=int, default=None, help="views to reconstruct")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--force", action="store_true")
    p.set_defaults(run=cmd_reconstruct)

    p = sub.add_parser("probe", help="evaluate the frozen encoder")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--mode", choices=("linear", "fewshot"), default="linear")
    p.add_argument("--n-way", type=int, default=5)
    p.add_argument("--m-shot", type=int, default=10)
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(run=cmd_probe)

    p = sub.add_parser("gradcheck", help="finite-difference gradient audit")
    p.add_argument("--config", default="tiny", help="preset name or JSON path")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--corrupt-param", default=None, help=argparse.SUPPRESS)
    p.set_defaults(run=cmd_gradcheck)
    return parser


def main(argv=None) -> int:
    """Run one subcommand. The exit-code policy lives here alone: commands
    raise the package's typed errors and this maps each to its code.
    Inputs are read through `fileio.read_input`, which raises a typed
    error, so an OSError that gets here comes from writing an output."""
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except TrainingAborted as exc:
        where = f" at step {exc.step}" if exc.step >= 0 else ""
        print(f"aborted{where}: {exc}", file=sys.stderr)
        return EXIT_NAN_ABORT
    except (ConfigError, CheckpointError, ContractViolation) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
