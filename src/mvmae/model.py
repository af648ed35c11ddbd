"""The masked point autoencoder with joint multi-view depth reconstruction.

Forward path: a cloud becomes n local patches; a random subset is hidden;
visible patches are embedded and encoded by a transformer; encoded tokens
are bucketed per view by where their patch centers project and fused into
image tokens; point and image sequences, padded with learnable mask
tokens and carrying positional, modality, and view embeddings, run
through one joint decoder; two affine heads emit masked 3D patches and
full depth images. Training minimizes patch Chamfer distance plus mean
per-view image MSE.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, no_grad, ops
from .config import ModelConfig
from .errors import TrainingAborted
from .geometry import PointCloud
from .nn import (
    Linear,
    LayerNormAffine,
    Mlp2,
    ParamRegistry,
    TransformerBlock,
    sincos_table_2d,
)
from .projection import (
    CameraPose,
    TokenGrouping,
    group_by_image_token,
    rasterize_depth,
)
from .rng import Rng
from .tokenizer import (
    MaskPlan,
    PatchEmbed,
    PatchSet,
    PosEmbed3D,
    apply_mask,
    build_patches,
)

POINT_MODALITY = np.array([[1.0, 0.0]])
IMAGE_MODALITY = np.array([[0.0, 1.0]])


class MultiviewMae:
    """All trainable state plus the frozen 2-D sinusoidal table. `init` is
    the Rng that draws fresh parameters, or a checkpoint's arrays by name,
    which become the parameters as they are (see `nn.ParamRegistry`)."""

    def __init__(self, cfg: ModelConfig, init: Rng | Mapping[str, np.ndarray]):
        self.cfg = cfg
        reg = ParamRegistry(init)
        self.patch_embed = PatchEmbed(reg, "patch_embed", cfg.C)
        self.pos3d = PosEmbed3D(reg, "pos3d", cfg.C)
        self.enc_blocks = [
            TransformerBlock(reg, f"enc.block{i}", cfg.C, cfg.heads)
            for i in range(cfg.enc_depth)
        ]
        self.fuse_mlp = Mlp2(reg, "fuse", cfg.C, cfg.C, cfg.C)
        self.modality_mlp = Mlp2(reg, "modality", 2, cfg.C, cfg.C)
        self.pose_mlp = Mlp2(reg, "pose_embed", 5, cfg.C, cfg.C)
        self.mask_token_point = reg.normal("mask_token.point", (1, cfg.C))
        self.mask_token_image = reg.normal("mask_token.image", (1, cfg.C))
        self.dec_blocks = [
            TransformerBlock(reg, f"dec.block{i}", cfg.C, cfg.heads)
            for i in range(cfg.dec_depth)
        ]
        self.dec_norm = LayerNormAffine(reg, "dec.norm", cfg.C)
        pixels_per_token = (cfg.H_i // cfg.H_t) * (cfg.W_i // cfg.W_t)
        self.head3d = Linear(reg, "head3d", cfg.C, 3 * cfg.k)
        self.head2d = Linear(reg, "head2d", cfg.C, pixels_per_token)
        self.params = reg.params()
        self.sincos = Tensor(sincos_table_2d(cfg.H_t, cfg.W_t, cfg.C))

    @property
    def tokens_per_view(self) -> int:
        return self.cfg.H_t * self.cfg.W_t

    # --- encoder -----------------------------------------------------

    def encode(self, visible_tokens: Tensor, pos_visible: Tensor) -> Tensor:
        """Transformer over visible tokens; position enters every block."""
        x = visible_tokens
        for block in self.enc_blocks:
            x = block(ops.add(x, pos_visible))
        return x

    # --- view fusion -------------------------------------------------

    def fuse_image_tokens(self, encoded: Tensor, groupings: list[TokenGrouping]) -> Tensor:
        """MLP(max-pool + mean-pool of members) of every non-empty image
        token of every view: a (G, C) stack in view order, tokens
        ascending within a view."""
        members = [m for grouping in groupings for m in grouping.groups.values()]
        starts = np.cumsum([0] + [len(m) for m in members])[:-1]
        idx = np.concatenate(members) if members else np.zeros(0, dtype=np.intp)
        return self.fuse_mlp(ops.segment_pool(encoded, idx, starts))

    # --- decoder input -----------------------------------------------

    def assemble_decoder_input(
        self,
        encoded: Tensor,
        fused: Tensor,
        groupings: list[TokenGrouping],
        plan_mask: MaskPlan,
        poses: list[CameraPose],
        pos_all: Tensor,
    ) -> tuple[Tensor, Tensor]:
        """The joint decoder's (sequence, position) pair: n point slots,
        then tokens_per_view slots for each view."""
        t_per_view = self.tokens_per_view
        slots = np.array(
            [v * t_per_view + token for v, g in enumerate(groupings) for token in g.groups],
            dtype=np.intp,
        )

        # one row bank, one gather: a point slot holds its encoder output or
        # the point mask token; an image slot (views stacked) holds its fused
        # token, or the image mask token when no visible center is in it
        bank = ops.concat([encoded, self.mask_token_point, fused, self.mask_token_image])
        n, n_visible = self.cfg.n, len(plan_mask.visible_idx)
        source = np.full(n + len(poses) * t_per_view, n_visible + 1 + len(slots), dtype=np.intp)
        source[plan_mask.visible_idx] = np.arange(n_visible)
        source[plan_mask.masked_idx] = n_visible
        source[n + slots] = n_visible + 1 + np.arange(len(slots))

        modality_point = self.modality_mlp(Tensor(POINT_MODALITY))
        modality_image = self.modality_mlp(Tensor(IMAGE_MODALITY))
        pose_vec = self.pose_mlp(Tensor(np.stack([pose.feature() for pose in poses])))
        view_pos = ops.add(self.sincos, ops.reshape(pose_vec, (len(poses), 1, self.cfg.C)))
        view_pos = ops.reshape(view_pos, (len(poses) * t_per_view, self.cfg.C))
        embeddings = [ops.add(pos_all, modality_point), ops.add(view_pos, modality_image)]
        seq = ops.add(ops.gather_rows(bank, source), ops.concat(embeddings))
        pos = ops.concat([pos_all, view_pos])
        return seq, pos

    # --- joint decoding ----------------------------------------------

    def joint_decode(self, seq: Tensor, pos: Tensor) -> Tensor:
        """Decode an assembled sequence into the normed (L, C) rows: the n
        point rows, then the image rows of all views in view order."""
        x = seq
        for block in self.dec_blocks:
            x = block(ops.add(x, pos))
        return self.dec_norm(x)

    # --- heads ---------------------------------------------------------

    def project_heads(self, decoded: Tensor, masked_idx: np.ndarray) -> tuple[Tensor, Tensor]:
        """Masked (M, k, 3) patches and (K, H_i, W_i) depth images from the
        decoded (L, C) sequence: the masked point rows feed the 3D head, and
        each image row becomes one H_i/H_t x W_i/W_t tile of its view."""
        cfg = self.cfg
        masked = ops.gather_rows(decoded, masked_idx)
        patches = ops.reshape(self.head3d(masked), (len(masked_idx), cfg.k, 3))
        image_rows = ops.gather_rows(decoded, np.arange(cfg.n, decoded.shape[0]))
        views = image_rows.shape[0] // self.tokens_per_view
        tiles = ops.reshape(
            self.head2d(image_rows),
            (views, cfg.H_t, cfg.W_t, cfg.H_i // cfg.H_t, cfg.W_i // cfg.W_t),
        )
        images = ops.reshape(
            ops.transpose(tiles, (0, 1, 3, 2, 4)), (views, cfg.H_i, cfg.W_i)
        )
        return patches, images


@dataclass
class Reconstruction:
    predicted_patches: Tensor  # (M, k, 3), center-relative
    predicted_images: Tensor  # (K, H_i, W_i)


# --- losses ------------------------------------------------------------


def loss_3d(predicted: Tensor, target: np.ndarray) -> Tensor:
    """Mean over masked patches of the per-patch Chamfer distance: the
    symmetric mean of squared nearest-neighbor distances."""
    return ops.chamfer(predicted, np.asarray(target, dtype=np.float64))


def loss_2d(predicted: Tensor, target: np.ndarray) -> Tensor:
    """Mean over views of the full-image mean squared error: every view
    has the same pixel count, so one MSE over the (K, H_i, W_i) stack."""
    return ops.mse(predicted, Tensor(target))


def total_loss(l3d: Tensor, l2d: Tensor) -> Tensor:
    if not np.isfinite(l3d.data) or not np.isfinite(l2d.data):
        raise TrainingAborted(
            -1, f"non-finite loss: l3d={l3d.data!r} l2d={l2d.data!r}"
        )
    return ops.add(l3d, l2d)


# --- pretraining forward -------------------------------------------------


@dataclass
class PretrainPlan:
    """Everything parameter-independent about one training example: the
    patch layout, mask, chosen views, per-view groupings, and targets.
    Building it once lets a finite-difference loop re-evaluate only the
    parameterized loss."""

    patches: PatchSet
    mask: MaskPlan
    poses: list[CameraPose]
    groupings: list[TokenGrouping]
    target_images: np.ndarray  # (K, H_i, W_i) depth rasters, pose order


def patchify(cloud: PointCloud, cfg: ModelConfig) -> PatchSet:
    """FPS + KNN patch layout of a cloud. A cloud with fewer than
    max(n, k) points is cycled up to that size first."""
    points = cloud.points
    minimum = max(cfg.n, cfg.k)
    if len(points) < minimum:
        points = np.tile(points, (-(-minimum // len(points)), 1))[:minimum]
    return build_patches(points, cfg.n, cfg.k)


def build_pretrain_plan(cloud: PointCloud, cfg: ModelConfig, rng: Rng) -> PretrainPlan:
    patches = patchify(cloud, cfg)
    mask = apply_mask(cfg.n, cfg.m, rng.derive("mask"))
    chosen = rng.derive("views").choice(cfg.V, cfg.K, replace=False)
    poses = [  # K of V poses on a ring: uniform azimuths, fixed elevation
        CameraPose(360.0 * int(i) / cfg.V, cfg.elevation_deg, cfg.radius, cfg.fov_deg)
        for i in np.sort(chosen)
    ]
    visible_centers = patches.centers[mask.visible_idx]
    return PretrainPlan(
        patches=patches,
        mask=mask,
        poses=poses,
        groupings=[
            group_by_image_token(visible_centers, pose, cfg.H_i, cfg.W_i, cfg.H_t, cfg.W_t)
            for pose in poses
        ],
        target_images=np.stack(
            [rasterize_depth(cloud.points, pose, cfg.H_i, cfg.W_i) for pose in poses]
        ),
    )


def loss_from_plan(
    model: MultiviewMae, plan: PretrainPlan
) -> tuple[Tensor, Reconstruction, dict]:
    """The parameterized forward pass for a fixed plan."""
    pos_all = model.pos3d(Tensor(plan.patches.centers))
    visible_patches = Tensor(plan.patches.patches[plan.mask.visible_idx])
    tokens = model.patch_embed(visible_patches)
    pos_visible = ops.gather_rows(pos_all, plan.mask.visible_idx)
    encoded = model.encode(tokens, pos_visible)
    fused = model.fuse_image_tokens(encoded, plan.groupings)
    seq, pos = model.assemble_decoder_input(
        encoded, fused, plan.groupings, plan.mask, plan.poses, pos_all
    )
    decoded = model.joint_decode(seq, pos)
    pred_patches, pred_images = model.project_heads(decoded, plan.mask.masked_idx)
    l3d = loss_3d(pred_patches, plan.patches.patches[plan.mask.masked_idx])
    l2d = loss_2d(pred_images, plan.target_images)
    loss = total_loss(l3d, l2d)
    recon = Reconstruction(predicted_patches=pred_patches, predicted_images=pred_images)
    diagnostics = {
        "l3d": float(l3d.data),
        "l2d": float(l2d.data),
    }
    return loss, recon, diagnostics


def forward_pretrain(
    model: MultiviewMae, cloud: PointCloud, rng: Rng
) -> tuple[Tensor, Reconstruction, dict]:
    plan = build_pretrain_plan(cloud, model.cfg, rng)
    return loss_from_plan(model, plan)


def encoder_features(model: MultiviewMae, cloud: PointCloud) -> np.ndarray:
    """Frozen-encoder descriptor: encode all n patches unmasked, then
    concatenate max-pool and mean-pool over tokens (2C dims)."""
    patches = patchify(cloud, model.cfg)
    with no_grad():
        pos = model.pos3d(Tensor(patches.centers))
        tokens = model.patch_embed(Tensor(patches.patches))
        encoded = model.encode(tokens, pos)
        pooled = np.concatenate(
            [encoded.data.max(axis=0), encoded.data.mean(axis=0)]
        )
    return pooled
