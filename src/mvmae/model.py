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

from dataclasses import dataclass

import numpy as np

from .autodiff import Parameter, Tensor, no_grad, ops
from .config import ModelConfig
from .errors import ContractViolation, TrainingAborted
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
    make_pose_pool,
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
    """All trainable state plus the frozen 2-D sinusoidal table."""

    def __init__(self, cfg: ModelConfig, init_rng: Rng):
        self.cfg = cfg
        reg = ParamRegistry(init_rng)
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

    def fuse_image_tokens(self, encoded: Tensor, grouping: TokenGrouping) -> dict[int, Tensor]:
        """Per non-empty image token: MLP(max-pool + avg-pool of members)."""
        fused: dict[int, Tensor] = {}
        for token, members in grouping.groups.items():
            rows = ops.gather_rows(encoded, members)
            pooled = ops.add(
                ops.max_(rows, axis=0, keepdims=True),
                ops.mean(rows, axis=0, keepdims=True),
            )
            fused[token] = self.fuse_mlp(pooled)
        return fused

    # --- decoder input -----------------------------------------------

    def _tile(self, row: Parameter, count: int) -> Tensor:
        return ops.gather_rows(row, np.zeros(count, dtype=np.int64))

    def assemble_decoder_input(
        self,
        encoded: Tensor,
        fused_per_view: list[dict[int, Tensor]],
        plan_mask: MaskPlan,
        poses: list[CameraPose],
        pos_all: Tensor,
    ) -> tuple[Tensor, Tensor]:
        """The joint decoder's (sequence, position) pair: n point slots,
        then tokens_per_view slots for each view."""
        t_per_view = self.tokens_per_view
        if len(poses) != len(fused_per_view):
            raise ContractViolation("one fused map per pose required")

        modality_point = self.modality_mlp(Tensor(POINT_MODALITY))
        modality_image = self.modality_mlp(Tensor(IMAGE_MODALITY))

        # point segment: visible slots carry encoder outputs, masked slots
        # the learnable point mask token; Eq-style padding then embeddings
        slot_source = np.empty(self.cfg.n, dtype=np.int64)
        slot_source[plan_mask.visible_idx] = np.arange(len(plan_mask.visible_idx))
        slot_source[plan_mask.masked_idx] = len(plan_mask.visible_idx) + np.arange(
            len(plan_mask.masked_idx)
        )
        mask_rows = self._tile(self.mask_token_point, len(plan_mask.masked_idx))
        point_seq = ops.gather_rows(ops.concat([encoded, mask_rows], axis=0), slot_source)
        point_seq = ops.add(point_seq, ops.add(pos_all, modality_point))

        image_seqs = []
        image_pos = []
        for pose, fused in zip(poses, fused_per_view):
            pose_vec = self.pose_mlp(Tensor(pose.feature()[None, :]))
            if fused:
                stack = ops.concat(list(fused.values()), axis=0)
                source = np.full(t_per_view, len(fused), dtype=np.int64)
                for rank, token in enumerate(fused):
                    source[token] = rank
                bank = ops.concat([stack, self.mask_token_image], axis=0)
                view_seq = ops.gather_rows(bank, source)
            else:
                view_seq = self._tile(self.mask_token_image, t_per_view)
            view_pos = ops.add(self.sincos, pose_vec)
            image_seqs.append(ops.add(view_seq, ops.add(view_pos, modality_image)))
            image_pos.append(view_pos)

        seq = ops.concat([point_seq] + image_seqs, axis=0)
        pos = ops.concat([pos_all] + image_pos, axis=0)
        return seq, pos

    # --- joint decoding ----------------------------------------------

    def joint_decode(self, seq: Tensor, pos: Tensor) -> tuple[Tensor, list[Tensor]]:
        """Decode an assembled sequence; split it into the point rows and
        one row block per view."""
        n, t = self.cfg.n, self.tokens_per_view
        x = seq
        for block in self.dec_blocks:
            x = block(ops.add(x, pos))
        x = self.dec_norm(x)
        point_rows = ops.gather_rows(x, np.arange(n))
        image_rows = [
            ops.gather_rows(x, np.arange(start, start + t))
            for start in range(n, x.shape[0], t)
        ]
        return point_rows, image_rows

    # --- heads ---------------------------------------------------------

    def project_heads(
        self, point_rows: Tensor, image_rows: list[Tensor], masked_idx: np.ndarray
    ) -> tuple[Tensor, list[Tensor]]:
        cfg = self.cfg
        masked = ops.gather_rows(point_rows, masked_idx)
        patches = ops.reshape(self.head3d(masked), (len(masked_idx), cfg.k, 3))
        ppr = cfg.H_i // cfg.H_t
        ppc = cfg.W_i // cfg.W_t
        images = []
        for rows in image_rows:
            flat = self.head2d(rows)
            tiles = ops.reshape(flat, (cfg.H_t, cfg.W_t, ppr, ppc))
            image = ops.reshape(ops.transpose(tiles, (0, 2, 1, 3)), (cfg.H_i, cfg.W_i))
            images.append(image)
        return patches, images


@dataclass
class Reconstruction:
    predicted_patches: Tensor  # (M, k, 3), center-relative
    predicted_images: list[Tensor]  # views x (H_i, W_i)
    target_patches: np.ndarray
    target_images: list[np.ndarray]


# --- losses ------------------------------------------------------------


def _pairwise_sq_dists(p: Tensor, q: Tensor) -> Tensor:
    """(..., A, 3) x (..., B, 3) -> (..., A, B) squared distances."""
    a = p.shape[-2]
    b = q.shape[-2]
    lead = p.shape[:-2]
    p_exp = ops.reshape(p, lead + (a, 1, 3))
    q_exp = ops.reshape(q, lead + (1, b, 3))
    diff = ops.sub(p_exp, q_exp)
    return ops.sum_(ops.mul(diff, diff), axis=-1)


def loss_3d(predicted: Tensor, target: np.ndarray) -> Tensor:
    """Mean over masked patches of the per-patch Chamfer distance: the
    symmetric mean of squared nearest-neighbor distances."""
    if predicted.shape[0] == 0:
        raise ContractViolation("no masked patches to reconstruct")
    if predicted.shape != tuple(target.shape):
        raise ContractViolation(
            f"prediction {predicted.shape} vs target {target.shape}"
        )
    d2 = _pairwise_sq_dists(predicted, Tensor(target))
    side_p = ops.mean(ops.min_(d2, axis=2), axis=1)
    side_q = ops.mean(ops.min_(d2, axis=1), axis=1)
    return ops.mean(ops.add(side_p, side_q))


def loss_2d(predicted: list[Tensor], target: list[np.ndarray]) -> Tensor:
    """Mean over views of the full-image mean squared error."""
    if len(predicted) != len(target) or not predicted:
        raise ContractViolation("need one target per predicted view")
    per_view = [ops.mse(img, Tensor(gt)) for img, gt in zip(predicted, target)]
    total = per_view[0]
    for term in per_view[1:]:
        total = ops.add(total, term)
    return ops.scale(total, 1.0 / len(predicted))


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
    target_images: list[np.ndarray]


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
    pool = make_pose_pool(cfg.V, cfg.elevation_deg, cfg.radius, cfg.fov_deg)
    chosen = rng.derive("views").choice(cfg.V, cfg.K, replace=False)
    poses = [pool[i] for i in np.sort(chosen)]
    visible_centers = patches.centers[mask.visible_idx]
    return PretrainPlan(
        patches=patches,
        mask=mask,
        poses=poses,
        groupings=[
            group_by_image_token(visible_centers, pose, cfg.H_i, cfg.W_i, cfg.H_t, cfg.W_t)
            for pose in poses
        ],
        target_images=[
            rasterize_depth(cloud.points, pose, cfg.H_i, cfg.W_i) for pose in poses
        ],
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
    fused = [model.fuse_image_tokens(encoded, g) for g in plan.groupings]
    seq, pos = model.assemble_decoder_input(encoded, fused, plan.mask, plan.poses, pos_all)
    point_rows, image_rows = model.joint_decode(seq, pos)
    pred_patches, pred_images = model.project_heads(
        point_rows, image_rows, plan.mask.masked_idx
    )
    target_patches = plan.patches.patches[plan.mask.masked_idx]
    l3d = loss_3d(pred_patches, target_patches)
    l2d = loss_2d(pred_images, plan.target_images)
    loss = total_loss(l3d, l2d)
    recon = Reconstruction(
        predicted_patches=pred_patches,
        predicted_images=pred_images,
        target_patches=target_patches,
        target_images=plan.target_images,
    )
    diagnostics = {
        "l3d": float(l3d.data),
        "l2d": float(l2d.data),
        "groups_per_view": [g.g for g in plan.groupings],
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
