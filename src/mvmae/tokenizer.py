"""Point-patch tokenization: centers, local groups, masking, embeddings.

A cloud becomes n patches (farthest-point-sampled centers, KNN groups in
center-relative coordinates), a random mask plan splits them into visible
and masked sets, and two small networks turn geometry into C-wide tokens:
a shared per-point MLP with a max-pool for patch content, plus a two-layer
MLP over raw center coordinates for position.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, ops
from .geometry import farthest_point_sampling, knn
from .nn import Mlp2, ParamRegistry
from .rng import Rng


@dataclass(frozen=True)
class PatchSet:
    centers: np.ndarray  # (n, 3) absolute coordinates
    patches: np.ndarray  # (n, k, 3) relative to each center

    def absolute(self) -> np.ndarray:
        return self.patches + self.centers[:, None, :]


@dataclass(frozen=True)
class MaskPlan:
    visible_idx: np.ndarray  # sorted
    masked_idx: np.ndarray  # sorted


def round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def build_patches(points: np.ndarray, n: int, k: int) -> PatchSet:
    """FPS centers plus center-relative KNN groups."""
    points = np.asarray(points, dtype=np.float64)
    center_idx, d2 = farthest_point_sampling(points, n)
    centers = points[center_idx]
    nn_idx = knn(d2, k)
    patches = points[nn_idx] - centers[:, None, :]
    return PatchSet(centers=centers, patches=patches)


def apply_mask(n: int, m: float, rng: Rng) -> MaskPlan:
    """Uniform random mask over patch indices, exact count round_half_up(m*n)."""
    masked = np.sort(rng.choice(n, round_half_up(m * n), replace=False))
    visible = np.setdiff1d(np.arange(n), masked, assume_unique=True)
    return MaskPlan(visible_idx=visible, masked_idx=masked)


class PatchEmbed(Mlp2):
    """Shared per-point Mlp2 (3 -> C/2 -> C) with a max-pool over the k
    points of each patch. Invariant to point order."""

    def __init__(self, reg: ParamRegistry, name: str, dim: int):
        super().__init__(reg, name, 3, dim // 2, dim)

    def __call__(self, patches: Tensor) -> Tensor:
        # (..., n, k, 3): the affine layers act on the last axis, pool over k
        return ops.max_(super().__call__(patches), axis=-2)


class PosEmbed3D(Mlp2):
    """Mlp2 (3 -> C -> C) over raw center coordinates."""

    def __init__(self, reg: ParamRegistry, name: str, dim: int):
        super().__init__(reg, name, 3, dim, dim)

    # this class's own entry, so that timing it times no other Mlp2
    __call__ = Mlp2.__call__
