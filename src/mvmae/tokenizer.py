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
from .errors import ContractViolation
from .geometry import farthest_point_sampling, knn
from .nn import Linear, ParamRegistry
from .rng import Rng


@dataclass(frozen=True)
class PatchSet:
    centers: np.ndarray  # (n, 3) absolute coordinates
    patches: np.ndarray  # (n, k, 3) relative to each center
    center_indices: np.ndarray  # (n,) indices into the source cloud

    def absolute(self) -> np.ndarray:
        return self.patches + self.centers[:, None, :]


@dataclass(frozen=True)
class MaskPlan:
    visible_idx: np.ndarray  # sorted
    masked_idx: np.ndarray  # sorted

    def __post_init__(self):
        n = len(self.visible_idx) + len(self.masked_idx)
        combined = np.concatenate([self.visible_idx, self.masked_idx])
        if sorted(combined.tolist()) != list(range(n)):
            raise ContractViolation("visible and masked sets must partition 0..n-1")


def round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def build_patches(points: np.ndarray, n: int, k: int) -> PatchSet:
    """FPS centers plus center-relative KNN groups."""
    points = np.asarray(points, dtype=np.float64)
    center_idx = farthest_point_sampling(points, n)
    centers = points[center_idx]
    nn_idx = knn(points, centers, k)
    patches = points[nn_idx] - centers[:, None, :]
    return PatchSet(centers=centers, patches=patches, center_indices=center_idx)


def apply_mask(n: int, m: float, rng: Rng) -> MaskPlan:
    """Uniform random mask over patch indices, exact count round_half_up(m*n)."""
    if not 0.0 < m < 1.0:
        raise ContractViolation(f"mask ratio {m} outside (0, 1)")
    n_masked = round_half_up(m * n)
    if n_masked == 0 or n_masked == n:
        raise ContractViolation(
            f"mask ratio {m} leaves no {'masked' if n_masked == 0 else 'visible'} "
            f"patches at n={n}"
        )
    masked = np.sort(rng.choice(n, n_masked, replace=False))
    visible = np.setdiff1d(np.arange(n), masked, assume_unique=True)
    return MaskPlan(visible_idx=visible, masked_idx=masked)


class PatchEmbed:
    """Shared per-point MLP (3 -> C/2 -> C, GELU between) with a max-pool
    over the k points of each patch. Invariant to point order."""

    def __init__(self, reg: ParamRegistry, name: str, dim: int):
        if dim % 2 != 0:
            raise ContractViolation(f"token width {dim} must be even")
        self.fc1 = Linear(reg, f"{name}.fc1", 3, dim // 2)
        self.fc2 = Linear(reg, f"{name}.fc2", dim // 2, dim)

    def __call__(self, patches: Tensor) -> Tensor:
        # (n, k, 3): the affine layers act on the last axis, pool over k
        h = self.fc2(ops.gelu(self.fc1(patches)))
        return ops.max_(h, axis=1)


class PosEmbed3D:
    """Two-layer MLP (3 -> C -> C, GELU between) over raw coordinates."""

    def __init__(self, reg: ParamRegistry, name: str, dim: int):
        self.fc1 = Linear(reg, f"{name}.fc1", 3, dim)
        self.fc2 = Linear(reg, f"{name}.fc2", dim, dim)

    def __call__(self, coords: Tensor) -> Tensor:
        return self.fc2(ops.gelu(self.fc1(coords)))
