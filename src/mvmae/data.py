"""Synthetic shape corpus: analytic surfaces sampled into point clouds.

Five shape families stand in for a mesh dataset. Every cloud is uniform
surface sampling followed by unit-sphere normalization, so downstream
code sees the same scale regardless of the family's native dimensions.
Dataset assembly derives one rng stream per instance, making the corpus
a pure function of the dataset seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .errors import ContractViolation
from .geometry import PointCloud, normalize_unit_sphere
from .rng import Rng

if TYPE_CHECKING:
    from .config import DataConfig

SHAPE_KINDS = ("sphere", "cube", "torus", "cylinder", "cone")
MIN_POINTS = 8  # fewest points a corpus cloud may hold; Config.validate holds the rule


@dataclass(frozen=True)
class SyntheticShape:
    kind: str
    n_points: int
    seed: int
    params: dict = field(default_factory=dict)


def _sample_sphere(rng: Rng, n: int, params: dict) -> np.ndarray:
    # antithetic pairs: for even n the sample centroid is exactly zero, so
    # unit-sphere normalization preserves every point's norm
    half = (n + 1) // 2
    v = rng.normal(0.0, 1.0, (half, 3))
    x, y, z = v.T
    # x, y, z summed in that order: bit for bit np.linalg.norm over axis 1
    sq = x * x
    sq += y * y
    sq += z * z
    v /= np.sqrt(sq)[:, None]
    return np.concatenate([v, -v], axis=0)[:n]


_OTHER_AXES = np.array([[1, 2], [0, 2], [0, 1]])


def _sample_cube(rng: Rng, n: int, params: dict) -> np.ndarray:
    half = 1.0
    face = rng.integers(0, 6, n)
    uv = rng.uniform(-half, half, (n, 2))
    pts = np.empty((n, 3))
    axis = face // 2  # which coordinate is pinned
    rows = np.arange(n)
    pts[rows, axis] = np.where(face % 2 == 0, half, -half)
    pts[rows[:, None], _OTHER_AXES[axis]] = uv
    return pts


def _sample_torus(rng: Rng, n: int, params: dict) -> np.ndarray:
    ring = 1.0
    tube = params.get("tube_radius", 0.3)
    pts = np.empty((n, 3))
    done = 0
    while done < n:
        batch = 2 * (n - done) + 16
        theta = rng.uniform(0.0, 2.0 * math.pi, batch)
        # area element scales with ring + tube*cos(theta): rejection keeps
        # sampling uniform over the surface rather than over parameters
        ring_dist = ring + tube * np.cos(theta)
        keep = rng.uniform(0.0, 1.0, batch) < ring_dist / (ring + tube)
        theta = theta[keep][: n - done]
        ring_dist = ring_dist[keep][: n - done]
        m = len(theta)
        phi = rng.uniform(0.0, 2.0 * math.pi, m)
        np.stack(
            [ring_dist * np.cos(phi), ring_dist * np.sin(phi), tube * np.sin(theta)],
            axis=1,
            out=pts[done : done + m],
        )
        done += m
    return pts


def _disk(rng: Rng, n: int, radius: float) -> tuple[np.ndarray, np.ndarray]:
    r = radius * np.sqrt(rng.uniform(0.0, 1.0, n))
    phi = rng.uniform(0.0, 2.0 * math.pi, n)
    return r * np.cos(phi), r * np.sin(phi)


def _sample_cylinder(rng: Rng, n: int, params: dict) -> np.ndarray:
    radius = 0.5
    height = params.get("height", 1.5)
    side_area = 2.0 * math.pi * radius * height
    cap_area = math.pi * radius**2
    total = side_area + 2.0 * cap_area
    u = rng.uniform(0.0, total, n)
    pts = np.empty((n, 3))
    side = np.flatnonzero(u < side_area)
    caps = np.flatnonzero(u >= side_area)
    phi = rng.uniform(0.0, 2.0 * math.pi, len(side))
    x, y = radius * np.cos(phi), radius * np.sin(phi)
    z = rng.uniform(-height / 2.0, height / 2.0, len(side))
    pts[side] = np.stack([x, y, z], axis=1)
    x, y = _disk(rng, len(caps), radius)
    z = np.where(u[caps] < side_area + cap_area, height / 2.0, -height / 2.0)
    pts[caps] = np.stack([x, y, z], axis=1)
    return pts


def _sample_cone(rng: Rng, n: int, params: dict) -> np.ndarray:
    radius = 0.7
    height = params.get("height", 1.4)
    lateral_area = math.pi * radius * math.hypot(radius, height)
    base_area = math.pi * radius**2
    u = rng.uniform(0.0, lateral_area + base_area, n)
    pts = np.empty((n, 3))
    lateral = np.flatnonzero(u < lateral_area)
    base = np.flatnonzero(u >= lateral_area)
    # area grows linearly with distance from the apex, hence sqrt
    s = np.sqrt(rng.uniform(0.0, 1.0, len(lateral)))
    phi = rng.uniform(0.0, 2.0 * math.pi, len(lateral))
    r = s * radius
    pts[lateral] = np.stack([r * np.cos(phi), r * np.sin(phi), height * (1.0 - s)], axis=1)
    x, y = _disk(rng, len(base), radius)
    pts[base] = np.stack([x, y, np.zeros(len(base))], axis=1)
    return pts


_SAMPLERS = {
    "sphere": _sample_sphere,
    "cube": _sample_cube,
    "torus": _sample_torus,
    "cylinder": _sample_cylinder,
    "cone": _sample_cone,
}


def quaternion_to_matrix(q: np.ndarray) -> np.ndarray:
    """Rotation matrix of a unit quaternion (w, x, y, z)."""
    w, x, y, z = q / np.linalg.norm(q)
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def generate_shape(shape: SyntheticShape) -> PointCloud:
    """Uniform surface sample of the analytic shape, unit-sphere normalized.

    params may carry an "orientation" unit quaternion; the sampled surface
    is rigidly rotated by it before normalization, so corpus instances do
    not share a canonical axis alignment.
    """
    if shape.kind not in _SAMPLERS:
        raise ContractViolation(f"unknown shape kind {shape.kind!r}")
    rng = Rng(shape.seed).derive("shape", shape.kind)
    pts = _SAMPLERS[shape.kind](rng, shape.n_points, shape.params)
    jitter = shape.params.get("jitter", 0.0)
    if jitter > 0.0:
        pts += rng.normal(0.0, jitter, pts.shape)
    orientation = shape.params.get("orientation")
    if orientation is not None:
        pts = pts @ quaternion_to_matrix(np.asarray(orientation)).T
    cloud = PointCloud(pts, source_id=f"{shape.kind}:{shape.seed}")
    return normalize_unit_sphere(cloud)


def _random_orientation(rng: Rng) -> tuple[float, float, float, float]:
    """Uniform rotation: normalized 4-d Gaussian is uniform on the
    quaternion sphere."""
    q = rng.normal(0.0, 1.0, 4)
    q = q / np.linalg.norm(q)
    return tuple(float(v) for v in q)


def _instance_params(kind: str, rng: Rng) -> dict:
    """Per-instance dimension draw; families with a free aspect ratio vary
    so class identity is not a pure scale artifact, and every instance is
    rotated to a random attitude so it is not an axis-alignment artifact
    either."""
    base = {
        "jitter": float(rng.uniform(0.0, 0.03)),
        "orientation": _random_orientation(rng.derive("orientation")),
    }
    if kind == "torus":
        return {"tube_radius": float(rng.uniform(0.15, 0.45)), **base}
    if kind == "cylinder":
        return {"height": float(rng.uniform(0.5, 2.5)), **base}
    if kind == "cone":
        return {"height": float(rng.uniform(0.56, 1.75)), **base}
    return base


def make_dataset(cfg: DataConfig) -> tuple[list[PointCloud], np.ndarray]:
    """The labeled corpus: kind index is the class label."""
    root = Rng(cfg.dataset_seed)
    clouds: list[PointCloud] = []
    for kind in SHAPE_KINDS[: cfg.n_classes]:
        for j in range(cfg.instances_per_class):
            item = root.derive("item", kind, j)
            shape = SyntheticShape(
                kind=kind,
                n_points=cfg.n_points,
                seed=item.derive("sample").seed,
                params=_instance_params(kind, item.derive("params")),
            )
            clouds.append(generate_shape(shape))
    labels = np.repeat(np.arange(cfg.n_classes, dtype=np.int64), cfg.instances_per_class)
    return clouds, labels
