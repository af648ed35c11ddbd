"""Point-cloud containers, normalization, sampling, grouping, augmentation,
and the XYZ/OFF readers."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import ContractViolation
from .fileio import read_input, write_atomic
from .rng import Rng

__all__ = [
    "PointCloud",
    "Rng",
    "normalize_unit_sphere",
    "farthest_point_sampling",
    "knn",
    "augment",
    "rotate_z",
    "read_xyz",
    "write_xyz",
    "read_off",
    "load_cloud",
]


@dataclass
class PointCloud:
    """N x 3 coordinates, dimensionless; normalized clouds live in the unit
    sphere with centroid at the origin."""

    points: np.ndarray
    label: int | None = None
    source_id: str = ""

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=np.float64)
        if self.points.ndim != 2 or self.points.shape[1] != 3:
            raise ContractViolation(f"points must be N x 3, got {self.points.shape}")
        if len(self.points) < 1:
            raise ContractViolation("point cloud must contain at least one point")
        if not np.isfinite(self.points).all():
            raise ContractViolation(
                f"non-finite point coordinates in {self.source_id or 'point cloud'}"
            )

    def __len__(self) -> int:
        return len(self.points)


def normalize_unit_sphere(cloud: PointCloud) -> PointCloud:
    """Center at the origin and scale so the farthest point has norm 1.

    A degenerate cloud whose points are all identical collapses to
    all-zeros. An axis whose coordinates are all equal is centered on that
    value, not on their mean, whose rounding residue would scale to norm 1.
    """
    flat = (cloud.points == cloud.points[0]).all(axis=0)
    centered = cloud.points - np.where(flat, cloud.points[0], cloud.points.mean(axis=0))
    radius = float(np.linalg.norm(centered, axis=1).max())
    if radius < 1e-30:
        return replace(cloud, points=np.zeros_like(centered))
    return replace(cloud, points=centered / radius)


def _sq_dists(coords: np.ndarray, center: np.ndarray) -> np.ndarray:
    """Squared distances from the columns of a (3, N) coordinate-major
    array to one (3,) center, or to m centers given as (3, m, 1).

    Summed x, y, z in that order, which is bit for bit what
    np.sum(diff ** 2, axis=-1) gives over a length-3 axis.
    """
    d2 = center[0] - coords[0]
    d2 *= d2
    term = center[1] - coords[1]
    term *= term
    d2 += term
    np.subtract(center[2], coords[2], out=term)
    term *= term
    d2 += term
    return d2


def farthest_point_sampling(
    points: np.ndarray, n_samples: int, start_index: int = 0
) -> np.ndarray:
    """Greedy max-min subset selection, ties broken by lowest index.

    Returns indices in selection order. The start index defaults to 0 so
    patching is deterministic without threading an rng through.
    """
    points = np.asarray(points, dtype=np.float64)
    n = len(points)
    if not 1 <= n_samples <= n:
        raise ContractViolation(f"n_samples {n_samples} outside [1, {n}]")
    if not 0 <= start_index < n:
        raise ContractViolation(f"start_index {start_index} outside [0, {n})")
    coords = np.ascontiguousarray(points.T)
    chosen = np.empty(n_samples, dtype=np.int64)
    chosen[0] = start_index
    min_d2 = _sq_dists(coords, coords[:, start_index])
    # chosen entries get -1 so duplicates of a selected point can't win
    min_d2[start_index] = -1.0
    for i in range(1, n_samples):
        nxt = int(np.argmax(min_d2))  # argmax takes the first max: lowest index
        chosen[i] = nxt
        np.minimum(min_d2, _sq_dists(coords, coords[:, nxt]), out=min_d2)
        min_d2[nxt] = -1.0
    return chosen


def knn(points: np.ndarray, centers: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k nearest points per center, ascending by distance,
    ties by lowest index.

    Equal to argsort(d2, kind="stable")[:, :k] of the full distance matrix,
    ties at the k-th distance included, without sorting whole rows.
    """
    points = np.asarray(points, dtype=np.float64)
    centers = np.atleast_2d(np.asarray(centers, dtype=np.float64))
    if not 1 <= k <= len(points):
        raise ContractViolation(f"k {k} outside [1, {len(points)}]")
    d2 = _sq_dists(np.ascontiguousarray(points.T), centers.T[:, :, None])
    # candidates: every entry not above the k-th smallest distance ("not
    # above" rather than "<=" keeps a row whole when its k-th entry is NaN,
    # and NaN sorts last in both sorts)
    kth = np.partition(d2, k - 1, axis=1)[:, k - 1 : k]
    keep = ~(d2 > kth)
    flat = np.flatnonzero(keep)  # row-major: ascending index within a row
    rows, cols = np.divmod(flat, d2.shape[1])
    # stable: equal distances keep index order, as in the full stable sort
    order = np.lexsort((d2.ravel()[flat], rows))
    counts = np.count_nonzero(keep, axis=1)
    starts = np.cumsum(counts) - counts
    return cols[order[starts[:, None] + np.arange(k)]]


def rotate_z(points: np.ndarray, angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    return points @ rot.T


def augment(cloud: PointCloud, rng: Rng) -> PointCloud:
    """Pretraining augmentation: uniform scale in [0.8, 1.2], then a uniform
    rotation about the gravity (z) axis. Draw order is scale, then angle."""
    s = float(rng.uniform(0.8, 1.2))
    theta = float(rng.uniform(0.0, 2.0 * math.pi))
    return replace(cloud, points=rotate_z(cloud.points * s, theta))


def read_xyz(path: str | Path) -> PointCloud:
    """One "x y z" triple per line of finite numbers; blank lines ignored."""
    rows = []
    for line in read_input(path, ContractViolation, "input cloud").splitlines():
        parts = line.split()
        if not parts:
            continue
        try:
            x, y, z = map(float, parts[:3])
        except ValueError:  # too few fields, or one that is not a number
            raise ContractViolation(f"bad XYZ line in {path}: {line!r}") from None
        if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(z)):
            raise ContractViolation(f"non-finite XYZ line in {path}: {line!r}")
        rows.append([x, y, z])
    if not rows:
        raise ContractViolation(f"no points in {path}")
    return PointCloud(np.array(rows), source_id=str(path))


def write_xyz(path: str | Path, cloud: PointCloud) -> None:
    # repr of a builtin float is the shortest string that round-trips exactly
    lines = [
        f"{float(x)!r} {float(y)!r} {float(z)!r}" for x, y, z in cloud.points
    ]
    write_atomic(path, "\n".join(lines) + "\n")


def read_off(path: str | Path) -> PointCloud:
    """OFF mesh vertices, which PointCloud requires to be finite; faces are
    ignored. Tolerates the count header glued to the OFF tag (the common
    ModelNet quirk)."""
    tokens: list[str] = []
    for line in read_input(path, ContractViolation, "input cloud").splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            tokens.extend(line.split())
    if not tokens:
        raise ContractViolation(f"empty OFF file: {path}")
    head = tokens[0]
    if head.upper().startswith("OFF"):
        rest = head[3:]
        tokens = ([rest] if rest else []) + tokens[1:]
    if len(tokens) < 3:
        raise ContractViolation(f"truncated OFF header: {path}")
    try:
        n_vertices = int(tokens[0])
        coords = [float(c) for c in tokens[3 : 3 + 3 * n_vertices]]
    except ValueError:
        raise ContractViolation(f"non-numeric OFF header or vertex in {path}") from None
    if len(coords) < 3 * n_vertices or n_vertices < 1:
        raise ContractViolation(f"OFF vertex section truncated: {path}")
    return PointCloud(np.array(coords).reshape(n_vertices, 3), source_id=str(path))


def load_cloud(path: str | Path) -> PointCloud:
    """Dispatch on extension: .off is a mesh header, everything else XYZ."""
    p = Path(path)
    if p.suffix.lower() == ".off":
        return read_off(p)
    return read_xyz(p)
