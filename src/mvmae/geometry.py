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


def normalize_unit_sphere(cloud: PointCloud) -> PointCloud:
    """Center at the origin and scale so the farthest point has norm 1.

    A degenerate cloud whose points are all identical collapses to
    all-zeros. An axis whose coordinates are all equal is centered on that
    value, not on their mean, whose rounding residue would scale to norm 1.
    """
    points = cloud.points
    flat = [bool((col == col[0]).all()) for col in points.T]
    centered = points - np.where(flat, points[0], points.mean(axis=0))
    x, y, z = centered.T
    # x, y, z summed in that order, as np.linalg.norm over axis 1 does; sqrt
    # is monotone and correctly rounded, so sqrt of the max is the max norm
    sq = x * x
    sq += y * y
    sq += z * z
    radius = math.sqrt(sq.max())
    if radius < 1e-30:
        return replace(cloud, points=np.zeros_like(centered))
    centered /= radius
    return replace(cloud, points=centered)


def farthest_point_sampling(points: np.ndarray, n_samples: int) -> tuple[np.ndarray, np.ndarray]:
    """Greedy max-min subset selection, ties broken by lowest index.

    Returns the indices in selection order and the (n_samples, N) squared
    distances from each chosen point to every point, row i for chosen[i],
    which is what knn selects from. Each row sums x², y², z² in that
    order, which is bit for bit np.sum(diff ** 2, axis=-1) over a length-3
    axis. Selection starts at index 0, so patching is deterministic
    without threading an rng through.
    """
    points = np.asarray(points, dtype=np.float64)
    n = len(points)
    if not 1 <= n_samples <= n:
        raise ContractViolation(f"n_samples {n_samples} outside [1, {n}]")
    coords = np.ascontiguousarray(points.T)
    diff = np.empty_like(coords)
    dx, dy, dz = diff  # (3, N) scratch rows, unpacked once
    chosen = np.empty(n_samples, dtype=np.int64)
    d2 = np.empty((n_samples, n))
    # min(inf, d) is d bit for bit, so row 0 needs no case of its own
    min_d2 = np.full(n, np.inf)
    j = 0
    for i in range(n_samples):
        chosen[i] = j
        row = d2[i]
        np.subtract(coords[:, j : j + 1], coords, out=diff)
        diff *= diff
        np.add(dx, dy, out=row)
        row += dz
        np.minimum(min_d2, row, out=min_d2)
        # chosen entries get -1 so duplicates of a selected point can't win
        min_d2[j] = -1.0
        j = int(min_d2.argmax())  # argmax takes the first max: lowest index
    return chosen, d2


# knn's estimated threshold (see knn) was measured faster than the full-row
# partition at 4096 and 8192 columns (k = 32) and slower at 1024 and 2048
_SAMPLE_STRIDE = 8
_SAMPLED_CANDIDATES_PER_K = 2.5
_SAMPLED_MIN_COLUMNS = 4096


def knn(d2: np.ndarray, k: int) -> np.ndarray:
    """Column indices of the k smallest entries of each row of a (centers,
    points) squared-distance matrix that holds no NaN, as none that
    farthest_point_sampling builds does; ascending, ties by lowest index.

    Equal to argsort(d2, kind="stable")[:, :k], ties at the k-th distance
    included, without sorting whole rows. Each row's candidates (every
    entry `<=` some threshold) are packed and stable-sorted; the result is
    exact whenever the threshold leaves at least k candidates, since the k
    smallest entries then all lie at or below it.

    A matrix narrower than _SAMPLED_MIN_COLUMNS, or one whose rows hold
    fewer than _SAMPLED_CANDIDATES_PER_K * k entries, takes each row's own
    k-th smallest entry as its threshold, found by a full-row partition.
    Any other estimates each row's threshold as its ceil(2.5 k / 8)-th
    smallest entry among every 8th column, which leaves about 2.5 k
    candidates a row and spares the partition's copy of the whole matrix.
    A row the estimate leaves with fewer than k candidates goes through
    the full-row partition instead.
    """
    n = d2.shape[1]
    if not 1 <= k <= n:
        raise ContractViolation(f"k {k} outside [1, {n}]")
    if n < _SAMPLED_MIN_COLUMNS or _SAMPLED_CANDIDATES_PER_K * k > n:
        return _knn_full_partition(d2, k)
    q = math.ceil(_SAMPLED_CANDIDATES_PER_K * k / _SAMPLE_STRIDE)
    estimate = np.partition(d2[:, ::_SAMPLE_STRIDE], q - 1, axis=1)[:, q - 1 : q]
    idx, counts = _k_smallest_candidates(d2, d2 <= estimate, k)
    short = np.flatnonzero(counts < k)
    if len(short):
        idx[short] = _knn_full_partition(d2[short], k)
    return idx


def _knn_full_partition(d2: np.ndarray, k: int) -> np.ndarray:
    """knn with each row's candidates cut at its own k-th smallest entry."""
    kth = np.partition(d2, k - 1, axis=1)[:, k - 1 : k]
    return _k_smallest_candidates(d2, d2 <= kth, k)[0]


def _k_smallest_candidates(
    d2: np.ndarray, keep: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Column indices of the k smallest entries of each row among those
    keep marks, ties by lowest index, and each row's candidate count. A
    row with fewer than k candidates is filled out with meaningless
    indices."""
    flat = np.flatnonzero(keep)  # row-major: ascending index within a row
    rows, cols = np.divmod(flat, d2.shape[1])
    counts = np.bincount(rows, minlength=len(d2))
    # each row's candidates packed left into one table row, padded on the
    # right with +inf, so the stable sort keeps every candidate, +inf ones
    # too, ahead of the padding
    slot = np.arange(len(flat)) - (np.cumsum(counts) - counts)[rows]
    dist = np.full((len(d2), max(counts.max(), k)), np.inf)
    dist[rows, slot] = d2.ravel()[flat]
    index = np.zeros(dist.shape, dtype=np.intp)
    index[rows, slot] = cols
    # stable: equal distances keep index order, as in the full stable sort
    order = np.argsort(dist, axis=1, kind="stable")[:, :k]
    return np.take_along_axis(index, order, axis=1), counts


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
