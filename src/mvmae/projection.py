"""Camera poses, pinhole projection, depth rasterization, token grouping.

A pose ring around the unit sphere supplies views; each view projects
patch centers to pixels, buckets them into the image-token grid, and
rasterizes the full cloud into a z-buffered depth map that serves as the
2D reconstruction target. Depth maps round-trip through 16-bit PGM.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, ContractViolation
from .fileio import read_input, write_atomic

CLIP_MARGIN = 1.05  # near/far = radius -/+ this margin


@dataclass(frozen=True)
class CameraPose:
    azimuth_deg: float
    elevation_deg: float
    radius: float
    fov_deg: float

    def __post_init__(self):
        if not (math.isfinite(self.azimuth_deg) and math.isfinite(self.elevation_deg)):
            raise ContractViolation(
                f"camera angles must be finite, got azimuth {self.azimuth_deg} "
                f"and elevation {self.elevation_deg}"
            )
        if not 1.0 < self.radius < math.inf:
            raise ContractViolation(
                f"camera radius {self.radius} must be finite and exceed the unit sphere"
            )
        if not 0.0 < self.fov_deg < 180.0:
            raise ContractViolation(f"fov {self.fov_deg} outside (0, 180)")

    def eye(self) -> np.ndarray:
        az = math.radians(self.azimuth_deg)
        el = math.radians(self.elevation_deg)
        return self.radius * np.array(
            [math.cos(el) * math.cos(az), math.cos(el) * math.sin(az), math.sin(el)]
        )

    def feature(self) -> np.ndarray:
        """Pose descriptor fed to the view embedding MLP."""
        az = math.radians(self.azimuth_deg)
        el = math.radians(self.elevation_deg)
        return np.array(
            [math.sin(az), math.cos(az), math.sin(el), math.cos(el), self.radius]
        )


def make_pose_pool(
    v: int, elevation_deg: float, radius: float, fov_deg: float
) -> list[CameraPose]:
    """V poses on a ring: uniform azimuths, fixed elevation/radius/fov."""
    if v < 1:
        raise ContractViolation(f"pose pool size {v} must be at least 1")
    return [
        CameraPose(360.0 * i / v, elevation_deg, radius, fov_deg) for i in range(v)
    ]


def camera_basis(pose: CameraPose) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Right-handed look-at frame: (eye, right, true_up, forward)."""
    eye = pose.eye()
    fwd = -eye / np.linalg.norm(eye)
    up = np.array([0.0, 0.0, 1.0])
    right = np.cross(fwd, up)
    right /= np.linalg.norm(right)
    true_up = np.cross(right, fwd)
    return eye, right, true_up, fwd


@dataclass(frozen=True)
class ProjectedPoints:
    rows: np.ndarray  # (N,) int64 floor pixel rows
    cols: np.ndarray  # (N,) int64 floor pixel cols
    depth: np.ndarray  # (N,) distance along the optical axis
    in_frustum: np.ndarray  # (N,) bool


def clip_planes(pose: CameraPose) -> tuple[float, float]:
    return pose.radius - CLIP_MARGIN, pose.radius + CLIP_MARGIN


def project_points(points: np.ndarray, pose: CameraPose, h_i: int, w_i: int) -> ProjectedPoints:
    """Pinhole projection of points onto an h_i x w_i image.

    Pixel coordinates are the floor of continuous image coordinates, row 0
    at the top. A point is in-frustum when its pixel lands inside the
    image and its depth lies strictly inside (near, far).
    """
    near, far = clip_planes(pose)
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    eye, right, true_up, fwd = camera_basis(pose)
    rel = points - eye
    x_cam = rel @ right
    y_cam = rel @ true_up
    depth = rel @ fwd
    focal = (h_i / 2.0) / math.tan(math.radians(pose.fov_deg) / 2.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        col_f = w_i / 2.0 + focal * x_cam / depth
        row_f = h_i / 2.0 - focal * y_cam / depth
    ok_depth = (depth > near) & (depth < far)
    col_f = np.where(ok_depth, col_f, -1.0)
    row_f = np.where(ok_depth, row_f, -1.0)
    rows = np.floor(row_f).astype(np.int64)
    cols = np.floor(col_f).astype(np.int64)
    in_frustum = ok_depth & (rows >= 0) & (rows < h_i) & (cols >= 0) & (cols < w_i)
    return ProjectedPoints(rows=rows, cols=cols, depth=depth, in_frustum=in_frustum)


def rasterize_depth(points: np.ndarray, pose: CameraPose, h_i: int, w_i: int) -> np.ndarray:
    """Z-buffered splat of every in-frustum point (1-pixel footprint) into
    an (h_i, w_i) image in [0, 1].

    Occupied pixels hold (far - z)/(far - near) for the nearest point, so
    closer surfaces are brighter; empty pixels are exactly 0.
    """
    near, far = clip_planes(pose)
    proj = project_points(points, pose, h_i, w_i)
    zbuf = np.full((h_i, w_i), np.inf)
    sel = proj.in_frustum
    np.minimum.at(zbuf, (proj.rows[sel], proj.cols[sel]), proj.depth[sel])
    occupied = np.isfinite(zbuf)
    return np.where(occupied, (far - zbuf) / (far - near), 0.0)


def token_index(
    rows: np.ndarray | int,
    cols: np.ndarray | int,
    h_i: int,
    w_i: int,
    h_t: int,
    w_t: int,
) -> np.ndarray | int:
    """Map pixel coordinates to the flat image-token grid index.

    Tokens tile the image in (h_i/h_t) x (w_i/w_t) pixel cells, read in
    row-major order: index = cell_row * w_t + cell_col.
    """
    if h_i % h_t != 0 or w_i % w_t != 0:
        raise ConfigError(
            f"image {h_i}x{w_i} not divisible by token grid {h_t}x{w_t}"
        )
    return (rows // (h_i // h_t)) * w_t + (cols // (w_i // w_t))


@dataclass(frozen=True)
class TokenGrouping:
    """Visible-token positions bucketed by the image token their patch
    center lands in. Keys ascend; members keep visible-array order."""

    groups: dict[int, np.ndarray] = field(default_factory=dict)

    @property
    def g(self) -> int:
        return len(self.groups)


def group_by_image_token(
    visible_centers: np.ndarray,
    pose: CameraPose,
    h_i: int,
    w_i: int,
    h_t: int,
    w_t: int,
) -> TokenGrouping:
    """Bucket visible patch centers by projected image token.

    Out-of-frustum centers join no group; their information reaches the
    image branch only through attention in the joint decoder.
    """
    proj = project_points(visible_centers, pose, h_i, w_i)
    sel = np.flatnonzero(proj.in_frustum)
    tokens = token_index(proj.rows[sel], proj.cols[sel], h_i, w_i, h_t, w_t)
    groups: dict[int, np.ndarray] = {}
    for t in np.unique(tokens):
        groups[int(t)] = sel[tokens == t]
    return TokenGrouping(groups=groups)


def write_pgm(path: str | Path, values: np.ndarray) -> None:
    """16-bit binary PGM (P5, maxval 65535, big-endian), top row first."""
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2 or values.size == 0:
        raise ContractViolation(f"depth image must be non-empty 2-d, got {values.shape}")
    if not (np.all(values >= 0.0) and np.all(values <= 1.0)):  # NaN fails both
        raise ContractViolation("depth values outside [0, 1] or not finite")
    h, w = values.shape
    quantized = np.rint(values * 65535.0).astype(">u2")
    write_atomic(path, f"P5\n{w} {h}\n65535\n".encode("ascii") + quantized.tobytes())


def read_pgm(path: str | Path) -> np.ndarray:
    """Inverse of write_pgm; returns floats in [0, 1]."""
    blob = read_input(path, ContractViolation, "PGM file", binary=True)
    tokens: list[bytes] = []
    i = 0
    while len(tokens) < 4:
        while i < len(blob) and blob[i : i + 1].isspace():
            i += 1
        if i < len(blob) and blob[i : i + 1] == b"#":  # comment line
            while i < len(blob) and blob[i] != 0x0A:
                i += 1
            continue
        start = i
        while i < len(blob) and not blob[i : i + 1].isspace():
            i += 1
        if start == i:
            raise ContractViolation(f"truncated PGM header in {path}")
        tokens.append(blob[start:i])
    i += 1  # single whitespace byte separates header from raster
    if tokens[0] != b"P5":
        raise ContractViolation(f"not a binary PGM: magic {tokens[0]!r}")
    try:
        w, h, maxval = int(tokens[1]), int(tokens[2]), int(tokens[3])
    except ValueError:
        raise ContractViolation(f"non-numeric PGM header in {path}") from None
    if maxval != 65535:
        raise ContractViolation(f"expected 16-bit PGM, maxval {maxval}")
    raster = blob[i : i + 2 * w * h]
    if len(raster) != 2 * w * h:
        raise ContractViolation(f"PGM raster truncated in {path}")
    data = np.frombuffer(raster, dtype=">u2").reshape(h, w)
    return data.astype(np.float64) / 65535.0
