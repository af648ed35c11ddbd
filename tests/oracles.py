"""Independent oracles shared by the test suite.

Everything here is deliberately naive (loops, exhaustive scans) and kept
free of the library's own kernels so a bug cannot hide on both sides of
a comparison.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import erf


def finite_difference(f, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of a scalar function at x."""
    # C order guarantees reshape(-1) is a view, so perturbations reach f
    x = np.array(x, dtype=np.float64, order="C")
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f(x)
        flat[i] = orig - h
        fm = f(x)
        flat[i] = orig
        gflat[i] = (fp - fm) / (2.0 * h)
    return grad


def fd_gradcheck(
    f, x: np.ndarray, analytic: np.ndarray, tol: float = 1e-5,
    hs: tuple = (1e-5, 1e-6, 1e-7),
) -> float:
    """Central-difference check with step refinement.

    Components whose relative error exceeds tol are retried with smaller
    steps: truncation error from a max/min kink inside the stencil
    shrinks with h, while a wrong analytic gradient does not. Returns
    the max per-component relative error after refinement.
    """
    x = np.array(x, dtype=np.float64, order="C")
    a = np.asarray(analytic, dtype=np.float64).reshape(-1)
    flat = x.reshape(-1)
    err = np.full(flat.size, np.inf)
    pending = np.arange(flat.size)
    for h in hs:
        still = []
        for i in pending:
            orig = flat[i]
            flat[i] = orig + h
            fp = f(x)
            flat[i] = orig - h
            fm = f(x)
            flat[i] = orig
            fd = (fp - fm) / (2.0 * h)
            e = abs(a[i] - fd) / max(1.0, abs(a[i]), abs(fd))
            err[i] = min(err[i], e)
            if err[i] >= tol:
                still.append(i)
        pending = still
        if not pending:
            break
    return float(err.max()) if err.size else 0.0


def grad_rel_error(analytic: np.ndarray, fd: np.ndarray) -> float:
    """Max elementwise |a-f| / max(1, |a|, |f|).

    The unit floor keeps components whose true derivative vanishes from
    being judged by the ratio of two rounding errors.
    """
    a = np.asarray(analytic, dtype=np.float64)
    f = np.asarray(fd, dtype=np.float64)
    denom = np.maximum(1.0, np.maximum(np.abs(a), np.abs(f)))
    return float(np.max(np.abs(a - f) / denom)) if a.size else 0.0


def fps_greedy(points: np.ndarray, n_samples: int, start_index: int = 0) -> list[int]:
    """Exhaustive greedy max-min selection; ties broken by lowest index.

    Every round recomputes the distance from each point to every chosen
    point, with no running minimum carried between rounds.
    """
    chosen = [start_index]
    while len(chosen) < n_samples:
        d2 = np.sum((points[:, None, :] - points[None, chosen, :]) ** 2, axis=-1)
        dmin = d2.min(axis=1)
        dmin[chosen] = -np.inf
        chosen.append(int(np.argmax(dmin)))  # the first of equal maxima
    return chosen


def knn_bruteforce(points: np.ndarray, center: np.ndarray, k: int) -> list[int]:
    """Sort all points by (squared distance, index), take the first k."""
    order = sorted(
        range(len(points)),
        key=lambda i: (float(np.sum((points[i] - center) ** 2)), i),
    )
    return order[:k]


def sq_dist_matrix(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """The whole (centers, points) squared-distance matrix in one sum."""
    return np.sum((centers[:, None, :] - points[None, :, :]) ** 2, axis=-1)


def knn_stable_argsort(points: np.ndarray, centers: np.ndarray, k: int) -> np.ndarray:
    """The full-sort definition: stable argsort of the whole (centers,
    points) squared-distance matrix, first k columns of each row."""
    d2 = sq_dist_matrix(points, centers)
    return np.argsort(d2, axis=1, kind="stable")[:, :k]


def gelu(x: np.ndarray) -> np.ndarray:
    return 0.5 * x * (1.0 + erf(x / np.sqrt(2.0)))


def mlp2(block, x: np.ndarray) -> np.ndarray:
    """A two-layer GELU MLP block evaluated from its parameter arrays."""
    h = gelu(x @ block.fc1.weight.data + block.fc1.bias.data)
    return h @ block.fc2.weight.data + block.fc2.bias.data


def decoder_input_per_token(model, encoded, groupings, mask, poses, pos_all):
    """The joint decoder's (sequence, position) arrays built one view and
    one image token at a time: a non-empty token is fuse_mlp(max + mean of
    its members' encoded rows), an empty one the image mask token."""
    cfg = model.cfg
    tokens_per_view = cfg.H_t * cfg.W_t
    point = np.empty((cfg.n, cfg.C))
    point[mask.visible_idx] = encoded
    point[mask.masked_idx] = model.mask_token_point.data[0]
    modality_point = mlp2(model.modality_mlp, np.array([[1.0, 0.0]]))
    modality_image = mlp2(model.modality_mlp, np.array([[0.0, 1.0]]))
    seq = [point + (pos_all + modality_point)]
    pos = [pos_all]
    for pose, grouping in zip(poses, groupings):
        view = np.repeat(model.mask_token_image.data, tokens_per_view, axis=0)
        for token, members in grouping.groups.items():
            rows = encoded[members]
            pooled = rows.max(axis=0) + rows.mean(axis=0)
            view[token] = mlp2(model.fuse_mlp, pooled[None, :])[0]
        view_pos = model.sincos.data + mlp2(model.pose_mlp, pose.feature()[None, :])
        seq.append(view + (view_pos + modality_image))
        pos.append(view_pos)
    return np.concatenate(seq), np.concatenate(pos)


def chamfer_bruteforce(p: np.ndarray, q: np.ndarray) -> float:
    """Double-loop l2 Chamfer: per-side mean of squared nearest distances."""
    total_pq = 0.0
    for a in p:
        total_pq += min(float(np.sum((a - b) ** 2)) for b in q)
    total_qp = 0.0
    for b in q:
        total_qp += min(float(np.sum((b - a) ** 2)) for a in p)
    return total_pq / len(p) + total_qp / len(q)


def project_point_by_hand(
    point, azimuth_deg, elevation_deg, radius, fov_deg, height, width
):
    """Scalar-math pinhole projection: camera on the az/el sphere looking
    at the origin with +z up, vertical fov over `height` pixels, floor to
    integer (row, col). Returns (row, col, depth)."""
    az = math.radians(azimuth_deg)
    el = math.radians(elevation_deg)
    eye = (
        radius * math.cos(el) * math.cos(az),
        radius * math.cos(el) * math.sin(az),
        radius * math.sin(el),
    )
    fwd = tuple(-c / radius for c in eye)
    up = (0.0, 0.0, 1.0)
    right = (
        fwd[1] * up[2] - fwd[2] * up[1],
        fwd[2] * up[0] - fwd[0] * up[2],
        fwd[0] * up[1] - fwd[1] * up[0],
    )
    rn = math.sqrt(sum(c * c for c in right))
    right = tuple(c / rn for c in right)
    true_up = (
        right[1] * fwd[2] - right[2] * fwd[1],
        right[2] * fwd[0] - right[0] * fwd[2],
        right[0] * fwd[1] - right[1] * fwd[0],
    )
    rel = tuple(point[i] - eye[i] for i in range(3))
    x_cam = sum(rel[i] * right[i] for i in range(3))
    y_cam = sum(rel[i] * true_up[i] for i in range(3))
    depth = sum(rel[i] * fwd[i] for i in range(3))
    focal = (height / 2.0) / math.tan(math.radians(fov_deg) / 2.0)
    col = width / 2.0 + focal * x_cam / depth
    row = height / 2.0 - focal * y_cam / depth
    return math.floor(row), math.floor(col), depth


def read_metrics(path) -> list[dict]:
    """The rows of a metrics.tsv as dicts keyed by its header, parsed
    without the package's own reader."""
    with open(path) as fh:
        header, *rows = fh.read().splitlines()
    keys = header.split("\t")
    out = []
    for row in rows:
        fields = row.split("\t")
        assert len(fields) == len(keys), row
        out.append({k: int(v) if k == "step" else float(v) for k, v in zip(keys, fields)})
    return out
