"""Independent oracles shared by the test suite.

Everything here is deliberately naive (loops, exhaustive scans) and kept
free of the library's own kernels so a bug cannot hide on both sides of
a comparison. The per-sample training step at the end is the exception:
it is the step as it ran before the front ends of a step's samples were
batched, built from the model's own layers, one sample at a time.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
from scipy.special import erf

from mvmae.autodiff import Tensor, backward, ops
from mvmae.model import loss_from_plan


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


def attention_by_normalized_map(q, k, v, heads, g):
    """Multi-head softmax(q k^T / sqrt(D)) v over (L, heads * D) arrays and
    its adjoints for an incoming adjoint g, through the normalized map
    P: out = P v, and the softmax adjoint P * (gP - rowsum(gP * P)) with
    gP = g v^T. Returns (out, gq, gk, gv), each (L, heads * D)."""
    length, width = q.shape
    d = width // heads

    def split(a):
        return a.reshape(length, heads, d).transpose(1, 0, 2)

    def merge(a):
        return a.transpose(1, 0, 2).reshape(length, width)

    qh, kh, vh, gh = map(split, (q, k, v, g))
    c = 1.0 / math.sqrt(d)
    logits = c * (qh @ kh.swapaxes(-1, -2))
    p = np.exp(logits - logits.max(axis=-1, keepdims=True))
    p /= p.sum(axis=-1, keepdims=True)
    out = p @ vh
    gp = gh @ vh.swapaxes(-1, -2)
    gs = c * p * (gp - (gp * p).sum(axis=-1, keepdims=True))
    return merge(out), merge(gs @ kh), merge(gs.swapaxes(-1, -2) @ qh), merge(
        p.swapaxes(-1, -2) @ gh
    )


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
    """The rows of a metrics.tsv as dicts keyed by its header."""
    with open(path) as fh:
        header, *rows = fh.read().splitlines()
    keys = header.split("\t")
    out = []
    for row in rows:
        fields = row.split("\t")
        assert len(fields) == len(keys), row
        out.append({k: int(v) if k == "step" else float(v) for k, v in zip(keys, fields)})
    return out


def read_pgm(path) -> np.ndarray:
    """A depth image the package wrote, as floats in [0, 1]. Parses only
    the header write_pgm emits: lines "P5", "{w} {h}" and "65535"."""
    with open(path, "rb") as fh:
        magic, size, maxval, raster = fh.read().split(b"\n", 3)
    assert (magic, maxval) == (b"P5", b"65535"), (magic, maxval)
    w, h = (int(v) for v in size.split(b" "))
    assert len(raster) == 2 * w * h, (len(raster), w, h)
    return np.frombuffer(raster, dtype=">u2").reshape(h, w) / 65535.0


def checkpoint_by_join(config, params, opt, bookkeeping) -> bytes:
    """The bytes of a format-2 checkpoint, built as the first writer built
    them: every field and array copied out with `tobytes`, then one
    `b"".join` of them all."""
    chunks = []

    def sized(data):
        chunks.extend([struct.pack("<I", len(data)), data])

    def record(name, values):
        sized(name.encode("utf-8"))
        chunks.append(struct.pack("<BI", 0, values.ndim))
        chunks.extend(struct.pack("<Q", dim) for dim in values.shape)
        chunks.append(np.asarray(values, dtype="<f8").tobytes(order="C"))

    chunks.extend([b"MVMAE\x00", struct.pack("<I", 2)])
    sized(config.canonical_json().encode("utf-8"))
    chunks.append(struct.pack("<I", len(params)))
    for name in sorted(params):
        record(name, params[name])
    chunks.append(struct.pack("<I", len(opt.m)))
    for name in sorted(opt.m):
        record(name, opt.m[name])
        record(name, opt.v[name])
    chunks.append(struct.pack("<Q", opt.step))
    sized(json.dumps(bookkeeping, sort_keys=True, separators=(",", ":")).encode("utf-8"))
    return b"".join(chunks)


def param_fingerprint(params: dict) -> str:
    """sha256 over the names and float64 bytes of a model's parameters."""
    digest = hashlib.sha256()
    for name in sorted(params):
        digest.update(name.encode("utf-8"))
        digest.update(np.ascontiguousarray(params[name].data, dtype="<f8").tobytes())
    return digest.hexdigest()


# --- the synthetic corpus, as first written -------------------------------
# Per-column writes, np.linalg.norm and an eager generator per stream: the
# corpus bytes that data.make_dataset must keep reproducing.


class EagerRng:
    """The package's Rng with its generator built at construction."""

    def __init__(self, seed: int):
        self.seed = int(seed) & (2**64 - 1)
        self._gen = np.random.Generator(np.random.PCG64(self.seed))

    def derive(self, *keys) -> "EagerRng":
        material = repr((self.seed,) + keys).encode("utf-8")
        digest = hashlib.blake2s(material).digest()
        return EagerRng(int.from_bytes(digest[:8], "little"))

    def uniform(self, low=0.0, high=1.0, size=None):
        return self._gen.uniform(low, high, size=size)

    def normal(self, loc=0.0, scale=1.0, size=None):
        return self._gen.normal(loc, scale, size=size)

    def integers(self, low, high, size=None):
        return self._gen.integers(low, high, size=size)


def _sphere_by_columns(rng, n, params):
    radius = params.get("radius", 1.0)
    half = (n + 1) // 2
    v = rng.normal(0.0, 1.0, (half, 3))
    v = radius * v / np.linalg.norm(v, axis=1, keepdims=True)
    return np.concatenate([v, -v], axis=0)[:n]


def _cube_by_columns(rng, n, params):
    half = params.get("side", 2.0) / 2.0
    face = rng.integers(0, 6, n)
    uv = rng.uniform(-half, half, (n, 2))
    pts = np.empty((n, 3))
    axis = face // 2
    sign = np.where(face % 2 == 0, half, -half)
    for a in range(3):
        rows = axis == a
        others = [i for i in range(3) if i != a]
        pts[rows, a] = sign[rows]
        pts[np.ix_(rows, others)] = uv[rows]
    return pts


def _torus_by_columns(rng, n, params):
    ring = params.get("ring_radius", 1.0)
    tube = params.get("tube_radius", 0.3)
    pts = np.empty((n, 3))
    done = 0
    while done < n:
        batch = 2 * (n - done) + 16
        theta = rng.uniform(0.0, 2.0 * math.pi, batch)
        keep = rng.uniform(0.0, 1.0, batch) < (ring + tube * np.cos(theta)) / (
            ring + tube
        )
        theta = theta[keep][: n - done]
        phi = rng.uniform(0.0, 2.0 * math.pi, len(theta))
        ring_dist = ring + tube * np.cos(theta)
        pts[done : done + len(theta), 0] = ring_dist * np.cos(phi)
        pts[done : done + len(theta), 1] = ring_dist * np.sin(phi)
        pts[done : done + len(theta), 2] = tube * np.sin(theta)
        done += len(theta)
    return pts


def _disk_by_columns(rng, n, radius):
    r = radius * np.sqrt(rng.uniform(0.0, 1.0, n))
    phi = rng.uniform(0.0, 2.0 * math.pi, n)
    return np.stack([r * np.cos(phi), r * np.sin(phi)], axis=1)


def _cylinder_by_columns(rng, n, params):
    radius = params.get("radius", 0.5)
    height = params.get("height", 1.5)
    side_area = 2.0 * math.pi * radius * height
    cap_area = math.pi * radius**2
    u = rng.uniform(0.0, side_area + 2.0 * cap_area, n)
    pts = np.empty((n, 3))
    on_side = u < side_area
    phi = rng.uniform(0.0, 2.0 * math.pi, int(on_side.sum()))
    pts[on_side, 0] = radius * np.cos(phi)
    pts[on_side, 1] = radius * np.sin(phi)
    pts[on_side, 2] = rng.uniform(-height / 2.0, height / 2.0, int(on_side.sum()))
    disk = _disk_by_columns(rng, int((~on_side).sum()), radius)
    top = u[~on_side] < side_area + cap_area
    pts[~on_side, 0] = disk[:, 0]
    pts[~on_side, 1] = disk[:, 1]
    pts[~on_side, 2] = np.where(top, height / 2.0, -height / 2.0)
    return pts


def _cone_by_columns(rng, n, params):
    radius = params.get("radius", 0.7)
    height = params.get("height", 1.4)
    lateral_area = math.pi * radius * math.hypot(radius, height)
    u = rng.uniform(0.0, lateral_area + math.pi * radius**2, n)
    pts = np.empty((n, 3))
    on_lateral = u < lateral_area
    n_lat = int(on_lateral.sum())
    s = np.sqrt(rng.uniform(0.0, 1.0, n_lat))
    phi = rng.uniform(0.0, 2.0 * math.pi, n_lat)
    pts[on_lateral, 0] = s * radius * np.cos(phi)
    pts[on_lateral, 1] = s * radius * np.sin(phi)
    pts[on_lateral, 2] = height * (1.0 - s)
    disk = _disk_by_columns(rng, n - n_lat, radius)
    pts[~on_lateral, 0] = disk[:, 0]
    pts[~on_lateral, 1] = disk[:, 1]
    pts[~on_lateral, 2] = 0.0
    return pts


SAMPLERS_BY_COLUMNS = {
    "sphere": _sphere_by_columns,
    "cube": _cube_by_columns,
    "torus": _torus_by_columns,
    "cylinder": _cylinder_by_columns,
    "cone": _cone_by_columns,
}


def normalize_by_rows(points: np.ndarray) -> np.ndarray:
    """Center (flat axes on their common value) and scale to max norm 1."""
    flat = (points == points[0]).all(axis=0)
    centered = points - np.where(flat, points[0], points.mean(axis=0))
    radius = float(np.linalg.norm(centered, axis=1).max())
    if radius < 1e-30:
        return np.zeros_like(centered)
    return centered / radius


def _rotation_of(q):
    w, x, y, z = q / np.linalg.norm(q)
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def shape_by_columns(kind: str, n_points: int, seed: int, params: dict) -> np.ndarray:
    """The points data.generate_shape gave for the same shape."""
    rng = EagerRng(seed).derive("shape", kind)
    pts = SAMPLERS_BY_COLUMNS[kind](rng, n_points, params)
    jitter = params.get("jitter", 0.0)
    if jitter > 0.0:
        pts = pts + rng.normal(0.0, jitter, pts.shape)
    orientation = params.get("orientation")
    if orientation is not None:
        pts = pts @ _rotation_of(np.asarray(orientation)).T
    return normalize_by_rows(pts)


def _params_by_columns(kind: str, rng) -> dict:
    jitter = float(rng.uniform(0.0, 0.03))
    q = rng.derive("orientation").normal(0.0, 1.0, 4)
    base = {"jitter": jitter, "orientation": tuple(float(v) for v in q / np.linalg.norm(q))}
    if kind == "torus":
        return {"ring_radius": 1.0, "tube_radius": float(rng.uniform(0.15, 0.45)), **base}
    if kind == "cylinder":
        return {"radius": 0.5, "height": float(rng.uniform(0.5, 2.5)), **base}
    if kind == "cone":
        return {"radius": 0.7, "height": float(rng.uniform(0.56, 1.75)), **base}
    return base


def dataset_by_columns(cfg, kinds) -> list[tuple[np.ndarray, int, str]]:
    """(points, label, source_id) of each cloud data.make_dataset gave."""
    root = EagerRng(cfg.dataset_seed)
    out = []
    for label, kind in enumerate(kinds[: cfg.n_classes]):
        for j in range(cfg.instances_per_class):
            item = root.derive("item", kind, j)
            seed = item.derive("sample").seed
            params = _params_by_columns(kind, item.derive("params"))
            points = shape_by_columns(kind, cfg.n_points, seed, params)
            out.append((points, label, f"{kind}:{seed}"))
    return out


class StartedWorker(ThreadPoolExecutor):
    """The ops worker, counting its tasks. `submit` returns once the task
    has started, so the worker takes part in every split: a task that has
    not started would be cancelled once the caller's thread has run every
    head itself."""

    def __init__(self):
        super().__init__(max_workers=1)
        self.tasks = 0

    def submit(self, fn, *args):
        started = threading.Event()

        def task():
            started.set()
            return fn(*args)

        self.tasks += 1
        future = super().submit(task)
        assert started.wait(timeout=60)
        return future


def traced_peak(fn) -> int:
    """Bytes that tracemalloc saw allocated at the peak of `fn()`."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


# --- the training step, one sample at a time ------------------------------


def per_sample_front_end(model, plan):
    """One plan's (n_visible, C) encoder outputs and (n, C) position
    embeddings, from a front end that sees that plan alone."""
    pos_all = model.pos3d(Tensor(plan.patches.centers))
    tokens = model.patch_embed(Tensor(plan.patches.patches[plan.mask.visible_idx]))
    return model.encode(tokens, ops.gather_rows(pos_all, plan.mask.visible_idx)), pos_all


def per_sample_loss(model, plan):
    """loss_from_plan's (loss, reconstruction, diagnostics) for one plan,
    with its whole forward, front end included, in one graph."""
    return loss_from_plan(model, plan, *per_sample_front_end(model, plan))


def per_sample_gradients(model, plans, weight) -> dict:
    """weight * the summed parameter gradients of the plans' losses, from
    one whole forward and backward per plan."""
    for p in model.params.values():
        p.grad = None
    for plan in plans:
        backward(ops.scale(per_sample_loss(model, plan)[0], weight))
    return {name: p.grad.copy() for name, p in model.params.items()}
