"""Forward ops with hand-written vector-Jacobian products.

The op set is closed and small: matmul and the fused affine map
`linear`, elementwise arithmetic with broadcasting, reshape, row concat,
row gather (its adjoint is scatter-add), a whole-tensor sum, a max along one
axis, layer normalization with its scale and shift
(`layer_norm_affine`), GELU, and four fused ops for the hot spots of a
training step: multi-head scaled dot-product attention on (L, heads * D)
projections or a batch of them (heads split and merged inside the node,
which keeps the unnormalized attention maps and their row sums for its
adjoint, never the normalized maps, and shares a large map's heads
between two threads), segment max+mean pooling, and two losses against a
constant target array: the patch Chamfer loss and the mean squared error.
That is sufficient for the whole encoder/decoder and every loss. A
training step builds one more scalar from `mul` and `sum_`: sum(t * G)
of its batched front end's output t, whose backward hands t the gradient
G that its samples' decoders left (see `pipeline.step_gradients`).

The VJP of matmul and linear hands a large weight adjoint x^T g to the
same worker thread and returns its Future in the adjoint's place; nothing
in the sweep reads it, and `backward` resolves it as it folds the weight's terms.
"""

from __future__ import annotations

import contextvars
import os
import threading
from concurrent.futures import Future, ThreadPoolExecutor

import numpy as np
from scipy.special import erf

from ..errors import ContractViolation
from .tensor import Tensor, make_node

_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_INV_SQRT2PI = 1.0 / np.sqrt(2.0 * np.pi)
LAYER_NORM_EPS = 1e-6  # added to the variance before its square root


# attention shares its heads with the worker from this many entries in its
# (samples * heads, L, L) map on. Forward + VJP with 4 heads of width 16 on
# two cores read shared/inline 2.6-2.7 at L = 64 (16,384 entries), 1.4 at
# L = 128, 1.05-1.14 at L = 160, 0.85-0.94 at L = 192 (147,456) and
# 0.59-0.64 at L = 256. So the desk decoder (L = 256) shares its heads, and
# its encoder and feature extraction (L <= 64) do not.
_SPLIT_MIN_MAP = 1 << 17

# a weight adjoint x^T g goes to the worker from this many multiply-adds
# (rows * d_in * d_out) on: the desk decoder's projections and MLPs, its
# encoder's MLPs and its front end's second layers. A desk step gained less
# from 2^18 on, where each hand-off (tens of microseconds) outweighs the small
# product it moves, and from 2^22 on, which moves too few of them
_DEFER_MIN_PRODUCT = 1 << 20


def _new_worker() -> ThreadPoolExecutor | None:
    """The one worker, when this process may run on two CPUs or more; its
    thread starts at the first split."""
    if hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) >= 2:
        return ThreadPoolExecutor(max_workers=1)
    return None


def _renew_worker() -> None:
    # a forked child has no copy of the parent's thread, so the parent's
    # executor would queue its work forever
    global _WORKER
    _WORKER = _new_worker()


_WORKER = _new_worker()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_renew_worker)


def _submit(fn, *args) -> Future:
    """fn(*args) on the worker, in a copy of the caller's context: numpy's
    error state is a context variable, which a bare submit would leave
    behind."""
    return _WORKER.submit(contextvars.copy_context().run, fn, *args)


def _run_head_ranges(run, n: int, length: int) -> None:
    """run(0, n) over n heads of L x L maps or, for a large map, run(h, h + 1)
    for every head h, which this thread and the worker claim one at a time:
    a worker that starts late, or that the host slows, takes fewer heads.
    `run` may only call numpy and write its own heads' slices, so the bytes
    are those of run(0, n)."""
    if _WORKER is None or n < 2 or n * length * length < _SPLIT_MIN_MAP:
        run(0, n)
        return
    heads = iter(range(n))
    lock = threading.Lock()

    def claim():
        while True:
            with lock:
                h = next(heads, None)
            if h is None:
                return
            run(h, h + 1)

    other = _submit(claim)
    try:
        claim()
    finally:
        # a worker that has not started has no head left to claim
        if not other.cancel():
            other.result()


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum `grad` down to `shape` (inverse of numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    keep = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if keep:
        grad = grad.sum(axis=keep, keepdims=True)
    return grad


def add(a: Tensor, b: Tensor) -> Tensor:
    out = a.data + b.data

    def vjp(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)

    return make_node(out, (a, b), vjp)


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = a.data * b.data

    def vjp(g):
        return (
            _unbroadcast(g * b.data, a.data.shape),
            _unbroadcast(g * a.data, b.data.shape),
        )

    return make_node(out, (a, b), vjp)


def scale(a: Tensor, c: float) -> Tensor:
    out = a.data * c

    def vjp(g):
        return (g * c,)

    return make_node(out, (a,), vjp)


def _matmul_grads(a: np.ndarray, b: np.ndarray, g: np.ndarray):
    """Adjoints of a @ b for a 2-d b; the weight grad accumulates over
    every leading axis of a. A large weight grad is a Future of the same
    product on the worker."""
    a2, g2 = a.reshape(-1, a.shape[-1]), g.reshape(-1, g.shape[-1])
    if _WORKER is not None and a2.size * g2.shape[1] >= _DEFER_MIN_PRODUCT:
        gb = _submit(np.matmul, a2.T, g2)  # before g @ b.T, so the two overlap
    else:
        gb = a2.T @ g2
    return g @ b.T, gb


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """(..., d_in) @ (d_in, d_out): a linear map applied over every leading
    axis of the left operand."""
    if b.data.ndim != 2:
        raise ContractViolation(f"matmul needs a 2-d right operand, got {b.data.shape}")
    out = a.data @ b.data

    def vjp(g):
        return _matmul_grads(a.data, b.data, g)

    return make_node(out, (a, b), vjp)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b over every leading axis of x, as one node: the same bytes
    as matmul followed by add."""
    if w.data.ndim != 2 or b.data.shape != w.data.shape[1:]:
        raise ContractViolation(
            f"linear needs a 2-d weight and a matching bias, got {w.data.shape} "
            f"and {b.data.shape}"
        )
    out = x.data @ w.data
    out += b.data

    def vjp(g):
        return (*_matmul_grads(x.data, w.data, g), _unbroadcast(g, b.data.shape))

    return make_node(out, (x, w, b), vjp)


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    out = a.data.reshape(shape)

    def vjp(g):
        return (g.reshape(a.data.shape),)

    return make_node(out, (a,), vjp)


def concat(tensors: list[Tensor]) -> Tensor:
    """Stack the tensors' rows (axis 0)."""
    out = np.concatenate([t.data for t in tensors])
    splits = np.cumsum([len(t.data) for t in tensors])[:-1]

    def vjp(g):
        return tuple(np.split(g, splits))

    return make_node(out, tuple(tensors), vjp)


def gather_rows(a: Tensor, idx) -> Tensor:
    """Select rows along axis 0; indices may repeat (adjoint scatter-adds).
    An integer index selects one row and drops the axis."""
    idx = np.asarray(idx, dtype=np.intp)
    out = a.data[idx]

    def vjp(g):
        ga = np.zeros_like(a.data)
        np.add.at(ga, idx, g)
        return (ga,)

    return make_node(out, (a,), vjp)


def sum_(a: Tensor) -> Tensor:
    out = a.data.sum()

    def vjp(g):
        return (np.broadcast_to(g, a.data.shape),)

    return make_node(out, (a,), vjp)


def max_(a: Tensor, axis: int) -> Tensor:
    axis = axis % a.data.ndim
    out = np.max(a.data, axis=axis)

    def vjp(g):
        # subgradient routed to the first maximum along the axis
        # (deterministic), found here so a no_grad forward skips it; a.data
        # still holds the forward's input, as nothing writes into an input
        # between the forward and the backward
        sel = np.argmax(a.data, axis=axis, keepdims=True)
        ga = np.zeros_like(a.data)
        np.put_along_axis(ga, sel, np.expand_dims(g, axis), axis=axis)
        return (ga,)

    return make_node(out, (a,), vjp)


def attention(q: Tensor, k: Tensor, v: Tensor, heads: int) -> Tensor:
    """softmax(q k^T / sqrt(D)) v per head over (L, heads * D) operands, or
    over a (B, L, heads * D) batch of them, as one node that splits and
    merges the heads itself.

    The logits come from a scaled copy of q. The output is e v / S, with e
    the unnormalized map exp(logits - rowmax) and S its row sums, so the
    normalized map is never formed: the node keeps e and S for its
    adjoint. Every matmul runs per (sample, head), so each row of a batch
    is the bytes of its own 2-d call.

    The forward and the VJP each run over ranges of the flattened (sample,
    head) axis, writing only their own slices of the map, row-sum, output
    and adjoint arrays. A large map's heads are shared between two threads
    (see _run_head_ranges); the per-head arithmetic, and so every byte, is
    the same as on one."""
    shape = q.data.shape
    equal = {k.data.shape, v.data.shape} == {shape}
    if len(shape) not in (2, 3) or not equal or heads < 1 or shape[-1] % heads:
        raise ContractViolation(
            f"attention needs equal 2-d or 3-d q, k, v with a width divisible by {heads} "
            f"heads, got {shape}, {k.data.shape}, {v.data.shape}"
        )
    length, d = shape[-2], shape[-1] // heads
    n = q.data.size // (length * d)  # samples * heads
    split_shape = (*shape[:-1], heads, d)  # (..., L, heads, D)
    heads_shape = (*shape[:-2], heads, length, d)
    c = 1.0 / np.sqrt(d)

    def split(a):  # (..., L, heads * D) -> (..., heads, L, D)
        return a.reshape(split_shape).swapaxes(-2, -3)

    def merge(a):  # (..., heads, L, D) -> (..., L, heads * D)
        return a.reshape(heads_shape).swapaxes(-2, -3).reshape(shape)

    def flat(a):  # (..., heads, L, X) -> (samples * heads, L, X), a view if it can
        return a.reshape(n, length, a.shape[-1])

    qh, kh, vh = (flat(np.ascontiguousarray(split(a.data))) for a in (q, k, v))
    qs = qh * c  # a copy: with one head, qh is a view of q's data
    e = np.empty((n, length, length))
    rowsum = np.empty((n, length, 1))
    out = np.empty_like(qs)

    def forward_heads(lo, hi):
        e_r, s_r = e[lo:hi], rowsum[lo:hi]
        np.matmul(qs[lo:hi], kh[lo:hi].swapaxes(-1, -2), out=e_r)
        e_r.max(axis=-1, keepdims=True, out=s_r)
        e_r -= s_r
        np.exp(e_r, out=e_r)
        e_r.sum(axis=-1, keepdims=True, out=s_r)
        out_r = np.matmul(e_r, vh[lo:hi], out=out[lo:hi])
        out_r /= s_r

    _run_head_ranges(forward_heads, n, length)

    def vjp(g):
        # g / S carries the adjoint through the normalization, so e stands
        # in for the normalized map
        gn = flat(split(g) / rowsum.reshape(*heads_shape[:-1], 1))
        gq, gk, gv = (np.empty_like(qs) for _ in range(3))

        def vjp_heads(lo, hi):
            gn_r, e_r = gn[lo:hi], e[lo:hi]
            np.matmul(e_r.swapaxes(-1, -2), gn_r, out=gv[lo:hi])
            ge = gn_r @ vh[lo:hi].swapaxes(-1, -2)
            # the softmax row term rowsum(g * out) / S, an (L, D) product
            ge -= (gn_r * out[lo:hi]).sum(axis=-1, keepdims=True)
            ge *= e_r
            gq_r = np.matmul(ge, kh[lo:hi], out=gq[lo:hi])
            gq_r *= c
            np.matmul(ge.swapaxes(-1, -2), qs[lo:hi], out=gk[lo:hi])

        _run_head_ranges(vjp_heads, n, length)
        return merge(gq), merge(gk), merge(gv)

    return make_node(merge(out), (q, k, v), vjp)


def segment_pool(a: Tensor, idx, starts) -> Tensor:
    """Max plus mean of the rows a[idx] over consecutive segments.

    Segment j is idx[starts[j]:starts[j + 1]] (the last runs to the end);
    every segment must be non-empty, and members may repeat across
    segments. The rows are finite: a non-finite loss aborts its step before
    any backward (`model.total_loss`), so no VJP sees a NaN. The max
    subgradient goes to the first maximal member.
    """
    idx = np.asarray(idx, dtype=np.intp)
    starts = np.asarray(starts, dtype=np.intp)
    bounds = np.append(starts, len(idx))
    counts = np.diff(bounds)
    if bounds[0] != 0 or np.any(counts < 1):
        raise ContractViolation("segments must start at 0 and be non-empty")
    rows = a.data[idx]
    peak = np.maximum.reduceat(rows, starts, axis=0)
    out = peak + np.add.reduceat(rows, starts, axis=0) / counts[:, None]

    def vjp(g):
        # position in rows of each segment's first maximum, per column,
        # found here so a no_grad forward skips it
        segment = np.repeat(np.arange(len(starts)), counts)
        position = np.where(rows == peak[segment], np.arange(len(idx))[:, None], len(idx))
        first = np.minimum.reduceat(position, starts, axis=0)
        grows = (g / counts[:, None])[segment]
        grows[first, np.arange(rows.shape[1])] += g
        ga = np.zeros_like(a.data)
        np.add.at(ga, idx, grows)
        return (ga,)

    return make_node(out, (a,), vjp)


def chamfer(pred: Tensor, target: np.ndarray) -> Tensor:
    """Mean over M patches of the symmetric squared Chamfer distance between
    (M, A, 3) predictions and a constant (M, B, 3) target: the mean squared
    distance to the nearest point on the other side, summed over both
    sides. Subgradients go to the first nearest point."""
    p = pred.data
    if not (p.ndim == target.ndim == 3 and p.shape[::2] == target.shape[::2] == (len(p), 3)):
        raise ContractViolation(
            f"chamfer needs (M, A, 3) predictions and an (M, B, 3) target, "
            f"got {p.shape} and {target.shape}"
        )
    m, a, b = p.shape[0], p.shape[1], target.shape[1]
    # summed one coordinate at a time on (M, A, B) planes: x, then y, then
    # z, the order of a sum over a trailing axis of 3
    d2 = np.zeros((m, a, b))
    for pc, tc in zip(np.moveaxis(p, -1, 0), np.moveaxis(target, -1, 0)):
        d = pc[:, :, None] - tc[:, None, :]
        d *= d
        d2 += d
    near_q = d2.argmin(axis=2)  # (M, A): nearest target point of each p
    near_p = d2.argmin(axis=1)  # (M, B): nearest predicted point of each q
    side_p = d2.min(axis=2).mean(axis=1)
    side_q = d2.min(axis=1).mean(axis=1)
    out = (side_p + side_q).mean()
    patch = np.arange(m)[:, None]

    def vjp(g):
        gp = 2.0 * ((g / m / a) * (p - target[patch, near_q]))
        scatter = 2.0 * ((g / m / b) * (p[patch, near_p] - target))
        # each target point's term goes to its nearest predicted point's
        # coordinates, through flat indices: a 1-d index is ufunc.at's fast
        # path, and the terms are added in the same order
        flat = ((patch * a + near_p)[..., None] * 3 + np.arange(3)).reshape(-1)
        gp_flat = gp.reshape(-1)
        np.add.at(gp_flat, flat, scatter.reshape(-1))
        return (gp_flat.reshape(p.shape),)

    return make_node(out, (pred,), vjp)


def layer_norm_affine(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then scale by
    gamma and shift by beta, as one node: the same bytes as a bare
    normalization followed by mul and add."""
    width = x.data.shape[-1]

    def mean(a):  # what a.mean(axis=-1, keepdims=True) computes, unwrapped
        return np.add.reduce(a, axis=-1, keepdims=True) / width

    xc = x.data - mean(x.data)
    inv = 1.0 / np.sqrt(mean(xc * xc) + LAYER_NORM_EPS)
    xn = xc * inv
    out = xn * gamma.data
    out += beta.data

    def vjp(g):
        gxn = g * gamma.data
        gx = inv * (gxn - mean(gxn) - xn * mean(gxn * xn))
        return gx, _unbroadcast(g * xn, gamma.data.shape), _unbroadcast(g, beta.data.shape)

    return make_node(out, (x, gamma, beta), vjp)


def gelu(a: Tensor) -> Tensor:
    """Exact erf-based GELU (smooth everywhere, so FD checks are clean)."""
    x = a.data
    cdf = 0.5 * (1.0 + erf(x * _INV_SQRT2))
    out = x * cdf

    def vjp(g):
        pdf = _INV_SQRT2PI * np.exp(-0.5 * x * x)
        return (g * (cdf + x * pdf),)

    return make_node(out, (a,), vjp)


def mse(a: Tensor, target: np.ndarray) -> Tensor:
    """Mean squared error over all elements between a and a constant target
    array; shapes must match exactly."""
    if a.data.shape != target.shape:
        raise ContractViolation(f"mse shape mismatch: {a.data.shape} vs {target.shape}")
    d = a.data - target
    out = (d * d).mean()

    def vjp(g):
        # d * d reaches d twice: two equal adjoints, added
        t = (g / d.size) * d
        return (t + t,)

    return make_node(out, (a,), vjp)
