"""Forward ops with hand-written vector-Jacobian products.

The op set is closed and small: matmul and the fused affine map
`linear`, elementwise arithmetic with broadcasting, shape ops, row
gather (its adjoint is scatter-add), sum and max reductions, layer
normalization with its scale and shift (`layer_norm_affine`), GELU, and
four fused ops for the hot spots of a training step: multi-head scaled
dot-product attention on (L, heads * D) projections (heads split and
merged inside the node, which keeps the unnormalized attention maps and
their row sums for its adjoint, never the normalized maps), segment
max+mean pooling, the patch Chamfer loss and the mean squared error.
That is sufficient for the whole encoder/decoder and every loss. `mul`
and `sum_` have no caller in the model any more; they stay because the
benchmark's tests and the gradient tests build losses from them.
"""

from __future__ import annotations

import numpy as np
from scipy.special import erf

from ..errors import ContractViolation
from .tensor import Tensor, make_node

_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_INV_SQRT2PI = 1.0 / np.sqrt(2.0 * np.pi)
LAYER_NORM_EPS = 1e-6  # added to the variance before its square root


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
    a, b = as_tensor(a), as_tensor(b)
    out = a.data + b.data

    def vjp(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)

    return make_node(out, (a, b), vjp)


def mul(a: Tensor, b: Tensor) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
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
    every leading axis of a."""
    gb = a.reshape(-1, a.shape[-1]).T @ g.reshape(-1, g.shape[-1])
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


def transpose(a: Tensor, axes: tuple[int, ...]) -> Tensor:
    out = np.ascontiguousarray(a.data.transpose(axes))
    inverse = tuple(np.argsort(axes))

    def vjp(g):
        return (g.transpose(inverse),)

    return make_node(out, (a,), vjp)


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
    """Select rows along axis 0; indices may repeat (adjoint scatter-adds)."""
    idx = np.asarray(idx, dtype=np.intp)
    out = a.data[idx]

    def vjp(g):
        ga = np.zeros_like(a.data)
        np.add.at(ga, idx, g)
        return (ga,)

    return make_node(out, (a,), vjp)


def _norm_axis(axis, ndim):
    if axis is None:
        return None
    if isinstance(axis, int):
        axis = (axis,)
    return tuple(ax % ndim for ax in axis)


def sum_(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    axis = _norm_axis(axis, a.data.ndim)
    out = a.data.sum(axis=axis, keepdims=keepdims)

    def vjp(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
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
    """softmax(q k^T / sqrt(D)) v per head over (L, heads * D) operands, as
    one node that splits and merges the heads itself.

    The logits come from a scaled copy of q. The output is e v / S, with e
    the unnormalized map exp(logits - rowmax) and S its row sums, so the
    normalized map is never formed: the node keeps e and S for its
    adjoint."""
    shape = q.data.shape
    equal = {k.data.shape, v.data.shape} == {shape}
    if len(shape) != 2 or not equal or heads < 1 or shape[1] % heads:
        raise ContractViolation(
            f"attention needs equal 2-d q, k, v with a width divisible by {heads} "
            f"heads, got {shape}, {k.data.shape}, {v.data.shape}"
        )
    length, width = shape
    d = width // heads
    c = 1.0 / np.sqrt(d)
    qh, kh, vh = (
        np.ascontiguousarray(a.data.reshape(length, heads, d).transpose(1, 0, 2))
        for a in (q, k, v)
    )
    qs = qh * c  # a copy: with one head, qh is a view of q's data
    e = qs @ kh.swapaxes(-1, -2)
    e -= e.max(axis=-1, keepdims=True)
    np.exp(e, out=e)
    rowsum = e.sum(axis=-1, keepdims=True)
    out = e @ vh
    out /= rowsum

    def merge(a):  # (heads, L, D) -> (L, heads * D)
        return a.transpose(1, 0, 2).reshape(length, width)

    def vjp(g):
        # g / S carries the adjoint through the normalization, so e stands
        # in for the normalized map
        gn = g.reshape(length, heads, d).transpose(1, 0, 2) / rowsum
        gv = e.swapaxes(-1, -2) @ gn
        ge = gn @ vh.swapaxes(-1, -2)
        # the softmax row term rowsum(g * out) / S, an (L, D) product
        ge -= (gn * out).sum(axis=-1, keepdims=True)
        ge *= e
        gq = ge @ kh
        gq *= c
        return merge(gq), merge(ge.swapaxes(-1, -2) @ qs), merge(gv)

    return make_node(merge(out), (q, k, v), vjp)


def segment_pool(a: Tensor, idx, starts) -> Tensor:
    """Max plus mean of the rows a[idx] over consecutive segments.

    Segment j is idx[starts[j]:starts[j + 1]] (the last runs to the end);
    every segment must be non-empty, and members may repeat across
    segments. The max subgradient goes to the first maximal member.
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
    # position in rows of each segment's first maximum, per column (a NaN
    # is the maximum wherever it occurs, as with argmax)
    segment = np.repeat(np.arange(len(starts)), counts)
    hit = (rows == peak[segment]) | np.isnan(rows)
    position = np.where(hit, np.arange(len(idx))[:, None], len(idx))
    first = np.minimum.reduceat(position, starts, axis=0)
    columns = np.arange(rows.shape[1])

    def vjp(g):
        grows = (g / counts[:, None])[segment]
        grows[first, columns] += g
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
        np.add.at(gp, (patch, near_p), scatter)
        return (gp,)

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


def mse(a: Tensor, b: Tensor) -> Tensor:
    """Mean squared error over all elements; shapes must match exactly."""
    if a.data.shape != b.data.shape:
        raise ContractViolation(
            f"mse shape mismatch: {a.data.shape} vs {b.data.shape}"
        )
    d = a.data - b.data
    out = (d * d).mean()

    def vjp(g):
        # d * d reaches d twice: two equal adjoints, added
        t = (g / d.size) * d
        ga = t + t
        return ga, -ga

    return make_node(out, (a, b), vjp)
