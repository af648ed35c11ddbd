"""Transformer building blocks on the in-house autodiff substrate.

Everything here is expressed in the closed forward-op set (the fused
affine ops linear and layer_norm_affine, matmul, add, multi-head
attention over (L, C) projections, GELU) so the finite-difference
gradient gate covers the whole network.
Parameters are created through a registry that derives one rng stream
per parameter name, making initialization independent of construction
order.
"""

from __future__ import annotations

import numpy as np

from .autodiff import Parameter, Tensor, ops
from .errors import ContractViolation
from .rng import Rng


class ParamRegistry:
    """Creates and tracks named parameters for one model instance."""

    def __init__(self, rng: Rng):
        self._rng = rng
        self._params: dict[str, Parameter] = {}

    def _register(self, name: str, data: np.ndarray) -> Parameter:
        if name in self._params:
            raise ContractViolation(f"duplicate parameter name {name!r}")
        p = Parameter(data, name=name)
        self._params[name] = p
        return p

    def normal(self, name: str, shape: tuple[int, ...], std: float = 0.02) -> Parameter:
        data = self._rng.derive("init", name).normal(0.0, std, shape)
        return self._register(name, data)

    def zeros(self, name: str, shape: tuple[int, ...]) -> Parameter:
        return self._register(name, np.zeros(shape))

    def ones(self, name: str, shape: tuple[int, ...]) -> Parameter:
        return self._register(name, np.ones(shape))

    def params(self) -> dict[str, Parameter]:
        return dict(self._params)


class Linear:
    """Affine map on the last axis: y = x @ W + b, W is (d_in, d_out)."""

    def __init__(self, reg: ParamRegistry, name: str, d_in: int, d_out: int):
        self.weight = reg.normal(f"{name}.weight", (d_in, d_out))
        self.bias = reg.zeros(f"{name}.bias", (d_out,))

    def __call__(self, x: Tensor) -> Tensor:
        return ops.linear(x, self.weight, self.bias)


class LayerNormAffine:
    """Layer normalization over the last axis with learnable scale/shift."""

    def __init__(self, reg: ParamRegistry, name: str, dim: int):
        self.gamma = reg.ones(f"{name}.gamma", (dim,))
        self.beta = reg.zeros(f"{name}.beta", (dim,))

    def __call__(self, x: Tensor) -> Tensor:
        return ops.layer_norm_affine(x, self.gamma, self.beta)


class Mlp2:
    """Two affine layers with a GELU between them."""

    def __init__(self, reg: ParamRegistry, name: str, d_in: int, d_hidden: int, d_out: int):
        self.fc1 = Linear(reg, f"{name}.fc1", d_in, d_hidden)
        self.fc2 = Linear(reg, f"{name}.fc2", d_hidden, d_out)

    def __call__(self, x: Tensor) -> Tensor:
        return self.fc2(ops.gelu(self.fc1(x)))


class MultiheadSelfAttention:
    """Scaled dot-product self-attention over an (L, C) sequence. The key
    projection has no bias: softmax over keys ignores the per-row constant
    q·b_k it would add, so such a bias could never learn."""

    def __init__(self, reg: ParamRegistry, name: str, dim: int, heads: int):
        if dim % heads != 0:
            raise ContractViolation(f"width {dim} not divisible by {heads} heads")
        self.heads = heads
        self.wq = Linear(reg, f"{name}.wq", dim, dim)
        self.wk = reg.normal(f"{name}.wk.weight", (dim, dim))
        self.wv = Linear(reg, f"{name}.wv", dim, dim)
        self.wo = Linear(reg, f"{name}.wo", dim, dim)

    def __call__(self, x: Tensor) -> Tensor:
        return self.wo(ops.attention(self.wq(x), ops.matmul(x, self.wk), self.wv(x), self.heads))


class TransformerBlock:
    """Pre-norm block: x + attn(ln(x)), then x + mlp(ln(x)). MLP hidden 4x."""

    def __init__(self, reg: ParamRegistry, name: str, dim: int, heads: int):
        self.ln1 = LayerNormAffine(reg, f"{name}.ln1", dim)
        self.attn = MultiheadSelfAttention(reg, f"{name}.attn", dim, heads)
        self.ln2 = LayerNormAffine(reg, f"{name}.ln2", dim)
        self.mlp = Mlp2(reg, f"{name}.mlp", dim, 4 * dim, dim)

    def __call__(self, x: Tensor) -> Tensor:
        x = ops.add(x, self.attn(self.ln1(x)))
        return ops.add(x, self.mlp(self.ln2(x)))


def sincos_table_2d(h: int, w: int, dim: int) -> np.ndarray:
    """Fixed 2-D sinusoidal position table of shape (h*w, dim).

    Half the channels encode the row coordinate and half the column, each
    half split into interleaved sin/cos pairs with log-spaced frequencies.
    """
    if dim % 4 != 0:
        raise ContractViolation(f"sin-cos table width {dim} must be divisible by 4")
    half = dim // 2
    omega = 1.0 / 10000.0 ** (np.arange(half // 2, dtype=np.float64) / (half // 2))
    rows, cols = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")

    def encode(coord):
        angles = coord.reshape(-1)[:, None] * omega[None, :]
        return np.concatenate([np.sin(angles), np.cos(angles)], axis=1)

    table = np.concatenate([encode(rows), encode(cols)], axis=1)
    table.setflags(write=False)
    return table
