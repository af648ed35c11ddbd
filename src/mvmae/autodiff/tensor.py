"""Reverse-mode autodiff over dense float64 arrays.

A Tensor wraps a numpy array plus an optional gradient buffer and a
closure that maps the output adjoint to parent adjoints. Graphs are
plain DAGs built eagerly by the ops module; `backward` runs a single
topological sweep. Everything is float64 and single-threaded by design:
determinism is a contract here, not an aspiration.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from ..errors import ContractViolation

_grad_enabled = True


@contextmanager
def no_grad():
    """Disable graph recording inside the block (forward values only)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


class Tensor:
    __slots__ = ("data", "requires_grad", "grad", "_parents", "_vjp")

    def __init__(self, data, requires_grad: bool = False):
        # note: ascontiguousarray would promote 0-d arrays to 1-d
        self.data = np.asarray(data, dtype=np.float64, order="C")
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._vjp = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def zero_grad(self) -> None:
        self.grad = np.zeros_like(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


class Parameter(Tensor):
    """A named trainable leaf. Names are unique within a model."""

    __slots__ = ("name", "trainable")

    def __init__(self, data, name: str, trainable: bool = True):
        super().__init__(data, requires_grad=True)
        self.name = name
        self.trainable = trainable

    def __repr__(self):
        return f"Parameter({self.name!r}, shape={self.shape})"


def make_node(data: np.ndarray, parents: tuple[Tensor, ...], vjp) -> Tensor:
    """Internal: build a graph node. Records parents only when grad is on
    and some parent requires it."""
    out = Tensor(data)
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._vjp = vjp
    return out


def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(leaf) into .grad of every reachable leaf.

    The loss must be scalar. Leaves touched by the graph get their grad
    buffer created (or added to) here; leaves the caller zeroed but the
    graph never reached keep their zeros, which is the documented
    "unreachable means zero gradient" contract.
    """
    if loss.data.shape != ():
        raise ContractViolation(
            f"backward needs a scalar loss, got shape {loss.data.shape}"
        )
    if not loss.requires_grad:
        return

    topo: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in visited:
                stack.append((p, False))

    grads: dict[int, np.ndarray] = {id(loss): np.ones((), dtype=np.float64)}
    for node in reversed(topo):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if node._vjp is None:
            # leaf: publish the accumulated adjoint
            if node.grad is None:
                node.grad = np.array(g, dtype=np.float64, copy=True)
            else:
                node.grad += g
            continue
        for parent, pg in zip(node._parents, node._vjp(g)):
            if pg is None or not parent.requires_grad:
                continue
            acc = grads.get(id(parent))
            if acc is None:
                grads[id(parent)] = np.array(pg, dtype=np.float64, copy=True)
            else:
                acc += pg
