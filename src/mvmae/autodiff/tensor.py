"""Reverse-mode autodiff over dense float64 arrays.

A Tensor wraps a numpy array plus an optional gradient buffer and a
closure that maps the output adjoint to parent adjoints. Graphs are
plain DAGs built eagerly by the ops module; `backward` runs a single
topological sweep, in which a node's adjoint is the left fold of its
terms in the order the sweep binds them. Everything is float64, and
determinism is a contract here, not an aspiration: an op may split its
work across threads only into disjoint slices of its outputs, each
computed with the same per-element arithmetic as the whole, so no byte
depends on the number of cores (ops.attention splits a large map's heads
this way). An op may also hand a whole product to the worker and return
its Future as an adjoint (ops.linear and ops.matmul do this with a large
weight adjoint): the Future is a term like any other, resolved when its
node is folded and added where the inline product would be.

A graph is consumed by its backward: each interior node drops its parents
and its closure (and with them the arrays the forward saved) once its VJP
has run. A second backward through a consumed node raises
ContractViolation; run the forward again to get a fresh graph.
"""

from __future__ import annotations

import operator
from concurrent.futures import Future
from contextlib import contextmanager
from functools import reduce

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

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


class Parameter(Tensor):
    """A named trainable leaf. Names are unique within a model."""

    __slots__ = ("name",)

    def __init__(self, data, name: str):
        super().__init__(data, requires_grad=True)
        self.name = name

    def __repr__(self):
        return f"Parameter({self.name!r}, shape={self.shape})"


# the VJP of a node that a backward has consumed: not None, so the node
# never passes for a leaf
_CONSUMED = object()


def make_node(data: np.ndarray, parents: tuple[Tensor, ...], vjp) -> Tensor:
    """Internal: build a graph node. Records parents only when grad is on
    and some parent requires it."""
    out = Tensor(data)
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._vjp = vjp
    return out


def _fold(terms: list) -> np.ndarray:
    """A node's adjoint: its terms, any Future resolved, added left to right
    out of place, since a VJP may return its own adjoint or a view of it."""
    return reduce(operator.add, [t.result() if isinstance(t, Future) else t for t in terms])


def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(leaf) into .grad of every reachable leaf.

    The loss must be scalar. Leaves touched by the graph get their grad
    buffer created (or added to) here; leaves the caller zeroed but the
    graph never reached keep their zeros, which is the documented
    "unreachable means zero gradient" contract.

    A node's adjoint, leaf or interior, is the left fold of its terms in
    the order the sweep binds them: an interior node's just before its VJP
    runs, every leaf's after the sweep.

    The graph is consumed: each interior node releases its parents and VJP
    closure as soon as that VJP has run, so the forward's saved arrays are
    freed during the sweep. Backward through a graph that an earlier
    backward consumed raises ContractViolation before any grad changes;
    rebuild the graph by running the forward again. No grad changes either
    when a VJP, or a product it handed to the worker, raises: grads are
    published only after the sweep.
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
        if node._vjp is _CONSUMED:
            raise ContractViolation(
                "backward through a graph that an earlier backward consumed; "
                "rebuild the graph by running the forward again"
            )
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in visited:
                stack.append((p, False))

    # each node's terms, arrays or the worker's Futures, in bind order
    grads: dict[int, list] = {id(loss): [np.ones((), dtype=np.float64)]}
    leaves: list[tuple[Tensor, list]] = []
    # popping drops the list's reference, so a node whose children have run
    # is freed once its own VJP has run
    while topo:
        node = topo.pop()
        # a child that has run reached this node, so its terms are pending
        terms = grads.pop(id(node))
        parents, vjp = node._parents, node._vjp
        if vjp is None:
            leaves.append((node, terms))
            continue
        node._parents, node._vjp = (), _CONSUMED
        for parent, pg in zip(parents, vjp(_fold(terms))):
            if parent.requires_grad:
                grads.setdefault(id(parent), []).append(pg)

    # every leaf is folded before any grad is published, so a product that
    # raised on the worker leaves every grad as it was
    sums = [_fold(terms) for _, terms in leaves]
    for (leaf, _), g in zip(leaves, sums):
        # publish the adjoint in a buffer of its own
        if leaf.grad is None:
            leaf.grad = np.array(g, dtype=np.float64, copy=True)
        else:
            leaf.grad += g
