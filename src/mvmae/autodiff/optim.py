"""AdamW with decoupled weight decay, plus the cosine learning-rate schedule."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..errors import ContractViolation
from .tensor import Parameter


@dataclass
class AdamWState:
    """Per-parameter moments plus the update hyperparameters.

    The schedule owns the effective learning rate; `lr` here is the base
    rate recorded for checkpointing.
    """

    lr: float = 2e-4
    betas: tuple[float, float] = (0.9, 0.999)
    eps: float = 1e-8
    weight_decay: float = 0.05
    step: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)


def adamw_step(params: dict[str, Parameter], state: AdamWState, lr: float) -> None:
    """One decoupled-weight-decay Adam update, in place.

    Decay multiplies the pre-update parameter (p -= lr*wd*p), independent
    of the moment-based step; moments use the standard bias correction.
    """
    if lr < 0:
        raise ContractViolation(f"lr must be non-negative, got {lr}")
    b1, b2 = state.betas
    state.step += 1
    t = state.step
    c1 = 1.0 - b1**t
    c2 = 1.0 - b2**t
    for name, p in params.items():
        g = p.grad
        if g is None:
            raise ContractViolation(f"parameter {name} has no gradient")
        if g.shape != p.data.shape:
            raise ContractViolation(
                f"gradient shape {g.shape} != parameter shape {p.data.shape} "
                f"for {name}"
            )
        m = state.m.get(name)
        if m is None:
            m = state.m[name] = np.zeros_like(p.data)
            state.v[name] = np.zeros_like(p.data)
        v = state.v[name]
        decay = lr * state.weight_decay * p.data
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * (g * g)
        update = lr * (m / c1) / (np.sqrt(v / c2) + state.eps)
        p.data -= decay
        p.data -= update


def cosine_lr(
    step: int,
    total_steps: int,
    lr0: float,
    lr_min: float = 0.0,
    warmup_steps: int = 0,
) -> float:
    """Linear warmup to lr0, then half-cosine decay to lr_min."""
    if total_steps <= 0:
        raise ContractViolation("total_steps must be positive")
    if not 0 <= step <= total_steps:
        raise ContractViolation(f"step {step} outside [0, {total_steps}]")
    if not 0 <= warmup_steps < total_steps:
        raise ContractViolation(
            f"warmup_steps {warmup_steps} must be in [0, total_steps)"
        )
    if step < warmup_steps:
        return lr0 * step / warmup_steps
    span = total_steps - warmup_steps
    t = step - warmup_steps
    return lr_min + 0.5 * (lr0 - lr_min) * (1.0 + math.cos(math.pi * t / span))
