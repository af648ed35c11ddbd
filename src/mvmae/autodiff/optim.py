"""AdamW with decoupled weight decay, plus the cosine learning-rate schedule."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..errors import ContractViolation
from .tensor import Parameter

BETAS = (0.9, 0.999)
EPS = 1e-8


@dataclass
class AdamWState:
    """Per-parameter moments and the number of updates taken. The rate,
    the decay and the schedule come from the training config."""

    step: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)


def adamw_step(
    params: dict[str, Parameter], state: AdamWState, lr: float, weight_decay: float
) -> None:
    """One decoupled-weight-decay Adam update, in place.

    Decay multiplies the pre-update parameter (p -= lr*wd*p), independent
    of the moment-based step; moments use the standard bias correction.
    """
    b1, b2 = BETAS
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
        decay = lr * weight_decay * p.data
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * (g * g)
        update = lr * (m / c1) / (np.sqrt(v / c2) + EPS)
        p.data -= decay
        p.data -= update


def cosine_lr(
    step: int, total_steps: int, lr0: float, lr_min: float, warmup_steps: int
) -> float:
    """Linear warmup to lr0, then half-cosine decay to lr_min, for a step in
    [0, total_steps]. 0 <= warmup_steps < total_steps, as Config.validate
    and then pretrain check before the first step."""
    if step < warmup_steps:
        return lr0 * step / warmup_steps
    span = total_steps - warmup_steps
    t = step - warmup_steps
    return lr_min + 0.5 * (lr0 - lr_min) * (1.0 + math.cos(math.pi * t / span))
