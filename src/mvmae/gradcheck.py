"""Central finite-difference verification of the whole training gradient.

Every trainable parameter is perturbed coordinate by coordinate around a
fixed forward plan. Components that disagree at the base step size are
retried with smaller steps, which separates truncation error at a
max/min kink inside the stencil (shrinks with h) from a wrong analytic
gradient (does not).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .autodiff import no_grad
from .config import Config
from .data import SyntheticShape, generate_shape
from .errors import ContractViolation
from .model import MultiviewMae, build_pretrain_plan, plan_losses
from .pipeline import step_gradients
from .rng import Rng

GRADCHECK_TOLERANCE = 1e-5
_STEPS = (1e-5, 1e-6, 1e-7)


@dataclass
class GradcheckResult:
    passed: bool
    worst_name: str
    worst_error: float
    n_parameters: int
    n_scalars: int
    seconds: float


def _component_error(f, flat: np.ndarray, i: int, analytic: float) -> float:
    best = np.inf
    for h in _STEPS:
        orig = flat[i]
        flat[i] = orig + h
        fp = f()
        flat[i] = orig - h
        fm = f()
        flat[i] = orig
        fd = (fp - fm) / (2.0 * h)
        err = abs(analytic - fd) / max(1.0, abs(analytic), abs(fd))
        best = min(best, err)
        if best < GRADCHECK_TOLERANCE:
            break
    return best


def run_gradcheck(
    cfg: Config, seed: int, corrupt_param: str | None = None
) -> GradcheckResult:
    """Compare backprop against central differences for every parameter.

    corrupt_param deliberately biases one analytic gradient; the check
    must then fail naming that parameter (negative control).
    """
    started = time.monotonic()
    model = MultiviewMae(cfg.model, Rng(seed).derive("init"))
    cloud = generate_shape(
        SyntheticShape(kind="torus", n_points=cfg.data.n_points, seed=seed)
    )
    # two plans, so that both kinds of decoder in a front-end batch are checked
    plans = [build_pretrain_plan(cloud, cfg.model, Rng(seed).derive("plan", i)) for i in range(2)]
    weight = 1.0 / len(plans)

    step_gradients(model, plans, weight)
    analytic = {
        name: (p.grad.copy() if p.grad is not None else np.zeros_like(p.data))
        for name, p in model.params.items()
    }
    if corrupt_param is not None:
        if corrupt_param not in analytic:
            raise ContractViolation(f"no parameter named {corrupt_param}")
        analytic[corrupt_param] = analytic[corrupt_param] + 1e-2

    def evaluate() -> float:
        with no_grad():
            return weight * sum(float(loss.data) for loss, _, _ in plan_losses(model, plans))

    worst_name, worst_error = "", 0.0
    n_scalars = 0
    for name, p in model.params.items():
        flat = p.data.reshape(-1)
        a = analytic[name].reshape(-1)
        n_scalars += flat.size
        for i in range(flat.size):
            err = _component_error(evaluate, flat, i, float(a[i]))
            if err > worst_error:
                worst_name, worst_error = name, err
    return GradcheckResult(
        passed=worst_error < GRADCHECK_TOLERANCE,
        worst_name=worst_name,
        worst_error=worst_error,
        n_parameters=len(model.params),
        n_scalars=n_scalars,
        seconds=time.monotonic() - started,
    )
