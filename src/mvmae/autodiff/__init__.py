from . import ops
from .optim import AdamWState, adamw_step, cosine_lr
from .tensor import Parameter, Tensor, backward, no_grad

__all__ = [
    "ops",
    "Tensor",
    "Parameter",
    "backward",
    "no_grad",
    "AdamWState",
    "adamw_step",
    "cosine_lr",
]
