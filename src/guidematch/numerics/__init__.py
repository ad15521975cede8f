"""Dense float64 tensor arithmetic with reverse-mode gradients plus Adam.

Only the primitives the coarse matcher and its losses need are provided;
this is deliberately not a general-purpose autodiff library. It has no
global switches or test hooks; callers check finiteness (see ``tensor``).
"""

from guidematch.numerics.tensor import (
    Tensor,
    parameter,
    conv2d,
    conv4d,
    Conv4dScratch,
    softmax_over,
    max_over,
    l2_normalize_channels,
    leaky_relu,
    matmul,
)
from guidematch.numerics.optim import AdamState, adam_step
from guidematch.numerics.checkpoint import save_checkpoint, load_checkpoint

__all__ = [
    "Tensor",
    "parameter",
    "conv2d",
    "conv4d",
    "Conv4dScratch",
    "softmax_over",
    "max_over",
    "l2_normalize_channels",
    "leaky_relu",
    "matmul",
    "AdamState",
    "adam_step",
    "save_checkpoint",
    "load_checkpoint",
]
