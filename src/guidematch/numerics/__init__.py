"""Dense tensor arithmetic with reverse-mode gradients plus Adam.

Every op computes in the dtype of its operands, float64 or float32, and
``cast`` converts between them with a gradient (see ``tensor``): training
keeps float64 parameters and computes its convolutions in float32.
Only the primitives the coarse matcher and its losses need are provided;
this is deliberately not a general-purpose autodiff library. Each takes
only what a caller varies: ``conv2d`` is the backbone's one convolution
(3x3, stride 2, zero padding 1), as ``conv4d`` is the filter's (3^4,
stride 1, zero padding 1); ``leaky_relu``'s slope, the normalization's
epsilon and Adam's betas and epsilon are module constants. It has no
global switches or test hooks; callers check finiteness (see ``tensor``).
"""

from guidematch.numerics.tensor import (
    Tensor,
    parameter,
    cast,
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
    "cast",
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
