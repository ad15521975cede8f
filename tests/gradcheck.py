"""Central finite-difference verification of analytic gradients.

Relative error uses a small denominator floor so checks stay meaningful for
near-zero gradients without turning into loose absolute comparisons.
``well_conditioned`` measures how far a forward pass stays from the kinks
of the non-smooth ops by wrapping them on ``guidematch.numerics`` for that
one pass; the library itself records nothing.
"""

from __future__ import annotations

import contextlib
import math
from typing import Callable, Sequence
from unittest import mock

import numpy as np

from guidematch import numerics
from guidematch.numerics import Tensor

DEFAULT_STEP = 1e-5
ERROR_FLOOR = 1e-6

# A check point is usable when every kink (rectifier zero crossing, argmax
# switch) is at least this many steps away and every normalized vector has
# at least this norm; otherwise central differences measure the kink or the
# 1/norm^3 curvature instead of the gradient. A probe crosses a kink only
# when its sensitivity to that unit exceeds margin/step, so 30 steps leaves
# a wide safety factor for unit sensitivities of a few.
KINK_MARGIN_STEPS = 30.0
MIN_NORM = 0.05


def _argmax_gap(x: Tensor, axes) -> float:
    """Smallest gap between the two largest cells of any slice that ``max_over`` reduces."""
    cells = np.moveaxis(x.data, axes, range(-len(axes), 0)).reshape(-1, math.prod(x.shape[a] for a in axes))
    top2 = np.partition(cells, -2, axis=1)[:, -2:]
    return (top2[:, 1] - top2[:, 0]).min()


# op of guidematch.numerics -> (kind, distance of its input to the op's nearest non-smooth point)
_PROBES = {
    "leaky_relu": ("kink", lambda x, *_: np.abs(x.data).min()),
    "max_over": ("kink", _argmax_gap),
    "l2_normalize_channels": ("norm", lambda x, *_: np.sqrt((x.data * x.data).sum(axis=0)).min()),
}


def well_conditioned(build_scalar: Callable[[], Tensor], step: float = DEFAULT_STEP) -> bool:
    """True when the forward pass stays clear of kinks and tiny norms: runs
    ``build_scalar`` once with the ops of ``_PROBES`` wrapped where the library
    looks them up, on ``guidematch.numerics``, and checks every input's margin."""
    margins: list[tuple[str, float]] = []

    def probed(op, kind, margin):
        def run(x, *args):
            margins.append((kind, margin(x, *args)))
            return op(x, *args)

        return run

    with contextlib.ExitStack() as stack:
        for name, (kind, margin) in _PROBES.items():
            stack.enter_context(mock.patch.object(numerics, name, probed(getattr(numerics, name), kind, margin)))
        build_scalar()
    limits = {"kink": KINK_MARGIN_STEPS * step, "norm": MIN_NORM}
    return all(value >= limits[kind] for kind, value in margins)


def max_gradient_error(
    build_scalar: Callable[[], Tensor],
    params: Sequence[Tensor],
    step: float = DEFAULT_STEP,
    coords: dict[int, np.ndarray] | None = None,
) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``build_scalar`` must rebuild the forward graph from the current parameter
    values. When ``coords`` maps a parameter's position in ``params`` to flat
    indices, only those coordinates are probed; otherwise every element is.
    A coordinate whose error is not finite (a nan or inf gradient or
    difference) makes the result inf, which no bound accepts.
    """
    out = build_scalar()
    out.backward()
    analytic = []
    for p in params:
        if p.grad is None:
            analytic.append(np.zeros_like(p.data))
        else:
            analytic.append(np.array(p.grad, dtype=np.float64))

    worst = 0.0
    for i, p in enumerate(params):
        flat = p.data.reshape(-1)
        idxs = coords.get(i, np.arange(flat.size)) if coords is not None else np.arange(flat.size)
        a_flat = analytic[i].reshape(-1)
        for j in idxs:
            orig = flat[j]
            flat[j] = orig + step
            f_plus = float(build_scalar().data)
            flat[j] = orig - step
            f_minus = float(build_scalar().data)
            flat[j] = orig
            numeric = (f_plus - f_minus) / (2.0 * step)
            error = abs(a_flat[j] - numeric) / max(ERROR_FLOOR, abs(a_flat[j]), abs(numeric))
            if not math.isfinite(error):
                return math.inf
            worst = max(worst, error)
    return worst


def sample_coords(params: Sequence[Tensor], per_param: int, rng: np.random.Generator) -> dict[int, np.ndarray]:
    """Pick up to ``per_param`` random flat coordinates for each parameter."""
    out = {}
    for i, p in enumerate(params):
        n = p.data.size
        k = min(per_param, n)
        out[i] = rng.choice(n, size=k, replace=False)
    return out
