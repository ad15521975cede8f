"""Bias-corrected Adam parameter updates."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from guidematch.numerics.tensor import Tensor

BETA1 = 0.9  # decay of the first-moment estimate
BETA2 = 0.999  # decay of the second-moment estimate
EPS = 1e-8  # added to the root of the second moment


@dataclass
class AdamState:
    """Optimizer state for one parameter group; moments keyed by parameter name."""

    lr: float = 1e-3
    step: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)


def adam_step(state: AdamState, params: list[Tensor], grads: list[np.ndarray]) -> None:
    """Apply one Adam update in place; lr = 0 leaves parameters bit-identical."""
    if len(params) != len(grads):
        raise ValueError(f"got {len(params)} params but {len(grads)} grads")
    for p, g in zip(params, grads):
        name = p.name
        if name is None:
            raise ValueError("adam_step requires named parameters")
        if g is None:
            raise ValueError(f"missing gradient for parameter {name!r}")
        if g.shape != p.data.shape:
            raise ValueError(f"gradient shape {g.shape} does not match parameter {name!r} {p.data.shape}")
        if not np.isfinite(g).all():
            raise ValueError(f"non-finite gradient for parameter {name!r}")

    state.step += 1
    t = state.step
    c1 = 1.0 - BETA1**t
    c2 = 1.0 - BETA2**t
    for p, g in zip(params, grads):
        m = state.m.setdefault(p.name, np.zeros_like(p.data))
        v = state.v.setdefault(p.name, np.zeros_like(p.data))
        m *= BETA1
        m += (1.0 - BETA1) * g
        v *= BETA2
        v += (1.0 - BETA2) * (g * g)
        m_hat = m / c1
        v_hat = v / c2
        p.data = p.data - state.lr * m_hat / (np.sqrt(v_hat) + EPS)
