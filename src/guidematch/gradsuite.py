"""Finite-difference verification suite over every differentiable primitive
and the three supervision losses through the full network.

Checks only run at well-conditioned points (away from rectifier kinks,
argmax ties, and vanishing feature norms); candidate seeds failing that are
skipped, keeping the comparison about gradient correctness rather than
sub-step non-smoothness. End-to-end loss checks probe a random subset of
parameter coordinates per seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from guidematch import coarse_matcher as cm
from guidematch import numerics
from guidematch import supervision as sup
from guidematch.geometry.epipolar import FRAME_RESIZED, FundamentalMatrix
from guidematch.numerics import Tensor, parameter
from guidematch.numerics.gradcheck import (
    max_gradient_error,
    sample_coords,
    well_conditioned,
)


@dataclass
class GradCheckResult:
    name: str
    max_rel_error: float
    seeds: int

    @property
    def passed(self) -> bool:
        return self.max_rel_error < 1e-4


def _weighted(t: Tensor, w: np.ndarray) -> Tensor:
    return (t * w).sum()


def _check_primitive(name, build, n_seeds, start_seed=0) -> GradCheckResult:
    worst = 0.0
    done = 0
    seed = start_seed
    while done < n_seeds:
        rng = np.random.default_rng(seed)
        seed += 1
        f, params = build(rng)
        if not well_conditioned(f):
            continue
        worst = max(worst, max_gradient_error(f, params))
        done += 1
    return GradCheckResult(name, worst, done)


def _primitive_checks(n_seeds):
    def conv2d_case(rng):
        x = parameter(rng.standard_normal((2, 6, 6)), "x")
        k = parameter(rng.standard_normal((3, 2, 3, 3)), "k")
        b = parameter(rng.standard_normal(3), "b")
        w = rng.standard_normal((3, 3, 3))
        return lambda: _weighted(numerics.conv2d(x, k, b, stride=2, zero_pad=1), w), [x, k, b]

    def conv4d_case(rng):
        x = parameter(rng.standard_normal((1, 3, 3, 2, 2)), "x")
        k = parameter(rng.standard_normal((2, 1, 3, 3, 3, 3)), "k")
        b = parameter(rng.standard_normal(2), "b")
        w = rng.standard_normal((2, 3, 3, 2, 2))
        return lambda: _weighted(numerics.conv4d(x, k, b), w), [x, k, b]

    def softmax_case(rng):
        x = parameter(rng.standard_normal((2, 3, 4)), "x")
        w = rng.standard_normal((2, 3, 4))
        return lambda: _weighted(numerics.softmax_over(x, (1, 2)), w), [x]

    def max_case(rng):
        x = parameter(rng.standard_normal((3, 4, 5)), "x")
        w = rng.standard_normal(3)

        def f():
            vals = numerics.max_over(x, (1, 2))
            return _weighted(vals, w)

        return f, [x]

    def norm_case(rng):
        x = parameter(rng.standard_normal((4, 3, 3)), "x")
        w = rng.standard_normal((4, 3, 3))
        return lambda: _weighted(numerics.l2_normalize_channels(x), w), [x]

    def leaky_case(rng):
        x = parameter(rng.standard_normal((5, 5)), "x")
        w = rng.standard_normal((5, 5))
        return lambda: _weighted(numerics.leaky_relu(x, 0.1), w), [x]

    def matmul_case(rng):
        a = parameter(rng.standard_normal((3, 4)), "a")
        b = parameter(rng.standard_normal((4, 2)), "b")
        w = rng.standard_normal((3, 2))
        return lambda: _weighted(numerics.matmul(a, b), w), [a, b]

    return [
        ("conv2d", conv2d_case),
        ("conv4d", conv4d_case),
        ("softmax_over", softmax_case),
        ("max_over", max_case),
        ("l2_normalize_channels", norm_case),
        ("leaky_relu", leaky_case),
        ("matmul", matmul_case),
    ]


def _tiny_model(seed: int, rng: np.random.Generator) -> cm.CoarseModel:
    model = cm.CoarseModel.create(seed, backbone_channels=(3, 4, 4, 4), filter_hidden=(2,))
    # the zero output head would make untrained scores uniform (argmax ties);
    # give it generic weights so the losses are checked at a generic point
    model.cons_filter.weights[-1].data = 0.2 * rng.standard_normal(model.cons_filter.weights[-1].shape)
    return model


def _loss_case(mode: str, seed: int):
    rng = np.random.default_rng(np.random.SeedSequence([seed, sup.MODES.index(mode)]))
    model = _tiny_model(seed, rng)
    img_a = rng.random((48, 48))
    img_b = rng.random((48, 48))
    rect = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]])
    fund = FundamentalMatrix.from_array(rect + 0.05 * rng.standard_normal((3, 3)), FRAME_RESIZED)
    # cover every cell in both directions (a permutation of cell centers) so
    # the point loss has no all-masked rows, whose exact ties would make the
    # conditioning check reject every seed
    ys, xs = np.mgrid[0:3, 0:3]
    centers = np.column_stack([(xs.ravel() + 0.5) * 16.0, (ys.ravel() + 0.5) * 16.0])
    perm = rng.permutation(9)
    jitter = rng.uniform(-5, 5, (9, 2))
    gt = np.column_stack([centers + jitter, centers[perm] + rng.uniform(-5, 5, (9, 2))])
    pair_args = {
        "image": sup.TrainingPair(img_a, img_b, 1, fundamental=fund, gt_matches=gt),
        "epipolar": sup.TrainingPair(img_a, img_b, 1, fundamental=fund),
        "point": sup.TrainingPair(img_a, img_b, 1, fundamental=fund, gt_matches=gt),
    }[mode]

    def f():
        return sup.pair_loss(model, pair_args, mode, lambda_px=16.0)

    return f, model.parameters()


def check_losses(n_seeds: int = 20, coords_per_param: int = 2) -> list[GradCheckResult]:
    out = []
    for mode in sup.MODES:
        worst = 0.0
        done = 0
        seed = 0
        while done < n_seeds and seed < 50 * n_seeds:
            f, params = _loss_case(mode, seed)
            seed += 1
            if not well_conditioned(f):
                continue
            coords = sample_coords(params, coords_per_param, np.random.default_rng(1000 + seed))
            worst = max(worst, max_gradient_error(f, params, coords=coords))
            done += 1
        out.append(GradCheckResult(f"loss_{mode}", worst, done))
    return out


def check_loss_every_coordinate(mode: str = "epipolar", start_seed: int = 0) -> GradCheckResult:
    """One exhaustive pass: every parameter coordinate of the full graph."""
    seed = start_seed
    while True:
        f, params = _loss_case(mode, seed)
        if well_conditioned(f):
            break
        seed += 1
    return GradCheckResult(f"loss_{mode}_all_coords", max_gradient_error(f, params), 1)


def run_gradient_suite(n_seeds: int = 20) -> list[GradCheckResult]:
    results = [
        _check_primitive(name, build, n_seeds, start_seed=100 * i)
        for i, (name, build) in enumerate(_primitive_checks(n_seeds))
    ]
    results.extend(check_losses(n_seeds))
    results.append(check_loss_every_coordinate())
    return results
