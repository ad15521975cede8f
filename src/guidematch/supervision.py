"""Supervision for the coarse matcher: losses, batching, and training.

Three levels of supervision are supported. Image-level supervision only
knows whether a pair shows the same scene and pushes every per-cell maximum
up (positive pairs) or down (negative pairs). Epipolar supervision splits
source cells into geometrically consistent and inconsistent sets using the
pair's fundamental matrix and pushes the two groups in opposite directions,
with the inconsistent term halved so negative-only pairs stay balanced.
Point supervision maximizes the score of the known ground-truth target
cells. Every loss reads one ``coarse_matcher.CorrelationVolume`` and is
evaluated in both matching directions and summed. Labels are computed on
cell centers in resized pixels at the volume's one stride, so fundamental
matrices and ground-truth matches must be in that frame.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from guidematch import coarse_matcher as cm
from guidematch import numerics
from guidematch.geometry.epipolar import FRAME_RESIZED, FundamentalMatrix, epipolar_distances, rescale_fundamental
from guidematch.geometry.scene import ConfigError, SyntheticScene, TrainingPair, load_config, load_scene_dir
from guidematch.numerics import AdamState, Tensor, adam_step

MODES = ("image", "epipolar", "point")

# Large enough to never win an argmax against probabilities in (0, 1].
_MASK_PENALTY = 1e6


class TrainingDiverged(RuntimeError):
    """The loss of ``step`` went non-finite; ``checkpoint_path`` holds the last finite-loss step's parameters."""

    def __init__(self, step: int, checkpoint_path):
        super().__init__(f"non-finite loss at step {step}; last good checkpoint at {checkpoint_path}")
        self.step = step
        self.checkpoint_path = checkpoint_path


def _label_direction(scores: np.ndarray, F: FundamentalMatrix, lambda_px: float, stride: int) -> np.ndarray:
    """Per source cell: is its argmax match within ``lambda_px`` of the epipolar line?

    Both ends are cell centers, ((col + 0.5) * stride, (row + 0.5) * stride),
    in resized pixels. Degenerate (infinite) distances count as inconsistent.
    """
    hs, ws, ht, wt = scores.shape
    ys, xs = np.mgrid[0:hs, 0:ws]
    src = np.column_stack([(xs.ravel() + 0.5) * stride, (ys.ravel() + 0.5) * stride])
    rows, cols = np.unravel_index(scores.reshape(hs * ws, ht * wt).argmax(axis=1), (ht, wt))
    tgt = np.column_stack([(cols + 0.5) * stride, (rows + 0.5) * stride])
    return (epipolar_distances(F, src, tgt) < lambda_px).reshape(hs, ws)


def loss_image(vol: cm.CorrelationVolume, label: int) -> Tensor:
    """Sharpen (label +1) or flatten (label -1) the per-cell maxima, both directions."""
    if label not in (-1, 1):
        raise ValueError(f"label must be +1 or -1, got {label}")
    max_ab = numerics.max_over(vol.prob_ab, (2, 3))
    max_ba = numerics.max_over(vol.prob_ba, (0, 1))
    return (max_ab.sum() + max_ba.sum()) * float(-label)


def _epipolar_direction(max_t: Tensor, positive: np.ndarray | None) -> Tensor:
    n_cells = max_t.size
    if positive is None:
        return max_t.sum() * (0.5 / n_cells)
    n_pos = int(positive.sum())
    n_neg = n_cells - n_pos
    total = max_t.sum() * 0.0
    if n_neg:
        total = total + (max_t * (~positive).astype(np.float64)).sum() * (0.5 / n_neg)
    if n_pos:
        total = total - (max_t * positive.astype(np.float64)).sum() * (1.0 / n_pos)
    return total


def loss_epipolar(vol: cm.CorrelationVolume, F: FundamentalMatrix | None, lambda_px: float) -> Tensor:
    """Raise consistent-cell maxima, damp inconsistent ones (halved), both directions.

    F must be in resized pixels (``FRAME_RESIZED``), the frame of the cell
    centers. For a negative pair (F is None) every cell is inconsistent and
    only the damping term remains; empty sets contribute zero.
    """
    if F is not None and F.frame != FRAME_RESIZED:
        raise ValueError(
            f"loss_epipolar expects a fundamental matrix in frame {FRAME_RESIZED!r}, got {F.frame!r}; "
            "rescale it to the resized image coordinates first"
        )
    max_ab = numerics.max_over(vol.prob_ab, (2, 3))
    max_ba = numerics.max_over(vol.prob_ba, (0, 1))
    if F is None:
        return _epipolar_direction(max_ab, None) + _epipolar_direction(max_ba, None)
    s = vol.filtered.data
    pos_ab = _label_direction(s, F, lambda_px, vol.stride)
    pos_ba = _label_direction(s.transpose(2, 3, 0, 1), F.transposed(), lambda_px, vol.stride)
    return _epipolar_direction(max_ab, pos_ab) + _epipolar_direction(max_ba, pos_ba)


def build_gt_cells(gt_matches: np.ndarray, stride: int, shape: tuple[int, int, int, int]) -> np.ndarray:
    """Bool mask of a volume's ``shape``: mask[i, j, k, l] marks a ground-truth cell match.

    Pixel matches are quantized to the cells containing them; duplicates collapse.
    """
    gt = np.asarray(gt_matches, dtype=np.float64).reshape(-1, 4)
    ia, ja, kb, lb = (np.floor(gt[:, c] / stride).astype(np.int64) for c in (1, 0, 3, 2))
    ha, wa, hb, wb = shape
    if ((ia < 0) | (ia >= ha) | (ja < 0) | (ja >= wa)).any():
        raise ValueError("ground-truth match outside the A grid")
    if ((kb < 0) | (kb >= hb) | (lb < 0) | (lb >= wb)).any():
        raise ValueError("ground-truth match outside the B grid")
    mask = np.zeros(shape, dtype=bool)
    mask[ia, ja, kb, lb] = True
    return mask


def _points_direction(prob: Tensor, mask: np.ndarray, axes: tuple[int, int]) -> Tensor:
    has_gt = mask.any(axis=axes)
    maskf = mask.astype(np.float64)
    # push non-candidate cells far below any probability before taking the max
    shifted = prob * maskf + (maskf - 1.0) * _MASK_PENALTY
    best = numerics.max_over(shifted, axes)
    return (best * has_gt.astype(np.float64)).sum() * -1.0


def loss_points(vol: cm.CorrelationVolume, mask: np.ndarray) -> Tensor:
    """Maximize the best ground-truth cell score per source cell, both directions.

    ``mask`` is the ground-truth cell mask of ``build_gt_cells``.
    """
    if not mask.any():
        raise ValueError("all ground-truth cell sets are empty, pair unusable for point supervision")
    return _points_direction(vol.prob_ab, mask, (2, 3)) + _points_direction(vol.prob_ba, mask, (0, 1))


def pair_loss(model: cm.CoarseModel, pair: TrainingPair, mode: str, lambda_px: float) -> Tensor:
    vol = cm.compute_volume(model, pair.image_a, pair.image_b)
    if mode == "image":
        return loss_image(vol, pair.label)
    if mode == "epipolar":
        if pair.label == 1:
            if pair.fundamental is None:
                raise ValueError("positive pair without a fundamental matrix in epipolar mode")
            return loss_epipolar(vol, pair.fundamental, lambda_px)
        return loss_epipolar(vol, None, lambda_px)
    if mode == "point":
        if pair.label != 1:
            raise ValueError("point supervision cannot use negative pairs")
        if pair.gt_matches is None:
            raise ValueError("positive pair without ground-truth matches in point mode")
        return loss_points(vol, build_gt_cells(pair.gt_matches, vol.stride, vol.filtered.shape))
    raise ValueError(f"mode must be one of {MODES}, got {mode!r}")


def total_loss(
    model: cm.CoarseModel, pairs: list[TrainingPair], mode: str, lambda_px: float
) -> tuple[Tensor, float]:
    """Sum of per-pair losses and the batch mean for reporting."""
    if not pairs:
        raise ValueError("empty batch")
    total = None
    for pair in pairs:
        l = pair_loss(model, pair, mode, lambda_px)
        total = l if total is None else total + l
    return total, float(total.data) / len(pairs)


# -- datasets and batching ---------------------------------------------------


def positive_pair(scene: SyntheticScene, max_side: int, stride: int) -> TrainingPair:
    """Resize a scene's views and re-express its supervision in that frame."""
    if scene.fundamental is None:
        raise ValueError("scene has no fundamental matrix, unusable as a positive pair")
    image_a, scale_a = cm.resize_image(scene.image_a, max_side, stride)
    image_b, scale_b = cm.resize_image(scene.image_b, max_side, stride)
    fund = rescale_fundamental(scene.fundamental, scale_a, scale_b, FRAME_RESIZED)
    gt = scene.gt_points.copy()
    gt[:, 0] *= scale_a[0]
    gt[:, 1] *= scale_a[1]
    gt[:, 2] *= scale_b[0]
    gt[:, 3] *= scale_b[1]
    return TrainingPair(
        image_a,
        image_b,
        label=1,
        fundamental=fund,
        gt_matches=gt,
        scene_ids=(scene.seed, scene.seed),
    )


@dataclass
class PairDataset:
    positives: list[TrainingPair]
    negatives: list[TrainingPair]

    @classmethod
    def from_scenes(cls, scenes: list[SyntheticScene], max_side: int, stride: int = 16) -> "PairDataset":
        if len(scenes) < 2:
            raise ValueError("need at least two scenes to form negative pairs")
        positives = [positive_pair(s, max_side, stride) for s in scenes]
        negatives = []
        for i, pos in enumerate(positives):
            j = (i + 1) % len(positives)
            negatives.append(
                TrainingPair(
                    pos.image_a,
                    positives[j].image_b,
                    label=-1,
                    scene_ids=(scenes[i].seed, scenes[j].seed),
                )
            )
        return cls(positives, negatives)


class BatchSampler:
    """Half-positive half-negative batches, without replacement per epoch."""

    def __init__(
        self, dataset: PairDataset, batch_size: int, seed: int, positive_fraction: float = 0.5
    ):
        n_pos = batch_size * positive_fraction
        if abs(n_pos - round(n_pos)) > 1e-9:
            raise ValueError(f"batch_size {batch_size} incompatible with positive fraction {positive_fraction}")
        self.n_pos = int(round(n_pos))
        self.n_neg = batch_size - self.n_pos
        if self.n_pos and not dataset.positives:
            raise ValueError("dataset has no positive pairs")
        if self.n_neg and not dataset.negatives:
            raise ValueError("dataset has no negative pairs")
        if self.n_pos > len(dataset.positives) or self.n_neg > len(dataset.negatives):
            raise ValueError("batch larger than the available pairs of a class")
        self.dataset = dataset
        self.rng = np.random.default_rng(np.random.SeedSequence([seed]))
        self._pos_queue: list[int] = []
        self._neg_queue: list[int] = []

    def _draw(self, queue: list[int], pool_size: int, count: int) -> list[int]:
        out = []
        while len(out) < count:
            if not queue:
                queue.extend(self.rng.permutation(pool_size).tolist())
            out.append(queue.pop())
        return out

    def next_batch(self) -> list[TrainingPair]:
        pos = [self.dataset.positives[i] for i in self._draw(self._pos_queue, len(self.dataset.positives), self.n_pos)]
        neg = [self.dataset.negatives[i] for i in self._draw(self._neg_queue, len(self.dataset.negatives), self.n_neg)]
        return pos + neg


# -- training ------------------------------------------------------------------


@dataclass
class TrainConfig:
    mode: str
    dataset_dir: str
    out_dir: str
    iterations: int = 2000
    batch_size: int = 8
    lr: float = 1e-3
    lr_finetune: float = 1e-4
    freeze_steps: int = 500
    lambda_px: float = 16.0
    seed: int = 0
    checkpoint_every: int = 500
    max_side: int = 401
    backbone_channels: tuple[int, ...] = (8, 16, 32, 32)
    filter_hidden: tuple[int, ...] = (16, 16)

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")

    @classmethod
    def from_file(cls, path, **overrides) -> "TrainConfig":
        """The file's values (``load_config``; no file when ``path`` is None),
        beaten by each override that is not None. A missing ``mode``,
        ``dataset_dir`` or ``out_dir`` raises ``ConfigError``."""
        values = load_config(path, cls) if path else {}
        values.update({k: v for k, v in overrides.items() if v is not None})
        missing = [k for k in ("mode", "dataset_dir", "out_dir") if k not in values]
        if missing:
            raise ConfigError(f"train needs a --config key or a flag for: {', '.join(missing)}")
        return cls(**values)


@dataclass
class TrainResult:
    checkpoint_path: Path
    curve: list[tuple[int, float]]
    model: cm.CoarseModel


def train(config: TrainConfig) -> TrainResult:
    """Stochastic training with a frozen-backbone warm-up phase.

    The consensus filter trains from the start at ``lr``; the backbone stays
    frozen for ``freeze_steps`` steps and then fine-tunes at ``lr_finetune``.
    Emits ``checkpoint_final.gmck``, periodic snapshots, and a
    ``loss_curve.csv`` (step, loss, mode) under ``out_dir``; fully
    deterministic for a fixed seed. The loss is the one finiteness check: a
    non-finite loss at step k writes the parameters step k - 1 produced and
    the curve to step k - 1, then raises ``TrainingDiverged``.
    """
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    scenes = load_scene_dir(config.dataset_dir)
    stride = 2 ** len(config.backbone_channels)
    dataset = PairDataset.from_scenes(scenes, config.max_side, stride)

    model = cm.CoarseModel.create(
        config.seed, config.backbone_channels, config.filter_hidden, frozen_backbone=True
    )
    positive_fraction = 1.0 if config.mode == "point" else 0.5
    sampler = BatchSampler(dataset, config.batch_size, config.seed, positive_fraction)

    filter_params = model.cons_filter.parameters()
    backbone_params = model.backbone.parameters()
    filter_opt = AdamState(lr=config.lr)
    backbone_opt = AdamState(lr=config.lr_finetune)

    curve: list[tuple[int, float]] = []
    final_path = out_dir / "checkpoint_final.gmck"

    def write_curve():
        lines = ["step,loss,mode"]
        lines += [f"{step},{loss!r},{config.mode}" for step, loss in curve]
        (out_dir / "loss_curve.csv").write_text("\n".join(lines) + "\n")

    for step in range(1, config.iterations + 1):
        if model.backbone.frozen and step > config.freeze_steps:
            model.backbone.frozen = False
        batch = sampler.next_batch()
        loss, mean_loss = total_loss(model, batch, config.mode, config.lambda_px)
        if not np.isfinite(mean_loss):
            model.save(final_path)
            write_curve()
            raise TrainingDiverged(step, final_path)
        loss.backward()
        adam_step(filter_opt, filter_params, [p.grad for p in filter_params])
        if not model.backbone.frozen:
            adam_step(backbone_opt, backbone_params, [p.grad for p in backbone_params])
        curve.append((step, mean_loss))
        if config.checkpoint_every and step % config.checkpoint_every == 0 and step < config.iterations:
            model.save(out_dir / f"checkpoint_{step:06d}.gmck")

    model.save(final_path)
    write_curve()
    return TrainResult(final_path, curve, model)
