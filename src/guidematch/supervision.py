"""Supervision for the coarse matcher: losses, batching, and training.

Three levels of supervision are supported. Image-level supervision only
knows whether a pair shows the same scene and pushes every per-cell maximum
up (positive pairs) or down (negative pairs). Epipolar supervision splits
source cells into geometrically consistent and inconsistent sets using the
pair's fundamental matrix and pushes the two groups in opposite directions,
with the inconsistent term halved so negative-only pairs stay balanced.
Point supervision maximizes the score of the known ground-truth target
cells. Every loss reads one batched ``coarse_matcher.CorrelationVolume``
plus one label, fundamental matrix or cell mask per pair, is evaluated in
both matching directions, and returns the batch's summed loss as weighted
sums over the (N, Ha, Wa) and (N, Hb, Wb) per-cell maxima, so a step's
graph has a fixed number of nodes whatever the batch size. ``total_loss``
groups a batch's pairs by image shapes and runs each group through the
model as one batch. Epipolar labels decode matches as the evaluation field
does (``coarse_matcher.decode_cells``); all labels are computed on cell
centers in resized pixels at the volume's one stride, so fundamental
matrices and ground-truth matches must be in that frame.

A ``TrainingPair`` is two resized views. A positive pair shows one scene
and carries both its fundamental matrix and its ground-truth matches in
the resized frame, so every mode can train on it; a negative pair pairs
views of two scenes and carries neither. ``PairDataset`` builds one
positive and one negative pair per scene, and ``BatchSampler`` draws
batches with a fixed share of each.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from guidematch import coarse_matcher as cm
from guidematch import ConfigError, check_count, check_seed, numerics
from guidematch.geometry.epipolar import FRAME_RESIZED, FundamentalMatrix, epipolar_distances, rescale_fundamental
from guidematch.geometry.scene import SyntheticScene, load_scene_dir
from guidematch.numerics import AdamState, Tensor, adam_step

MODES = ("image", "epipolar", "point")

# Large enough to never win an argmax against probabilities in (0, 1].
_MASK_PENALTY = 1e6


@dataclass(frozen=True)
class TrainingPair:
    """Two resized views: a positive pair (label +1) with its fundamental
    matrix and ground-truth matches in the resized frame, or a negative
    pair (label -1) with neither."""

    image_a: np.ndarray
    image_b: np.ndarray
    fundamental: FundamentalMatrix | None = None
    gt_matches: np.ndarray | None = None

    def __post_init__(self):
        if (self.fundamental is None) != (self.gt_matches is None):
            raise ValueError("a pair carries both a fundamental matrix and ground-truth matches, or neither")

    @property
    def label(self) -> int:
        return -1 if self.fundamental is None else 1


class TrainingDiverged(RuntimeError):
    """The loss of ``step`` went non-finite; ``checkpoint_path`` holds the last finite-loss step's parameters."""

    def __init__(self, step: int, checkpoint_path):
        super().__init__(f"non-finite loss at step {step}; last good checkpoint at {checkpoint_path}")
        self.step = step
        self.checkpoint_path = checkpoint_path


def _label_direction(scores: np.ndarray, F: FundamentalMatrix, lambda_px: float, stride: int) -> np.ndarray:
    """Per source cell: is its ``cm.decode_cells`` match within ``lambda_px`` of the epipolar line?

    Both ends are ``cm.cell_centers``, in resized pixels. Degenerate
    (infinite) distances count as inconsistent.
    """
    cells, _ = cm.decode_cells(scores)
    src = cm.cell_centers(np.stack(np.indices(cells.shape[:2]), axis=-1), stride)
    dists = epipolar_distances(F, src.reshape(-1, 2), cm.cell_centers(cells, stride).reshape(-1, 2))
    return dists.reshape(cells.shape[:2]) < lambda_px


def _weighted_sum(maxima: Tensor, weights: np.ndarray) -> Tensor:
    """sum over pairs and cells of ``weights * maxima``; ``weights`` has one
    entry per pair, or one per cell like ``maxima``."""
    weights = np.asarray(weights, dtype=np.float64)
    weights = weights.reshape(weights.shape + (1,) * (maxima.ndim - weights.ndim))
    return (maxima * np.broadcast_to(weights, maxima.shape)).sum()


def _maxima(vol: cm.CorrelationVolume) -> tuple[Tensor, Tensor]:
    """Per source cell, the best match probability: (N, Ha, Wa) and (N, Hb, Wb)."""
    return numerics.max_over(vol.prob_ab, (3, 4)), numerics.max_over(vol.prob_ba, (1, 2))


def loss_image(vol: cm.CorrelationVolume, labels) -> Tensor:
    """Sharpen (label +1) or flatten (label -1) each pair's per-cell maxima, both directions."""
    labels = np.asarray(labels)
    if labels.shape != vol.filtered.shape[:1] or not np.isin(labels, (-1, 1)).all():
        raise ValueError(f"labels must be one +1 or -1 per pair, got {labels.tolist()}")
    max_ab, max_ba = _maxima(vol)
    return _weighted_sum(max_ab, -labels) + _weighted_sum(max_ba, -labels)


def _epipolar_weights(positive: np.ndarray) -> np.ndarray:
    """One pair's per-cell weights in one direction: consistent cells share
    -1, inconsistent ones share +0.5 (the halved damping); an empty set
    contributes zero."""
    n_pos = int(positive.sum())
    n_neg = positive.size - n_pos
    return np.where(positive, -1.0 / max(n_pos, 1), 0.5 / max(n_neg, 1))


def _check_frames(fundamentals) -> None:
    for F in fundamentals:
        if F is not None and F.frame != FRAME_RESIZED:
            raise ValueError(
                f"loss_epipolar expects a fundamental matrix in frame {FRAME_RESIZED!r}, got {F.frame!r}; "
                "rescale it to the resized image coordinates first"
            )


def loss_epipolar(vol: cm.CorrelationVolume, fundamentals, lambda_px: float) -> Tensor:
    """Raise consistent-cell maxima, damp inconsistent ones (halved), both directions.

    ``fundamentals`` holds one F per pair, in resized pixels
    (``FRAME_RESIZED``), the frame of the cell centers. For a negative pair
    (F is None) every cell is inconsistent and only the damping term remains.
    """
    if len(fundamentals) != vol.filtered.shape[0]:
        raise ValueError(f"{len(fundamentals)} fundamental matrices for {vol.filtered.shape[0]} pairs")
    _check_frames(fundamentals)
    max_ab, max_ba = _maxima(vol)
    w_ab, w_ba = [], []
    for s, F in zip(vol.filtered.data, fundamentals):
        if F is None:
            pos_ab = np.zeros(max_ab.shape[1:], dtype=bool)
            pos_ba = np.zeros(max_ba.shape[1:], dtype=bool)
        else:
            pos_ab = _label_direction(s, F, lambda_px, vol.stride)
            pos_ba = _label_direction(s.transpose(2, 3, 0, 1), F.transposed(), lambda_px, vol.stride)
        w_ab.append(_epipolar_weights(pos_ab))
        w_ba.append(_epipolar_weights(pos_ba))
    return _weighted_sum(max_ab, np.stack(w_ab)) + _weighted_sum(max_ba, np.stack(w_ba))


def build_gt_cells(gt_matches: np.ndarray, stride: int, shape: tuple[int, int, int, int]) -> np.ndarray:
    """Bool mask of one pair's volume ``shape``: mask[i, j, k, l] marks a ground-truth cell match.

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
    return _weighted_sum(best, -has_gt.astype(np.float64))


def _check_masks(masks: np.ndarray) -> None:
    if not masks.any(axis=(1, 2, 3, 4)).all():
        raise ValueError("all ground-truth cell sets are empty, pair unusable for point supervision")


def loss_points(vol: cm.CorrelationVolume, masks: np.ndarray) -> Tensor:
    """Maximize the best ground-truth cell score per source cell, both directions.

    ``masks`` stacks one ground-truth cell mask of ``build_gt_cells`` per pair.
    """
    if masks.shape != vol.filtered.shape:
        raise ValueError(f"ground-truth masks of shape {masks.shape} for a volume of shape {vol.filtered.shape}")
    _check_masks(masks)
    return _points_direction(vol.prob_ab, masks, (3, 4)) + _points_direction(vol.prob_ba, masks, (1, 2))


def _group_targets(pairs: list[TrainingPair], mode: str, stride: int):
    """A shape group's labels, fundamental matrices or ground-truth cell
    masks, checked as its loss will check them."""
    if mode == "image":
        return [p.label for p in pairs]
    if mode == "epipolar":
        fundamentals = [p.fundamental for p in pairs]  # None for a negative pair
        _check_frames(fundamentals)
        return fundamentals
    if any(p.label != 1 for p in pairs):
        raise ValueError("point supervision cannot use negative pairs")
    (ha, wa), (hb, wb) = pairs[0].image_a.shape, pairs[0].image_b.shape
    shape = (ha // stride, wa // stride, hb // stride, wb // stride)
    masks = np.stack([build_gt_cells(p.gt_matches, stride, shape) for p in pairs])
    _check_masks(masks)
    return masks


def _group_loss(vol: cm.CorrelationVolume, targets, mode: str, lambda_px: float) -> Tensor:
    if mode == "image":
        return loss_image(vol, targets)
    if mode == "epipolar":
        return loss_epipolar(vol, targets, lambda_px)
    return loss_points(vol, targets)


# id(image) -> (image, its (C, 1, h, w) features); holding the image keeps its id from being reused
FeatureMap = dict[int, tuple[np.ndarray, np.ndarray]]


def _add_features(backbone: cm.Backbone, images: list[np.ndarray], feature_map: FeatureMap) -> None:
    """Add the features of the images ``feature_map`` lacks: one batched
    ``cm.extract_features`` call per image shape, each image once."""
    misses: dict[tuple, dict[int, np.ndarray]] = {}
    for image in images:
        if id(image) not in feature_map:
            misses.setdefault(image.shape, {})[id(image)] = image
    for same_shape in misses.values():
        features = cm.extract_features(backbone, np.stack(list(same_shape.values()))).data
        for n, (key, image) in enumerate(same_shape.items()):
            feature_map[key] = (image, features[:, n : n + 1])


def _stacked_features(images: list[np.ndarray], feature_map: FeatureMap) -> Tensor:
    """The (C, N, h, w) features of same-shape ``images``, read from ``feature_map``."""
    return Tensor(np.concatenate([feature_map[id(image)][1] for image in images], axis=1))


def total_loss(
    model: cm.CoarseModel,
    pairs: list[TrainingPair],
    mode: str,
    lambda_px: float,
    feature_map: FeatureMap | None = None,
) -> tuple[Tensor, float]:
    """Summed loss of a batch and its per-pair mean for reporting.

    Pairs whose A images share a shape and whose B images share a shape form
    one group, which runs through the model as one batch; a dataset of one
    image size gives one group. The sum over groups follows the order in
    which each group's first pair appears. Every pair's supervision is
    checked before the first forward pass.

    ``feature_map`` keeps each image's features across calls: the batch's
    images it lacks go through the backbone (``_add_features``), and every
    group's feature stacks are read from it. A map freezes the backbone for
    the call: the stacks are plain arrays, so the loss's graph does not
    reach the backbone's parameters. Without one, each group's two image
    stacks go through the backbone.
    """
    if not pairs:
        raise ValueError("empty batch")
    if mode not in MODES:
        raise ConfigError(f"mode must be one of {MODES}, got {mode!r}")
    groups: dict[tuple, list[TrainingPair]] = {}
    for pair in pairs:
        groups.setdefault((pair.image_a.shape, pair.image_b.shape), []).append(pair)
    targets = [_group_targets(group, mode, model.stride) for group in groups.values()]
    if feature_map is not None:
        _add_features(model.backbone, [image for p in pairs for image in (p.image_a, p.image_b)], feature_map)

    def features(images: list[np.ndarray]) -> Tensor:
        if feature_map is None:
            return cm.extract_features(model.backbone, np.stack(images))
        return _stacked_features(images, feature_map)

    total = None
    for group, target in zip(groups.values(), targets):
        fa, fb = features([p.image_a for p in group]), features([p.image_b for p in group])
        loss = _group_loss(cm.volume_from_features(model, fa, fb), target, mode, lambda_px)
        total = loss if total is None else total + loss
    return total, float(total.data) / len(pairs)


# -- datasets and batching ---------------------------------------------------


def positive_pair(scene: SyntheticScene, max_side: int, stride: int) -> TrainingPair:
    """Resize a scene's views, stored as float32 so that the backbone and the
    filter compute in float32, and re-express its supervision in that frame."""
    image_a, scale_a = cm.resize_image(scene.image_a, max_side, stride)
    image_b, scale_b = cm.resize_image(scene.image_b, max_side, stride)
    image_a, image_b = image_a.astype(np.float32), image_b.astype(np.float32)
    fund = rescale_fundamental(scene.fundamental, scale_a, scale_b, FRAME_RESIZED)
    gt = scene.gt_points.copy()
    gt[:, 0] *= scale_a[0]
    gt[:, 1] *= scale_a[1]
    gt[:, 2] *= scale_b[0]
    gt[:, 3] *= scale_b[1]
    return TrainingPair(image_a, image_b, fund, gt)


@dataclass
class PairDataset:
    positives: list[TrainingPair]
    negatives: list[TrainingPair]

    @classmethod
    def from_scenes(cls, scenes: list[SyntheticScene], max_side: int, stride: int) -> "PairDataset":
        """Each scene's positive pair, and a negative pair of its A view and the next scene's B view (cyclic)."""
        if len(scenes) < 2:
            raise ValueError("need at least two scenes to form negative pairs")
        positives = [positive_pair(s, max_side, stride) for s in scenes]
        negatives = [TrainingPair(p.image_a, q.image_b) for p, q in zip(positives, positives[1:] + positives[:1])]
        return cls(positives, negatives)


class BatchSampler:
    """Half-positive half-negative batches, without replacement per epoch."""

    def __init__(
        self, dataset: PairDataset, batch_size: int, seed: int, positive_fraction: float = 0.5
    ):
        n_pos = batch_size * positive_fraction
        if abs(n_pos - round(n_pos)) > 1e-9:
            raise ConfigError(f"batch_size {batch_size} incompatible with positive fraction {positive_fraction}")
        self.n_pos = int(round(n_pos))
        self.n_neg = batch_size - self.n_pos
        classes = (("positive", self.n_pos, dataset.positives), ("negative", self.n_neg, dataset.negatives))
        for name, count, pool in classes:
            if count > len(pool):
                raise ValueError(f"a batch of {batch_size} takes {count} {name} pairs; the dataset has {len(pool)}")
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

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        check_count(self.iterations, "iterations")
        check_count(self.batch_size, "batch_size")
        check_seed(self.freeze_steps, "freeze_steps")  # 0 freezes no step
        check_seed(self.checkpoint_every, "checkpoint_every")  # 0 writes no snapshots
        for name in ("lr", "lr_finetune"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ConfigError(f"{name} must be finite and >= 0, got {getattr(self, name):g}")
        check_seed(self.seed, "seed")
        if self.batch_size * self.positive_fraction % 1:
            raise ConfigError(f"batch_size must be even in {self.mode} mode (half positive pairs), got {self.batch_size}")
        cm.check_max_side(self.max_side, 2 ** len(cm.BACKBONE_CHANNELS))  # the stride of the model train builds
        # epipolar_distances(...) < lambda_px labels the consistent cells
        if not 0 < self.lambda_px < math.inf:
            raise ConfigError(f"lambda_px must be finite and > 0, got {self.lambda_px:g}")

    @property
    def positive_fraction(self) -> float:
        """Share of positive pairs in a batch: all in point mode, else half."""
        return 1.0 if self.mode == "point" else 0.5


def train(config: TrainConfig) -> Path:
    """Stochastic training with a frozen-backbone warm-up phase, in mixed precision.

    The parameters, Adam's moments, the softmaxes, the losses and the
    checkpoints are float64; the dataset's images are float32
    (``positive_pair``), so the backbone and the filter, forward and
    backward, compute in float32 on parameters cast to it, and their
    gradients reach Adam cast back to float64 (``numerics.cast``, which also
    states the floor below which a gradient entering float32 is zeroed).
    The consensus filter trains from the start at ``lr``; the backbone stays
    frozen for ``freeze_steps`` steps and then fine-tunes at ``lr_finetune``.
    The frozen steps are the ones that pass ``total_loss`` a feature map;
    only the others update the backbone. The step that first draws a
    dataset image adds its features to the map, which later frozen steps
    read; from the first step past ``freeze_steps`` every step runs the
    backbone on its whole batch. The reuse is exact: a sample's features do
    not depend on the batch it ran in (``numerics.conv2d`` runs one product
    per sample, and ``numerics.l2_normalize_channels`` sums channels in one
    order), so the losses, the loss curve and every checkpoint are the same
    bits as with the backbone run on every batch. A map miss runs the
    backbone on parameters that require grad; the small graph it records
    is dropped once its array is read.
    Emits ``checkpoint_final.gmck``, whose path it returns, periodic
    snapshots, and a ``loss_curve.csv`` (step, loss, mode) under
    ``out_dir``; fully deterministic for a fixed seed. ``out_dir`` is made
    once the scenes, pairs and sampler are built, so a run that cannot
    start writes nothing. The loss is the one finiteness check: a
    non-finite loss at step k writes the parameters step k - 1 produced and
    the curve to step k - 1, then raises ``TrainingDiverged``.
    """
    scenes = load_scene_dir(config.dataset_dir)
    model = cm.CoarseModel.create(config.seed)
    dataset = PairDataset.from_scenes(scenes, config.max_side, model.stride)
    sampler = BatchSampler(dataset, config.batch_size, config.seed, config.positive_fraction)
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

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

    feature_map: FeatureMap | None = {}
    for step in range(1, config.iterations + 1):
        if step > config.freeze_steps:
            feature_map = None
        batch = sampler.next_batch()
        loss, mean_loss = total_loss(model, batch, config.mode, config.lambda_px, feature_map)
        if not np.isfinite(mean_loss):
            model.save(final_path)
            write_curve()
            raise TrainingDiverged(step, final_path)
        loss.backward()
        adam_step(filter_opt, filter_params, [p.grad for p in filter_params])
        if feature_map is None:
            adam_step(backbone_opt, backbone_params, [p.grad for p in backbone_params])
        curve.append((step, mean_loss))
        if config.checkpoint_every and step % config.checkpoint_every == 0 and step < config.iterations:
            model.save(out_dir / f"checkpoint_{step:06d}.gmck")

    model.save(final_path)
    write_curve()
    return final_path
