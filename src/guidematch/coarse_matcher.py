"""Trainable coarse correspondence network.

A small strided conv backbone turns each grayscale image into a grid of
unit feature vectors; all pairwise dot products form a 4D correlation
volume; a stack of 4D convolutions re-scores it so that coherent
neighborhoods win (applied in both image orders and averaged, which makes
the scores symmetric under swapping the images); per-cell argmax plus
bilinear interpolation of the surviving matches yields a pixel-level
coarse match field.

The forward pass is four pure stages, ``extract_features``, ``correlate``,
``filter_symmetric`` and ``normalize_scores``; ``compute_volume`` runs them
and returns one immutable ``CorrelationVolume``, which the supervision
losses and ``extract_matches`` read. Every stage takes a batch: N pairs
whose A images share one shape and whose B images share one shape, given
as (N, H, W) image stacks. Feature maps are (C, N, H/s, W/s) and volumes
(N, Ha, Wa, Hb, Wb); each layer runs the whole batch in one call, and a
pair's scores do not depend on the batch it ran in. Evaluation runs one
pair, N = 1, through ``compute_match_fields``, and runs it detached: on a
view of the model whose parameters share its arrays but require no grad,
so no op records a graph and each hidden volume is freed as soon as the
next layer has read it. Training runs ``compute_volume`` on the trainable
model itself.
"""

from __future__ import annotations

import copy
import math
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from guidematch import numerics
from guidematch.imageops import resize_bilinear
from guidematch.numerics import Tensor

LEAKY_SLOPE = 0.1
NORM_EPS = 1e-8
# default longest image side, in pixels, at which evaluation runs the model
EVAL_MAX_SIDE = 497
# the default architecture, the one training builds: backbone widths (total
# stride 2 ** 4 = 16) and the consensus filter's hidden widths
BACKBONE_CHANNELS = (8, 16, 32, 32)
FILTER_HIDDEN = (16, 16)


# a parameter's array from its name and shape
ParameterSource = Callable[[str, tuple[int, ...]], np.ndarray]


def he_uniform(rng: np.random.Generator) -> ParameterSource:
    """Fresh parameters: each weight drawn He-uniform from ``rng`` (its fan-in
    is the product of all axes but the first), each bias zero."""

    def draw(name: str, shape: tuple[int, ...]) -> np.ndarray:
        if name.endswith("/bias"):
            return np.zeros(shape)
        bound = np.sqrt(6.0 / math.prod(shape[1:]))
        return rng.uniform(-bound, bound, size=shape)

    return draw


def _parameter(params: ParameterSource, name: str, shape: tuple[int, ...]) -> Tensor:
    return numerics.parameter(params(name, shape), name)


def _checkpoint_source(arrays: dict[str, np.ndarray]) -> ParameterSource:
    """Parameters read from a checkpoint's arrays; a missing or misshapen one raises ``ValueError``."""

    def read(name: str, shape: tuple[int, ...]) -> np.ndarray:
        if name not in arrays:
            raise ValueError(f"checkpoint missing parameter {name!r}")
        if arrays[name].shape != shape:
            raise ValueError(f"checkpoint parameter {name!r} has shape {arrays[name].shape}")
        return arrays[name]

    return read


class Backbone:
    """Strided conv feature extractor; stride doubles per block.

    One block per entry of ``channels``: a 3x3 conv of stride 2 with that
    many output channels and a leaky rectifier, so the total stride is
    2 ** len(channels). ``params`` gives each parameter's array, in order:
    ``he_uniform(rng)`` draws fresh ones.
    """

    def __init__(self, channels, params: ParameterSource, frozen: bool = False):
        self.channels = tuple(int(c) for c in channels)
        self.stride = 2 ** len(self.channels)
        self.weights: list[Tensor] = []
        self.biases: list[Tensor] = []
        for i, (c_in, c_out) in enumerate(zip((1, *self.channels), self.channels)):
            self.weights.append(_parameter(params, f"backbone/{i}/weight", (c_out, c_in, 3, 3)))
            self.biases.append(_parameter(params, f"backbone/{i}/bias", (c_out,)))
        self.frozen = frozen

    @property
    def frozen(self) -> bool:
        return self._frozen

    @frozen.setter
    def frozen(self, value: bool) -> None:
        self._frozen = bool(value)
        for p in self.parameters():
            p.requires_grad = not self._frozen

    def parameters(self) -> list[Tensor]:
        out = []
        for w, b in zip(self.weights, self.biases):
            out.extend([w, b])
        return out

    def forward(self, images: np.ndarray) -> Tensor:
        """(N, H, W) images to a (C, N, H/s, W/s) feature map, one conv2d call per block."""
        x = Tensor(images[None])
        for w, b in zip(self.weights, self.biases):
            x = numerics.leaky_relu(numerics.conv2d(x, w, b, stride=2, zero_pad=1), LEAKY_SLOPE)
        return x


class ConsensusFilter:
    """Stack of 4D convolutions over the correlation volume.

    Single-channel in and out through the ``hidden`` widths, i.e.
    len(hidden) + 1 conv layers, kernel 3, zero padding 1, leaky rectifiers
    between layers and a linear final layer. The final layer's bias is a
    constant zero: every loss reads softmaxes, which a shift of all scores
    leaves unchanged, so a trained output bias would get no gradient but
    rounding noise, and Adam would turn that noise into a random walk.
    ``params`` gives each parameter's array, in order, as for ``Backbone``.
    """

    def __init__(self, hidden, params: ParameterSource):
        self.hidden = tuple(int(h) for h in hidden)
        dims = [1, *self.hidden, 1]
        self.weights: list[Tensor] = []
        self.biases: list[Tensor] = []  # hidden layers only
        for i, (c_in, c_out) in enumerate(zip(dims[:-1], dims[1:])):
            self.weights.append(_parameter(params, f"filter/{i}/weight", (c_out, c_in, 3, 3, 3, 3)))
            if i < len(self.hidden):
                self.biases.append(_parameter(params, f"filter/{i}/bias", (c_out,)))
        self.output_bias = Tensor(np.zeros(1))

    def parameters(self) -> list[Tensor]:
        out = []
        for w, b in zip(self.weights[:-1], self.biases):
            out.extend([w, b])
        return out + [self.weights[-1]]

    def forward(self, volume: Tensor, scratch: numerics.Conv4dScratch | None = None) -> Tensor:
        """Apply to an (N, Ha, Wa, Hb, Wb) stack of volumes, preserving its shape.

        The single input and output channel make the stack the (1, N, ...)
        input of ``conv4d`` by a free reshape: one call per layer for the
        whole batch. Every call's forward work buffers come from ``scratch``
        when one is given.
        """
        shape = volume.shape
        x = volume.reshape((1, *shape))
        for w, b in zip(self.weights[:-1], self.biases):
            x = numerics.leaky_relu(numerics.conv4d(x, w, b, scratch=scratch), LEAKY_SLOPE)
        return numerics.conv4d(x, self.weights[-1], self.output_bias, scratch=scratch).reshape(shape)


@dataclass(frozen=True)
class CorrelationVolume:
    """Filtered correlation scores of a batch of N image pairs and their two softmaxes.

    Built whole by ``compute_volume``; every grid cell covers ``stride``
    pixels in both images, so each image is its grid times ``stride``.
    Axis 0 is the pair; all A images of the batch have one size, and so
    have all B images.
    """

    filtered: Tensor  # (N, Ha, Wa, Hb, Wb)
    prob_ab: Tensor  # softmax over the B dimensions (3, 4)
    prob_ba: Tensor  # softmax over the A dimensions (1, 2)
    stride: int


@dataclass
class CoarseMatchField:
    """Per-source-cell argmax matches, interpolatable to pixel level."""

    target_cells: np.ndarray  # (Hs, Ws, 2) int, rows then cols
    scores: np.ndarray  # (Hs, Ws)
    stride: int
    src_image_size: tuple[int, int]
    tgt_image_size: tuple[int, int]
    # original -> working scale factors (sx, sy); (1, 1) unless images were resized
    scale_src: tuple[float, float] = (1.0, 1.0)
    scale_tgt: tuple[float, float] = (1.0, 1.0)

    def __post_init__(self):
        if self.target_cells.ndim != 3 or self.target_cells.shape[2] != 2:
            raise ValueError(f"target_cells must have shape (Hs, Ws, 2), got {self.target_cells.shape}")
        ht = self.tgt_image_size[0] // self.stride
        wt = self.tgt_image_size[1] // self.stride
        if self.target_cells[..., 0].min() < 0 or self.target_cells[..., 0].max() >= ht:
            raise ValueError("target cell row out of bounds")
        if self.target_cells[..., 1].min() < 0 or self.target_cells[..., 1].max() >= wt:
            raise ValueError("target cell col out of bounds")


def resize_image(image: np.ndarray, max_side: int, stride: int) -> tuple[np.ndarray, tuple[float, float]]:
    """Bound the longest side and round both sides down to stride multiples.

    Returns the resized image and the achieved per-axis scale factors
    (sx, sy) mapping original to resized coordinates: p' = (sx*x, sy*y).
    """
    if max_side < stride:
        raise ValueError(f"max_side {max_side} smaller than stride {stride}")
    h, w = image.shape
    if h < 2 or w < 2:
        raise ValueError(f"degenerate image {h}x{w}")
    ratio = min(1.0, max_side / max(h, w))
    ht = int(h * ratio) // stride * stride
    wt = int(w * ratio) // stride * stride
    if ht < stride or wt < stride:
        raise ValueError(f"image {h}x{w} too small for stride {stride} under max_side {max_side}")
    if (ht, wt) == (h, w):
        return image.copy(), (1.0, 1.0)
    return resize_bilinear(image, ht, wt), (wt / w, ht / h)


def extract_features(backbone: Backbone, images: np.ndarray) -> Tensor:
    """Backbone forward pass of (N, H, W) images followed by per-cell L2
    normalization: (C, N, H/s, W/s)."""
    if images.ndim != 3:
        raise ValueError(f"extract_features expects an (N, H, W) image stack, got shape {images.shape}")
    h, w = images.shape[1:]
    s = backbone.stride
    if h % s or w % s:
        raise ValueError(
            f"image size {h}x{w} is not a multiple of the backbone stride {s}; "
            "resize it first (see resize_image)"
        )
    return numerics.l2_normalize_channels(backbone.forward(images), NORM_EPS)


def correlate(fa: Tensor, fb: Tensor) -> Tensor:
    """Dense dot products between every cell of A and every cell of B, per pair.

    (C, N, Ha, Wa) and (C, N, Hb, Wb) feature maps give an (N, Ha, Wa, Hb, Wb)
    volume: one stacked matrix product, one GEMM per pair.
    """
    ca, n, ha, wa = fa.shape
    cb, nb, hb, wb = fb.shape
    if ca != cb:
        raise ValueError(f"channel mismatch: {ca} vs {cb}")
    if n != nb:
        raise ValueError(f"batch mismatch: {n} A maps vs {nb} B maps")
    left = fa.reshape((ca, n, ha * wa)).transpose((1, 2, 0))
    right = fb.reshape((cb, n, hb * wb)).transpose((1, 0, 2))
    return numerics.matmul(left, right).reshape((n, ha, wa, hb, wb))


# swaps the A and B axes of an (N, Ha, Wa, Hb, Wb) volume
_SWAP_AB = (0, 3, 4, 1, 2)


def filter_symmetric(cons: ConsensusFilter, raw: Tensor) -> Tensor:
    """Run the consensus filter in both image orders and average.

    Guarantees filtered(A,B)[n,i,j,k,l] == filtered(B,A)[n,k,l,i,j]. The two
    orders stay two passes over the batch: stacking them into one call would
    double the filter's working set. The six ``conv4d`` calls of the two
    passes share one ``Conv4dScratch``, so their column buffer and product
    are allocated once per call of this function, not once per layer; the
    backward pass allocates its own.
    """
    scratch = numerics.Conv4dScratch()
    direct = cons.forward(raw, scratch)
    swapped = cons.forward(raw.transpose(_SWAP_AB), scratch).transpose(_SWAP_AB)
    return (direct + swapped) * 0.5


def normalize_scores(filtered: Tensor) -> tuple[Tensor, Tensor]:
    """Softmax over the B dimensions and over the A dimensions of an
    (N, Ha, Wa, Hb, Wb) volume: (prob_ab, prob_ba)."""
    return numerics.softmax_over(filtered, (3, 4)), numerics.softmax_over(filtered, (1, 2))


def extract_matches(vol: CorrelationVolume, direction: str = "AB") -> CoarseMatchField:
    """Argmax over the target image's grid of a one-pair volume; ties go to
    the lowest linear index.

    "BA" runs the same rule on the transposed scores. The softmax preserves
    per-slice argmaxes, so extracting from the raw filtered scores and from
    the normalized ones is equivalent.
    """
    if vol.filtered.shape[0] != 1:
        raise ValueError(f"extract_matches reads a one-pair volume, got {vol.filtered.shape[0]} pairs")
    s = vol.filtered.data[0]
    if direction == "BA":
        s = s.transpose(2, 3, 0, 1)
    elif direction != "AB":
        raise ValueError(f"direction must be 'AB' or 'BA', got {direction!r}")
    hs, ws, ht, wt = s.shape
    flat = s.reshape(hs * ws, ht * wt)
    arg = flat.argmax(axis=1)
    scores = flat[np.arange(hs * ws), arg].reshape(hs, ws)
    cells = np.stack(np.unravel_index(arg, (ht, wt)), axis=-1).reshape(hs, ws, 2)
    stride = vol.stride
    return CoarseMatchField(cells, scores, stride, (hs * stride, ws * stride), (ht * stride, wt * stride))


def interpolate_matches(field: CoarseMatchField, pts: np.ndarray) -> np.ndarray:
    """Pixel-level match positions for source points, in target pixels.

    Feature cell (i, j) has center ((j+0.5)*stride, (i+0.5)*stride) and its
    match point is the center of its target cell; the four cells around the
    query blend bilinearly, with queries clamped to the center bounding box.
    """
    pts = np.atleast_2d(np.asarray(pts, dtype=np.float64))
    h_px, w_px = field.src_image_size
    xs, ys = pts[:, 0], pts[:, 1]
    if (xs < 0).any() or (xs >= w_px).any() or (ys < 0).any() or (ys >= h_px).any():
        raise ValueError("query point outside the source image")
    s = field.stride
    hs, ws = field.target_cells.shape[:2]
    gx = np.clip(xs / s - 0.5, 0.0, max(ws - 1, 0))
    gy = np.clip(ys / s - 0.5, 0.0, max(hs - 1, 0))
    j0 = np.minimum(gx.astype(np.int64), max(ws - 2, 0))
    i0 = np.minimum(gy.astype(np.int64), max(hs - 2, 0))
    tx = np.clip(gx - j0, 0.0, 1.0)
    ty = np.clip(gy - i0, 0.0, 1.0)
    j1 = np.minimum(j0 + 1, ws - 1)
    i1 = np.minimum(i0 + 1, hs - 1)
    # match point of a cell: its target cell center, (col+0.5, row+0.5)*stride
    targets = (field.target_cells[..., ::-1] + 0.5) * s
    p00 = targets[i0, j0]
    p01 = targets[i0, j1]
    p10 = targets[i1, j0]
    p11 = targets[i1, j1]
    wx = tx[:, None]
    wy = ty[:, None]
    top = p00 * (1 - wx) + p01 * wx
    bot = p10 * (1 - wx) + p11 * wx
    return top * (1 - wy) + bot * wy


def write_match_field(path, field: CoarseMatchField) -> None:
    """One line per source cell: `i j k l score`."""
    lines = []
    hs, ws = field.target_cells.shape[:2]
    for i in range(hs):
        for j in range(ws):
            k, l = field.target_cells[i, j]
            lines.append(f"{i} {j} {k} {l} {float(field.scores[i, j])!r}")
    Path(path).write_text("\n".join(lines) + "\n")


@dataclass
class CoarseModel:
    """Backbone plus consensus filter, the trainable unit."""

    backbone: Backbone
    cons_filter: ConsensusFilter

    @classmethod
    def create(
        cls,
        seed: int = 0,
        backbone_channels=BACKBONE_CHANNELS,
        filter_hidden=FILTER_HIDDEN,
        frozen_backbone: bool = False,
    ) -> "CoarseModel":
        """A fresh model: ``he_uniform`` parameters from two generators spawned
        from ``seed``, one per part, and a zero output head. With a zero head
        the scores start uniform, so early training is driven by the
        correlation statistics instead of having to unlearn an arbitrary
        random re-scoring of the volume."""
        ss = np.random.SeedSequence([seed])
        rng_backbone, rng_filter = (np.random.default_rng(s) for s in ss.spawn(2))
        cons_filter = ConsensusFilter(filter_hidden, he_uniform(rng_filter))
        head = cons_filter.weights[-1]
        head.data = np.zeros_like(head.data)
        return cls(Backbone(backbone_channels, he_uniform(rng_backbone), frozen=frozen_backbone), cons_filter)

    @property
    def stride(self) -> int:
        return self.backbone.stride

    def parameters(self) -> list[Tensor]:
        return self.backbone.parameters() + self.cons_filter.parameters()

    def state_dict(self) -> dict[str, np.ndarray]:
        out = {
            "meta/stride": np.array(float(self.stride)),
            "meta/backbone_channels": np.array([float(c) for c in self.backbone.channels]),
            "meta/filter_hidden": np.array([float(h) for h in self.cons_filter.hidden]),
        }
        for p in self.parameters():
            out[p.name] = p.data
        return out

    def save(self, path) -> None:
        numerics.save_checkpoint(path, self.state_dict())

    @classmethod
    def load(cls, path) -> "CoarseModel":
        arrays = numerics.load_checkpoint(path)
        channels = tuple(int(c) for c in arrays["meta/backbone_channels"])
        hidden = tuple(int(h) for h in arrays["meta/filter_hidden"])
        # checkpoints written before the output bias became a constant carry
        # it as filter/<last>/bias; like any array the model lacks, it is ignored
        params = _checkpoint_source(arrays)
        return cls(Backbone(channels, params), ConsensusFilter(hidden, params))


def compute_volume(model: CoarseModel, images_a: np.ndarray, images_b: np.ndarray) -> CorrelationVolume:
    """Full forward pass of (N, H, W) image stacks, pair n being
    (images_a[n], images_b[n]): features, correlation, symmetric filter, softmax."""
    fa = extract_features(model.backbone, images_a)
    fb = extract_features(model.backbone, images_b)
    filtered = filter_symmetric(model.cons_filter, correlate(fa, fb))
    return CorrelationVolume(filtered, *normalize_scores(filtered), model.stride)


def _detached(model: CoarseModel) -> CoarseModel:
    """A view of ``model`` for a forward pass that records no graph.

    Its parameters are new tensors over the same arrays that do not require
    grad; nothing is redrawn, and ``model`` is left as it was.
    """

    def plain(params: list[Tensor]) -> list[Tensor]:
        return [Tensor(p.data, name=p.name) for p in params]

    backbone = copy.copy(model.backbone)
    backbone.weights, backbone.biases = plain(model.backbone.weights), plain(model.backbone.biases)
    cons = copy.copy(model.cons_filter)
    cons.weights, cons.biases = plain(model.cons_filter.weights), plain(model.cons_filter.biases)
    return CoarseModel(backbone, cons)


def compute_match_fields(
    model: CoarseModel, image_a: np.ndarray, image_b: np.ndarray, max_side: int
) -> tuple[CoarseMatchField, CoarseMatchField]:
    """Resize both images, run the model once, and extract the AB and BA
    fields stamped with the resize scales. Evaluation's one entry to the
    model: non-finite filtered scores, say from a broken checkpoint, raise ``ValueError``.

    The forward pass runs detached, on ``_detached(model)``: no op records
    parents or a backward closure, so each layer's output is freed once the
    next layer has read it. The scores are the same bits as those of
    ``compute_volume(model, ...)``, and ``model`` is not changed.
    """
    image_a, scale_a = resize_image(image_a, max_side, model.stride)
    image_b, scale_b = resize_image(image_b, max_side, model.stride)
    vol = compute_volume(_detached(model), image_a[None], image_b[None])
    if not np.isfinite(vol.filtered.data).all():
        raise ValueError("the coarse model produced non-finite coarse scores")
    ab = extract_matches(vol, "AB")
    ab.scale_src, ab.scale_tgt = scale_a, scale_b
    ba = extract_matches(vol, "BA")
    ba.scale_src, ba.scale_tgt = scale_b, scale_a
    return ab, ba
