"""Trainable coarse correspondence network.

A small strided conv backbone turns each grayscale image into a grid of
unit feature vectors; all pairwise dot products form a 4D correlation
volume; a stack of 4D convolutions re-scores it so that coherent
neighborhoods win (applied in both image orders and averaged, which makes
the scores symmetric under swapping the images). ``decode_cells`` takes
each cell's argmax, for the evaluation field and the epipolar labels both,
and bilinear interpolation of those matches gives pixel-level matches.

The forward pass is four pure stages, ``extract_features``, ``correlate``,
``filter_symmetric`` and ``normalize_scores``; ``compute_volume`` runs them
and returns one immutable ``CorrelationVolume``, which the supervision
losses and ``extract_matches`` read. ``volume_from_features`` is its part
after the backbone, for a caller that holds the feature maps already.
Every stage takes a batch: N pairs whose A images share one shape and whose
B images share one shape, given as (N, H, W) image stacks. Feature maps are (C, N, H/s, W/s) and volumes
(N, Ha, Wa, Hb, Wb); each layer runs the whole batch in one call, and a
pair's scores do not depend on the batch it ran in. Evaluation runs one
pair, N = 1, through ``compute_match_fields``, and runs it detached and in
float32: on a copy of the model whose parameters are float32 and require no
grad, so no op records a graph, each hidden volume is freed as soon as the
next layer has read it, and the forward pass moves half the bytes.
Evaluation reads only each cell's argmax, which float32 keeps: a decoded
cell can move only where its best two scores lie within the float32
forward's error of each other. ``compute_match_fields`` keeps the last
forward it ran on a model, on that model object and keyed by a hash of the
float32 parameters and images, so that ``eval_pck`` and guided ``eval_pose``
on one pair with one model run it once. Training runs
``extract_features`` and ``volume_from_features`` on the trainable model
itself, whose parameters are float64, on float32 images: the backbone and
the filter compute in the dtype of what they are given, casting each
parameter to it (``numerics.cast``), and the filtered volume is cast back
to the parameters' dtype, so the softmaxes and losses run in float64.
"""

from __future__ import annotations

import copy
import hashlib
import math
from collections.abc import Callable
from dataclasses import dataclass, field as dataclass_field, replace
from pathlib import Path

import numpy as np

from guidematch import ConfigError, check_count, numerics
from guidematch.imageops import bilinear_sample, resize_bilinear
from guidematch.numerics import Tensor

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
    ``he_uniform(rng)`` draws fresh ones. It holds its parameters only:
    training freezes it by passing ``supervision.total_loss`` a feature map.
    """

    def __init__(self, channels, params: ParameterSource):
        self.channels = tuple(int(c) for c in channels)
        self.stride = 2 ** len(self.channels)
        self.weights: list[Tensor] = []
        self.biases: list[Tensor] = []
        for i, (c_in, c_out) in enumerate(zip((1, *self.channels), self.channels)):
            self.weights.append(_parameter(params, f"backbone/{i}/weight", (c_out, c_in, 3, 3)))
            self.biases.append(_parameter(params, f"backbone/{i}/bias", (c_out,)))

    def parameters(self) -> list[Tensor]:
        out = []
        for w, b in zip(self.weights, self.biases):
            out.extend([w, b])
        return out

    def forward(self, images: np.ndarray) -> Tensor:
        """(N, H, W) images to a (C, N, H/s, W/s) feature map, one conv2d call
        per block, in the images' dtype: float32 images run every block in
        float32 on cast parameters."""
        x = Tensor(images[None])
        dtype = x.data.dtype
        for w, b in zip(self.weights, self.biases):
            x = numerics.leaky_relu(numerics.conv2d(x, numerics.cast(w, dtype), numerics.cast(b, dtype)))
        return x


class ConsensusFilter:
    """Stack of 4D convolutions over the correlation volume.

    Single-channel in and out through the ``hidden`` widths, i.e.
    len(hidden) + 1 conv layers, kernel 3, zero padding 1, leaky rectifiers
    between layers and a linear final layer. The final layer has no bias
    parameter: ``forward`` gives it a zero bias of the input's dtype. Every
    loss reads softmaxes, which a shift of all scores leaves unchanged, so a
    trained output bias would get no gradient but rounding noise, and Adam
    would turn that noise into a random walk. ``params`` gives each
    parameter's array, in order, as for ``Backbone``.
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
        when one is given. Each layer runs in the volume's dtype, on
        parameters cast to it.
        """
        shape = volume.shape
        dtype = volume.data.dtype
        x = volume.reshape((1, *shape))
        for w, b in zip(self.weights[:-1], self.biases):
            x = numerics.leaky_relu(
                numerics.conv4d(x, numerics.cast(w, dtype), numerics.cast(b, dtype), scratch=scratch)
            )
        last = numerics.cast(self.weights[-1], dtype)
        zero_bias = Tensor(np.zeros(1, dtype=dtype))
        return numerics.conv4d(x, last, zero_bias, scratch=scratch).reshape(shape)


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
    scores: np.ndarray  # (Hs, Ws); float32 from compute_match_fields
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


def check_max_side(max_side: int, stride: int) -> None:
    """The rule on a resize bound: a ``ConfigError`` unless ``max_side`` is a
    count (``check_count``) that holds one cell of ``stride``."""
    check_count(max_side, "max_side")
    if max_side < stride:
        raise ConfigError(f"max_side must be at least the backbone stride {stride}, got {max_side}")


def resize_image(image: np.ndarray, max_side: int, stride: int) -> tuple[np.ndarray, tuple[float, float]]:
    """Bound the longest side and round both sides down to stride multiples.

    Returns the resized image and the achieved per-axis scale factors
    (sx, sy) mapping original to resized coordinates: p' = (sx*x, sy*y).
    """
    check_max_side(max_side, stride)
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
    return numerics.l2_normalize_channels(backbone.forward(images))


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


def decode_cells(scores: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each source cell's best target cell in one pair's (Hs, Ws, Ht, Wt) scores,
    ties to the lowest linear index: (Hs, Ws, 2) cells, rows then cols, and their
    (Hs, Ws) scores. The evaluation field and the epipolar labels both read it."""
    hs, ws, ht, wt = scores.shape
    flat = scores.reshape(hs * ws, ht * wt)
    arg = flat.argmax(axis=1)
    best = flat[np.arange(hs * ws), arg].reshape(hs, ws)
    return np.stack(np.unravel_index(arg, (ht, wt)), axis=-1).reshape(hs, ws, 2), best


def cell_centers(cells: np.ndarray, stride: int) -> np.ndarray:
    """Pixel (x, y) centers, ((col + 0.5) * stride, (row + 0.5) * stride), of
    (..., 2) grid cells given as rows then cols."""
    return (cells[..., ::-1] + 0.5) * stride


def extract_matches(vol: CorrelationVolume, direction: str) -> CoarseMatchField:
    """``decode_cells`` of a one-pair volume.

    "BA" decodes the transposed scores. The softmax preserves per-slice
    argmaxes, so extracting from the raw filtered scores and from the
    normalized ones is equivalent.
    """
    if vol.filtered.shape[0] != 1:
        raise ValueError(f"extract_matches reads a one-pair volume, got {vol.filtered.shape[0]} pairs")
    s = vol.filtered.data[0]
    if direction == "BA":
        s = s.transpose(2, 3, 0, 1)
    elif direction != "AB":
        raise ValueError(f"direction must be 'AB' or 'BA', got {direction!r}")
    hs, ws, ht, wt = s.shape
    stride = vol.stride
    return CoarseMatchField(*decode_cells(s), stride, (hs * stride, ws * stride), (ht * stride, wt * stride))


def interpolate_matches(field: CoarseMatchField, pts: np.ndarray) -> np.ndarray:
    """Pixel-level match positions for source points, in target pixels.

    A source cell's match point is its target cell's center; a query (x, y)
    samples their grid with ``bilinear_sample`` at (x / stride - 0.5,
    y / stride - 0.5), so queries clamp to the source centers' bounding box.
    """
    pts = np.atleast_2d(np.asarray(pts, dtype=np.float64))
    h_px, w_px = field.src_image_size
    xs, ys = pts[:, 0], pts[:, 1]
    if (xs < 0).any() or (xs >= w_px).any() or (ys < 0).any() or (ys >= h_px).any():
        raise ValueError("query point outside the source image")
    s = field.stride
    targets = np.moveaxis(cell_centers(field.target_cells, s), -1, 0)
    return np.stack([bilinear_sample(t, xs / s - 0.5, ys / s - 0.5) for t in targets], axis=-1)


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
    """Backbone plus consensus filter, the trainable unit: their parameters and
    the kept forward, nothing else."""

    backbone: Backbone
    cons_filter: ConsensusFilter
    # compute_match_fields' last finite forward on this model: its _forward_key and
    # its AB and BA fields, unscaled and read-only; not a parameter, never saved
    _last_forward: tuple[bytes, tuple[CoarseMatchField, CoarseMatchField]] | None = dataclass_field(
        default=None, init=False, repr=False, compare=False
    )

    @classmethod
    def create(
        cls,
        seed: int = 0,
        backbone_channels=BACKBONE_CHANNELS,
        filter_hidden=FILTER_HIDDEN,
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
        return cls(Backbone(backbone_channels, he_uniform(rng_backbone)), cons_filter)

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

        def widths(key: str) -> tuple[int, ...]:
            if key not in arrays:
                raise ValueError(f"{path}: checkpoint missing meta array {key!r}")
            return tuple(int(c) for c in arrays[key])

        channels, hidden = widths("meta/backbone_channels"), widths("meta/filter_hidden")
        # checkpoints written before the output bias became a constant carry
        # it as filter/<last>/bias; like any array the model lacks, it is ignored
        params = _checkpoint_source(arrays)
        return cls(Backbone(channels, params), ConsensusFilter(hidden, params))


def volume_from_features(model: CoarseModel, fa: Tensor, fb: Tensor) -> CorrelationVolume:
    """The forward pass after the backbone: correlation, symmetric filter and
    softmax of (C, N, Ha, Wa) and (C, N, Hb, Wb) feature maps of
    ``extract_features``, pair n being (fa[:, n], fb[:, n]).

    The correlation and the filter run in the features' dtype; the filtered
    volume is cast to the parameters' dtype, in which the softmaxes run.
    """
    filtered = filter_symmetric(model.cons_filter, correlate(fa, fb))
    filtered = numerics.cast(filtered, model.cons_filter.weights[-1].data.dtype)
    return CorrelationVolume(filtered, *normalize_scores(filtered), model.stride)


def compute_volume(model: CoarseModel, images_a: np.ndarray, images_b: np.ndarray) -> CorrelationVolume:
    """Full forward pass of (N, H, W) image stacks, pair n being
    (images_a[n], images_b[n]): ``extract_features`` of each stack, then
    ``volume_from_features``."""
    return volume_from_features(
        model, extract_features(model.backbone, images_a), extract_features(model.backbone, images_b)
    )


def _detached(model: CoarseModel) -> CoarseModel:
    """A float32 copy of ``model`` for a forward pass that records no graph.

    Its parameters are float32 copies that do not require grad; nothing is
    redrawn, and ``model`` is left as it was.
    """

    def plain(params: list[Tensor]) -> list[Tensor]:
        return [Tensor(p.data.astype(np.float32), name=p.name) for p in params]

    backbone = copy.copy(model.backbone)
    backbone.weights, backbone.biases = plain(model.backbone.weights), plain(model.backbone.biases)
    cons = copy.copy(model.cons_filter)
    cons.weights, cons.biases = plain(model.cons_filter.weights), plain(model.cons_filter.biases)
    return CoarseModel(backbone, cons)


def _forward_key(view: CoarseModel, image_a: np.ndarray, image_b: np.ndarray) -> bytes:
    """SHA-256 of all the detached forward reads: each parameter of the float32
    ``view`` and both float32 images, each by its name, dtype, shape and bytes."""
    h = hashlib.sha256()
    named = [(p.name, p.data) for p in view.parameters()] + [("image_a", image_a), ("image_b", image_b)]
    for name, data in named:
        h.update(f"{name} {data.dtype.str} {data.shape}\n".encode())
        h.update(np.ascontiguousarray(data))
    return h.digest()


def compute_match_fields(
    model: CoarseModel, image_a: np.ndarray, image_b: np.ndarray, max_side: int
) -> tuple[CoarseMatchField, CoarseMatchField]:
    """Resize both images, run the model once, and extract the AB and BA
    fields stamped with the resize scales. Evaluation's one entry to the
    model: non-finite filtered scores, say from a broken checkpoint, raise ``ValueError``.

    The forward pass runs detached and in float32, on ``_detached(model)``
    and the resized images cast to float32: no op records parents or a
    backward closure, so each layer's output is freed once the next layer
    has read it, and ``model`` is not changed. The fields keep the decoded
    cells of ``compute_volume(model, ...)``, the float64 forward, except
    where a cell's best two float64 scores lie within the float32 forward's
    error of each other; their float32 scores carry that error, which the
    ``coarse-match`` score column shows. A score beyond float32's range is
    reported as non-finite.

    ``model`` keeps the fields of the last finite forward run on it, under
    ``_forward_key``: a SHA-256 of every float32 parameter of the view and
    of both float32 images. A call on the same model object with the same
    key skips the forward and its decoding, so an in-place change to a
    parameter or an image misses, and so does another model object. Resizing, field construction and scale stamping
    run on every call, so each call returns fresh fields that share no
    array with the kept ones, and the volume is freed as before. One entry
    is kept, 7.7 kB at 256x192, because the reuse that exists is
    consecutive calls on one pair, say ``eval_pck`` then guided
    ``eval_pose`` (the benchmark's eval op). A caller that evaluates each
    pair several ways should loop over pairs outside and ways inside to
    share the forward. A CLI command gains nothing, as each runs in a fresh
    process. A miss costs the hash besides the forward: at 256x192 with the
    default architecture it reads 0.55 MB in about 0.4 ms, against about
    40 ms for the forward on 2 vCPU.
    """
    image_a, scale_a = resize_image(image_a, max_side, model.stride)
    image_b, scale_b = resize_image(image_b, max_side, model.stride)
    view = _detached(model)
    image_a, image_b = image_a.astype(np.float32), image_b.astype(np.float32)
    key = _forward_key(view, image_a, image_b)
    kept = model._last_forward  # read once: another thread may replace it
    if kept is not None and kept[0] == key:
        decoded = kept[1]
    else:
        vol = compute_volume(view, image_a[None], image_b[None])
        if not np.isfinite(vol.filtered.data).all():
            raise ValueError("the coarse model produced non-finite coarse scores")
        decoded = extract_matches(vol, "AB"), extract_matches(vol, "BA")
        for field in decoded:
            field.target_cells.flags.writeable = field.scores.flags.writeable = False
        model._last_forward = key, decoded
    ab, ba = (replace(f, target_cells=f.target_cells.copy(), scores=f.scores.copy()) for f in decoded)
    ab.scale_src, ab.scale_tgt = scale_a, scale_b
    ba.scale_src, ba.scale_tgt = scale_b, scale_a
    return ab, ba
