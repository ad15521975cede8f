"""Local keypoints and the matching rules that consume coarse guidance.

Detection and description are deliberately simple desk-scale stand-ins
(two-level Harris corners, mean-free normalized intensity patches). Detected
keypoints are one read-only ``KeypointSet``, strongest first, ties to the
lowest candidate index, none strictly closer than ``NMS_RADIUS`` to a
stronger one kept (``detect_keypoints`` has the full contract). Every
matching rule is "nearest descriptor under a candidate mask"; only the mask
differs. Raw matching admits every B keypoint. Guided matching admits those
within a radius-W disc around the keypoint's coarse match, which is what
disambiguates repeated structures; W = inf degenerates to raw matching.
Model-guided matching admits those within a band around the keypoint's
epipolar line under a fundamental matrix fitted to a first round of matches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.ndimage import gaussian_filter

from guidematch import ConfigError, check_count
from guidematch import robust_pose as rp
from guidematch.coarse_matcher import CoarseMatchField, interpolate_matches
from guidematch.geometry.epipolar import FundamentalMatrix, epipolar_lines, line_distances
from guidematch.imageops import bilinear_sample

HARRIS_K = 0.06
HARRIS_SIGMA = 1.5
NMS_RADIUS = 4
DETECTION_LEVELS = 2
BASE_SCALE = 9.0  # detector window diameter at full resolution
PATCH = 13  # descriptor patch side in pixels; odd, so the patch centres on the keypoint


class MatchingError(RuntimeError):
    pass


@dataclass(frozen=True, eq=False)
class KeypointSet:
    """Read-only float64 copies of positions ``xy`` (n, 2), window diameters and
    responses (n,); a scalar scale or response applies to every keypoint.
    Positions must be finite."""

    xy: np.ndarray
    scale: np.ndarray
    response: np.ndarray

    def __post_init__(self):
        xy = np.reshape(self.xy, (-1, 2))
        for name, values in (("xy", xy), ("scale", self.scale), ("response", self.response)):
            values = np.array(np.broadcast_to(values, xy.shape if name == "xy" else len(xy)), dtype=np.float64)
            values.flags.writeable = False
            object.__setattr__(self, name, values)
        if not np.isfinite(self.xy).all():
            raise ValueError("keypoint positions must be finite")

    def __len__(self) -> int:
        return len(self.xy)


@dataclass
class MatchSet:
    """Per-source-keypoint best matches with the bookkeeping pruning needs."""

    index_a: np.ndarray
    index_b: np.ndarray
    distance: np.ndarray
    second_distance: np.ndarray  # nan when the candidate set had one element

    def __post_init__(self):
        n = len(self.index_a)
        lengths = tuple(map(len, (self.index_a, self.index_b, self.distance, self.second_distance)))
        if lengths != (n,) * 4:
            raise ValueError(f"index_a, index_b, distance and second_distance differ in length: {lengths}")
        if n and len(np.unique(self.index_a)) != n:
            raise ValueError("at most one match per source index")

    def __len__(self) -> int:
        return len(self.index_a)

    def pairs(self) -> list[tuple[int, int]]:
        return list(zip(self.index_a.tolist(), self.index_b.tolist()))


def _harris_response(image: np.ndarray) -> np.ndarray:
    """Harris response of a finite image; ``ValueError`` if it overflows (it is quartic in intensity)."""
    with np.errstate(over="ignore", invalid="ignore"):
        gy, gx = np.gradient(image)
        sxx = gaussian_filter(gx * gx, HARRIS_SIGMA)
        syy = gaussian_filter(gy * gy, HARRIS_SIGMA)
        sxy = gaussian_filter(gx * gy, HARRIS_SIGMA)
        resp = sxx * syy - sxy * sxy - HARRIS_K * (sxx + syy) ** 2
    if not np.isfinite(resp).all():
        raise ValueError("the image's Harris response overflows; scale its intensities down")
    return resp


def _refine_subpixel(resp: np.ndarray, r: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Sub-pixel (x, y) rows of the interior peaks ``resp[r, c]``: the quadratic fit's
    offset clamped to half a pixel, or none where |det| of the Hessian < 1e-12."""
    gx = (resp[r, c + 1] - resp[r, c - 1]) / 2.0
    gy = (resp[r + 1, c] - resp[r - 1, c]) / 2.0
    dxx = resp[r, c + 1] - 2 * resp[r, c] + resp[r, c - 1]
    dyy = resp[r + 1, c] - 2 * resp[r, c] + resp[r - 1, c]
    dxy = (resp[r + 1, c + 1] - resp[r + 1, c - 1] - resp[r - 1, c + 1] + resp[r - 1, c - 1]) / 4.0
    det = dxx * dyy - dxy * dxy
    fit = np.abs(det) >= 1e-12
    ox = np.divide(-(dyy * gx - dxy * gy), det, out=np.zeros_like(det), where=fit)
    oy = np.divide(-(dxx * gy - dxy * gx), det, out=np.zeros_like(det), where=fit)
    return np.stack([c + np.clip(ox, -0.5, 0.5), r + np.clip(oy, -0.5, 0.5)], axis=1)


def _downsample2(image: np.ndarray) -> np.ndarray:
    h, w = image.shape
    img = image[: h - h % 2, : w - w % 2]
    return 0.25 * (img[0::2, 0::2] + img[1::2, 0::2] + img[0::2, 1::2] + img[1::2, 1::2])


def _running_max(values: np.ndarray) -> np.ndarray:
    """``maximum_filter(values, 2 * NMS_RADIUS + 1, mode="nearest")`` of a 2-D
    array without nan, bit for bit: per axis, the edge-padded array's
    maxima over windows of 1, 2, 4, ... elements, doubled while that fits
    the window, then two overlapping ones that span it. A maximum is one
    of its inputs, so the order of the comparisons cannot round."""
    size = 2 * NMS_RADIUS + 1
    for axis in (0, 1):
        pad = [(0, 0), (0, 0)]
        pad[axis] = (NMS_RADIUS, NMS_RADIUS)
        run = np.moveaxis(np.pad(values, pad, mode="edge"), axis, 0)
        width = 1
        while 2 * width <= size:
            run = np.maximum(run[:-width], run[width:])
            width *= 2
        values = np.moveaxis(np.maximum(run[: len(run) - size + width], run[size - width :]), 0, axis)
    return values


def _suppress(xy: np.ndarray, response: np.ndarray, width: int, height: int, max_count: int) -> np.ndarray:
    """Indices that greedy radius NMS keeps, by ``detect_keypoints``'s rule.

    The pairs of in-image candidates strictly closer than ``NMS_RADIUS``
    are found by sorting them by x and comparing each with the next ones
    while their x gap stays below ``NMS_RADIUS`` (a pair that far apart in
    x fails the distance test); the greedy pass then only sets flags. For
    n candidates, p close pairs and at most w candidates within an x gap
    of ``NMS_RADIUS`` of one, that takes O(n log n + n w) time and
    O(n + p) memory.
    """
    x, y = xy[:, 0], xy[:, 1]
    inside = (x >= 0) & (x <= width - 1) & (y >= 0) & (y <= height - 1)
    order = np.nonzero(inside)[0]
    order = order[np.argsort(x[order], kind="stable")]
    xs = x[order]
    near = [np.zeros((2, 0), dtype=np.int64)]
    for shift in range(1, len(order)):
        k = np.nonzero(xs[shift:] - xs[:-shift] < NMS_RADIUS)[0]
        if not len(k):
            break  # x is sorted, so a longer shift has no smaller gap
        i, j = order[k], order[k + shift]
        close = (x[j] - x[i]) ** 2 + (y[j] - y[i]) ** 2 < NMS_RADIUS**2
        near += [np.stack([i[close], j[close]]), np.stack([j[close], i[close]])]
    source, target = np.concatenate(near, axis=1)
    by_source = np.argsort(source, kind="stable")
    neighbours = target[by_source].tolist()
    start = np.searchsorted(source[by_source], np.arange(len(xy) + 1)).tolist()
    blocked = (~inside).tolist()
    kept = []
    for i in np.argsort(-response, kind="stable").tolist():
        if blocked[i]:
            continue
        kept.append(i)
        if len(kept) == max_count:
            break
        for j in neighbours[start[i] : start[i + 1]]:
            blocked[j] = True
    return np.array(kept, dtype=np.int64)


def _candidates(image: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (xy, scale, response) candidates of ``detect_keypoints`` in candidate
    order, before suppression, from a finite float64 image."""
    levels = [(np.zeros((0, 2)), np.zeros(0), np.zeros(0))]
    level_img = image
    for level in range(DETECTION_LEVELS):
        if min(level_img.shape) < 24:
            break
        resp = _harris_response(level_img)
        peak = resp.max()
        if peak > 1e-12:
            rows, cols = np.nonzero((resp == _running_max(resp)) & (resp > 0.005 * peak))
            (lh, lw), m = resp.shape, NMS_RADIUS
            keep = (rows >= m) & (rows < lh - m) & (cols >= m) & (cols < lw - m)
            rows, cols = rows[keep], cols[keep]
            factor = 2.0**level
            offset = (factor - 1.0) / 2.0  # pyramid pixel centers sit between parents
            xy = _refine_subpixel(resp, rows, cols) * factor + offset
            levels.append((xy, np.full(len(xy), BASE_SCALE * factor), resp[rows, cols]))
        level_img = _downsample2(level_img)
    return tuple(np.concatenate(parts) for parts in zip(*levels))


def detect_keypoints(image: np.ndarray, max_count: int) -> KeypointSet:
    """Two-level Harris corners with NMS and sub-pixel quadratic refinement.

    Candidates are the peaks of each level's Harris response above 0.5% of
    its maximum, level 0 first and row-major within a level, refined and
    mapped to full resolution. They are kept strongest first, ties to the
    lowest candidate index. A candidate outside the image is skipped; one
    strictly closer than ``NMS_RADIUS`` to a keypoint already kept is
    dropped, so only kept keypoints suppress. At most ``max_count`` are
    kept; a constant image yields an empty set. The scale is the detector
    window diameter at the level the corner fired on. ``max_count`` must be
    an integer >= 1, the image finite and its Harris response too.
    """
    check_count(max_count, "max_count")
    image = np.asarray(image, dtype=np.float64)
    h, w = image.shape
    if h < 32 or w < 32:
        raise ValueError(f"image {h}x{w} too small, need at least 32x32")
    if not np.isfinite(image).all():
        raise ValueError("image has non-finite pixels")
    xy, scale, response = _candidates(image)
    kept = _suppress(xy, response, w, h, max_count)
    return KeypointSet(xy[kept], scale[kept], response[kept])


def describe(image: np.ndarray, kps: KeypointSet) -> np.ndarray:
    """Mean-free, L2-normalized intensity patches of side ``PATCH``, bilinearly
    sampled: one (n, PATCH**2) row per keypoint.

    Border keypoints use edge-clamped sampling; flat patches become zero
    vectors instead of dividing by a vanishing norm.
    """
    if not len(kps):
        return np.zeros((0, PATCH * PATCH))
    offs = np.arange(PATCH, dtype=np.float64) - PATCH // 2
    xs = kps.xy[:, 0][:, None, None] + offs[None, None, :]
    ys = kps.xy[:, 1][:, None, None] + offs[None, :, None]
    patches = bilinear_sample(np.asarray(image, dtype=np.float64), xs, ys).reshape(len(kps), -1)
    patches -= patches.mean(axis=1, keepdims=True)
    norms = np.linalg.norm(patches, axis=1, keepdims=True)
    return np.where(norms > 1e-12, patches / np.where(norms > 1e-12, norms, 1.0), 0.0)


def _nearest_two(dist_rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per row: the nearest candidate, its distance and the runner-up distance.

    An infinite distance marks a non-candidate. Ties go to the lowest index;
    a row with a single candidate gets a nan runner-up. Every row must hold
    at least one candidate.
    """
    best = dist_rows.argmin(axis=1)
    rows = np.arange(len(dist_rows))
    d1 = dist_rows[rows, best]
    masked = dist_rows.copy()
    masked[rows, best] = np.inf
    d2 = masked.min(axis=1)
    return best, d1, np.where(np.isinf(d2), np.nan, d2)


def _match_masked(desc_a: np.ndarray, desc_b: np.ndarray, mask: np.ndarray):
    """Nearest descriptor among the candidates ``mask[i]`` of each source row.

    Distances are evaluated only over candidate pairs; rows without a
    candidate stay unmatched. Returns (index_a, index_b, distance,
    second_distance) for the rows that matched.
    """
    rows, cols = np.nonzero(mask)
    dist = np.full(mask.shape, np.inf)
    dist[rows, cols] = np.linalg.norm(desc_b[cols] - desc_a[rows], axis=1)
    index_a = np.nonzero(mask.any(axis=1))[0]
    if not len(index_a):
        return index_a, index_a.copy(), np.zeros(0), np.zeros(0)
    return (index_a, *_nearest_two(dist[index_a]))


def match_raw(desc_a: np.ndarray, desc_b: np.ndarray) -> MatchSet:
    """Plain nearest neighbor in descriptor space; ties to the lowest index."""
    if not len(desc_a) or not len(desc_b):
        raise MatchingError("both descriptor sets must be non-empty")
    a, b = desc_a, desc_b
    d2 = np.maximum(
        (a * a).sum(1)[:, None] + (b * b).sum(1)[None, :] - 2.0 * (a @ b.T), 0.0
    )
    d = np.sqrt(d2)
    best, d1, d2nd = _nearest_two(d)
    return MatchSet(np.arange(len(a)), best, d1, d2nd)


def match_guided(
    kps_a: KeypointSet,
    desc_a: np.ndarray,
    kps_b: KeypointSet,
    desc_b: np.ndarray,
    match_field: CoarseMatchField,
    window_px: float,
) -> MatchSet:
    """Best descriptor among B keypoints within ``window_px`` of the coarse match.

    The window test is strict (< W) in original-image pixels; the coarse
    field's interpolated match is mapped back through its resize scales.
    Source keypoints outside the source image, where the field is undefined,
    and those with an empty candidate window are left unmatched. With an
    infinite window this is exactly raw matching.
    """
    if not window_px > 0:  # catches nan and -inf as well
        raise ConfigError(f"window must be positive, got {window_px}")
    if math.isinf(window_px):
        return match_raw(desc_a, desc_b)
    queries = kps_a.xy * np.array(match_field.scale_src)
    h_px, w_px = match_field.src_image_size
    qx, qy = queries[:, 0], queries[:, 1]
    inside = (qx >= 0) & (qx < w_px) & (qy >= 0) & (qy < h_px)
    mapped = interpolate_matches(match_field, queries[inside]) / np.array(match_field.scale_tgt)
    mask = np.zeros((len(kps_a), len(kps_b)), dtype=bool)
    offsets = mapped[:, None, :] - kps_b.xy[None, :, :]
    mask[inside] = np.hypot(offsets[..., 0], offsets[..., 1]) < window_px
    return MatchSet(*_match_masked(desc_a, desc_b, mask))


def mutual_check(ab: MatchSet, ba: MatchSet) -> MatchSet:
    """Keep (a, b) only when the reverse matching maps b back to a."""
    back = np.full(max(ab.index_b.max(initial=-1), ba.index_a.max(initial=-1)) + 1, -1)
    back[ba.index_a] = ba.index_b
    keep = np.nonzero(back[ab.index_b] == ab.index_a)[0]
    return MatchSet(ab.index_a[keep], ab.index_b[keep], ab.distance[keep], ab.second_distance[keep])


def ratio_test(ms: MatchSet, ratio: float) -> MatchSet:
    """Keep matches with d1 < ratio * d2; matches without a runner-up stay."""
    keep = np.isnan(ms.second_distance) | (ms.distance < ratio * ms.second_distance)
    idx = np.nonzero(keep)[0]
    return MatchSet(ms.index_a[idx], ms.index_b[idx], ms.distance[idx], ms.second_distance[idx])


def _top_scale_indices(kps: KeypointSet) -> np.ndarray:
    """The largest-scale fifth of the keypoints, at least 8, stronger response
    first within a scale, ties to the lowest index."""
    k = max(8, math.ceil(0.2 * len(kps)))
    return np.lexsort((-kps.response, -kps.scale))[:k]


def _band_distances(F: FundamentalMatrix | np.ndarray, xy_a: np.ndarray, xy_b: np.ndarray) -> np.ndarray:
    """(n_a, n_b) distances of each B point to each A point's epipolar line.

    They equal ``epipolar_distances`` of every (A, B) pair bit for bit, with
    each A point's line computed once: a row of a matrix product does not
    depend on the other rows, given two or more (``match_model_guided``
    passes at least 8); a one-row product takes another BLAS path.
    """
    return line_distances(epipolar_lines(F, xy_a)[:, None], xy_b)


def match_epipolar_band(
    kps_a: KeypointSet, desc_a: np.ndarray, kps_b: KeypointSet, desc_b: np.ndarray,
    F: FundamentalMatrix | np.ndarray, band_px: float,
) -> MatchSet:
    """Best descriptor among the B keypoints strictly within ``band_px`` of
    the source keypoint's epipolar line under ``F``; source keypoints with
    an empty band are left unmatched."""
    dists = _band_distances(F, kps_a.xy, kps_b.xy)
    return MatchSet(*_match_masked(desc_a, desc_b, dists < band_px))


def match_model_guided(
    kps_a: KeypointSet,
    desc_a: np.ndarray,
    kps_b: KeypointSet,
    desc_b: np.ndarray,
    band_px: float,
) -> MatchSet:
    """Classical two-stage guided baseline.

    Stage 1 matches the top 20% of keypoints by scale (mutually) and fits a
    fundamental matrix to them robustly, with ``band_px`` as the RANSAC
    threshold; stage 2 is ``match_epipolar_band`` under that matrix. With
    an infinite band this is exactly raw matching.
    """
    if band_px == math.inf:
        return match_raw(desc_a, desc_b)
    cfg = rp.RansacConfig(threshold=band_px, seed=0)  # rejects a nan, -inf or non-positive band
    if len(kps_a) < 8 or len(kps_b) < 8:
        raise MatchingError("too few keypoints for the scale-based first stage")
    top_a = _top_scale_indices(kps_a)
    top_b = _top_scale_indices(kps_b)
    sub_a, sub_b = desc_a[top_a], desc_b[top_b]
    seeds = mutual_check(match_raw(sub_a, sub_b), match_raw(sub_b, sub_a))
    if len(seeds) < 8:
        raise MatchingError(f"only {len(seeds)} mutual top-scale matches, need 8")
    seed_a, seed_b = kps_a.xy[top_a[seeds.index_a]], kps_b.xy[top_b[seeds.index_b]]
    estimate = rp.ransac_fundamental(seed_a, seed_b, cfg)
    if not estimate.success:
        raise MatchingError("stage-1 fundamental matrix estimation failed")
    return match_epipolar_band(kps_a, desc_a, kps_b, desc_b, estimate.matrix, band_px)


# -- file formats --------------------------------------------------------------


def save_matches(path, ms: MatchSet, kps_a: KeypointSet, kps_b: KeypointSet) -> None:
    """CSV rows `iA,iB,xA,yA,xB,yB,dist`."""
    lines = ["iA,iB,xA,yA,xB,yB,dist"]
    coords_a, coords_b = match_coords(ms, kps_a, kps_b)
    for ia, ib, (xa, ya), (xb, yb), d in zip(
        ms.index_a.tolist(), ms.index_b.tolist(), coords_a.tolist(), coords_b.tolist(), ms.distance.tolist()
    ):
        lines.append(",".join([str(ia), str(ib)] + [repr(v) for v in (xa, ya, xb, yb, d)]))
    Path(path).write_text("\n".join(lines) + "\n")


def match_coords(ms: MatchSet, kps_a: KeypointSet, kps_b: KeypointSet) -> tuple[np.ndarray, np.ndarray]:
    """Positions of the matched keypoints, one row per match in each image."""
    return kps_a.xy[ms.index_a], kps_b.xy[ms.index_b]
