"""Local keypoints and the matching rules that consume coarse guidance.

Detection and description are deliberately simple desk-scale stand-ins
(two-level Harris corners, mean-free normalized intensity patches). Every
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
from scipy.ndimage import gaussian_filter, maximum_filter

from guidematch.coarse_matcher import CoarseMatchField, interpolate_matches
from guidematch.geometry.epipolar import FundamentalMatrix, epipolar_distances
from guidematch.imageops import bilinear_sample

HARRIS_K = 0.06
HARRIS_SIGMA = 1.5
NMS_RADIUS = 4
DETECTION_LEVELS = 2
BASE_SCALE = 9.0  # detector window diameter at full resolution


class MatchingError(RuntimeError):
    pass


@dataclass
class Keypoint:
    x: float
    y: float
    scale: float
    response: float


@dataclass
class DescriptorSet:
    vectors: np.ndarray  # (n, dim), unit rows (or all-zero for flat patches)

    def __len__(self) -> int:
        return len(self.vectors)


@dataclass
class MatchSet:
    """Per-source-keypoint best matches with the bookkeeping pruning needs."""

    index_a: np.ndarray
    index_b: np.ndarray
    distance: np.ndarray
    second_distance: np.ndarray  # nan when the candidate set had one element

    def __post_init__(self):
        n = len(self.index_a)
        assert len(self.index_b) == len(self.distance) == len(self.second_distance) == n
        if n and len(np.unique(self.index_a)) != n:
            raise ValueError("at most one match per source index")

    def __len__(self) -> int:
        return len(self.index_a)

    def pairs(self) -> list[tuple[int, int]]:
        return list(zip(self.index_a.tolist(), self.index_b.tolist()))


def keypoint_coords(kps: list[Keypoint]) -> np.ndarray:
    return np.array([[k.x, k.y] for k in kps], dtype=np.float64).reshape(-1, 2)


def _harris_response(image: np.ndarray) -> np.ndarray:
    gy, gx = np.gradient(image)
    sxx = gaussian_filter(gx * gx, HARRIS_SIGMA)
    syy = gaussian_filter(gy * gy, HARRIS_SIGMA)
    sxy = gaussian_filter(gx * gy, HARRIS_SIGMA)
    return sxx * syy - sxy * sxy - HARRIS_K * (sxx + syy) ** 2


def _refine_subpixel(resp: np.ndarray, r: int, c: int) -> tuple[float, float]:
    gx = (resp[r, c + 1] - resp[r, c - 1]) / 2.0
    gy = (resp[r + 1, c] - resp[r - 1, c]) / 2.0
    dxx = resp[r, c + 1] - 2 * resp[r, c] + resp[r, c - 1]
    dyy = resp[r + 1, c] - 2 * resp[r, c] + resp[r - 1, c]
    dxy = (resp[r + 1, c + 1] - resp[r + 1, c - 1] - resp[r - 1, c + 1] + resp[r - 1, c - 1]) / 4.0
    det = dxx * dyy - dxy * dxy
    if abs(det) < 1e-12:
        return float(c), float(r)
    ox = -(dyy * gx - dxy * gy) / det
    oy = -(dxx * gy - dxy * gx) / det
    ox = min(0.5, max(-0.5, ox))
    oy = min(0.5, max(-0.5, oy))
    return c + ox, r + oy


def _downsample2(image: np.ndarray) -> np.ndarray:
    h, w = image.shape
    img = image[: h - h % 2, : w - w % 2]
    return 0.25 * (img[0::2, 0::2] + img[1::2, 0::2] + img[0::2, 1::2] + img[1::2, 1::2])


def detect_keypoints(image: np.ndarray, max_count: int = 500) -> list[Keypoint]:
    """Two-level Harris corners with NMS and sub-pixel quadratic refinement.

    Keypoints are ordered by response, strongest first; a constant image
    yields none. The scale attribute is the detector window diameter at the
    level the corner fired on.
    """
    h, w = image.shape
    if h < 32 or w < 32:
        raise ValueError(f"image {h}x{w} too small, need at least 32x32")
    candidates: list[Keypoint] = []
    level_img = np.asarray(image, dtype=np.float64)
    for level in range(DETECTION_LEVELS):
        if min(level_img.shape) < 24:
            break
        resp = _harris_response(level_img)
        peak = resp.max()
        if peak <= 1e-12:
            level_img = _downsample2(level_img)
            continue
        nms = maximum_filter(resp, size=2 * NMS_RADIUS + 1, mode="nearest")
        rows, cols = np.nonzero((resp == nms) & (resp > 0.005 * peak))
        margin = NMS_RADIUS
        lh, lw = resp.shape
        keep = (rows >= margin) & (rows < lh - margin) & (cols >= margin) & (cols < lw - margin)
        factor = 2.0**level
        offset = (factor - 1.0) / 2.0  # pyramid pixel centers sit between parents
        for r, c in zip(rows[keep], cols[keep]):
            x, y = _refine_subpixel(resp, r, c)
            candidates.append(
                Keypoint(x * factor + offset, y * factor + offset, BASE_SCALE * factor, float(resp[r, c]))
            )
        level_img = _downsample2(level_img)
    if not candidates:
        return []
    order = sorted(range(len(candidates)), key=lambda i: (-candidates[i].response, i))
    kept: list[Keypoint] = []
    kept_xy: list[tuple[float, float]] = []
    for i in order:
        k = candidates[i]
        if not (0 <= k.x <= w - 1 and 0 <= k.y <= h - 1):
            continue
        if any((k.x - x) ** 2 + (k.y - y) ** 2 < NMS_RADIUS**2 for x, y in kept_xy):
            continue
        kept.append(k)
        kept_xy.append((k.x, k.y))
        if len(kept) == max_count:
            break
    return kept


def describe(image: np.ndarray, kps: list[Keypoint], patch: int = 13) -> DescriptorSet:
    """Mean-free, L2-normalized intensity patches, bilinearly sampled.

    Border keypoints use edge-clamped sampling; flat patches become zero
    vectors instead of dividing by a vanishing norm.
    """
    if patch % 2 == 0:
        raise ValueError(f"patch side must be odd, got {patch}")
    if not kps:
        return DescriptorSet(np.zeros((0, patch * patch)))
    offs = np.arange(patch, dtype=np.float64) - patch // 2
    coords = keypoint_coords(kps)
    xs = coords[:, 0][:, None, None] + offs[None, None, :]
    ys = coords[:, 1][:, None, None] + offs[None, :, None]
    patches = bilinear_sample(np.asarray(image, dtype=np.float64), xs, ys).reshape(len(kps), -1)
    patches -= patches.mean(axis=1, keepdims=True)
    norms = np.linalg.norm(patches, axis=1, keepdims=True)
    out = np.where(norms > 1e-12, patches / np.where(norms > 1e-12, norms, 1.0), 0.0)
    return DescriptorSet(out)


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


def _match_masked(desc_a: DescriptorSet, desc_b: DescriptorSet, mask: np.ndarray):
    """Nearest descriptor among the candidates ``mask[i]`` of each source row.

    Distances are evaluated only over candidate pairs; rows without a
    candidate stay unmatched. Returns (index_a, index_b, distance,
    second_distance) for the rows that matched.
    """
    rows, cols = np.nonzero(mask)
    dist = np.full(mask.shape, np.inf)
    dist[rows, cols] = np.linalg.norm(desc_b.vectors[cols] - desc_a.vectors[rows], axis=1)
    index_a = np.nonzero(mask.any(axis=1))[0]
    if not len(index_a):
        return index_a, index_a.copy(), np.zeros(0), np.zeros(0)
    return (index_a, *_nearest_two(dist[index_a]))


def match_raw(desc_a: DescriptorSet, desc_b: DescriptorSet) -> MatchSet:
    """Plain nearest neighbor in descriptor space; ties to the lowest index."""
    if not len(desc_a) or not len(desc_b):
        raise MatchingError("both descriptor sets must be non-empty")
    a, b = desc_a.vectors, desc_b.vectors
    d2 = np.maximum(
        (a * a).sum(1)[:, None] + (b * b).sum(1)[None, :] - 2.0 * (a @ b.T), 0.0
    )
    d = np.sqrt(d2)
    best, d1, d2nd = _nearest_two(d)
    return MatchSet(np.arange(len(a)), best, d1, d2nd)


def match_guided(
    kps_a: list[Keypoint],
    desc_a: DescriptorSet,
    kps_b: list[Keypoint],
    desc_b: DescriptorSet,
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
    if math.isinf(window_px):
        return match_raw(desc_a, desc_b)
    if window_px <= 0:
        raise ValueError(f"window must be positive, got {window_px}")
    coords_a = keypoint_coords(kps_a)
    coords_b = keypoint_coords(kps_b)
    queries = coords_a * np.array(match_field.scale_src)
    h_px, w_px = match_field.src_image_size
    qx, qy = queries[:, 0], queries[:, 1]
    inside = (qx >= 0) & (qx < w_px) & (qy >= 0) & (qy < h_px)
    mapped = interpolate_matches(match_field, queries[inside]) / np.array(match_field.scale_tgt)
    mask = np.zeros((len(coords_a), len(coords_b)), dtype=bool)
    mask[inside] = (
        np.hypot(mapped[:, None, 0] - coords_b[None, :, 0], mapped[:, None, 1] - coords_b[None, :, 1])
        < window_px
    )
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


def _top_scale_indices(kps: list[Keypoint], fraction: float = 0.2) -> np.ndarray:
    k = max(8, math.ceil(fraction * len(kps)))
    order = sorted(range(len(kps)), key=lambda i: (-kps[i].scale, -kps[i].response, i))
    return np.array(order[:k], dtype=np.int64)


def match_model_guided(
    kps_a: list[Keypoint],
    desc_a: DescriptorSet,
    kps_b: list[Keypoint],
    desc_b: DescriptorSet,
    band_px: float = 3.0,
    model_override: FundamentalMatrix | None = None,
) -> MatchSet:
    """Classical two-stage guided baseline.

    Stage 1 matches the top 20% of keypoints by scale (mutually) and fits a
    fundamental matrix to them robustly; stage 2 re-matches every source
    keypoint against the B keypoints lying within ``band_px`` of its
    epipolar line. ``model_override`` skips stage 1, which tests use to
    inject a known or a deliberately wrong geometry.
    """
    from guidematch.robust_pose import RansacConfig, ransac_fundamental

    if math.isinf(band_px):
        return match_raw(desc_a, desc_b)
    if model_override is not None:
        fmat = model_override.matrix
    else:
        if len(kps_a) < 8 or len(kps_b) < 8:
            raise MatchingError("too few keypoints for the scale-based first stage")
        top_a = _top_scale_indices(kps_a)
        top_b = _top_scale_indices(kps_b)
        sub_a = DescriptorSet(desc_a.vectors[top_a])
        sub_b = DescriptorSet(desc_b.vectors[top_b])
        seeds_ab = match_raw(sub_a, sub_b)
        seeds_ba = match_raw(sub_b, sub_a)
        seeds = mutual_check(seeds_ab, seeds_ba)
        if len(seeds) < 8:
            raise MatchingError(f"only {len(seeds)} mutual top-scale matches, need 8")
        coords_a = keypoint_coords(kps_a)[top_a[seeds.index_a]]
        coords_b = keypoint_coords(kps_b)[top_b[seeds.index_b]]
        estimate = ransac_fundamental(coords_a, coords_b, RansacConfig(threshold=band_px, seed=0))
        if not estimate.success:
            raise MatchingError("stage-1 fundamental matrix estimation failed")
        fmat = estimate.matrix
    coords_a = keypoint_coords(kps_a)
    coords_b = keypoint_coords(kps_b)
    ia, ib = np.indices((len(coords_a), len(coords_b))).reshape(2, -1)
    dists = epipolar_distances(fmat, coords_a[ia], coords_b[ib]).reshape(len(coords_a), len(coords_b))
    return MatchSet(*_match_masked(desc_a, desc_b, dists < band_px))


# -- file formats --------------------------------------------------------------


def save_matches(path, ms: MatchSet, kps_a: list[Keypoint], kps_b: list[Keypoint]) -> None:
    """CSV rows `iA,iB,xA,yA,xB,yB,dist`."""
    lines = ["iA,iB,xA,yA,xB,yB,dist"]
    for i in range(len(ms)):
        a = kps_a[int(ms.index_a[i])]
        b = kps_b[int(ms.index_b[i])]
        vals = [str(int(ms.index_a[i])), str(int(ms.index_b[i]))]
        vals += [repr(float(v)) for v in (a.x, a.y, b.x, b.y, ms.distance[i])]
        lines.append(",".join(vals))
    Path(path).write_text("\n".join(lines) + "\n")


def match_coords(ms: MatchSet, kps_a: list[Keypoint], kps_b: list[Keypoint]) -> tuple[np.ndarray, np.ndarray]:
    ca = keypoint_coords(kps_a)
    cb = keypoint_coords(kps_b)
    return ca[ms.index_a], cb[ms.index_b]
