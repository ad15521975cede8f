"""Robust two-view geometry: normalized 8-point inside RANSAC plus pose recovery.

The essential matrix is estimated with the 8-point solver in calibrated
coordinates followed by projection onto the essential manifold; inliers are
scored with the Sampson distance in pixels. Pose recovery picks among the
four decompositions by cheirality, requiring a strict majority of
triangulated points in front of both cameras.

RANSAC fits and scores its hypotheses in blocks of up to 64: one batched
8-point solver (``_eight_point_batch``) fits every minimal sample of a block
and one batched Sampson pass scores them all against the full set. The
samples are drawn in iteration order from the same generator calls, and the
block is then walked in that order with the one-at-a-time update and
adaptive stop, so iteration counts, inlier sets and matrices equal those of
fitting one hypothesis per iteration bit for bit. Each row of a batched call
goes through the same floating-point operations as a one-row call (norms are
per-slice dot products, degenerate rows are masked before any division), so
``eight_point`` and ``sampson_distances`` are simply the B=1 calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from guidematch.geometry.epipolar import FRAME_ORIGINAL, FundamentalMatrix, RelativePose


class EstimationError(RuntimeError):
    pass


class DegenerateConfigurationError(EstimationError):
    pass


class PoseRecoveryError(EstimationError):
    pass


@dataclass
class RansacConfig:
    threshold: float = 1.0  # Sampson, px
    max_iters: int = 10_000
    confidence: float = 0.999
    seed: int = 0

    def __post_init__(self):
        if self.threshold <= 0:
            raise ValueError("threshold must be positive")
        if not 0.0 < self.confidence < 1.0:
            raise ValueError("confidence must be in (0, 1)")


@dataclass
class ModelEstimate:
    matrix: np.ndarray | None
    inliers: np.ndarray
    iterations: int
    success: bool
    kind: str = "fundamental"


# Ways a minimal sample or a consensus set can fail the 8-point fit, in the
# order they are checked: _eight_point_batch reports the index of the first.
_FAULTS = (
    None,
    (DegenerateConfigurationError, "all points coincide"),
    (
        DegenerateConfigurationError,
        "design matrix is rank deficient, configuration does not determine the geometry",
    ),
    (ValueError, "matrix has rank < 2, cannot canonicalize"),
    (ValueError, "matrix is not rank 2"),
    (ValueError, "matrix must have Frobenius norm 1"),
)


def _frobenius(m: np.ndarray) -> np.ndarray:
    """Frobenius norm of each (3, 3) slice, as ``np.linalg.norm`` of one slice
    computes it: a dot product of the flattened entries."""
    flat = m.reshape(len(m), 1, 9)
    return np.sqrt(np.matmul(flat, flat.transpose(0, 2, 1))[:, 0, 0])


def _hartley_normalize(pts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per sample of (B, m, 2) points: the centered, scaled points, the (B, 3, 3)
    similarity that applies it, and whether the points are spread at all."""
    centroid = pts.mean(axis=1)
    centered = pts - centroid[:, None]
    mean_dist = np.linalg.norm(centered, axis=2).mean(axis=1)
    spread = mean_dist >= 1e-12
    s = math.sqrt(2.0) / np.where(spread, mean_dist, 1.0)
    T = np.zeros((len(pts), 3, 3))
    T[:, 0, 0] = T[:, 1, 1] = s
    T[:, :2, 2] = -s[:, None] * centroid
    T[:, 2, 2] = 1.0
    return centered * s[:, None, None], T, spread


def _eight_point_batch(sa: np.ndarray, sb: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Hartley-normalized 8-point fits of B samples of (B, m, 2) points at once.

    Returns the (B, 3, 3) matrices, canonicalized as
    ``FundamentalMatrix.from_array`` does, and a (B,) int array: 0 where the
    fit passes every check ``eight_point`` and ``FundamentalMatrix`` make,
    else the index in ``_FAULTS`` of the first check it fails. Every row goes
    through the same operations a one-row call would, so each row equals its
    own B=1 call bit for bit; a failed row holds finite garbage.
    """
    na, ta, spread_a = _hartley_normalize(sa)
    nb, tb, spread_b = _hartley_normalize(sb)
    xa, ya = na[..., 0], na[..., 1]
    xb, yb = nb[..., 0], nb[..., 1]
    design = np.stack([xb * xa, xb * ya, xb, yb * xa, yb * ya, yb, xa, ya, np.ones_like(xa)], axis=-1)
    _, sv, vt = np.linalg.svd(design)
    determined = sv[:, 7] > 1e-9 * sv[:, 0]
    f_px = tb.transpose(0, 2, 1) @ vt[:, -1].reshape(-1, 3, 3) @ ta
    # FundamentalMatrix.from_array: rank-2 projection, unit norm, sign
    u, s, vt = np.linalg.svd(f_px)
    rank_two = s[:, 1] > 0
    m2 = (u[:, :, :2] * s[:, None, :2]) @ vt[:, :2]
    norm = _frobenius(m2)
    m2 = m2 / np.where(norm > 0, norm, 1.0)[:, None, None]
    flat = m2.reshape(-1, 9)
    largest = flat[np.arange(len(flat)), np.argmax(np.abs(flat), axis=1)]
    m2 = np.where((largest < 0)[:, None, None], -m2, m2)
    # FundamentalMatrix validation
    s = np.linalg.svd(m2, compute_uv=False)
    passes = np.stack(
        [
            spread_a & spread_b,
            determined,
            rank_two,
            ~(s[:, 2] > 1e-9 * s[:, 0]),
            ~(np.abs(_frobenius(m2) - 1.0) > 1e-9),
        ]
    )
    return m2, np.where(passes.all(axis=0), 0, np.argmin(passes, axis=0) + 1)


def eight_point(pts_a: np.ndarray, pts_b: np.ndarray, frame: str = FRAME_ORIGINAL) -> FundamentalMatrix:
    """Hartley-normalized linear solve with rank-2 projection.

    Raises DegenerateConfigurationError when the design matrix does not pin
    the solution down to a single direction (e.g. all points on one plane
    under a homography, or a pure rotation).
    """
    pts_a = np.asarray(pts_a, dtype=np.float64).reshape(-1, 2)
    pts_b = np.asarray(pts_b, dtype=np.float64).reshape(-1, 2)
    if len(pts_a) != len(pts_b):
        raise ValueError("point lists differ in length")
    if len(pts_a) < 8:
        raise ValueError(f"need at least 8 correspondences, got {len(pts_a)}")
    matrices, fault = _eight_point_batch(pts_a[None], pts_b[None])
    if fault[0]:
        error, message = _FAULTS[fault[0]]
        raise error(message)
    return FundamentalMatrix(matrices[0], frame)


def _sampson_batch(m: np.ndarray, pts_a: np.ndarray, pts_b: np.ndarray) -> np.ndarray:
    """(B, n) Sampson distances, in pixels, of n correspondences to each of B
    (B, 3, 3) matrices; +inf where the first-order denominator vanishes."""
    ha = np.column_stack([pts_a, np.ones(len(pts_a))])
    hb = np.column_stack([pts_b, np.ones(len(pts_b))])
    fa = ha @ m.transpose(0, 2, 1)  # F @ x_a per row
    fb = hb @ m  # F^T @ x_b per row
    e = np.abs((hb * fa).sum(axis=2))
    denom2 = fa[..., 0] ** 2 + fa[..., 1] ** 2 + fb[..., 0] ** 2 + fb[..., 1] ** 2
    ok = denom2 > 0.0
    return np.where(ok, e / np.sqrt(np.where(ok, denom2, 1.0)), np.inf)


def sampson_distances(F: FundamentalMatrix | np.ndarray, pts_a: np.ndarray, pts_b: np.ndarray) -> np.ndarray:
    """First-order geometric residual of each correspondence, in pixels."""
    m = np.asarray(getattr(F, "matrix", F), dtype=np.float64)
    pts_a = np.asarray(pts_a, dtype=np.float64).reshape(-1, 2)
    pts_b = np.asarray(pts_b, dtype=np.float64).reshape(-1, 2)
    return _sampson_batch(m[None], pts_a, pts_b)[0]


def _adaptive_iterations(inlier_ratio: float, confidence: float, sample_size: int) -> int:
    if inlier_ratio <= 0.0:
        return np.iinfo(np.int32).max
    if inlier_ratio >= 1.0:
        return 1
    denom = math.log1p(-(inlier_ratio**sample_size))
    if denom == 0.0:
        return 1
    return max(1, math.ceil(math.log(1.0 - confidence) / denom))


# hypotheses drawn, fitted and scored together; small enough that the draws
# past an early adaptive stop cost little
_BLOCK = 64


def _ransac_loop(pts_a, pts_b, cfg: RansacConfig, solve, residuals) -> ModelEstimate:
    """Minimal-sample RANSAC, scored a block of hypotheses at a time.

    ``solve`` maps (B, m, 2) samples to (B, 3, 3) models and (B,) fault
    codes, 0 for a usable model (as ``_eight_point_batch``); ``residuals`` maps (B, 3, 3) models to (B, n) distances. Samples
    are drawn one ``rng.choice`` at a time in iteration order and the block
    is walked in that order with the same update and stopping rule, so the
    result equals fitting and scoring one hypothesis per iteration.
    """
    n = len(pts_a)
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed]))
    best_matrix = None
    best_inliers = np.empty(0, dtype=np.int64)
    # exactly 8 points admit one distinct minimal sample: fit it once
    limit = 1 if n == 8 else cfg.max_iters
    needed = limit
    it = 0
    while it < needed:
        samples = np.stack([rng.choice(n, size=8, replace=False) for _ in range(min(_BLOCK, needed - it))])
        models, fault = solve(pts_a[samples], pts_b[samples])
        hits = residuals(models) < cfg.threshold
        counts = hits.sum(axis=1)
        for b in range(len(samples)):
            if it >= needed:
                break
            it += 1
            if fault[b] == 0 and counts[b] > len(best_inliers):
                best_matrix = models[b]
                best_inliers = np.nonzero(hits[b])[0]
                needed = min(limit, _adaptive_iterations(len(best_inliers) / n, cfg.confidence, 8))
    if best_matrix is None or len(best_inliers) < 8:
        return ModelEstimate(None, np.empty(0, dtype=np.int64), it, False)
    # iterated least-squares polish on the consensus set: a fit over all
    # inliers beats any minimal-sample hypothesis by a wide margin
    final = best_matrix
    final_inliers = best_inliers
    for _ in range(3):
        refit, fault = solve(pts_a[final_inliers][None], pts_b[final_inliers][None])
        if fault[0]:
            break
        refit_inliers = np.nonzero(residuals(refit)[0] < cfg.threshold)[0]
        if len(refit_inliers) < 8:
            break
        stable = np.array_equal(refit_inliers, final_inliers)
        final = refit[0]
        final_inliers = refit_inliers
        if stable:
            break
    final_inliers = np.nonzero(residuals(final[None])[0] < cfg.threshold)[0]
    if len(final_inliers) < 8:
        return ModelEstimate(None, np.empty(0, dtype=np.int64), it, False)
    return ModelEstimate(final, final_inliers, it, True)


def ransac_fundamental(pts_a: np.ndarray, pts_b: np.ndarray, cfg: RansacConfig) -> ModelEstimate:
    """Seeded minimal-sample RANSAC around the 8-point solver.

    Adaptive iteration bound from the running inlier ratio; the final model
    is refit on the consensus set and its inliers recomputed, so every
    reported inlier is within threshold of the returned matrix. Fewer than
    8 matches, or no model with 8 consistent inliers, yields a failure flag
    rather than an exception.
    """
    pts_a = np.asarray(pts_a, dtype=np.float64).reshape(-1, 2)
    pts_b = np.asarray(pts_b, dtype=np.float64).reshape(-1, 2)
    if len(pts_a) < 8:
        return ModelEstimate(None, np.empty(0, dtype=np.int64), 0, False)
    return _ransac_loop(pts_a, pts_b, cfg, _eight_point_batch, lambda m: _sampson_batch(m, pts_a, pts_b))


def _essential_project(m: np.ndarray) -> np.ndarray:
    """Nearest essential matrices, unit norm, of each (3, 3) slice of m."""
    u, s, vt = np.linalg.svd(m)
    sigma = 0.5 * (s[:, 0] + s[:, 1])
    e = (u[:, :, :2] * sigma[:, None, None]) @ vt[:, :2]
    norm = _frobenius(e)  # 0 only for the zero matrix of a failed fit
    return e / np.where(norm > 0, norm, 1.0)[:, None, None]


def ransac_essential(
    pts_a: np.ndarray, pts_b: np.ndarray, k_a: np.ndarray, k_b: np.ndarray, cfg: RansacConfig
) -> ModelEstimate:
    """8-point in calibrated coordinates, essential projection, pixel Sampson scoring."""
    pts_a = np.asarray(pts_a, dtype=np.float64).reshape(-1, 2)
    pts_b = np.asarray(pts_b, dtype=np.float64).reshape(-1, 2)
    if len(pts_a) < 8:
        return ModelEstimate(None, np.empty(0, dtype=np.int64), 0, False, kind="essential")
    inv_a = np.linalg.inv(k_a)
    inv_b = np.linalg.inv(k_b)
    norm_a = (np.column_stack([pts_a, np.ones(len(pts_a))]) @ inv_a.T)[:, :2]
    norm_b = (np.column_stack([pts_b, np.ones(len(pts_b))]) @ inv_b.T)[:, :2]

    def solve(sa, sb):
        f_norm, fault = _eight_point_batch(sa, sb)
        return _essential_project(f_norm), fault

    def residuals(e):
        # scored in pixels, through the calibrations
        return _sampson_batch(inv_b.T @ e @ inv_a, pts_a, pts_b)

    est = _ransac_loop(norm_a, norm_b, cfg, solve, residuals)
    est.kind = "essential"
    return est


_W = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])


def _triangulate(r: np.ndarray, t: np.ndarray, na: np.ndarray, nb: np.ndarray) -> np.ndarray:
    """DLT triangulation in normalized coordinates, P1 = [I|0], P2 = [R|t].

    One stacked SVD of the (n, 4, 4) DLT systems; a point whose homogeneous
    scale vanishes is at infinity.
    """
    p1 = np.hstack([np.eye(3), np.zeros((3, 1))])
    p2 = np.hstack([r, t[:, None]])
    rows = np.stack(
        [
            na[:, 0, None] * p1[2] - p1[0],
            na[:, 1, None] * p1[2] - p1[1],
            nb[:, 0, None] * p2[2] - p2[0],
            nb[:, 1, None] * p2[2] - p2[1],
        ],
        axis=1,
    )
    h = np.linalg.svd(rows)[2][:, -1]
    at_infinity = np.abs(h[:, 3]) < 1e-15
    xyz = h[:, :3] / np.where(at_infinity, 1.0, h[:, 3])[:, None]
    return np.where(at_infinity[:, None], np.inf, xyz)


def recover_pose(
    E: np.ndarray | ModelEstimate,
    pts_a: np.ndarray,
    pts_b: np.ndarray,
    k_a: np.ndarray,
    k_b: np.ndarray,
) -> RelativePose:
    """Resolve the four-way decomposition of E by cheirality.

    The winning (R, t) must put a strict majority of the triangulated
    correspondences in front of both cameras, otherwise the configuration is
    rejected.
    """
    e = E.matrix if isinstance(E, ModelEstimate) else np.asarray(E, dtype=np.float64)
    pts_a = np.asarray(pts_a, dtype=np.float64).reshape(-1, 2)
    pts_b = np.asarray(pts_b, dtype=np.float64).reshape(-1, 2)
    if len(pts_a) == 0:
        raise PoseRecoveryError("no correspondences to disambiguate the pose")
    na = (np.column_stack([pts_a, np.ones(len(pts_a))]) @ np.linalg.inv(k_a).T)[:, :2]
    nb = (np.column_stack([pts_b, np.ones(len(pts_b))]) @ np.linalg.inv(k_b).T)[:, :2]
    u, _, vt = np.linalg.svd(e)
    if np.linalg.det(u) < 0:
        u = -u
    if np.linalg.det(vt) < 0:
        vt = -vt
    r1 = u @ _W @ vt
    r2 = u @ _W.T @ vt
    t = u[:, 2]
    best = None
    best_count = -1
    for r_cand in (r1, r2):
        for t_cand in (t, -t):
            xyz = _triangulate(r_cand, t_cand, na, nb)
            with np.errstate(invalid="ignore"):
                depth1 = xyz[:, 2]
                depth2 = (xyz @ r_cand.T + t_cand)[:, 2]
                count = int(((depth1 > 0) & (depth2 > 0) & np.isfinite(depth1)).sum())
            if count > best_count:
                best_count = count
                best = (r_cand, t_cand)
    if best is None or best_count * 2 <= len(pts_a):
        raise PoseRecoveryError(
            f"no decomposition puts a majority of points in front of both cameras ({best_count}/{len(pts_a)})"
        )
    r_fin, t_fin = best
    return RelativePose(r_fin, t_fin / np.linalg.norm(t_fin))
