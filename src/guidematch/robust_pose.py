"""Robust two-view geometry: normalized 8-point inside RANSAC plus pose recovery.

The essential matrix is estimated with the 8-point solver in calibrated
coordinates followed by projection onto the essential manifold; inliers are
scored with the Sampson distance in pixels. Pose recovery picks among the
four decompositions by cheirality, requiring a strict majority of
triangulated points in front of both cameras.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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


def _hartley_normalize(pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    centroid = pts.mean(axis=0)
    centered = pts - centroid
    mean_dist = np.linalg.norm(centered, axis=1).mean()
    if mean_dist < 1e-12:
        raise DegenerateConfigurationError("all points coincide")
    s = math.sqrt(2.0) / mean_dist
    T = np.array([[s, 0.0, -s * centroid[0]], [0.0, s, -s * centroid[1]], [0.0, 0.0, 1.0]])
    return centered * s, T


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
    na, ta = _hartley_normalize(pts_a)
    nb, tb = _hartley_normalize(pts_b)
    xa, ya = na[:, 0], na[:, 1]
    xb, yb = nb[:, 0], nb[:, 1]
    design = np.column_stack([xb * xa, xb * ya, xb, yb * xa, yb * ya, yb, xa, ya, np.ones(len(xa))])
    _, sv, vt = np.linalg.svd(design)
    if sv[7] <= 1e-9 * sv[0]:
        raise DegenerateConfigurationError(
            "design matrix is rank deficient, configuration does not determine the geometry"
        )
    f_norm = vt[-1].reshape(3, 3)
    f_px = tb.T @ f_norm @ ta
    return FundamentalMatrix.from_array(f_px, frame)


def sampson_distances(F: FundamentalMatrix | np.ndarray, pts_a: np.ndarray, pts_b: np.ndarray) -> np.ndarray:
    """First-order geometric residual of each correspondence, in pixels."""
    m = getattr(F, "matrix", F)
    pts_a = np.asarray(pts_a, dtype=np.float64).reshape(-1, 2)
    pts_b = np.asarray(pts_b, dtype=np.float64).reshape(-1, 2)
    ha = np.column_stack([pts_a, np.ones(len(pts_a))])
    hb = np.column_stack([pts_b, np.ones(len(pts_b))])
    fa = ha @ m.T  # F @ x_a per row
    fb = hb @ m  # F^T @ x_b per row
    e = np.abs((hb * fa).sum(axis=1))
    denom2 = fa[:, 0] ** 2 + fa[:, 1] ** 2 + fb[:, 0] ** 2 + fb[:, 1] ** 2
    out = np.full(len(pts_a), np.inf)
    ok = denom2 > 0.0
    out[ok] = e[ok] / np.sqrt(denom2[ok])
    return out


def _adaptive_iterations(inlier_ratio: float, confidence: float, sample_size: int) -> int:
    if inlier_ratio <= 0.0:
        return np.iinfo(np.int32).max
    if inlier_ratio >= 1.0:
        return 1
    denom = math.log1p(-(inlier_ratio**sample_size))
    if denom == 0.0:
        return 1
    return max(1, math.ceil(math.log(1.0 - confidence) / denom))


def _ransac_loop(pts_a, pts_b, cfg: RansacConfig, solve, residuals) -> ModelEstimate:
    n = len(pts_a)
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed]))
    best_matrix = None
    best_inliers = np.empty(0, dtype=np.int64)
    needed = cfg.max_iters
    # exactly 8 points admit one distinct minimal sample: fit it once
    limit = 1 if n == 8 else cfg.max_iters
    it = 0
    while it < min(needed, limit):
        it += 1
        sample = rng.choice(n, size=8, replace=False)
        try:
            model = solve(pts_a[sample], pts_b[sample])
        except (DegenerateConfigurationError, ValueError):
            continue
        d = residuals(model, pts_a, pts_b)
        inliers = np.nonzero(d < cfg.threshold)[0]
        if len(inliers) > len(best_inliers):
            best_matrix = model
            best_inliers = inliers
            needed = _adaptive_iterations(len(inliers) / n, cfg.confidence, 8)
    if best_matrix is None or len(best_inliers) < 8:
        return ModelEstimate(None, np.empty(0, dtype=np.int64), it, False)
    # iterated least-squares polish on the consensus set: a fit over all
    # inliers beats any minimal-sample hypothesis by a wide margin
    final = best_matrix
    final_inliers = best_inliers
    for _ in range(3):
        try:
            refit = solve(pts_a[final_inliers], pts_b[final_inliers])
        except (DegenerateConfigurationError, ValueError):
            break
        refit_inliers = np.nonzero(residuals(refit, pts_a, pts_b) < cfg.threshold)[0]
        if len(refit_inliers) < 8:
            break
        stable = len(refit_inliers) == len(final_inliers) and np.array_equal(refit_inliers, final_inliers)
        final = refit
        final_inliers = refit_inliers
        if stable:
            break
    final_inliers = np.nonzero(residuals(final, pts_a, pts_b) < cfg.threshold)[0]
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

    def solve(sa, sb):
        return eight_point(sa, sb).matrix

    return _ransac_loop(pts_a, pts_b, cfg, solve, sampson_distances)


def _essential_project(m: np.ndarray) -> np.ndarray:
    u, s, vt = np.linalg.svd(m)
    sigma = 0.5 * (s[0] + s[1])
    e = (u[:, :2] * sigma) @ vt[:2]
    return e / np.linalg.norm(e)


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
        f_norm = eight_point(sa, sb).matrix
        return _essential_project(f_norm)

    def residuals(e, _na, _nb):
        # the loop only scores the full set; residuals are pixel Sampson
        f_px = inv_b.T @ e @ inv_a
        return sampson_distances(f_px, pts_a, pts_b)

    est = _ransac_loop(norm_a, norm_b, cfg, solve, residuals)
    est.kind = "essential"
    return est


_W = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])


def _triangulate(r: np.ndarray, t: np.ndarray, na: np.ndarray, nb: np.ndarray) -> np.ndarray:
    """DLT triangulation in normalized coordinates, P1 = [I|0], P2 = [R|t]."""
    p1 = np.hstack([np.eye(3), np.zeros((3, 1))])
    p2 = np.hstack([r, t[:, None]])
    out = np.zeros((len(na), 3))
    for i, (pa, pb) in enumerate(zip(na, nb)):
        rows = np.stack(
            [
                pa[0] * p1[2] - p1[0],
                pa[1] * p1[2] - p1[1],
                pb[0] * p2[2] - p2[0],
                pb[1] * p2[2] - p2[1],
            ]
        )
        _, _, vt = np.linalg.svd(rows)
        h = vt[-1]
        if abs(h[3]) < 1e-15:
            out[i] = np.inf
            continue
        out[i] = h[:3] / h[3]
    return out


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
