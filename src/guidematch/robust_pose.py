"""Robust two-view geometry: normalized 8-point inside RANSAC plus pose recovery.

The essential matrix is estimated with the 8-point solver in calibrated
coordinates followed by projection onto the essential manifold; inliers are
scored with the Sampson distance in pixels. Pose recovery picks among the
four decompositions by cheirality, requiring a strict majority of
triangulated points in front of both cameras.

RANSAC fits and scores its hypotheses in blocks of up to 64. A block's
minimal samples come from one generator call (``_draw_samples``) that
reproduces, draw for draw, the stream of one ``rng.choice(n, 8,
replace=False)`` per iteration. One unchecked batched fit (``_fit_batch``, a
QR null vector with no canonical form) gives every sample's hypothesis, and
one batched Sampson pass counts each one's inliers at a threshold widened by
a margin far above rounding; a sample whose QR shows its design is not
determined counts none. The block is then walked in iteration order
with the one-at-a-time update and adaptive stop. Only a hypothesis whose
count beats the best so far is refitted by the checked solver
(``_eight_point_batch``, an SVD null vector with the determinedness and
canonical-form checks) and accepted by the one-at-a-time rule, so iteration
counts, inlier sets and matrices equal those of fitting one checked
hypothesis per iteration bit for bit; only fits that differ by more than
the margin could change them. Each row of a batched call goes through the
same floating-point operations as a one-row call (norms are per-slice dot
products, degenerate rows are masked before any division), so a candidate's
refit, the consensus-set refits and ``sampson_distances`` are simply the B=1
calls.
The fitted matrices take the canonical form that
``geometry.epipolar.canonicalize_fundamental`` defines for every
fundamental matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from guidematch import ConfigError, check_count, check_seed
from guidematch.geometry.epipolar import (
    FundamentalMatrix,
    RelativePose,
    canonicalize_fundamental,
    frobenius_norms,
    rank_two_projection,
)


class EstimationError(RuntimeError):
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
        # a nan threshold admits no inlier, so every fit would fail silently
        if not (math.isfinite(self.threshold) and self.threshold > 0):
            raise ConfigError(f"threshold must be positive and finite, got {self.threshold!r}")
        check_count(self.max_iters, "max_iters")
        check_seed(self.seed, "seed")
        if not 0.0 < self.confidence < 1.0:
            raise ConfigError("confidence must be in (0, 1)")


@dataclass
class ModelEstimate:
    matrix: np.ndarray | None  # None when the fit failed
    inliers: np.ndarray
    iterations: int

    @property
    def success(self) -> bool:
        return self.matrix is not None


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


def _design(sa: np.ndarray, sb: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The (B, m, 9) 8-point design matrices of B samples of (B, m, 2) points
    in Hartley-normalized coordinates, the (B, 3, 3) normalizations of the A
    and B points, and whether both point sets of a sample are spread."""
    na, ta, spread_a = _hartley_normalize(sa)
    nb, tb, spread_b = _hartley_normalize(sb)
    xa, ya = na[..., 0], na[..., 1]
    xb, yb = nb[..., 0], nb[..., 1]
    design = np.stack([xb * xa, xb * ya, xb, yb * xa, yb * ya, yb, xa, ya, np.ones_like(xa)], axis=-1)
    return design, ta, tb, spread_a & spread_b


def _eight_point_batch(sa: np.ndarray, sb: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Hartley-normalized 8-point fits of B samples of (B, m, 2) points at once, m >= 8.

    Returns the (B, 3, 3) matrices in canonical form and a (B,) bool mask,
    true where the fit is usable: both point sets are spread, the design
    matrix pins the solution down to one direction (it does not when, e.g.,
    all points lie on one plane under a homography, or under a pure
    rotation) and the canonical form is valid. Every row goes through the
    same operations a one-row call would, so each row equals its own B=1
    call bit for bit; an unusable row holds finite garbage.
    """
    design, ta, tb, spread = _design(sa, sb)
    # only V is read: a thin SVD skips the m x m U of a consensus-set refit and
    # gives the same singular values and V (gesdd computes both from one
    # bidiagonalization whichever U it is asked for); an 8-row sample needs
    # full matrices for the 9th row of V
    _, sv, vt = np.linalg.svd(design, full_matrices=design.shape[1] < 9)
    determined = sv[:, 7] > 1e-9 * sv[:, 0]
    f_px = tb.transpose(0, 2, 1) @ vt[:, -1].reshape(-1, 3, 3) @ ta
    matrices, canonical = canonicalize_fundamental(f_px)
    return matrices, spread & determined & canonical


def _fit_batch(sa: np.ndarray, sb: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unchecked 8-point fits of B minimal samples of (B, 8, 2) points.

    Returns (B, 3, 3) pixel-frame matrices of any rank, sign and scale and a
    (B,) mask, false where ``_eight_point_batch`` cannot find the row usable.
    The design is that of ``_eight_point_batch``, but its null vector is the
    last column of Q in a complete QR of the transposed design, at well under
    half the cost of the SVD, and nothing is put in canonical form. Hartley
    normalization keeps a determined design well conditioned, so where
    ``_eight_point_batch`` finds a row usable both give the same projective
    matrix up to rounding. Each row equals its own B=1 call bit for bit.
    """
    design, ta, tb, _ = _design(sa, sb)
    q, r = np.linalg.qr(design.transpose(0, 2, 1), mode="complete")
    # the design's smallest singular value is at most R's smallest pivot and
    # its largest at least R's largest, so pivots ten times further apart than
    # _eight_point_batch's determinedness bound fail that bound too
    pivots = np.abs(np.diagonal(r, axis1=1, axis2=2))
    possible = pivots.min(axis=1) > 1e-10 * pivots.max(axis=1)
    return tb.transpose(0, 2, 1) @ q[:, :, -1].reshape(-1, 3, 3) @ ta, possible


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
# relative widening of the threshold at which unchecked hypotheses are
# counted. The unchecked and checked fits of one usable sample give residuals
# that differ by rounding: at most 3e-9 px on general two-view samples of
# 256-px images, up to 2.4e-6 px on nearly planar ones whose design is within
# a factor 5 of the determinedness bound. A margin far above that lets
# rounding add a checked solve but never skip one; it adds none on the
# benchmark's scenes.
_TRIGGER_MARGIN = 1e-3


def _draw_samples(rng: np.random.Generator, n: int, count: int) -> np.ndarray:
    """(count, 8) int64 minimal samples of range(n), n >= 8, from one generator call.

    Equals ``np.stack([rng.choice(n, size=8, replace=False) for _ in
    range(count)])`` bit for bit and leaves ``rng`` in the same state. For 8
    picks ``Generator.choice`` makes 15 bounded draws: Floyd's selection (for
    j = n-8 .. n-1 a draw from [0, j], taking j where it collides with an
    earlier pick), then a Fisher-Yates shuffle of the picks (for i = 7 .. 1 a
    draw from [0, i] and a swap); its other path, a tail shuffle, needs more
    than n/50 picks of n > 10000, so 8 picks never take it. ``integers``
    over the tiled bounds makes the
    same bounded draws in the same order; the collision rule and the swaps
    then run column by column over the block.
    """
    draws = rng.integers(0, np.tile(np.r_[n - 8 : n, 7:0:-1], count), endpoint=True).reshape(count, 15)
    samples = np.empty((count, 8), dtype=np.int64)
    for k in range(8):
        taken = (samples[:, :k] == draws[:, k, None]).any(axis=1)
        samples[:, k] = np.where(taken, n - 8 + k, draws[:, k])
    rows = np.arange(count)
    for i in range(7, 0, -1):
        j = draws[:, 15 - i]
        picked = samples[rows, j]
        samples[rows, j] = samples[:, i]
        samples[:, i] = picked
    return samples


def _ransac_loop(pts_a, pts_b, cfg: RansacConfig, solve, residuals, hypotheses) -> ModelEstimate:
    """Minimal-sample RANSAC, scored a block of hypotheses at a time.

    ``solve`` is the checked solver: it maps (B, m, 2) samples to (B, 3, 3)
    models and a (B,) mask of the usable ones (as ``_eight_point_batch``).
    ``hypotheses`` is the unchecked one: it maps (B, 8, 2) minimal samples to
    (B, 3, 3) models, equal to ``solve``'s up to rounding, sign and scale
    where ``solve`` finds them usable, and a (B,) mask that is false only
    where ``solve`` cannot (as ``_fit_batch``). ``residuals`` maps (B, 3, 3)
    models to (B, n) distances that sign and scale leave unchanged.

    A block's samples are drawn at once by ``_draw_samples``, whose stream
    equals one ``rng.choice`` per iteration. ``hypotheses`` fits them all, and
    each is counted at the threshold widened by ``_TRIGGER_MARGIN`` (a row
    the mask rules out counts none). The block is then walked in iteration
    order with the one-at-a-time update and stopping rule. A hypothesis whose
    widened count beats the best so far is a candidate: ``solve`` refits its
    one sample, and the fit is accepted if it is usable and has more inliers
    than the best. Each hypothesis that fitting one checked model per
    iteration would accept is a candidate, and a B=1 row of ``solve`` equals
    its batched row, so iteration counts, inlier sets and matrices equal that
    loop's bit for bit. They could differ only if the two fits of a sample
    moved a residual across the threshold by more than the margin, which
    rounding does not do (see ``_TRIGGER_MARGIN``). Fewer than 8 points fail
    with no iteration run.
    """
    n = len(pts_a)
    if n < 8:
        return ModelEstimate(None, np.empty(0, dtype=np.int64), 0)
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed]))
    best_matrix = None
    best_inliers = np.empty(0, dtype=np.int64)
    # exactly 8 points admit one distinct minimal sample: fit it once
    limit = 1 if n == 8 else cfg.max_iters
    needed = limit
    it = 0
    while it < needed:
        samples = _draw_samples(rng, n, min(_BLOCK, needed - it))
        sa, sb = pts_a[samples], pts_b[samples]
        models, possible = hypotheses(sa, sb)
        counts = np.where(possible, (residuals(models) < cfg.threshold * (1.0 + _TRIGGER_MARGIN)).sum(axis=1), 0)
        for b in range(len(samples)):
            if it >= needed:
                break
            it += 1
            if counts[b] <= len(best_inliers):
                continue
            model, usable = solve(sa[b][None], sb[b][None])
            if not usable[0]:
                continue
            inliers = np.nonzero(residuals(model)[0] < cfg.threshold)[0]
            if len(inliers) > len(best_inliers):
                best_matrix = model[0]
                best_inliers = inliers
                needed = min(limit, _adaptive_iterations(len(best_inliers) / n, cfg.confidence, 8))
    if best_matrix is None or len(best_inliers) < 8:
        return ModelEstimate(None, np.empty(0, dtype=np.int64), it)
    # iterated least-squares polish on the consensus set: a fit over all
    # inliers beats any minimal-sample hypothesis by a wide margin
    final = best_matrix
    final_inliers = best_inliers
    for _ in range(3):
        refit, usable = solve(pts_a[final_inliers][None], pts_b[final_inliers][None])
        if not usable[0]:
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
        return ModelEstimate(None, np.empty(0, dtype=np.int64), it)
    return ModelEstimate(final, final_inliers, it)


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

    def residuals(f):
        return _sampson_batch(f, pts_a, pts_b)

    def hypotheses(sa, sb):
        f, possible = _fit_batch(sa, sb)
        return rank_two_projection(f)[0], possible

    return _ransac_loop(pts_a, pts_b, cfg, _eight_point_batch, residuals, hypotheses)


def _calibrated(pts: np.ndarray, k_inv: np.ndarray) -> np.ndarray:
    """(n, 2) pixel points in the calibrated coordinates of ``k_inv``, the inverse calibration."""
    return (np.column_stack([pts, np.ones(len(pts))]) @ k_inv.T)[:, :2]


def _essential_project(m: np.ndarray) -> np.ndarray:
    """Nearest essential matrices, unit norm, of each (3, 3) slice of m."""
    u, s, vt = np.linalg.svd(m)
    sigma = 0.5 * (s[:, 0] + s[:, 1])
    e = (u[:, :, :2] * sigma[:, None, None]) @ vt[:, :2]
    norm = frobenius_norms(e)  # 0 only for the zero matrix of a failed fit
    return e / np.where(norm > 0, norm, 1.0)[:, None, None]


def ransac_essential(
    pts_a: np.ndarray, pts_b: np.ndarray, k_a: np.ndarray, k_b: np.ndarray, cfg: RansacConfig
) -> ModelEstimate:
    """8-point in calibrated coordinates, essential projection, pixel Sampson scoring."""
    pts_a = np.asarray(pts_a, dtype=np.float64).reshape(-1, 2)
    pts_b = np.asarray(pts_b, dtype=np.float64).reshape(-1, 2)
    inv_a, inv_b = np.linalg.inv(k_a), np.linalg.inv(k_b)

    def solve(sa, sb):
        f_norm, usable = _eight_point_batch(sa, sb)
        return _essential_project(f_norm), usable

    def residuals(e):
        # scored in pixels, through the calibrations
        return _sampson_batch(inv_b.T @ e @ inv_a, pts_a, pts_b)

    def hypotheses(sa, sb):
        f, possible = _fit_batch(sa, sb)
        return _essential_project(f), possible

    return _ransac_loop(_calibrated(pts_a, inv_a), _calibrated(pts_b, inv_b), cfg, solve, residuals, hypotheses)


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
    na = _calibrated(pts_a, np.linalg.inv(k_a))
    nb = _calibrated(pts_b, np.linalg.inv(k_b))
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
