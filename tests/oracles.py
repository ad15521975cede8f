"""Brute-force reference implementations used to verify the fast paths.

Everything here is plain python loops or direct formula evaluation and must
stay independent of the library code it checks.
"""

from __future__ import annotations

import itertools
import math

import numpy as np


def conv2d_loops(x, kernel, bias, stride=1, pad=0):
    c_in, h, w = x.shape
    c_out, _, kh, kw = kernel.shape
    ho = (h + 2 * pad - kh) // stride + 1
    wo = (w + 2 * pad - kw) // stride + 1
    xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad)))
    out = np.zeros((c_out, ho, wo))
    for o in range(c_out):
        for i in range(ho):
            for j in range(wo):
                acc = bias[o]
                for c in range(c_in):
                    for dy in range(kh):
                        for dx in range(kw):
                            acc += kernel[o, c, dy, dx] * xp[c, i * stride + dy, j * stride + dx]
                out[o, i, j] = acc
    return out


def conv4d_loops(x, kernel, bias):
    c_in, ha, wa, hb, wb = x.shape
    c_out = kernel.shape[0]
    xp = np.pad(x, ((0, 0),) + ((1, 1),) * 4)
    out = np.zeros((c_out, ha, wa, hb, wb))
    for o in range(c_out):
        for a in range(ha):
            for b in range(wa):
                for c in range(hb):
                    for d in range(wb):
                        acc = bias[o]
                        for ci in range(c_in):
                            for da in range(3):
                                for db in range(3):
                                    for dc in range(3):
                                        for dd in range(3):
                                            acc += (
                                                kernel[o, ci, da, db, dc, dd]
                                                * xp[ci, a + da, b + db, c + dc, d + dd]
                                            )
                        out[o, a, b, c, d] = acc
    return out


def _conv4d_tap_slabs(spatial):
    taps = list(itertools.product(range(3), repeat=4))
    return [(tap, tuple(slice(d, d + n) for d, n in zip(tap, spatial))) for tap in taps]


def conv4d_taps(x, kernel, bias):
    """conv4d forward as 81 per-tap channel contractions over the padded input."""
    spatial = x.shape[1:]
    xp = np.pad(x, ((0, 0),) + ((1, 1),) * 4)
    out = np.empty((kernel.shape[0],) + spatial)
    out[:] = bias[(slice(None),) + (None,) * 4]
    for tap, slab in _conv4d_tap_slabs(spatial):
        out += np.tensordot(kernel[(slice(None), slice(None)) + tap], xp[(slice(None),) + slab], axes=([1], [0]))
    return out


def conv4d_taps_backward(x, kernel, g):
    """Gradients (x, kernel, bias) of sum(g * conv4d(x, kernel, bias)), tap by tap."""
    spatial = x.shape[1:]
    xp = np.pad(x, ((0, 0),) + ((1, 1),) * 4)
    gk = np.zeros_like(kernel)
    gp = np.zeros_like(xp)
    for tap, slab in _conv4d_tap_slabs(spatial):
        sel = (slice(None), slice(None)) + tap
        gk[sel] = np.tensordot(g, xp[(slice(None),) + slab], axes=([1, 2, 3, 4], [1, 2, 3, 4]))
        gp[(slice(None),) + slab] += np.tensordot(kernel[sel], g, axes=([0], [0]))
    gx = gp[(slice(None),) + tuple(slice(1, 1 + n) for n in spatial)]
    return gx, gk, g.sum(axis=(1, 2, 3, 4))


def softmax_direct(x, axes):
    axes = tuple(sorted(axes))
    m = x.max(axis=axes, keepdims=True)
    e = np.exp(x - m)
    return e / e.sum(axis=axes, keepdims=True)


def max_scan_axis1(x):
    """Max and argmax along axis 1 of a 2-d array by explicit scan."""
    n, m = x.shape
    vals = np.empty(n)
    args = np.empty(n, dtype=int)
    for i in range(n):
        best, bj = -math.inf, 0
        for j in range(m):
            if x[i, j] > best:
                best, bj = x[i, j], j
        vals[i], args[i] = best, bj
    return vals, args


def correlation_loops(fa, fb):
    """Dense dot products between every cell of two (C, H, W) maps."""
    c, ha, wa = fa.shape
    _, hb, wb = fb.shape
    out = np.zeros((ha, wa, hb, wb))
    for i in range(ha):
        for j in range(wa):
            for k in range(hb):
                for l in range(wb):
                    out[i, j, k, l] = float(np.dot(fa[:, i, j], fb[:, k, l]))
    return out


def epipolar_distance_line(F, pa, pb):
    """Point-to-epipolar-line distance via an explicitly normalized line."""
    line = F @ np.array([pa[0], pa[1], 1.0])
    n = math.hypot(line[0], line[1])
    if n == 0.0:
        return math.inf
    unit = line / n
    return abs(unit[0] * pb[0] + unit[1] * pb[1] + unit[2])


def project(cam, point3d):
    """Perspective projection of a world point by a ``CameraCalibration``;
    None when behind the camera or out of frame."""
    x_cam = cam.R @ np.asarray(point3d, dtype=np.float64) + cam.t
    if np.linalg.norm(x_cam) < 1e-12:
        raise ValueError("point coincides with the camera center")
    if x_cam[2] <= 0:
        return None
    h = cam.K @ x_cam
    x, y = h[0] / h[2], h[1] / h[2]
    if not (0.0 <= x <= cam.width - 1 and 0.0 <= y <= cam.height - 1):
        return None
    return float(x), float(y)


def sampson_formula(F, pa, pb):
    xa = np.array([pa[0], pa[1], 1.0])
    xb = np.array([pb[0], pb[1], 1.0])
    e = float(xb @ F @ xa)
    fx = F @ xa
    ftx = F.T @ xb
    denom = fx[0] ** 2 + fx[1] ** 2 + ftx[0] ** 2 + ftx[1] ** 2
    if denom == 0.0:
        return math.inf
    return abs(e) / math.sqrt(denom)


def cell_center(i, j, stride):
    """(x, y) pixel center of feature cell (row i, col j)."""
    return ((j + 0.5) * stride, (i + 0.5) * stride)


def label_cells_loops(s, F, lam, stride):
    """Per-cell epipolar-consistency classification by exhaustive scan."""
    ha, wa, hb, wb = s.shape
    positive = np.zeros((ha, wa), dtype=bool)
    for i in range(ha):
        for j in range(wa):
            best, bk, bl = -math.inf, 0, 0
            for k in range(hb):
                for l in range(wb):
                    if s[i, j, k, l] > best:
                        best, bk, bl = s[i, j, k, l], k, l
            pa = cell_center(i, j, stride)
            pb = cell_center(bk, bl, stride)
            d = epipolar_distance_line(F, pa, pb)
            positive[i, j] = d < lam
    return positive


def loss_image_formula(s, y):
    """Both-direction image-level loss evaluated directly from raw scores."""
    pab = softmax_direct(s, (2, 3))
    pba = softmax_direct(s, (0, 1))
    return -y * (pab.max(axis=(2, 3)).sum() + pba.max(axis=(0, 1)).sum())


def _epipolar_direction(prob_max, positive):
    negative = ~positive
    n_pos = int(positive.sum())
    n_neg = int(negative.sum())
    total = 0.0
    if n_neg:
        total += prob_max[negative].sum() / (2.0 * n_neg)
    if n_pos:
        total -= prob_max[positive].sum() / n_pos
    return total


def loss_epipolar_formula(s, F, lam, stride):
    """Both-direction epipolar loss; pass F=None for a negative pair."""
    pab = softmax_direct(s, (2, 3))
    pba = softmax_direct(s, (0, 1))
    max_ab = pab.max(axis=(2, 3))
    max_ba = pba.max(axis=(0, 1))
    if F is None:
        return max_ab.mean() / 2.0 + max_ba.mean() / 2.0
    pos_ab = label_cells_loops(s, F, lam, stride)
    pos_ba = label_cells_loops(np.transpose(s, (2, 3, 0, 1)), F.T, lam, stride)
    return _epipolar_direction(max_ab, pos_ab) + _epipolar_direction(max_ba, pos_ba)


def loss_points_formula(s, gt_mask):
    """Both-direction point loss from a 4-d ground-truth cell mask."""
    pab = softmax_direct(s, (2, 3))
    pba = softmax_direct(s, (0, 1))
    ha, wa, hb, wb = s.shape
    total = 0.0
    for i in range(ha):
        for j in range(wa):
            cells = [(k, l) for k in range(hb) for l in range(wb) if gt_mask[i, j, k, l]]
            if cells:
                total -= max(pab[i, j, k, l] for k, l in cells)
    for k in range(hb):
        for l in range(wb):
            cells = [(i, j) for i in range(ha) for j in range(wa) if gt_mask[i, j, k, l]]
            if cells:
                total -= max(pba[i, j, k, l] for i, j in cells)
    return total


def adam_reference(x0, grads, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Textbook Adam iteration on a scalar parameter, for cross-checking."""
    x = float(x0)
    m = v = 0.0
    for t, g in enumerate(grads, start=1):
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        m_hat = m / (1 - beta1**t)
        v_hat = v / (1 - beta2**t)
        x = x - lr * m_hat / (math.sqrt(v_hat) + eps)
    return x


def _nearest_among(vecs_a, vecs_b, i, cand):
    """Nearest and runner-up descriptor distance of source row i over ``cand``."""
    dd = np.linalg.norm(vecs_b[cand] - vecs_a[i], axis=1)
    j = int(dd.argmin())
    d1 = float(dd[j])
    if len(cand) < 2:
        return int(cand[j]), d1, np.nan
    dd[j] = np.inf
    return int(cand[j]), d1, float(dd.min())


def _loop_match_set(vecs_a, vecs_b, candidates):
    """Match every source row with a non-empty candidate list, in row order."""
    rows = [(i, *_nearest_among(vecs_a, vecs_b, i, cand)) for i, cand in enumerate(candidates) if len(cand)]
    index_a, index_b, d1, d2 = zip(*rows) if rows else ((), (), (), ())
    return np.array(index_a, dtype=np.int64), np.array(index_b, dtype=np.int64), np.array(d1), np.array(d2)


def guided_match_loop(mapped, coords_b, vecs_a, vecs_b, window_px):
    """Per-keypoint guided matching: B points strictly within ``window_px`` of
    each source point's mapped position, by linear scan. A nan mapped row has
    no coarse match and stays unmatched."""
    candidates = []
    for mx, my in mapped:
        d = np.hypot(coords_b[:, 0] - mx, coords_b[:, 1] - my)
        candidates.append(np.nonzero(d < window_px)[0])
    return _loop_match_set(vecs_a, vecs_b, candidates)


def epipolar_band_match_loop(F, coords_a, coords_b, vecs_a, vecs_b, band_px):
    """Per-keypoint model-guided matching: B points within ``band_px`` of the
    source point's epipolar line, the line distance evaluated row by row."""
    hb = np.column_stack([coords_b, np.ones(len(coords_b))])
    candidates = []
    for x, y in coords_a:
        line = F @ np.array([x, y, 1.0])
        denom = math.hypot(line[0], line[1])
        d = np.abs(hb @ line) / denom if denom > 0 else np.full(len(coords_b), np.inf)
        candidates.append(np.nonzero(d < band_px)[0])
    return _loop_match_set(vecs_a, vecs_b, candidates)


def mutual_pairs_dict(ab_pairs, ba_pairs):
    """(a, b) pairs whose reverse match maps b back to a, via a dict."""
    back = dict(ba_pairs)
    return [(a, b) for a, b in ab_pairs if back.get(b) == a]


class DegenerateSample(Exception):
    """Raised by the reference 8-point solver where the sample pins nothing down."""


def _hartley_normalize_reference(pts):
    centroid = pts.mean(axis=0)
    centered = pts - centroid
    mean_dist = np.linalg.norm(centered, axis=1).mean()
    if mean_dist < 1e-12:
        raise DegenerateSample("all points coincide")
    s = math.sqrt(2.0) / mean_dist
    T = np.array([[s, 0.0, -s * centroid[0]], [0.0, s, -s * centroid[1]], [0.0, 0.0, 1.0]])
    return centered * s, T


def eight_point_reference(pts_a, pts_b):
    """One Hartley-normalized 8-point fit, canonicalized and validated as a
    ``FundamentalMatrix`` does: raises ``DegenerateSample`` or ``ValueError``."""
    from guidematch.geometry import FundamentalMatrix

    na, ta = _hartley_normalize_reference(np.asarray(pts_a, dtype=np.float64))
    nb, tb = _hartley_normalize_reference(np.asarray(pts_b, dtype=np.float64))
    xa, ya = na[:, 0], na[:, 1]
    xb, yb = nb[:, 0], nb[:, 1]
    design = np.column_stack([xb * xa, xb * ya, xb, yb * xa, yb * ya, yb, xa, ya, np.ones(len(xa))])
    _, sv, vt = np.linalg.svd(design)
    if sv[7] <= 1e-9 * sv[0]:
        raise DegenerateSample("design matrix is rank deficient")
    return FundamentalMatrix.from_array(tb.T @ vt[-1].reshape(3, 3) @ ta).matrix


def sampson_reference(m, pts_a, pts_b):
    """Sampson distance of each correspondence to one 3x3 matrix."""
    ha = np.column_stack([pts_a, np.ones(len(pts_a))])
    hb = np.column_stack([pts_b, np.ones(len(pts_b))])
    fa = ha @ m.T
    fb = hb @ m
    e = np.abs((hb * fa).sum(axis=1))
    denom2 = fa[:, 0] ** 2 + fa[:, 1] ** 2 + fb[:, 0] ** 2 + fb[:, 1] ** 2
    out = np.full(len(pts_a), np.inf)
    ok = denom2 > 0.0
    out[ok] = e[ok] / np.sqrt(denom2[ok])
    return out


def essential_project_reference(m):
    u, s, vt = np.linalg.svd(m)
    sigma = 0.5 * (s[0] + s[1])
    e = (u[:, :2] * sigma) @ vt[:2]
    return e / np.linalg.norm(e)


def _adaptive_iterations_reference(inlier_ratio, confidence):
    if inlier_ratio >= 1.0:
        return 1
    denom = math.log1p(-(inlier_ratio**8))
    if denom == 0.0:
        return 1
    return max(1, math.ceil(math.log(1.0 - confidence) / denom))


def ransac_loop_reference(pts_a, pts_b, cfg, solve, residuals):
    """RANSAC that fits and scores one minimal sample per iteration.

    Returns ``(matrix, inliers, iterations, success)``. ``solve`` may raise
    ``DegenerateSample`` or ``ValueError`` to reject a sample.
    """
    n = len(pts_a)
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed]))
    best_matrix = None
    best_inliers = np.empty(0, dtype=np.int64)
    needed = cfg.max_iters
    limit = 1 if n == 8 else cfg.max_iters
    it = 0
    while it < min(needed, limit):
        it += 1
        sample = rng.choice(n, size=8, replace=False)
        try:
            model = solve(pts_a[sample], pts_b[sample])
        except (DegenerateSample, ValueError):
            continue
        inliers = np.nonzero(residuals(model) < cfg.threshold)[0]
        if len(inliers) > len(best_inliers):
            best_matrix = model
            best_inliers = inliers
            needed = _adaptive_iterations_reference(len(inliers) / n, cfg.confidence)
    failed = (None, np.empty(0, dtype=np.int64), it, False)
    if best_matrix is None or len(best_inliers) < 8:
        return failed
    final = best_matrix
    final_inliers = best_inliers
    for _ in range(3):
        try:
            refit = solve(pts_a[final_inliers], pts_b[final_inliers])
        except (DegenerateSample, ValueError):
            break
        refit_inliers = np.nonzero(residuals(refit) < cfg.threshold)[0]
        if len(refit_inliers) < 8:
            break
        stable = np.array_equal(refit_inliers, final_inliers)
        final = refit
        final_inliers = refit_inliers
        if stable:
            break
    final_inliers = np.nonzero(residuals(final) < cfg.threshold)[0]
    if len(final_inliers) < 8:
        return failed
    return final, final_inliers, it, True


def ransac_fundamental_reference(pts_a, pts_b, cfg):
    return ransac_loop_reference(
        pts_a, pts_b, cfg, eight_point_reference, lambda m: sampson_reference(m, pts_a, pts_b)
    )


def ransac_essential_reference(pts_a, pts_b, k_a, k_b, cfg):
    inv_a = np.linalg.inv(k_a)
    inv_b = np.linalg.inv(k_b)
    norm_a = (np.column_stack([pts_a, np.ones(len(pts_a))]) @ inv_a.T)[:, :2]
    norm_b = (np.column_stack([pts_b, np.ones(len(pts_b))]) @ inv_b.T)[:, :2]

    def solve(sa, sb):
        return essential_project_reference(eight_point_reference(sa, sb))

    def residuals(e):
        return sampson_reference(inv_b.T @ e @ inv_a, pts_a, pts_b)

    return ransac_loop_reference(norm_a, norm_b, cfg, solve, residuals)


def triangulate_reference(r, t, na, nb):
    """Per-point DLT triangulation, P1 = [I|0], P2 = [R|t]; inf where the
    homogeneous scale vanishes."""
    p1 = np.hstack([np.eye(3), np.zeros((3, 1))])
    p2 = np.hstack([r, t[:, None]])
    out = np.zeros((len(na), 3))
    for i, (pa, pb) in enumerate(zip(na, nb)):
        rows = np.stack(
            [pa[0] * p1[2] - p1[0], pa[1] * p1[2] - p1[1], pb[0] * p2[2] - p2[0], pb[1] * p2[2] - p2[1]]
        )
        h = np.linalg.svd(rows)[2][-1]
        out[i] = np.inf if abs(h[3]) < 1e-15 else h[:3] / h[3]
    return out
