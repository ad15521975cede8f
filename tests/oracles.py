"""Brute-force reference implementations used to verify the fast paths.

Everything here is plain python loops or direct formula evaluation and must
stay independent of the library code it checks. ``train_reference`` is the
one exception: it drives the library's losses and optimizer, and checks only
how ``train`` feeds them.
"""

from __future__ import annotations

import itertools
import math
from pathlib import Path

import numpy as np
from scipy.ndimage import gaussian_filter, maximum_filter

from guidematch import coarse_matcher as cm
from guidematch import supervision as sup
from guidematch.geometry.scene import load_scene_dir
from guidematch.numerics import AdamState, adam_step


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


def conv2d_kernel_grad_taps(x, g, kh, kw, stride=1, pad=0):
    """The kernel gradient of a conv2d of (C_in, N, H, W) ``x`` with output
    gradient ``g``, one ``tensordot`` per tap."""
    c_in = x.shape[0]
    c_out, _, ho, wo = g.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    gk = np.zeros((c_out, c_in, kh, kw))
    for dy in range(kh):
        ys = slice(dy, dy + stride * (ho - 1) + 1, stride)
        for dx in range(kw):
            xs = slice(dx, dx + stride * (wo - 1) + 1, stride)
            gk[:, :, dy, dx] = np.tensordot(g, xp[:, :, ys, xs], axes=([1, 2, 3], [1, 2, 3]))
    return gk


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


def interpolate_matches_reference(target_cells, stride, pts):
    """Bilinear blend of the four cells' match points around each (x, y) query,
    written out corner by corner; queries clamp to the cell centers' bounding box."""
    s = stride
    hs, ws = target_cells.shape[:2]
    xs, ys = pts[:, 0], pts[:, 1]
    gx = np.clip(xs / s - 0.5, 0.0, max(ws - 1, 0))
    gy = np.clip(ys / s - 0.5, 0.0, max(hs - 1, 0))
    j0 = np.minimum(gx.astype(np.int64), max(ws - 2, 0))
    i0 = np.minimum(gy.astype(np.int64), max(hs - 2, 0))
    tx = np.clip(gx - j0, 0.0, 1.0)
    ty = np.clip(gy - i0, 0.0, 1.0)
    j1 = np.minimum(j0 + 1, ws - 1)
    i1 = np.minimum(i0 + 1, hs - 1)
    # match point of a cell: its target cell center, (col+0.5, row+0.5)*stride
    targets = (target_cells[..., ::-1] + 0.5) * s
    p00 = targets[i0, j0]
    p01 = targets[i0, j1]
    p10 = targets[i1, j0]
    p11 = targets[i1, j1]
    wx = tx[:, None]
    wy = ty[:, None]
    top = p00 * (1 - wx) + p01 * wx
    bot = p10 * (1 - wx) + p11 * wx
    return top * (1 - wy) + bot * wy


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


# Harris constants of the detector the references below reproduce
HARRIS_K = 0.06
HARRIS_SIGMA = 1.5
NMS_RADIUS = 4
DETECTION_LEVELS = 2
BASE_SCALE = 9.0


def _harris_reference(image):
    gy, gx = np.gradient(image)
    sxx = gaussian_filter(gx * gx, HARRIS_SIGMA)
    syy = gaussian_filter(gy * gy, HARRIS_SIGMA)
    sxy = gaussian_filter(gx * gy, HARRIS_SIGMA)
    return sxx * syy - sxy * sxy - HARRIS_K * (sxx + syy) ** 2


def _downsample2_reference(image):
    h, w = image.shape
    img = image[: h - h % 2, : w - w % 2]
    return 0.25 * (img[0::2, 0::2] + img[1::2, 0::2] + img[0::2, 1::2] + img[1::2, 1::2])


def refine_subpixel_reference(resp, r, c):
    """Quadratic sub-pixel refinement of one peak, scalar by scalar."""
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


def greedy_nms_reference(candidates, width, height, max_count):
    """Indices of the (x, y, scale, response) candidates kept by greedy radius
    NMS: strongest first, ties to the lowest index, out-of-image candidates
    skipped, and a candidate strictly within NMS_RADIUS of a kept one dropped."""
    order = sorted(range(len(candidates)), key=lambda i: (-candidates[i][3], i))
    kept = []
    kept_xy = np.zeros((len(candidates), 2))
    for i in order:
        x0, y0 = candidates[i][:2]
        if not (0 <= x0 <= width - 1 and 0 <= y0 <= height - 1):
            continue
        x, y = kept_xy[: len(kept)].T  # every kept keypoint so far
        if np.any((x0 - x) ** 2 + (y0 - y) ** 2 < NMS_RADIUS**2):
            continue
        kept_xy[len(kept)] = x0, y0
        kept.append(i)
        if len(kept) == max_count:
            break
    return kept


def detect_keypoints_reference(image, max_count=500):
    """Two-level Harris detection one candidate at a time; returns the kept
    (xy, scale, response) arrays in keypoint order."""
    h, w = image.shape
    candidates = []
    level_img = np.asarray(image, dtype=np.float64)
    for level in range(DETECTION_LEVELS):
        if min(level_img.shape) < 24:
            break
        resp = _harris_reference(level_img)
        peak = resp.max()
        if peak <= 1e-12:
            level_img = _downsample2_reference(level_img)
            continue
        nms = maximum_filter(resp, size=2 * NMS_RADIUS + 1, mode="nearest")
        rows, cols = np.nonzero((resp == nms) & (resp > 0.005 * peak))
        margin = NMS_RADIUS
        lh, lw = resp.shape
        keep = (rows >= margin) & (rows < lh - margin) & (cols >= margin) & (cols < lw - margin)
        factor = 2.0**level
        offset = (factor - 1.0) / 2.0
        for r, c in zip(rows[keep], cols[keep]):
            x, y = refine_subpixel_reference(resp, r, c)
            candidates.append((x * factor + offset, y * factor + offset, BASE_SCALE * factor, float(resp[r, c])))
        level_img = _downsample2_reference(level_img)
    kept = [candidates[i] for i in greedy_nms_reference(candidates, w, h, max_count)]
    xy = np.array([k[:2] for k in kept], dtype=np.float64).reshape(-1, 2)
    return xy, np.array([k[2] for k in kept]), np.array([k[3] for k in kept])


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


def canonical_fundamental_reference(m):
    """One matrix's canonical form, computed and validated as a
    ``FundamentalMatrix`` is built: rank-2 projection, unit Frobenius norm,
    positive largest entry, then sigma3/sigma1 <= 1e-9 and |norm - 1| <= 1e-9.
    Raises ``ValueError`` where there is none."""
    u, s, vt = np.linalg.svd(m)
    if s[1] <= 0:
        raise ValueError("matrix has rank < 2, cannot canonicalize")
    m2 = (u[:, :2] * s[:2]) @ vt[:2]
    m2 = m2 / np.linalg.norm(m2)
    if m2.flat[np.argmax(np.abs(m2))] < 0:
        m2 = -m2
    s = np.linalg.svd(m2, compute_uv=False)
    if s[2] > 1e-9 * s[0]:
        raise ValueError("matrix is not rank 2")
    if abs(np.linalg.norm(m2) - 1.0) > 1e-9:
        raise ValueError("matrix must have Frobenius norm 1")
    return m2


def eight_point_reference(pts_a, pts_b):
    """One Hartley-normalized 8-point fit in canonical form: raises
    ``DegenerateSample`` or ``ValueError`` where it is not usable."""
    na, ta = _hartley_normalize_reference(np.asarray(pts_a, dtype=np.float64))
    nb, tb = _hartley_normalize_reference(np.asarray(pts_b, dtype=np.float64))
    xa, ya = na[:, 0], na[:, 1]
    xb, yb = nb[:, 0], nb[:, 1]
    design = np.column_stack([xb * xa, xb * ya, xb, yb * xa, yb * ya, yb, xa, ya, np.ones(len(xa))])
    _, sv, vt = np.linalg.svd(design)
    if sv[7] <= 1e-9 * sv[0]:
        raise DegenerateSample("design matrix is rank deficient")
    return canonical_fundamental_reference(tb.T @ vt[-1].reshape(3, 3) @ ta)


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


def train_reference(config):
    """``supervision.train`` without the frozen-phase feature map: every step
    runs the backbone on its whole batch, and the first ``freeze_steps``
    steps keep the backbone out of the graph by turning its parameters'
    ``requires_grad`` off. Writes the final checkpoint, the snapshots and
    the loss curve as ``train`` does, and returns the final checkpoint's
    path; a run that diverges is not covered."""
    model = cm.CoarseModel.create(config.seed)
    dataset = sup.PairDataset.from_scenes(load_scene_dir(config.dataset_dir), config.max_side, model.stride)
    sampler = sup.BatchSampler(dataset, config.batch_size, config.seed, config.positive_fraction)
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    filter_opt, backbone_opt = AdamState(lr=config.lr), AdamState(lr=config.lr_finetune)
    lines = ["step,loss,mode"]
    for step in range(1, config.iterations + 1):
        frozen = step <= config.freeze_steps
        for p in model.backbone.parameters():
            p.requires_grad = not frozen
        loss, mean_loss = sup.total_loss(model, sampler.next_batch(), config.mode, config.lambda_px)
        loss.backward()
        params = model.cons_filter.parameters()
        adam_step(filter_opt, params, [p.grad for p in params])
        if not frozen:
            params = model.backbone.parameters()
            adam_step(backbone_opt, params, [p.grad for p in params])
        lines.append(f"{step},{mean_loss!r},{config.mode}")
        if config.checkpoint_every and step % config.checkpoint_every == 0 and step < config.iterations:
            model.save(out_dir / f"checkpoint_{step:06d}.gmck")
    model.save(out_dir / "checkpoint_final.gmck")
    (out_dir / "loss_curve.csv").write_text("\n".join(lines) + "\n")
    return out_dir / "checkpoint_final.gmck"
