import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from guidematch.geometry import (
    CameraCalibration,
    FundamentalMatrix,
    SceneConfig,
    generate_scene,
    pose_error,
    rotation_from_axis_angle,
)
from guidematch import ConfigError
from guidematch import robust_pose as rp
from guidematch.geometry.epipolar import rank_two_projection

import oracles

RECTIFIED = FundamentalMatrix.from_array(np.array([[0, 0, 0], [0, 0, -1.0], [0, 1.0, 0]]))


def scene_correspondences(seed=0, n=100, size=128):
    config = SceneConfig(width=size, height=size, n_gt_points=n)
    scene = generate_scene(config, seed)
    return scene, scene.gt_points[:, :2].copy(), scene.gt_points[:, 2:].copy()


def eight_point(pts_a, pts_b):
    """One fit through the batched solver: its matrix and whether it is usable."""
    matrices, usable = rp._eight_point_batch(pts_a[None], pts_b[None])
    return matrices[0], usable[0]


class TestEightPoint:
    def test_noiseless_sampson_residuals(self):
        scene, pa, pb = scene_correspondences(0, n=60)
        F, usable = eight_point(pa[:20], pb[:20])
        assert usable
        assert rp.sampson_distances(F, pa, pb).max() < 1e-6

    def test_planar_pure_rotation_degenerate(self):
        # correspondences generated by a homography cannot pin down F
        rng = np.random.default_rng(1)
        H = np.array([[1.02, 0.01, 2.0], [0.0, 0.98, -1.0], [1e-4, -2e-5, 1.0]])
        pa = rng.uniform(0, 100, size=(30, 2))
        ha = np.column_stack([pa, np.ones(30)])
        hb = ha @ H.T
        pb = hb[:, :2] / hb[:, 2:]
        assert not eight_point(pa, pb)[1]

    def test_similarity_invariance(self):
        scene, pa, pb = scene_correspondences(2, n=40)
        F1, usable1 = eight_point(pa, pb)
        s_a = np.array([[2.0, 0, 5.0], [0, 2.0, -3.0], [0, 0, 1.0]])
        s_b = np.array([[0.5, 0, 1.0], [0, 0.5, 2.0], [0, 0, 1.0]])
        ta = (np.column_stack([pa, np.ones(len(pa))]) @ s_a.T)[:, :2]
        tb = (np.column_stack([pb, np.ones(len(pb))]) @ s_b.T)[:, :2]
        F2, usable2 = eight_point(ta, tb)
        assert usable1 and usable2
        mapped = s_b.T @ F2 @ s_a
        mapped /= np.linalg.norm(mapped)
        ref = F1 / np.linalg.norm(F1)
        assert min(np.abs(mapped - ref).max(), np.abs(mapped + ref).max()) < 1e-9

    def test_too_few_points(self):
        # the solver needs 8 points; both estimators refuse fewer without a fit
        rng = np.random.default_rng(6)
        pa = rng.uniform(0, 127, size=(7, 2))
        pb = rng.uniform(0, 127, size=(7, 2))
        K = np.array([[128.0, 0, 64.0], [0, 128.0, 64.0], [0, 0, 1.0]])
        for est in _ransac_both(pa, pb, K, K, rp.RansacConfig(seed=0)):
            assert not est.success
            assert est.iterations == 0


class TestSampson:
    def test_exact_correspondence_zero(self):
        scene, pa, pb = scene_correspondences(3, n=40)
        F = scene.fundamental
        assert rp.sampson_distances(F, pa, pb).max() < 1e-6

    def test_rectified_three_rows(self):
        d = rp.sampson_distances(RECTIFIED, [(10.0, 5.0)], [(20.0, 8.0)])[0]
        assert 1.5 <= d <= 3.0

    def test_matches_textbook_formula(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            F = FundamentalMatrix.from_array(rng.standard_normal((3, 3)))
            pa = rng.uniform(0, 64, 2)
            pb = rng.uniform(0, 64, 2)
            assert rp.sampson_distances(F, pa, pb)[0] == pytest.approx(
                oracles.sampson_formula(F.matrix, pa, pb), abs=1e-12
            )


class TestRansacConfig:
    # settings that would make every fit fail, or fail deep in the loop, are refused up front

    @pytest.mark.parametrize("threshold", [np.nan, np.inf, 0.0, -1.0])
    def test_rejects_a_non_finite_or_non_positive_threshold(self, threshold):
        with pytest.raises(ValueError, match="threshold must be positive and finite"):
            rp.RansacConfig(threshold=threshold)

    @pytest.mark.parametrize("max_iters", [0, -3, 2.5, 10.0, True])
    def test_rejects_a_max_iters_that_is_not_an_integer_of_at_least_one(self, max_iters):
        with pytest.raises(ValueError, match="max_iters must be an integer >= 1"):
            rp.RansacConfig(max_iters=max_iters)

    def test_accepts_a_numpy_integer_budget(self):
        assert rp.RansacConfig(max_iters=np.int64(1)).max_iters == 1

    @pytest.mark.parametrize("seed", [-1, 0.5, True, "0"])
    def test_rejects_a_seed_that_is_not_an_integer_of_at_least_zero(self, seed):
        with pytest.raises(ValueError, match="seed must be an integer >= 0"):
            rp.RansacConfig(seed=seed)

    def test_accepts_a_numpy_integer_seed(self):
        assert rp.RansacConfig(seed=np.uint32(2**31)).seed == 2**31

    @pytest.mark.parametrize("setting", [dict(threshold=0.0), dict(max_iters=0), dict(confidence=1.0), dict(seed=-1)])
    def test_a_bad_setting_is_a_config_error(self, setting):
        with pytest.raises(ConfigError):
            rp.RansacConfig(**setting)


class TestRansacFundamental:
    def test_all_exact_inliers(self):
        scene, pa, pb = scene_correspondences(5, n=100)
        est = rp.ransac_fundamental(pa, pb, rp.RansacConfig(threshold=1.0, seed=0))
        assert est.success
        assert len(est.inliers) == len(pa)
        assert rp.sampson_distances(est.matrix, pa, pb).max() < 1e-6

    def test_recovers_inliers_under_contamination(self):
        hits = 0
        total = 0
        for seed in range(20):
            scene, pa, pb = scene_correspondences(100 + seed, n=60)
            rng = np.random.default_rng(seed)
            n_out = 40
            out_a = rng.uniform(0, 127, size=(n_out, 2))
            out_b = rng.uniform(0, 127, size=(n_out, 2))
            all_a = np.vstack([pa, out_a])
            all_b = np.vstack([pb, out_b])
            est = rp.ransac_fundamental(all_a, all_b, rp.RansacConfig(threshold=1.0, seed=seed))
            assert est.success
            hits += np.isin(np.arange(len(pa)), est.inliers).sum()
            total += len(pa)
        assert hits / total >= 0.95

    def test_too_few_matches_failure_flag(self):
        est = rp.ransac_fundamental(np.zeros((7, 2)), np.zeros((7, 2)), rp.RansacConfig())
        assert not est.success
        assert est.matrix is None

    def test_deterministic(self):
        scene, pa, pb = scene_correspondences(6, n=50)
        rng = np.random.default_rng(9)
        all_a = np.vstack([pa, rng.uniform(0, 127, (20, 2))])
        all_b = np.vstack([pb, rng.uniform(0, 127, (20, 2))])
        cfg = rp.RansacConfig(threshold=1.0, seed=42)
        e1 = rp.ransac_fundamental(all_a, all_b, cfg)
        e2 = rp.ransac_fundamental(all_a, all_b, cfg)
        assert np.array_equal(e1.inliers, e2.inliers)
        assert np.array_equal(e1.matrix, e2.matrix)

    def test_inlier_count_monotone_in_threshold(self):
        # fix the hypothesis budget (confidence ~1 never stops early) so each
        # threshold scores the same candidate models; a larger threshold then
        # cannot lose consensus
        scene, pa, pb = scene_correspondences(7, n=60)
        rng = np.random.default_rng(11)
        all_a = np.vstack([pa, rng.uniform(0, 127, (30, 2))])
        all_b = np.vstack([pb, rng.uniform(0, 127, (30, 2))])
        counts = []
        for thr in (0.25, 0.5, 1.0, 2.0, 4.0):
            cfg = rp.RansacConfig(threshold=thr, seed=5, max_iters=300, confidence=1 - 1e-12)
            est = rp.ransac_fundamental(all_a, all_b, cfg)
            counts.append(len(est.inliers))
        assert all(a <= b for a, b in zip(counts, counts[1:]))

    def test_estimated_rank_two(self):
        scene, pa, pb = scene_correspondences(8, n=40)
        est = rp.ransac_fundamental(pa, pb, rp.RansacConfig(seed=1))
        s = np.linalg.svd(est.matrix, compute_uv=False)
        assert s[2] < 1e-9 * s[0]


class TestRansacEssential:
    def test_two_equal_singular_values(self):
        scene, pa, pb = scene_correspondences(9, n=60)
        est = rp.ransac_essential(pa, pb, scene.cam_a.K, scene.cam_b.K, rp.RansacConfig(seed=0))
        assert est.success
        s = np.linalg.svd(est.matrix, compute_uv=False)
        assert abs(s[0] - s[1]) < 1e-9
        assert s[2] < 1e-9

    def test_pure_rotation_fails(self):
        # rotation-only pair: correspondences follow a homography
        w = h = 96
        K = np.array([[96.0, 0, 48.0], [0, 96.0, 48.0], [0, 0, 1.0]])
        R = rotation_from_axis_angle([0, 1, 0], 0.05)
        H = K @ R @ np.linalg.inv(K)
        rng = np.random.default_rng(10)
        pa = rng.uniform(10, 85, size=(40, 2))
        hb = np.column_stack([pa, np.ones(40)]) @ H.T
        pb = hb[:, :2] / hb[:, 2:]
        est = rp.ransac_essential(pa, pb, K, K, rp.RansacConfig(threshold=1.0, seed=0, max_iters=50))
        # every minimal sample is degenerate, so no model can be found
        assert not est.success

    def test_same_seed_identical_inliers(self):
        scene, pa, pb = scene_correspondences(11, n=50)
        cfg = rp.RansacConfig(seed=3)
        e1 = rp.ransac_essential(pa, pb, scene.cam_a.K, scene.cam_b.K, cfg)
        e2 = rp.ransac_essential(pa, pb, scene.cam_a.K, scene.cam_b.K, cfg)
        assert np.array_equal(e1.inliers, e2.inliers)


def _ransac_both(pa, pb, k_a, k_b, cfg):
    return [rp.ransac_fundamental(pa, pb, cfg), rp.ransac_essential(pa, pb, k_a, k_b, cfg)]


class TestRansacExactlyEight:
    # eight points admit a single minimal sample; re-drawing it is wasted work

    def test_random_points_fit_once(self):
        rng = np.random.default_rng(12)
        pa = rng.uniform(0, 127, size=(8, 2))
        pb = rng.uniform(0, 127, size=(8, 2))
        K = np.array([[128.0, 0, 64.0], [0, 128.0, 64.0], [0, 0, 1.0]])
        for est in _ransac_both(pa, pb, K, K, rp.RansacConfig(seed=0)):
            assert est.iterations == 1

    def test_exact_points_still_succeed(self):
        # the first 8 points of this scene are in general position: an
        # 8-point fit on them explains all 40
        scene, pa, pb = scene_correspondences(9, n=40)
        F, usable = eight_point(pa[:8], pb[:8])
        assert usable
        assert rp.sampson_distances(F, pa, pb).max() < 1e-6
        cfg = rp.RansacConfig(seed=0)
        for est in _ransac_both(pa[:8], pb[:8], scene.cam_a.K, scene.cam_b.K, cfg):
            assert est.iterations == 1
            assert est.success
            assert np.array_equal(est.inliers, np.arange(8))


K_TEST = np.array([[200.0, 0.0, 128.0], [0.0, 190.0, 96.0], [0.0, 0.0, 1.0]])


def two_view_points(rng, n):
    """n exact correspondences of random points 4-8 units in front of camera A,
    seen through ``K_TEST`` by A and by a randomly moved B."""
    r = rotation_from_axis_angle(rng.standard_normal(3), rng.uniform(0.02, 0.3))
    t = rng.normal(0.0, 0.3, 3)
    xyz = np.column_stack([rng.uniform(-2, 2, n), rng.uniform(-1.5, 1.5, n), rng.uniform(4, 8, n)])
    ha = xyz @ K_TEST.T
    hb = (xyz @ r.T + t) @ K_TEST.T
    return ha[:, :2] / ha[:, 2:], hb[:, :2] / hb[:, 2:]


@st.composite
def ransac_cases(draw):
    """Correspondences with inliers, outliers, pixel noise and duplicated
    points, plus a RansacConfig whose budget may end inside a block."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_in = draw(st.integers(0, 40))
    n_out = draw(st.integers(max(0, 8 - n_in), 30))
    pa, pb = two_view_points(rng, n_in)
    pa = np.vstack([pa + rng.normal(0.0, draw(st.sampled_from([0.0, 0.3])), pa.shape), rng.uniform(0, 255, (n_out, 2))])
    pb = np.vstack([pb, rng.uniform(0, 191, (n_out, 2))])
    n = len(pa)
    for _ in range(draw(st.integers(0, n // 2))):
        i, j = rng.integers(0, n, 2)
        pa[i] = pa[j]
        if draw(st.booleans()):
            pb[i] = pb[j]
    cfg = rp.RansacConfig(
        threshold=draw(st.sampled_from([0.5, 1.0, 3.0])),
        max_iters=draw(st.sampled_from([1, 2, 63, 64, 65, 129]) | st.integers(1, 300)),
        confidence=draw(st.sampled_from([0.5, 0.9, 0.999])),
        seed=draw(st.integers(0, 2**31 - 1)),
    )
    return pa, pb, cfg


def _assert_equals_reference(est, ref):
    matrix, inliers, iterations, success = ref
    assert est.iterations == iterations
    assert est.success == success
    assert np.array_equal(est.inliers, inliers)
    if matrix is None:
        assert est.matrix is None
    else:
        assert np.array_equal(est.matrix, matrix)


class TestDrawSamples:
    def test_equals_the_choice_loop_and_leaves_the_same_state(self):
        """``_draw_samples`` pins numpy's ``Generator.choice`` algorithm for 8
        picks without replacement (Floyd's selection, then a Fisher-Yates
        shuffle of the picks). A numpy upgrade that changes that algorithm
        must fail here first, before any RANSAC result or report changes.

        Each generator serves the counts in turn, so later blocks start from
        a state earlier draws left half-used.
        """
        for seed in (0, 7, 2**31 - 1):
            for n in [*range(8, 601), 10_001, 20_000, 1_000_003]:
                blocked = np.random.default_rng(np.random.SeedSequence([seed]))
                looped = np.random.default_rng(np.random.SeedSequence([seed]))
                for count in (1, 2, 63, 64):
                    got = rp._draw_samples(blocked, n, count)
                    want = np.stack([looped.choice(n, size=8, replace=False) for _ in range(count)])
                    assert got.dtype == want.dtype and np.array_equal(got, want), (seed, n, count)
                    assert blocked.bit_generator.state == looped.bit_generator.state, (seed, n, count)


class TestBatchedRansac:
    # blocked scoring must reproduce the one-hypothesis-at-a-time loop exactly

    @settings(max_examples=60, deadline=None)
    @given(ransac_cases())
    def test_fundamental_equals_reference(self, case):
        pa, pb, cfg = case
        _assert_equals_reference(rp.ransac_fundamental(pa, pb, cfg), oracles.ransac_fundamental_reference(pa, pb, cfg))

    @settings(max_examples=60, deadline=None)
    @given(ransac_cases())
    def test_essential_equals_reference(self, case):
        pa, pb, cfg = case
        est = rp.ransac_essential(pa, pb, K_TEST, K_TEST, cfg)
        _assert_equals_reference(est, oracles.ransac_essential_reference(pa, pb, K_TEST, K_TEST, cfg))

    def test_default_budget_on_contaminated_scenes(self):
        # the full adaptive budget, several blocks deep
        for seed in range(3):
            rng = np.random.default_rng(seed)
            pa, pb = two_view_points(rng, 40)
            pa = np.vstack([pa, rng.uniform(0, 255, (25, 2))])
            pb = np.vstack([pb, rng.uniform(0, 191, (25, 2))])
            cfg = rp.RansacConfig(seed=seed)
            est = rp.ransac_fundamental(pa, pb, cfg)
            assert est.iterations > 64
            _assert_equals_reference(est, oracles.ransac_fundamental_reference(pa, pb, cfg))
            est = rp.ransac_essential(pa, pb, K_TEST, K_TEST, cfg)
            _assert_equals_reference(est, oracles.ransac_essential_reference(pa, pb, K_TEST, K_TEST, cfg))

    @settings(max_examples=60, deadline=None)
    @given(ransac_cases())
    def test_every_inlier_within_threshold(self, case):
        # and every point within threshold is an inlier
        pa, pb, cfg = case
        est = rp.ransac_fundamental(pa, pb, cfg)
        if est.success:
            d = rp.sampson_distances(est.matrix, pa, pb)
            assert np.array_equal(est.inliers, np.nonzero(d < cfg.threshold)[0])
        est = rp.ransac_essential(pa, pb, K_TEST, K_TEST, cfg)
        if est.success:
            inv = np.linalg.inv(K_TEST)
            d = rp.sampson_distances(inv.T @ est.matrix @ inv, pa, pb)
            assert np.array_equal(est.inliers, np.nonzero(d < cfg.threshold)[0])


@st.composite
def minimal_sample_batches(draw):
    """(B, m, 2) sample pairs: random or exact two-view points, some with
    duplicated, coincident or collinear points."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    b = draw(st.integers(1, 6))
    m = draw(st.integers(8, 16))
    sa = np.empty((b, m, 2))
    sb = np.empty((b, m, 2))
    for k in range(b):
        if draw(st.booleans()):
            sa[k], sb[k] = two_view_points(rng, m)
        else:
            sa[k] = rng.uniform(0, 255, (m, 2))
            sb[k] = rng.uniform(0, 191, (m, 2))
        damage = draw(st.sampled_from(["none", "duplicate", "coincide", "collinear", "integer"]))
        if damage == "duplicate":
            sa[k, 1:3] = sa[k, 0]
            sb[k, 1:3] = sb[k, 0]
        elif damage == "coincide":
            sa[k] = sa[k, 0]
        elif damage == "collinear":
            sb[k, :, 1] = 0.5 * sb[k, :, 0] + 3.0
        elif damage == "integer":
            sa[k] = np.round(sa[k] / 64.0)
            sb[k] = np.round(sb[k] / 64.0)
    return sa, sb


@st.composite
def consensus_sets(draw):
    """One consensus set of m = 9..300 correspondences, as a RANSAC refit
    sees it: noisy two-view inliers plus uniform outliers, sometimes only a
    few distinct points repeated, which leaves the design rank deficient."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = draw(st.integers(9, 300))
    n_out = draw(st.integers(0, m))
    pa, pb = two_view_points(rng, m - n_out)
    pa = np.vstack([pa + rng.normal(0.0, draw(st.sampled_from([0.0, 0.3])), pa.shape), rng.uniform(0, 255, (n_out, 2))])
    pb = np.vstack([pb, rng.uniform(0, 191, (n_out, 2))])
    if draw(st.booleans()):
        distinct = draw(st.integers(1, 10))
        pa, pb = pa[np.arange(m) % distinct], pb[np.arange(m) % distinct]
    return pa, pb


class TestEightPointBatch:
    @settings(max_examples=150, deadline=None)
    @given(minimal_sample_batches())
    def test_rows_equal_single_calls(self, samples):
        sa, sb = samples
        matrices, usable = rp._eight_point_batch(sa, sb)
        for b in range(len(sa)):
            single, single_usable = eight_point(sa[b], sb[b])
            assert usable[b] == single_usable
            assert np.array_equal(matrices[b], single)

    @settings(max_examples=150, deadline=None)
    @given(minimal_sample_batches())
    def test_rows_equal_reference_solver(self, samples):
        sa, sb = samples
        matrices, usable = rp._eight_point_batch(sa, sb)
        for b in range(len(sa)):
            try:
                ref = oracles.eight_point_reference(sa[b], sb[b])
            except (oracles.DegenerateSample, ValueError):
                assert not usable[b]
                continue
            assert usable[b]
            assert np.array_equal(matrices[b], ref)

    @settings(max_examples=100, deadline=None)
    @given(consensus_sets())
    def test_consensus_refit_equals_full_svd_reference(self, points):
        # the refit's thin SVD gives the full SVD's singular values and V bit for bit
        pa, pb = points
        matrices, usable = rp._eight_point_batch(pa[None], pb[None])
        try:
            ref = oracles.eight_point_reference(pa, pb)
        except (oracles.DegenerateSample, ValueError):
            assert not usable[0]
            return
        assert usable[0]
        assert np.array_equal(matrices[0], ref)

    def test_sampson_rows_equal_single_calls(self):
        rng = np.random.default_rng(3)
        m = rng.standard_normal((5, 3, 3))
        m[2] = 0.0  # every denominator vanishes: all inf
        pa = rng.uniform(0, 255, (30, 2))
        pb = rng.uniform(0, 191, (30, 2))
        d = rp._sampson_batch(m, pa, pb)
        assert np.isinf(d[2]).all()
        for b in range(5):
            assert np.array_equal(d[b], rp.sampson_distances(m[b], pa, pb))
            assert np.array_equal(d[b], oracles.sampson_reference(m[b], pa, pb))

    def test_essential_projection_equals_reference(self):
        rng = np.random.default_rng(4)
        m = rng.standard_normal((20, 3, 3))
        e = rp._essential_project(m)
        for b in range(20):
            assert np.array_equal(e[b], oracles.essential_project_reference(m[b]))


def degenerate_two_view_points(rng, n, rotation_only):
    """n exact correspondences through ``K_TEST`` that fix no fundamental
    matrix: points on one plane seen by a moved camera, or any points seen by
    a camera that only rotates. Either way the views are related by a
    homography, and a minimal sample of them is not determined."""
    r = rotation_from_axis_angle(rng.standard_normal(3), rng.uniform(0.02, 0.3))
    x, y = rng.uniform(-2, 2, n), rng.uniform(-1.5, 1.5, n)
    if rotation_only:
        t, z = np.zeros(3), rng.uniform(4, 8, n)
    else:
        t, z = rng.normal(0.0, 0.3, 3), 6.0 + rng.uniform(-0.3, 0.3) * x + rng.uniform(-0.3, 0.3) * y
    xyz = np.column_stack([x, y, z])
    ha = xyz @ K_TEST.T
    hb = (xyz @ r.T + t) @ K_TEST.T
    return ha[:, :2] / ha[:, 2:], hb[:, :2] / hb[:, 2:]


def _stub_model(inliers, residual):
    """A stub model whose first ``inliers`` points have ``residual`` and the rest +inf."""
    m = np.zeros((3, 3))
    m[0, 0], m[0, 1] = inliers, residual
    return m


def _stub_residuals(n):
    def residuals(models):
        return np.where(np.arange(n) < models[:, 0, 0, None], models[:, 0, 1, None], np.inf)

    return residuals


class TestCheckedCandidates:
    # the unchecked fit only picks the candidates; the checked solver decides

    def test_a_hypothesis_within_the_margin_is_checked_and_accepted(self):
        # unchecked, no point is below the threshold; checked, all are
        threshold, n = 2.0, 8
        pts = np.arange(2.0 * n).reshape(n, 2)
        checked = _stub_model(n, threshold * (1 - 1e-12))
        solved = []

        def hypotheses(sa, sb):
            return np.repeat(_stub_model(n, threshold * (1 + 1e-12))[None], len(sa), axis=0), np.ones(len(sa), bool)

        def solve(sa, sb):
            solved.append(sa.shape)
            return np.repeat(checked[None], len(sa), axis=0), np.ones(len(sa), bool)

        est = rp._ransac_loop(pts, pts, rp.RansacConfig(threshold=threshold), solve, _stub_residuals(n), hypotheses)
        assert solved[0] == (1, 8, 2)
        assert est.success and est.iterations == 1
        assert np.array_equal(est.matrix, checked)
        assert np.array_equal(est.inliers, np.arange(n))

    def test_an_unusable_checked_fit_is_rejected_whatever_its_unchecked_count(self):
        # a sample holding point 0 fits, unchecked, a model of all n inliers
        # but is unusable when checked; any other sample fits the first 12
        # points. Accepting the unusable fit would drop the adaptive budget to
        # one iteration
        n = 20
        pts = np.column_stack([np.arange(n, dtype=float), np.zeros(n)])
        cfg = rp.RansacConfig(threshold=1.0, max_iters=100, seed=4)
        residuals = _stub_residuals(n)
        rejected = []

        def bad(sample):
            return len(sample) == 8 and 0.0 in sample[:, 0]

        def hypotheses(sa, sb):
            models = [_stub_model(n if bad(s) else 12, 0.0) for s in sa]
            return np.stack(models), np.ones(len(sa), bool)

        def solve(sa, sb):
            usable = np.array([not bad(s) for s in sa])
            rejected.extend(~usable)
            # an unusable row holds garbage, here one that would win
            return np.stack([_stub_model(n if bad(s) else 12, 0.0) for s in sa]), usable

        def reference_solve(sa, sb):
            if bad(sa):
                raise oracles.DegenerateSample("stub")
            return _stub_model(12, 0.0)

        est = rp._ransac_loop(pts, pts, cfg, solve, residuals, hypotheses)
        ref = oracles.ransac_loop_reference(pts, pts, cfg, reference_solve, lambda m: residuals(m[None])[0])
        assert sum(rejected) > 0
        assert est.iterations == 100
        _assert_equals_reference(est, ref)


class TestDegenerateScenes:
    # a homography between the views: an all-inlier minimal sample fits many
    # points unchecked but is not determined. Exact points are ruled out by
    # the unchecked fit's mask; moved by 1e-7 px, some pass it and are
    # rejected by the checked solver

    @pytest.mark.parametrize("noise_px", [0.0, 1e-7, 1e-5])
    @pytest.mark.parametrize("rotation_only", [False, True])
    @pytest.mark.parametrize("seed", range(4))
    def test_equal_reference(self, seed, rotation_only, noise_px):
        rng = np.random.default_rng(seed)
        pa, pb = degenerate_two_view_points(rng, 30, rotation_only)
        n_out = int(rng.integers(3, 12))
        pa = np.vstack([pa + rng.normal(0.0, noise_px, pa.shape), rng.uniform(0, 255, (n_out, 2))])
        pb = np.vstack([pb, rng.uniform(0, 191, (n_out, 2))])
        cfg = rp.RansacConfig(threshold=1.0, max_iters=300, seed=seed)
        _assert_equals_reference(rp.ransac_fundamental(pa, pb, cfg), oracles.ransac_fundamental_reference(pa, pb, cfg))
        est = rp.ransac_essential(pa, pb, K_TEST, K_TEST, cfg)
        _assert_equals_reference(est, oracles.ransac_essential_reference(pa, pb, K_TEST, K_TEST, cfg))


def _same_up_to_sign_and_scale(m, ref, tol):
    """Whether the (3, 3) matrices agree, scaled to unit norm and signed alike, within ``tol``."""
    m = m / np.linalg.norm(m)
    m = m if np.sum(m * ref) >= 0 else -m
    return np.abs(m - ref / np.linalg.norm(ref)).max() <= tol


class TestFitBatch:
    @settings(max_examples=150, deadline=None)
    @given(minimal_sample_batches())
    def test_rows_equal_single_calls(self, samples):
        sa, sb = samples
        sa, sb = sa[:, :8], sb[:, :8]
        matrices, possible = rp._fit_batch(sa, sb)
        for b in range(len(sa)):
            single, single_possible = rp._fit_batch(sa[b : b + 1], sb[b : b + 1])
            assert possible[b] == single_possible[0]
            assert np.array_equal(matrices[b], single[0])

    @settings(max_examples=100, deadline=None)
    @given(minimal_sample_batches(), st.integers(0, 2**32 - 1))
    def test_rules_out_only_rows_the_checked_solver_cannot_use(self, samples, seed):
        # and most of those near its determinedness bound: homography-related
        # points moved by 1e-10 to 1e-4 px
        rng = np.random.default_rng(seed)
        pa, pb = degenerate_two_view_points(rng, 64 * 8, rotation_only=bool(seed % 2))
        pb = pb + rng.normal(0.0, 1.0, pb.shape) * 10.0 ** rng.uniform(-10, -4, (len(pb), 1))
        for sa, sb in [(samples[0][:, :8], samples[1][:, :8]), (pa.reshape(64, 8, 2), pb.reshape(64, 8, 2))]:
            _, possible = rp._fit_batch(sa, sb)
            _, usable = rp._eight_point_batch(sa, sb)
            assert not (usable & ~possible).any()

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([0.0, 0.3]), st.booleans())
    def test_equals_the_checked_fit_on_well_conditioned_samples(self, seed, noise_px, two_view):
        rng = np.random.default_rng(seed)
        if two_view:
            sa, sb = two_view_points(rng, 8)
            sa = sa + rng.normal(0.0, noise_px, sa.shape)
        else:
            sa, sb = rng.uniform(0, 255, (8, 2)), rng.uniform(0, 191, (8, 2))
        sv = np.linalg.svd(rp._design(sa[None], sb[None])[0][0], compute_uv=False)
        if sv[7] < 1e-4 * sv[0]:
            return  # not well conditioned
        checked, usable = rp._eight_point_batch(sa[None], sb[None])
        fit, possible = rp._fit_batch(sa[None], sb[None])
        assert usable[0] and possible[0]
        assert _same_up_to_sign_and_scale(rank_two_projection(fit)[0][0], checked[0], 1e-9)
        assert _same_up_to_sign_and_scale(rp._essential_project(fit)[0], rp._essential_project(checked)[0], 1e-9)


class TestTriangulate:
    def test_equals_per_point_reference(self):
        rng = np.random.default_rng(5)
        for n in (1, 2, 17, 100):
            r = rotation_from_axis_angle(rng.standard_normal(3), rng.uniform(0, 1))
            t = rng.standard_normal(3)
            t /= np.linalg.norm(t)
            na = rng.standard_normal((n, 2))
            nb = rng.standard_normal((n, 2))
            assert np.array_equal(rp._triangulate(r, t, na, nb), oracles.triangulate_reference(r, t, na, nb))

    def test_parallel_rays_meet_at_infinity(self):
        # a pure sideways baseline and equal image points: the two rays are
        # parallel, and a finite row between them stays finite
        na = np.array([[0.1, -0.2], [0.3, 0.4], [0.0, 0.0]])
        nb = na.copy()
        nb[2, 0] += 0.1
        t = np.array([1.0, 0.0, 0.0])
        out = rp._triangulate(np.eye(3), t, na, nb)
        assert np.isinf(out[:2]).all()
        assert np.allclose(out[2], [0.0, 0.0, 10.0])
        assert np.array_equal(out, oracles.triangulate_reference(np.eye(3), t, na, nb))


class TestRecoverPose:
    def test_noiseless_round_trip(self):
        scene, pa, pb = scene_correspondences(12, n=60)
        est = rp.ransac_essential(pa, pb, scene.cam_a.K, scene.cam_b.K, rp.RansacConfig(seed=0))
        pose = rp.recover_pose(est, pa[est.inliers], pb[est.inliers], scene.cam_a.K, scene.cam_b.K)
        rot, trans = pose_error(pose, scene.pose)
        assert rot < 1e-5 and trans < 1e-5

    def test_mirrored_gives_inverse_pose(self):
        scene, pa, pb = scene_correspondences(13, n=60)
        est = rp.ransac_essential(pb, pa, scene.cam_b.K, scene.cam_a.K, rp.RansacConfig(seed=0))
        pose = rp.recover_pose(est, pb[est.inliers], pa[est.inliers], scene.cam_b.K, scene.cam_a.K)
        gt = scene.pose
        inv_t = -gt.R.T @ gt.t
        from guidematch.geometry import RelativePose

        rot, trans = pose_error(pose, RelativePose(gt.R.T, inv_t / np.linalg.norm(inv_t)))
        assert rot < 1e-5 and trans < 1e-5

    def test_noisy_rotation_accuracy(self):
        errs = []
        for seed in range(10):
            scene, pa, pb = scene_correspondences(200 + seed, n=100)
            rng = np.random.default_rng(seed)
            pa_n = pa + rng.normal(0, 1.0, pa.shape)
            pb_n = pb + rng.normal(0, 1.0, pb.shape)
            est = rp.ransac_essential(
                pa_n, pb_n, scene.cam_a.K, scene.cam_b.K, rp.RansacConfig(threshold=3.0, seed=seed)
            )
            if not est.success:
                continue
            pose = rp.recover_pose(est, pa_n[est.inliers], pb_n[est.inliers], scene.cam_a.K, scene.cam_b.K)
            errs.append(pose_error(pose, scene.pose)[0])
        assert len(errs) >= 8
        assert np.median(errs) < 2.0

    def test_no_majority_errors(self):
        scene, pa, pb = scene_correspondences(14, n=40)
        est = rp.ransac_essential(pa, pb, scene.cam_a.K, scene.cam_b.K, rp.RansacConfig(seed=0))
        # feed grossly inconsistent correspondences: behind-camera situation
        with pytest.raises(rp.PoseRecoveryError):
            rp.recover_pose(np.eye(3) - np.diag([0, 0, 1.0]), np.zeros((0, 2)), np.zeros((0, 2)), scene.cam_a.K, scene.cam_b.K)
