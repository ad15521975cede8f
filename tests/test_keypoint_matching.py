import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.ndimage import gaussian_filter, maximum_filter

from guidematch import keypoint_matching as km
from guidematch.coarse_matcher import CoarseMatchField, interpolate_matches
from guidematch.geometry import FundamentalMatrix, SceneConfig, epipolar_distances, generate_scene

import oracles


def stamp_image(size=128, stamp_seed=0, positions=((30, 30), (95, 95)), background=0.5):
    """Image with identical texture stamps pasted at integer offsets."""
    rng = np.random.default_rng(stamp_seed)
    stamp = rng.random((17, 17))
    img = np.full((size, size), background)
    for cx, cy in positions:
        img[cy - 8 : cy + 9, cx - 8 : cx + 9] = stamp
    return img


def textured_image(seed=0, size=128):
    scene = generate_scene(SceneConfig(width=size, height=size), seed)
    return scene.image_a


def oracle_field_from_offset(grid=(8, 8), stride=16, size=(128, 128), offset=(0, 0)):
    """Field mapping each cell to the cell shifted by a fixed cell offset."""
    h, w = grid
    cells = np.zeros((h, w, 2), dtype=np.int64)
    for i in range(h):
        for j in range(w):
            cells[i, j] = (np.clip(i + offset[0], 0, h - 1), np.clip(j + offset[1], 0, w - 1))
    return CoarseMatchField(cells, np.ones(grid), stride, size, size)


def _keypoints(points):
    return km.KeypointSet(points, km.BASE_SCALE, 1.0)


def _same_bits(got, want):
    return got.shape == want.shape and got.dtype == want.dtype and got.tobytes() == want.tobytes()


class TestKeypointSet:
    def test_frozen_read_only_copies(self):
        xy = np.array([[1.0, 2.0], [3.0, 4.0]])
        kps = km.KeypointSet(xy, np.array([9.0, 18.0]), 1.0)
        xy[0, 0] = 7.0
        assert len(kps) == 2 and kps.xy[0, 0] == 1.0
        assert kps.scale.tolist() == [9.0, 18.0] and kps.response.tolist() == [1.0, 1.0]
        for values in (kps.xy, kps.scale, kps.response):
            with pytest.raises(ValueError, match="read-only"):
                values[0] = 0.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            kps.xy = xy

    def test_empty_set_shapes(self):
        kps = _keypoints([])
        assert len(kps) == 0 and kps.xy.shape == (0, 2) and kps.scale.shape == kps.response.shape == (0,)

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            km.KeypointSet(np.zeros((3, 2)), np.ones(2), 1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_position_raises(self, bad):
        # caught here rather than as an index error deep inside describe
        with pytest.raises(ValueError, match="finite"):
            km.KeypointSet(np.array([[1.0, 2.0], [3.0, bad]]), km.BASE_SCALE, 1.0)


@st.composite
def detector_images(draw):
    """Images for the detector's reference test, with the case each kind covers."""
    h, w = draw(st.integers(32, 72)), draw(st.integers(32, 72))  # odd sizes drop a row or column per level
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["noise", "smooth", "quantized", "blocks", "tiled", "constant"]))
    if kind == "noise":
        img = rng.random((h, w))
    elif kind == "smooth":
        img = gaussian_filter(rng.random((h, w)), draw(st.floats(1.0, 4.0)))
    elif kind == "quantized":  # few grey levels: tied responses
        img = np.round(rng.random((h, w)) * 2) / 2
    elif kind == "blocks":  # repeated binary blocks: tied responses at equal corners
        img = np.kron(rng.integers(0, 2, (h // 4 + 1, w // 4 + 1)), np.ones((4, 4)))[:h, :w]
    elif kind == "tiled":  # period NMS_RADIUS: equal peaks NMS_RADIUS apart
        r = km.NMS_RADIUS
        img = np.tile(rng.random((r, r)), (h // r + 1, w // r + 1))[:h, :w]
    else:
        img = np.full((h, w), 0.3)
    # low contrast gives near-singular Hessians, and levels below the 1e-12 peak floor
    amplitude = draw(st.sampled_from([1.0, 0.05, 0.01, 0.002]))
    return img * amplitude, draw(st.integers(1, 400))


@st.composite
def plateau_arrays(draw):
    """2-D arrays with plateaus, repeated values, signed zeros and infinities."""
    h, w = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    value = st.sampled_from([0.0, -0.0, 1.0, -1.0]) | st.floats(allow_nan=False)
    values = draw(st.lists(value, min_size=1, max_size=6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    block = draw(st.integers(1, 12))
    return np.kron(rng.choice(np.array(values), size=(h, w)), np.ones((block, block)))[:h, :w]


@pytest.fixture(scope="module")
def noise_1080p():
    """About 20k detection candidates, most of them kept."""
    return np.random.default_rng(0).random((1080, 1920))


class TestDetect:
    @settings(max_examples=200, deadline=None)
    @given(detector_images())
    def test_equals_per_candidate_reference(self, case):
        image, max_count = case
        kps = km.detect_keypoints(image, max_count)
        xy, scale, response = oracles.detect_keypoints_reference(image, max_count)
        assert _same_bits(kps.xy, xy) and _same_bits(kps.scale, scale) and _same_bits(kps.response, response)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([1.0, 1e-4, 1e-7]))
    def test_refinement_equals_scalar_reference(self, seed, amplitude):
        # small amplitudes make every Hessian near singular; a flat patch has det 0
        resp = np.random.default_rng(seed).standard_normal((9, 11)) * amplitude
        resp[3:6, 3:6] = resp[4, 4]
        rows, cols = (g.ravel() for g in np.meshgrid(np.arange(1, 8), np.arange(1, 10), indexing="ij"))
        want = np.array([oracles.refine_subpixel_reference(resp, r, c) for r, c in zip(rows, cols)])
        assert _same_bits(km._refine_subpixel(resp, rows, cols), want)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_suppression_equals_greedy_reference(self, data):
        # half-pixel positions put candidates exactly NMS_RADIUS apart and,
        # past the image size, outside the image; three responses make ties
        width, height = data.draw(st.integers(1, 20)), data.draw(st.integers(1, 20))
        coord = st.integers(-4, 44).map(lambda v: v / 2)
        cand = st.tuples(coord, coord, st.just(km.BASE_SCALE), st.sampled_from([0.5, 1.0, 2.0]))
        cands = data.draw(st.lists(cand, max_size=40))
        max_count = data.draw(st.integers(1, 45))
        xy = np.array([c[:2] for c in cands]).reshape(-1, 2)
        kept = km._suppress(xy, np.array([c[3] for c in cands]), width, height, max_count)
        assert kept.tolist() == oracles.greedy_nms_reference(cands, width, height, max_count)

    def test_suppression_rule(self):
        r = km.NMS_RADIUS
        # exactly NMS_RADIUS apart: both kept; just inside it: dropped
        xy = np.array([[10.0, 10.0], [10.0 + r, 10.0], [10.0, 10.0 + r - 0.5]])
        assert km._suppress(xy, np.array([3.0, 2.0, 1.0]), 32, 32, 10).tolist() == [0, 1]
        # an out-of-image candidate is skipped and suppresses nothing
        xy = np.array([[-0.5, 5.0], [1.0, 5.0], [5.0, 31.5]])
        assert km._suppress(xy, np.array([3.0, 2.0, 1.0]), 32, 32, 10).tolist() == [1]

    def test_constant_image_empty(self):
        kps = km.detect_keypoints(np.full((64, 64), 0.3), 500)
        assert len(kps) == 0 and kps.xy.shape == (0, 2) and kps.scale.shape == kps.response.shape == (0,)

    def test_single_blob(self):
        img = np.zeros((64, 64))
        img[30:33, 40:43] = 1.0
        kps = km.detect_keypoints(img, max_count=10)
        assert len(kps) >= 1
        x, y = kps.xy[0]
        assert abs(x - 41.0) <= 2.0 and abs(y - 31.0) <= 2.0

    def test_sorted_by_response_and_capped(self):
        img = textured_image(1)
        kps = km.detect_keypoints(img, max_count=50)
        assert len(kps) == 50
        assert np.all(np.diff(kps.response) <= 0)
        many = km.detect_keypoints(img, max_count=100000)
        assert len(many) >= 50

    def test_too_small_errors(self):
        with pytest.raises(ValueError, match="small"):
            km.detect_keypoints(np.zeros((16, 16)), 500)

    @pytest.mark.parametrize("max_count", [0, -1, 2.5, 50.0, True, "50", None])
    def test_count_below_one_errors(self, max_count):
        # no stop test can end the greedy loop at 0 or -1 kept keypoints, nor
        # at a fractional cap, which the kept count never equals
        with pytest.raises(ValueError, match="max_count"):
            km.detect_keypoints(textured_image(1), max_count)

    def test_numpy_integer_count(self):
        img = textured_image(1)
        assert _same_bits(km.detect_keypoints(img, np.int64(50)).xy, km.detect_keypoints(img, 50).xy)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_image_errors(self, bad):
        # a non-finite response maximum would skip every level and return no keypoints
        img = textured_image(1).copy()
        img[40, 50] = bad
        with pytest.raises(ValueError, match="non-finite"):
            km.detect_keypoints(img, 500)

    def test_overflowing_response_errors(self):
        # the response grows with the fourth power of the intensities, so a
        # finite image can overflow it; that used to skip every level silently
        image = generate_scene(SceneConfig(width=128, height=128), 0).image_a
        assert len(km.detect_keypoints(image, 500)) > 0
        with pytest.raises(ValueError, match="overflows"):
            km.detect_keypoints(image * 1e150, 500)

    @settings(max_examples=300, deadline=None)
    @given(plateau_arrays())
    def test_running_max_equals_maximum_filter(self, values):
        want = maximum_filter(values, size=2 * km.NMS_RADIUS + 1, mode="nearest")
        assert _same_bits(km._running_max(values), want)

    def test_suppression_of_dense_candidates_equals_greedy_reference(self, noise_1080p):
        xy, scale, response = km._candidates(noise_1080p)
        assert len(xy) > 20000
        cands = list(zip(xy[:, 0].tolist(), xy[:, 1].tolist(), scale.tolist(), response.tolist()))
        kept = km._suppress(xy, response, 1920, 1080, len(cands))
        assert kept.tolist() == oracles.greedy_nms_reference(cands, 1920, 1080, len(cands))

    def test_memory_is_linear_in_the_image(self, noise_1080p):
        # a table of candidate pairs would take gigabytes here
        tracemalloc.start()
        try:
            km.detect_keypoints(noise_1080p, 100000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 10 * noise_1080p.nbytes

    def test_inside_bounds(self):
        img = textured_image(2)
        xy = km.detect_keypoints(img, max_count=200).xy
        assert np.all((xy >= 0) & (xy <= 127))


class TestDescribe:
    def test_identical_stamps_give_identical_descriptors(self):
        img = stamp_image()
        kps = km.detect_keypoints(img, max_count=40)
        on_first = np.nonzero(np.all(np.abs(kps.xy - 30) < 9, axis=1))[0]
        assert len(on_first), "no keypoints on the first stamp"
        k = kps.xy[on_first[0]]
        desc = km.describe(img, _keypoints([k, k + 65.0]))
        assert np.linalg.norm(desc[0] - desc[1]) < 1e-6

    def test_constant_patch_zero_vector(self):
        img = np.full((64, 64), 0.7)
        desc = km.describe(img, _keypoints([(32.0, 32.0)]))
        assert np.all(desc == 0.0)

    def test_same_keypoint_identical(self):
        img = textured_image(3)
        desc = km.describe(img, _keypoints([(50.3, 60.7), (50.3, 60.7)]))
        assert np.array_equal(desc[0], desc[1])

    def test_unit_norm(self):
        img = textured_image(4)
        kps = km.detect_keypoints(img, max_count=30)
        desc = km.describe(img, kps)
        norms = np.linalg.norm(desc, axis=1)
        assert np.abs(norms - 1.0).max() < 1e-9


class TestMatchRaw:
    def test_exact_copy_identity(self):
        rng = np.random.default_rng(0)
        vecs = rng.standard_normal((10, 16))
        vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
        ms = km.match_raw(vecs, vecs.copy())
        assert np.array_equal(ms.index_b, np.arange(10))
        assert np.allclose(ms.distance, 0.0)

    def test_single_target(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((5, 8))
        b = rng.standard_normal((1, 8))
        ms = km.match_raw(a, b)
        assert np.all(ms.index_b == 0)
        assert np.all(np.isnan(ms.second_distance))

    def test_empty_set_is_a_matching_error(self):
        vecs = np.ones((3, 4))
        with pytest.raises(km.MatchingError, match="non-empty"):
            km.match_raw(vecs, np.zeros((0, 4)))

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((20, 12))
        b = rng.standard_normal((15, 12))
        ms = km.match_raw(a, b)
        for i in range(20):
            dists = [float(np.linalg.norm(a[i] - b[j])) for j in range(15)]
            best = int(np.argmin(dists))
            assert ms.index_b[i] == best
            assert ms.distance[i] == pytest.approx(dists[best], abs=1e-12)
            dists[best] = np.inf
            assert ms.second_distance[i] == pytest.approx(min(dists), abs=1e-12)


class TestSpatialGrid:
    """The spatial candidate window of ``match_guided``."""

    def test_infinite_radius(self):
        # an infinite window admits every B keypoint, however far from the
        # coarse match: each one in turn wins when its descriptor is nearest
        field = oracle_field_from_offset()
        pts = np.random.default_rng(4).uniform(0, 10, size=(7, 2)) * [100.0, -50.0]
        kps_a = _keypoints([(5.0, 5.0)])
        kps_b = _keypoints(pts)
        desc_a = np.ones((1, 7))
        for k in range(7):
            vecs = np.eye(7)
            vecs[k] = 1.0
            ms = km.match_guided(kps_a, desc_a, kps_b, vecs, field, np.inf)
            assert ms.pairs() == [(0, k)]


class TestMatchGuided:
    def _setup(self, seed=5):
        img = textured_image(seed)
        kps = km.detect_keypoints(img, max_count=60)
        desc = km.describe(img, kps)
        return img, kps, desc

    def test_infinite_window_equals_raw(self):
        img, kps, desc = self._setup()
        field = oracle_field_from_offset()
        guided = km.match_guided(kps, desc, kps, desc, field, np.inf)
        raw = km.match_raw(desc, desc)
        assert guided.pairs() == raw.pairs()
        assert np.array_equal(guided.distance, raw.distance)

    @pytest.mark.parametrize("window", [0.0, -4.0, math.nan, -math.inf])
    def test_window_must_be_positive(self, window):
        _, kps, desc = self._setup()
        with pytest.raises(ValueError, match="window must be positive"):
            km.match_guided(kps, desc, kps, desc, oracle_field_from_offset(), window)

    def test_window_subset_property(self):
        img, kps, desc = self._setup(6)
        field = oracle_field_from_offset()
        w = 24.0
        ms = km.match_guided(kps, desc, kps, desc, field, w)
        coords = kps.xy
        sx, sy = field.scale_src
        mapped = interpolate_matches(field, coords * [sx, sy])
        for i, j in ms.pairs():
            assert np.hypot(mapped[i][0] - coords[j][0], mapped[i][1] - coords[j][1]) < w

    def test_empty_window_unmatched(self):
        img, kps, desc = self._setup(7)
        # field points every cell to the far corner, but keep only B
        # keypoints far away from it so every window is empty
        cells = np.full((8, 8, 2), 7, dtype=np.int64)
        field = CoarseMatchField(cells, np.ones((8, 8)), 16, (128, 128), (128, 128))
        keep = np.hypot(kps.xy[:, 0] - 120, kps.xy[:, 1] - 120) > 30
        kps_b = km.KeypointSet(kps.xy[keep], kps.scale[keep], kps.response[keep])
        desc_b = desc[keep]
        ms = km.match_guided(kps, desc, kps_b, desc_b, field, 8.0)
        assert len(ms) == 0

    def test_window_strictness(self):
        # the B keypoint at exactly W carries the source's own descriptor, so
        # admitting it would make it win; the strict window must exclude it
        field = oracle_field_from_offset()  # identity: (8, 8) maps to (8, 8)
        kps_a = _keypoints([(8.0, 8.0)])
        kps_b = _keypoints([(8.0, 8.0), (13.0, 8.0)])
        desc_a = np.array([[1.0, 0.0]])
        desc_b = np.array([[0.0, 1.0], [1.0, 0.0]])
        ms = km.match_guided(kps_a, desc_a, kps_b, desc_b, field, 5.0)
        assert ms.pairs() == [(0, 0)]
        assert np.isnan(ms.second_distance[0])

    def test_source_outside_image_unmatched(self):
        field = oracle_field_from_offset()
        kps_a = _keypoints([(-3.0, 8.0), (8.0, 8.0), (8.0, 128.0)])
        kps_b = _keypoints([(8.0, 8.0)])
        desc = np.ones((3, 2))
        ms = km.match_guided(kps_a, desc, kps_b, np.ones((1, 2)), field, 200.0)
        assert ms.pairs() == [(1, 0)]

    def test_repeated_structure_disambiguation(self):
        # two identical stamps; the guided window keeps only the right one
        img_a = stamp_image(positions=((30, 30), (95, 95)))
        img_b = img_a.copy()
        kps_a = km.detect_keypoints(img_a, max_count=30)
        desc_a = km.describe(img_a, kps_a)
        field = oracle_field_from_offset()  # identity mapping
        ms = km.match_guided(kps_a, desc_a, kps_a, desc_a, field, 16.0)
        coords = kps_a.xy
        for i, j in ms.pairs():
            # with identity guidance every keypoint must match itself, never
            # its twin on the other stamp 92 px away
            assert np.hypot(*(coords[i] - coords[j])) < 8.0


class TestMatchSet:
    def test_length_mismatch_is_a_value_error(self):
        with pytest.raises(ValueError, match=r"\(3, 3, 2, 3\)"):
            km.MatchSet(np.arange(3), np.arange(3), np.zeros(2), np.zeros(3))


class TestMutualAndRatio:
    def _match_sets(self):
        ab = km.MatchSet(
            np.array([0, 1, 2]),
            np.array([1, 0, 2]),
            np.array([0.5, 0.4, 0.9]),
            np.array([1.0, 0.41, np.nan]),
        )
        ba = km.MatchSet(np.array([0, 1, 2]), np.array([1, 0, 0]), np.zeros(3), np.full(3, np.nan))
        return ab, ba

    def test_mutual_keeps_cycle(self):
        ab, ba = self._match_sets()
        kept = km.mutual_check(ab, ba)
        assert kept.pairs() == [(0, 1), (1, 0)]

    def test_mutual_matches_definition_oracle(self):
        rng = np.random.default_rng(8)
        a = rng.standard_normal((25, 6))
        b = rng.standard_normal((18, 6))
        ab = km.match_raw(a, b)
        ba = km.match_raw(b, a)
        kept = km.mutual_check(ab, ba)
        expected = [
            (i, int(ab.index_b[i]))
            for i in range(len(ab))
            if int(ba.index_b[int(ab.index_b[i])]) == i
        ]
        assert kept.pairs() == expected

    def test_mutual_idempotent(self):
        ab, ba = self._match_sets()
        once = km.mutual_check(ab, ba)
        twice = km.mutual_check(once, ba)
        assert once.pairs() == twice.pairs()

    def test_ratio_kept_and_dropped(self):
        ms = km.MatchSet(
            np.array([0, 1]), np.array([0, 1]), np.array([0.5, 0.9]), np.array([1.0, 1.0])
        )
        kept = km.ratio_test(ms, 0.8)
        assert kept.pairs() == [(0, 0)]

    def test_no_second_candidate_kept(self):
        ms = km.MatchSet(np.array([0]), np.array([3]), np.array([0.9]), np.array([np.nan]))
        assert len(km.ratio_test(ms, 0.8)) == 1

    def test_monotone_in_ratio(self):
        rng = np.random.default_rng(9)
        a = rng.standard_normal((40, 6))
        b = rng.standard_normal((40, 6))
        ms = km.match_raw(a, b)
        sizes = [len(km.ratio_test(ms, r)) for r in (0.8, 0.9, 0.95)]
        assert sizes == sorted(sizes)


class TestModelGuided:
    def _scene_keypoints(self, seed=10, size=128):
        scene = generate_scene(SceneConfig(width=size, height=size), seed)
        kps_a = km.detect_keypoints(scene.image_a, max_count=150)
        kps_b = km.detect_keypoints(scene.image_b, max_count=150)
        return scene, kps_a, km.describe(scene.image_a, kps_a), kps_b, km.describe(scene.image_b, kps_b)

    def test_infinite_band_equals_raw(self):
        scene, ka, da, kb, db = self._scene_keypoints()
        ms = km.match_model_guided(ka, da, kb, db, band_px=np.inf)
        raw = km.match_raw(da, db)
        assert ms.pairs() == raw.pairs()

    def test_stage2_band_contains_truth(self):
        scene, ka, da, kb, db = self._scene_keypoints(11)
        ms = km.match_model_guided(ka, da, kb, db, band_px=3.0)
        assert len(ms) >= 8
        # matched pairs must sit close to the epipolar geometry of the scene
        ca, cb = km.match_coords(ms, ka, kb)
        d = epipolar_distances(scene.fundamental, ca, cb)
        # the estimated model may differ slightly from GT, allow slack
        assert np.median(d) < 3.0

    def test_corrupted_model_hurts_precision(self):
        scene, ka, da, kb, db = self._scene_keypoints(12)
        good = km.match_model_guided(ka, da, kb, db, band_px=3.0)
        wrong = FundamentalMatrix.from_array(
            np.array([[0, 0, 0], [0, 0, -1.0], [1e-3, 1.0, -60.0]])
        )
        bad = km.match_epipolar_band(ka, da, kb, db, wrong, 3.0)

        def precision(ms):
            if not len(ms):
                return 0.0
            ca, cb = km.match_coords(ms, ka, kb)
            gt_b, vis = scene.map_a_to_b(ca)
            ok = vis & (np.hypot(gt_b[:, 0] - cb[:, 0], gt_b[:, 1] - cb[:, 1]) < 4.0)
            return ok.mean()

        assert precision(bad) < precision(good)

    @pytest.mark.parametrize("band_px", [np.nan, -np.inf])
    def test_nan_or_negative_infinite_band_is_a_value_error(self, band_px):
        # not a stage-1 MatchingError that eval_pose would count as a pose
        # failure, nor raw matching as an infinite band gives
        scene, ka, da, kb, db = self._scene_keypoints(11)
        with pytest.raises(ValueError, match="threshold must be positive and finite"):
            km.match_model_guided(ka, da, kb, db, band_px=band_px)

    def test_too_few_keypoints_errors(self):
        img = textured_image(13)
        kps = km.detect_keypoints(img, max_count=5)
        desc = km.describe(img, kps)
        with pytest.raises(km.MatchingError):
            km.match_model_guided(kps, desc, kps, desc, band_px=3.0)

    def test_band_distances_equal_all_pairs_epipolar_distances(self):
        # from two A keypoints up, as match_model_guided passes 8 or more: a
        # one-row product of the lines would take another BLAS path
        rng = np.random.default_rng(5)
        fmat = FundamentalMatrix.from_array(rng.standard_normal((3, 3)))
        flat = np.array([[1.0, 2.0, 0.0], [3.0, 4.0, 0.0], [5.0, 6.0, 7.0]])  # the origin's line is (0, 0, 7)
        for n_a in range(2, 41):
            for n_b in range(1, 41):
                xy_a, xy_b = rng.random((n_a, 2)) * 256, rng.random((n_b, 2)) * 256
                F = fmat
                if (n_a + n_b) % 5 == 0:  # a degenerate line: an infinite distance
                    F, xy_a[rng.integers(n_a)] = flat, 0.0
                ia, ib = np.indices((n_a, n_b)).reshape(2, -1)
                want = epipolar_distances(F, xy_a[ia], xy_b[ib]).reshape(n_a, n_b)
                assert _same_bits(km._band_distances(F, xy_a, xy_b), want), (n_a, n_b)


class TestFileFormats:
    def test_match_csv(self, tmp_path):
        img = textured_image(15)
        kps = km.detect_keypoints(img, max_count=20)
        desc = km.describe(img, kps)
        ms = km.match_raw(desc, desc)
        km.save_matches(tmp_path / "m.csv", ms, kps, kps)
        lines = (tmp_path / "m.csv").read_text().splitlines()
        assert lines[0] == "iA,iB,xA,yA,xB,yB,dist"
        assert len(lines) == len(ms) + 1


def _descriptors(draw, pool, n):
    """Rows drawn from a three-vector pool, so equal descriptors (ties) recur."""
    return pool[draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))]


def _mapped_or_nan(field, coords):
    """Per-point coarse match in B pixels; nan where the field is undefined."""
    out = np.full((len(coords), 2), np.nan)
    for i, p in enumerate(coords):
        try:
            out[i] = interpolate_matches(field, p * np.array(field.scale_src))[0] / np.array(field.scale_tgt)
        except ValueError:
            pass
    return out


@st.composite
def guided_cases(draw):
    hs, ws, ht, wt = (draw(st.integers(1, 3)) for _ in range(4))
    cell = st.tuples(st.integers(0, ht - 1), st.integers(0, wt - 1))
    cells = draw(st.lists(cell, min_size=hs * ws, max_size=hs * ws))
    field = CoarseMatchField(
        np.array(cells).reshape(hs, ws, 2), np.ones((hs, ws)), 16, (16 * hs, 16 * ws), (16 * ht, 16 * wt)
    )
    scales = st.sampled_from([(1.0, 1.0), (0.5, 0.75), (1.25, 0.5)])
    field.scale_src, field.scale_tgt = draw(scales), draw(scales)
    coord = st.floats(-10.0, 70.0)
    pts_a = draw(st.lists(st.tuples(coord, coord), max_size=8))
    pts_b = draw(st.lists(st.tuples(coord, coord), max_size=10))
    window = draw(st.floats(0.5, 60.0))
    pool = np.random.default_rng(draw(st.integers(0, 2**16))).standard_normal((3, 4))
    desc_a = _descriptors(draw, pool, len(pts_a))
    desc_b = _descriptors(draw, pool, len(pts_b))
    edge = None
    mapped = _mapped_or_nan(field, np.array(pts_a).reshape(-1, 2))
    inside = np.nonzero(np.isfinite(mapped[:, 0]))[0]
    if len(inside) and draw(st.booleans()):
        # a B keypoint at exactly the window radius, carrying the source's own
        # descriptor: it would win if the strict window admitted it
        i = int(inside[0])
        bx = mapped[i, 0] + window
        window = abs(mapped[i, 0] - bx)
        pts_b.append((bx, mapped[i, 1]))
        desc_b = np.vstack([desc_b, desc_a[i]])
        edge = (i, len(pts_b) - 1)
    return field, _keypoints(pts_a), desc_a, _keypoints(pts_b), desc_b, window, edge


def _assert_same(ms, ref):
    index_a, index_b, d1, d2 = ref
    assert np.array_equal(ms.index_a, index_a)
    assert np.array_equal(ms.index_b, index_b)
    assert np.array_equal(ms.distance, d1)
    assert np.array_equal(ms.second_distance, d2, equal_nan=True)


class TestMaskedMatcherOracles:
    @settings(max_examples=300, deadline=None)
    @given(guided_cases())
    def test_guided_equals_per_keypoint_loop(self, case):
        field, kps_a, desc_a, kps_b, desc_b, window, edge = case
        ms = km.match_guided(kps_a, desc_a, kps_b, desc_b, field, window)
        mapped = _mapped_or_nan(field, kps_a.xy)
        ref = oracles.guided_match_loop(mapped, kps_b.xy, desc_a, desc_b, window)
        _assert_same(ms, ref)
        if edge is not None:
            assert edge not in ms.pairs()

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(0, 2**16),
        st.lists(st.tuples(st.floats(0.0, 100.0), st.floats(0.0, 100.0)), max_size=8),
        st.lists(st.tuples(st.floats(0.0, 100.0), st.floats(0.0, 100.0)), max_size=10),
        st.floats(0.5, 40.0),
        st.data(),
    )
    def test_model_guided_equals_per_keypoint_loop(self, seed, pts_a, pts_b, band, data):
        # a generic F keeps every line distance away from the band edge, where
        # the two evaluation orders could round to opposite sides
        rng = np.random.default_rng(seed)
        fmat = FundamentalMatrix.from_array(rng.standard_normal((3, 3)))
        pool = rng.standard_normal((3, 4))
        desc_a = _descriptors(data.draw, pool, len(pts_a))
        desc_b = _descriptors(data.draw, pool, len(pts_b))
        kps_a, kps_b = _keypoints(pts_a), _keypoints(pts_b)
        ms = km.match_epipolar_band(kps_a, desc_a, kps_b, desc_b, fmat, band)
        ref = oracles.epipolar_band_match_loop(
            fmat.matrix, kps_a.xy, kps_b.xy, desc_a, desc_b, band
        )
        _assert_same(ms, ref)

    @given(
        st.dictionaries(st.integers(0, 12), st.integers(0, 12)),
        st.dictionaries(st.integers(0, 12), st.integers(0, 12)),
    )
    def test_mutual_equals_dict_definition(self, ab_map, ba_map):
        def match_set(mapping):
            keys = sorted(mapping)
            n = len(keys)
            return km.MatchSet(
                np.array(keys, dtype=np.int64),
                np.array([mapping[k] for k in keys], dtype=np.int64),
                np.zeros(n),
                np.full(n, np.nan),
            )

        ab, ba = match_set(ab_map), match_set(ba_map)
        assert km.mutual_check(ab, ba).pairs() == oracles.mutual_pairs_dict(ab.pairs(), ba.pairs())
