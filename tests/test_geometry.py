import dataclasses
import re
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from guidematch.geometry import (
    CameraCalibration,
    FundamentalMatrix,
    RelativePose,
    SceneConfig,
    epipolar_distances,
    fundamental_from_calibration,
    generate_scene,
    load_scene,
    pose_error,
    rescale_fundamental,
    rotation_from_axis_angle,
    save_scene,
)
from guidematch.geometry.epipolar import canonicalize_fundamental
from guidematch.geometry import scene as scene_module
from guidematch.geometry.scene import ConfigError, SyntheticScene, load_config, read_pgm, write_pgm
from guidematch.supervision import TrainConfig

import oracles

RECTIFIED = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]])


def simple_camera(width=64, height=64, focal=64.0, R=None, t=None):
    K = np.array([[focal, 0, width / 2], [0, focal, height / 2], [0, 0, 1.0]])
    return CameraCalibration(K, np.eye(3) if R is None else R, np.zeros(3) if t is None else t, width, height)


def proportional(a, b, tol=1e-9):
    a = a / np.linalg.norm(a)
    b = b / np.linalg.norm(b)
    return min(np.abs(a - b).max(), np.abs(a + b).max()) < tol


class TestFundamental:
    def test_rectified_stereo_form(self):
        cam_a = simple_camera()
        cam_b = simple_camera(t=np.array([-0.5, 0.0, 0.0]))
        F = fundamental_from_calibration(cam_a, cam_b)
        assert proportional(F.matrix, RECTIFIED)

    def test_epipolar_constraint_on_projections(self):
        rng = np.random.default_rng(0)
        cam_a = simple_camera()
        R = rotation_from_axis_angle([0.2, 1.0, 0.1], 0.1)
        center = np.array([0.8, 0.1, 0.05])
        cam_b = simple_camera(R=R, t=-R @ center)
        F = fundamental_from_calibration(cam_a, cam_b)
        worst = 0.0
        count = 0
        while count < 100:
            X = np.array([rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(5, 9)])
            pa = oracles.project(cam_a, X)
            pb = oracles.project(cam_b, X)
            if pa is None or pb is None:
                continue
            count += 1
            xa = np.array([*pa, 1.0])
            xb = np.array([*pb, 1.0])
            worst = max(worst, abs(float(xb @ F.matrix @ xa)))
        assert worst < 1e-9

    def test_swapped_arguments_transpose(self):
        cam_a = simple_camera()
        R = rotation_from_axis_angle([0, 1, 0.3], 0.15)
        cam_b = simple_camera(R=R, t=-R @ np.array([1.0, 0.2, 0.1]))
        f_ab = fundamental_from_calibration(cam_a, cam_b)
        f_ba = fundamental_from_calibration(cam_b, cam_a)
        assert proportional(f_ba.matrix, f_ab.matrix.T)

    def test_identical_centers_error(self):
        cam = simple_camera()
        with pytest.raises(ValueError, match="center"):
            fundamental_from_calibration(cam, cam)

    def test_rank2_invariant(self):
        rng = np.random.default_rng(1)
        F = FundamentalMatrix.from_array(rng.standard_normal((3, 3)))
        s = np.linalg.svd(F.matrix, compute_uv=False)
        assert s[2] < 1e-12 * s[0]
        assert abs(np.linalg.norm(F.matrix) - 1.0) < 1e-12


@st.composite
def canonical_inputs(draw):
    """A 3x3 matrix over a wide range of scales, and whether it must be
    refused. The zero matrix and a single non-zero entry have no canonical
    form. Random, rank-2 and rank-1 matrices (outer products, one non-zero
    row or column) are compared with the reference only: rounding in the SVD
    makes most rank-1 matrices numerically rank 2."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** draw(st.integers(-100, 100))
    kind = draw(st.sampled_from(["random", "rank-2", "outer", "row", "column", "entry", "zero"]))
    m = np.zeros((3, 3))
    if kind == "random":
        m = rng.standard_normal((3, 3)) * 10.0 ** rng.uniform(-6, 6, (3, 3))
    elif kind == "rank-2":
        m = rng.standard_normal((3, 2)) @ rng.standard_normal((2, 3))
    elif kind == "outer":
        m = np.outer(rng.standard_normal(3), rng.standard_normal(3))
    elif kind == "row":
        m[rng.integers(3)] = rng.standard_normal(3)
    elif kind == "column":
        m[:, rng.integers(3)] = rng.standard_normal(3)
    elif kind == "entry":
        m[rng.integers(3), rng.integers(3)] = rng.standard_normal()
    return m * scale, kind in ("entry", "zero")


class TestCanonicalForm:
    # the one batched rule against the scalar reference, bit for bit

    @settings(max_examples=200, deadline=None)
    @given(st.lists(canonical_inputs(), min_size=1, max_size=8))
    def test_rows_equal_scalar_reference(self, inputs):
        stack = np.stack([m for m, _ in inputs])
        canonical, usable = canonicalize_fundamental(stack)
        for b, (m, refused) in enumerate(inputs):
            single, single_usable = canonicalize_fundamental(m[None])
            assert usable[b] == single_usable[0]
            assert np.array_equal(canonical[b], single[0])
            try:
                ref = oracles.canonical_fundamental_reference(m)
            except ValueError:
                assert not usable[b]
                with pytest.raises(ValueError):
                    FundamentalMatrix.from_array(m)
                continue
            assert not refused
            assert usable[b]
            assert np.array_equal(canonical[b], ref)
            assert np.array_equal(FundamentalMatrix.from_array(m).matrix, ref)

    def test_checks_share_the_thresholds(self):
        # a matrix just past either tolerance is refused by the constructor
        with pytest.raises(ValueError, match="rank 2"):
            FundamentalMatrix(np.diag([1.0, 1.0, 1e-8]) / np.sqrt(2.0))
        with pytest.raises(ValueError, match="norm 1"):
            FundamentalMatrix(np.diag([1.0, 1.0, 0.0]) * (1.0 + 1e-8) / np.sqrt(2.0))
        FundamentalMatrix(np.diag([1.0, 1.0, 1e-10]) / np.sqrt(2.0))


class TestEpipolarDistance:
    def test_same_scanline(self):
        F = FundamentalMatrix.from_array(RECTIFIED)
        assert epipolar_distances(F, [(10, 5)], [(20, 5)])[0] == pytest.approx(0.0, abs=1e-12)

    def test_scanline_offset(self):
        F = FundamentalMatrix.from_array(RECTIFIED)
        assert epipolar_distances(F, [(10, 5)], [(20, 8)])[0] == pytest.approx(3.0, abs=1e-12)

    def test_matches_line_distance_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            F = FundamentalMatrix.from_array(rng.standard_normal((3, 3)))
            pa = rng.uniform(0, 64, 2)
            pb = rng.uniform(0, 64, 2)
            d = epipolar_distances(F, pa, pb)[0]
            assert d == pytest.approx(oracles.epipolar_distance_line(F.matrix, pa, pb), abs=1e-12)

    def test_epipole_returns_infinity(self):
        # F maps the epipole to the zero line
        cam_a = simple_camera()
        cam_b = simple_camera(t=np.array([-0.5, 0.0, 0.0]))
        F = fundamental_from_calibration(cam_a, cam_b)
        # for rectified geometry the epipole is at infinity along x, so build
        # a synthetic case instead: line coefficients (0, 0, z)
        m = np.array([[0.0, 0, 0], [0, 0, 0], [1.0, 0, 0]])
        m = m / np.linalg.norm(m)
        d = epipolar_distances(m, np.array([[0.0, 0.0]]), np.array([[5.0, 5.0]]))
        assert np.isinf(d[0])
        assert np.isfinite(epipolar_distances(F, [(3, 4)], [(5, 6)])[0])


class TestRescale:
    def test_unit_scales_identity(self):
        rng = np.random.default_rng(3)
        F = FundamentalMatrix.from_array(rng.standard_normal((3, 3)))
        F2 = rescale_fundamental(F, (1.0, 1.0), (1.0, 1.0))
        assert np.abs(F.matrix - F2.matrix).max() < 1e-12

    def test_isotropic_scaling_doubles_distance(self):
        rng = np.random.default_rng(4)
        cam_a = simple_camera()
        R = rotation_from_axis_angle([0.1, 1, 0], 0.1)
        cam_b = simple_camera(R=R, t=-R @ np.array([1.0, 0.1, 0.0]))
        F = fundamental_from_calibration(cam_a, cam_b)
        F2 = rescale_fundamental(F, (2.0, 2.0), (2.0, 2.0))
        for _ in range(20):
            pa = rng.uniform(0, 64, 2)
            pb = rng.uniform(0, 64, 2)
            d1 = epipolar_distances(F, pa, pb)[0]
            d2 = epipolar_distances(F2, 2 * pa, 2 * pb)[0]
            assert d2 == pytest.approx(2 * d1, rel=1e-9)

    def test_round_trip(self):
        rng = np.random.default_rng(5)
        F = FundamentalMatrix.from_array(rng.standard_normal((3, 3)))
        F2 = rescale_fundamental(rescale_fundamental(F, (0.5, 0.7), (0.9, 0.4)), (2.0, 1 / 0.7), (1 / 0.9, 2.5))
        assert np.abs(F.matrix - F2.matrix).max() < 1e-12

    def test_compose_with_calibration_rescale(self):
        cam_a = simple_camera()
        R = rotation_from_axis_angle([0, 1, 0], 0.12)
        cam_b = simple_camera(R=R, t=-R @ np.array([0.9, 0.0, 0.1]))
        F = fundamental_from_calibration(cam_a, cam_b)
        s = 0.5
        scale = np.diag([s, s, 1.0])
        cam_a2 = CameraCalibration(scale @ cam_a.K, cam_a.R, cam_a.t, 32, 32)
        cam_b2 = CameraCalibration(scale @ cam_b.K, cam_b.R, cam_b.t, 32, 32)
        F_direct = fundamental_from_calibration(cam_a2, cam_b2)
        F_rescaled = rescale_fundamental(F, (s, s), (s, s))
        assert proportional(F_direct.matrix, F_rescaled.matrix, tol=1e-10)


class TestProject:
    def test_optical_axis_hits_principal_point(self):
        cam = simple_camera()
        assert oracles.project(cam, [0, 0, 5.0]) == pytest.approx((32.0, 32.0))

    def test_behind_camera(self):
        cam = simple_camera()
        assert oracles.project(cam, [0, 0, -5.0]) is None

    def test_camera_center_errors(self):
        cam = simple_camera()
        with pytest.raises(ValueError, match="center"):
            oracles.project(cam, [0.0, 0.0, 0.0])


class TestPoseError:
    def test_identity(self):
        p = RelativePose(np.eye(3), np.array([1.0, 0, 0]))
        assert pose_error(p, p) == (0.0, 0.0)

    def test_translation_sign_ambiguity(self):
        a = RelativePose(np.eye(3), np.array([1.0, 0, 0]))
        b = RelativePose(np.eye(3), np.array([-1.0, 0, 0]))
        assert pose_error(a, b)[1] == pytest.approx(0.0, abs=1e-9)

    def test_ten_degree_rotation(self):
        gt = RelativePose(rotation_from_axis_angle([0.3, 0.5, 1], 0.4), np.array([0, 0, 1.0]))
        extra = rotation_from_axis_angle([0, 0, 1], np.radians(10.0))
        est = RelativePose(extra @ gt.R, gt.t)
        rot, trans = pose_error(est, gt)
        assert rot == pytest.approx(10.0, abs=1e-9)
        assert trans == pytest.approx(0.0, abs=1e-9)

    def test_translation_range(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            t1 = rng.standard_normal(3)
            t2 = rng.standard_normal(3)
            a = RelativePose(np.eye(3), t1 / np.linalg.norm(t1))
            b = RelativePose(np.eye(3), t2 / np.linalg.norm(t2))
            assert 0.0 <= pose_error(a, b)[1] <= 90.0 + 1e-9


class TestSceneGeneration:
    def test_gt_pairs_satisfy_epipolar_constraint(self):
        for seed in range(5):
            scene = generate_scene(SceneConfig(), seed)
            assert len(scene.gt_points) >= 30
            d = epipolar_distances(scene.fundamental, scene.gt_points[:, :2], scene.gt_points[:, 2:])
            assert d.max() < 1e-6

    def test_deterministic_per_seed(self):
        a = generate_scene(SceneConfig(), 11)
        b = generate_scene(SceneConfig(), 11)
        assert a.image_a.tobytes() == b.image_a.tobytes()
        assert a.image_b.tobytes() == b.image_b.tobytes()
        assert a.gt_points.tobytes() == b.gt_points.tobytes()

    def test_identity_pose_identity_correspondence(self):
        generated = generate_scene(SceneConfig(n_planes=1, tilt_max=0.0), 3)
        scene = dataclasses.replace(generated, cam_b=generated.cam_a)
        pts = np.array([[10.0, 12.0], [40.0, 25.0], [31.5, 50.25]])
        mapped, visible = scene.map_a_to_b(pts)
        assert visible.all()
        assert np.abs(mapped - pts).max() < 1e-9

    def test_pure_x_translation_gives_rectified_f(self):
        # the generator's intrinsics (focal = the longer side) on a 96x64 image
        cam_a = simple_camera(width=96, height=64, focal=96.0)
        cam_b = simple_camera(width=96, height=64, focal=96.0, t=np.array([-1.2, 0.0, 0.0]))
        F = fundamental_from_calibration(cam_a, cam_b)
        assert proportional(F.matrix, RECTIFIED)

    def test_projection_consistent_with_correspondence(self):
        from guidematch.geometry.scene import trace_rays

        scene = generate_scene(SceneConfig(), 7)
        pts = scene.gt_points[:, :2]
        mapped, visible = scene.map_a_to_b(pts)
        xyz, _, valid = trace_rays(scene.cam_a, scene.planes, pts)
        for i in np.where(visible & valid)[0]:
            pb = oracles.project(scene.cam_b, xyz[i])
            assert pb is not None
            assert np.hypot(pb[0] - mapped[i, 0], pb[1] - mapped[i, 1]) < 1e-9

    def test_repeated_stamps_render_similar_patches(self):
        config = SceneConfig(
            width=256,
            height=256,
            n_planes=1,
            repeated_stamps=4,
            background_amplitude=0.06,
            stamp_min_sep_px=90.0,
        )
        scene = generate_scene(config, 1)
        assert scene.image_a.shape == (256, 256)
        # the stamped areas carry most of the contrast
        assert scene.image_a.std() > 0.01

    def test_retries_exhausted_error(self, monkeypatch):
        monkeypatch.setattr(scene_module, "_MIN_COMMON_POINTS", 10_000)
        monkeypatch.setattr(scene_module, "_MAX_RETRIES", 2)
        with pytest.raises(ValueError, match=">= 10000 common points after 2 attempts"):
            generate_scene(SceneConfig(), 0)


class TestLoadConfig:
    def test_values_typed_by_field(self, tmp_path):
        path = tmp_path / "scene.cfg"
        path.write_text("# comment\nwidth = 128\ntexel_px = 3\n")
        config = load_config(path, SceneConfig)
        assert config == SceneConfig(width=128, texel_px=3.0)
        assert type(config.width) is int and type(config.texel_px) is float
        path.write_text("mode = point\ndataset_dir = scenes\nout_dir = run\n")
        assert load_config(path, TrainConfig).mode == "point"

    def test_every_scene_field_is_settable_from_a_file(self, tmp_path):
        config = SceneConfig(
            width=128, height=96, n_planes=3, tilt_max=0.1, texel_px=3.0, repeated_stamps=2,
            stamp_px=20, stamp_min_sep_px=60.0, background_amplitude=0.5, n_gt_points=40,
        )
        assert all(getattr(config, f.name) != f.default for f in dataclasses.fields(config))
        path = tmp_path / "scene.cfg"
        path.write_text("".join(f"{f.name} = {getattr(config, f.name)}\n" for f in dataclasses.fields(config)))
        assert load_config(path, SceneConfig) == config

    @pytest.mark.parametrize("key", ["widht", "baseline_range", "brightness_jitter", "stride"])
    def test_unknown_or_untyped_key_names_file_and_key(self, tmp_path, key):
        path = tmp_path / "scene.cfg"
        path.write_text(f"{key} = 1\n")
        with pytest.raises(ValueError, match=rf"scene\.cfg.*'{key}'"):
            load_config(path, SceneConfig)

    def test_flag_beats_the_file(self, tmp_path):
        path = tmp_path / "scene.cfg"
        path.write_text("width = 128\nheight = 32\n")
        assert load_config(path, SceneConfig, width=256) == SceneConfig(width=256, height=32)
        assert load_config(None, SceneConfig, width=256) == SceneConfig(width=256)

    def test_none_flag_keeps_the_file_value(self, tmp_path):
        path = tmp_path / "scene.cfg"
        path.write_text("width = 128\n")
        assert load_config(path, SceneConfig, width=None, height=None) == SceneConfig(width=128)

    @pytest.mark.parametrize(
        "text, flags, message",
        [
            ("", {"repeated_stamps": -1}, "repeated_stamps must be an integer >= 0, got -1"),
            ("stamp_px = 40\n", {"repeated_stamps": 2},
             r"stamp_px must be in \[1, 32\] for a 64x64 image with repeated stamps, got 40"),
            ("stamp_px = 33\nwidth = 96\n", {"repeated_stamps": 1},
             r"stamp_px must be in \[1, 32\] for a 96x64 image with repeated stamps, got 33"),
            ("stamp_px = 0\n", {"repeated_stamps": 1},
             r"stamp_px must be in \[1, 32\] for a 64x64 image with repeated stamps, got 0"),
            ("background_amplitude = nan\n", {}, "background_amplitude must be finite, got nan"),
            ("background_amplitude = -inf\n", {}, "background_amplitude must be finite, got -inf"),
            ("n_gt_points = 0\n", {}, "n_gt_points must be an integer >= 1, got 0"),
            ("n_gt_points = 14\n", {}, "n_gt_points must be at least 15, got 14"),
            ("tilt_max = nan\n", {}, "tilt_max must be finite and >= 0, got nan"),
            ("tilt_max = inf\n", {}, "tilt_max must be finite and >= 0, got inf"),
            ("tilt_max = -0.1\n", {}, "tilt_max must be finite and >= 0, got -0.1"),
        ],
    )
    def test_value_the_dataclass_rejects_is_a_config_error(self, tmp_path, text, flags, message):
        path = tmp_path / "scene.cfg"
        path.write_text(text)
        with pytest.raises(ConfigError, match=message):
            load_config(path, SceneConfig, **flags)

    @pytest.mark.parametrize(
        "setting, message",
        [
            ({"width": 64.5}, "width must be an integer >= 1, got 64.5"),
            ({"height": 48.0}, "height must be an integer >= 1, got 48.0"),
            ({"n_planes": 2.5}, "n_planes must be an integer >= 1, got 2.5"),
            ({"n_gt_points": 30.5}, "n_gt_points must be an integer >= 1, got 30.5"),
            ({"repeated_stamps": 1.5}, "repeated_stamps must be an integer >= 0, got 1.5"),
            ({"width": True}, "width must be an integer >= 1, got True"),
        ],
    )
    def test_a_count_that_is_not_an_integer_fails_at_construction(self, setting, message):
        # before generate_scene, which would raise a TypeError or, for the
        # stamps, ask to relax the config
        with pytest.raises(ConfigError, match=re.escape(message)):
            SceneConfig(**setting)

    def test_fewest_points_and_untilted_planes_are_accepted(self):
        # the fewest points that can reach the 30 common points a scene needs: 15 sample 30 candidates
        SceneConfig(n_gt_points=15, tilt_max=0.0)

    def test_widest_stamps_and_any_image_size_are_accepted(self):
        # stamp centres are drawn in [stamp_px, side - stamp_px], one point wide at the limit
        SceneConfig(repeated_stamps=2, stamp_px=32)
        SceneConfig(width=31, height=65, repeated_stamps=1, stamp_px=15)
        # without stamps stamp_px is never read
        SceneConfig(stamp_px=0)
        SceneConfig(stamp_px=40)
        # the model rounds each side down to its stride when it reads a scene
        SceneConfig(width=100, height=64)


class TestSceneArchive:
    def test_round_trip(self, tmp_path):
        scene = generate_scene(SceneConfig(), 9)
        save_scene(tmp_path / "s", scene)
        loaded = load_scene(tmp_path / "s")
        q = np.round(np.clip(scene.image_a, 0, 1) * 255) / 255.0
        assert np.array_equal(loaded.image_a, q)
        assert np.array_equal(loaded.gt_points, scene.gt_points)
        assert np.array_equal(loaded.fundamental.matrix, scene.fundamental.matrix)
        assert loaded.fundamental.frame == scene.fundamental.frame
        assert loaded.seed == scene.seed
        assert np.array_equal(loaded.cam_a.K, scene.cam_a.K)
        assert np.array_equal(loaded.cam_b.R, scene.cam_b.R)
        assert np.array_equal(loaded.pose.R, scene.pose.R)
        assert np.array_equal(loaded.pose.t, scene.pose.t)

    def test_archive_files_exist(self, tmp_path):
        scene = generate_scene(SceneConfig(), 9)
        save_scene(tmp_path / "s", scene)
        for name in ("imageA.pgm", "imageB.pgm", "meta.txt", "gt_points.csv"):
            assert (tmp_path / "s" / name).exists()
        assert not (tmp_path / "s" / "F.txt").exists()
        lines = (tmp_path / "s" / "gt_points.csv").read_text().splitlines()
        assert lines[0] == "xA,yA,xB,yB"
        assert len(lines) - 1 >= 30


_pixels = arrays(np.uint8, st.tuples(st.integers(1, 9), st.integers(1, 9)))
_tmp = settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])


@st.composite
def _archived_scenes(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cams = []
    for _ in range(2):
        w, h = (int(v) for v in rng.integers(1, 9, 2))
        K = np.array([[rng.uniform(1, 500), rng.uniform(-1, 1), rng.uniform(0, 300)],
                      [0.0, rng.uniform(1, 500), rng.uniform(0, 300)], [0.0, 0.0, 1.0]])
        R = rotation_from_axis_angle(rng.standard_normal(3), rng.uniform(0, 3))
        cams.append(CameraCalibration(K, R, rng.standard_normal(3), w, h))
    cam_a, cam_b = cams
    images = [rng.integers(0, 256, (c.height, c.width)) / 255.0 for c in cams]
    gt = rng.uniform(-1e3, 1e3, (draw(st.integers(0, 6)), 4))
    return SyntheticScene(cam_a, cam_b, *images, gt, draw(st.integers(0, 10**6)))


class TestArchiveProperties:
    @_tmp
    @given(_pixels)
    def test_pgm_round_trip(self, tmp_path, q):
        write_pgm(tmp_path / "i.pgm", q / 255.0)
        assert np.array_equal(read_pgm(tmp_path / "i.pgm"), q / 255.0)

    @_tmp
    @given(_pixels)
    def test_every_strict_prefix_and_trailing_data_raise(self, tmp_path, q):
        path = tmp_path / "i.pgm"
        write_pgm(path, q / 255.0)
        raw = path.read_bytes()
        for cut in [*range(len(raw)), raw + b"\0"]:
            path.write_bytes(raw[:cut] if isinstance(cut, int) else cut)
            with pytest.raises(ValueError, match="i.pgm"):
                read_pgm(path)

    @_tmp
    @given(_archived_scenes())
    def test_scene_round_trip(self, tmp_path, scene):
        directory = tempfile.mkdtemp(dir=tmp_path)  # tmp_path is shared by all examples
        save_scene(directory, scene)
        loaded = load_scene(directory)
        for got, want in ((loaded.cam_a, scene.cam_a), (loaded.cam_b, scene.cam_b)):
            for name in ("K", "R", "t", "width", "height"):
                assert np.array_equal(getattr(got, name), getattr(want, name))
        assert np.array_equal(loaded.image_a, scene.image_a)
        assert np.array_equal(loaded.image_b, scene.image_b)
        assert np.array_equal(loaded.gt_points, scene.gt_points.reshape(-1, 4))
        assert loaded.seed == scene.seed
        assert np.array_equal(loaded.fundamental.matrix, fundamental_from_calibration(scene.cam_a, scene.cam_b).matrix)


class TestArchiveErrors:
    @pytest.mark.parametrize(
        "raw, reason",
        [
            (b"P5\n64", "truncated header"),
            (b"P5\nwide 4\n255\n", "not a non-negative integer"),
            (b"P5\n-2 1\n255\nab", "not a non-negative integer"),
            (b"P5\n2 1\n255\nabc", "1 bytes after the pixel data"),
            (b"P5\n2 2\n255\nabc", "truncated pixel data"),
        ],
    )
    def test_pgm(self, tmp_path, raw, reason):
        path = tmp_path / "bad.pgm"
        path.write_bytes(raw)
        with pytest.raises(ValueError, match=reason) as info:
            read_pgm(path)
        assert "bad.pgm" in str(info.value)

    @pytest.fixture
    def archive(self, tmp_path):
        save_scene(tmp_path / "s", generate_scene(SceneConfig(width=64, height=48), 3))
        return tmp_path / "s"

    def test_missing_meta_key(self, archive):
        meta = archive / "meta.txt"
        lines = meta.read_text().splitlines()
        for key in ("K_a", "seed"):
            meta.write_text("\n".join(l for l in lines if not l.startswith(f"{key} =")))
            with pytest.raises(ValueError, match=f"meta.txt: missing key '{key}'"):
                load_scene(archive)

    def test_non_numeric_meta_value(self, archive):
        meta = archive / "meta.txt"
        meta.write_text(meta.read_text().replace("width_b = 64", "width_b = wide"))
        with pytest.raises(ValueError, match="meta.txt"):
            load_scene(archive)

    def test_cameras_sharing_a_centre(self, archive):
        # camera A sits at the origin; t_b = 0 puts camera B there too
        meta = archive / "meta.txt"
        lines = [("t_b = 0.0 0.0 0.0" if l.startswith("t_b =") else l) for l in meta.read_text().splitlines()]
        meta.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="meta.txt: cameras share a center"):
            load_scene(archive)

    def test_leftover_fundamental_file_is_ignored(self, archive):
        before = load_scene(archive)
        (archive / "F.txt").write_text("not a matrix\nframe = nowhere\n")
        after = load_scene(archive)
        assert np.array_equal(after.fundamental.matrix, before.fundamental.matrix)
        for name in ("image_a", "image_b", "gt_points"):
            assert np.array_equal(getattr(after, name), getattr(before, name))
        assert after.seed == before.seed

    @pytest.mark.parametrize("name, tag", [("imageA.pgm", "a"), ("imageB.pgm", "b")])
    def test_image_of_another_size_than_its_camera(self, archive, name, tag):
        write_pgm(archive / name, np.zeros((48, 80)))
        message = rf"{name}: image is 80x48, but meta.txt gives camera {tag} 64x48"
        with pytest.raises(ValueError, match=message):
            load_scene(archive)

    def test_short_ground_truth_row(self, archive):
        gt = archive / "gt_points.csv"
        gt.write_text(gt.read_text() + "1.0,2.0,3.0\n")
        with pytest.raises(ValueError, match="gt_points.csv: every row needs"):
            load_scene(archive)
