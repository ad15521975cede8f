import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from guidematch import ConfigError
from guidematch import coarse_matcher as cm
from guidematch import evaluation as ev
from guidematch import keypoint_matching as km
from guidematch import robust_pose as rp
from guidematch.geometry import SceneConfig, generate_scene


class TestEvalPoseFailures:
    def test_guided_matches_noisy_keypoints_off_the_image(self):
        # 8 px keypoint noise pushes some keypoints off the source image; they
        # must be left unmatched rather than failing the whole pair
        scenes = [generate_scene(SceneConfig(width=256, height=192, repeated_stamps=3), s) for s in range(4)]
        report = ev.eval_pose(scenes, "guided", model=cm.CoarseModel.create(0), keypoint_noise_px=8.0, seed=0)
        assert any(row["n_matches"] > 0 for row in report.rows)

    def test_matching_error_scores_as_pose_failure(self, monkeypatch):
        def no_matches(*args, **kwargs):
            raise km.MatchingError("nothing to match")

        monkeypatch.setattr(km, "match_raw", no_matches)
        report = ev.eval_pose([generate_scene(SceneConfig(), 0)], "raw", keypoint_source="gt")
        (row,) = report.rows
        assert row["n_matches"] == 0 and math.isinf(row["pose_err_deg"]) and not row["fm_correct"]

    def test_fewer_than_eight_matches_fail_the_pose_and_the_fundamental_matrix(self, monkeypatch):
        original = km.match_raw

        def seven_matches(*args, **kwargs):
            ms = original(*args, **kwargs)
            return km.MatchSet(*(field[:7] for field in (ms.index_a, ms.index_b, ms.distance, ms.second_distance)))

        monkeypatch.setattr(km, "match_raw", seven_matches)
        report = ev.eval_pose([generate_scene(SceneConfig(), 0)], "raw", keypoint_source="gt")
        assert report.rows
        for row in report.rows:
            assert row["n_matches"] == 7 and row["n_inliers"] == 0 and not row["fm_correct"]
            assert all(math.isinf(row[key]) for key in ("rot_deg", "trans_deg", "pose_err_deg"))

    def test_estimation_error_from_a_matcher_propagates(self, monkeypatch):
        # only MatchingError is a pose failure; no matcher raises EstimationError
        def estimation_error(*args, **kwargs):
            raise rp.EstimationError("injected")

        monkeypatch.setattr(km, "match_raw", estimation_error)
        with pytest.raises(rp.EstimationError, match="injected"):
            ev.eval_pose([generate_scene(SceneConfig(), 0)], "raw", keypoint_source="gt")

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            (dict(keypoint_noise_px=-3.0), "keypoint_noise_px must be finite and >= 0"),
            (dict(keypoint_noise_px=math.nan), "keypoint_noise_px must be finite and >= 0"),
            (dict(keypoint_noise_px=math.inf), "keypoint_noise_px must be finite and >= 0"),
            (dict(descriptor_corruption=1.5), r"descriptor_corruption must be in \[0, 1\]"),
            (dict(descriptor_corruption=-0.1), r"descriptor_corruption must be in \[0, 1\]"),
            (dict(descriptor_corruption=math.nan), r"descriptor_corruption must be in \[0, 1\]"),
            (dict(pose_thresholds=(5.0, 0.0)), "pose thresholds must be finite and > 0"),
            (dict(pose_thresholds=()), "pose thresholds must not be empty"),
            (dict(ransac_thresholds=()), "RANSAC thresholds must not be empty"),
            (dict(ransac_thresholds=(1.0, math.nan)), "RANSAC thresholds must be finite and > 0"),
            (dict(seed=-1), "seed must be an integer >= 0, got -1"),
            (dict(seed=1.5), "seed must be an integer >= 0, got 1.5"),
            (dict(seed=True), "seed must be an integer >= 0, got True"),
        ],
    )
    def test_bad_setting_raises_before_the_first_pair(self, kwargs, message):
        # the scene is never read: reading None would raise an AttributeError
        with pytest.raises(ValueError, match=message):
            ev.eval_pose([None], "raw", **kwargs)

    def test_programming_error_propagates(self, monkeypatch):
        def broken(*args, **kwargs):
            raise ValueError("injected bug")

        monkeypatch.setattr(km, "match_guided", broken)
        with pytest.raises(ValueError, match="injected bug"):
            ev.eval_pose([generate_scene(SceneConfig(), 0)], "guided", model=cm.CoarseModel.create(0))


class TestMakeMatcher:
    @pytest.mark.parametrize(
        "kwargs, message",
        [
            (dict(variant="sift"), "unknown variant"),
            (dict(variant="ratio"), "needs a ratio"),
            (dict(variant="ratio+mutual"), "needs a ratio"),
            (dict(variant="guided", ratio=0.9), "needs a coarse model"),
            (dict(variant="raw", ratio=0.9), "takes no ratio"),
            (dict(variant="mutual", ratio=0.9), "takes no ratio"),
            (dict(variant="ratio", ratio=0.0), "ratio must be > 0"),
            (dict(variant="ratio+mutual", ratio=math.nan), "ratio must be > 0"),
            (dict(variant="ratio", ratio=-1.0), "ratio must be > 0"),
        ],
    )
    def test_invalid_settings_raise(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            ev.make_matcher(ev.EvalSettings(**kwargs))

    @pytest.mark.parametrize(
        "variant, directions, ratio_tests, mutual_checks",
        [("raw", 1, 0, 0), ("ratio", 1, 1, 0), ("mutual", 2, 0, 1), ("ratio+mutual", 2, 2, 1)],
    )
    def test_one_chain_per_variant(self, monkeypatch, variant, directions, ratio_tests, mutual_checks):
        calls = []
        for name in ("match_raw", "ratio_test", "mutual_check"):
            original = getattr(km, name)

            def counted(*args, _name=name, _original=original):
                calls.append(_name)
                return _original(*args)

            monkeypatch.setattr(km, name, counted)
        scene = generate_scene(SceneConfig(width=128, height=96), 3)
        feats = ev.pair_features(scene, 60, "detect")
        ratio = 0.9 if "ratio" in variant else None
        ev.make_matcher(ev.EvalSettings(variant, ratio=ratio))(scene, feats)
        assert calls.count("match_raw") == directions
        assert calls.count("ratio_test") == ratio_tests
        assert calls.count("mutual_check") == mutual_checks


def _fail_if_called(*args, **kwargs):
    raise AssertionError("work began before every setting was checked")


class TestSettingsBeforeWork:
    """Each entry checks every setting it takes, whether or not the run reads
    it, before it detects a keypoint or runs the coarse model."""

    @pytest.fixture(autouse=True)
    def no_work(self, monkeypatch):
        monkeypatch.setattr(km, "detect_keypoints", _fail_if_called)
        monkeypatch.setattr(cm, "compute_match_fields", _fail_if_called)

    @pytest.fixture(scope="class")
    def model(self):
        return cm.CoarseModel.create(0)

    @pytest.fixture(scope="class")
    def scenes(self):
        return [generate_scene(SceneConfig(), 0)]

    @pytest.mark.parametrize("variant", ev.POSE_VARIANTS)
    @pytest.mark.parametrize(
        "setting, message",
        [
            (dict(window_px=0.0), "window_px must be > 0, got 0"),
            (dict(window_px=math.nan), "window_px must be > 0, got nan"),
            (dict(band_px=-1.0), "band_px must be > 0, got -1"),
            (dict(max_side=8), "max_side must be at least the backbone stride 16, got 8"),
            (dict(max_side=-5), "max_side must be an integer >= 1, got -5"),
        ],
    )
    def test_make_matcher(self, model, variant, setting, message):
        ratio = 0.9 if variant.startswith("ratio") else None
        with pytest.raises(ConfigError, match=re.escape(message)):
            ev.make_matcher(ev.EvalSettings(variant, ratio=ratio, **setting), model)

    @pytest.mark.parametrize("variant", ev.POSE_VARIANTS)
    @pytest.mark.parametrize("max_side", [0, -5, 2.5, True])
    def test_max_side_is_a_count_with_or_without_a_model(self, model, scenes, variant, max_side):
        ratio = 0.9 if variant.startswith("ratio") else None
        for run_model in (model, None):
            with pytest.raises(ConfigError, match=re.escape(f"max_side must be an integer >= 1, got {max_side!r}")):
                ev.eval_pose(scenes, variant, run_model, ratio=ratio, max_side=max_side)

    @pytest.mark.parametrize(
        "setting, message",
        [
            (dict(variant="raw", keypoint_source="gt", max_keypoints=0), "max_keypoints must be an integer >= 1, got 0"),
            (dict(variant="mutual", max_keypoints=2.5), "max_keypoints must be an integer >= 1, got 2.5"),
            (dict(variant="mutual", keypoint_source="sift"), "keypoint_source must be one of ('detect', 'gt')"),
            (dict(variant="raw", max_side=8), "max_side must be at least the backbone stride 16, got 8"),
            (dict(variant="model-guided", window_px=0.0), "window_px must be > 0, got 0"),
            (dict(variant="guided", keypoint_noise_px=-1.0), "keypoint_noise_px must be finite and >= 0, got -1"),
            (dict(variant="mutual", descriptor_corruption=2.0), "descriptor_corruption must be in [0, 1], got 2"),
            (dict(variant="mutual", seed=-1), "seed must be an integer >= 0, got -1"),
            (dict(variant="mutual", ransac_thresholds=(1.0, 1.0)), "RANSAC thresholds must differ when formatted"),
            (dict(variant="mutual", pose_thresholds=(5, 5.0000001)), "pose thresholds must differ when formatted"),
        ],
    )
    def test_eval_pose(self, model, scenes, setting, message):
        for run_scenes in (scenes, []):  # a bad setting is reported before an empty scene list
            with pytest.raises(ConfigError, match=re.escape(message)):
                ev.eval_pose(run_scenes, model=model, **setting)

    @pytest.mark.parametrize(
        "setting, message",
        [
            (dict(max_side=15), "max_side must be at least the backbone stride 16, got 15"),
            (dict(max_side=100.5), "max_side must be an integer >= 1, got 100.5"),
            (dict(thresholds=(8.0, 8.0000001)), "PCK thresholds must differ when formatted with %g, got [8.0, 8.0000001]"),
        ],
    )
    def test_eval_pck(self, model, scenes, setting, message):
        for run_scenes in (scenes, []):
            with pytest.raises(ConfigError, match=re.escape(message)):
                ev.eval_pck(model, run_scenes, **setting)

    def test_no_scenes_is_bad_data(self, model):
        for call in (lambda: ev.eval_pck(model, []), lambda: ev.eval_pose([], "raw")):
            with pytest.raises(ValueError, match="no scenes to evaluate") as info:
                call()
            assert not isinstance(info.value, ConfigError)


def test_thresholds_that_print_alike_share_no_auc():
    # both would be reported as auc_5
    with pytest.raises(ConfigError, match=re.escape("pose thresholds must differ when formatted with %g, got [5.0, 5.0]")):
        ev.pose_auc([1.0], (5.0, 5.0))


def test_report_cells_write_bools_as_integers():
    assert [ev._format_cell(v) for v in (True, False, np.int64(3), 7, 0.5)] == ["1", "0", "3", "7", "0.5"]


class TestCorruptFeatures:
    def _features(self):
        scene = generate_scene(SceneConfig(width=128, height=96), 3)
        return ev.pair_features(scene, 60, "detect")

    def test_input_unchanged(self):
        feats = self._features()
        arrays = [feats.kps_a.xy, feats.kps_a.scale, feats.kps_a.response, feats.desc_a,
                  feats.kps_b.xy, feats.kps_b.scale, feats.kps_b.response, feats.desc_b]
        before = [a.copy() for a in arrays]
        out = ev.corrupt_features(feats, np.random.default_rng(0), 2.0, 0.3)
        assert all(np.array_equal(a, b) for a, b in zip(arrays, before))
        assert not np.array_equal(out.kps_a.xy, feats.kps_a.xy)
        assert not np.array_equal(out.desc_b, feats.desc_b)

    def test_noise_equals_per_point_addition(self):
        # the noise draws and the additions of the per-point loop that shifted
        # one keypoint object at a time (k.x += dx; k.y += dy)
        feats = self._features()
        out = ev.corrupt_features(feats, np.random.default_rng(5), 1.5, 0.0)
        rng = np.random.default_rng(5)
        for kps, noisy in ((feats.kps_a, out.kps_a), (feats.kps_b, out.kps_b)):
            noise = rng.normal(0.0, 1.5, size=(len(kps), 2))
            shifted = []
            for (x, y), (dx, dy) in zip(kps.xy, noise):
                x += dx
                y += dy
                shifted.append((x, y))
            assert noisy.xy.tobytes() == np.array(shifted).tobytes()
            assert np.array_equal(noisy.scale, kps.scale) and np.array_equal(noisy.response, kps.response)


class TestEvalPck:
    def test_fraction_is_the_count_over_the_points(self):
        scenes = [generate_scene(SceneConfig(), s) for s in (0, 1)]
        report = ev.eval_pck(cm.CoarseModel.create(0), scenes, (8.0, 16.0, 32.0), 64)
        for row in report.rows + report.aggregates:
            for t in ("8", "16", "32"):
                assert 0 <= row[f"below_{t}"] <= row["n_points"]
                assert row[f"pck_{t}"] == row[f"below_{t}"] / row["n_points"]

    def test_scene_without_ground_truth_points_raises(self):
        scene = generate_scene(SceneConfig(), 0)
        scene.gt_points = scene.gt_points[:0]
        with pytest.raises(ValueError, match="no ground-truth points"):
            ev.eval_pck(cm.CoarseModel.create(0), [scene], (8.0,), 64)

    @pytest.mark.parametrize("threshold", [0.0, -8.0, math.nan, math.inf])
    def test_threshold_must_be_finite_and_positive(self, threshold):
        # the scene is never read: reading None would raise an AttributeError
        with pytest.raises(ValueError, match="PCK thresholds must be finite and > 0"):
            ev.eval_pck(cm.CoarseModel.create(0), [None], (8.0, threshold), 64)

    def test_no_threshold_raises(self):
        with pytest.raises(ValueError, match="PCK thresholds must not be empty"):
            ev.eval_pck(cm.CoarseModel.create(0), [None], (), 64)


class TestOneForwardPerPair:
    """``eval_pck`` then guided ``eval_pose`` on the same pairs, the benchmark's
    op, share each pair's forward through the one ``compute_match_fields`` keeps
    on the model."""

    @pytest.fixture
    def model(self):
        rng = np.random.default_rng(61)
        model = cm.CoarseModel.create(61, backbone_channels=(4, 8), filter_hidden=(4,))
        for p in model.parameters():
            p.data = rng.standard_normal(p.shape)
        return model

    @pytest.fixture(scope="class")
    def scenes(self):
        return [generate_scene(SceneConfig(width=96, height=64), s) for s in (610, 611)]

    @staticmethod
    def _reports(model, scenes, tmp_path):
        reports = [ev.eval_pck(model, scenes), ev.eval_pose(scenes, "guided", model=model)]
        out = []
        for report in reports:
            for which in ("rows", "aggregates"):
                report.write_csv(tmp_path / "report.csv", which)
                out.append((tmp_path / "report.csv").read_bytes())
        return out

    @pytest.mark.parametrize("pairs, forwards", [(1, 1), (2, 4)])
    def test_forwards_and_reports(self, monkeypatch, tmp_path, model, scenes, pairs, forwards):
        seen = []
        compute_volume = cm.compute_volume

        def counting(*args):
            seen.append(args)
            return compute_volume(*args)

        monkeypatch.setattr(cm, "compute_volume", counting)
        kept = self._reports(model, scenes[:pairs], tmp_path)
        # one kept forward: two pairs alternate, so eval_pose finds the second pair's
        assert len(seen) == forwards
        compute_match_fields = cm.compute_match_fields

        def nothing_kept(*args):
            args[0]._last_forward = None
            return compute_match_fields(*args)

        monkeypatch.setattr(cm, "compute_match_fields", nothing_kept)
        assert self._reports(model, scenes[:pairs], tmp_path) == kept
        assert len(seen) == forwards + 2 * pairs


_errors = st.lists(st.floats(0.0, 30.0) | st.just(math.inf), min_size=1, max_size=20)


class TestPoseAuc:
    @settings(max_examples=200, deadline=None)
    @given(_errors, st.data())
    def test_monotone_in_the_errors(self, errors, data):
        # raising any error, up to a failure (inf), never raises an AUC
        worse = [e + data.draw(st.floats(0.0, 10.0) | st.just(math.inf)) for e in errors]
        thresholds = (1.0, 5.0, 10.0, 20.0)
        for before, after in zip(ev.pose_auc(errors, thresholds), ev.pose_auc(worse, thresholds)):
            assert 0.0 <= after <= before + 1e-12
            assert before <= 1.0 + 1e-12

    def test_extremes(self):
        assert ev.pose_auc([0.0, 0.0], (5.0,)) == [1.0]
        assert ev.pose_auc([math.inf], (5.0,)) == [0.0]

    @pytest.mark.parametrize("threshold", [0.0, -5.0, math.nan, math.inf])
    def test_threshold_must_be_finite_and_positive(self, threshold):
        with pytest.raises(ValueError, match="pose thresholds must be finite and > 0"):
            ev.pose_auc([1.0, math.inf], [threshold])

    def test_no_threshold_raises(self):
        with pytest.raises(ValueError, match="pose thresholds must not be empty"):
            ev.pose_auc([1.0, math.inf], [])
