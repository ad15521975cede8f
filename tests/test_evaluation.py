import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from guidematch import coarse_matcher as cm
from guidematch import evaluation as ev
from guidematch import keypoint_matching as km
from guidematch.geometry import SceneConfig, generate_scene


class TestEvalPoseFailures:
    def test_guided_matches_noisy_keypoints_off_the_image(self):
        # 8 px keypoint noise pushes some keypoints off the source image; they
        # must be left unmatched rather than failing the whole pair
        scenes = [generate_scene(SceneConfig(width=256, height=192, repeated_stamps=3), s) for s in range(4)]
        report = ev.eval_pose(scenes, "guided", model=cm.CoarseModel.create(0), keypoint_noise_px=8.0, seed=0)
        assert any(row["n_matches"] > 0 for row in report.rows)

    def test_matching_error_scores_as_pose_failure(self):
        def no_matches(scene, feats, rng):
            raise km.MatchingError("nothing to match")

        report = ev.eval_pose([generate_scene(SceneConfig(), 0)], no_matches, keypoint_source="gt")
        (row,) = report.rows
        assert row["n_matches"] == 0 and math.isinf(row["pose_err_deg"]) and not row["fm_correct"]

    def test_programming_error_propagates(self, monkeypatch):
        def broken(*args, **kwargs):
            raise ValueError("injected bug")

        monkeypatch.setattr(km, "match_guided", broken)
        with pytest.raises(ValueError, match="injected bug"):
            ev.eval_pose([generate_scene(SceneConfig(), 0)], "guided", model=cm.CoarseModel.create(0))


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
