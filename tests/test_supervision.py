import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import guidematch
from guidematch import coarse_matcher as cm
from guidematch import supervision as sup
from guidematch.geometry import FundamentalMatrix, SceneConfig, generate_scene, save_scene
from guidematch.geometry.epipolar import FRAME_RESIZED
from guidematch.geometry.scene import ConfigError, load_config
from guidematch.numerics import Tensor

import oracles
from gradcheck import max_gradient_error, sample_coords, well_conditioned


def volume_from_scores(s, stride=16):
    """A one-pair volume whose filtered scores are the (Ha, Wa, Hb, Wb) ``s``,
    with its two softmaxes; an (N, Ha, Wa, Hb, Wb) ``s`` gives N pairs."""
    s = s if s.ndim == 5 else s[None]
    filtered = Tensor(s)
    return cm.CorrelationVolume(filtered, *cm.normalize_scores(filtered), stride)


def one_hot_diagonal(n=2, m=2):
    """Scores whose softmax is one-hot on the 'identity' cells, both directions."""
    s = np.full((n, m, n, m), -50.0)
    for i in range(n):
        for j in range(m):
            s[i, j, i, j] = 50.0
    return s


def random_fundamental(rng):
    return FundamentalMatrix.from_array(rng.standard_normal((3, 3)), FRAME_RESIZED)


class TestLossImage:
    def test_positive_one_hot_pair(self):
        vol = volume_from_scores(one_hot_diagonal())
        loss = sup.loss_image(vol, [1])
        assert float(loss.data) == pytest.approx(-8.0, abs=1e-9)

    def test_negative_uniform(self):
        vol = volume_from_scores(np.zeros((2, 2, 2, 2)))
        loss = sup.loss_image(vol, [-1])
        assert float(loss.data) == pytest.approx(2.0, abs=1e-12)

    def test_matches_formula_oracle(self):
        rng = np.random.default_rng(0)
        for seed in range(20):
            s = np.random.default_rng(seed).standard_normal((3, 2, 2, 3))
            vol = volume_from_scores(s)
            for y in (1, -1):
                assert float(sup.loss_image(vol, [y]).data) == pytest.approx(
                    oracles.loss_image_formula(s, y), abs=1e-10
                )

    def test_sign_antisymmetry(self):
        s = np.random.default_rng(5).standard_normal((2, 2, 2, 2))
        vol = volume_from_scores(s)
        assert float(sup.loss_image(vol, [1]).data) == pytest.approx(-float(sup.loss_image(vol, [-1]).data))


class TestLabelCells:
    def test_match_on_epipolar_line_is_positive(self):
        # rectified geometry: cells on the same row are consistent
        rect = FundamentalMatrix.from_array(
            np.array([[0, 0, 0], [0, 0, -1], [0, 1, 0]], dtype=float), FRAME_RESIZED
        )
        assert sup._label_direction(one_hot_diagonal(3, 3), rect, 16.0, 16).all()

    def test_two_rows_off_is_negative(self):
        rect = FundamentalMatrix.from_array(
            np.array([[0, 0, 0], [0, 0, -1], [0, 1, 0]], dtype=float), FRAME_RESIZED
        )
        s = np.full((3, 3, 3, 3), -50.0)
        for i in range(3):
            for j in range(3):
                s[i, j, (i + 2) % 3, j] = 50.0  # match lands 2 rows away (32 px or 16 px wrap)
        # use only rows where the offset is exactly +2 rows = 32 px
        assert not sup._label_direction(s, rect, 16.0, 16)[0].any()

    def test_matches_loop_oracle(self):
        # integer-valued volumes tie often; the first best cell in scan order wins
        for seed in range(30):
            rng = np.random.default_rng(seed)
            s = rng.standard_normal((3, 3, 2, 4))
            F = random_fundamental(rng)
            ties = rng.integers(0, 3, size=(3, 3, 2, 4)).astype(np.float64)
            for scores in (s, ties):
                labels = sup._label_direction(scores, F, 10.0, 16)
                assert np.array_equal(labels, oracles.label_cells_loops(scores, F.matrix, 10.0, 16))

    def test_labels_decode_the_evaluation_cells(self, monkeypatch):
        # the epipolar labels and the evaluation field read one decoder, so a
        # change to it moves both; both directions, on volumes full of ties
        decoded, decode = [], cm.decode_cells

        def recording(scores):
            out = decode(scores)
            decoded.append(out[0])
            return out

        monkeypatch.setattr(cm, "decode_cells", recording)
        for seed in range(20):
            rng = np.random.default_rng(300 + seed)
            vol = volume_from_scores(rng.integers(0, 3, size=(3, 4, 2, 5)).astype(np.float64))
            decoded.clear()
            sup.loss_epipolar(vol, [random_fundamental(rng)], 10.0)
            assert len(decoded) == 2
            for cells, direction in zip(decoded, ("AB", "BA")):
                assert np.array_equal(cells, cm.extract_matches(vol, direction).target_cells)

    def test_frame_mismatch_errors(self):
        F = FundamentalMatrix.from_array(np.random.default_rng(0).standard_normal((3, 3)), "original-px")
        with pytest.raises(ValueError, match="frame"):
            sup.loss_epipolar(volume_from_scores(np.zeros((2, 2, 2, 2))), [F], 16.0)


class TestLossEpipolar:
    def test_all_positive_one_hot(self):
        rect = FundamentalMatrix.from_array(
            np.array([[0, 0, 0], [0, 0, -1], [0, 1, 0]], dtype=float), FRAME_RESIZED
        )
        vol = volume_from_scores(one_hot_diagonal(3, 3))
        loss = sup.loss_epipolar(vol, [rect], 16.0)
        assert float(loss.data) == pytest.approx(-2.0, abs=1e-9)  # -1 per direction

    def test_negative_pair_uniform(self):
        vol = volume_from_scores(np.zeros((2, 2, 2, 2)))
        loss = sup.loss_epipolar(vol, [None], 16.0)
        assert float(loss.data) == pytest.approx(0.25, abs=1e-12)  # 0.125 per direction

    def test_matches_formula_oracle(self):
        for seed in range(30):
            rng = np.random.default_rng(100 + seed)
            s = rng.standard_normal((3, 2, 2, 3)) * 2
            F = random_fundamental(rng)
            vol = volume_from_scores(s)
            ours = float(sup.loss_epipolar(vol, [F], 12.0).data)
            ref = oracles.loss_epipolar_formula(s, F.matrix, 12.0, 16)
            assert ours == pytest.approx(ref, abs=1e-10)

    def test_bounds_per_direction(self):
        for seed in range(10):
            rng = np.random.default_rng(200 + seed)
            s = rng.standard_normal((2, 2, 2, 2)) * 5
            F = random_fundamental(rng)
            vol = volume_from_scores(s)
            half = float(sup.loss_epipolar(vol, [F], 16.0).data) / 2.0
            assert -1.0 - 1e-9 <= half <= 0.5 + 1e-9


class TestBuildGtCells:
    def test_floor_quantization(self):
        mask = sup.build_gt_cells(np.array([[8.0, 8.0, 40.0, 8.0]]), 16, (4, 4, 4, 4))
        assert np.argwhere(mask[0, 0]).tolist() == [[0, 2]]

    def test_duplicates_collapse(self):
        gt = np.array([[8.0, 8.0, 40.0, 8.0], [9.0, 9.0, 41.0, 9.0]])
        mask = sup.build_gt_cells(gt, 16, (4, 4, 4, 4))
        assert np.argwhere(mask[0, 0]).tolist() == [[0, 2]]
        assert mask.sum() == 1

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(7)
        gt = rng.uniform(0, 63.99, size=(30, 4))
        mask = sup.build_gt_cells(gt, 16, (4, 4, 4, 4))
        ref = np.zeros((4, 4, 4, 4), dtype=bool)
        for xa, ya, xb, yb in gt:
            ref[int(ya // 16), int(xa // 16), int(yb // 16), int(xb // 16)] = True
        assert np.array_equal(mask, ref)

    def test_out_of_bounds_errors(self):
        with pytest.raises(ValueError, match="outside"):
            sup.build_gt_cells(np.array([[80.0, 8.0, 8.0, 8.0]]), 16, (4, 4, 4, 4))


class TestLossPoints:
    def test_one_hot_at_gt_cells(self):
        vol = volume_from_scores(one_hot_diagonal())
        mask = np.zeros((2, 2, 2, 2), dtype=bool)
        for i in range(2):
            for j in range(2):
                mask[i, j, i, j] = True
        loss = sup.loss_points(vol, mask[None])
        assert float(loss.data) == pytest.approx(-8.0, abs=1e-9)

    def test_uniform_scores(self):
        vol = volume_from_scores(np.zeros((2, 2, 2, 2)))
        mask = np.zeros((2, 2, 2, 2), dtype=bool)
        for i in range(2):
            for j in range(2):
                mask[i, j, i, j] = True
        loss = sup.loss_points(vol, mask[None])
        assert float(loss.data) == pytest.approx(-2.0, abs=1e-12)  # -1 per direction

    def test_matches_formula_oracle(self):
        for seed in range(30):
            rng = np.random.default_rng(300 + seed)
            s = rng.standard_normal((2, 3, 3, 2)) * 2
            mask = rng.random((2, 3, 3, 2)) < 0.2
            if not mask.any():
                mask[0, 0, 0, 0] = True
            vol = volume_from_scores(s)
            ours = float(sup.loss_points(vol, mask[None]).data)
            assert ours == pytest.approx(oracles.loss_points_formula(s, mask), abs=1e-10)

    def test_empty_errors(self):
        vol = volume_from_scores(np.zeros((2, 2, 2, 2)))
        with pytest.raises(ValueError, match="empty"):
            sup.loss_points(vol, np.zeros((1, 2, 2, 2, 2), dtype=bool))

    def test_minimum_attained_at_one_hot_structure(self):
        vol = volume_from_scores(one_hot_diagonal(2, 2))
        mask = np.zeros((2, 2, 2, 2), dtype=bool)
        mask[0, 0, 0, 0] = True
        mask[1, 1, 1, 1] = True
        loss = sup.loss_points(vol, mask[None])
        assert float(loss.data) == pytest.approx(-4.0, abs=1e-9)


def tiny_model():
    return cm.CoarseModel.create(1, backbone_channels=(2, 2, 2, 2), filter_hidden=(2,))


def make_pairs(n_scenes=3, size=64):
    scenes = [generate_scene(SceneConfig(width=size, height=size), 500 + i) for i in range(n_scenes)]
    return sup.PairDataset.from_scenes(scenes, max_side=64, stride=16)


class TestTotalLossAndBatching:
    def test_one_hot_positive_batch(self):
        # reuse the image-loss example through the full entry point
        model = tiny_model()
        ds = make_pairs()
        loss, mean = sup.total_loss(model, ds.positives[:1], "image", 16.0)
        assert mean == pytest.approx(float(loss.data))

    def test_empty_batch_errors(self):
        with pytest.raises(ValueError, match="empty"):
            sup.total_loss(tiny_model(), [], "image", 16.0)

    def test_additivity(self):
        # two image sizes, interleaved: the batch runs as two shape groups
        model = tiny_model()
        big, small = make_pairs(), make_pairs(2, size=48)
        mixed = [big.positives[0], small.positives[0], big.negatives[0], small.negatives[1], big.positives[1]]
        for mode in sup.MODES:
            batch = [p for p in mixed if p.label == 1] if mode == "point" else mixed
            total, mean = sup.total_loss(model, batch, mode, 16.0)
            parts = [float(sup.total_loss(model, [p], mode, 16.0)[0].data) for p in batch]
            assert float(total.data) == pytest.approx(sum(parts), abs=1e-12), mode
            assert mean == float(total.data) / len(batch)

    @pytest.mark.parametrize("mode", ["epipolar", "point"])
    def test_checks_every_group_before_any_forward_pass(self, mode, monkeypatch):
        # the bad pair is alone in the second shape group
        big, small = make_pairs(), make_pairs(2, size=48)
        good, src = big.positives[0], small.positives[0]
        if mode == "epipolar":
            F = FundamentalMatrix.from_array(good.fundamental.matrix, "original-px")
            bad = sup.TrainingPair(src.image_a, src.image_b, F, src.gt_matches)
            message = "frame"
        else:
            gt = np.array([[8.0, 8.0, 8.0, 56.0]])  # row 3 of a 3x3 B grid
            bad = sup.TrainingPair(src.image_a, src.image_b, src.fundamental, gt)
            message = "outside the B grid"

        def no_forward(*args):
            raise AssertionError("forward pass before the checks")

        monkeypatch.setattr(cm, "extract_features", no_forward)
        model = tiny_model()
        with pytest.raises(ValueError, match=message):
            sup.total_loss(model, [good, bad], mode, 16.0)
        # a feature map's backbone work waits for the checks too
        with pytest.raises(ValueError, match=message):
            sup.total_loss(model, [good, bad], mode, 16.0, {})

    @pytest.mark.parametrize("half", ["fundamental", "gt_matches"])
    def test_pair_rejects_half_a_payload(self, half):
        # a pair carries what every mode reads (positive) or nothing (negative)
        src = make_pairs(2).positives[0]
        payload = {half: getattr(src, half)}
        with pytest.raises(ValueError, match="both a fundamental matrix and ground-truth matches, or neither"):
            sup.TrainingPair(src.image_a, src.image_b, **payload)

    def test_point_mode_rejects_negatives(self):
        model = tiny_model()
        ds = make_pairs()
        with pytest.raises(ValueError, match="negative"):
            sup.total_loss(model, [ds.negatives[0]], "point", 16.0)

    def test_compose_batch_balance(self):
        ds = make_pairs(4)
        batch = sup.BatchSampler(ds, 4, seed=0).next_batch()
        labels = [p.label for p in batch]
        assert labels.count(1) == 2 and labels.count(-1) == 2

    def test_compose_batch_exact_small_dataset(self):
        ds = make_pairs(2)
        small = sup.PairDataset(ds.positives[:1], ds.negatives[:1])
        batch = sup.BatchSampler(small, 2, seed=3).next_batch()
        assert {p.label for p in batch} == {1, -1}

    def test_compose_batch_deterministic(self):
        ds = make_pairs(4)
        ids1 = [id(p) for p in sup.BatchSampler(ds, 4, seed=9).next_batch()]
        ids2 = [id(p) for p in sup.BatchSampler(ds, 4, seed=9).next_batch()]
        assert ids1 == ids2

    def test_sampler_epoch_without_replacement(self):
        ds = make_pairs(4)
        sampler = sup.BatchSampler(ds, 2, seed=1)
        seen = []
        for _ in range(4):  # one epoch of positives
            seen += [id(p) for p in sampler.next_batch() if p.label == 1]
        assert sorted(seen) == sorted(id(p) for p in ds.positives)

    def test_requested_negative_fraction(self):
        ds = make_pairs(4)
        sampler = sup.BatchSampler(ds, 4, seed=2, positive_fraction=0.25)
        batch = sampler.next_batch()
        labels = [p.label for p in batch]
        assert labels.count(1) == 1 and labels.count(-1) == 3

    def test_negatives_pair_views_of_different_scenes(self):
        ds = make_pairs(3)
        for i, (pos, neg) in enumerate(zip(ds.positives, ds.negatives)):
            assert neg.label == -1 and neg.fundamental is None and neg.gt_matches is None
            assert neg.image_a is pos.image_a
            assert neg.image_b is ds.positives[(i + 1) % 3].image_b

    def test_odd_batch_errors(self):
        ds = make_pairs(3)
        with pytest.raises(ValueError, match="incompatible"):
            sup.BatchSampler(ds, 3, seed=0)

    @pytest.mark.parametrize(
        "n_pos, n_neg, message",
        [
            (3, 4, "a batch of 8 takes 4 positive pairs; the dataset has 3"),
            (4, 3, "a batch of 8 takes 4 negative pairs; the dataset has 3"),
            (0, 4, "a batch of 8 takes 4 positive pairs; the dataset has 0"),
        ],
    )
    def test_batch_larger_than_a_class_names_the_class_and_counts(self, n_pos, n_neg, message):
        ds = make_pairs(4)
        with pytest.raises(ValueError, match=message):
            sup.BatchSampler(sup.PairDataset(ds.positives[:n_pos], ds.negatives[:n_neg]), 8, seed=0)


class TestFeatureMap:
    @settings(max_examples=20, deadline=None)
    @given(
        shape=st.sampled_from([(64, 64), (96, 128)]),
        steps=st.lists(st.lists(st.integers(0, 5), min_size=1, max_size=8), min_size=1, max_size=3),
        seed=st.integers(0, 2**32 - 1),
        dtype=st.sampled_from([np.float32, np.float64]),
    )
    def test_stacks_equal_one_batched_call(self, shape, steps, seed, dtype):
        # each step draws dataset images in any order, with repeats, and finds
        # some of them in the map already; training's images are float32
        rng = np.random.default_rng(seed)
        backbone = cm.CoarseModel.create(seed % 1000).backbone
        images = list(rng.random((6, *shape)).astype(dtype))
        feature_map = {}
        for picks in steps:
            batch = [images[i] for i in picks]
            sup._add_features(backbone, batch, feature_map)
            stacked = sup._stacked_features(batch, feature_map)
            direct = cm.extract_features(backbone, np.stack(batch))
            assert stacked.shape == direct.shape and not stacked.requires_grad
            assert stacked.data.dtype == direct.data.dtype == dtype
            assert stacked.data.tobytes() == direct.data.tobytes()
        assert len(feature_map) == len({i for picks in steps for i in picks})


def _blank_pairs(n, positive):
    """``n`` distinct pairs of one class; the sampler reads nothing but their identity."""
    rect = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]])
    fund = FundamentalMatrix.from_array(rect, FRAME_RESIZED) if positive else None
    gt = np.zeros((1, 4)) if positive else None
    return [sup.TrainingPair(np.zeros((16, 16)), np.zeros((16, 16)), fund, gt) for _ in range(n)]


@st.composite
def sampler_cases(draw):
    n_pos = draw(st.integers(0, 3))
    n_neg = draw(st.integers(0 if n_pos else 1, 3))
    dataset = sup.PairDataset(
        _blank_pairs(draw(st.integers(max(n_pos, 1), 6)), True),
        _blank_pairs(draw(st.integers(max(n_neg, 1), 6)), False),
    )
    return dataset, n_pos, n_neg, draw(st.integers(0, 2**32 - 1))


class TestBatchSampler:
    @settings(max_examples=60, deadline=None)
    @given(sampler_cases(), st.integers(1, 12))
    def test_each_epoch_of_a_class_yields_every_pair_once(self, case, n_batches):
        dataset, n_pos, n_neg, seed = case
        fraction = n_pos / (n_pos + n_neg)
        sampler = sup.BatchSampler(dataset, n_pos + n_neg, seed, fraction)
        batches = [sampler.next_batch() for _ in range(n_batches)]
        for pool, count, offset in ((dataset.positives, n_pos, 0), (dataset.negatives, n_neg, n_pos)):
            drawn = [id(p) for batch in batches for p in batch[offset : offset + count]]
            assert len(drawn) == n_batches * count
            for start in range(0, len(drawn), len(pool)):
                # a whole epoch is every pair of the class once; the last, partial one repeats none
                epoch = drawn[start : start + len(pool)]
                assert len(set(epoch)) == len(epoch) and set(epoch) <= {id(p) for p in pool}
        again = sup.BatchSampler(dataset, n_pos + n_neg, seed, fraction)
        assert [[id(p) for p in again.next_batch()] for _ in batches] == [[id(p) for p in b] for b in batches]


class TestTraining:
    def _dataset_dir(self, tmp_path, n=4, size=64):
        root = tmp_path / "scenes"
        for i in range(n):
            save_scene(root / f"scene_{i:04d}", generate_scene(SceneConfig(width=size, height=size), 700 + i))
        return root

    def _config(self, tmp_path, **kw):
        defaults = dict(
            mode="epipolar",
            dataset_dir=str(self._dataset_dir(tmp_path)),
            out_dir=str(tmp_path / "run"),
            iterations=6,
            batch_size=2,
            freeze_steps=3,
            seed=0,
            checkpoint_every=0,
            max_side=64,
        )
        defaults.update(kw)
        return sup.TrainConfig(**defaults)

    def test_zero_lr_keeps_parameters(self, tmp_path):
        config = self._config(tmp_path, lr=0.0, lr_finetune=0.0)
        init = cm.CoarseModel.create(config.seed)
        trained = cm.CoarseModel.load(sup.train(config))
        for p, q in zip(init.parameters(), trained.parameters()):
            assert np.array_equal(p.data, q.data), p.name

    def test_loss_decreases(self, tmp_path):
        config = self._config(tmp_path, iterations=50, freeze_steps=50, lr=3e-3)
        sup.train(config)
        curve = (tmp_path / "run" / "loss_curve.csv").read_text().splitlines()[1:]
        losses = [float(line.split(",")[1]) for line in curve]
        assert len(losses) == 50
        first, last = np.mean(losses[:5]), np.mean(losses[-5:])
        assert last < first

    def test_deterministic(self, tmp_path):
        c1 = self._config(tmp_path, out_dir=str(tmp_path / "r1"))
        c2 = self._config(tmp_path, out_dir=str(tmp_path / "r2"))
        assert sup.train(c1).read_bytes() == sup.train(c2).read_bytes()
        assert (tmp_path / "r1" / "loss_curve.csv").read_bytes() == (tmp_path / "r2" / "loss_curve.csv").read_bytes()

    def test_artifacts_exist(self, tmp_path):
        config = self._config(tmp_path, checkpoint_every=2)
        sup.train(config)
        out = tmp_path / "run"
        assert (out / "checkpoint_final.gmck").exists()
        assert (out / "checkpoint_000002.gmck").exists()
        assert (out / "loss_curve.csv").read_text().startswith("step,loss,mode")

    def test_divergence_keeps_last_finite_step(self, tmp_path, monkeypatch):
        k = 4
        reference = sup.train(self._config(tmp_path, out_dir=str(tmp_path / "ref"), iterations=k - 1))
        original = sup.total_loss
        calls = []

        def nan_at_step_k(*args, **kwargs):
            loss, mean = original(*args, **kwargs)
            calls.append(mean)
            return loss, (float("nan") if len(calls) == k else mean)

        monkeypatch.setattr(sup, "total_loss", nan_at_step_k)
        with pytest.raises(sup.TrainingDiverged) as info:
            sup.train(self._config(tmp_path))
        final = tmp_path / "run" / "checkpoint_final.gmck"
        assert info.value.step == k and info.value.checkpoint_path == final
        assert final.read_bytes() == reference.read_bytes()
        assert len((tmp_path / "run" / "loss_curve.csv").read_text().splitlines()) == 1 + (k - 1)

    def test_bytes_do_not_depend_on_blas_threads(self, tmp_path):
        # the default widths at batch 8 give GEMMs large enough (144x144x96
        # per sample, 144x768x144 summed) for OpenBLAS to split over threads
        dataset = self._dataset_dir(tmp_path)
        env = {**os.environ, "PYTHONPATH": str(Path(guidematch.__file__).parents[1])}
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}"
            argv = [sys.executable, "-m", "guidematch", "train", "--mode", "epipolar", "--dataset", str(dataset)]
            argv += ["--out", str(out), "--iterations", "4", "--freeze-steps", "2", "--seed", "0"]
            subprocess.run(argv, env={**env, "OPENBLAS_NUM_THREADS": threads}, check=True, capture_output=True)
            outputs.append([(out / name).read_bytes() for name in ("checkpoint_final.gmck", "loss_curve.csv")])
        assert outputs[0] == outputs[1]

    def test_frozen_steps_run_each_image_through_the_backbone_once(self, tmp_path, monkeypatch):
        freeze = 3
        config = self._config(tmp_path, iterations=2 * freeze, freeze_steps=freeze, batch_size=4, checkpoint_every=2)
        batches, calls = [], []  # each step's pairs; (step, images) of each extract_features call
        next_batch, extract_features = sup.BatchSampler.next_batch, cm.extract_features

        def spy_batch(sampler):
            batches.append(next_batch(sampler))
            return batches[-1]

        def spy_features(backbone, images):
            calls.append((len(batches), images.copy()))
            return extract_features(backbone, images)

        monkeypatch.setattr(sup.BatchSampler, "next_batch", spy_batch)
        monkeypatch.setattr(cm, "extract_features", spy_features)
        final = sup.train(config)
        monkeypatch.undo()

        frozen = [image.tobytes() for step, images in calls if step <= freeze for image in images]
        assert len(frozen) == len(set(frozen))  # each dataset image at most once
        assert all(sum(s == step for s, _ in calls) <= 1 for step in range(1, freeze + 1))  # one batched call
        drawn = {im.tobytes() for batch in batches[:freeze] for p in batch for im in (p.image_a, p.image_b)}
        assert set(frozen) == drawn
        for step in range(freeze + 1, config.iterations + 1):
            batch = batches[step - 1]
            seen = [images for s, images in calls if s == step]
            assert len(seen) == 2, step
            assert np.array_equal(seen[0], np.stack([p.image_a for p in batch]))
            assert np.array_equal(seen[1], np.stack([p.image_b for p in batch]))

        reference = oracles.train_reference(dataclasses.replace(config, out_dir=str(tmp_path / "reference")))
        names = ["loss_curve.csv", "checkpoint_000002.gmck", "checkpoint_000004.gmck", final.name]
        for name in names:
            assert (final.parent / name).read_bytes() == (reference.parent / name).read_bytes(), name

    @pytest.mark.parametrize("freeze", [0, 6, 9])
    def test_frozen_phase_edges_equal_the_reference(self, tmp_path, freeze):
        # no frozen step, and every step frozen: freeze_steps at iterations and past it
        config = self._config(tmp_path, iterations=6, freeze_steps=freeze, checkpoint_every=3)
        final = sup.train(config)
        reference = oracles.train_reference(dataclasses.replace(config, out_dir=str(tmp_path / "reference")))
        for name in ["loss_curve.csv", "checkpoint_000003.gmck", final.name]:
            assert (final.parent / name).read_bytes() == (reference.parent / name).read_bytes(), name
        init = cm.CoarseModel.create(config.seed).backbone.parameters()
        trained = cm.CoarseModel.load(final).backbone.parameters()
        kept = [np.array_equal(p.data, q.data) for p, q in zip(init, trained)]
        assert kept == [freeze >= config.iterations] * len(init)

    def test_config_file_roundtrip(self, tmp_path):
        text = "mode = point\niterations = 7\nlr = 0.01\nlambda_px = 8\nseed = 3\n"
        cfg_path = tmp_path / "c.txt"
        cfg_path.write_text(text)
        cfg = load_config(cfg_path, sup.TrainConfig, dataset_dir="d", out_dir="o")
        assert cfg.mode == "point"
        assert cfg.iterations == 7
        assert cfg.lr == 0.01
        assert cfg.lambda_px == 8.0
        assert cfg.seed == 3

    def test_config_file_unknown_key_names_file_and_key(self, tmp_path):
        cfg_path = tmp_path / "c.txt"
        cfg_path.write_text("mode = point\niteration = 5\n")
        with pytest.raises(ValueError, match=r"c\.txt.*'iteration'"):
            load_config(cfg_path, sup.TrainConfig, dataset_dir="d", out_dir="o")

    def test_missing_required_value_errors(self, tmp_path):
        with pytest.raises(ConfigError, match="mode"):
            load_config(None, sup.TrainConfig, dataset_dir="d", out_dir="o")

    def test_config_file_bad_value_names_file_and_key(self, tmp_path):
        cfg_path = tmp_path / "c.txt"
        cfg_path.write_text("mode = point\nbatch_size = 2.5\n")
        with pytest.raises(ValueError, match=r"c\.txt: batch_size"):
            load_config(cfg_path, sup.TrainConfig, dataset_dir="d", out_dir="o")

    @pytest.mark.parametrize(
        "setting, message",
        [
            ({"iterations": -3}, "iterations must be an integer >= 1, got -3"),
            # a float step count made out_dir before failing, or trained silently
            ({"iterations": 2.5}, "iterations must be an integer >= 1, got 2.5"),
            ({"batch_size": 2.5}, "batch_size must be an integer >= 1, got 2.5"),
            ({"freeze_steps": -3}, "freeze_steps must be an integer >= 0, got -3"),
            ({"freeze_steps": 1.5}, "freeze_steps must be an integer >= 0, got 1.5"),
            ({"checkpoint_every": 1.5}, "checkpoint_every must be an integer >= 0, got 1.5"),
            ({"lr_finetune": float("inf")}, "lr_finetune must be finite and >= 0, got inf"),
            ({"lr_finetune": -1e-3}, "lr_finetune must be finite and >= 0, got -0.001"),
            ({"checkpoint_every": -1}, "checkpoint_every must be an integer >= 0, got -1"),
            # a float seed would fail only in CoarseModel.create, a bool would train as seed 0 or 1
            ({"seed": 1.5}, "seed must be an integer >= 0, got 1.5"),
            ({"seed": False}, "seed must be an integer >= 0, got False"),
            ({"max_side": 100.5}, "max_side must be an integer >= 1, got 100.5"),
        ],
    )
    def test_settings_that_cannot_train_are_rejected(self, setting, message):
        # the CLI test covers --iterations 0, --lr nan / -1 and checkpoint_every = -1; lr_finetune has no flag
        with pytest.raises(ValueError, match=message):
            sup.TrainConfig(mode="epipolar", dataset_dir="d", out_dir="o", **setting)


# the three losses, and "volume": prob_ab weighted by a random array, which
# checks the forward pass with no loss's max or mask after it
OBJECTIVES = (*sup.MODES, "volume")


def _case_model(seed, rng):
    model = cm.CoarseModel.create(seed, backbone_channels=(3, 4, 4, 4), filter_hidden=(2,))
    # the zero output head would make untrained scores uniform (argmax ties);
    # give it generic weights so the losses are checked at a generic point
    model.cons_filter.weights[-1].data = 0.2 * rng.standard_normal(model.cons_filter.weights[-1].shape)
    return model


def _random_pair(rng, cells=3):
    """A random positive pair of ``cells`` x ``cells`` grids (16 px cells), a
    perturbed rectified F and a permutation of the cell centres as ground truth."""
    img_a = rng.random((16 * cells, 16 * cells))
    img_b = rng.random((16 * cells, 16 * cells))
    rect = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]])
    fund = FundamentalMatrix.from_array(rect + 0.05 * rng.standard_normal((3, 3)), FRAME_RESIZED)
    # cover every cell in both directions (a permutation of cell centers) so
    # the point loss has no all-masked rows, whose exact ties would make the
    # conditioning check reject every seed
    ys, xs = np.mgrid[0:cells, 0:cells]
    centers = np.column_stack([(xs.ravel() + 0.5) * 16.0, (ys.ravel() + 0.5) * 16.0])
    perm = rng.permutation(cells * cells)
    jitter = rng.uniform(-5, 5, (cells * cells, 2))
    gt = np.column_stack([centers + jitter, centers[perm] + rng.uniform(-5, 5, (cells * cells, 2))])
    return sup.TrainingPair(img_a, img_b, fund, gt)


def _loss_case(objective, seed, dtype=np.float64):
    """One objective of ``OBJECTIVES`` on one ``_random_pair`` as a function
    of a tiny model's parameters; the pair's images are float64, which runs
    the whole forward in float64, unless ``dtype`` says otherwise."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, OBJECTIVES.index(objective)]))
    model = _case_model(seed, rng)
    pair = _random_pair(rng)
    pair = dataclasses.replace(pair, image_a=pair.image_a.astype(dtype), image_b=pair.image_b.astype(dtype))
    if objective == "volume":
        weights = rng.standard_normal((1, 3, 3, 3, 3))
        images = pair.image_a[None], pair.image_b[None]
        return (lambda: (cm.compute_volume(model, *images).prob_ab * weights).sum()), model.parameters()
    return (lambda: sup.total_loss(model, [pair], objective, lambda_px=16.0)[0]), model.parameters()


def _batch_case(mode, seed):
    """``total_loss`` of one mode on a mixed batch of pairs with distinct
    images, as a function of a tiny model's parameters: two positive pairs
    and, except in point mode, one negative pair. The grids are 2x2: three
    pairs of 3x3 grids have so many rectifier units and feature cells that
    fewer than 1 seed in 100 clears the conditioning gate."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, len(OBJECTIVES) + sup.MODES.index(mode)]))
    model = _case_model(seed, rng)
    pairs = [_random_pair(rng, cells=2) for _ in range(2)]
    if mode != "point":
        pairs.append(sup.TrainingPair(rng.random((32, 32)), rng.random((32, 32))))
    return (lambda: sup.total_loss(model, pairs, mode, lambda_px=16.0)[0]), model.parameters()


def _first_well_conditioned(objective, limit=50, case=_loss_case):
    """The ``case`` of the lowest seed below ``limit`` whose forward pass is well conditioned."""
    seed = next((s for s in range(limit) if well_conditioned(case(objective, s)[0])), None)
    assert seed is not None, f"no well-conditioned {objective} seed below {limit}"
    return seed, case(objective, seed)


N_LOSS_SEEDS = 20


class TestLossGradients:
    """Finite differences of each loss through the full network, only at
    well-conditioned points (away from rectifier kinks, argmax switches and
    vanishing feature norms), so they measure the gradient, not a kink."""

    @pytest.mark.parametrize("mode", sup.MODES)
    def test_sampled_coordinates(self, mode):
        errors, seed = [], 0
        while len(errors) < N_LOSS_SEEDS and seed < 50 * N_LOSS_SEEDS:
            f, params = _loss_case(mode, seed)
            seed += 1
            if not well_conditioned(f):
                continue
            coords = sample_coords(params, 2, np.random.default_rng(1000 + seed))
            errors.append(max_gradient_error(f, params, coords=coords))
        assert len(errors) == N_LOSS_SEEDS
        # each error on its own: max() would drop a nan
        assert all(e < 1e-4 for e in errors), errors

    def test_every_coordinate_epipolar(self):
        _, case = _first_well_conditioned("epipolar")
        assert max_gradient_error(*case) < 1e-4

    @pytest.mark.parametrize("objective", OBJECTIVES)
    def test_float32_forward_matches_the_float64_gradients(self, objective):
        # training's forward: float32 images run the backbone and the filter
        # in float32 on cast parameters; its float64 parameter gradients match
        # the float64 forward's within 1e-4 of each parameter's largest
        # gradient entry: float32 rounds to 6e-8, and the bound allows the
        # network to amplify that 1600-fold (about 60-fold is seen)
        seed, (f64, params64) = _first_well_conditioned(objective)
        f32, params32 = _loss_case(objective, seed, np.float32)
        f64().backward()
        f32().backward()
        for p32, p64 in zip(params32, params64):
            assert np.array_equal(p32.data, p64.data) and p32.grad.dtype == np.float64, p32.name
            assert np.abs(p32.grad - p64.grad).max() <= 1e-4 * np.abs(p64.grad).max(), p32.name

    @pytest.mark.parametrize("mode", sup.MODES)
    def test_mixed_batch(self, mode):
        # the kernel gradients sum over the batch and each pair's loss has
        # its own weights, which a one-pair case cannot check
        seed, (f, params) = _first_well_conditioned(mode, limit=100, case=_batch_case)
        coords = sample_coords(params, 4, np.random.default_rng(2000 + seed))
        assert max_gradient_error(f, params, coords=coords) < 1e-4
