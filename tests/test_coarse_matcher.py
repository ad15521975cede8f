import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from guidematch import coarse_matcher as cm
from guidematch import numerics
from guidematch.numerics import Tensor, parameter

import oracles
from gradcheck import max_gradient_error, sample_coords
from test_supervision import _first_well_conditioned, volume_from_scores


def make_model(seed=0, channels=(4, 8), hidden=(4,)):
    return cm.CoarseModel.create(seed, backbone_channels=channels, filter_hidden=hidden)


def random_filter(hidden, rng):
    """A consensus filter with every trainable weight and bias drawn at random; the
    default zero output head would make the filtered volume a constant."""
    filt = cm.ConsensusFilter(hidden, cm.he_uniform(rng))
    for p in filt.parameters():
        p.data = rng.standard_normal(p.shape)
    return filt


def orthonormal_feature_map(n_cells):
    """One-map (C, 1, H, W) feature grid whose cell vectors are distinct rows of an identity matrix."""
    h = w = int(np.sqrt(n_cells))
    c = h * w
    return Tensor(np.eye(c).reshape(c, 1, h, w))


def interpolate_one(field, p):
    x, y = cm.interpolate_matches(field, np.asarray(p, dtype=np.float64)[None])[0]
    return float(x), float(y)


class TestExtractFeatures:
    def test_shape(self):
        model = cm.CoarseModel.create(0)
        fmap = cm.extract_features(model.backbone, np.zeros((3, 64, 64)))
        assert fmap.shape == (32, 3, 4, 4)
        assert model.stride == 16

    def test_non_multiple_errors_with_resize_hint(self):
        model = cm.CoarseModel.create(0)
        with pytest.raises(ValueError, match="resize"):
            cm.extract_features(model.backbone, np.zeros((1, 60, 64)))

    def test_constant_image_interior_cells_equal(self):
        model = cm.CoarseModel.create(1)
        fmap = cm.extract_features(model.backbone, np.full((1, 96, 96), 0.37))
        g = fmap.data[:, 0]
        interior = g[:, 1:-1, 1:-1].reshape(g.shape[0], -1)
        ref = interior[:, :1]
        assert np.abs(interior - ref).max() < 1e-9

    def test_unit_norms(self):
        model = cm.CoarseModel.create(2)
        rng = np.random.default_rng(0)
        fmap = cm.extract_features(model.backbone, rng.random((2, 64, 64)))
        norms = np.sqrt((fmap.data**2).sum(axis=0))
        assert np.abs(norms - 1.0).max() < 1e-9


class TestResizeImage:
    def test_800_to_496(self):
        img = np.zeros((800, 800))
        out, (sx, sy) = cm.resize_image(img, 497, 16)
        assert out.shape == (496, 496)
        assert sx == pytest.approx(0.62)
        assert sy == pytest.approx(0.62)

    def test_small_image_unchanged(self):
        rng = np.random.default_rng(1)
        img = rng.random((64, 64))
        out, scales = cm.resize_image(img, 497, 16)
        assert scales == (1.0, 1.0)
        assert np.array_equal(out, img)

    def test_aspect_preserved_within_stride(self):
        img = np.zeros((800, 400))
        out, (sx, sy) = cm.resize_image(img, 401, 16)
        assert out.shape[0] % 16 == 0 and out.shape[1] % 16 == 0
        assert abs(sx - sy) * 401 < 16

    def test_degenerate(self):
        with pytest.raises(ValueError):
            cm.resize_image(np.zeros((4, 800)), 497, 16)


class TestCorrelate:
    def test_orthonormal_identity(self):
        fa = orthonormal_feature_map(9)
        c = cm.correlate(fa, fa).data[0]
        for i in range(3):
            for j in range(3):
                expected = np.zeros((3, 3))
                expected[i, j] = 1.0
                assert np.array_equal(c[i, j], expected)

    def test_orthogonal_maps_all_zero(self):
        grid_a = np.zeros((4, 1, 2, 2))
        grid_a[0] = 1.0
        grid_b = np.zeros((4, 1, 2, 2))
        grid_b[1] = 1.0
        assert np.abs(cm.correlate(Tensor(grid_a), Tensor(grid_b)).data).max() == 0.0

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(3)
        ga = rng.standard_normal((6, 2, 4, 4))
        gb = rng.standard_normal((6, 2, 3, 5))
        raw = cm.correlate(Tensor(ga), Tensor(gb))
        ref = np.stack([oracles.correlation_loops(ga[:, n], gb[:, n]) for n in range(2)])
        assert np.abs(raw.data - ref).max() < 1e-12

    def test_channel_mismatch(self):
        with pytest.raises(ValueError, match="channel"):
            cm.correlate(Tensor(np.zeros((4, 1, 2, 2))), Tensor(np.zeros((5, 1, 2, 2))))

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(1, 4),
        c=st.integers(1, 5),
        grids=st.tuples(*[st.integers(1, 4)] * 4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_batch_invariant(self, n, c, grids, seed):
        # the B map rides along as the op's weight: per-pair slices of the
        # output and of both gradients match each pair run alone
        rng = np.random.default_rng(seed)
        ha, wa, hb, wb = grids
        fa, fb = rng.standard_normal((c, n, ha, wa)), rng.standard_normal((c, n, hb, wb))
        raw = cm.correlate(Tensor(fa), Tensor(fb)).data
        g = rng.standard_normal(raw.shape)
        pa, pb = parameter(fa, "fa"), parameter(fb, "fb")
        (cm.correlate(pa, pb) * Tensor(g)).sum().backward()
        for k in range(n):
            qa, qb = parameter(fa[:, k : k + 1], "fa"), parameter(fb[:, k : k + 1], "fb")
            out = cm.correlate(qa, qb)
            assert np.array_equal(out.data, raw[k : k + 1])
            (out * Tensor(g[k : k + 1])).sum().backward()
            assert np.array_equal(qa.grad, pa.grad[:, k : k + 1])
            assert np.array_equal(qb.grad, pb.grad[:, k : k + 1])

    def test_cosine_range(self):
        model = cm.CoarseModel.create(4)
        rng = np.random.default_rng(4)
        fa = cm.extract_features(model.backbone, rng.random((2, 64, 64)))
        fb = cm.extract_features(model.backbone, rng.random((2, 64, 64)))
        c = cm.correlate(fa, fb).data
        assert c.min() >= -1.0 - 1e-9 and c.max() <= 1.0 + 1e-9


class TestFilterSymmetric:
    def test_identity_kernel_filter_is_identity(self):
        filt = cm.ConsensusFilter((), cm.he_uniform(np.random.default_rng(0)))
        filt.weights[0].data = np.zeros((1, 1, 3, 3, 3, 3))
        filt.weights[0].data[0, 0, 1, 1, 1, 1] = 1.0
        rng = np.random.default_rng(5)
        raw = rng.standard_normal((2, 3, 3, 3, 3))
        assert np.abs(cm.filter_symmetric(filt, Tensor(raw)).data - raw).max() < 1e-12

    def test_order_symmetry(self):
        rng = np.random.default_rng(6)
        filt = random_filter((4,), rng)
        raw = rng.standard_normal((2, 2, 3, 4, 2))
        ab = cm.filter_symmetric(filt, Tensor(raw)).data
        ba = cm.filter_symmetric(filt, Tensor(raw.transpose(0, 3, 4, 1, 2))).data
        assert np.abs(ab - ba.transpose(0, 3, 4, 1, 2)).max() < 1e-12

    @settings(max_examples=40, deadline=None)
    @given(
        spatial=st.tuples(*[st.integers(1, 4)] * 4),
        hidden=st.lists(st.integers(1, 4), min_size=1, max_size=2),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_order_symmetry_any_shape(self, spatial, hidden, seed):
        rng = np.random.default_rng(seed)
        filt = random_filter(tuple(hidden), rng)
        raw = rng.standard_normal((1, *spatial))
        ab = cm.filter_symmetric(filt, Tensor(raw)).data
        ba = cm.filter_symmetric(filt, Tensor(raw.transpose(cm._SWAP_AB))).data
        assert np.abs(ab - ba.transpose(cm._SWAP_AB)).max() < 1e-12

    def test_matches_two_pass_reference(self):
        rng = np.random.default_rng(7)
        filt = random_filter((4,), rng)
        raw = rng.standard_normal((2, 2, 2, 3, 3))
        filtered = cm.filter_symmetric(filt, Tensor(raw)).data
        direct = filt.forward(Tensor(raw)).data
        swapped = filt.forward(Tensor(raw.transpose(0, 3, 4, 1, 2))).data.transpose(0, 3, 4, 1, 2)
        assert np.abs(filtered - 0.5 * (direct + swapped)).max() < 1e-12


class TestNormalizeScores:
    def test_uniform(self):
        prob_ab, _ = cm.normalize_scores(Tensor(np.zeros((1, 2, 2, 3, 3))))
        assert np.abs(prob_ab.data - 1 / 9).max() < 1e-12

    def test_dominant_cell_saturates(self):
        s = np.zeros((1, 1, 1, 2, 2))
        s[0, 0, 0, 1, 1] = 1000.0
        prob_ab, _ = cm.normalize_scores(Tensor(s))
        assert prob_ab.data[0, 0, 0, 1, 1] > 1.0 - 1e-12

    def test_sums(self):
        rng = np.random.default_rng(8)
        prob_ab, prob_ba = cm.normalize_scores(Tensor(rng.standard_normal((2, 3, 2, 4, 2))))
        assert np.abs(prob_ab.data.sum(axis=(3, 4)) - 1.0).max() < 1e-10
        assert np.abs(prob_ba.data.sum(axis=(1, 2)) - 1.0).max() < 1e-10


class TestExtractMatches:
    def test_identity_from_orthonormal_maps(self):
        fa = orthonormal_feature_map(16)
        field = cm.extract_matches(volume_from_scores(cm.correlate(fa, fa).data), "AB")
        for i in range(4):
            for j in range(4):
                assert tuple(field.target_cells[i, j]) == (i, j)

    def test_rejects_a_batch(self):
        with pytest.raises(ValueError, match="one-pair volume"):
            cm.extract_matches(volume_from_scores(np.zeros((2, 2, 2, 3, 3))), "AB")

    def test_constant_scores_tie_rule(self):
        vol = volume_from_scores(np.zeros((2, 2, 3, 3)))
        field = cm.extract_matches(vol, "AB")
        assert np.all(field.target_cells == 0)

    def test_matches_scan_oracle_both_directions(self):
        rng = np.random.default_rng(9)
        s = rng.standard_normal((3, 4, 2, 5))
        vol = volume_from_scores(s)
        ab = cm.extract_matches(vol, "AB")
        ba = cm.extract_matches(vol, "BA")
        for i in range(3):
            for j in range(4):
                flat = s[i, j].ravel()
                assert flat[ab.target_cells[i, j, 0] * 5 + ab.target_cells[i, j, 1]] == flat.max()
        for k in range(2):
            for l in range(5):
                flat = s[:, :, k, l].ravel()
                assert flat[ba.target_cells[k, l, 0] * 4 + ba.target_cells[k, l, 1]] == flat.max()

    def test_softmax_argmax_commutation(self):
        rng = np.random.default_rng(10)
        s = rng.standard_normal((2, 3, 3, 2))
        vol = volume_from_scores(s)
        from_filtered = cm.extract_matches(vol, "AB").target_cells
        from_prob = cm.extract_matches(volume_from_scores(vol.prob_ab.data), "AB").target_cells
        assert np.array_equal(from_filtered, from_prob)


class TestCoarseMatchField:
    @pytest.mark.parametrize("shape", [(4, 4, 3), (4, 4), (4, 4, 2, 1)])
    def test_cells_without_a_row_col_pair_raise(self, shape):
        # a ValueError, not an assert that python -O strips
        with pytest.raises(ValueError, match="shape"):
            cm.CoarseMatchField(np.zeros(shape, dtype=int), np.ones((4, 4)), 16, (64, 64), (64, 64))


class TestInterpolateMatch:
    def _field(self, cells, stride=16, grid=(4, 4)):
        h, w = grid
        return cm.CoarseMatchField(cells, np.ones((h, w)), stride, (h * stride, w * stride), (h * stride, w * stride))

    def test_feature_center_exact(self):
        rng = np.random.default_rng(11)
        cells = rng.integers(0, 4, size=(4, 4, 2))
        field = self._field(cells)
        i, j = 2, 1
        p = ((j + 0.5) * 16, (i + 0.5) * 16)
        out = interpolate_one(field, p)
        k, l = cells[i, j]
        assert out == pytest.approx(((l + 0.5) * 16, (k + 0.5) * 16))

    def test_midpoint_between_centers(self):
        cells = np.zeros((4, 4, 2), dtype=int)
        cells[0, 0] = (0, 0)  # match point (8, 8)
        cells[0, 1] = (0, 2)  # match point (40, 8)
        field = self._field(cells)
        # (16, 8) sits midway between the centers of cells (0,0) and (0,1)
        out = interpolate_one(field, (16.0, 8.0))
        assert out == pytest.approx((24.0, 8.0))

    def test_matches_direct_bilinear_formula(self):
        rng = np.random.default_rng(12)
        cells = rng.integers(0, 4, size=(4, 4, 2))
        field = self._field(cells)
        targets = (cells[..., ::-1] + 0.5) * 16.0
        for _ in range(50):
            x = rng.uniform(8.0, 56.0)
            y = rng.uniform(8.0, 56.0)
            gx, gy = x / 16 - 0.5, y / 16 - 0.5
            j0, i0 = int(gx), int(gy)
            tx, ty = gx - j0, gy - i0
            ref = (
                targets[i0, j0] * (1 - tx) * (1 - ty)
                + targets[i0, j0 + 1] * tx * (1 - ty)
                + targets[i0 + 1, j0] * (1 - tx) * ty
                + targets[i0 + 1, j0 + 1] * tx * ty
            )
            assert np.abs(np.array(interpolate_one(field, (x, y))) - ref).max() < 1e-12

    def test_outside_image_errors(self):
        field = self._field(np.zeros((4, 4, 2), dtype=int))
        with pytest.raises(ValueError, match="outside"):
            interpolate_one(field, (64.0, 10.0))

    def test_border_clamped(self):
        cells = np.zeros((4, 4, 2), dtype=int)
        field = self._field(cells)
        corner = interpolate_one(field, (0.0, 0.0))
        center = interpolate_one(field, (8.0, 8.0))
        assert corner == center

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_any_query_inside_source_maps_strictly_inside_target(self, data):
        stride = data.draw(st.sampled_from([1, 2, 8, 16]))
        hs, ws, ht, wt = (data.draw(st.integers(1, 5)) for _ in range(4))
        cell = st.tuples(st.integers(0, ht - 1), st.integers(0, wt - 1))
        cells = np.array(data.draw(st.lists(cell, min_size=hs * ws, max_size=hs * ws))).reshape(hs, ws, 2)
        # the target image may extend past its last full cell
        h_t, w_t = (n * stride + data.draw(st.integers(0, stride - 1)) for n in (ht, wt))
        field = cm.CoarseMatchField(cells, np.ones((hs, ws)), stride, (hs * stride, ws * stride), (h_t, w_t))
        xs = st.floats(0.0, ws * stride, exclude_max=True)
        ys = st.floats(0.0, hs * stride, exclude_max=True)
        pts = np.array(data.draw(st.lists(st.tuples(xs, ys), min_size=1, max_size=20)))
        out = cm.interpolate_matches(field, pts)
        assert ((out[:, 0] > 0) & (out[:, 0] < w_t) & (out[:, 1] > 0) & (out[:, 1] < h_t)).all()


class TestBatchedModel:
    @settings(max_examples=10, deadline=None)
    @given(
        cells=st.tuples(*[st.integers(1, 4)] * 4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_match_fields_do_not_depend_on_the_batch(self, cells, seed):
        rng = np.random.default_rng(seed)
        model = make_model()
        for p in model.parameters():
            p.data = rng.standard_normal(p.shape)
        s = model.stride
        ha, wa, hb, wb = (s * c for c in cells)
        images_a, images_b = rng.random((3, ha, wa)), rng.random((3, hb, wb))
        vol = cm.compute_volume(model, images_a, images_b)
        for n in range(3):
            fields = cm.compute_match_fields(model, images_a[n], images_b[n], max(ha, wa, hb, wb))
            pair = dataclasses.replace(vol, filtered=Tensor(vol.filtered.data[n : n + 1]))
            for field, direction in zip(fields, ("AB", "BA")):
                ref = cm.extract_matches(pair, direction)
                assert np.array_equal(field.target_cells, ref.target_cells)
                assert np.array_equal(field.scores, ref.scores)


class TestDetachedEval:
    """Evaluation's forward pass runs on a view that records no graph."""

    @staticmethod
    def _model(seed):
        rng = np.random.default_rng(seed)
        model = cm.CoarseModel.create(seed, backbone_channels=(4, 8), filter_hidden=(4,), frozen_backbone=True)
        for p in model.parameters():
            p.data = rng.standard_normal(p.shape)
        return model, rng

    def test_callers_model_is_left_as_it_was(self):
        model, rng = self._model(50)
        params = model.parameters() + [model.cons_filter.output_bias]
        before = [(p.requires_grad, p.grad, p.data, p.data.copy()) for p in params]
        assert {p.requires_grad for p in params} == {False, True}  # frozen backbone, trainable filter
        cm.compute_match_fields(model, rng.random((32, 48)), rng.random((48, 32)), 48)
        assert model.parameters() + [model.cons_filter.output_bias] == params
        for p, (flag, grad, data, values) in zip(params, before):
            assert p.requires_grad == flag and p.grad is None and grad is None
            assert p.data is data and np.array_equal(data, values)

    def test_fields_are_bit_identical_to_the_trainable_forward(self, monkeypatch):
        model, rng = self._model(51)
        image_a, image_b = rng.random((32, 48)), rng.random((48, 32))
        seen = []
        compute_volume = cm.compute_volume

        def recording(*args):
            seen.append(compute_volume(*args))
            return seen[-1]

        monkeypatch.setattr(cm, "compute_volume", recording)
        fields = cm.compute_match_fields(model, image_a, image_b, 48)
        monkeypatch.undo()
        assert [v.filtered._parents for v in seen] == [()]  # the eval forward ran detached
        vol = cm.compute_volume(model, image_a[None], image_b[None])
        assert vol.filtered.requires_grad
        for field, direction in zip(fields, ("AB", "BA")):
            ref = cm.extract_matches(vol, direction)
            assert np.array_equal(field.target_cells, ref.target_cells)
            assert np.array_equal(field.scores.view(np.uint64), ref.scores.view(np.uint64))

    def test_view_shares_arrays_and_records_no_parents(self):
        model, rng = self._model(52)
        view = cm._detached(model)
        for p, v in zip(model.parameters(), view.parameters()):
            assert v is not p and v.data is p.data and v.name == p.name and not v.requires_grad
        raw = Tensor(rng.standard_normal((1, 2, 3, 2, 3)))
        out = view.cons_filter.forward(raw)
        assert isinstance(out, Tensor) and out._parents == () and out._backward is None
        vol = cm.compute_volume(view, rng.random((1, 32, 32)), rng.random((1, 32, 32)))
        assert all(t._parents == () and not t.requires_grad for t in (vol.filtered, vol.prob_ab, vol.prob_ba))


class TestEndToEndGradients:
    def test_full_pipeline_finite_differences(self):
        seed, (f, params) = _first_well_conditioned("volume")
        coords = sample_coords(params, 4, np.random.default_rng(1000 + seed))
        assert max_gradient_error(f, params, coords=coords) < 1e-4


class TestModelCheckpoint:
    def test_save_load_roundtrip(self, tmp_path):
        model = make_model(seed=3)
        rng = np.random.default_rng(14)
        img = rng.random((64, 64))
        vol = cm.compute_volume(model, img[None], img[None])
        model.save(tmp_path / "m.gmck")
        loaded = cm.CoarseModel.load(tmp_path / "m.gmck")
        assert loaded.backbone.channels == model.backbone.channels
        vol2 = cm.compute_volume(loaded, img[None], img[None])
        assert np.array_equal(vol.filtered.data, vol2.filtered.data)

    def test_load_reads_every_parameter_and_draws_none(self, tmp_path, monkeypatch):
        model = make_model(seed=5)
        model.cons_filter.weights[-1].data = np.random.default_rng(17).standard_normal(model.cons_filter.weights[-1].shape)
        model.save(tmp_path / "m.gmck")

        def no_draws(rng):
            raise AssertionError("load drew fresh parameters")

        monkeypatch.setattr(cm, "he_uniform", no_draws)
        loaded = cm.CoarseModel.load(tmp_path / "m.gmck")
        assert [p.name for p in loaded.parameters()] == [p.name for p in model.parameters()]
        for p, q in zip(loaded.parameters(), model.parameters()):
            assert np.array_equal(p.data, q.data) and p.requires_grad

    def test_checkpoint_with_output_bias_loads_to_same_cells(self, tmp_path):
        # checkpoints written while the output bias was trainable carry it as
        # filter/<last>/bias; it shifts every score equally, so no argmax moves
        model = make_model(seed=4)
        rng = np.random.default_rng(16)
        head = model.cons_filter.weights[-1]
        head.data = rng.standard_normal(head.shape)
        arrays = model.state_dict()
        bias_name = f"filter/{len(model.cons_filter.hidden)}/bias"
        assert bias_name not in arrays
        arrays[bias_name] = np.array([0.25])
        numerics.save_checkpoint(tmp_path / "old.gmck", arrays)
        loaded = cm.CoarseModel.load(tmp_path / "old.gmck")
        with_bias = cm.CoarseModel.load(tmp_path / "old.gmck")
        with_bias.cons_filter.output_bias = Tensor(np.array([0.25]))
        img_a, img_b = rng.random((64, 64)), rng.random((64, 64))
        fields = cm.compute_match_fields(loaded, img_a, img_b, 64)
        biased = cm.compute_match_fields(with_bias, img_a, img_b, 64)
        for field, ref in zip(fields, biased):
            assert np.array_equal(field.target_cells, ref.target_cells)
            assert np.abs(ref.scores - field.scores - 0.25).max() < 1e-12

    def test_field_export(self, tmp_path):
        model = make_model()
        rng = np.random.default_rng(15)
        field, _ = cm.compute_match_fields(model, rng.random((64, 64)), rng.random((64, 64)), 64)
        cm.write_match_field(tmp_path / "field.txt", field)
        lines = (tmp_path / "field.txt").read_text().splitlines()
        hs, ws = field.target_cells.shape[:2]
        assert len(lines) == hs * ws
        parts = lines[0].split()
        assert len(parts) == 5
