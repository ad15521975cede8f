import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import guidematch
from guidematch.numerics import tensor
from guidematch.numerics import (
    AdamState,
    Conv4dScratch,
    Tensor,
    adam_step,
    cast,
    conv2d,
    conv4d,
    l2_normalize_channels,
    leaky_relu,
    load_checkpoint,
    matmul,
    max_over,
    parameter,
    save_checkpoint,
    softmax_over,
)

import oracles
from gradcheck import max_gradient_error

N_GRAD_SEEDS = 20
GRAD_TOL = 1e-4


class TestConv2d:
    def test_centre_tap_scales_every_other_pixel(self):
        x = Tensor(np.arange(35, dtype=float).reshape(1, 1, 5, 7))
        k = np.zeros((1, 1, 3, 3))
        k[0, 0, 1, 1] = 2.0
        out = conv2d(x, Tensor(k), Tensor(np.zeros(1)))
        assert np.allclose(out.data, 2.0 * x.data[:, :, ::2, ::2])

    def test_zero_kernel_gives_bias(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.standard_normal((3, 2, 5, 5)))
        k = Tensor(np.zeros((2, 3, 3, 3)))
        b = Tensor(np.array([0.7, -1.2]))
        out = conv2d(x, k, b)
        assert out.shape == (2, 2, 3, 3)
        assert np.allclose(out.data[0], 0.7)
        assert np.allclose(out.data[1], -1.2)

    @pytest.mark.parametrize("h, w", [(8, 8), (7, 9), (1, 2), (1, 1), (2, 5)])
    def test_matches_loop_oracle(self, h, w):
        rng = np.random.default_rng(h * 10 + w)
        x = rng.standard_normal((2, 3, h, w))
        k = rng.standard_normal((4, 2, 3, 3))
        b = rng.standard_normal(4)
        out = conv2d(Tensor(x), Tensor(k), Tensor(b))
        ref = np.stack([oracles.conv2d_loops(x[:, n], k, b, stride=2, pad=1) for n in range(3)], axis=1)
        assert out.data.shape == ref.shape
        assert np.max(np.abs(out.data - ref)) < 1e-12

    @pytest.mark.parametrize("c_in", [1, 8, 32])
    @pytest.mark.parametrize("n", [1, 8])
    def test_kernel_gradient_equals_the_per_tap_oracle(self, c_in, n):
        rng = np.random.default_rng(100 * c_in + 10 * n + 5)
        # a map of several output cells, then one whose output is one cell
        for h, w in ((9, 10), (1, 1)):
            x = rng.standard_normal((c_in, n, h, w))
            k = parameter(rng.standard_normal((6, c_in, 3, 3)), "k")
            out = conv2d(Tensor(x), k, Tensor(np.zeros(6)))
            g = rng.standard_normal(out.shape)
            (out * g).sum().backward()
            ref = oracles.conv2d_kernel_grad_taps(x, g, 3, 3, stride=2, pad=1)
            assert np.array_equal(k.grad.view(np.uint64), ref.view(np.uint64)), out.shape

    def test_channel_mismatch_names_dimension(self):
        x = Tensor(np.zeros((3, 1, 4, 4)))
        k = Tensor(np.zeros((1, 2, 3, 3)))
        with pytest.raises(ValueError, match="channel"):
            conv2d(x, k, Tensor(np.zeros(1)))

    @pytest.mark.parametrize("shape", [(1, 1, 1, 1), (1, 1, 5, 5), (1, 1, 3), (1, 1, 3, 3, 1)])
    def test_kernel_other_than_3x3_is_rejected(self, shape):
        with pytest.raises(ValueError, match=r"kernel must be \(C_out,C_in,3,3\)"):
            conv2d(Tensor(np.zeros((1, 1, 4, 4))), Tensor(np.zeros(shape)), Tensor(np.zeros(1)))

    def test_linearity(self):
        rng = np.random.default_rng(3)
        k = Tensor(rng.standard_normal((3, 2, 3, 3)))
        b = Tensor(np.zeros(3))
        x = rng.standard_normal((2, 2, 6, 6))
        y = rng.standard_normal((2, 2, 6, 6))
        a, c = 1.7, -0.4
        lhs = conv2d(Tensor(a * x + c * y), k, b).data
        rhs = a * conv2d(Tensor(x), k, b).data + c * conv2d(Tensor(y), k, b).data
        assert np.max(np.abs(lhs - rhs)) < 1e-10

    def test_gradients(self):
        # an even side leaves the last padded column unread, as backbone inputs do
        for side, seed in itertools.product((5, 6), range(N_GRAD_SEEDS)):
            rng = np.random.default_rng(seed)
            x = parameter(rng.standard_normal((2, 2, side, side)), "x")
            k = parameter(rng.standard_normal((3, 2, 3, 3)), "k")
            b = parameter(rng.standard_normal(3), "b")
            w = rng.standard_normal((3, 2, 3, 3))

            def f():
                return (conv2d(x, k, b) * w).sum()

            assert max_gradient_error(f, [x, k, b]) < GRAD_TOL, (side, seed)


class TestConv4d:
    def test_delta_kernel_identity(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((1, 2, 3, 4, 2, 3))
        k = np.zeros((1, 1, 3, 3, 3, 3))
        k[0, 0, 1, 1, 1, 1] = 1.0
        out = conv4d(Tensor(x), Tensor(k), Tensor(np.zeros(1)))
        assert np.max(np.abs(out.data - x)) < 1e-15

    def test_zero_kernel_bias(self):
        x = Tensor(np.ones((1, 2, 2, 2, 2, 2)))
        out = conv4d(x, Tensor(np.zeros((1, 1, 3, 3, 3, 3))), Tensor(np.array([0.5])))
        assert np.allclose(out.data, 0.5)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((1, 2, 3, 3, 3, 3))
        k = rng.standard_normal((2, 1, 3, 3, 3, 3))
        b = rng.standard_normal(2)
        out = conv4d(Tensor(x), Tensor(k), Tensor(b))
        ref = np.stack([oracles.conv4d_loops(x[:, n], k, b) for n in range(2)], axis=1)
        assert np.max(np.abs(out.data - ref)) < 1e-12

    def test_matches_tap_reference_at_model_width(self):
        rng = np.random.default_rng(8)
        x = parameter(rng.standard_normal((16, 1, 3, 4, 3, 4)), "x")
        k = parameter(rng.standard_normal((16, 16, 3, 3, 3, 3)), "k")
        b = parameter(rng.standard_normal(16), "b")
        out = conv4d(x, k, b)
        assert np.max(np.abs(out.data[:, 0] - oracles.conv4d_taps(x.data[:, 0], k.data, b.data))) < 1e-12
        g = rng.standard_normal(out.shape)
        (out * Tensor(g)).sum().backward()
        gx, gk, _ = oracles.conv4d_taps_backward(x.data[:, 0], k.data, g[:, 0])
        assert np.max(np.abs(x.grad[:, 0] - gx)) < 1e-12
        assert np.max(np.abs(k.grad - gk)) < 1e-12

    def test_linearity(self):
        rng = np.random.default_rng(9)
        k = Tensor(rng.standard_normal((2, 1, 3, 3, 3, 3)))
        b = Tensor(np.zeros(2))
        x = rng.standard_normal((1, 2, 2, 3, 2, 3))
        y = rng.standard_normal((1, 2, 2, 3, 2, 3))
        lhs = conv4d(Tensor(0.3 * x - 2.0 * y), k, b).data
        rhs = 0.3 * conv4d(Tensor(x), k, b).data - 2.0 * conv4d(Tensor(y), k, b).data
        assert np.max(np.abs(lhs - rhs)) < 1e-10

    def test_gradients(self):
        for seed in range(N_GRAD_SEEDS):
            rng = np.random.default_rng(100 + seed)
            x = parameter(rng.standard_normal((1, 2, 3, 3, 2, 2)), "x")
            k = parameter(rng.standard_normal((2, 1, 3, 3, 3, 3)), "k")
            b = parameter(rng.standard_normal(2), "b")
            w = rng.standard_normal((2, 2, 3, 3, 2, 2))

            def f():
                return (conv4d(x, k, b) * w).sum()

            assert max_gradient_error(f, [x, k, b]) < GRAD_TOL

    @settings(max_examples=40, deadline=None)
    @given(
        spatial=st.tuples(*[st.integers(1, 4)] * 4),
        # 1 -> 4 and 4 -> 1 take tap splits 3 and 1 (``_tap_split``)
        c_in=st.integers(1, 4),
        c_out=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_oracles_any_shape(self, spatial, c_in, c_out, seed):
        rng = np.random.default_rng(seed)
        x = parameter(rng.standard_normal((c_in, 1, *spatial)), "x")
        k = parameter(rng.standard_normal((c_out, c_in, 3, 3, 3, 3)), "k")
        b = parameter(rng.standard_normal(c_out), "b")
        out = conv4d(x, k, b)
        assert np.max(np.abs(out.data[:, 0] - oracles.conv4d_loops(x.data[:, 0], k.data, b.data))) < 1e-12
        g = rng.standard_normal(out.shape)
        (out * Tensor(g)).sum().backward()
        gx, gk, gb = oracles.conv4d_taps_backward(x.data[:, 0], k.data, g[:, 0])
        assert np.max(np.abs(x.grad[:, 0] - gx)) < 1e-12
        assert np.max(np.abs(k.grad - gk)) < 1e-12
        assert np.max(np.abs(b.grad - gb)) < 1e-12

    @staticmethod
    def _check_two_samples_against_oracles(c_in, c_out, spatial):
        rng = np.random.default_rng([c_in, c_out, *spatial])
        x = parameter(rng.standard_normal((c_in, 2, *spatial)), "x")
        k = parameter(rng.standard_normal((c_out, c_in, 3, 3, 3, 3)), "k")
        b = parameter(rng.standard_normal(c_out), "b")
        out = conv4d(x, k, b)
        g = rng.standard_normal(out.shape)
        (out * Tensor(g)).sum().backward()
        gb_total = np.zeros(c_out)
        for n in range(2):
            ref = oracles.conv4d_loops(x.data[:, n], k.data, b.data)
            assert np.max(np.abs(out.data[:, n] - ref)) < 1e-12
            gx, gk, gb = oracles.conv4d_taps_backward(x.data[:, n], k.data, g[:, n])
            assert np.max(np.abs(x.grad[:, n] - gx)) < 1e-12
            gk_total = gk if n == 0 else gk_total + gk
            gb_total += gb
        assert np.max(np.abs(k.grad - gk_total)) < 1e-12
        assert np.max(np.abs(b.grad - gb_total)) < 1e-12

    # extents where an A-row skips a dead row block (Ha <= 2) or a shift
    # along Wa is empty (Wa = 1)
    SMALL_EXTENTS = [(1, 3, 2, 3), (3, 1, 2, 2), (1, 1, 3, 4), (2, 1, 1, 1)]

    @pytest.mark.parametrize("spatial", SMALL_EXTENTS)
    @pytest.mark.parametrize("c_in", [1, 3, 4])
    @pytest.mark.parametrize("c_out", [1, 3, 4])
    def test_matches_oracles_at_small_extents(self, spatial, c_in, c_out):
        self._check_two_samples_against_oracles(c_in, c_out, spatial)

    # the filter's first and last layers: tap splits 3 and 1
    @pytest.mark.parametrize("spatial", SMALL_EXTENTS + [(3, 4, 2, 3)])
    @pytest.mark.parametrize("c_in, c_out", [(1, 16), (16, 1)])
    def test_thin_filter_layers_match_oracles(self, spatial, c_in, c_out):
        self._check_two_samples_against_oracles(c_in, c_out, spatial)

    def test_channel_mismatch(self):
        x = Tensor(np.zeros((2, 1, 2, 2, 2, 2)))
        k = Tensor(np.zeros((1, 3, 3, 3, 3, 3)))
        with pytest.raises(ValueError, match="channel"):
            conv4d(x, k, Tensor(np.zeros(1)))


class TestTapSplit:
    """conv4d unrolls the split that moves the fewest column and product rows."""

    @staticmethod
    def rows(split, c_in, c_out):
        return 3**split * c_in + 3 ** (4 - split) * c_out

    def test_the_filter_layers(self):
        assert [tensor._tap_split(c_in, c_out) for c_in, c_out in [(1, 16), (16, 16), (16, 1)]] == [3, 2, 1]

    def test_ties_go_to_two(self):
        for c in range(1, 33):
            for c_in, c_out in [(c, 3 * c), (3 * c, c)]:
                assert self.rows(2, c_in, c_out) in {self.rows(s, c_in, c_out) for s in (1, 3)}
                assert tensor._tap_split(c_in, c_out) == 2

    def test_is_the_argmin_of_the_rows(self):
        for c_in, c_out in itertools.product(range(1, 33), repeat=2):
            rows = {s: self.rows(s, c_in, c_out) for s in (1, 2, 3)}
            split = tensor._tap_split(c_in, c_out)
            assert rows[split] == min(rows.values()), (c_in, c_out)
            assert split == 2 or rows[2] > rows[split], (c_in, c_out)


def _bits(a: np.ndarray) -> np.ndarray:
    """The float64 bit patterns, so -0.0 and 0.0 (and nan payloads) differ."""
    return np.ascontiguousarray(a).view(np.uint64)


class TestConv4dScratch:
    """A shared scratch changes no bit of any conv4d output or gradient."""

    # (C_in, C_out, N, spatial): the filter's three layers on one 12x16x12x16
    # volume, then a batch of 8 small volumes and a batch of 2 volumes of
    # 256x192 images resized to a max side of 128; the buffers grow, then
    # shrink
    SEQUENCE = [
        (1, 16, 1, (12, 16, 12, 16)),
        (16, 16, 1, (12, 16, 12, 16)),
        (16, 1, 1, (12, 16, 12, 16)),
        (16, 16, 8, (4, 4, 4, 4)),
        (16, 16, 2, (6, 8, 6, 8)),
    ]

    def _cases(self, seed, dtype=np.float64):
        rng = np.random.default_rng(seed)
        for c_in, c_out, n, spatial in self.SEQUENCE:
            yield (
                rng.standard_normal((c_in, n, *spatial)).astype(dtype),
                rng.standard_normal((c_out, c_in, 3, 3, 3, 3)).astype(dtype),
                rng.standard_normal(c_out).astype(dtype),
            )

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("prefill", [None, np.nan])
    def test_forward_is_bit_identical(self, prefill, dtype):
        scratch = Conv4dScratch()
        if prefill is not None:
            # dirty buffers larger than any call of the sequence needs
            scratch.take("cols", (2_000_000,), np.dtype(dtype)).fill(prefill)
            scratch.take("prod", (2_000_000,), np.dtype(dtype)).fill(prefill)
        for x, k, b in self._cases(31, dtype):
            shared = conv4d(Tensor(x), Tensor(k), Tensor(b), scratch=scratch)
            alone = conv4d(Tensor(x), Tensor(k), Tensor(b))
            assert shared.data.dtype == dtype
            assert np.array_equal(shared.data.view(np.uint8), alone.data.view(np.uint8)), x.shape

    def test_backward_is_bit_identical(self):
        scratch = Conv4dScratch()
        rng = np.random.default_rng(32)
        for x, k, b in self._cases(33):
            g = rng.standard_normal((k.shape[0], *x.shape[1:]))
            grads = []
            for sc in (scratch, None):
                params = [parameter(x, "x"), parameter(k, "k"), parameter(b, "b")]
                (conv4d(*params, scratch=sc) * Tensor(g)).sum().backward()
                grads.append([p.grad for p in params])
            for shared, alone in zip(*grads):
                assert np.array_equal(_bits(shared), _bits(alone)), x.shape

    def test_take_grows_and_reuses_a_prefix(self):
        scratch = Conv4dScratch()
        f64, f32 = np.dtype(np.float64), np.dtype(np.float32)
        big = scratch.take("cols", (4, 5), f64)
        small = scratch.take("cols", (3, 2), f64)
        assert small.shape == (3, 2) and small.flags.c_contiguous
        assert np.shares_memory(big, small)
        grown = scratch.take("cols", (7, 5), f64)
        assert grown.shape == (7, 5) and not np.shares_memory(big, grown)
        assert not np.shares_memory(grown, scratch.take("prod", (7, 5), f64))
        # a buffer of another dtype is replaced, whatever its size
        other = scratch.take("cols", (3, 2), f32)
        assert other.dtype == f32 and not np.shares_memory(grown, other)


class TestLeakyRelu:
    @staticmethod
    def _special_data(rng):
        x = rng.standard_normal(4000) * 10.0 ** rng.integers(-320, 300, 4000)
        tiny = np.finfo(np.float64).smallest_subnormal
        specials = [0.0, -0.0, np.inf, -np.inf, tiny, -tiny, 1e-310, -1e-310, 1e-308, -1e-308]
        return np.concatenate([x, specials]).reshape(2, 2005)

    @pytest.mark.parametrize("requires_grad", [False, True])
    def test_forward_matches_branch_form_bit_for_bit(self, requires_grad):
        x = self._special_data(np.random.default_rng(41))
        assert np.isinf(x).sum() == 2 and (x == 0).sum() >= 2
        out = leaky_relu(Tensor(x, requires_grad=requires_grad))
        assert np.array_equal(_bits(out.data), _bits(np.where(x >= 0, x, 0.1 * x)))
        assert out.requires_grad == requires_grad

    def test_gradients(self):
        for seed in range(N_GRAD_SEEDS):
            rng = np.random.default_rng(600 + seed)
            x = parameter(rng.standard_normal((4, 6)), "x")
            w = rng.standard_normal((4, 6))
            assert max_gradient_error(lambda: (leaky_relu(x) * w).sum(), [x]) < GRAD_TOL


def assert_batch_invariant(op, x_data, weights, rng):
    """``op(x, *weights)`` on a batch stacked along axis 1 of ``x_data`` (and
    of the output) against each sample alone: the outputs and the input
    gradients are byte-identical, and the weight gradients are within 1e-12,
    relative to the largest entry, of the sum of the per-sample ones."""
    x = parameter(x_data, "x")
    ws = [parameter(w, f"w{i}") for i, w in enumerate(weights)]
    out = op(x, *ws)
    g = rng.standard_normal(out.shape)
    (out * Tensor(g)).sum().backward()
    summed = [np.zeros_like(w) for w in weights]
    for n in range(x_data.shape[1]):
        xn = parameter(x_data[:, n : n + 1], "xn")
        wn = [parameter(w, f"w{i}") for i, w in enumerate(weights)]
        out_n = op(xn, *wn)
        assert np.array_equal(out_n.data, out.data[:, n : n + 1])
        (out_n * Tensor(g[:, n : n + 1])).sum().backward()
        assert np.array_equal(xn.grad, x.grad[:, n : n + 1])
        for acc, w in zip(summed, wn):
            acc += w.grad
    for w, acc in zip(ws, summed):
        assert np.abs(w.grad - acc).max() <= 1e-12 * np.abs(acc).max(), w.name


_BATCH = st.integers(1, 4)
_SEED = st.integers(0, 2**32 - 1)


class TestBatchInvariance:
    """A sample's output and input gradient do not depend on the batch it runs in."""

    @settings(max_examples=40, deadline=None)
    @given(
        n=_BATCH,
        size=st.tuples(st.integers(1, 9), st.integers(1, 9)),
        c_in=st.integers(1, 4),
        c_out=st.integers(1, 4),
        seed=_SEED,
    )
    def test_conv2d(self, n, size, c_in, c_out, seed):
        rng = np.random.default_rng(seed)
        weights = [rng.standard_normal((c_out, c_in, 3, 3)), rng.standard_normal(c_out)]
        assert_batch_invariant(conv2d, rng.standard_normal((c_in, n, *size)), weights, rng)

    @settings(max_examples=40, deadline=None)
    @given(
        n=_BATCH,
        spatial=st.tuples(*[st.integers(1, 4)] * 4),
        # every tap split: 1 -> 4 and the filter's 1 -> 16 take 3, 4 -> 1 and 16 -> 1 take 1
        channels=st.one_of(st.tuples(st.integers(1, 4), st.integers(1, 4)), st.sampled_from([(1, 16), (16, 1)])),
        seed=_SEED,
    )
    def test_conv4d(self, n, spatial, channels, seed):
        c_in, c_out = channels
        rng = np.random.default_rng(seed)
        weights = [rng.standard_normal((c_out, c_in, 3, 3, 3, 3)), rng.standard_normal(c_out)]
        assert_batch_invariant(conv4d, rng.standard_normal((c_in, n, *spatial)), weights, rng)

    @settings(max_examples=40, deadline=None)
    @given(n=_BATCH, c=st.integers(1, 12), size=st.tuples(st.integers(1, 3), st.integers(1, 3)), seed=_SEED)
    def test_l2_normalize_channels(self, n, c, size, seed):
        rng = np.random.default_rng(seed)
        assert_batch_invariant(l2_normalize_channels, rng.standard_normal((c, n, *size)), [], rng)


class TestSoftmax:
    def test_single_cell(self):
        out = softmax_over(Tensor(np.array([[3.7]])), (0, 1))
        assert np.allclose(out.data, 1.0)

    def test_two_equal_cells(self):
        out = softmax_over(Tensor(np.array([2.0, 2.0])), (0,))
        assert np.allclose(out.data, [0.5, 0.5])

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((2, 2, 3, 3)) * 4
        out = softmax_over(Tensor(x), (2, 3))
        assert np.max(np.abs(out.data - oracles.softmax_direct(x, (2, 3)))) < 1e-12

    def test_sums_to_one(self):
        rng = np.random.default_rng(12)
        x = rng.standard_normal((3, 4, 5)) * 10
        out = softmax_over(Tensor(x), (1, 2))
        assert np.max(np.abs(out.data.sum(axis=(1, 2)) - 1.0)) < 1e-12

    def test_preserves_argmax(self):
        rng = np.random.default_rng(13)
        x = rng.standard_normal((4, 6))
        out = softmax_over(Tensor(x), (1,))
        assert np.array_equal(x.argmax(axis=1), out.data.argmax(axis=1))

    def test_gradients(self):
        for seed in range(N_GRAD_SEEDS):
            rng = np.random.default_rng(200 + seed)
            x = parameter(rng.standard_normal((2, 3, 4)), "x")
            w = rng.standard_normal((2, 3, 4))

            def f():
                return (softmax_over(x, (1, 2)) * w).sum()

            assert max_gradient_error(f, [x]) < GRAD_TOL


def _max_over_grad(x, axes):
    """The maximum over ``axes`` and where a unit gradient of its sum goes."""
    p = parameter(np.asarray(x, dtype=np.float64), "x")
    vals = max_over(p, axes)
    vals.sum().backward()
    return vals, p.grad


class TestMaxOver:
    def test_simple(self):
        vals, grad = _max_over_grad([[1.0, 3.0], [2.0, 0.0]], (0, 1))
        assert float(vals.data) == 3.0
        assert np.array_equal(grad, [[0.0, 1.0], [0.0, 0.0]])

    def test_tie_breaks_to_lowest_index(self):
        vals, grad = _max_over_grad(np.ones((2, 3, 2)), (0, 1, 2))
        assert float(vals.data) == 1.0
        expected = np.zeros((2, 3, 2))
        expected[0, 0, 0] = 1.0
        assert np.array_equal(grad, expected)
        # reduced axes around a kept one: each kept index picks (0, ., 0)
        _, grad = _max_over_grad(np.ones((2, 3, 2)), (2, 0))
        expected = np.zeros((2, 3, 2))
        expected[0, :, 0] = 1.0
        assert np.array_equal(grad, expected)

    def test_matches_scan_oracle(self):
        rng = np.random.default_rng(17)
        x = rng.standard_normal((4, 5))
        vals, grad = _max_over_grad(x, (1,))
        ref_vals, ref_args = oracles.max_scan_axis1(x)
        assert np.allclose(vals.data, ref_vals)
        assert np.array_equal(grad, np.eye(5)[ref_args])

    def test_tie_detectable_only_via_lowest_index_rule(self):
        _, grad = _max_over_grad([[5.0, 1.0, 5.0]], (1,))
        assert np.array_equal(grad, [[1.0, 0.0, 0.0]])

    def test_gradient_routes_to_argmax(self):
        x = parameter(np.array([[1.0, 4.0, 2.0]]), "x")
        max_over(x, (1,)).sum().backward()
        assert np.array_equal(x.grad, [[0.0, 1.0, 0.0]])

    def test_gradients(self):
        for seed in range(N_GRAD_SEEDS):
            rng = np.random.default_rng(300 + seed)
            x = parameter(rng.standard_normal((3, 4, 5)), "x")
            # keep a safe gap so central differences do not cross a switch
            w = rng.standard_normal((3,))

            def f():
                vals = max_over(x, (1, 2))
                return (vals * w).sum()

            assert max_gradient_error(f, [x]) < GRAD_TOL


class TestL2Normalize:
    def test_three_four_five(self):
        x = Tensor(np.array([3.0, 4.0]).reshape(2, 1, 1))
        out = l2_normalize_channels(x)
        assert np.allclose(out.data.ravel(), [0.6, 0.8])

    def test_zero_vector_guard(self):
        out = l2_normalize_channels(Tensor(np.zeros((3, 2, 2))))
        assert np.all(out.data == 0.0)

    def test_unit_norms(self):
        rng = np.random.default_rng(19)
        x = rng.standard_normal((8, 4, 4))
        out = l2_normalize_channels(Tensor(x))
        norms = np.sqrt((out.data**2).sum(axis=0))
        assert np.max(np.abs(norms - 1.0)) < 1e-9

    def test_gradients(self):
        for seed in range(N_GRAD_SEEDS):
            rng = np.random.default_rng(400 + seed)
            x = parameter(rng.standard_normal((4, 3, 3)), "x")
            w = rng.standard_normal((4, 3, 3))

            def f():
                return (l2_normalize_channels(x) * w).sum()

            assert max_gradient_error(f, [x]) < GRAD_TOL


class TestFloat32:
    """Float32 data stays float32 through every op, forward and backward."""

    @staticmethod
    def _ops(rng, dtype, requires_grad=False):
        def data(*shape):
            return Tensor(rng.standard_normal(shape).astype(dtype), requires_grad=requires_grad)

        x4, x6 = data(2, 2, 5, 4), data(2, 2, 3, 2, 3, 2)
        return {
            "add": lambda: x4 + data(2, 2, 5, 4),
            "mul": lambda: x4 * data(2, 2, 5, 4),
            "add scalar": lambda: x4 + 1.5,
            "mul scalar": lambda: x4 * 0.5,
            "reshape": lambda: x4.reshape((4, 20)),
            "transpose": lambda: x4.transpose((1, 0, 3, 2)),
            "sum": lambda: x4.sum(),
            "conv2d": lambda: conv2d(x4, data(3, 2, 3, 3), data(3)),
            "conv4d": lambda: conv4d(x6, data(3, 2, 3, 3, 3, 3), data(3), scratch=Conv4dScratch()),
            "leaky_relu": lambda: leaky_relu(x4),
            "softmax_over": lambda: softmax_over(x4, (2, 3)),
            "max_over": lambda: max_over(x4, (2, 3)),
            "l2_normalize_channels": lambda: l2_normalize_channels(x4),
            "matmul": lambda: matmul(data(2, 3, 4), data(2, 4, 5)),
        }

    def test_every_op_keeps_the_dtype_of_its_operands(self):
        ops32 = self._ops(np.random.default_rng(70), np.float32)
        ops64 = self._ops(np.random.default_rng(70), np.float64)
        for name in ops32:
            out32, out64 = ops32[name](), ops64[name]()
            assert out32.data.dtype == np.float32, name
            assert out64.data.dtype == np.float64, name
            assert out32._parents == () and not out32.requires_grad, name
            # the same operands rounded to float32 give the float64 result to float32 accuracy
            scale = max(1.0, float(np.abs(out64.data).max()))
            assert np.abs(out32.data - out64.data).max() <= 1e-5 * scale, name

    @staticmethod
    def _leaf_grads(out: Tensor, dtype) -> list[np.ndarray]:
        """Backward of a fixed random weighting of ``out``; the gradients of
        its leaves, in the graph's traversal order."""
        w = np.random.default_rng(71).standard_normal(out.shape).astype(dtype)
        loss = (out * w).sum()
        loss.backward()
        return [t.grad for t in tensor._topological_order(loss) if t.requires_grad and not t._parents]

    def test_every_op_gives_float32_operands_float32_gradients(self):
        # the float32 gradients match the float64 ones to float32 accuracy,
        # as the forward results do
        ops32 = self._ops(np.random.default_rng(70), np.float32, requires_grad=True)
        ops64 = self._ops(np.random.default_rng(70), np.float64, requires_grad=True)
        for name in ops32:
            grads32 = self._leaf_grads(ops32[name](), np.float32)
            grads64 = self._leaf_grads(ops64[name](), np.float64)
            assert len(grads32) == len(grads64) > 0, name
            for g32, g64 in zip(grads32, grads64):
                assert g32.dtype == np.float32 and g64.dtype == np.float64, name
                scale = max(1.0, float(np.abs(g64).max()))
                assert np.abs(g32 - g64).max() <= 1e-5 * scale, name

    def test_backward_seeds_a_float32_scalar_in_float32(self):
        x = parameter(np.array(3.0, dtype=np.float32), "x")
        (x * x).backward()
        assert x.grad.dtype == np.float32 and float(x.grad) == 6.0

    def test_a_float32_tensor_may_require_grad(self):
        # the parameters stay float64; a float32 leaf whose gradients stay
        # float32 is what a cast parameter looks like to the ops after it
        for make in (lambda d: Tensor(d, requires_grad=True), lambda d: parameter(d, "w")):
            t = make(np.zeros(3, np.float32))
            assert t.requires_grad and t.data.dtype == np.float32

    @pytest.mark.parametrize("data", [0.5, [1, 2], np.arange(3), np.float16(0.5)])
    def test_other_data_becomes_float64(self, data):
        assert Tensor(data).data.dtype == np.float64

    @pytest.mark.parametrize(
        "op",
        [
            lambda a, b: a + b,
            lambda a, b: a * b,
            lambda a, b: matmul(a.reshape((1, 2, 2)), b.reshape((1, 2, 2))),
        ],
    )
    def test_operands_of_two_dtypes_are_rejected(self, op):
        a, b = Tensor(np.ones(4)), Tensor(np.ones(4, np.float32))
        with pytest.raises(ValueError, match="dtype mismatch"):
            op(a, b)

    def test_conv_operands_of_two_dtypes_are_rejected(self):
        x = Tensor(np.ones((1, 1, 4, 4), np.float32))
        with pytest.raises(ValueError, match="dtype mismatch in conv2d"):
            conv2d(x, Tensor(np.ones((1, 1, 3, 3))), Tensor(np.ones(1, np.float32)))
        x6 = Tensor(np.ones((1, 1, 2, 2, 2, 2), np.float32))
        with pytest.raises(ValueError, match="dtype mismatch in conv4d"):
            conv4d(x6, Tensor(np.ones((1, 1, 3, 3, 3, 3))), Tensor(np.ones(1)))


class TestCast:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_same_dtype_is_the_tensor_itself(self, dtype):
        x = parameter(np.ones(3, dtype), "x")
        assert cast(x, dtype) is x

    def test_other_dtypes_are_rejected(self):
        with pytest.raises(ValueError, match="float32 and float64"):
            cast(Tensor(np.ones(2)), np.float16)

    @pytest.mark.parametrize("source, target", [(np.float64, np.float32), (np.float32, np.float64)])
    def test_value_and_gradient_round_trip(self, source, target):
        # the Jacobian is the identity: the gradient is the weighting, cast
        # to the source dtype (the weights lie far above the floor)
        rng = np.random.default_rng(72)
        x = parameter(rng.standard_normal((3, 4)).astype(source), "x")
        w = rng.standard_normal((3, 4)).astype(target)
        y = cast(x, target)
        assert y.data.dtype == target and np.array_equal(y.data, x.data.astype(target))
        (y * w).sum().backward()
        assert x.grad.dtype == source and np.array_equal(x.grad, w.astype(source))

    def test_gradients_through_a_float32_layer(self):
        # f(x) = sum(w * cast(leaky_relu(cast(x, f32) * cast(x, f32)), f64)):
        # a step h perturbs one float32 term, whose rounding of about 6e-8 of
        # its size divided by 2h bounds the difference quotient's error, so
        # h = 1e-2 gives about 1e-5 relative, and 1e-4 leaves a margin; the
        # function is quadratic, so the step adds no truncation error
        for seed in range(N_GRAD_SEEDS):
            rng = np.random.default_rng(800 + seed)
            x = parameter(rng.uniform(0.5, 2.0, (3, 4)) * rng.choice([-1, 1], (3, 4)), "x")
            w = rng.standard_normal((3, 4))

            def f():
                x32 = cast(x, np.float32)
                return (cast(leaky_relu(x32 * x32), np.float64) * w).sum()

            assert max_gradient_error(f, [x], step=1e-2) < GRAD_TOL

    def test_narrowing_backward_zeroes_entries_below_the_floor(self):
        floor = tensor.GRAD_FLOOR
        assert floor == 2.0**-64
        g = np.array([floor, -floor, floor * (1 - 2**-52), -floor / 2, 1e-30, 0.0, 1e-300, 3.0, np.nan, -np.inf])
        x = parameter(np.ones(g.shape, np.float32), "x")
        (cast(x, np.float64) * g).sum().backward()
        expected = np.where(np.abs(g) < floor, 0.0, g).astype(np.float32)
        assert x.grad.dtype == np.float32
        assert np.array_equal(x.grad, expected, equal_nan=True)
        assert expected[:2].tolist() == [floor, -floor] and not expected[2:7].any()
        # no entry below float32's smallest normal reaches the float32 graph
        tiny = np.finfo(np.float32).tiny
        assert not ((np.abs(x.grad) < tiny) & (x.grad != 0)).any()

    def test_widening_backward_keeps_every_entry(self):
        # a gradient leaving float32 for float64 loses nothing to the floor
        g = np.array([2.0**-100, np.finfo(np.float32).smallest_subnormal, -1.5], dtype=np.float32)
        x = parameter(np.ones(3), "x")
        (cast(x, np.float32) * g).sum().backward()
        assert x.grad.dtype == np.float64 and np.array_equal(x.grad, g.astype(np.float64))


class TestBackward:
    def test_square(self):
        x = parameter(np.array(3.0), "x")
        (x * x).backward()
        assert float(x.grad) == 6.0

    def test_constant_has_zero_gradient(self):
        x = parameter(np.array(2.0), "x")
        y = x * 0.0 + 5.0
        y.backward()
        assert float(x.grad) == 0.0

    def test_requires_scalar(self):
        x = parameter(np.zeros(3), "x")
        with pytest.raises(ValueError, match="scalar"):
            (x * 2.0).backward()

    def test_pure_repeated_calls(self):
        rng = np.random.default_rng(23)
        x = parameter(rng.standard_normal((3, 3)), "x")
        y = (leaky_relu(x * 2.0) * x).sum()
        y.backward()
        g1 = x.grad.copy()
        y.backward()
        assert np.array_equal(g1, x.grad)

    def test_shared_subexpression(self):
        x = parameter(np.array(2.0), "x")
        y = x * x
        z = y + y
        z.backward()
        assert float(x.grad) == 8.0

    def test_matmul_and_ops_gradients(self):
        for seed in range(N_GRAD_SEEDS):
            rng = np.random.default_rng(500 + seed)
            a = parameter(rng.standard_normal((2, 3, 4)), "a")
            b = parameter(rng.standard_normal((2, 4, 2)), "b")
            w = rng.standard_normal((2, 3, 2))

            def f():
                m = matmul(a, b)
                return (leaky_relu(m) * w).sum() + (m * m).sum() * 0.1

            assert max_gradient_error(f, [a, b]) < GRAD_TOL
            x = parameter(rng.standard_normal((5, 5)), "x")
            wx = rng.standard_normal((5, 5))
            assert max_gradient_error(lambda: (leaky_relu(x) * wx).sum(), [x]) < GRAD_TOL


def _nan_gradient(x: Tensor) -> Tensor:
    """Identity whose backward reports a nan gradient."""
    return tensor._make(x.data.copy(), (x,), lambda g: x._acc(np.full(x.shape, np.nan)))


class TestGradientCheck:
    def test_nan_gradient_fails_the_check(self):
        good = parameter(np.array([0.5, -1.0]), "good")
        bad = parameter(np.array([2.0, 3.0]), "bad")

        def f():
            return (good * good).sum() + _nan_gradient(bad).sum()

        assert max_gradient_error(lambda: (good * good).sum(), [good]) < GRAD_TOL
        assert max_gradient_error(f, [good, bad]) == math.inf
        assert max_gradient_error(f, [good, bad], coords={0: np.array([0]), 1: np.array([1])}) == math.inf


class TestAdam:
    def test_first_step_magnitude(self):
        p = parameter(np.array(1.0), "p")
        st = AdamState(lr=1e-3)
        adam_step(st, [p], [np.array(0.5)])
        assert abs(float(p.data) - (1.0 - 1e-3 * 0.5 / (0.5 + 1e-8))) < 1e-15

    def test_zero_lr_bit_identical(self):
        rng = np.random.default_rng(29)
        vals = rng.standard_normal((4, 4))
        p = parameter(vals.copy(), "p")
        st = AdamState(lr=0.0)
        for _ in range(3):
            adam_step(st, [p], [rng.standard_normal((4, 4))])
        assert p.data.tobytes() == vals.tobytes()

    def test_matches_reference_iteration(self):
        st = AdamState(lr=0.1)
        p = parameter(np.array(1.0), "x")
        grads = []
        for _ in range(3):
            g = 2.0 * float(p.data)
            grads.append(g)
            adam_step(st, [p], [np.array(g)])
        # replay the published update equations independently
        ref = oracles.adam_reference(1.0, grads, lr=0.1)
        assert abs(float(p.data) - ref) < 1e-12

    def test_nan_gradient_names_parameter(self):
        p = parameter(np.array(1.0), "weights/conv1")
        with pytest.raises(ValueError, match="weights/conv1"):
            adam_step(AdamState(), [p], [np.array(np.nan)])


@st.composite
def _checkpoint_arrays(draw):
    """Up to four arrays of rank 0-3 (empty extents included) under any names."""
    names = draw(st.lists(st.text(max_size=12), max_size=4, unique=True))
    out = {}
    for name in names:
        shape = tuple(draw(st.lists(st.integers(0, 3), max_size=3)))
        values = draw(st.lists(st.floats(allow_nan=False), min_size=int(np.prod(shape)), max_size=int(np.prod(shape))))
        out[name] = np.array(values, dtype=np.float64).reshape(shape)
    return out


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(31)
        arrays = {
            "backbone/0/weight": rng.standard_normal((3, 1, 3, 3)),
            "filter/bias": rng.standard_normal(16),
            "meta/stride": np.array(16.0),
        }
        path = tmp_path / "model.gmck"
        save_checkpoint(path, arrays)
        loaded = load_checkpoint(path)
        assert list(loaded) == list(arrays)
        for k in arrays:
            assert loaded[k].shape == np.asarray(arrays[k]).shape
            assert np.array_equal(loaded[k], arrays[k])

    def test_header(self, tmp_path):
        path = tmp_path / "m.gmck"
        save_checkpoint(path, {"a": np.zeros(2)})
        raw = path.read_bytes()
        assert raw[:4] == b"GMCK"

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.gmck"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(ValueError, match="magic"):
            load_checkpoint(path)

    def test_name_that_is_not_utf8_names_the_file(self, tmp_path):
        path = tmp_path / "name.gmck"
        save_checkpoint(path, {"ab": np.zeros(2)})
        raw = bytearray(path.read_bytes())
        raw[16] = 0xFF  # first byte of the name
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="not UTF-8") as info:
            load_checkpoint(path)
        assert str(path) in str(info.value)

    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(_checkpoint_arrays())
    def test_roundtrip_any_names_and_shapes(self, tmp_path, arrays):
        path = tmp_path / "any.gmck"
        save_checkpoint(path, arrays)
        loaded = load_checkpoint(path)
        assert list(loaded) == list(arrays)
        for name, a in arrays.items():
            assert loaded[name].shape == a.shape
            assert np.array_equal(loaded[name], a)

    @settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(_checkpoint_arrays())
    def test_every_strict_prefix_and_trailing_data_raise(self, tmp_path, arrays):
        path = tmp_path / "cut.gmck"
        save_checkpoint(path, arrays)
        raw = path.read_bytes()
        for cut in [*(raw[:k] for k in range(len(raw))), raw + b"\0"]:
            path.write_bytes(cut)
            with pytest.raises(ValueError) as info:
                load_checkpoint(path)
            assert str(path) in str(info.value)


_LOSS_CASE_DIGEST = """
import hashlib
from test_supervision import OBJECTIVES, _loss_case
h = hashlib.sha256()
for objective in OBJECTIVES:
    f, params = _loss_case(objective, 0)
    for p in params:
        h.update(p.data.tobytes())
    h.update(repr(float(f().data)).encode())
print(h.hexdigest())
"""


class TestGradSuite:
    def test_loss_cases_ignore_string_hash_seed(self):
        path = os.pathsep.join([str(Path(guidematch.__file__).parents[1]), str(Path(__file__).parent)])
        digests = []
        for hash_seed in ("1", "2"):
            env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": path}
            out = subprocess.run(
                [sys.executable, "-c", _LOSS_CASE_DIGEST], env=env, capture_output=True, text=True, check=True
            )
            digests.append(out.stdout)
        assert digests[0] == digests[1]
