"""Float64 tensors that record the operations applied to them.

Every operation builds the value eagerly with numpy and attaches a closure
that propagates gradients to its inputs; ``Tensor.backward`` on a scalar
replays those closures in reverse topological order. Gradients only flow
into tensors created with ``requires_grad=True`` (parameters) or derived
from one, so frozen parameters cost nothing during the backward pass.

No op checks its output for nan or inf; the two consumers of a forward
pass do: ``supervision.train`` its loss, ``coarse_matcher.compute_match_fields``
its filtered scores.
"""

from __future__ import annotations

import math

import numpy as np


def _as_array(data) -> np.ndarray:
    # np.ascontiguousarray would promote 0-d scalars to 1-d; this keeps them.
    return np.array(data, dtype=np.float64, copy=None, order="C")


class Tensor:
    """A dense float64 array plus the bookkeeping for reverse-mode gradients."""

    __slots__ = ("data", "grad", "requires_grad", "name", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False, name: str | None = None):
        self.data = _as_array(data)
        self.requires_grad = bool(requires_grad)
        self.name = name
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def __repr__(self) -> str:
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad}{tag})"

    def _acc(self, g: np.ndarray) -> None:
        if self.grad is None:
            self.grad = g.copy() if isinstance(g, np.ndarray) else np.asarray(g, dtype=np.float64)
        else:
            self.grad = self.grad + g

    def backward(self) -> None:
        """Populate ``grad`` on every tensor this scalar depends on.

        Pure: gradients of the whole reachable graph are reset first, so
        calling it twice yields identical results.
        """
        if self.data.shape != ():
            raise ValueError(f"backward requires a scalar output, got shape {self.shape}")
        order = _topological_order(self)
        for node in order:
            node.grad = None
        self.grad = np.ones((), dtype=np.float64)
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # -- elementwise arithmetic ------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        a, b = self.data, other.data
        _check_binary_shapes("add", a, b)
        out_data = a + b

        def bwd(g):
            if self.requires_grad:
                self._acc(_reduce_to(g, a.shape))
            if other.requires_grad:
                other._acc(_reduce_to(g, b.shape))

        return _make(out_data, (self, other), bwd)

    def __mul__(self, other):
        other = _coerce(other)
        a, b = self.data, other.data
        _check_binary_shapes("mul", a, b)
        out_data = a * b

        def bwd(g):
            if self.requires_grad:
                self._acc(_reduce_to(g * b, a.shape))
            if other.requires_grad:
                other._acc(_reduce_to(g * a, b.shape))

        return _make(out_data, (self, other), bwd)

    # -- shape manipulation ----------------------------------------------

    def reshape(self, shape) -> "Tensor":
        shape = tuple(int(s) for s in shape)
        old = self.data.shape
        out_data = self.data.reshape(shape)

        def bwd(g):
            if self.requires_grad:
                self._acc(g.reshape(old))

        return _make(out_data, (self,), bwd)

    def transpose(self, axes) -> "Tensor":
        axes = tuple(int(a) for a in axes)
        inv = tuple(np.argsort(axes))
        out_data = self.data.transpose(axes)

        def bwd(g):
            if self.requires_grad:
                self._acc(g.transpose(inv))

        return _make(out_data, (self,), bwd)

    # -- reductions --------------------------------------------------------

    def sum(self) -> "Tensor":
        shape = self.data.shape

        def bwd(g):
            if self.requires_grad:
                self._acc(np.broadcast_to(g, shape).copy())

        return _make(self.data.sum(), (self,), bwd)


def parameter(data, name: str) -> Tensor:
    """A named leaf tensor that receives gradients."""
    return Tensor(data, requires_grad=True, name=name)


def _coerce(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(x)


def _check_binary_shapes(op: str, a: np.ndarray, b: np.ndarray) -> None:
    # Only same-shape or scalar operands; silent broadcasting hides bugs.
    if a.shape != b.shape and a.shape != () and b.shape != ():
        raise ValueError(f"shape mismatch in {op}: {a.shape} vs {b.shape}")


def _reduce_to(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    if g.shape == shape:
        return g
    assert shape == (), "internal: only scalar-vs-tensor broadcasting is supported"
    return np.asarray(g.sum())


def _normalize_axes(axes, ndim: int) -> tuple[int, ...]:
    axes = tuple(sorted(int(a) for a in axes))
    if len(axes) == 0:
        raise ValueError("axes must be non-empty")
    if len(set(axes)) != len(axes):
        raise ValueError(f"duplicate axes {axes}")
    for a in axes:
        if not 0 <= a < ndim:
            raise ValueError(f"axis {a} out of range for {ndim}-d tensor")
    return axes


def _make(data, parents, backward_fn) -> Tensor:
    requires = any(p.requires_grad for p in parents)
    out = Tensor(data, requires_grad=requires)
    if requires:
        out._parents = tuple(parents)
        out._backward = backward_fn
    return out


def _topological_order(root: Tensor) -> list[Tensor]:
    order: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in visited:
                stack.append((p, False))
    return order


def _tap_slice(offset: int, count: int, stride: int) -> slice:
    return slice(offset, offset + stride * (count - 1) + 1, stride)


# -- convolution -----------------------------------------------------------


def _per_sample_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(M, K) @ (N, K, P) as one product per sample: (N, M, P).

    Each sample gets the BLAS call it would get alone, so its rounding does
    not depend on N. With K = 1 the products are exact in any routine, and
    numpy's stacked product runs that case without BLAS, so a broadcast
    multiply takes its place.
    """
    if a.shape[1] == 1:
        return a * b
    return np.matmul(a, b)


def conv2d(x: Tensor, kernel: Tensor, bias: Tensor, stride: int = 1, zero_pad: int = 0) -> Tensor:
    """Cross-correlate a (C_in, N, H, W) stack of N maps with a (C_out, C_in, kh, kw) kernel.

    Zero padding, square stride; kernel spatial dims must be odd. Output is
    (C_out, N, H', W') with H' = floor((H + 2*pad - kh) / stride) + 1.
    Each tap multiplies the (C_out, C_in) tap matrix with every sample's
    (C_in, H'*W') slab in one call (``_per_sample_product``), so each sample
    gets the BLAS call it would get alone; one GEMM over all samples would
    not, since a sample whose output is one cell alone takes the
    matrix-vector routine, which rounds differently. So sample n's output
    and input gradient do not depend on N. The kernel gradient sums over
    the batch inside one GEMM per tap.
    """
    if x.ndim != 4:
        raise ValueError(f"conv2d input must be 4-d (C,N,H,W), got shape {x.shape}")
    if kernel.ndim != 4:
        raise ValueError(f"conv2d kernel must be 4-d, got shape {kernel.shape}")
    c_out, c_in, kh, kw = kernel.shape
    if kh % 2 == 0 or kw % 2 == 0:
        raise ValueError(f"conv2d kernel spatial dims must be odd, got {kh}x{kw}")
    if stride < 1:
        raise ValueError(f"conv2d stride must be >= 1, got {stride}")
    if x.shape[0] != c_in:
        raise ValueError(
            f"conv2d channel mismatch: input has {x.shape[0]} channels, kernel expects {c_in}"
        )
    if bias.shape != (c_out,):
        raise ValueError(f"conv2d bias must have shape ({c_out},), got {bias.shape}")
    _, n, h, w = x.shape
    p = int(zero_pad)
    ho = (h + 2 * p - kh) // stride + 1
    wo = (w + 2 * p - kw) // stride + 1
    if ho < 1 or wo < 1:
        raise ValueError(f"conv2d kernel {kh}x{kw} larger than padded input {h + 2 * p}x{w + 2 * p}")

    # sample-major views: (N, C, ...) slabs feed the stacked products
    xp = np.pad(x.data, ((0, 0), (0, 0), (p, p), (p, p))) if p else x.data
    xpn = xp.transpose(1, 0, 2, 3)
    kd = kernel.data
    taps = np.ascontiguousarray(kd.transpose(2, 3, 0, 1))  # (kh, kw, C_out, C_in)
    outn = np.empty((n, c_out, ho * wo))
    outn[:] = bias.data[:, None]
    for dy in range(kh):
        ys = _tap_slice(dy, ho, stride)
        for dx in range(kw):
            xs = _tap_slice(dx, wo, stride)
            # a copy even for a one-cell output, whose strided view would
            # hand BLAS a vector stride that depends on N
            slabs = np.ascontiguousarray(xpn[:, :, ys, xs]).reshape(n, c_in, ho * wo)
            outn += _per_sample_product(taps[dy, dx], slabs)
    out = np.ascontiguousarray(outn.reshape(n, c_out, ho, wo).transpose(1, 0, 2, 3))

    def bwd(g):
        if bias.requires_grad:
            bias._acc(g.sum(axis=(1, 2, 3)))
        need_k = kernel.requires_grad
        need_x = x.requires_grad
        if not (need_k or need_x):
            return
        gk = np.zeros_like(kd) if need_k else None
        if need_x:
            gn = np.ascontiguousarray(g.transpose(1, 0, 2, 3)).reshape(n, c_out, ho * wo)
            taps_t = np.ascontiguousarray(kd.transpose(2, 3, 1, 0))  # (kh, kw, C_in, C_out)
            gpn = np.zeros((n, c_in) + xp.shape[2:])
        for dy in range(kh):
            ys = _tap_slice(dy, ho, stride)
            for dx in range(kw):
                xs = _tap_slice(dx, wo, stride)
                if need_k:
                    gk[:, :, dy, dx] = np.tensordot(g, xp[:, :, ys, xs], axes=([1, 2, 3], [1, 2, 3]))
                if need_x:
                    gpn[:, :, ys, xs] += _per_sample_product(taps_t[dy, dx], gn).reshape(n, c_in, ho, wo)
        if need_k:
            kernel._acc(gk)
        if need_x:
            gp = gpn.transpose(1, 0, 2, 3)
            x._acc(gp[:, :, p : p + h, p : p + w] if p else gp)

    return _make(out, (x, kernel, bias), bwd)


class Conv4dScratch:
    """Work buffers that a sequence of ``conv4d`` forward calls shares.

    ``take(key, shape)`` returns a C-contiguous view of the first
    prod(shape) elements of the key's flat buffer, which grows when it is
    too small; a larger buffer is used through a prefix view. The view holds
    whatever the last call left there, so a user that reads before writing
    must clear it. Views taken earlier under the same key alias the new
    one: a scratch serves one call at a time.
    """

    __slots__ = ("_buffers",)

    def __init__(self):
        self._buffers: dict[str, np.ndarray] = {}

    def take(self, key: str, shape: tuple[int, ...]) -> np.ndarray:
        size = math.prod(shape)
        buf = self._buffers.get(key)
        if buf is None or buf.size < size:
            buf = self._buffers[key] = np.empty(size)
        return buf[:size].reshape(shape)


def _shifted(tap: int, n: int) -> tuple[slice, slice]:
    """(destination, source) slices of a zero-padded 3-tap shift along one axis.

    Destination index ``t`` reads source index ``t + tap - 1``; destinations
    whose source falls in the padding are left out.
    """
    return slice(max(0, 1 - tap), min(n, n + 1 - tap)), slice(max(0, tap - 1), min(n, n + tap - 1))


def _tap_shifts(extents: tuple[int, ...]) -> list[tuple[tuple[int, ...], tuple[slice, ...], tuple[slice, ...]]]:
    """``(taps, destination, source)`` for every tap combination along
    consecutive axes of the given extents: ``_shifted`` on each axis."""
    shifts = [((), (), ())]
    for e in extents:
        axis = [(t, *_shifted(t, e)) for t in range(3)]
        shifts = [(taps + (t,), dst + (d,), src + (s,)) for taps, dst, src in shifts for t, d, s in axis]
    return shifts


def _tap_split(c_in: int, c_out: int) -> int:
    """How many of the four taps (da, db, dc, dd), counted from the last,
    conv4d unrolls into its column buffer; the others index product row
    blocks.

    Split s gives 3^s*C_in column rows and 3^(4-s)*C_out product rows per
    cell, and the GEMM's FLOPs do not depend on s, so s minimizes the rows
    written and read; ties go to 2. conv4d runs one product per A-row, so
    da is always a row tap (s <= 3), and s = 0 would win for no layer of
    the filter.
    """
    return min((2, 1, 3), key=lambda s: 3**s * c_in + 3 ** (4 - s) * c_out)


def _a_row_columns(x: np.ndarray, scratch: Conv4dScratch, split: int):
    """Yield ``(i, cols)`` for every A-row ``i`` of a (C, N, Ha, Wa, Hb, Wb) array.

    ``cols`` has shape (3^split*C, N*Wa*Hb*Wb): it unrolls the last
    ``split`` taps of (da, db, dc, dd) and the channels. With split 2, row
    ``(dc*3 + dd)*C + c`` and column ``(n, w, k, l)`` hold
    ``xp[c, n, i + 1, w + 1, k + dc, l + dd]``, where ``xp`` is ``x``
    zero-padded by one on the four spatial axes; split 3 puts ``db`` before
    ``dc`` (the column reads ``w + db``) and split 1 keeps only ``dd``. No
    axis is padded, so a tap that is not unrolled reads the columns that
    exist. One buffer, filled by 3^split slab copies, covers the whole
    batch, so one matrix product per A-row serves all N samples. It is
    reused for every row, so a caller must consume it before the next one.

    The buffer is the ``scratch``'s ``cols``. It is zeroed once per call,
    before the first row: every row writes the same slices, so the borders
    the copies leave out stay zero, but the scratch holds whatever its last
    call wrote.
    """
    c, n, ha, wa, hb, wb = x.shape
    cols = scratch.take("cols", (3,) * split + (c, n, wa, hb, wb))
    cols.fill(0.0)
    kept = (slice(None),) * (5 - split)  # channels, samples and the axes no unrolled tap shifts
    copies = [(taps + kept + dst, kept + src) for taps, dst, src in _tap_shifts((wa, hb, wb)[3 - split :])]
    for i in range(ha):
        row = x[:, :, i]
        for dst, src in copies:
            cols[dst] = row[src]
        yield i, cols.reshape(3**split * c, -1)


def _conv4d_into(out: np.ndarray, x: np.ndarray, kd: np.ndarray, scratch: Conv4dScratch) -> None:
    """Add the zero-padded stride-1 cross-correlation of (C_in, N, Ha, Wa, Hb, Wb)
    with (C_out, C_in, 3, 3, 3, 3) to ``out``: one stacked product per A-row.

    The taps split per call (``_tap_split``): the last s of (da, db, dc,
    dd) go into the columns (``_a_row_columns``), the first 4 - s into the
    kernel matrix's rows, one (C_out, 3^s*C_in) block of rows per
    combination. The product of the block of (da, ...) with the columns of
    input row ``i`` feeds output row ``i + 1 - da``, shifted along Wa by
    ``db`` and along Hb by ``dc`` when those are row taps (``_shifted``).
    Only the row blocks of A-taps whose output row exists are multiplied,
    so the first and last input rows skip one ``da`` each. The product is
    stacked over the samples, so each sample's columns get the GEMM they
    would get alone. One GEMM over all samples would not do: BLAS picks its
    kernels by the column count, and one that handles a sample's last
    columns as a tail alone and as full blocks in a batch rounds them
    differently.

    The column buffer and the product are the ``scratch``'s ``cols`` and
    ``prod``; at 16 channels in and out (split 2) they are as large as at
    1 -> 16 or 16 -> 1. Every product fully overwrites the rows of ``prod``
    that are read, so it needs no clearing.
    """
    c_out, c_in = kd.shape[:2]
    _, n, ha, wa, hb, wb = x.shape
    split = _tap_split(c_in, c_out)
    row_taps = 4 - split
    block = 3 ** (row_taps - 1) * c_out  # product rows per da
    m = wa * hb * wb
    # rows (da, ..., c_out), columns (..., dd, c_in)
    kmat = kd.transpose(*range(2, 2 + row_taps), 0, *range(2 + row_taps, 6), 1).reshape(3 * block, -1)
    prod = scratch.take("prod", (n, 3 * block, m))
    taps = prod.reshape((n,) + (3,) * row_taps + (c_out, wa, hb, wb))
    taps = taps.transpose(*range(1, row_taps + 1), row_taps + 1, 0, *range(row_taps + 2, row_taps + 5))
    both = (slice(None), slice(None))  # channels and samples
    adds = [(both + dst, t + both + src) for t, dst, src in _tap_shifts((wa, hb)[: row_taps - 1])]
    for i, cols in _a_row_columns(x, scratch, split):
        # the A-taps da whose output row i + 1 - da lies in [0, Ha)
        lo, hi = (0 if i + 1 < ha else 1), (3 if i >= 1 else 2)
        rows = slice(block * lo, block * hi)
        np.matmul(kmat[rows], cols.reshape(-1, n, m).transpose(1, 0, 2), out=prod[:, rows])
        for da in range(lo, hi):
            out_row, taps_da = out[:, :, i + 1 - da], taps[da]
            for dst, src in adds:
                out_row[dst] += taps_da[src]


def conv4d(x: Tensor, kernel: Tensor, bias: Tensor, scratch: Conv4dScratch | None = None) -> Tensor:
    """Cross-correlate a (C_in, N, Ha, Wa, Hb, Wb) stack of N volumes with 3^4 kernels.

    Fixed zero padding 1 and stride 1 on all four spatial axes, so the
    output is (C_out, N, Ha, Wa, Hb, Wb).

    ``scratch`` lends the forward pass its column buffer and product, so a
    sequence of calls allocates them once; without one the call makes its
    own. It changes no output bit: the buffers are views of the same sizes
    and the column buffer is zeroed first. The backward pass never uses it
    and makes its own, so a graph holds no reference to a scratch.

    For each A-row the last s of the taps (da, db, dc, dd) and the input
    channels are unrolled into a (3^s*C_in, N*Wa*Hb*Wb) column matrix (see
    ``_a_row_columns``) and multiplied, sample by sample in one stacked
    product, by the row blocks of the kernel, reshaped to
    (3^(4-s)*C_out, 3^s*C_in), whose A-taps feed an output row that
    exists; each block's slice is added, shifted by its taps, to the output
    row it feeds. s is picked per call from the channel counts
    (``_tap_split``): 3 for the filter's 1 -> 16 layer, 2 for 16 -> 16 and
    1 for 16 -> 1. Every sample gets the same BLAS calls and additions as
    alone, so sample n's output and input gradient do not depend on N. The
    input gradient is the same routine on the output gradient with the
    kernel flipped on its tap axes and its channel axes swapped, so its
    split follows the swapped channel counts. The kernel gradient rebuilds
    the split-2 columns from the input, so the graph keeps no column copy,
    and multiplies them by the output-gradient slices laid out like a
    split-2 product, zero where a tap reads outside the volume: one GEMM
    per A-row over all nine row blocks, which also sums over the batch.
    """
    if x.ndim != 6:
        raise ValueError(f"conv4d input must be 6-d (C,N,Ha,Wa,Hb,Wb), got shape {x.shape}")
    if kernel.ndim != 6 or kernel.shape[2:] != (3, 3, 3, 3):
        raise ValueError(f"conv4d kernel must be (C_out,C_in,3,3,3,3), got shape {kernel.shape}")
    c_out, c_in = kernel.shape[:2]
    if x.shape[0] != c_in:
        raise ValueError(
            f"conv4d channel mismatch: input has {x.shape[0]} channels, kernel expects {c_in}"
        )
    if bias.shape != (c_out,):
        raise ValueError(f"conv4d bias must have shape ({c_out},), got {bias.shape}")
    dims = x.shape[1:]  # (N, Ha, Wa, Hb, Wb)
    if min(dims) < 1:
        raise ValueError(f"conv4d batch and spatial extents must be >= 1, got {dims}")

    kd = kernel.data
    out = np.empty((c_out,) + dims)
    out[:] = bias.data[(slice(None),) + (None,) * 5]
    _conv4d_into(out, x.data, kd, Conv4dScratch() if scratch is None else scratch)

    def bwd(g):
        if bias.requires_grad:
            bias._acc(g.sum(axis=(1, 2, 3, 4, 5)))
        if kernel.requires_grad:
            # gather, per input row, the output-gradient slices its columns
            # fed: block (da, db) holds output row i + 1 - da, its column w
            # at column w + db - 1; the columns no output reads stay zero
            n, ha, wa = dims[:3]
            gk = np.zeros((9 * c_out, 9 * c_in))
            g_taps = np.zeros((3, 3, c_out, n, wa) + dims[3:])
            w_shifts = [_shifted(db, wa) for db in range(3)]
            for i, cols in _a_row_columns(x.data, Conv4dScratch(), 2):
                for da in range(3):
                    a = i + 1 - da
                    for db, (dst_w, src_w) in enumerate(w_shifts):
                        if 0 <= a < ha:
                            g_taps[da, db, :, :, src_w] = g[:, :, a, dst_w]
                        else:
                            g_taps[da, db] = 0.0
                gk += g_taps.reshape(9 * c_out, -1) @ cols.T
            kernel._acc(gk.reshape(3, 3, c_out, 3, 3, c_in).transpose(2, 5, 0, 1, 3, 4))
        if x.requires_grad:
            flipped = kd[:, :, ::-1, ::-1, ::-1, ::-1].transpose(1, 0, 2, 3, 4, 5)
            gx = np.zeros(x.shape)
            _conv4d_into(gx, g, flipped, Conv4dScratch())
            x._acc(gx)

    return _make(out, (x, kernel, bias), bwd)


# -- nonlinearities and normalizations --------------------------------------


def leaky_relu(x: Tensor, slope: float = 0.1) -> Tensor:
    """``x`` where ``x >= 0``, else ``slope * x``, for 0 < slope <= 1.

    Computed as ``max(x, slope * x)``, which equals the branch form bit for
    bit, signed zeros, infinities and subnormals included, exactly when
    0 < slope <= 1: then ``slope * x`` never lies beyond ``x`` on the side
    away from zero. Other slopes raise ``ValueError``; slope 0 is among them
    because ``0 * inf`` is nan. The sign mask the backward pass needs is
    built only when ``x`` requires grad.
    """
    if not 0 < slope <= 1:
        raise ValueError(f"leaky_relu slope must be in (0, 1], got {slope}")
    out = slope * x.data
    np.maximum(x.data, out, out=out)
    pos = x.data >= 0 if x.requires_grad else None

    def bwd(g):
        if x.requires_grad:
            x._acc(g * np.where(pos, 1.0, slope))

    return _make(out, (x,), bwd)


def softmax_over(x: Tensor, axes) -> Tensor:
    """Exp-normalize jointly over ``axes`` with max subtraction for stability.

    For every fixed index of the remaining axes, the output sums to 1 over
    the normalized axes.
    """
    axes = _normalize_axes(axes, x.ndim)
    m = x.data.max(axis=axes, keepdims=True)
    e = np.exp(x.data - m)
    y = e / e.sum(axis=axes, keepdims=True)

    def bwd(g):
        if x.requires_grad:
            dot = (g * y).sum(axis=axes, keepdims=True)
            x._acc(y * (g - dot))

    return _make(y, (x,), bwd)


def max_over(x: Tensor, axes) -> Tensor:
    """Joint maximum over ``axes``, shaped as the remaining axes.

    The gradient routes entirely to the maximizing cell; among tied cells,
    to the lowest linearized index over the reduced axes in ascending axis
    order.
    """
    axes = _normalize_axes(axes, x.ndim)
    kept = tuple(a for a in range(x.ndim) if a not in axes)
    perm = kept + axes
    kept_shape = tuple(x.shape[a] for a in kept)
    xt = x.data.transpose(perm)
    flat = xt.reshape(int(np.prod(kept_shape, dtype=np.int64)), -1)
    argf = flat.argmax(axis=1)
    rows = np.arange(flat.shape[0])
    vals = flat[rows, argf].reshape(kept_shape)
    inv = tuple(np.argsort(perm))

    def bwd(g):
        if x.requires_grad:
            gf = np.zeros_like(flat)
            gf[rows, argf] = g.reshape(-1)
            x._acc(gf.reshape(xt.shape).transpose(inv))

    return _make(vals, (x,), bwd)


def _sum_channels(a: np.ndarray) -> np.ndarray:
    """Sum over axis 0 in channel order.

    numpy's reduction adds the channels in this order too, except when the
    other axes hold one element: then it sums pairwise, so a one-cell map's
    norm would depend on the batch it runs in.
    """
    out = a[0].copy()
    for plane in a[1:]:
        out += plane
    return out


def l2_normalize_channels(x: Tensor, eps: float = 1e-8) -> Tensor:
    """Divide each channel vector of a (C, N, H, W) map by max(norm, eps).

    The channels are axis 0; any layout of the other axes works the same.
    """
    if x.ndim < 2:
        raise ValueError(f"l2_normalize_channels expects channels on axis 0 of a (C,N,H,W) map, got shape {x.shape}")
    if eps <= 0:
        raise ValueError("eps must be > 0")
    d = x.data
    norm = np.sqrt(_sum_channels(d * d))
    denom = np.maximum(norm, eps)
    inv = 1.0 / denom
    y = d * inv

    def bwd(g):
        if x.requires_grad:
            gx = g * inv
            live = norm >= eps
            gx -= d * ((_sum_channels(d * g) * inv**3) * live)
            x._acc(gx)

    return _make(y, (x,), bwd)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """One matrix product per entry of (B, m, k) @ (B, k, n) stacks: (B, m, n)."""
    if a.ndim != 3 or b.ndim != 3:
        raise ValueError(f"matmul expects two 3-d stacks, got {a.shape} and {b.shape}")
    if a.shape[0] != b.shape[0]:
        raise ValueError(f"matmul stack sizes disagree: {a.shape} @ {b.shape}")
    if a.shape[2] != b.shape[1]:
        raise ValueError(f"matmul inner dims disagree: {a.shape} @ {b.shape}")
    out = np.matmul(a.data, b.data)

    def bwd(g):
        if a.requires_grad:
            a._acc(np.matmul(g, b.data.transpose(0, 2, 1)))
        if b.requires_grad:
            b._acc(np.matmul(a.data.transpose(0, 2, 1), g))

    return _make(out, (a, b), bwd)
