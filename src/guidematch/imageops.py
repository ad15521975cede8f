"""Shared raster helpers: bilinear sampling and corner-aligned resizing."""

from __future__ import annotations

import numpy as np


def bilinear_sample(image: np.ndarray, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Sample a 2-d array at continuous (x, y) positions, edge-clamped.

    x indexes columns and y rows; integer coordinates hit pixel values
    exactly. Output has the broadcast shape of xs and ys.
    """
    h, w = image.shape
    xs = np.clip(np.asarray(xs, dtype=np.float64), 0.0, w - 1.0)
    ys = np.clip(np.asarray(ys, dtype=np.float64), 0.0, h - 1.0)
    x0 = np.floor(xs).astype(np.int64)
    y0 = np.floor(ys).astype(np.int64)
    x1 = np.minimum(x0 + 1, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    fx = xs - x0
    fy = ys - y0
    top = image[y0, x0] * (1.0 - fx) + image[y0, x1] * fx
    bot = image[y1, x0] * (1.0 - fx) + image[y1, x1] * fx
    return top * (1.0 - fy) + bot * fy


def resize_bilinear(image: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Shrink with the corner-aligned mapping orig = out / scale.

    This keeps point correspondences consistent with a pure diagonal
    coordinate scaling, which the fundamental-matrix rescaling assumes.
    """
    h, w = image.shape
    sy = out_h / h
    sx = out_w / w
    ys = np.arange(out_h)[:, None] / sy
    xs = np.arange(out_w)[None, :] / sx
    return bilinear_sample(image, np.broadcast_to(xs, (out_h, out_w)), np.broadcast_to(ys, (out_h, out_w)))
