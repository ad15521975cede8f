"""Pinhole cameras, fundamental matrices, and two-view pose metrics.

Pixel conventions: x is the column coordinate, y the row coordinate, and a
point is inside a WxH image when 0 <= x <= W-1 and 0 <= y <= H-1. World to
camera: x_cam = R @ X + t, camera center C = -R^T @ t.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# Coordinate frame tags for fundamental matrices.
FRAME_ORIGINAL = "original-px"
FRAME_RESIZED = "resized-px"


def _mat(a, shape) -> np.ndarray:
    out = np.array(a, dtype=np.float64)
    if out.shape != shape:
        raise ValueError(f"expected shape {shape}, got {out.shape}")
    return out


def skew(v: np.ndarray) -> np.ndarray:
    """Cross-product matrix: skew(v) @ w == cross(v, w)."""
    x, y, z = v
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


def rotation_from_axis_angle(axis, angle_rad: float) -> np.ndarray:
    """Rodrigues rotation about a (not necessarily unit) axis."""
    a = np.asarray(axis, dtype=np.float64)
    n = np.linalg.norm(a)
    if n == 0.0:
        raise ValueError("rotation axis must be non-zero")
    a = a / n
    k = skew(a)
    return np.eye(3) + np.sin(angle_rad) * k + (1.0 - np.cos(angle_rad)) * (k @ k)


@dataclass
class CameraCalibration:
    """Full calibration: intrinsics K, world-to-camera rotation R, translation t."""

    K: np.ndarray
    R: np.ndarray
    t: np.ndarray
    width: int
    height: int

    def __post_init__(self):
        self.K = _mat(self.K, (3, 3))
        self.R = _mat(self.R, (3, 3))
        self.t = _mat(self.t, (3,))
        if not np.allclose(self.R @ self.R.T, np.eye(3), atol=1e-9):
            raise ValueError("R is not orthonormal")
        if abs(np.linalg.det(self.R) - 1.0) > 1e-9:
            raise ValueError("R must have determinant +1")
        if abs(self.K[1, 0]) > 0 or abs(self.K[2, 0]) > 0 or abs(self.K[2, 1]) > 0:
            raise ValueError("K must be upper triangular")
        if self.K[0, 0] <= 0 or self.K[1, 1] <= 0 or self.K[2, 2] <= 0:
            raise ValueError("K diagonal must be positive")

    def center(self) -> np.ndarray:
        return -self.R.T @ self.t


@dataclass
class RelativePose:
    """Rotation plus unit translation direction (scale is unobservable)."""

    R: np.ndarray
    t: np.ndarray

    def __post_init__(self):
        self.R = _mat(self.R, (3, 3))
        self.t = _mat(self.t, (3,))
        if not np.allclose(self.R @ self.R.T, np.eye(3), atol=1e-9):
            raise ValueError("R is not orthonormal")
        if abs(np.linalg.norm(self.t) - 1.0) > 1e-12:
            raise ValueError("t must be a unit vector")


# The canonical form of a fundamental matrix: rank 2, unit Frobenius norm,
# largest-magnitude entry positive. A matrix is taken as rank 2 while
# sigma3/sigma1 <= _RANK_TOL and as unit norm while |norm - 1| <= _NORM_TOL.
_RANK_TOL = 1e-9
_NORM_TOL = 1e-9


def frobenius_norms(m: np.ndarray) -> np.ndarray:
    """Frobenius norm of each (3, 3) slice of (B, 3, 3) matrices, as
    ``np.linalg.norm`` of one slice computes it: a dot product of the
    flattened entries."""
    flat = m.reshape(len(m), 1, 9)
    return np.sqrt(np.matmul(flat, flat.transpose(0, 2, 1))[:, 0, 0])


def _violations(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per (3, 3) slice: (not rank 2, not unit norm)."""
    s = np.linalg.svd(m, compute_uv=False)
    return s[:, 2] > _RANK_TOL * s[:, 0], np.abs(frobenius_norms(m) - 1.0) > _NORM_TOL


def rank_two_projection(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nearest rank-2 matrix, in Frobenius norm, of each (3, 3) slice of
    (B, 3, 3) matrices, and the (B, 3) singular values of the slices."""
    u, s, vt = np.linalg.svd(m)
    return (u[:, :, :2] * s[:, None, :2]) @ vt[:, :2], s


def canonicalize_fundamental(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Canonical forms of (B, 3, 3) matrices and a (B,) mask of the usable ones.

    Each slice is projected to rank 2, scaled to unit Frobenius norm and
    signed so that its largest-magnitude entry is positive. The mask is true
    where the input has rank >= 2 and the result passes the checks
    ``FundamentalMatrix`` makes. Every slice goes through the same
    floating-point operations as a one-slice call (degenerate slices are
    masked before any division), so each equals its own B=1 call bit for
    bit; an unusable slice holds finite garbage.
    """
    m2, s = rank_two_projection(m)
    rank_two = s[:, 1] > 0
    norm = frobenius_norms(m2)
    m2 = m2 / np.where(norm > 0, norm, 1.0)[:, None, None]
    flat = m2.reshape(-1, 9)
    largest = flat[np.arange(len(flat)), np.argmax(np.abs(flat), axis=1)]
    m2 = np.where((largest < 0)[:, None, None], -m2, m2)
    not_rank_two, not_unit = _violations(m2)
    return m2, rank_two & ~not_rank_two & ~not_unit


@dataclass
class FundamentalMatrix:
    """Rank-2 3x3 matrix, Frobenius norm 1, tagged with its pixel frame."""

    matrix: np.ndarray
    frame: str = FRAME_ORIGINAL

    def __post_init__(self):
        self.matrix = _mat(self.matrix, (3, 3))
        not_rank_two, not_unit = _violations(self.matrix[None])
        if not_rank_two[0]:
            raise ValueError("matrix is not rank 2")
        if not_unit[0]:
            raise ValueError("matrix must have Frobenius norm 1")

    @classmethod
    def from_array(cls, m, frame: str = FRAME_ORIGINAL) -> "FundamentalMatrix":
        """Canonicalize: project to rank 2, unit Frobenius norm, positive largest entry."""
        canonical, usable = canonicalize_fundamental(_mat(m, (3, 3))[None])
        if not usable[0]:
            raise ValueError("matrix has rank < 2 or is out of floating-point range, cannot canonicalize")
        return cls(canonical[0], frame)

    def transposed(self) -> "FundamentalMatrix":
        """Epipolar geometry with the image roles swapped."""
        return FundamentalMatrix.from_array(self.matrix.T, self.frame)


def relative_pose_between(cam_a: CameraCalibration, cam_b: CameraCalibration) -> RelativePose:
    """Pose of camera B relative to camera A: x_b = R x_a + t (t normalized)."""
    r_rel = cam_b.R @ cam_a.R.T
    t_rel = cam_b.t - r_rel @ cam_a.t
    n = np.linalg.norm(t_rel)
    if n < 1e-12:
        raise ValueError("cameras share a center, translation direction undefined")
    return RelativePose(r_rel, t_rel / n)


def fundamental_from_calibration(
    cam_a: CameraCalibration, cam_b: CameraCalibration, frame: str = FRAME_ORIGINAL
) -> FundamentalMatrix:
    """F = K_b^-T [t]x R K_a^-1 so that x_b^T F x_a = 0 for any common point."""
    if np.linalg.norm(cam_a.center() - cam_b.center()) < 1e-12:
        raise ValueError("identical camera centers, fundamental matrix undefined")
    pose = relative_pose_between(cam_a, cam_b)
    essential = skew(pose.t) @ pose.R
    f = np.linalg.inv(cam_b.K).T @ essential @ np.linalg.inv(cam_a.K)
    return FundamentalMatrix.from_array(f, frame)


def epipolar_distances(F: FundamentalMatrix | np.ndarray, pts_a: np.ndarray, pts_b: np.ndarray) -> np.ndarray:
    """Distance from each B point to the epipolar line of its A point.

    Returns +inf where the epipolar line is degenerate (the A point is the
    epipole), which callers treat as geometrically inconsistent.
    """
    m = getattr(F, "matrix", F)
    pts_a = np.atleast_2d(np.asarray(pts_a, dtype=np.float64))
    pts_b = np.atleast_2d(np.asarray(pts_b, dtype=np.float64))
    ha = np.column_stack([pts_a, np.ones(len(pts_a))])
    lines = ha @ m.T  # row n is F @ x_a
    denom = np.hypot(lines[:, 0], lines[:, 1])
    numer = np.abs(lines[:, 0] * pts_b[:, 0] + lines[:, 1] * pts_b[:, 1] + lines[:, 2])
    out = np.full(len(pts_a), np.inf)
    ok = denom > 0.0
    out[ok] = numer[ok] / denom[ok]
    return out


def rescale_fundamental(
    F: FundamentalMatrix, scale_a: tuple[float, float], scale_b: tuple[float, float], frame: str | None = None
) -> FundamentalMatrix:
    """Re-express F for coordinates scaled per-axis: p' = diag(sx, sy) p."""
    sxa, sya = scale_a
    sxb, syb = scale_b
    if min(sxa, sya, sxb, syb) <= 0:
        raise ValueError("scales must be positive")
    inv_a = np.diag([1.0 / sxa, 1.0 / sya, 1.0])
    inv_bt = np.diag([1.0 / sxb, 1.0 / syb, 1.0])
    return FundamentalMatrix.from_array(inv_bt @ F.matrix @ inv_a, frame or F.frame)


def pose_error(est: RelativePose, gt: RelativePose) -> tuple[float, float]:
    """(rotation error deg, translation direction error deg, sign-ambiguous)."""
    r_delta = est.R @ gt.R.T
    cos_rot = np.clip((np.trace(r_delta) - 1.0) / 2.0, -1.0, 1.0)
    rot_deg = float(np.degrees(np.arccos(cos_rot)))
    cos_t = np.clip(abs(float(est.t @ gt.t)), 0.0, 1.0)
    trans_deg = float(np.degrees(np.arccos(cos_t)))
    return rot_deg, trans_deg
