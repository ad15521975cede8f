"""Synthetic calibrated two-view scenes with exact dense ground truth.

Scenes are piecewise planar: a large textured backdrop plus a few bounded
foreground rectangles, each carrying its own procedurally generated
smooth-noise texture. Both views are rendered by intersecting pixel rays
with the planes (z-buffered), so dense correspondences, visibility, and the
fundamental matrix are all exact closed forms rather than approximations.

A `repeated_stamps` mode pastes one high-contrast texture patch at several
well-separated locations to create the matching ambiguity that coarse
guidance is supposed to resolve.
"""

from __future__ import annotations

import contextlib
import dataclasses
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.ndimage import uniform_filter

from guidematch.geometry.epipolar import (
    FRAME_ORIGINAL,
    CameraCalibration,
    FundamentalMatrix,
    RelativePose,
    fundamental_from_calibration,
    relative_pose_between,
    rotation_from_axis_angle,
)
from guidematch.imageops import bilinear_sample

_RAY_EPS = 1e-6


@dataclass
class SceneConfig:
    width: int = 64
    height: int = 64
    stride: int = 16  # image sides must be multiples of this
    focal_px: float | None = None  # defaults to max(width, height)
    # one backdrop plus n-1 foreground rectangles; a mostly-planar point set
    # is near-degenerate for linear two-view estimation, so keep some depth
    n_planes: int = 4
    depth_range: tuple[float, float] = (4.5, 9.0)
    tilt_max: float = 0.18  # max |slope| of plane normals vs the optical axis
    baseline_range: tuple[float, float] = (0.8, 1.6)
    translation_dir: tuple[float, float, float] | None = None  # None: random, mostly lateral
    rotation_mode: str = "lookat"  # or "identity"
    roll_max_deg: float = 4.0
    texel_px: float = 2.0  # approximate texture element size in image-A pixels
    texture_blur_passes: int = 2
    texture_low: float = 0.1
    texture_high: float = 0.9
    repeated_stamps: int = 0
    stamp_px: int = 24  # stamp side length in image-A pixels
    stamp_min_sep_px: float = 80.0
    background_amplitude: float = 1.0  # scaled down in repeated-stamp scenes
    brightness_jitter: float = 0.0
    contrast_jitter: float = 0.0
    n_gt_points: int = 60
    min_common_points: int = 30
    max_retries: int = 20

    def __post_init__(self):
        if self.width % self.stride or self.height % self.stride:
            raise ValueError(
                f"image size {self.width}x{self.height} must be a multiple of stride {self.stride}"
            )
        if self.n_planes < 1:
            raise ValueError("need at least one plane")


@dataclass
class ScenePlane:
    """Textured plane normal . X = offset, with an in-plane texture chart."""

    normal: np.ndarray
    offset: float
    origin: np.ndarray
    basis_u: np.ndarray
    basis_v: np.ndarray
    texture: np.ndarray
    texel_size: float
    half_u: float | None = None  # None: unbounded (backdrop)
    half_v: float | None = None

    def ray_hits(self, centers: np.ndarray, dirs: np.ndarray) -> np.ndarray:
        """Ray parameter s for X = C + s*dir, +inf where there is no hit."""
        denom = dirs @ self.normal
        num = self.offset - centers @ self.normal
        with np.errstate(divide="ignore", invalid="ignore"):
            s = np.where(np.abs(denom) > 1e-12, num / denom, np.inf)
        s = np.where(s > _RAY_EPS, s, np.inf)
        if self.half_u is not None:
            pts = centers + s[..., None] * dirs
            rel = pts - self.origin
            inside = (np.abs(rel @ self.basis_u) <= self.half_u) & (np.abs(rel @ self.basis_v) <= self.half_v)
            s = np.where(inside, s, np.inf)
        return s

    def sample(self, points: np.ndarray) -> np.ndarray:
        rel = points - self.origin
        u = (rel @ self.basis_u) / self.texel_size
        v = (rel @ self.basis_v) / self.texel_size
        th, tw = self.texture.shape
        return bilinear_sample(self.texture, u + tw / 2.0, v + th / 2.0)


@dataclass
class SyntheticScene:
    cam_a: CameraCalibration
    cam_b: CameraCalibration
    image_a: np.ndarray
    image_b: np.ndarray
    gt_points: np.ndarray  # (n, 4) columns xA, yA, xB, yB in original pixels
    fundamental: FundamentalMatrix | None
    pose: RelativePose | None
    seed: int
    planes: list[ScenePlane] | None = None

    def map_a_to_b(self, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Dense ground-truth correspondence for image-A pixel positions.

        Returns mapped positions (even for occluded points) and a visibility
        mask that is False where the point is occluded or out of frame in B.
        Requires the in-memory plane geometry.
        """
        if self.planes is None:
            raise ValueError("scene was loaded from disk, dense correspondence unavailable")
        pts = np.atleast_2d(np.asarray(pts, dtype=np.float64))
        xyz, plane_idx, valid = trace_rays(self.cam_a, self.planes, pts)
        mapped = np.full((len(pts), 2), np.nan)
        visible = np.zeros(len(pts), dtype=bool)
        if not valid.any():
            return mapped, visible
        h = self.cam_b.K @ (self.cam_b.R @ xyz[valid].T + self.cam_b.t[:, None])
        in_front = h[2] > _RAY_EPS
        proj = np.full((int(valid.sum()), 2), np.nan)
        proj[in_front] = (h[:2, in_front] / h[2, in_front]).T
        mapped[valid] = proj
        inside = (
            in_front
            & (proj[:, 0] >= 0)
            & (proj[:, 0] <= self.cam_b.width - 1)
            & (proj[:, 1] >= 0)
            & (proj[:, 1] <= self.cam_b.height - 1)
        )
        # Occlusion: the plane B sees along that pixel ray must be the same one.
        sub = np.where(valid)[0][inside]
        if len(sub):
            _, plane_b, valid_b = trace_rays(self.cam_b, self.planes, mapped[sub])
            same = valid_b & (plane_b == plane_idx[sub])
            visible[sub] = same
        return mapped, visible


def trace_rays(
    cam: CameraCalibration, planes: list[ScenePlane], pixels: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Intersect pixel rays with the planes; returns (points, plane index, hit mask)."""
    pixels = np.atleast_2d(np.asarray(pixels, dtype=np.float64))
    ones = np.ones((len(pixels), 1))
    dirs = (cam.R.T @ np.linalg.inv(cam.K) @ np.hstack([pixels, ones]).T).T
    center = cam.center()
    centers = np.broadcast_to(center, dirs.shape)
    s_all = np.stack([p.ray_hits(centers, dirs) for p in planes], axis=0)
    idx = np.argmin(s_all, axis=0)
    s_hit = s_all[idx, np.arange(len(pixels))]
    valid = np.isfinite(s_hit)
    pts = center + np.where(valid, s_hit, 0.0)[:, None] * dirs
    return pts, idx, valid


def _smooth_noise(rng: np.random.Generator, h: int, w: int, blur_passes: int) -> np.ndarray:
    t = rng.random((h, w))
    for _ in range(blur_passes):
        t = uniform_filter(t, size=3, mode="reflect")
    lo, hi = t.min(), t.max()
    if hi - lo < 1e-9:
        return np.full((h, w), 0.5)
    return (t - lo) / (hi - lo)


def _plane_basis(rng: np.random.Generator, tilt_max: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    n = np.array([rng.uniform(-tilt_max, tilt_max), rng.uniform(-tilt_max, tilt_max), -1.0])
    n /= np.linalg.norm(n)
    u = np.cross(np.array([0.0, 1.0, 0.0]), n)
    u /= np.linalg.norm(u)
    v = np.cross(n, u)
    return n, u, v


def _look_at(center: np.ndarray, target: np.ndarray, roll_rad: float) -> np.ndarray:
    fwd = target - center
    fwd = fwd / np.linalg.norm(fwd)
    right = np.cross(np.array([0.0, 1.0, 0.0]), fwd)
    right /= np.linalg.norm(right)
    down = np.cross(fwd, right)
    r = np.stack([right, down, fwd])
    if roll_rad:
        r = rotation_from_axis_angle(np.array([0.0, 0.0, 1.0]), roll_rad) @ r
    return r


def _backdrop_extent(cams, plane_point, normal, basis_u, basis_v, offset):
    """Texture chart bounds that cover both cameras' views of the plane."""
    lim_u = lim_v = 1.0
    for cam in cams:
        corners = np.array(
            [[0, 0], [cam.width - 1, 0], [0, cam.height - 1], [cam.width - 1, cam.height - 1]],
            dtype=np.float64,
        )
        ones = np.ones((4, 1))
        dirs = (cam.R.T @ np.linalg.inv(cam.K) @ np.hstack([corners, ones]).T).T
        c = cam.center()
        denom = dirs @ normal
        s = (offset - c @ normal) / denom
        pts = c + s[:, None] * dirs
        rel = pts - plane_point
        lim_u = max(lim_u, np.abs(rel @ basis_u).max())
        lim_v = max(lim_v, np.abs(rel @ basis_v).max())
    return 1.3 * lim_u, 1.3 * lim_v


def _build_scene(config: SceneConfig, seed: int, rng: np.random.Generator):
    w, h = config.width, config.height
    focal = config.focal_px if config.focal_px is not None else float(max(w, h))
    K = np.array([[focal, 0.0, w / 2.0], [0.0, focal, h / 2.0], [0.0, 0.0, 1.0]])
    cam_a = CameraCalibration(K, np.eye(3), np.zeros(3), w, h)

    z_lo, z_hi = config.depth_range
    z_mid = 0.5 * (z_lo + z_hi)
    baseline = rng.uniform(*config.baseline_range)
    if config.translation_dir is not None:
        direction = np.asarray(config.translation_dir, dtype=np.float64)
        direction = direction / np.linalg.norm(direction)
    else:
        direction = np.array([rng.uniform(-1, 1), 0.35 * rng.uniform(-1, 1), 0.3 * rng.uniform(-1, 1)])
        n = np.linalg.norm(direction)
        direction = direction / n if n > 1e-6 else np.array([1.0, 0.0, 0.0])
    center_b = baseline * direction
    if config.rotation_mode == "identity":
        r_b = np.eye(3)
    elif config.rotation_mode == "lookat":
        roll = np.radians(rng.uniform(-config.roll_max_deg, config.roll_max_deg))
        r_b = _look_at(center_b, np.array([0.0, 0.0, z_mid]), roll)
    else:
        raise ValueError(f"unknown rotation_mode {config.rotation_mode!r}")
    cam_b = CameraCalibration(K, r_b, -r_b @ center_b, w, h)

    planes: list[ScenePlane] = []
    # Backdrop: keeps every pixel ray covered so both images are fully textured.
    z_back = z_hi
    normal, bu, bv = _plane_basis(rng, config.tilt_max * 0.5)
    origin = np.array([0.0, 0.0, z_back])
    offset = float(normal @ origin)
    half_u, half_v = _backdrop_extent([cam_a, cam_b], origin, normal, bu, bv, offset)
    texel = config.texel_px * z_back / focal
    tex_w = int(np.ceil(2 * half_u / texel)) + 4
    tex_h = int(np.ceil(2 * half_v / texel)) + 4
    texture = _smooth_noise(rng, tex_h, tex_w, config.texture_blur_passes)
    span = config.texture_high - config.texture_low
    texture = config.texture_low + span * (
        0.5 + config.background_amplitude * (texture - 0.5)
    )
    backdrop = ScenePlane(normal, offset, origin, bu, bv, texture, texel)
    planes.append(backdrop)

    for _ in range(config.n_planes - 1):
        z_p = rng.uniform(z_lo, 0.5 * (z_lo + z_hi))
        # aim the rectangle at a random interior image point so A sees it
        px = rng.uniform(0.3 * w, 0.7 * w)
        py = rng.uniform(0.3 * h, 0.7 * h)
        ray = np.linalg.inv(K) @ np.array([px, py, 1.0])
        anchor = ray / ray[2] * z_p
        normal, bu, bv = _plane_basis(rng, config.tilt_max)
        half = rng.uniform(0.12, 0.22) * z_p * w / focal
        texel = config.texel_px * z_p / focal
        side = int(np.ceil(2 * half / texel)) + 4
        tex = _smooth_noise(rng, side, side, config.texture_blur_passes)
        tex = config.texture_low + span * tex
        planes.append(
            ScenePlane(normal, float(normal @ anchor), anchor, bu, bv, tex, texel, half, half)
        )

    if config.repeated_stamps:
        _paste_stamps(config, rng, cam_a, backdrop)

    return cam_a, cam_b, planes


def _paste_stamps(config: SceneConfig, rng: np.random.Generator, cam_a: CameraCalibration, plane: ScenePlane):
    """Stamp one strong texture patch at several separated backdrop spots."""
    # stamp side in texels so it spans ~stamp_px pixels of image A
    stamp_texels = max(4, int(round(config.stamp_px / config.texel_px)))
    stamp = rng.random((stamp_texels, stamp_texels))
    stamp = config.texture_low + (config.texture_high - config.texture_low) * stamp
    th, tw = plane.texture.shape
    positions_px: list[np.ndarray] = []
    centers_texel: list[tuple[int, int]] = []
    attempts = 0
    margin = config.stamp_px
    while len(positions_px) < config.repeated_stamps and attempts < 500:
        attempts += 1
        p = np.array(
            [
                rng.uniform(margin, config.width - margin),
                rng.uniform(margin, config.height - margin),
            ]
        )
        if any(np.linalg.norm(p - q) < config.stamp_min_sep_px for q in positions_px):
            continue
        pts, _, valid = trace_rays(cam_a, [plane], p[None])
        if not valid[0]:
            continue
        rel = pts[0] - plane.origin
        cu = int(round(float(rel @ plane.basis_u) / plane.texel_size + tw / 2.0))
        cv = int(round(float(rel @ plane.basis_v) / plane.texel_size + th / 2.0))
        half = stamp_texels // 2
        if cu - half < 0 or cv - half < 0 or cu - half + stamp_texels > tw or cv - half + stamp_texels > th:
            continue
        positions_px.append(p)
        centers_texel.append((cv - half, cu - half))
    if len(positions_px) < config.repeated_stamps:
        raise ValueError("could not place the requested repeated stamps, relax the config")
    for v0, u0 in centers_texel:
        plane.texture[v0 : v0 + stamp_texels, u0 : u0 + stamp_texels] = stamp


def _render(cam: CameraCalibration, planes: list[ScenePlane]) -> np.ndarray:
    xs, ys = np.meshgrid(np.arange(cam.width, dtype=np.float64), np.arange(cam.height, dtype=np.float64))
    pixels = np.column_stack([xs.ravel(), ys.ravel()])
    pts, idx, valid = trace_rays(cam, planes, pixels)
    out = np.full(len(pixels), 0.5)
    for i, plane in enumerate(planes):
        sel = valid & (idx == i)
        if sel.any():
            out[sel] = plane.sample(pts[sel])
    return out.reshape(cam.height, cam.width)


def generate_scene(config: SceneConfig, seed: int) -> SyntheticScene:
    """Deterministic per seed; retries with derived seeds until enough of the
    sampled ground-truth points are visible in both views."""
    for attempt in range(config.max_retries):
        rng = np.random.default_rng(np.random.SeedSequence([seed, attempt]))
        cam_a, cam_b, planes = _build_scene(config, seed, rng)
        margin = 2.0
        # oversample so occlusion still leaves enough mutually visible pairs
        n_sample = 2 * config.n_gt_points
        pts_a = np.column_stack(
            [
                rng.uniform(margin, config.width - 1 - margin, n_sample),
                rng.uniform(margin, config.height - 1 - margin, n_sample),
            ]
        )
        if np.linalg.norm(cam_a.center() - cam_b.center()) < 1e-12:
            fundamental = None
            pose = None
        else:
            fundamental = fundamental_from_calibration(cam_a, cam_b, FRAME_ORIGINAL)
            pose = relative_pose_between(cam_a, cam_b)
        scene = SyntheticScene(cam_a, cam_b, np.empty(0), np.empty(0), np.empty((0, 4)), fundamental, pose, seed, planes)
        mapped, visible = scene.map_a_to_b(pts_a)
        if int(visible.sum()) < config.min_common_points:
            continue
        scene.image_a = _render(cam_a, planes)
        scene.image_b = _render(cam_b, planes)
        if config.brightness_jitter or config.contrast_jitter:
            gain = 1.0 + rng.uniform(-config.contrast_jitter, config.contrast_jitter)
            offs = rng.uniform(-config.brightness_jitter, config.brightness_jitter)
            scene.image_b = np.clip(gain * (scene.image_b - 0.5) + 0.5 + offs, 0.0, 1.0)
        gt = np.column_stack([pts_a[visible], mapped[visible]])
        scene.gt_points = gt[: config.n_gt_points]
        return scene
    raise ValueError(
        f"seed {seed}: no view configuration with >= {config.min_common_points} common points "
        f"after {config.max_retries} attempts"
    )


# -- training-pair containers ------------------------------------------------


@dataclass
class TrainingPair:
    """An image pair with its supervision payload.

    Positive pairs (label +1) carry a fundamental matrix, ground-truth
    matches, or both; negative pairs (label -1) carry neither.
    """

    image_a: np.ndarray
    image_b: np.ndarray
    label: int
    fundamental: FundamentalMatrix | None = None
    gt_matches: np.ndarray | None = None
    scene_ids: tuple[int, int] = (0, 0)
    scale_a: tuple[float, float] = (1.0, 1.0)
    scale_b: tuple[float, float] = (1.0, 1.0)

    def __post_init__(self):
        if self.label not in (-1, 1):
            raise ValueError(f"label must be +1 or -1, got {self.label}")
        if self.label == 1 and self.fundamental is None and self.gt_matches is None:
            raise ValueError("positive pair needs a fundamental matrix or ground-truth matches")


# -- scene archives ----------------------------------------------------------


def write_pgm(path, image: np.ndarray) -> None:
    """8-bit binary PGM; values are clipped to [0, 1] before quantization."""
    data = np.clip(np.asarray(image, dtype=np.float64), 0.0, 1.0)
    q = np.round(data * 255.0).astype(np.uint8)
    h, w = q.shape
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        f.write(q.tobytes())


def read_pgm(path) -> np.ndarray:
    """The image of an 8-bit binary PGM, in [0, 1]; a ``ValueError`` naming the
    file for anything else, including a cut-off or over-long file."""
    raw = Path(path).read_bytes()
    if not raw.startswith(b"P5"):
        raise ValueError(f"{path}: not a binary PGM file")
    fields: list[bytes] = []
    pos = 2
    while len(fields) < 3:
        while pos < len(raw) and raw[pos : pos + 1].isspace():
            pos += 1
        if raw[pos : pos + 1] == b"#":
            while pos < len(raw) and raw[pos : pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < len(raw) and not raw[pos : pos + 1].isspace():
            pos += 1
        if pos == start:
            raise ValueError(f"{path}: truncated header")
        if not raw[start:pos].isdigit():
            raise ValueError(f"{path}: header field {raw[start:pos]!r} is not a non-negative integer")
        fields.append(raw[start:pos])
    w, h, maxval = (int(f) for f in fields)
    if maxval != 255:
        raise ValueError(f"{path}: only maxval 255 supported")
    pos += 1
    pixels = np.frombuffer(raw[pos : pos + w * h], dtype=np.uint8)
    if pixels.size != w * h:
        raise ValueError(f"{path}: truncated pixel data")
    if len(raw) > pos + w * h:
        raise ValueError(f"{path}: {len(raw) - pos - w * h} bytes after the pixel data")
    return pixels.reshape(h, w).astype(np.float64) / 255.0


def _format_floats(values) -> str:
    return " ".join(repr(float(v)) for v in np.asarray(values, dtype=np.float64).ravel())


def save_scene(directory, scene: SyntheticScene) -> None:
    d = Path(directory)
    d.mkdir(parents=True, exist_ok=True)
    write_pgm(d / "imageA.pgm", scene.image_a)
    write_pgm(d / "imageB.pgm", scene.image_b)
    lines = [f"seed = {scene.seed}"]
    for tag, cam in (("a", scene.cam_a), ("b", scene.cam_b)):
        lines.append(f"width_{tag} = {cam.width}")
        lines.append(f"height_{tag} = {cam.height}")
        lines.append(f"K_{tag} = {_format_floats(cam.K)}")
        lines.append(f"R_{tag} = {_format_floats(cam.R)}")
        lines.append(f"t_{tag} = {_format_floats(cam.t)}")
    (d / "meta.txt").write_text("\n".join(lines) + "\n")
    rows = ["xA,yA,xB,yB"]
    for xa, ya, xb, yb in scene.gt_points:
        rows.append(",".join(repr(float(v)) for v in (xa, ya, xb, yb)))
    (d / "gt_points.csv").write_text("\n".join(rows) + "\n")
    if scene.fundamental is not None:
        body = "\n".join(_format_floats(row) for row in scene.fundamental.matrix)
        (d / "F.txt").write_text(body + f"\nframe = {scene.fundamental.frame}\n")


def parse_kv_file(path) -> dict[str, str]:
    """`key = value` lines; blank lines and `#` comments are skipped."""
    out = {}
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = line.partition("=")
        out[key.strip()] = value.strip()
    return out


@contextlib.contextmanager
def _archive_file(path):
    """Re-raise what a malformed archive file makes its parser raise as one
    ``ValueError`` that names the file."""
    try:
        yield
    except KeyError as exc:
        raise ValueError(f"{path}: missing key {exc}") from exc
    except (IndexError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _parse_floats(text: str) -> np.ndarray:
    return np.array([float(v) for v in text.split()])


def load_scene(directory) -> SyntheticScene:
    d = Path(directory)
    with _archive_file(d / "meta.txt"):
        meta = parse_kv_file(d / "meta.txt")
        cams = {}
        for tag in ("a", "b"):
            cams[tag] = CameraCalibration(
                _parse_floats(meta[f"K_{tag}"]).reshape(3, 3),
                _parse_floats(meta[f"R_{tag}"]).reshape(3, 3),
                _parse_floats(meta[f"t_{tag}"]),
                int(meta[f"width_{tag}"]),
                int(meta[f"height_{tag}"]),
            )
        seed = int(meta.get("seed", 0))
    with _archive_file(d / "gt_points.csv"):
        rows = [line.split(",") for line in (d / "gt_points.csv").read_text().splitlines()[1:] if line.strip()]
        if any(len(row) != 4 for row in rows):
            raise ValueError("every row needs the 4 values xA,yA,xB,yB")
        gt = np.array([[float(v) for v in row] for row in rows]).reshape(-1, 4)
    fundamental = None
    f_path = d / "F.txt"
    if f_path.exists():
        with _archive_file(f_path):
            f_lines = f_path.read_text().splitlines()
            values = np.array([_parse_floats(f_lines[i]) for i in range(3)])
            frame = f_lines[3].partition("=")[2].strip() if len(f_lines) > 3 else FRAME_ORIGINAL
            fundamental = FundamentalMatrix.from_array(values, frame)
    pose = None
    try:
        pose = relative_pose_between(cams["a"], cams["b"])
    except ValueError:
        pose = None
    return SyntheticScene(
        cams["a"],
        cams["b"],
        read_pgm(d / "imageA.pgm"),
        read_pgm(d / "imageB.pgm"),
        gt,
        fundamental,
        pose,
        seed,
        planes=None,
    )


def load_scene_dir(root) -> list[SyntheticScene]:
    root = Path(root)
    dirs = sorted(p for p in root.iterdir() if p.is_dir() and (p / "meta.txt").exists())
    if not dirs:
        raise ValueError(f"{root}: no scene directories found")
    return [load_scene(p) for p in dirs]
