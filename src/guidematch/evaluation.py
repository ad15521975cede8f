"""Evaluation protocols: coarse-match PCK and two-view pose AUC.

Reports are plain CSV with per-pair rows plus aggregate rows recomputed
from them; everything is seeded per pair, so a fixed configuration is
byte-reproducible. Wall-clock metadata is deliberately kept out of the
artifacts for the same reason.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from guidematch import ConfigError, check_count, check_seed
from guidematch import coarse_matcher as cm
from guidematch import keypoint_matching as km
from guidematch import robust_pose as rp
from guidematch.geometry import SyntheticScene, pose_error

POSE_VARIANTS = ("raw", "mutual", "ratio", "ratio+mutual", "guided", "model-guided")
KEYPOINT_SOURCES = ("detect", "gt")
FM_CORRECT_SAMPSON_PX = 3.0
PCK_THRESHOLDS = (8.0, 16.0, 32.0)


@dataclass
class EvalReport:
    rows: list[dict]
    aggregates: list[dict]
    metadata: dict = field(default_factory=dict)

    def write_csv(self, path, which: str = "rows") -> None:
        data = self.rows if which == "rows" else self.aggregates
        if not data:
            raise ValueError("nothing to write")
        header = list(data[0])
        lines = [f"# {k} = {v}" for k, v in sorted(self.metadata.items())]
        lines.append(",".join(header))
        for row in data:
            lines.append(",".join(_format_cell(row[k]) for k in header))
        Path(path).write_text("\n".join(lines) + "\n")


def _format_cell(v) -> str:
    if isinstance(v, (int, np.integer)):  # bool is an int
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def config_digest(parts: dict) -> str:
    text = ";".join(f"{k}={parts[k]}" for k in sorted(parts))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:12]


def _thresholds(values, name: str) -> list[float]:
    """``values`` as a list; a ``ConfigError`` unless it is non-empty, each is finite
    and > 0, and no two share a ``%g`` label (their report column or row)."""
    values = list(values)
    if not values:
        raise ConfigError(f"{name} must not be empty")
    bad = [t for t in values if not 0 < t < math.inf]
    if bad:
        raise ConfigError(f"{name} must be finite and > 0, got {bad}")
    if len({f"{t:g}" for t in values}) < len(values):
        raise ConfigError(f"{name} must differ when formatted with %g, got {values}")
    return values


# -- coarse matching accuracy -------------------------------------------------


def eval_pck(
    model: cm.CoarseModel,
    scenes: list[SyntheticScene],
    thresholds=PCK_THRESHOLDS,
    max_side: int = cm.EVAL_MAX_SIDE,
    metadata: dict | None = None,
) -> EvalReport:
    """Coarse-match accuracy against each scene's ground-truth pairs.

    Distances are measured in resized-image pixels between the interpolated
    coarse match of the A point and the true B point; ``pck_t`` is the
    fraction strictly below t. A bad setting raises ``ConfigError`` before any
    work; no scenes, or a scene with no ground-truth point, raise ``ValueError``.
    """
    thresholds = _thresholds(thresholds, "PCK thresholds")
    cm.check_max_side(max_side, model.stride)
    if not scenes:
        raise ValueError("no scenes to evaluate")
    rows = []
    for scene in scenes:
        if not len(scene.gt_points):
            raise ValueError(f"scene {scene.seed}: no ground-truth points to evaluate")
        fld, _ = cm.compute_match_fields(model, scene.image_a, scene.image_b, max_side)
        pts_a = scene.gt_points[:, :2] * fld.scale_src
        pts_b = scene.gt_points[:, 2:] * fld.scale_tgt
        mapped = cm.interpolate_matches(fld, pts_a)
        d = np.hypot(mapped[:, 0] - pts_b[:, 0], mapped[:, 1] - pts_b[:, 1])
        row = {"scene": scene.seed, "n_points": len(d)}
        for t in thresholds:
            row[f"below_{t:g}"] = int((d < t).sum())
            row[f"pck_{t:g}"] = row[f"below_{t:g}"] / len(d)
        rows.append(row)
    total = sum(r["n_points"] for r in rows)
    agg = {"scene": "ALL", "n_points": total}
    for t in thresholds:
        below = sum(r[f"below_{t:g}"] for r in rows)
        agg[f"below_{t:g}"] = below
        agg[f"pck_{t:g}"] = below / total
    return EvalReport(rows, [agg], metadata or {})


# -- pose accuracy -------------------------------------------------------------


def pose_auc(errors, thresholds) -> list[float]:
    """Exact integral of the step recall curve, normalized per threshold.

    Failures must be encoded as infinite errors; they depress recall without
    being dropped. There must be at least one threshold, each finite and > 0.
    """
    thresholds = _thresholds(thresholds, "pose thresholds")
    errs = np.asarray(list(errors), dtype=np.float64)
    if errs.size == 0:
        raise ValueError("no errors to integrate")
    n = len(errs)
    finite = np.sort(errs[np.isfinite(errs)])
    out = []
    for tau in thresholds:
        pts = finite[finite <= tau]
        area = 0.0
        prev = 0.0
        count = 0
        for i, e in enumerate(pts):
            area += (e - prev) * (count / n)
            prev = e
            count = i + 1
        area += (tau - prev) * (count / n)
        out.append(area / tau)
    return out


@dataclass
class PairFeatures:
    kps_a: km.KeypointSet
    desc_a: np.ndarray  # (n_a, km.PATCH**2), one descriptor row per keypoint
    kps_b: km.KeypointSet
    desc_b: np.ndarray


MatcherFn = Callable[[SyntheticScene, PairFeatures], km.MatchSet]


def _check_features(max_keypoints, keypoint_source: str) -> None:
    check_count(max_keypoints, "max_keypoints")
    if keypoint_source not in KEYPOINT_SOURCES:
        raise ConfigError(f"keypoint_source must be one of {KEYPOINT_SOURCES}, got {keypoint_source!r}")


def pair_features(scene: SyntheticScene, max_keypoints: int, keypoint_source: str) -> PairFeatures:
    """Keypoints of both views and their descriptors.

    ``keypoint_source="detect"`` runs the detector on each image; ``"gt"``
    places the keypoints at the scene's exact ground-truth correspondences.
    A ``max_keypoints`` that is not an integer >= 1 is a ``ConfigError`` under both.
    """
    _check_features(max_keypoints, keypoint_source)
    if keypoint_source == "gt":
        kps_a = km.KeypointSet(scene.gt_points[:, :2], km.BASE_SCALE, 1.0)
        kps_b = km.KeypointSet(scene.gt_points[:, 2:], km.BASE_SCALE, 1.0)
    else:
        kps_a = km.detect_keypoints(scene.image_a, max_keypoints)
        kps_b = km.detect_keypoints(scene.image_b, max_keypoints)
    return PairFeatures(kps_a, km.describe(scene.image_a, kps_a), kps_b, km.describe(scene.image_b, kps_b))


@dataclass(frozen=True)
class EvalSettings:
    """The variant and every setting of ``make_matcher`` and ``eval_pose``, each default written once.

    Construction runs every check that needs no model: a bad setting is a ``ConfigError``
    whether or not the variant reads it; inf is a valid window or band. The thresholds
    are kept as tuples of the values given: a report writes ``ransac_px`` 1 and 1.0 apart.
    """

    variant: str
    window_px: float = 16.0
    ratio: float | None = None
    band_px: float = 3.0
    max_side: int = cm.EVAL_MAX_SIDE
    max_keypoints: int = 300
    ransac_thresholds: tuple = (1.0,)
    pose_thresholds: tuple = (5.0, 10.0, 20.0)
    keypoint_source: str = "detect"
    keypoint_noise_px: float = 0.0
    descriptor_corruption: float = 0.0

    def __post_init__(self):
        if self.variant not in POSE_VARIANTS:
            raise ConfigError(f"unknown variant {self.variant!r}, expected one of {POSE_VARIANTS}")
        if self.variant.startswith("ratio") and self.ratio is None:
            raise ConfigError(f"{self.variant} variant needs a ratio value")
        if self.variant in ("raw", "mutual") and self.ratio is not None:
            raise ConfigError(f"{self.variant} variant takes no ratio value; use ratio or ratio+mutual")
        for name, value in (("window_px", self.window_px), ("band_px", self.band_px), ("ratio", self.ratio)):
            if value is not None and not value > 0:
                raise ConfigError(f"{name} must be > 0, got {value:g}")
        check_count(self.max_side, "max_side")
        _check_features(self.max_keypoints, self.keypoint_source)
        if not 0 <= self.keypoint_noise_px < math.inf:
            raise ConfigError(f"keypoint_noise_px must be finite and >= 0, got {self.keypoint_noise_px:g}")
        if not 0 <= self.descriptor_corruption <= 1:
            raise ConfigError(f"descriptor_corruption must be in [0, 1], got {self.descriptor_corruption:g}")
        object.__setattr__(self, "ransac_thresholds", tuple(_thresholds(self.ransac_thresholds, "RANSAC thresholds")))
        object.__setattr__(self, "pose_thresholds", tuple(_thresholds(self.pose_thresholds, "pose thresholds")))

    def config_hash(self, dataset: str) -> str:
        """eval-pose's ``config_hash`` on ``dataset``: each field's ``str()``, the thresholds as lists."""
        lists = {"ransac_thresholds": list(self.ransac_thresholds), "pose_thresholds": list(self.pose_thresholds)}
        return config_digest({**vars(self), **lists, "dataset": dataset})


def make_matcher(settings: EvalSettings, model: cm.CoarseModel | None = None) -> MatcherFn:
    """Build the match-and-prune chain for an evaluation variant.

    Every variant runs one chain: match A to B and, unless the variant is
    ``raw`` or ``ratio``, B to A; apply the ratio test to each direction
    when ``ratio`` is set; with two directions, keep their mutual matches.
    ``raw`` and ``mutual`` take no ratio, so each variant name is one rule.
    The variant picks the step once; a direction's step takes the nearest
    descriptor among all target keypoints (``raw``, ``ratio``, ``mutual``, ``ratio+mutual``), among
    those within ``window_px`` resized-image pixels of the coarse match
    (``guided``; the window is converted to original pixels through the
    field's scales), or among those within ``band_px`` of the epipolar line
    of a first-stage fundamental matrix (``model-guided``). ``settings`` checked
    itself; the two rules that need the model raise ``ConfigError`` here: guided
    needs one, and a given model's stride bounds ``max_side`` for every variant.
    """
    if settings.variant == "guided" and model is None:
        raise ConfigError("guided variant needs a coarse model checkpoint")
    if model is not None:
        cm.check_max_side(settings.max_side, model.stride)
    mutual = settings.variant not in ("raw", "ratio")

    if settings.variant == "guided":
        def step(kps_src, desc_src, kps_tgt, desc_tgt, fld):
            window = settings.window_px / (0.5 * (fld.scale_tgt[0] + fld.scale_tgt[1]))
            return km.match_guided(kps_src, desc_src, kps_tgt, desc_tgt, fld, window)
    elif settings.variant == "model-guided":
        def step(kps_src, desc_src, kps_tgt, desc_tgt, fld):
            return km.match_model_guided(kps_src, desc_src, kps_tgt, desc_tgt, settings.band_px)
    else:
        def step(kps_src, desc_src, kps_tgt, desc_tgt, fld):
            return km.match_raw(desc_src, desc_tgt)

    def prune(ms):
        return ms if settings.ratio is None else km.ratio_test(ms, settings.ratio)

    def matcher(scene, feats):
        fld_ab = fld_ba = None  # the coarse match fields only guided reads
        if settings.variant == "guided":
            fld_ab, fld_ba = cm.compute_match_fields(model, scene.image_a, scene.image_b, settings.max_side)
        ab = prune(step(feats.kps_a, feats.desc_a, feats.kps_b, feats.desc_b, fld_ab))
        if not mutual:
            return ab
        ba = prune(step(feats.kps_b, feats.desc_b, feats.kps_a, feats.desc_a, fld_ba))
        return km.mutual_check(ab, ba)

    return matcher


def corrupt_features(feats: PairFeatures, rng: np.random.Generator, keypoint_noise_px: float, descriptor_corruption: float) -> PairFeatures:
    """Perturb keypoint positions and replace a fraction of descriptors.

    Used to stress matching pipelines: position noise is isotropic gaussian,
    corrupted descriptors become random unit vectors. The input is left as is.
    """
    def corrupt(kps, desc):
        if keypoint_noise_px > 0:
            noise = rng.normal(0.0, keypoint_noise_px, size=(len(kps), 2))
            kps = km.KeypointSet(kps.xy + noise, kps.scale, kps.response)
        vecs = desc.copy()
        if descriptor_corruption > 0 and len(vecs):
            hit = rng.random(len(vecs)) < descriptor_corruption
            fresh = rng.standard_normal((int(hit.sum()), vecs.shape[1]))
            norms = np.linalg.norm(fresh, axis=1, keepdims=True)
            vecs[hit] = fresh / np.maximum(norms, 1e-12)
        return kps, vecs

    ka, da = corrupt(feats.kps_a, feats.desc_a)
    kb, db = corrupt(feats.kps_b, feats.desc_b)
    return PairFeatures(ka, da, kb, db)


def eval_pose(
    scenes: list[SyntheticScene],
    variant: str,
    model: cm.CoarseModel | None = None,
    seed: int = 0,
    metadata: dict | None = None,
    **settings,
) -> EvalReport:
    """Match each pair, estimate the essential matrix per RANSAC threshold,
    recover the pose, and aggregate pose AUC plus fundamental-matrix recall.

    Per-pair failures (too few matches, degenerate estimation, no cheirality
    majority) count as infinite pose error and an incorrect fundamental
    matrix; they never abort the sweep. An estimated fundamental matrix is
    deemed correct when its worst Sampson error over the scene's held-out
    ground-truth pairs stays below 3 px. ``variant`` and ``settings`` build one ``EvalSettings``
    and ``make_matcher`` checks it against the model; a bad setting, the seed too, is a
    ``ConfigError`` before any work; then no scenes raise ``ValueError``.

    ``keypoint_source="gt"`` places keypoints at the scene's exact
    ground-truth correspondences instead of running the detector, which is
    the noiseless sanity mode; detector localization error otherwise bounds
    the achievable pose accuracy.
    """
    settings = EvalSettings(variant, **settings)
    matcher = make_matcher(settings, model)
    check_seed(seed, "seed")
    if not scenes:
        raise ValueError("no scenes to evaluate")
    rows = []
    for pair_index, scene in enumerate(scenes):
        feats = pair_features(scene, settings.max_keypoints, settings.keypoint_source)
        if settings.keypoint_noise_px or settings.descriptor_corruption:
            rng = np.random.default_rng(np.random.SeedSequence([seed, pair_index]))
            feats = corrupt_features(feats, rng, settings.keypoint_noise_px, settings.descriptor_corruption)
        try:
            matches = matcher(scene, feats)
            coords_a, coords_b = km.match_coords(matches, feats.kps_a, feats.kps_b)
        except km.MatchingError:
            coords_a = coords_b = np.zeros((0, 2))
        for t_index, thr in enumerate(settings.ransac_thresholds):
            row = {
                "pair": scene.seed,
                "ransac_px": thr,
                "n_matches": len(coords_a),
                "n_inliers": 0,
                "rot_deg": math.inf,
                "trans_deg": math.inf,
                "pose_err_deg": math.inf,
                "fm_correct": False,
            }
            cfg = rp.RansacConfig(
                threshold=thr, seed=int(np.random.SeedSequence([seed, pair_index, t_index]).generate_state(1)[0] % 2**31)
            )
            # fewer than 8 matches fail both fits before any RANSAC iteration
            est = rp.ransac_essential(coords_a, coords_b, scene.cam_a.K, scene.cam_b.K, cfg)
            if est.success:
                row["n_inliers"] = len(est.inliers)
                try:
                    pose = rp.recover_pose(
                        est, coords_a[est.inliers], coords_b[est.inliers], scene.cam_a.K, scene.cam_b.K
                    )
                    rot, trans = pose_error(pose, scene.pose)
                    row["rot_deg"] = rot
                    row["trans_deg"] = trans
                    row["pose_err_deg"] = max(rot, trans)
                except rp.EstimationError:
                    pass
            est_f = rp.ransac_fundamental(coords_a, coords_b, cfg)
            if est_f.success and len(scene.gt_points):
                worst = rp.sampson_distances(est_f.matrix, scene.gt_points[:, :2], scene.gt_points[:, 2:]).max()
                row["fm_correct"] = bool(worst < FM_CORRECT_SAMPSON_PX)
            rows.append(row)
    aggregates = []
    for thr in settings.ransac_thresholds:
        sub = [r for r in rows if r["ransac_px"] == thr]
        errors = [r["pose_err_deg"] for r in sub]
        agg = {"ransac_px": thr, "n_pairs": len(sub)}
        for tau, auc in zip(settings.pose_thresholds, pose_auc(errors, settings.pose_thresholds)):
            agg[f"auc_{tau:g}"] = auc
        agg["fm_recall"] = float(np.mean([r["fm_correct"] for r in sub]))
        aggregates.append(agg)
    return EvalReport(rows, aggregates, metadata or {})
