"""Command-line surface.

Subcommands: synth, train, coarse-match, match, eval-pck, eval-pose.
Exit codes: 0 success, 1 usage error, 2 runtime failure. A usage error is a
``ConfigError``: the library checks every setting it takes (a flag or a
--config key) before any work, the CLI only flag syntax, --out and synth's
--scenes and --seed, so it writes nothing. A plain ``ValueError`` exits 2.
Every command accepts --out, and only synth and train accept --config. Only
synth, train and eval-pose draw random numbers, so only they accept --seed
(default 0; train's --seed beats its config file's seed). Outputs are
byte-deterministic for a fixed seed. match and eval-pose share one set of
matching flags, from --variant to --max-keypoints. These but --variant, and
eval-pose's threshold and keypoint flags, take their defaults from the fields
of ``evaluation.EvalSettings``, and eval-pose's config_hash is that object's.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from guidematch import ConfigError, check_seed
from guidematch import coarse_matcher as cm
from guidematch import evaluation as ev
from guidematch import keypoint_matching as km
from guidematch import supervision as sup
from guidematch.geometry import SceneConfig, generate_scene, load_scene, load_scene_dir, save_scene
from guidematch.geometry.scene import load_config


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def _add_out(p: argparse.ArgumentParser):
    p.add_argument("--out", default=None, help="output path or directory")


def _add_matching(p: argparse.ArgumentParser, default_variant: str):
    p.add_argument("--variant", choices=ev.POSE_VARIANTS, default=default_variant)
    p.add_argument("--checkpoint", default=None, help="coarse model, required by the guided variant")
    p.add_argument("--window", type=float, default=None, help="guidance window, resized-image pixels")
    p.add_argument("--ratio", type=float, default=None)
    p.add_argument("--band", type=float, default=None, help="epipolar band of model-guided, pixels")
    p.add_argument("--max-side", type=int, default=None)
    p.add_argument("--max-keypoints", type=int, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="guidematch", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("synth", help="generate synthetic scene archives")
    _add_out(p)
    p.add_argument("--seed", type=int, default=0, help="seed of the first scene")
    p.add_argument("--config", default=None, help="key = value config file")
    p.add_argument("--scenes", type=int, default=10)
    p.add_argument("--width", type=int, default=None)
    p.add_argument("--height", type=int, default=None)
    p.add_argument("--planes", type=int, default=None)
    p.add_argument("--repeated", type=int, default=None, help="repeated texture stamps per scene")

    p = subs.add_parser("train", help="train the coarse matcher")
    _add_out(p)
    p.add_argument("--seed", type=int, default=None, help="rng seed (beats the config file; default 0)")
    p.add_argument("--config", default=None, help="key = value config file")
    p.add_argument("--mode", choices=sup.MODES, default=None)
    p.add_argument("--dataset", default=None, help="scene archive directory")
    p.add_argument("--iterations", type=int, default=None)
    p.add_argument("--lr", type=float, default=None)
    p.add_argument("--freeze-steps", type=int, default=None)

    p = subs.add_parser("coarse-match", help="write the coarse match field of a pair")
    _add_out(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--scene-dir", required=True)
    p.add_argument("--direction", choices=("AB", "BA"), default="AB")
    p.add_argument("--max-side", type=int, default=cm.EVAL_MAX_SIDE)

    p = subs.add_parser("match", help="match keypoints of a scene pair, write CSV")
    _add_out(p)
    p.add_argument("--scene-dir", required=True)
    _add_matching(p, "raw")

    p = subs.add_parser("eval-pck", help="coarse-match accuracy over a scene set")
    _add_out(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--thresholds", default=None)
    p.add_argument("--max-side", type=int, default=cm.EVAL_MAX_SIDE)

    p = subs.add_parser("eval-pose", help="two-view pose accuracy over a scene set")
    _add_out(p)
    p.add_argument("--seed", type=int, default=0, help="rng seed of the per-pair stress draws and RANSAC")
    p.add_argument("--dataset", required=True)
    _add_matching(p, "mutual")
    p.add_argument("--ransac-thresholds", default=None)
    p.add_argument("--pose-thresholds", default=None)
    p.add_argument("--keypoint-source", choices=ev.KEYPOINT_SOURCES, default=None)
    p.add_argument("--keypoint-noise", type=float, default=None)
    p.add_argument("--descriptor-corruption", type=float, default=None)

    return parser


def _numbers(text: str | None, flag: str) -> list[float] | None:
    """The comma-separated numbers of ``flag``, None when it is unset; the library checks their values."""
    if text is None:
        return None
    try:
        return [float(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise ConfigError(f"{flag} must be comma-separated numbers, got {text!r}") from None


def _require_out(args) -> Path:
    if args.out is None:
        raise ConfigError("--out is required for this command")
    return Path(args.out)


def _cmd_synth(args) -> int:
    out = _require_out(args)
    if args.scenes < 1:
        raise ConfigError(f"--scenes must be at least 1, got {args.scenes}")
    check_seed(args.seed, "--seed")
    config = load_config(
        args.config, SceneConfig,
        width=args.width, height=args.height, n_planes=args.planes, repeated_stamps=args.repeated,
    )
    out.mkdir(parents=True, exist_ok=True)
    for i in range(args.scenes):
        scene = generate_scene(config, args.seed + i)
        save_scene(out / f"scene_{i:04d}", scene)
    print(f"wrote {args.scenes} scenes to {out}")
    return 0


def _cmd_train(args) -> int:
    config = load_config(
        args.config, sup.TrainConfig, mode=args.mode, dataset_dir=args.dataset, out_dir=args.out,
        iterations=args.iterations, lr=args.lr, freeze_steps=args.freeze_steps, seed=args.seed,
    )
    print(f"checkpoint: {sup.train(config)}")
    print(f"loss curve: {Path(config.out_dir) / 'loss_curve.csv'}")
    return 0


def _cmd_coarse_match(args) -> int:
    out = _require_out(args)
    model = cm.CoarseModel.load(args.checkpoint)
    scene = load_scene(args.scene_dir)
    ab, ba = cm.compute_match_fields(model, scene.image_a, scene.image_b, args.max_side)
    field = ab if args.direction == "AB" else ba
    out.parent.mkdir(parents=True, exist_ok=True)
    cm.write_match_field(out, field)
    print(f"wrote {field.target_cells.shape[0] * field.target_cells.shape[1]} cells to {out}")
    return 0


def _matching(args, **flags) -> tuple[cm.CoarseModel | None, ev.EvalSettings]:
    """The coarse model and the settings of the ``_add_matching`` flags and ``flags``."""
    settings = load_config(
        None, ev.EvalSettings, variant=args.variant, window_px=args.window, ratio=args.ratio,
        band_px=args.band, max_side=args.max_side, max_keypoints=args.max_keypoints, **flags,
    )
    model = cm.CoarseModel.load(args.checkpoint) if args.checkpoint else None
    return model, settings


def _cmd_match(args) -> int:
    out = _require_out(args)
    model, settings = _matching(args)
    matcher = ev.make_matcher(settings, model)
    scene = load_scene(args.scene_dir)
    feats = ev.pair_features(scene, settings.max_keypoints, settings.keypoint_source)
    matches = matcher(scene, feats)
    out.parent.mkdir(parents=True, exist_ok=True)
    km.save_matches(out, matches, feats.kps_a, feats.kps_b)
    print(f"wrote {len(matches)} matches to {out}")
    return 0


def _cmd_eval_pck(args) -> int:
    out = _require_out(args)
    thresholds = ev.PCK_THRESHOLDS if args.thresholds is None else _numbers(args.thresholds, "--thresholds")
    model = cm.CoarseModel.load(args.checkpoint)
    scenes = load_scene_dir(args.dataset)
    # one spelling per value, so 8,16,32 and 8.0,16,32 hash alike
    spelled = ",".join(repr(t).removesuffix(".0") for t in thresholds)
    meta = {
        "checkpoint": Path(args.checkpoint).name,
        "config_hash": ev.config_digest(
            {"thresholds": spelled, "max_side": args.max_side, "dataset": Path(args.dataset).name}
        ),
    }
    report = ev.eval_pck(model, scenes, thresholds, args.max_side, metadata=meta)
    out.mkdir(parents=True, exist_ok=True)
    report.write_csv(out / "pck.csv", "rows")
    agg = report.aggregates[0]
    print(", ".join(f"pck@{t:g} = {agg[f'pck_{t:g}']:.4f}" for t in thresholds))
    print(f"report: {out / 'pck.csv'}")
    return 0


def _cmd_eval_pose(args) -> int:
    out = _require_out(args)
    model, settings = _matching(
        args,
        ransac_thresholds=_numbers(args.ransac_thresholds, "--ransac-thresholds"),
        pose_thresholds=_numbers(args.pose_thresholds, "--pose-thresholds"),
        keypoint_source=args.keypoint_source,
        keypoint_noise_px=args.keypoint_noise,
        descriptor_corruption=args.descriptor_corruption,
    )
    scenes = load_scene_dir(args.dataset)
    meta = {
        "variant": settings.variant,
        "seed": args.seed,
        "checkpoint": Path(args.checkpoint).name if args.checkpoint else "none",
        "config_hash": settings.config_hash(Path(args.dataset).name),
    }
    report = ev.eval_pose(scenes, model=model, seed=args.seed, metadata=meta, **vars(settings))
    out.mkdir(parents=True, exist_ok=True)
    report.write_csv(out / "pose_pairs.csv", "rows")
    report.write_csv(out / "pose_summary.csv", "aggregates")
    for agg in report.aggregates:
        stats = ", ".join(f"auc@{t:g} = {agg[f'auc_{t:g}']:.4f}" for t in settings.pose_thresholds)
        print(f"ransac {agg['ransac_px']:g} px: {stats}, fm_recall = {agg['fm_recall']:.4f}")
    print(f"reports: {out / 'pose_pairs.csv'}, {out / 'pose_summary.csv'}")
    return 0


_COMMANDS = {
    "synth": _cmd_synth,
    "train": _cmd_train,
    "coarse-match": _cmd_coarse_match,
    "match": _cmd_match,
    "eval-pck": _cmd_eval_pck,
    "eval-pose": _cmd_eval_pose,
}


def run_cli(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    except SystemExit as exc:  # argparse --help
        code = exc.code if isinstance(exc.code, int) else 0
        return code
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
