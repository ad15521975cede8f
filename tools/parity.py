"""Run a fixed CLI recipe into a directory and print a sha256 manifest of its outputs.

    python3 tools/parity.py OUT_DIR > manifest.txt

Each step is its own ``python -m guidematch`` process on the checkout's
``src/``: synth (8 scenes at 64x64, 3 at 256x192 with 3 repeated stamps,
and 2 from a ``--config`` file, written into OUT_DIR as ``synth.cfg``, that
sets every scene key off its default), a 6-step train in each supervision
mode, a 4-step epipolar and point train on the 256x192 scenes resized by a
``--config`` file written as ``train.cfg`` (max side 128, batch 2),
eval-pck at two max sides, eval-pose for raw, mutual, guided and
model-guided plus a stress run and a ground-truth-keypoint run, one guided
match and one BA coarse-match field. The guided steps read the benchmark's committed
checkpoint and change nothing there. OUT_DIR must not exist yet.

The manifest has one ``<sha256>  <path>`` line per output file, sorted by
path relative to OUT_DIR, so ``sha256sum -c`` can check it from inside
OUT_DIR. Two runs of one checkout must print the same manifest (the CLI is
byte-deterministic across processes); two checkouts with the same manifest
produce byte-identical outputs on this recipe.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CHECKPOINT = ROOT / "perfbench" / "data" / "eval_epipolar60.gmck"
MODES = ("image", "epipolar", "point")
# every SceneConfig key, each off its default
SYNTH_CONFIG = """\
width = 128
height = 96
stride = 32
n_planes = 3
tilt_max = 0.1
texel_px = 3
repeated_stamps = 2
stamp_px = 20
stamp_min_sep_px = 60
background_amplitude = 0.5
n_gt_points = 40
"""
# resizes the 256x192 scenes, so the training labels read a rescaled F
TRAIN_CONFIG = """\
max_side = 128
batch_size = 2
"""


def recipe(out: Path) -> list[list[str]]:
    """The CLI argument lists, in run order, writing everything under ``out``."""
    train_set, eval_set = str(out / "synth64"), str(out / "synth256")
    ckpt = str(CHECKPOINT)
    steps = [
        ["synth", "--scenes", "8", "--width", "64", "--height", "64", "--seed", "0", "--out", train_set],
        ["synth", "--scenes", "3", "--width", "256", "--height", "192", "--repeated", "3", "--seed", "100",
         "--out", eval_set],
        ["synth", "--scenes", "2", "--config", str(out / "synth.cfg"), "--seed", "200",
         "--out", str(out / "synth_cfg")],
    ]
    for mode in MODES:
        steps.append(["train", "--mode", mode, "--dataset", train_set, "--iterations", "6", "--freeze-steps", "3",
                      "--seed", "0", "--out", str(out / f"train_{mode}")])
    for mode in ("epipolar", "point"):
        steps.append(["train", "--config", str(out / "train.cfg"), "--mode", mode, "--dataset", eval_set,
                      "--iterations", "4", "--freeze-steps", "2", "--seed", "0", "--out", str(out / f"train256_{mode}")])
    steps.append(["eval-pck", "--checkpoint", ckpt, "--dataset", eval_set, "--out", str(out / "pck")])
    steps.append(["eval-pck", "--checkpoint", ckpt, "--dataset", eval_set, "--max-side", "128",
                  "--out", str(out / "pck_128")])
    for variant in ("raw", "mutual", "guided", "model-guided"):
        steps.append(["eval-pose", "--dataset", eval_set, "--variant", variant, "--checkpoint", ckpt,
                      "--out", str(out / f"pose_{variant}")])
    steps.append(["eval-pose", "--dataset", eval_set, "--variant", "ratio+mutual", "--ratio", "0.9",
                  "--keypoint-noise", "1.5", "--descriptor-corruption", "0.2", "--ransac-thresholds", "1,2",
                  "--out", str(out / "pose_stress")])
    steps.append(["eval-pose", "--dataset", eval_set, "--variant", "guided", "--checkpoint", ckpt,
                  "--keypoint-source", "gt", "--window", "48", "--max-side", "128", "--out", str(out / "pose_gt")])
    scene = str(out / "synth256" / "scene_0000")
    steps.append(["match", "--scene-dir", scene, "--variant", "guided", "--checkpoint", ckpt,
                  "--out", str(out / "match_guided.csv")])
    steps.append(["coarse-match", "--checkpoint", ckpt, "--scene-dir", scene, "--direction", "BA",
                  "--out", str(out / "field_ba.txt")])
    return steps


def manifest(out: Path) -> list[str]:
    files = sorted(p for p in out.rglob("*") if p.is_file())
    return [f"{hashlib.sha256(p.read_bytes()).hexdigest()}  {p.relative_to(out).as_posix()}" for p in files]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("out", type=Path, help="output directory; must not exist yet")
    args = parser.parse_args(argv)
    if args.out.exists():
        parser.error(f"{args.out} already exists")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    out = args.out.resolve()
    out.mkdir(parents=True)
    (out / "synth.cfg").write_text(SYNTH_CONFIG)
    (out / "train.cfg").write_text(TRAIN_CONFIG)
    for step in recipe(out):
        done = subprocess.run([sys.executable, "-m", "guidematch", *step], env=env, capture_output=True, text=True)
        if done.returncode != 0:
            sys.stderr.write(f"step failed (exit {done.returncode}): {' '.join(step)}\n{done.stderr}")
            return 1
    print("\n".join(manifest(args.out)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
