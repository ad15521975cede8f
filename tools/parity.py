"""Run a fixed CLI recipe into a directory and print a sha256 manifest of its outputs,
or compare two such directories.

    python3 tools/parity.py OUT_DIR > manifest.txt
    python3 tools/parity.py --compare BASE_DIR CHANGE_DIR

Each step is its own ``python -m guidematch`` process on the checkout's
``src/``: synth (8 scenes at 64x64, 3 at 256x192 with 3 repeated stamps,
2 at 640x480 with 3 repeated stamps, and 2 from a ``--config`` file,
written into OUT_DIR as ``synth.cfg``, that sets every scene key off its
default), a 6-step train in each supervision mode, two 6-step epipolar
trains at the frozen phase's edges (0 and all 6 steps frozen), a 4-step
epipolar and point train on the 256x192 scenes resized by a ``--config``
file written as ``train.cfg`` (max side 128, batch 2), eval-pck at two max sides,
eval-pose for raw, mutual, guided and model-guided plus a stress run and
a ground-truth-keypoint run, a model-guided eval-pose on the 640x480
scenes (860 to 1150 suppression candidates per image, so that the
detector's neighbour search meets many candidates), one guided match and
one BA coarse-match field. The guided steps read the benchmark's committed
checkpoint and change nothing there. OUT_DIR must not exist yet.

The manifest has one ``<sha256>  <path>`` line per output file, sorted by
path relative to OUT_DIR, so ``sha256sum -c`` can check it from inside
OUT_DIR. Two runs of one checkout must print the same manifest (the CLI is
byte-deterministic across processes); two checkouts with the same manifest
produce byte-identical outputs on this recipe.

``--compare`` says how far two runs' outputs are apart, say a base
commit's and a change's. For each file whose sha256 differs it prints one
line per field that moved, ``<path>  <field>  max_abs A  max_rel R``:
a checkpoint's fields are its arrays, a CSV file's its header's columns
and another text file's the whitespace-separated columns of its lines,
counted from 0. R is A over the field's largest magnitude in BASE_DIR. A
file whose text or layout differs beyond its numbers (a changed word, row
or shape), a binary file and a file only one side has get one line that
says so. The last line counts the files that differ; the exit status is 0
when none does, else 1.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
from guidematch.numerics import load_checkpoint  # noqa: E402

CHECKPOINT = ROOT / "perfbench" / "data" / "eval_epipolar60.gmck"
MODES = ("image", "epipolar", "point")
# every SceneConfig key, each off its default
SYNTH_CONFIG = """\
width = 128
height = 96
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
        ["synth", "--scenes", "2", "--width", "640", "--height", "480", "--repeated", "3", "--seed", "200",
         "--out", str(out / "synth640")],
    ]
    for mode in MODES:
        steps.append(["train", "--mode", mode, "--dataset", train_set, "--iterations", "6", "--freeze-steps", "3",
                      "--seed", "0", "--out", str(out / f"train_{mode}")])
    for freeze in ("0", "6"):
        steps.append(["train", "--mode", "epipolar", "--dataset", train_set, "--iterations", "6", "--freeze-steps",
                      freeze, "--seed", "0", "--out", str(out / f"train_epipolar_freeze{freeze}")])
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
    steps.append(["eval-pose", "--dataset", str(out / "synth640"), "--variant", "model-guided",
                  "--out", str(out / "pose_model-guided_640")])
    scene = str(out / "synth256" / "scene_0000")
    steps.append(["match", "--scene-dir", scene, "--variant", "guided", "--checkpoint", ckpt,
                  "--out", str(out / "match_guided.csv")])
    steps.append(["coarse-match", "--checkpoint", ckpt, "--scene-dir", scene, "--direction", "BA",
                  "--out", str(out / "field_ba.txt")])
    return steps


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def manifest(out: Path) -> list[str]:
    files = sorted(p for p in out.rglob("*") if p.is_file())
    return [f"{_sha256(p)}  {p.relative_to(out).as_posix()}" for p in files]


def _number(token: str) -> float | None:
    try:
        return float(token)
    except ValueError:
        return None


def _fields(path: Path):
    """(layout, {field: values}) of an output file, or None for a binary one.

    The layout is everything but the numbers, so two files with the same
    layout differ only in the values of their fields.
    """
    if path.suffix == ".gmck":
        arrays = load_checkpoint(path)
        return [(name, a.shape) for name, a in arrays.items()], {name: a.ravel() for name, a in arrays.items()}
    try:
        lines = path.read_text().splitlines()
    except UnicodeDecodeError:
        return None
    csv = path.suffix == ".csv"
    layout, fields, header = [], {}, None
    for line in lines:
        if csv and (line.startswith("#") or header is None):
            layout.append(line)
            if not line.startswith("#"):
                header = line.split(",")
            continue
        cells = line.split(",") if csv else line.split()
        for j, cell in enumerate(cells):
            value = _number(cell)
            if value is None:
                layout.append(cell)
            else:
                name = header[j] if csv and j < len(header) else f"col {j}"
                fields.setdefault(name, []).append(value)
                layout.append((name, None))
        layout.append("\n")
    return layout, {name: np.array(values) for name, values in fields.items()}


def _spread(base: np.ndarray, change: np.ndarray) -> tuple[float, float]:
    """The largest |change - base| and that over the largest non-nan |base|;
    equal values, infinities and nans included, differ by 0."""
    with np.errstate(invalid="ignore"):
        diff = np.abs(change - base)
    diff[(base == change) | (np.isnan(base) & np.isnan(change))] = 0.0
    largest, scale = float(np.max(diff)), float(np.max(np.abs(base), where=~np.isnan(base), initial=0.0))
    return largest, largest / scale if scale else (float("inf") if largest else 0.0)


def compare(base: Path, change: Path) -> list[str]:
    """The report lines of ``--compare`` (see the module docstring)."""
    paths = {p.relative_to(root).as_posix() for root in (base, change) for p in root.rglob("*") if p.is_file()}
    lines, differ = [], 0
    for rel in sorted(paths):
        old, new = base / rel, change / rel
        if not (old.is_file() and new.is_file()):
            lines.append(f"{rel}  only in {base if old.is_file() else change}")
            differ += 1
            continue
        if _sha256(old) == _sha256(new):
            continue
        differ += 1
        old_fields, new_fields = _fields(old), _fields(new)
        if old_fields is None:
            lines.append(f"{rel}  binary files differ")
        elif old_fields[0] != new_fields[0]:
            lines.append(f"{rel}  layout differs beyond its numbers")
        else:
            moved = [(name, *_spread(a, new_fields[1][name])) for name, a in old_fields[1].items()]
            moved = [line for line in moved if line[1] != 0.0]
            lines += [f"{rel}  {name}  max_abs {a:.3g}  max_rel {r:.3g}" for name, a, r in moved]
            if not moved:
                lines.append(f"{rel}  same numbers, different bytes")
    lines.append(f"{differ} of {len(paths)} files differ")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("out", type=Path, nargs="?", help="output directory; must not exist yet")
    parser.add_argument("--compare", type=Path, nargs=2, metavar=("BASE_DIR", "CHANGE_DIR"),
                        help="compare two output directories instead of running the recipe")
    args = parser.parse_args(argv)
    if (args.out is None) == (args.compare is None):
        parser.error("give either OUT_DIR or --compare BASE_DIR CHANGE_DIR")
    if args.compare:
        for path in args.compare:
            if not path.is_dir():
                parser.error(f"{path} is not a directory")
        lines = compare(*args.compare)
        print("\n".join(lines))
        return 0 if lines[-1].startswith("0 of") else 1
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
