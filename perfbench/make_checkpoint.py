"""Regenerate the checkpoint the eval-guided-256 workload evaluates.

    python3 perfbench/make_checkpoint.py

Runs the CLI recipe below from the root of a source checkout, copies the
result to ``perfbench/data/eval_epipolar60.gmck`` and prints its sha256.
If the sha256 differs from ``workloads.CHECKPOINT_SHA256``, training
changed: the benchmark refuses the new file until that constant is updated
on purpose. The run takes about 25 s on a 2-core x86 machine.

    guidematch synth --scenes 8 --width 64 --height 64 --seed 0 --out DATA
    guidematch train --mode epipolar --dataset DATA --out TRAIN \\
        --iterations 60 --freeze-steps 30 --seed 0
"""

from __future__ import annotations

import shutil
import sys
import tempfile
from pathlib import Path

from run import OUT_DIR, ROOT, cap_blas_threads


def main() -> int:
    cap_blas_threads()
    sys.path[:0] = [str(ROOT / "src")]
    from guidematch.cli import run_cli
    from workloads import CHECKPOINT, CHECKPOINT_SHA256, sha256_file

    OUT_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="checkpoint-", dir=OUT_DIR))
    try:
        data, train = work / "data", work / "train"
        steps = (
            ["synth", "--scenes", "8", "--width", "64", "--height", "64", "--seed", "0", "--out", str(data)],
            ["train", "--mode", "epipolar", "--dataset", str(data), "--out", str(train),
             "--iterations", "60", "--freeze-steps", "30", "--seed", "0"],
        )
        for argv in steps:
            if run_cli(argv) != 0:
                return 2
        CHECKPOINT.parent.mkdir(exist_ok=True)
        shutil.copyfile(train / "checkpoint_final.gmck", CHECKPOINT)
    finally:
        shutil.rmtree(work)
    digest = sha256_file(CHECKPOINT)
    print(f"{CHECKPOINT.relative_to(ROOT)} sha256 {digest}")
    if digest != CHECKPOINT_SHA256:
        print(f"differs from workloads.CHECKPOINT_SHA256 = {CHECKPOINT_SHA256}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
