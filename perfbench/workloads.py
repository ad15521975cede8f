"""The three benchmark workloads and the output checks of their ops.

A workload is set up once from the seed; a round then runs every op of
it once. Rounds repeat the same inputs, so every round's output digests
must equal the first round's; the benchmark counts an op whose digest
differs, whose call raised, or whose output is out of range as failed.
A round also runs the workload's probe (``probe.py``) between ops, so each
op time comes with the machine speed just before and after it.

- ``train-epipolar-64``: ``supervision.train`` in epipolar mode. The tiny
  4x4x4x4 volumes make per-call overhead of the conv4d tap loops and the
  graph backward dominate; keypoint matching and RANSAC stay idle.
- ``eval-guided-256``: ``eval_pck`` and ``eval_pose(variant="guided")`` with
  the committed checkpoint; the 12x16x12x16 consensus filter dominates.
- ``eval-model-guided-256``: ``eval_pose(variant="model-guided")``, which
  never touches the coarse model: the no-change control for consensus
  filter work, and the home of detection, the per-keypoint matching loop
  and RANSAC's long tail.
"""

from __future__ import annotations

import contextlib
import hashlib
import math
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from guidematch import coarse_matcher as cm
from guidematch import evaluation as ev
from guidematch import supervision as sup
from guidematch.geometry import SceneConfig, generate_scene, save_scene

import probe

CHECKPOINT = Path(__file__).resolve().parent / "data" / "eval_epipolar60.gmck"
CHECKPOINT_SHA256 = "c5ccc39f6f53d8bd7bdc7f333b600ba48d005c13197939f00abea89a96a45aea"
PCK_THRESHOLDS = (8.0, 16.0, 32.0)
POSE_THRESHOLDS = (5.0, 10.0, 20.0)
EVAL_SCENE = SceneConfig(width=256, height=192, repeated_stamps=3)
EVAL_SEED = 0  # seeds RANSAC; fixed, like the eval scenes


class CheckpointMismatch(RuntimeError):
    pass


@dataclass
class Round:
    """What one pass over a workload's ops produced."""

    attempted: int = 0
    op_ms: dict = field(default_factory=dict)  # op key -> duration, for ops whose library call returned
    op_probe_s: dict = field(default_factory=dict)  # op key -> mean probe time just before and after it
    digests: dict = field(default_factory=dict)  # op key -> sha256 of its outputs, None if it failed
    failed: int = 0
    records: list = field(default_factory=list)  # per-op inputs to the quality numbers


def sha256_file(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def scene_seeds(seed: int, count: int) -> list[int]:
    return [int(s) for s in np.random.SeedSequence([seed]).generate_state(count)]


def _in_unit(*values) -> bool:
    return all(0.0 <= v <= 1.0 for v in values)


def _fail(what: str) -> None:
    print(f"op failed: {what}\n{traceback.format_exc()}", file=sys.stderr, flush=True)


class TrainEpipolar:
    """``sup.train``; one op is one training step, timed between batch draws."""

    name = "train-epipolar-64"
    probe = "interpreter"  # per-node Python overhead of the graph dominates

    def __init__(self, scenes: int = 8, iterations: int = 12):
        self.scenes = scenes
        self.iterations = iterations
        self.ops_per_key = iterations

    def setup(self, seed: int, workdir: Path) -> sup.TrainConfig:
        config = SceneConfig(width=64, height=64)
        for i, s in enumerate(scene_seeds(seed, self.scenes)):
            save_scene(workdir / "dataset" / f"scene_{i:04d}", generate_scene(config, s))
        return sup.TrainConfig(
            mode="epipolar",
            dataset_dir=str(workdir / "dataset"),
            out_dir=str(workdir / "train"),
            iterations=self.iterations,
            batch_size=8,
            freeze_steps=self.iterations // 2,
            seed=seed,
        )

    def run_round(self, config: sup.TrainConfig, tracer=None) -> Round:
        out = Round(attempted=self.iterations)
        marks: list[tuple] = []
        run_probe = probe.PROBES[self.probe]
        try:
            with _step_marker(marks, run_probe, tracer):
                sup.train(config)
        except Exception:  # noqa: BLE001 - a failed op is counted, the run goes on
            _fail("train")
            out.failed = self.iterations
            out.digests["train"] = None
        if out.failed:
            return out
        marks.append((time.perf_counter(), run_probe(), None))
        for step, ((_, before, start), (end, after, _)) in enumerate(zip(marks, marks[1:])):
            out.op_ms[step] = 1e3 * (end - start)
            out.op_probe_s[step] = (before + after) / 2
        curve = Path(config.out_dir) / "loss_curve.csv"
        losses = [float(line.split(",")[1]) for line in curve.read_text().splitlines()[1:]]
        if len(losses) != self.iterations or not all(math.isfinite(v) for v in losses):
            out.failed = self.iterations
            out.digests["train"] = None
            return out
        checkpoint = Path(config.out_dir) / "checkpoint_final.gmck"
        out.digests["train"] = sha256_file(curve) + sha256_file(checkpoint)
        out.records = losses
        return out

    def quality(self, first: Round) -> dict:
        if not first.records:
            return {}
        return {"loss_last10": statistics.fmean(first.records[-10:])}


@contextlib.contextmanager
def _step_marker(marks: list, run_probe, tracer):
    """Probe between steps and stamp each step start; ``train`` draws exactly one batch per step.

    ``marks`` gets (previous step's end, probe seconds, this step's start).
    """
    original = sup.BatchSampler.next_batch

    def next_batch(self):
        end = time.perf_counter()
        marks.append((end, run_probe(), time.perf_counter()))
        if tracer is not None:
            tracer.next_op()
        return original(self)

    sup.BatchSampler.next_batch = next_batch
    try:
        yield
    finally:
        sup.BatchSampler.next_batch = original


@dataclass
class EvalState:
    scenes: list
    model: cm.CoarseModel | None
    workdir: Path


class EvalPose:
    """One op is one scene pair through ``eval_pck`` (when a model is used) and ``eval_pose``.

    The pairs are scenes 0 to ``scenes - 1`` and the eval seed is ``EVAL_SEED``,
    whatever the run's seed: RANSAC's adaptive iteration count makes a pair's cost
    depend on the scene by up to 60x, so seed-drawn scenes would move
    throughput between seeds by more than any useful bound (README.md).
    """

    ops_per_key = 1

    def __init__(self, name: str, variant: str, scenes: int, probe: str):
        self.name = name
        self.variant = variant
        self.scenes = scenes
        self.probe = probe

    def setup(self, seed: int, workdir: Path) -> EvalState:
        model = None
        if self.variant == "guided":
            digest = sha256_file(CHECKPOINT)
            if digest != CHECKPOINT_SHA256:
                raise CheckpointMismatch(
                    f"{CHECKPOINT} has sha256 {digest}, expected {CHECKPOINT_SHA256}; "
                    "regenerate it with perfbench/make_checkpoint.py"
                )
            model = cm.CoarseModel.load(CHECKPOINT)
        scenes = [generate_scene(EVAL_SCENE, s) for s in range(self.scenes)]
        workdir.mkdir(parents=True, exist_ok=True)
        return EvalState(scenes, model, workdir)

    def run_round(self, state: EvalState, tracer=None) -> Round:
        out = Round(attempted=len(state.scenes))
        run_probe = probe.PROBES[self.probe]
        before = run_probe()
        for i, scene in enumerate(state.scenes):
            if tracer is not None:
                tracer.next_op()
            meta = {"variant": self.variant, "seed": EVAL_SEED, "scene": scene.seed}
            t0 = time.perf_counter()
            try:
                pck = None
                if state.model is not None:
                    pck = ev.eval_pck(state.model, [scene], PCK_THRESHOLDS, metadata=meta)
                pose = ev.eval_pose(
                    [scene], self.variant, model=state.model, pose_thresholds=POSE_THRESHOLDS,
                    seed=EVAL_SEED, metadata=meta,
                )
            except Exception:  # noqa: BLE001 - a failed op is counted, the run goes on
                _fail(f"{self.name} scene {i}")
                pose = None
            t1 = time.perf_counter()
            after = run_probe()
            digest = None
            if pose is not None:
                out.op_ms[i] = 1e3 * (t1 - t0)
                out.op_probe_s[i] = (before + after) / 2
                digest = self._check(state, scene, pck, pose)
            before = after
            out.digests[i] = digest
            if digest is None:
                out.failed += 1
            else:
                out.records.append((pck.rows[0] if pck else None, pose.rows[0]))
        return out

    def _check(self, state: EvalState, scene, pck, pose) -> str | None:
        """sha256 over the op's CSV reports, or None when a report is malformed."""
        if len(pose.rows) != 1 or len(pose.aggregates) != 1:
            return None
        agg = pose.aggregates[0]
        if not _in_unit(agg["fm_recall"], *(agg[f"auc_{t:g}"] for t in POSE_THRESHOLDS)):
            return None
        reports = [(pose, "rows"), (pose, "aggregates")]
        if pck is not None:
            row = pck.rows[0]
            if row["n_points"] != len(scene.gt_points) or not _in_unit(*(row[f"pck_{t:g}"] for t in PCK_THRESHOLDS)):
                return None
            reports.append((pck, "rows"))
        h = hashlib.sha256()
        path = state.workdir / "report.csv"
        for report, which in reports:
            report.write_csv(path, which)
            h.update(path.read_bytes())
        return h.hexdigest()

    def quality(self, first: Round) -> dict:
        if not first.records:
            return {}
        out = {}
        pck_rows = [p for p, _ in first.records if p is not None]
        if pck_rows:
            points = sum(r["n_points"] for r in pck_rows)
            for t in PCK_THRESHOLDS:
                out[f"pck_{t:g}"] = sum(r[f"below_{t:g}"] for r in pck_rows) / points
        errors = [row["pose_err_deg"] for _, row in first.records]
        for t, auc in zip(POSE_THRESHOLDS, ev.pose_auc(errors, POSE_THRESHOLDS)):
            out[f"auc_{t:g}"] = auc
        out["fm_recall"] = statistics.fmean(float(row["fm_correct"]) for _, row in first.records)
        return out


WORKLOADS = {
    "train-epipolar-64": lambda: TrainEpipolar(),
    "eval-guided-256": lambda: EvalPose("eval-guided-256", "guided", scenes=4, probe="array"),
    "eval-model-guided-256": lambda: EvalPose("eval-model-guided-256", "model-guided", scenes=16, probe="interpreter"),
}
