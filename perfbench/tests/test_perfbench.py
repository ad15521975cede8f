"""Self-tests of the benchmark harness: ``python3 -m pytest perfbench/tests``.

They run shrunken versions of the workloads and take well under a minute.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from guidematch import supervision as sup  # noqa: E402

# the spans each workload must record, from the layer map in perfbench/README.md
EXPECTED = {
    "train-epipolar-64": {
        "numerics.conv4d", "numerics.conv2d", "numerics.softmax_over", "numerics.max_over",
        "numerics.adam_step", "numerics.backward", "coarse_matcher.resize_image",
        "coarse_matcher.extract_features", "coarse_matcher.correlate", "coarse_matcher.filter_symmetric",
        "coarse_matcher.normalize_scores", "supervision.total_loss", "supervision.loss_epipolar",
    },
    "eval-guided-256": {
        "numerics.conv4d", "numerics.conv2d", "numerics.softmax_over", "coarse_matcher.resize_image",
        "coarse_matcher.extract_features", "coarse_matcher.correlate", "coarse_matcher.filter_symmetric",
        "coarse_matcher.normalize_scores", "coarse_matcher.extract_matches",
        "keypoint_matching.detect_keypoints", "keypoint_matching.describe", "keypoint_matching.match_guided",
        "keypoint_matching.mutual_check", "evaluation.eval_pck", "evaluation.eval_pose",
    },
    "eval-model-guided-256": {
        "keypoint_matching.detect_keypoints", "keypoint_matching.describe",
        "keypoint_matching.match_model_guided", "keypoint_matching.match_raw", "keypoint_matching.mutual_check",
        "robust_pose.ransac_essential", "robust_pose.ransac_fundamental", "robust_pose.recover_pose",
        "evaluation.eval_pose",
    },
}


def small(name: str):
    """The workload with fewer ops per round; the code paths are the same."""
    if name == "train-epipolar-64":
        return workloads.TrainEpipolar(scenes=4, iterations=2)
    full = workloads.WORKLOADS[name]()
    return workloads.EvalPose(full.name, full.variant, scenes=2, probe=full.probe)


def _targets():
    return [(obj, attr) for obj, attr, _, _ in spans.TARGETS]


def test_every_wrapped_name_is_mapped_to_a_workload():
    assert set().union(*EXPECTED.values()) == set(spans.SPAN_NAMES)


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_wrapped_names_record_spans_where_looked_up(name, tmp_path):
    workload = small(name)
    state = workload.setup(1, tmp_path)
    plain = workload.run_round(state)
    tracer = spans.Tracer()
    with spans.installed(tracer):
        traced = workload.run_round(state, tracer)
    recorded = {s.name for s in tracer.spans}
    assert EXPECTED[name] <= recorded, sorted(EXPECTED[name] - recorded)
    assert traced.failed == plain.failed == 0
    assert traced.digests == plain.digests  # the wrappers change no output byte


def test_wrappers_are_removed_after_a_traced_round(tmp_path):
    originals = [getattr(obj, attr) for obj, attr in _targets()]
    next_batch = sup.BatchSampler.next_batch
    workload = small("train-epipolar-64")
    state = workload.setup(1, tmp_path)
    with spans.installed(spans.Tracer()) as tracer:
        assert all(getattr(obj, attr) is not o for (obj, attr), o in zip(_targets(), originals))
        workload.run_round(state, tracer)
    assert all(getattr(obj, attr) is o for (obj, attr), o in zip(_targets(), originals))
    assert sup.BatchSampler.next_batch is next_batch
    with pytest.raises(RuntimeError):
        with spans.installed(spans.Tracer()):
            raise RuntimeError("op failed")
    assert all(getattr(obj, attr) is o for (obj, attr), o in zip(_targets(), originals))


@pytest.mark.parametrize("trace", [False, True])
def test_emitted_metrics_are_the_declared_ones(trace, tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
    result, report = run.measure(small("train-epipolar-64"), 1, 1, trace, tmp_path)
    assert set(result["metrics"]) == declared
    assert result["correct"] and result["failed"] == 0
    assert math.isfinite(report["quality"]["loss_last10"])


def test_an_output_that_differs_from_the_first_round_fails_its_op():
    first = workloads.Round(attempted=2, digests={0: "a", 1: "b"})
    again = workloads.Round(attempted=2, digests={0: "a", 1: "c"})
    assert run._compare([first, again], ops_per_key=1) == 1
    assert run._compare([first, again], ops_per_key=16) == 16


def test_op_times_are_scaled_by_the_probe_around_them():
    # the same op at 1x, 2x and 3x slowdown: the scaled times agree, the wall times do not
    rounds = [workloads.Round(op_ms={0: 100.0 * k}, op_probe_s={0: 0.002 * k}) for k in (1, 2, 3)]
    assert run.op_medians(rounds, reference_s=0.002) == pytest.approx([100.0])
    assert run.op_medians(rounds) == [200.0]


def test_checkpoint_with_wrong_sha256_is_refused(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "CHECKPOINT_SHA256", "0" * 64)
    with pytest.raises(workloads.CheckpointMismatch):
        small("eval-guided-256").setup(1, tmp_path)


def test_run_fails_without_the_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    argv = [sys.executable, "perfbench/run.py", "--workload", "eval-guided-256", "--seed", "1", "--seconds", "1"]
    done = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
