"""Timed wrappers around the library's layer functions, and the metrics their spans give.

A traced round swaps module attributes (and one class attribute,
``Tensor.backward``) for wrappers that record one span per call: name,
start, end, parent span and op id. Nothing under ``src/`` knows about it.

A name bound with ``from x import y`` is looked up in the importing module,
so it is wrapped there: ``adam_step`` is wrapped on ``guidematch.supervision``,
which is where ``train`` finds it. Wrapping it on ``guidematch.numerics``
instead would record nothing.
"""

from __future__ import annotations

import contextlib
import functools
import math
import time
from collections import Counter
from dataclasses import dataclass

from guidematch import coarse_matcher, evaluation, keypoint_matching, numerics, robust_pose, supervision
from guidematch.numerics.tensor import Tensor

LAYERS = ("numerics", "coarse_matcher", "supervision", "keypoint_matching", "robust_pose", "evaluation")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a top-level call
    op: int  # op id the call belongs to, -1 outside any op


class Tracer:
    """In-memory span store plus counters filled by the per-call observers."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.op = -1  # id of the current op; ids count up over the whole run
        self._stack: list[int] = []

    def next_op(self) -> None:
        """Attribute the following calls to a new op."""
        self.op += 1

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), math.nan, parent, self.op))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack.pop()


# -- per-call observers: counts measured where the work happens -----------------


def _observe_conv4d(tracer, args, kwargs, out):
    x, kernel = args[0], args[1]
    c_out, c_in = kernel.shape[:2]
    cells = math.prod(x.shape[1:])
    # computed from shapes, not counted: one multiply-add per tap, input
    # channel, output channel and cell; each operand read or written once
    tracer.counts["conv4d.flop"] += 2 * c_out * c_in * 81 * cells
    tracer.counts["conv4d.bytes"] += out.data.itemsize * (c_in * cells + c_out * cells + kernel.data.size)


def _observe_detect(tracer, args, kwargs, out):
    tracer.counts["detect.images"] += 1
    tracer.counts["detect.keypoints"] += len(out)


def _observe_mutual(tracer, args, kwargs, out):
    tracer.counts["mutual.offered"] += len(args[0])
    tracer.counts["mutual.kept"] += len(out)


def _observe_ransac(tracer, args, kwargs, out):
    tracer.counts["ransac.calls"] += 1
    tracer.counts["ransac.iterations"] += out.iterations
    tracer.counts["ransac.points"] += len(args[0])
    tracer.counts["ransac.inliers"] += len(out.inliers)
    tracer.counts["ransac.success"] += bool(out.success)


def _observe_eval_pose(tracer, args, kwargs, out):
    tracer.counts["pose.rows"] += len(out.rows)
    tracer.counts["pose.failed"] += sum(not math.isfinite(r["pose_err_deg"]) for r in out.rows)


# (owner, attribute, span name, observer)
TARGETS = (
    (numerics, "conv4d", "numerics.conv4d", _observe_conv4d),
    (numerics, "conv2d", "numerics.conv2d", None),
    (numerics, "softmax_over", "numerics.softmax_over", None),
    (numerics, "max_over", "numerics.max_over", None),
    (supervision, "adam_step", "numerics.adam_step", None),
    (Tensor, "backward", "numerics.backward", None),
    (coarse_matcher, "resize_image", "coarse_matcher.resize_image", None),
    (coarse_matcher, "extract_features", "coarse_matcher.extract_features", None),
    (coarse_matcher, "correlate", "coarse_matcher.correlate", None),
    (coarse_matcher, "filter_symmetric", "coarse_matcher.filter_symmetric", None),
    (coarse_matcher, "normalize_scores", "coarse_matcher.normalize_scores", None),
    (coarse_matcher, "extract_matches", "coarse_matcher.extract_matches", None),
    (supervision, "total_loss", "supervision.total_loss", None),
    (supervision, "loss_epipolar", "supervision.loss_epipolar", None),
    (keypoint_matching, "detect_keypoints", "keypoint_matching.detect_keypoints", _observe_detect),
    (keypoint_matching, "describe", "keypoint_matching.describe", None),
    (keypoint_matching, "match_raw", "keypoint_matching.match_raw", None),
    (keypoint_matching, "match_guided", "keypoint_matching.match_guided", None),
    (keypoint_matching, "match_model_guided", "keypoint_matching.match_model_guided", None),
    (keypoint_matching, "mutual_check", "keypoint_matching.mutual_check", _observe_mutual),
    (robust_pose, "ransac_essential", "robust_pose.ransac_essential", _observe_ransac),
    (robust_pose, "ransac_fundamental", "robust_pose.ransac_fundamental", _observe_ransac),
    (robust_pose, "recover_pose", "robust_pose.recover_pose", None),
    (evaluation, "eval_pck", "evaluation.eval_pck", None),
    (evaluation, "eval_pose", "evaluation.eval_pose", _observe_eval_pose),
)

SPAN_NAMES = tuple(name for _, _, name, _ in TARGETS)


def _timed(tracer: Tracer, name: str, fn, observe):
    @functools.wraps(fn)
    def timed(*args, **kwargs):
        index = tracer.open(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.close(index)
        if observe is not None:
            observe(tracer, args, kwargs, out)
        return out

    return timed


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Swap every target for its timed wrapper; put the originals back on exit."""
    saved = []
    try:
        for obj, attr, name, observe in TARGETS:
            original = getattr(obj, attr)
            setattr(obj, attr, _timed(tracer, name, original, observe))
            saved.append((obj, attr, original))
        yield tracer
    finally:
        for obj, attr, original in reversed(saved):
            setattr(obj, attr, original)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part its direct children cover."""
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.end - s.start
    return own


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, ops: int, overhead_ms: float) -> dict[str, float]:
    """Per-layer numbers of one traced round of ``ops`` ops; idle layers read 0."""
    total = Counter()
    calls = Counter()
    for s in tracer.spans:
        total[s.name] += s.end - s.start
        calls[s.name] += 1
    own = Counter()
    for s, t in zip(tracer.spans, self_times(tracer.spans)):
        own[s.name.partition(".")[0]] += t
    c = tracer.counts
    out = {f"{name}.ms": 1e3 * total[name] / ops for name in SPAN_NAMES}
    out.update({f"{layer}.self_ms": 1e3 * own[layer] / ops for layer in LAYERS})
    out["numerics.conv4d.calls"] = calls["numerics.conv4d"] / ops
    out["numerics.conv4d.gflop"] = c["conv4d.flop"] / ops / 1e9
    out["numerics.conv4d.gflop_per_s"] = _ratio(c["conv4d.flop"] / 1e9, total["numerics.conv4d"])
    out["numerics.conv4d.mb_computed"] = c["conv4d.bytes"] / ops / 1e6
    out["keypoint_matching.keypoints_per_image"] = _ratio(c["detect.keypoints"], c["detect.images"])
    out["keypoint_matching.mutual_keep_ratio"] = _ratio(c["mutual.kept"], c["mutual.offered"])
    out["robust_pose.iterations"] = c["ransac.iterations"] / ops
    out["robust_pose.inlier_ratio"] = _ratio(c["ransac.inliers"], c["ransac.points"])
    out["robust_pose.success_ratio"] = _ratio(c["ransac.success"], c["ransac.calls"])
    out["evaluation.pose_fail_ratio"] = _ratio(c["pose.failed"], c["pose.rows"])
    out["trace.overhead_ms"] = overhead_ms
    return out
