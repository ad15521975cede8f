"""Benchmark of the guidematch library entry points the CLI calls.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the library is imported from
``src/``. A run sets its workload up five times (``setup_s`` is the
median), then measures whole rounds of the workload's ops until at least
``--seconds`` have passed, with at least two rounds so every output digest
is compared with a repeat.

Times are taken at reference machine speed: each set-up and op time is
divided by the mean time of the workload's probe (``probe.py``) just before
and after it, then multiplied by the probe's reference time. An op's time is
the median of that over the rounds. Raw wall-clock figures are in the report.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` alternates untraced and traced rounds over the same inputs
and reports the per-layer metrics of the traced ones; their output digests
must equal the untraced rounds' byte for byte, and the median difference
between an op's traced and untraced time is the tracing overhead. The spans are written to
``.perfbench/`` under the checkout.

The last line of stdout is the result as JSON; the line before it is a
report with machine info, output digests and the quality numbers (PCK,
pose AUC, loss), which are not metrics because they do not apply to every
workload. An op that raises or fails its output check counts in
``failed``; a missing library or a checkpoint with the wrong sha256 ends
the run with exit code 2 and no result.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"
SETUP_REPEATS = 5
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def cap_blas_threads() -> int:
    """Cap BLAS threads at the usable cores; must run before numpy is imported."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        value = os.environ.get(var, "")
        if not value.isdigit() or not 1 <= int(value) <= nproc:
            os.environ[var] = str(nproc)
    return nproc


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _blas_threads(np) -> int | None:
    """Thread count OpenBLAS reports, or None where that cannot be asked."""
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_info(nproc: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": nproc,
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": _blas_threads(np),
        "blas_thread_env": {var: os.environ[var] for var in BLAS_THREAD_VARS},
    }


def _compare(rounds, ops_per_key: int) -> int:
    """Ops whose outputs differ from the first round's."""
    first = rounds[0].digests
    bad = 0
    for r in rounds[1:]:
        for key, digest in r.digests.items():
            if digest is not None and first.get(key) is not None and digest != first[key]:
                print(f"digest mismatch on op {key!r}", file=sys.stderr)
                bad += ops_per_key
    return bad


def op_medians(rounds, reference_s: float | None = None) -> list[float]:
    """Each op's median time over the rounds, in ms.

    With ``reference_s`` the times are at reference machine speed: other
    tenants of a shared machine slow everything this process runs by up to
    2x, in stretches from under a second to minutes, and the probe run just
    before and after an op slows down with it, so the ratio holds. Without
    it they are raw wall time.
    """
    samples = {}
    for r in rounds:
        for key, ms in r.op_ms.items():
            scale = 1.0 if reference_s is None else reference_s / r.op_probe_s[key]
            samples.setdefault(key, []).append(ms * scale)
    return [statistics.median(v) for v in samples.values()]


def measure(workload, seed: int, seconds: int, trace: bool, workdir: Path) -> tuple[dict, dict]:
    import probe
    import spans

    run_probe, reference_s = probe.PROBES[workload.probe], probe.REFERENCE_S[workload.probe]
    warm_up_s = probe.warm_up(run_probe, reference_s)
    setup_s, setup_wall_s = [], []
    for k in range(SETUP_REPEATS):
        before = run_probe()
        t0 = time.perf_counter()
        state = workload.setup(seed, workdir / f"setup{k}")
        setup_wall_s.append(time.perf_counter() - t0)
        setup_s.append(setup_wall_s[-1] * reference_s / ((before + run_probe()) / 2))

    rounds, plain, traced = [], [], []
    tracer = spans.Tracer()
    t0 = time.perf_counter()
    while len(rounds) < 2 or time.perf_counter() - t0 < seconds:
        plain.append(workload.run_round(state))
        rounds.append(plain[-1])
        if trace:
            with spans.installed(tracer):
                traced.append(workload.run_round(state, tracer))
            rounds.append(traced[-1])

    failed = sum(r.failed for r in rounds) + _compare(rounds, workload.ops_per_key)
    attempted = sum(r.attempted for r in rounds)
    op_ms = sorted(ms for r in rounds for ms in r.op_ms.values())
    report = {
        "workload": workload.name,
        "seed": seed,
        "trace": int(trace),
        "rounds": len(rounds),
        "ops": attempted,
        "error_rate": failed / attempted,
        "op_ms_all_rounds": {"n": len(op_ms), "p50": statistics.median(op_ms) if op_ms else None},
        "setup_s_samples": setup_s,
        "setup_wall_s_samples": setup_wall_s,
        "probe_warm_up_s": warm_up_s,
        "quality": workload.quality(rounds[0]),
        "outputs": {str(k): v for k, v in rounds[0].digests.items()},
    }
    if len(op_ms) >= 100:
        report["op_ms_all_rounds"]["p90"] = statistics.quantiles(op_ms, n=10)[-1]
    if trace:
        # same op traced minus untraced; the median keeps first-call warm-up out
        deltas = [ms - pl.op_ms[key] for tr, pl in zip(traced, plain)
                  for key, ms in tr.op_ms.items() if key in pl.op_ms]
        overhead_ms = statistics.median(deltas) if deltas else 0.0
        metrics = spans.layer_metrics(tracer, sum(r.attempted for r in traced), overhead_ms)
        OUT_DIR.mkdir(exist_ok=True)
        spans_file = OUT_DIR / f"spans-{workload.name}-seed{seed}.jsonl"
        spans_file.write_text("".join(json.dumps(vars(s)) + "\n" for s in tracer.spans))
        report["spans_file"] = str(spans_file.relative_to(ROOT))
    else:
        costs = op_medians(rounds, reference_s)
        if not costs:
            raise RuntimeError(f"no {workload.name} op completed; the errors are above")
        metrics = {
            "setup_s": statistics.median(setup_s),
            "ops_per_s": 1e3 * len(costs) / sum(costs),
            "op_ms.p50": statistics.median(costs),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        wall = op_medians(rounds)
        probe_s = [s for r in rounds for s in r.op_probe_s.values()]
        report["wall_clock"] = {
            "setup_s": statistics.median(setup_wall_s),
            "ops_per_s": 1e3 * len(wall) / sum(wall),
            "op_ms.p50": statistics.median(wall),
            "probe": workload.probe,
            "probe_ms_p50": 1e3 * statistics.median(probe_s),
            "probe_reference_ms": 1e3 * reference_s,
        }
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1 or args.seed < 0:
        parser.error("--seconds must be at least 1 and --seed at least 0")

    nproc = cap_blas_threads()
    if not (ROOT / "src" / "guidematch" / "__init__.py").is_file():
        print(f"error: no guidematch sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]()
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=OUT_DIR))
    try:
        result, report = measure(workload, args.seed, args.seconds, bool(args.trace), workdir)
    except workloads.CheckpointMismatch as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir)

    declared = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(result["metrics"]) != set(units):
        print(f"error: emitted metrics differ from BENCHMARK.json: {sorted(set(result['metrics']) ^ set(units))}",
              file=sys.stderr)
        return 2
    result["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in sorted(result["metrics"].items())}
    report["machine"] = machine_info(nproc)
    report["outputs_sha256"] = hashlib.sha256(json.dumps(report["outputs"], sort_keys=True).encode()).hexdigest()
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
