"""Alternate the benchmark between two checkouts and summarize its end-to-end metrics.

    python3 tools/ab.py PARENT CHANGE --workload W --pairs N --seconds S --seed K [--json PATH]

PARENT and CHANGE are source checkouts, say a clone of each commit. A run
is ``perfbench/run.py --workload W --seed K --seconds S`` started inside
one checkout, so it imports that checkout's ``src/``; PYTHONPATH is
dropped from its environment so that neither side can see the other's
sources. Pair i runs the two sides back to back, the parent first when i
is even and the change first when i is odd.

Each run prints one line with its end-to-end metrics, and each pair one
line that says whether its two runs' ``outputs_sha256`` and ``quality``
(from the report line ``run.py`` prints before its result) are equal, so
that "outputs unchanged" comes from the same runs as the timings. The
summary gives, per metric of the change's ``BENCHMARK.json``, each side's
median and quartiles, the change's median relative to the parent's, the
pairs the change won in the metric's better direction (ties count for
neither), and whether the medians differ by more than the parent's
interquartile range; then the failed ops. With ``--json PATH`` the same
summary, with every run's value and each pair's ``outputs_agree``, is also
written to PATH as JSON. A run that exits non-zero stops the tool with its
stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def parse_result(stdout: str) -> dict:
    """The result object ``perfbench/run.py`` prints as its last stdout line,
    with the ``outputs_sha256`` and ``quality`` of the report line before it."""
    *_, report_line, result_line = stdout.strip().splitlines()
    report = json.loads(report_line)["report"]
    return {**json.loads(result_line), "outputs_sha256": report["outputs_sha256"], "quality": report["quality"]}


def outputs_agree(pair: dict[str, dict]) -> dict[str, bool]:
    """Whether the two sides of a pair report the same ``outputs_sha256`` and
    the same ``quality`` (compared as JSON, so that a nan equals a nan)."""
    parent, change = pair["parent"], pair["change"]
    return {
        "outputs_sha256": parent["outputs_sha256"] == change["outputs_sha256"],
        "quality": json.dumps(parent["quality"], sort_keys=True) == json.dumps(change["quality"], sort_keys=True),
    }


def outputs_line(pair: int, agree: dict[str, bool]) -> str:
    return f"pair {pair} outputs: " + "  ".join(f"{k} {'equal' if v else 'DIFFER'}" for k, v in agree.items())


def run_once(checkout: Path, workload: str, seconds: int, seed: int) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds)]
    done = subprocess.run(argv, cwd=checkout, env=env, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"{checkout}: run.py exited {done.returncode}\n{done.stderr}")
    return parse_result(done.stdout)


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def run_line(pair: int, side: str, result: dict) -> str:
    metrics = "  ".join(f"{name} {m['value']:.4g}" for name, m in sorted(result["metrics"].items()))
    return f"pair {pair} {side:6s} failed {result['failed']}/{result['attempted']}  {metrics}"


def summary(pairs: list[dict[str, dict]], end_to_end: list[dict]) -> dict:
    """Per metric over ``pairs``, each a {"parent": result, "change": result}
    dict: each side's runs, median and quartiles, the change's median
    relative to the parent's, its wins and whether the medians differ by
    more than the parent's interquartile range; then the failed ops and,
    per pair, ``outputs_agree``."""
    metrics = {}
    for metric in end_to_end:
        name, sign = metric["name"], 1.0 if metric["better"] == "higher" else -1.0
        entry = {"unit": metric["unit"], "better": metric["better"]}
        for side in SIDES:
            runs = [p[side]["metrics"][name]["value"] for p in pairs]
            q1, q3 = _quartiles(runs)
            entry[side] = {"runs": runs, "median": statistics.median(runs), "q1": q1, "q3": q3}
        parent, change = entry["parent"], entry["change"]
        entry["change_rel"] = change["median"] / parent["median"] - 1.0 if parent["median"] else float("nan")
        entry["change_wins"] = sum(sign * (c - p) > 0 for p, c in zip(parent["runs"], change["runs"]))
        entry["beyond_parent_iqr"] = abs(change["median"] - parent["median"]) > parent["q3"] - parent["q1"]
        metrics[name] = entry
    failed_ops = {
        side: {"failed": sum(p[side]["failed"] for p in pairs), "attempted": sum(p[side]["attempted"] for p in pairs)}
        for side in SIDES
    }
    return {
        "pairs": len(pairs),
        "metrics": metrics,
        "failed_ops": failed_ops,
        "outputs_agree": [outputs_agree(p) for p in pairs],
    }


def summarize(pairs: list[dict[str, dict]], end_to_end: list[dict]) -> list[str]:
    """One line per metric of ``summary(pairs, end_to_end)``, then the failed ops."""
    result = summary(pairs, end_to_end)
    lines = []
    for name, m in result["metrics"].items():
        sides = "  ".join(
            f"{side} {m[side]['median']:.4g} [{m[side]['q1']:.4g}, {m[side]['q3']:.4g}]" for side in SIDES
        )
        lines.append(
            f"{name} ({m['unit']}, {m['better']} is better): {sides}  change {m['change_rel']:+.1%}  "
            f"wins {m['change_wins']}/{result['pairs']}  beyond parent IQR: {'yes' if m['beyond_parent_iqr'] else 'no'}"
        )
    failed = result["failed_ops"]
    counts = (f"{side} {failed[side]['failed']}/{failed[side]['attempted']}" for side in SIDES)
    lines.append("failed ops: " + "  ".join(counts))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--json", type=Path, help="also write the summary, with every run's value, to this file")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for side, path in checkouts.items():
        if not (path / "perfbench" / "run.py").is_file():
            parser.error(f"{side} {path} has no perfbench/run.py")
    end_to_end = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())["end_to_end"]

    pairs = []
    for i in range(args.pairs):
        pair = {}
        for side in SIDES if i % 2 == 0 else SIDES[::-1]:
            pair[side] = run_once(checkouts[side], args.workload, args.seconds, args.seed)
            print(run_line(i, side, pair[side]), flush=True)
        print(outputs_line(i, outputs_agree(pair)), flush=True)
        pairs.append(pair)
    print(f"{args.workload}: {args.pairs} pairs, {args.seconds} s per run, seed {args.seed}")
    print("\n".join(summarize(pairs, end_to_end)))
    agreed = sum(all(outputs_agree(p).values()) for p in pairs)
    print(f"outputs equal (outputs_sha256 and quality): {agreed}/{args.pairs} pairs")
    if args.json:
        run = {"workload": args.workload, "seconds": args.seconds, "seed": args.seed}
        args.json.write_text(json.dumps({**run, **summary(pairs, end_to_end)}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
