"""The summary ``tools/ab.py`` prints over canned ``perfbench/run.py`` result lines."""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
import ab  # noqa: E402

END_TO_END = [
    {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "op_ms.p50", "unit": "ms", "better": "lower", "bound": 0.25},
]


def stdout(ops_per_s: float, p50: float, failed: int = 0) -> str:
    """A run.py stdout: the report line, then the result line."""
    result = {
        "correct": failed == 0,
        "attempted": 10,
        "failed": failed,
        "metrics": {"ops_per_s": {"value": ops_per_s, "unit": "1/s"}, "op_ms.p50": {"value": p50, "unit": "ms"}},
    }
    return json.dumps({"report": {"workload": "w"}}) + "\n" + json.dumps(result) + "\n"


def canned(rows):
    return [{"parent": ab.parse_result(stdout(*p)), "change": ab.parse_result(stdout(*c))} for p, c in rows]


def test_parse_result_reads_the_last_line():
    assert ab.parse_result(stdout(4.5, 200.0))["metrics"]["ops_per_s"]["value"] == 4.5


def test_summary_gives_medians_quartiles_and_wins_by_direction():
    pairs = canned([
        ((4.0, 250.0), (5.0, 200.0)),
        ((4.5, 220.0), (5.5, 180.0)),
        ((5.0, 200.0), (5.0, 210.0)),  # a tie on ops/s and a loss on p50
        ((4.2, 240.0), (5.2, 190.0)),
        ((4.4, 230.0), (5.4, 185.0)),
    ])
    ops, p50, failed = ab.summarize(pairs, END_TO_END)
    # parent ops/s 4.0 4.2 4.4 4.5 5.0: median 4.4, inclusive quartiles 4.2 and 4.5
    assert ops.startswith("ops_per_s (1/s, higher is better): parent 4.4 [4.2, 4.5]  change 5.2 [5, 5.4]")
    assert "change +18.2%" in ops and "wins 4/5" in ops and "beyond parent IQR: yes" in ops
    assert p50.startswith("op_ms.p50 (ms, lower is better): parent 230 [220, 240]  change 190 [185, 200]")
    assert "change -17.4%" in p50 and "wins 4/5" in p50 and "beyond parent IQR: yes" in p50
    assert failed == "failed ops: parent 0/50  change 0/50"


def test_a_move_inside_the_parents_spread_is_not_beyond_it():
    pairs = canned([((4.0, 100.0), (4.1, 100.0)), ((5.0, 100.0), (4.9, 100.0)), ((4.5, 100.0), (4.6, 100.0))])
    ops, p50, _ = ab.summarize(pairs, END_TO_END)
    assert "wins 2/3" in ops and "beyond parent IQR: no" in ops
    assert "wins 0/3" in p50 and "change +0.0%" in p50 and "beyond parent IQR: no" in p50


def test_one_pair_and_failures_are_reported():
    pairs = canned([((4.0, 250.0, 2), (5.0, 200.0))])
    ops, _, failed = ab.summarize(pairs, END_TO_END)
    assert "parent 4 [4, 4]" in ops and "wins 1/1" in ops
    assert failed == "failed ops: parent 2/10  change 0/10"


@pytest.mark.parametrize("pair, side", [(0, "parent"), (3, "change")])
def test_run_line_names_pair_side_and_metrics(pair, side):
    line = ab.run_line(pair, side, ab.parse_result(stdout(5.61, 179.3)))
    assert line == f"pair {pair} {side:6s} failed 0/10  op_ms.p50 179.3  ops_per_s 5.61"


def test_summary_keeps_each_run_and_the_figures_the_lines_print():
    pairs = canned([
        ((4.0, 250.0), (5.0, 200.0)),
        ((4.5, 220.0), (5.5, 180.0)),
        ((5.0, 200.0), (5.0, 210.0)),
        ((4.2, 240.0), (5.2, 190.0)),
        ((4.4, 230.0), (5.4, 185.0, 1)),
    ])
    result = ab.summary(pairs, END_TO_END)
    ops = result["metrics"]["ops_per_s"]
    assert ops["unit"] == "1/s" and ops["better"] == "higher"
    assert ops["parent"] == {"runs": [4.0, 4.5, 5.0, 4.2, 4.4], "median": 4.4, "q1": 4.2, "q3": 4.5}
    assert ops["change"]["runs"] == [5.0, 5.5, 5.0, 5.2, 5.4]
    assert ops["change_rel"] == pytest.approx(5.2 / 4.4 - 1.0)
    assert ops["change_wins"] == 4 and ops["beyond_parent_iqr"]
    p50 = result["metrics"]["op_ms.p50"]
    assert (p50["change"]["median"], p50["change_wins"]) == (190.0, 4)
    assert result["pairs"] == 5
    assert result["failed_ops"] == {"parent": {"failed": 0, "attempted": 50}, "change": {"failed": 1, "attempted": 50}}


def test_json_option_writes_the_summary_of_the_runs(tmp_path, monkeypatch, capsys):
    checkouts = {side: tmp_path / side for side in ab.SIDES}
    for path in checkouts.values():
        (path / "perfbench").mkdir(parents=True)
        (path / "perfbench" / "run.py").write_text("")
    (checkouts["change"] / "BENCHMARK.json").write_text(json.dumps({"end_to_end": END_TO_END}))
    canned_runs = {
        checkouts["parent"]: iter([(4.0, 250.0), (4.4, 230.0)]),
        checkouts["change"]: iter([(5.0, 200.0), (5.2, 190.0)]),
    }
    monkeypatch.setattr(ab, "run_once", lambda checkout, *_: ab.parse_result(stdout(*next(canned_runs[checkout]))))
    out = tmp_path / "ab.json"
    argv = [str(checkouts["parent"]), str(checkouts["change"]), "--workload", "w", "--pairs", "2", "--seconds", "1",
            "--seed", "3", "--json", str(out)]
    assert ab.main(argv) == 0
    written = json.loads(out.read_text())
    pairs = canned([((4.0, 250.0), (5.0, 200.0)), ((4.4, 230.0), (5.2, 190.0))])
    assert written == {"workload": "w", "seconds": 1, "seed": 3, **ab.summary(pairs, END_TO_END)}
    assert "\n".join(ab.summarize(pairs, END_TO_END)) in capsys.readouterr().out
