"""The report ``tools/parity.py --compare`` prints over two canned output directories."""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
import parity  # noqa: E402

from guidematch.numerics import save_checkpoint

LOSS = "step,loss,mode\n1,{a},epipolar\n2,{b},epipolar\n"
PCK = "# checkpoint = m.gmck\nscene,pck_8\n100,{a}\n101,0.5\n"


def write(root: Path, files: dict) -> Path:
    for rel, content in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        if isinstance(content, dict):
            save_checkpoint(path, content)
        elif isinstance(content, bytes):
            path.write_bytes(content)
        else:
            path.write_text(content)
    return root


@pytest.fixture
def dirs(tmp_path):
    weight = np.array([[1.0, -2.0], [0.5, 4.0]])
    base = write(tmp_path / "base", {
        "same.txt": "0 1 2.5\n",
        "field.txt": "0 0 0 1 30.0\n0 1 0 2 -50.0\n",
        "train/loss_curve.csv": LOSS.format(a=-0.25, b=0.125),
        "pck/pck.csv": PCK.format(a=0.25),
        "train/model.gmck": {"filter/0/weight": weight, "filter/0/bias": np.zeros(2)},
        "meta.txt": "seed = 0\n",
        "image.pgm": b"P5\n1 1\n255\n\x00\xff\xfe",
        "gone.csv": "a\n1\n",
    })
    change = write(tmp_path / "change", {
        "same.txt": "0 1 2.5\n",
        "field.txt": "0 0 0 1 30.0\n0 1 0 2 -50.000000000000014\n",
        "train/loss_curve.csv": LOSS.format(a=-0.25, b=0.12500000000000003),
        "pck/pck.csv": PCK.format(a="0.250"),
        "train/model.gmck": {"filter/0/weight": weight + np.array([[0.0, 0.0], [0.0, 1e-12]]),
                             "filter/0/bias": np.zeros(2)},
        "meta.txt": "seed = 1 # changed\n",
        "image.pgm": b"P5\n1 1\n255\n\x00\xff\xff",
        "new.txt": "1\n",
    })
    return base, change


def test_compare_reports_each_moved_field_and_every_other_difference(dirs):
    base, change = dirs
    lines = parity.compare(base, change)
    assert lines == [
        "field.txt  col 4  max_abs 1.42e-14  max_rel 2.84e-16",
        f"gone.csv  only in {base}",
        "image.pgm  binary files differ",
        "meta.txt  layout differs beyond its numbers",
        f"new.txt  only in {change}",
        "pck/pck.csv  same numbers, different bytes",
        "train/loss_curve.csv  loss  max_abs 2.78e-17  max_rel 1.11e-16",
        "train/model.gmck  filter/0/weight  max_abs 1e-12  max_rel 2.5e-13",
        "8 of 9 files differ",
    ]


def test_a_changed_shape_is_a_layout_difference(tmp_path):
    base = write(tmp_path / "base", {"m.gmck": {"w": np.zeros(3)}})
    change = write(tmp_path / "change", {"m.gmck": {"w": np.zeros((3, 1))}})
    assert parity.compare(base, change) == ["m.gmck  layout differs beyond its numbers", "1 of 1 files differ"]


def test_equal_nans_and_infinities_are_equal_and_a_new_nan_shows():
    assert parity._spread(np.array([np.nan, np.inf, 1.0]), np.array([np.nan, np.inf, 1.0])) == (0.0, 0.0)
    assert parity._spread(np.array([np.nan, 2.0]), np.array([np.nan, 1.0])) == (1.0, 0.5)
    assert all(np.isnan(parity._spread(np.array([0.5, 1.0]), np.array([np.nan, 1.0]))))


def test_main_exits_0_only_when_every_file_is_byte_identical(dirs, capsys):
    base, change = dirs
    assert parity.main(["--compare", str(base), str(base)]) == 0
    assert capsys.readouterr().out == "0 of 8 files differ\n"
    assert parity.main(["--compare", str(base), str(change)]) == 1
    assert capsys.readouterr().out.endswith("8 of 9 files differ\n")


@pytest.mark.parametrize("argv", [[], ["out", "--compare", "a", "b"], ["--compare", "missing", "missing"]])
def test_main_needs_one_run_dir_or_two_existing_dirs(argv, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exit_info:
        parity.main(argv)
    assert exit_info.value.code == 2
