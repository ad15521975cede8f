from guidematch import coarse_matcher as cm
from guidematch import evaluation as ev
from guidematch.cli import run_cli


def test_eval_pose_is_byte_deterministic(tmp_path):
    assert run_cli(["synth", "--scenes", "2", "--seed", "5", "--out", str(tmp_path / "scenes")]) == 0
    checkpoint = tmp_path / "model.gmck"
    cm.CoarseModel.create(0).save(checkpoint)
    for variant in ev.POSE_VARIANTS:
        outputs = []
        for run in ("first", "second"):
            out = tmp_path / variant / run
            argv = ["eval-pose", "--dataset", str(tmp_path / "scenes"), "--variant", variant]
            argv += ["--checkpoint", str(checkpoint), "--ratio", "0.9", "--out", str(out)]
            assert run_cli(argv) == 0, variant
            outputs.append([(out / name).read_bytes() for name in ("pose_pairs.csv", "pose_summary.csv")])
        assert outputs[0] == outputs[1], variant
