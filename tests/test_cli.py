import numpy as np
import pytest

from guidematch import coarse_matcher as cm
from guidematch import evaluation as ev
from guidematch.cli import run_cli


@pytest.fixture(scope="module")
def scenes(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    argv = ["synth", "--scenes", "2", "--width", "256", "--height", "192", "--repeated", "3", "--seed", "0"]
    assert run_cli(argv + ["--out", str(root / "scenes")]) == 0
    checkpoint = root / "model.gmck"
    cm.CoarseModel.create(0).save(checkpoint)
    return root / "scenes", checkpoint


def _ratio_flags(variant):
    """``--ratio 0.9`` for the variants that read it."""
    return [] if variant in ("raw", "mutual") else ["--ratio", "0.9"]


def _config_hash(path):
    (line,) = [line for line in path.read_text().splitlines() if line.startswith("# config_hash = ")]
    return line


def _assert_eval_pose_deterministic(tmp_path, scene_root, checkpoint):
    for variant in ev.POSE_VARIANTS:
        outputs = []
        for run in ("first", "second"):
            out = tmp_path / variant / run
            argv = ["eval-pose", "--dataset", str(scene_root), "--variant", variant]
            argv += ["--checkpoint", str(checkpoint), *_ratio_flags(variant), "--out", str(out)]
            assert run_cli(argv) == 0, variant
            outputs.append([(out / name).read_bytes() for name in ("pose_pairs.csv", "pose_summary.csv")])
        assert outputs[0] == outputs[1], variant


def test_eval_pose_is_byte_deterministic(tmp_path):
    assert run_cli(["synth", "--scenes", "2", "--seed", "5", "--out", str(tmp_path / "scenes")]) == 0
    cm.CoarseModel.create(0).save(tmp_path / "model.gmck")
    _assert_eval_pose_deterministic(tmp_path, tmp_path / "scenes", tmp_path / "model.gmck")


def test_eval_pose_is_byte_deterministic_on_repeated_stamps(tmp_path, scenes):
    _assert_eval_pose_deterministic(tmp_path, *scenes)


@pytest.mark.parametrize("variant", ev.POSE_VARIANTS)
def test_match_is_byte_deterministic_and_ignores_the_seed(tmp_path, scenes, variant):
    scene_root, checkpoint = scenes
    outputs = []
    for run in ("first", "second"):
        out = tmp_path / f"{run}.csv"
        argv = ["match", "--scene-dir", str(scene_root / "scene_0000"), "--variant", variant]
        argv += ["--checkpoint", str(checkpoint), *_ratio_flags(variant), "--out", str(out)]
        assert run_cli(argv) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def _matching_argv(command, scene_root, out):
    if command == "match":
        return ["match", "--scene-dir", str(scene_root / "scene_0000"), "--out", str(out)]
    return ["eval-pose", "--dataset", str(scene_root), "--out", str(out)]


@pytest.mark.parametrize("command", ["match", "eval-pose"])
def test_guided_without_checkpoint_is_a_usage_error(tmp_path, scenes, command, capsys):
    argv = _matching_argv(command, scenes[0], tmp_path / "out") + ["--variant", "guided"]
    assert run_cli(argv) == 1
    assert "needs --checkpoint" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["match", "eval-pose"])
def test_unknown_variant_is_a_usage_error(tmp_path, scenes, command):
    assert run_cli(_matching_argv(command, scenes[0], tmp_path / "out") + ["--variant", "sift"]) == 1


@pytest.mark.parametrize("command", ["match", "eval-pose"])
@pytest.mark.parametrize(
    "flags, message",
    [
        (["--variant", "ratio"], "needs --ratio"),
        (["--max-keypoints", "0"], "--max-keypoints must be at least 1"),
        (["--variant", "raw", "--ratio", "0.9"], "raw variant takes no --ratio"),
        (["--variant", "mutual", "--ratio", "0.9"], "mutual variant takes no --ratio"),
        (["--window", "0"], "--window must be > 0"),
        (["--window", "nan"], "--window must be > 0"),
        (["--band", "0"], "--band must be > 0"),
        (["--band", "-2"], "--band must be > 0"),
        (["--variant", "ratio", "--ratio", "0"], "--ratio must be > 0"),
        (["--variant", "ratio+mutual", "--ratio", "-0.5"], "--ratio must be > 0"),
        (["--variant", "ratio", "--ratio", "nan"], "--ratio must be > 0"),
        (["--variant", "guided", "--max-side", "8"], "--max-side must be at least the model stride 16"),
    ],
)
def test_bad_matching_setting_is_a_usage_error(tmp_path, scenes, command, flags, message, capsys):
    argv = _matching_argv(command, scenes[0], tmp_path / "out") + ["--checkpoint", str(scenes[1])]
    assert run_cli(argv + flags) == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "command, flags, message",
    [
        ("eval-pose", ["--ransac-thresholds", "abc"], "--ransac-thresholds must be comma-separated numbers"),
        ("eval-pose", ["--pose-thresholds", "0,10"], "--pose-thresholds values must be finite and > 0"),
        ("eval-pose", ["--keypoint-noise", "-1"], "--keypoint-noise must be finite and >= 0"),
        ("eval-pose", ["--descriptor-corruption", "1.5"], "--descriptor-corruption must be in [0, 1]"),
        ("eval-pck", ["--thresholds", "8,-16"], "--thresholds values must be finite and > 0"),
        ("eval-pck", ["--max-side", "15"], "--max-side must be at least the model stride 16"),
        ("eval-pose", ["--seed", "-2"], "--seed must be >= 0, got -2"),
    ],
)
def test_bad_eval_setting_is_a_usage_error(tmp_path, scenes, command, flags, message, capsys):
    scene_root, checkpoint = scenes
    argv = [command, "--dataset", str(scene_root), "--out", str(tmp_path / "out")]
    if command == "eval-pck":
        argv += ["--checkpoint", str(checkpoint)]
    assert run_cli(argv + flags) == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_infinite_window_and_band_are_accepted(tmp_path, scenes):
    # an infinite band is raw matching; model-guided ignores the window
    argv = ["match", "--scene-dir", str(scenes[0] / "scene_0000"), "--out"]
    assert run_cli(argv + [str(tmp_path / "a"), "--variant", "mutual"]) == 0
    assert run_cli(argv + [str(tmp_path / "b"), "--variant", "model-guided", "--band", "inf", "--window", "inf"]) == 0
    assert (tmp_path / "a").read_bytes() == (tmp_path / "b").read_bytes()


def test_non_finite_checkpoint_fails_naming_the_coarse_scores(tmp_path, scenes, capsys):
    scene_root, checkpoint = scenes
    model = cm.CoarseModel.load(checkpoint)
    model.cons_filter.weights[0].data[0, 0, 1, 1, 1, 1] = np.nan
    model.save(tmp_path / "nan.gmck")
    image = np.random.default_rng(0).random((64, 64))
    with pytest.raises(ValueError, match="non-finite coarse scores"):
        cm.compute_match_fields(cm.CoarseModel.load(tmp_path / "nan.gmck"), image, image, 64)
    out = ["--dataset", str(scene_root), "--checkpoint", str(tmp_path / "nan.gmck"), "--out", str(tmp_path / "out")]
    for argv in (["eval-pck", *out], ["eval-pose", *out, "--variant", "guided"]):
        assert run_cli(argv) == 2, argv[0]
        assert "non-finite coarse scores" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "command, flag",
    [(c, "--config") for c in ("coarse-match", "match", "eval-pck", "eval-pose")]
    + [(c, "--seed") for c in ("coarse-match", "match", "eval-pck")],
)
def test_flag_the_command_does_not_read_is_a_usage_error(tmp_path, scenes, command, flag, capsys):
    scene_root, checkpoint = scenes
    out = ["--out", str(tmp_path / "out")]
    argv = {
        "coarse-match": ["--checkpoint", str(checkpoint), "--scene-dir", str(scene_root / "scene_0000"), *out],
        "match": ["--scene-dir", str(scene_root / "scene_0000"), *out],
        "eval-pck": ["--checkpoint", str(checkpoint), "--dataset", str(scene_root), *out],
        "eval-pose": ["--dataset", str(scene_root), *out],
    }[command]
    assert run_cli([command, *argv, flag, str(tmp_path / "any")]) == 1
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_config_hash_covers_max_side(tmp_path, scenes):
    hashes = []
    for max_side in ("497", "32"):
        out = tmp_path / max_side
        argv = ["eval-pose", "--dataset", str(scenes[0]), "--variant", "raw", "--max-side", max_side]
        assert run_cli(argv + ["--out", str(out)]) == 0
        hashes.append(_config_hash(out / "pose_pairs.csv"))
    assert hashes[0] != hashes[1]


def test_train_config_without_mode_is_a_usage_error(tmp_path, scenes, capsys):
    cfg = tmp_path / "train.cfg"
    cfg.write_text(f"dataset_dir = {scenes[0]}\nout_dir = {tmp_path / 'run'}\niterations = 1\n")
    assert run_cli(["train", "--config", str(cfg)]) == 1
    assert "mode" in capsys.readouterr().err


@pytest.mark.parametrize(
    "n_scenes, message",
    [(3, "a batch of 8 takes 4 positive pairs; the dataset has 3"), (0, "no scene directories found")],
)
def test_train_that_cannot_start_writes_nothing(tmp_path, n_scenes, message, capsys):
    dataset = tmp_path / "scenes"
    dataset.mkdir()
    if n_scenes:
        assert run_cli(["synth", "--scenes", str(n_scenes), "--out", str(dataset)]) == 0
    argv = ["train", "--mode", "epipolar", "--dataset", str(dataset), "--iterations", "2"]
    assert run_cli(argv + ["--out", str(tmp_path / "run")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_train_config_unknown_key_fails_naming_it(tmp_path, scenes, capsys):
    cfg = tmp_path / "train.cfg"
    cfg.write_text(f"mode = epipolar\ndataset_dir = {scenes[0]}\nout_dir = {tmp_path / 'run'}\niteration = 1\n")
    assert run_cli(["train", "--config", str(cfg)]) == 1
    assert "'iteration'" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("key", ["rotation_mode = identity", "max_retries = 1", "widht = 64"])
def test_synth_config_accepts_only_its_keys(tmp_path, key, capsys):
    cfg = tmp_path / "synth.cfg"
    cfg.write_text(f"width = 64\n{key}\n")
    assert run_cli(["synth", "--scenes", "1", "--config", str(cfg), "--out", str(tmp_path / "s")]) == 1
    assert repr(key.split(" = ")[0]) in capsys.readouterr().err
    assert not (tmp_path / "s").exists()


@pytest.mark.parametrize(
    "argv, config, message",
    [
        (["synth", "--width", "100"], None, "image size 100x64 must be a multiple of stride 16"),
        (["synth", "--scenes", "0"], None, "--scenes must be at least 1, got 0"),
        (["synth", "--repeated", "-1"], None, "repeated_stamps must be >= 0, got -1"),
        (["train"], "mode = sideways", "mode must be one of ('image', 'epipolar', 'point'), got 'sideways'"),
        (["train", "--mode", "epipolar", "--iterations", "0"], None, "iterations must be at least 1, got 0"),
        (["train", "--mode", "epipolar", "--lr", "nan"], None, "lr must be finite and >= 0, got nan"),
        (["train", "--mode", "epipolar", "--lr", "-1"], None, "lr must be finite and >= 0, got -1"),
        (["train", "--mode", "point"], "batch_size = 0", "batch_size must be at least 1, got 0"),
        (["train", "--mode", "epipolar"], "batch_size = 3", "batch_size must be even in epipolar mode"),
        (["train", "--mode", "image"], "batch_size = 5", "batch_size must be even in image mode"),
        (["train", "--mode", "epipolar"], "max_side = 8", "max_side must be at least the backbone stride 16, got 8"),
        (["train", "--mode", "epipolar"], "lambda_px = -1", "lambda_px must be finite and > 0, got -1"),
        (["train", "--mode", "epipolar"], "lambda_px = 0", "lambda_px must be finite and > 0, got 0"),
        (["train", "--mode", "epipolar"], "lambda_px = inf", "lambda_px must be finite and > 0, got inf"),
        (["train", "--mode", "epipolar"], "lambda_px = nan", "lambda_px must be finite and > 0, got nan"),
        (["synth", "--seed", "-1"], None, "--seed must be >= 0, got -1"),
        (["train", "--mode", "epipolar", "--seed", "-3"], None, "seed must be >= 0, got -3"),
    ],
)
def test_bad_synth_or_train_setting_is_a_usage_error(tmp_path, scenes, argv, config, message, capsys):
    flags = ["--out", str(tmp_path / "out")]
    if argv[0] == "train":
        flags += ["--dataset", str(scenes[0])]
    if config is not None:
        (tmp_path / "run.cfg").write_text(config + "\n")
        flags += ["--config", str(tmp_path / "run.cfg")]
    assert run_cli(argv + flags) == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
