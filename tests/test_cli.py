import math

import numpy as np
import pytest

from guidematch import ConfigError
from guidematch import coarse_matcher as cm
from guidematch import evaluation as ev
from guidematch import supervision as sup
from guidematch.cli import run_cli
from guidematch.geometry import SceneConfig, load_scene, load_scene_dir
from guidematch.geometry.scene import write_pgm
from guidematch.numerics import load_checkpoint, save_checkpoint


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


def _library_error(call, *args, **kwargs) -> str:
    """The text of the ``ConfigError`` that ``call(*args, **kwargs)`` raises."""
    with pytest.raises(ConfigError) as info:
        call(*args, **kwargs)
    return str(info.value)


def _matching_library(command, scene_root, model, variant=None, **settings):
    """The library calls that ``command`` makes with the ``_add_matching`` flags, the others at their defaults."""
    if command == "match":
        scene = load_scene(scene_root / "scene_0000")
        settings = ev.EvalSettings(variant or "raw", **settings)
        feats = ev.pair_features(scene, settings.max_keypoints, settings.keypoint_source)
        ev.make_matcher(settings, model)(scene, feats)
    else:
        ev.eval_pose(load_scene_dir(scene_root), variant or "mutual", model, **settings)


@pytest.mark.parametrize("command, variant", [("match", "raw"), ("eval-pose", "mutual")])
def test_unset_flags_take_the_settings_defaults(tmp_path, scenes, monkeypatch, command, variant):
    # every flag default of the command is the EvalSettings field default
    built = []
    make_matcher = ev.make_matcher

    def recording(settings, model=None):
        built.append(settings)
        return make_matcher(settings, model)

    monkeypatch.setattr(ev, "make_matcher", recording)
    assert run_cli(_matching_argv(command, scenes[0], tmp_path / "out")) == 0
    assert built == [ev.EvalSettings(variant)]


def test_default_eval_pose_config_hash_is_unchanged(tmp_path, scenes):
    # the hash a default run wrote before the defaults moved onto EvalSettings
    assert run_cli(["eval-pose", "--dataset", str(scenes[0]), "--out", str(tmp_path)]) == 0
    assert _config_hash(tmp_path / "pose_pairs.csv") == "# config_hash = 544c72e54554"


@pytest.mark.parametrize("command", ["match", "eval-pose"])
@pytest.mark.parametrize("max_side", ["0", "-5"])
def test_max_side_below_one_is_a_usage_error_without_a_checkpoint(tmp_path, scenes, command, max_side, capsys):
    argv = _matching_argv(command, scenes[0], tmp_path / "out") + ["--variant", "raw", "--max-side", max_side]
    assert run_cli(argv) == 1
    err = capsys.readouterr().err
    assert f"max_side must be an integer >= 1, got {max_side}" in err
    assert _library_error(_matching_library, command, scenes[0], None, variant="raw", max_side=int(max_side)) in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["match", "eval-pose"])
def test_guided_without_checkpoint_is_a_usage_error(tmp_path, scenes, command, capsys):
    argv = _matching_argv(command, scenes[0], tmp_path / "out") + ["--variant", "guided"]
    assert run_cli(argv) == 1
    err = capsys.readouterr().err
    assert "guided variant needs a coarse model checkpoint" in err
    assert _library_error(_matching_library, command, scenes[0], None, variant="guided") in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["match", "eval-pose"])
def test_unknown_variant_is_a_usage_error(tmp_path, scenes, command):
    assert run_cli(_matching_argv(command, scenes[0], tmp_path / "out") + ["--variant", "sift"]) == 1


# A row's expected text is the library's message for its setting; explicit ids
# keep each row's test name stable when that wording changes.
@pytest.mark.parametrize("command", ["match", "eval-pose"])
@pytest.mark.parametrize(
    "flags, setting, message",
    [
        pytest.param(["--variant", "ratio"], dict(variant="ratio"), "ratio variant needs a ratio value",
                     id="flags0-needs --ratio"),
        pytest.param(["--max-keypoints", "0"], dict(max_keypoints=0), "max_keypoints must be an integer >= 1, got 0",
                     id="flags1---max-keypoints must be at least 1"),
        pytest.param(["--variant", "raw", "--ratio", "0.9"], dict(variant="raw", ratio=0.9),
                     "raw variant takes no ratio value", id="flags2-raw variant takes no --ratio"),
        pytest.param(["--variant", "mutual", "--ratio", "0.9"], dict(variant="mutual", ratio=0.9),
                     "mutual variant takes no ratio value", id="flags3-mutual variant takes no --ratio"),
        pytest.param(["--window", "0"], dict(window_px=0.0), "window_px must be > 0, got 0",
                     id="flags4---window must be > 0"),
        pytest.param(["--window", "nan"], dict(window_px=math.nan), "window_px must be > 0, got nan",
                     id="flags5---window must be > 0"),
        pytest.param(["--band", "0"], dict(band_px=0.0), "band_px must be > 0, got 0", id="flags6---band must be > 0"),
        pytest.param(["--band", "-2"], dict(band_px=-2.0), "band_px must be > 0, got -2",
                     id="flags7---band must be > 0"),
        pytest.param(["--variant", "ratio", "--ratio", "0"], dict(variant="ratio", ratio=0.0),
                     "ratio must be > 0, got 0", id="flags8---ratio must be > 0"),
        pytest.param(["--variant", "ratio+mutual", "--ratio", "-0.5"], dict(variant="ratio+mutual", ratio=-0.5),
                     "ratio must be > 0, got -0.5", id="flags9---ratio must be > 0"),
        pytest.param(["--variant", "ratio", "--ratio", "nan"], dict(variant="ratio", ratio=math.nan),
                     "ratio must be > 0, got nan", id="flags10---ratio must be > 0"),
        pytest.param(["--variant", "guided", "--max-side", "8"], dict(variant="guided", max_side=8),
                     "max_side must be at least the backbone stride 16, got 8",
                     id="flags11---max-side must be at least the model stride 16"),
        # raw reads neither the model nor max_side, and is checked all the same
        pytest.param(["--variant", "raw", "--max-side", "8"], dict(variant="raw", max_side=8),
                     "max_side must be at least the backbone stride 16, got 8", id="raw-max-side-below-stride"),
        # the count rule comes before the model's stride rule
        pytest.param(["--variant", "raw", "--max-side", "-5"], dict(variant="raw", max_side=-5),
                     "max_side must be an integer >= 1, got -5", id="raw-max-side-below-one"),
    ],
)
def test_bad_matching_setting_is_a_usage_error(tmp_path, scenes, command, flags, setting, message, capsys):
    scene_root, checkpoint = scenes
    argv = _matching_argv(command, scene_root, tmp_path / "out") + ["--checkpoint", str(checkpoint)]
    assert run_cli(argv + flags) == 1
    err = capsys.readouterr().err
    assert message in err
    assert _library_error(_matching_library, command, scene_root, cm.CoarseModel.load(checkpoint), **setting) in err
    assert not (tmp_path / "out").exists()


def _eval_library(command, scene_root, checkpoint, **setting):
    """The library call that ``command`` makes, its other settings at the flags' defaults."""
    if command == "eval-pck":
        ev.eval_pck(cm.CoarseModel.load(checkpoint), load_scene_dir(scene_root), **setting)
    else:
        ev.eval_pose(load_scene_dir(scene_root), "mutual", **setting)


@pytest.mark.parametrize(
    "command, flags, setting, message",
    [
        pytest.param("eval-pose", ["--ransac-thresholds", "abc"], None,
                     "--ransac-thresholds must be comma-separated numbers",
                     id="eval-pose-flags0---ransac-thresholds must be comma-separated numbers"),
        pytest.param("eval-pose", ["--pose-thresholds", "0,10"], dict(pose_thresholds=[0.0, 10.0]),
                     "pose thresholds must be finite and > 0, got [0.0]",
                     id="eval-pose-flags1---pose-thresholds values must be finite and > 0"),
        pytest.param("eval-pose", ["--keypoint-noise", "-1"], dict(keypoint_noise_px=-1.0),
                     "keypoint_noise_px must be finite and >= 0, got -1",
                     id="eval-pose-flags2---keypoint-noise must be finite and >= 0"),
        pytest.param("eval-pose", ["--descriptor-corruption", "1.5"], dict(descriptor_corruption=1.5),
                     "descriptor_corruption must be in [0, 1], got 1.5",
                     id="eval-pose-flags3---descriptor-corruption must be in [0, 1]"),
        pytest.param("eval-pck", ["--thresholds", "8,-16"], dict(thresholds=[8.0, -16.0]),
                     "PCK thresholds must be finite and > 0, got [-16.0]",
                     id="eval-pck-flags4---thresholds values must be finite and > 0"),
        pytest.param("eval-pck", ["--max-side", "15"], dict(max_side=15),
                     "max_side must be at least the backbone stride 16, got 15",
                     id="eval-pck-flags5---max-side must be at least the model stride 16"),
        pytest.param("eval-pose", ["--seed", "-2"], dict(seed=-2), "seed must be an integer >= 0, got -2",
                     id="eval-pose-flags6---seed must be >= 0, got -2"),
        # ground-truth keypoints read no keypoint budget, and are checked all the same
        pytest.param("eval-pose", ["--keypoint-source", "gt", "--max-keypoints", "0"],
                     dict(keypoint_source="gt", max_keypoints=0), "max_keypoints must be an integer >= 1, got 0",
                     id="eval-pose-gt-keypoints-max-keypoints-0"),
        pytest.param("eval-pose", ["--pose-thresholds", ","], dict(pose_thresholds=[]),
                     "pose thresholds must not be empty", id="eval-pose-no-pose-thresholds"),
        # values that print alike would share a report column or summary row
        pytest.param("eval-pose", ["--ransac-thresholds", "1,1"], dict(ransac_thresholds=[1.0, 1.0]),
                     "RANSAC thresholds must differ when formatted with %g, got [1.0, 1.0]",
                     id="eval-pose-repeated-ransac-threshold"),
        pytest.param("eval-pose", ["--pose-thresholds", "5,5.0000001"], dict(pose_thresholds=[5.0, 5.0000001]),
                     "pose thresholds must differ when formatted with %g", id="eval-pose-pose-thresholds-print-alike"),
        pytest.param("eval-pck", ["--thresholds", "8,8.0000001"], dict(thresholds=[8.0, 8.0000001]),
                     "PCK thresholds must differ when formatted with %g", id="eval-pck-thresholds-print-alike"),
    ],
)
def test_bad_eval_setting_is_a_usage_error(tmp_path, scenes, command, flags, setting, message, capsys):
    scene_root, checkpoint = scenes
    argv = [command, "--dataset", str(scene_root), "--out", str(tmp_path / "out")]
    if command == "eval-pck":
        argv += ["--checkpoint", str(checkpoint)]
    assert run_cli(argv + flags) == 1
    err = capsys.readouterr().err
    assert message in err
    if setting is not None:  # else the CLI cannot parse the flag
        assert _library_error(_eval_library, command, scene_root, checkpoint, **setting) in err
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
    loaded = cm.CoarseModel.load(tmp_path / "nan.gmck")
    for _ in range(2):  # a non-finite forward is never kept, so a repeated call raises too
        with pytest.raises(ValueError, match="non-finite coarse scores"):
            cm.compute_match_fields(loaded, image, image, 64)
    out = ["--dataset", str(scene_root), "--checkpoint", str(tmp_path / "nan.gmck"), "--out", str(tmp_path / "out")]
    for argv in (["eval-pck", *out], ["eval-pose", *out, "--variant", "guided"]):
        assert run_cli(argv) == 2, argv[0]
        assert "non-finite coarse scores" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_checkpoint_without_architecture_fails_naming_file_and_key(tmp_path, scenes, capsys):
    scene_root, checkpoint = scenes
    arrays = load_checkpoint(checkpoint)
    del arrays["meta/backbone_channels"]
    save_checkpoint(tmp_path / "headless.gmck", arrays)
    argv = ["eval-pck", "--dataset", str(scene_root), "--checkpoint", str(tmp_path / "headless.gmck")]
    assert run_cli(argv + ["--out", str(tmp_path / "out")]) == 2
    assert "headless.gmck: checkpoint missing meta array 'meta/backbone_channels'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_image_that_disagrees_with_its_camera_fails_naming_it(tmp_path, capsys):
    assert run_cli(["synth", "--scenes", "1", "--out", str(tmp_path / "s")]) == 0
    write_pgm(tmp_path / "s" / "scene_0000" / "imageA.pgm", np.zeros((48, 80)))
    assert run_cli(["eval-pose", "--dataset", str(tmp_path / "s"), "--out", str(tmp_path / "out")]) == 2
    assert "imageA.pgm: image is 80x48, but meta.txt gives camera a 64x64" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_synth_writes_any_image_size(tmp_path):
    assert run_cli(["synth", "--scenes", "1", "--width", "100", "--height", "64", "--out", str(tmp_path / "s")]) == 0
    assert load_scene(tmp_path / "s" / "scene_0000").image_a.shape == (64, 100)


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


def test_pck_config_hash_reads_the_threshold_values(tmp_path, scenes):
    scene_root, checkpoint = scenes
    hashes = []
    for i, thresholds in enumerate(["8,16,32", "8, 16, 32", "8.0,16,32", None, "8,16,32.00000001"]):
        out = tmp_path / str(i)
        argv = ["eval-pck", "--checkpoint", str(checkpoint), "--dataset", str(scene_root), "--out", str(out)]
        assert run_cli(argv + (["--thresholds", thresholds] if thresholds else [])) == 0
        hashes.append(_config_hash(out / "pck.csv"))
    # each spelling of the defaults, and none, gives the hash the default spelling always gave
    assert set(hashes[:4]) == {"# config_hash = 4fe80307e983"}
    assert hashes[4] != hashes[0]


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


@pytest.mark.parametrize("key", ["rotation_mode = identity", "max_retries = 1", "widht = 64", "stride = 16"])
def test_synth_config_accepts_only_its_keys(tmp_path, key, capsys):
    cfg = tmp_path / "synth.cfg"
    cfg.write_text(f"width = 64\n{key}\n")
    assert run_cli(["synth", "--scenes", "1", "--config", str(cfg), "--out", str(tmp_path / "s")]) == 1
    assert repr(key.split(" = ")[0]) in capsys.readouterr().err
    assert not (tmp_path / "s").exists()


def _config_library(command, setting):
    """The config that ``command`` builds from ``setting``; train's paths are placeholders."""
    if command == "synth":
        SceneConfig(**setting)
    else:
        sup.TrainConfig(**{"dataset_dir": "scenes", "out_dir": "run", **setting})


# ids as for test_bad_matching_setting_is_a_usage_error; setting is None for a
# rule the CLI owns
@pytest.mark.parametrize(
    "argv, config, setting, message",
    [
        pytest.param(["synth", "--scenes", "0"], None, None,
                     "--scenes must be at least 1, got 0",
                     id="argv1-None---scenes must be at least 1, got 0"),
        pytest.param(["synth", "--repeated", "-1"], None, dict(repeated_stamps=-1),
                     "repeated_stamps must be an integer >= 0, got -1",
                     id="argv2-None-repeated_stamps must be >= 0, got -1"),
        pytest.param(["train"], "mode = sideways", dict(mode="sideways"),
                     "mode must be one of ('image', 'epipolar', 'point'), got 'sideways'",
                     id="argv3-mode = sideways-mode must be one of ('image', 'epipolar', 'point'), got 'sideways'"),
        pytest.param(["train", "--mode", "epipolar", "--iterations", "0"], None, dict(mode="epipolar", iterations=0),
                     "iterations must be an integer >= 1, got 0",
                     id="argv4-None-iterations must be at least 1, got 0"),
        pytest.param(["train", "--mode", "epipolar", "--lr", "nan"], None, dict(mode="epipolar", lr=math.nan),
                     "lr must be finite and >= 0, got nan",
                     id="argv5-None-lr must be finite and >= 0, got nan"),
        pytest.param(["train", "--mode", "epipolar", "--lr", "-1"], None, dict(mode="epipolar", lr=-1.0),
                     "lr must be finite and >= 0, got -1",
                     id="argv6-None-lr must be finite and >= 0, got -1"),
        pytest.param(["train", "--mode", "point"], "batch_size = 0", dict(mode="point", batch_size=0),
                     "batch_size must be an integer >= 1, got 0",
                     id="argv7-batch_size = 0-batch_size must be at least 1, got 0"),
        pytest.param(["train", "--mode", "epipolar"], "batch_size = 3", dict(mode="epipolar", batch_size=3),
                     "batch_size must be even in epipolar mode",
                     id="argv8-batch_size = 3-batch_size must be even in epipolar mode"),
        pytest.param(["train", "--mode", "image"], "batch_size = 5", dict(mode="image", batch_size=5),
                     "batch_size must be even in image mode",
                     id="argv9-batch_size = 5-batch_size must be even in image mode"),
        pytest.param(["train", "--mode", "epipolar"], "max_side = 8", dict(mode="epipolar", max_side=8),
                     "max_side must be at least the backbone stride 16, got 8",
                     id="argv10-max_side = 8-max_side must be at least the backbone stride 16, got 8"),
        pytest.param(["train", "--mode", "epipolar"], "lambda_px = -1", dict(mode="epipolar", lambda_px=-1.0),
                     "lambda_px must be finite and > 0, got -1",
                     id="argv11-lambda_px = -1-lambda_px must be finite and > 0, got -1"),
        pytest.param(["train", "--mode", "epipolar"], "lambda_px = 0", dict(mode="epipolar", lambda_px=0.0),
                     "lambda_px must be finite and > 0, got 0",
                     id="argv12-lambda_px = 0-lambda_px must be finite and > 0, got 0"),
        pytest.param(["train", "--mode", "epipolar"], "lambda_px = inf", dict(mode="epipolar", lambda_px=math.inf),
                     "lambda_px must be finite and > 0, got inf",
                     id="argv13-lambda_px = inf-lambda_px must be finite and > 0, got inf"),
        pytest.param(["train", "--mode", "epipolar"], "lambda_px = nan", dict(mode="epipolar", lambda_px=math.nan),
                     "lambda_px must be finite and > 0, got nan",
                     id="argv14-lambda_px = nan-lambda_px must be finite and > 0, got nan"),
        pytest.param(["synth", "--seed", "-1"], None, None,
                     "--seed must be an integer >= 0, got -1",
                     id="argv15-None---seed must be >= 0, got -1"),
        pytest.param(["train", "--mode", "epipolar", "--seed", "-3"], None, dict(mode="epipolar", seed=-3),
                     "seed must be an integer >= 0, got -3",
                     id="argv16-None-seed must be >= 0, got -3"),
        pytest.param(["synth", "--width", "0"], None, dict(width=0),
                     "width must be an integer >= 1, got 0",
                     id="synth-width-0"),
        pytest.param(["synth", "--height", "-16"], None, dict(height=-16),
                     "height must be an integer >= 1, got -16",
                     id="synth-height-negative"),
        pytest.param(["synth", "--planes", "0"], None, dict(n_planes=0),
                     "n_planes must be an integer >= 1, got 0",
                     id="synth-no-planes"),
        pytest.param(["synth", "--repeated", "2"], "stamp_px = 40", dict(repeated_stamps=2, stamp_px=40),
                     "stamp_px must be in [1, 32] for a 64x64 image with repeated stamps, got 40",
                     id="synth-stamp-wider-than-half-the-image"),
        pytest.param(["synth"], "background_amplitude = nan", dict(background_amplitude=math.nan),
                     "background_amplitude must be finite, got nan",
                     id="synth-background-amplitude-nan"),
        pytest.param(["synth"], "texel_px = 0", dict(texel_px=0.0),
                     "texel_px must be finite and > 0, got 0",
                     id="synth-texel-0"),
        pytest.param(["synth"], "texel_px = inf", dict(texel_px=math.inf),
                     "texel_px must be finite and > 0, got inf",
                     id="synth-texel-inf"),
        pytest.param(["synth"], "texel_px = nan", dict(texel_px=math.nan),
                     "texel_px must be finite and > 0, got nan",
                     id="synth-texel-nan"),
        pytest.param(["synth"], "n_gt_points = 0", dict(n_gt_points=0),
                     "n_gt_points must be an integer >= 1, got 0",
                     id="synth-no-gt-points"),
        pytest.param(["synth"], "tilt_max = nan", dict(tilt_max=math.nan),
                     "tilt_max must be finite and >= 0, got nan",
                     id="synth-tilt-nan"),
        pytest.param(["synth"], "tilt_max = -0.5", dict(tilt_max=-0.5),
                     "tilt_max must be finite and >= 0, got -0.5",
                     id="synth-tilt-negative"),
        pytest.param(["train", "--mode", "epipolar"], "checkpoint_every = -1", dict(mode="epipolar", checkpoint_every=-1),
                     "checkpoint_every must be an integer >= 0, got -1",
                     id="train-checkpoint-every-negative"),
    ],
)
def test_bad_synth_or_train_setting_is_a_usage_error(tmp_path, scenes, argv, config, setting, message, capsys):
    flags = ["--out", str(tmp_path / "out")]
    if argv[0] == "train":
        flags += ["--dataset", str(scenes[0])]
    if config is not None:
        (tmp_path / "run.cfg").write_text(config + "\n")
        flags += ["--config", str(tmp_path / "run.cfg")]
    assert run_cli(argv + flags) == 1
    err = capsys.readouterr().err
    assert message in err
    if setting is not None:
        assert _library_error(_config_library, argv[0], setting) in err
    assert not (tmp_path / "out").exists()
