"""Camera models, epipolar geometry, pose metrics, and synthetic scenes."""

from guidematch.geometry.epipolar import (
    CameraCalibration,
    FundamentalMatrix,
    RelativePose,
    epipolar_distances,
    fundamental_from_calibration,
    pose_error,
    relative_pose_between,
    rescale_fundamental,
    rotation_from_axis_angle,
)
from guidematch.geometry.scene import (
    SceneConfig,
    SyntheticScene,
    TrainingPair,
    generate_scene,
    load_scene,
    load_scene_dir,
    save_scene,
)

__all__ = [
    "CameraCalibration",
    "FundamentalMatrix",
    "RelativePose",
    "epipolar_distances",
    "fundamental_from_calibration",
    "pose_error",
    "relative_pose_between",
    "rescale_fundamental",
    "rotation_from_axis_angle",
    "SceneConfig",
    "SyntheticScene",
    "TrainingPair",
    "generate_scene",
    "load_scene",
    "load_scene_dir",
    "save_scene",
]
