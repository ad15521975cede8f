"""Camera models, epipolar geometry, pose metrics, and synthetic scenes.

The training pairs built from scenes live in ``guidematch.supervision``.
"""

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
    "generate_scene",
    "load_scene",
    "load_scene_dir",
    "save_scene",
]
