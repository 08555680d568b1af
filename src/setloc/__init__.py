"""Guaranteed set-membership localization with infrastructure sensors."""

from .geom2d import AngleInterval, ConvexPolygon, Interval
from .kinematics import Control, MarkerOffset, RobotModel, RobotPose
from .sensing import Measurement, SensorModel, SensorPose
from .correspondence import (Assignment, CandidateMatrix, CapExceeded,
                             InconsistentBatch)
from .estimator import (EmptySetFault, EstimatorModels, EstimatorState,
                        RigidBodySpec, StepFault)
from .scenario import ConfigError, RunRecord, ScenarioConfig, ScenarioFault

__version__ = "0.1.0"

__all__ = [
    "AngleInterval", "Assignment", "CandidateMatrix", "CapExceeded",
    "ConfigError", "Control", "ConvexPolygon", "EmptySetFault",
    "EstimatorModels", "EstimatorState", "InconsistentBatch", "Interval",
    "MarkerOffset", "Measurement", "RigidBodySpec", "RobotModel",
    "RobotPose", "RunRecord", "ScenarioConfig", "ScenarioFault",
    "SensorModel", "SensorPose", "StepFault", "__version__",
]
