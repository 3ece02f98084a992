"""Constrained retraining, Algorithm-2 methodology and mixed plans."""

from repro.training.constrained import (
    ConstraintProjector,
    constrained_trainer,
    weight_param_name,
)
from repro.training.methodology import (
    DesignMethodology,
    MethodologyResult,
    StageResult,
)
from repro.training.mixed import build_mixed_plan

__all__ = [
    "ConstraintProjector", "constrained_trainer", "weight_param_name",
    "DesignMethodology", "MethodologyResult", "StageResult",
    "build_mixed_plan",
]
