"""PARD's core: proactive dropping and adaptive priority."""

from .batch_wait import (
    BatchWaitEstimator,
    aggregated_wait_quantile_uniform,
    irwin_hall_cdf,
    irwin_hall_quantile,
)
from .broker import LatencyEstimate, RequestBroker, SubMode
from .policy import BudgetMode, PardPolicy
from .priority import (
    AdaptivePriorityController,
    DeadlineDepqQueue,
    LoadSmoother,
    PriorityMode,
    TransitionEvent,
)
from .state_planner import ModuleState, PathMode, StatePlanner, WaitMode

__all__ = [
    "AdaptivePriorityController",
    "BatchWaitEstimator",
    "BudgetMode",
    "DeadlineDepqQueue",
    "LatencyEstimate",
    "LoadSmoother",
    "ModuleState",
    "PardPolicy",
    "PathMode",
    "PriorityMode",
    "RequestBroker",
    "StatePlanner",
    "SubMode",
    "TransitionEvent",
    "WaitMode",
    "aggregated_wait_quantile_uniform",
    "irwin_hall_cdf",
    "irwin_hall_quantile",
]
