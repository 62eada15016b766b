"""Discrete-event serving-cluster substrate (replaces the paper's testbed)."""

from .batching import plan_batch_sizes, provision_workers, slo_split
from .cluster import Cluster
from .dispatcher import LeastLoadedDispatcher
from .engine import Simulator
from .failures import FailureEvent, FailureInjector
from .module import Module
from .request import DropReason, ModuleVisit, Request, RequestStatus
from .rng import RngStreams
from .routing import (
    PathRouter,
    ProbabilisticRouter,
    ResultDependentRouter,
    StaticRouter,
)
from .scaling import ReactiveScaler, ScalingEvent
from .stats import ModuleStats, RateMeter, WindowedSamples
from .tenancy import (
    PoolSpec,
    SharedCluster,
    SharedPolicy,
    Tenant,
    TenantView,
    assign_pools,
)
from .worker import Batch, Worker

__all__ = [
    "Batch",
    "Cluster",
    "DropReason",
    "FailureEvent",
    "FailureInjector",
    "LeastLoadedDispatcher",
    "Module",
    "PathRouter",
    "PoolSpec",
    "ProbabilisticRouter",
    "ResultDependentRouter",
    "SharedCluster",
    "SharedPolicy",
    "StaticRouter",
    "Tenant",
    "TenantView",
    "ModuleStats",
    "ModuleVisit",
    "RateMeter",
    "ReactiveScaler",
    "Request",
    "RequestStatus",
    "RngStreams",
    "ScalingEvent",
    "Simulator",
    "WindowedSamples",
    "Worker",
    "assign_pools",
    "plan_batch_sizes",
    "provision_workers",
    "slo_split",
]
