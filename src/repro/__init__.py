"""PARD reproduction: proactive request dropping for inference pipelines.

Public API quick tour::

    from repro import Scenario, run_scenario, standard_scenario

    # One of the paper's 12 workloads, calibrated to 90% utilization.
    result = run_scenario(standard_scenario("lv", "tweet", policy="PARD"))
    print(result.summary)

    # Any run is a plain-data Scenario; this one pins the trace rate.
    scenario = Scenario(
        app={"name": "lv"},
        trace={"name": "tweet", "base_rate": 60, "duration": 120},
        policy={"name": "PARD", "params": {"lam": 0.1}},
    )
    print(run_scenario(scenario).summary)

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-versus-measured record of every figure and table.
"""

from .core import (
    BatchWaitEstimator,
    BudgetMode,
    PardPolicy,
    PriorityMode,
    StatePlanner,
    SubMode,
    WaitMode,
)
from .experiments import (
    AppSpec,
    ExperimentResult,
    Scenario,
    ScalingSpec,
    TraceSpec,
    run_scenario,
    standard_scenario,
)
from .metrics import MetricsCollector, Summary, summarize
from .pipeline import Application, ModelProfile, PipelineSpec, get_application
from .policies import (
    ClipperPlusPlusPolicy,
    DropPolicy,
    NaivePolicy,
    NexusPolicy,
    OverloadControlPolicy,
    ParamSpec,
    PolicySpec,
    make_ablation,
    make_policy,
)
from .simulation import Cluster, Request, Simulator
from .workload import Trace, get_trace

__version__ = "1.0.0"

__all__ = [
    "AppSpec",
    "Application",
    "BatchWaitEstimator",
    "BudgetMode",
    "ClipperPlusPlusPolicy",
    "Cluster",
    "DropPolicy",
    "ExperimentResult",
    "MetricsCollector",
    "ModelProfile",
    "NaivePolicy",
    "NexusPolicy",
    "OverloadControlPolicy",
    "ParamSpec",
    "PardPolicy",
    "PolicySpec",
    "PipelineSpec",
    "PriorityMode",
    "Request",
    "Scenario",
    "ScalingSpec",
    "Simulator",
    "StatePlanner",
    "SubMode",
    "Summary",
    "Trace",
    "TraceSpec",
    "WaitMode",
    "get_application",
    "get_trace",
    "make_ablation",
    "make_policy",
    "run_scenario",
    "standard_scenario",
    "summarize",
    "__version__",
]
