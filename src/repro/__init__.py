"""PARD reproduction: proactive request dropping for inference pipelines.

Public API quick tour::

    from repro import (
        PardPolicy, NexusPolicy, ClipperPlusPlusPolicy, NaivePolicy,
        get_application, get_trace,
        ExperimentConfig, run_experiment, summarize,
    )

    config = ExperimentConfig(app="lv", trace="tweet", base_rate=60, duration=120)
    result = run_experiment(config, PardPolicy())
    print(result.summary)

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
    ExperimentConfig,
    ExperimentResult,
    Scenario,
    ScalingSpec,
    TraceSpec,
    compare_policies,
    run_experiment,
    run_scenario,
    standard_config,
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
    "ExperimentConfig",
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
    "compare_policies",
    "get_application",
    "get_trace",
    "make_ablation",
    "make_policy",
    "run_experiment",
    "run_scenario",
    "standard_config",
    "summarize",
    "__version__",
]
