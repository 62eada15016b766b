"""Serving policies: baselines, Table-1 ablations and fairness policies."""

from ..interfaces import DropContext, DropPolicy, FifoQueue, RequestQueue
from .ablations import ABLATIONS, make_ablation
from .clipper import ClipperPlusPlusPolicy
from .fairness import AdmissionPolicy, TokenBucketPolicy, WeightedFairDropPolicy
from .naive import NaivePolicy
from .nexus import NexusPolicy
from .overload_control import OverloadControlPolicy
from .registry import (
    ADMISSIONS,
    POLICIES,
    SYSTEM_FACTORIES,
    admission_params,
    known_admissions,
    known_policies,
    make_admission,
    make_policy,
    policy_params,
    register_admission,
    register_policy,
)
from .spec import ParamSpec, PolicySpec

__all__ = [
    "ABLATIONS",
    "ADMISSIONS",
    "AdmissionPolicy",
    "ClipperPlusPlusPolicy",
    "DropContext",
    "DropPolicy",
    "FifoQueue",
    "NaivePolicy",
    "NexusPolicy",
    "OverloadControlPolicy",
    "POLICIES",
    "ParamSpec",
    "PolicySpec",
    "RequestQueue",
    "SYSTEM_FACTORIES",
    "TokenBucketPolicy",
    "WeightedFairDropPolicy",
    "admission_params",
    "known_admissions",
    "known_policies",
    "make_ablation",
    "make_admission",
    "make_policy",
    "policy_params",
    "register_admission",
    "register_policy",
]
