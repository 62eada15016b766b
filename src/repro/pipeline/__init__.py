"""Pipeline specifications, model profiles and the paper's applications."""

from .applications import (
    APPLICATIONS,
    Application,
    da,
    get_application,
    gm,
    known_applications,
    lv,
    register_application,
    tm,
)
from .llm_profiles import (
    LLM_PROFILES,
    LLMProfile,
    TokenDist,
    is_llm_application,
    llm_chat,
    profile_class,
    rag_agentic,
)
from .profiles import DEFAULT_PROFILES, ModelProfile, ProfileRegistry
from .spec import ModuleSpec, PipelineSpec, chain

__all__ = [
    "APPLICATIONS",
    "Application",
    "DEFAULT_PROFILES",
    "LLMProfile",
    "LLM_PROFILES",
    "ModelProfile",
    "ModuleSpec",
    "PipelineSpec",
    "ProfileRegistry",
    "TokenDist",
    "chain",
    "da",
    "get_application",
    "gm",
    "is_llm_application",
    "known_applications",
    "llm_chat",
    "lv",
    "profile_class",
    "rag_agentic",
    "register_application",
    "tm",
]
