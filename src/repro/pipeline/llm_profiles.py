"""Token-level LLM model profiles and applications.

LLM inference breaks the affine batch-latency assumption of
:mod:`repro.pipeline.profiles`: a request first runs one *prefill*
iteration over its prompt tokens, then one *decode* iteration per output
token, sharing each iteration with whatever else is in the continuous
batch.  :class:`LLMProfile` captures both phase costs plus the KV-cache
capacity that bounds how many token reservations fit on one worker.

The profile is still a :class:`~repro.pipeline.profiles.ModelProfile`:
its ``base``/``per_item`` are derived as the *expected* per-request
affine equivalent (prefill plus E[output] decode iterations at batch
size B), so Nexus-style batch planning (`plan_batch_sizes`,
`provision_workers`) and throughput estimates work unchanged, while the
token-level :class:`~repro.simulation.llm.LLMWorker` consumes the phase
costs directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Mapping

import numpy as np

from ..schema import Bool, Int, Nested, Num, Spec, Str, field
from .applications import Application, register_application
from .profiles import DEFAULT_PROFILES, ModelProfile
from .spec import ModuleSpec, PipelineSpec, chain

_DIST_KINDS = ("constant", "uniform", "lognormal")


@dataclass(frozen=True)
class TokenDist(Spec):
    """Seeded distribution of token counts (prompt or output lengths).

    ``kind`` selects the shape:

    * ``constant`` — every draw is ``round(mean)``.
    * ``uniform`` — integer-uniform on ``[low, high]``.
    * ``lognormal`` — lognormal with the given *arithmetic* ``mean`` and
      underlying-normal ``sigma`` (the standard long-tail shape of real
      prompt/output length traces).

    Draws are clamped to at least one token so a sampled length can never
    stall a request, and ``0`` stays free as the "not sampled yet"
    sentinel on :class:`~repro.simulation.request.ModuleVisit`.
    """

    _section, _prefix = "token distribution", "token distribution "

    kind: str = field(Str(_DIST_KINDS), "constant")
    mean: float = field(Num(), 128.0)
    low: float = field(Num(), 1.0)
    high: float = field(Num(), 1.0)
    sigma: float = field(Num(), 0.5)

    def _check(self) -> None:
        if self.kind == "uniform":
            for name in ("low", "high"):
                value = getattr(self, name)
                if value != int(value):
                    raise ValueError(
                        f"token distribution {name} must be an integer, "
                        f"got {value!r}"
                    )
            if self.low < 1 or self.high < self.low:
                raise ValueError(
                    f"uniform token distribution needs 1 <= low <= high, "
                    f"got [{self.low}, {self.high}]"
                )
        elif self.mean < 1:
            raise ValueError(f"token distribution mean must be >= 1, got {self.mean}")
        if self.kind == "lognormal":
            if self.sigma <= 0:
                raise ValueError(f"lognormal sigma must be > 0, got {self.sigma}")
            # The underlying normal's mu, chosen so the arithmetic mean is
            # self.mean; derived, so not a field.
            object.__setattr__(
                self, "_mu", math.log(self.mean) - 0.5 * self.sigma * self.sigma
            )

    def sample(self, rng: np.random.Generator) -> int:
        """One integer token count (always >= 1)."""
        if self.kind == "constant":
            return max(1, int(round(self.mean)))
        if self.kind == "uniform":
            return int(rng.integers(int(self.low), int(self.high) + 1))
        return max(1, int(round(float(rng.lognormal(self._mu, self.sigma)))))

    def expectation(self) -> float:
        """Expected token count (used to derive affine-equivalent costs)."""
        if self.kind == "uniform":
            return (self.low + self.high) / 2.0
        return self.mean


@dataclass(frozen=True)
class LLMProfile(ModelProfile):
    """Token-cost profile of one LLM model.

    Parameters
    ----------
    prefill_base / prefill_per_token:
        A prefill iteration over ``T`` total prompt tokens takes
        ``prefill_base + prefill_per_token * T`` seconds and emits each
        request's first output token.
    decode_base / decode_per_token:
        A decode iteration at running batch size ``B`` takes
        ``decode_base + decode_per_token * B`` seconds and appends one
        token to every running request.
    kv_capacity:
        Per-worker KV-cache size in tokens; every admitted request holds
        a reservation against it (see :class:`~repro.simulation.llm
        .LLMWorker`).
    prompt_dist / output_dist:
        Per-request token-length distributions, sampled from the
        cluster's seeded RNG streams at dispatch time.
    preempt:
        ``False`` (block mode) reserves ``prompt + output`` tokens at
        admission; ``True`` reserves ``prompt + generated`` and grows the
        reservation per decode, preempting the most recently admitted
        request back to the queue when the cache fills.

    ``base``/``per_item`` are derived from the phase costs and the
    distribution expectations on every construction (``dataclasses
    .replace`` included; a value passed in is replaced), so the profile
    plugs into batch planning and provisioning as a normal
    :class:`ModelProfile` whose affine cost always matches its phases.
    """

    _tag = ("kind", "llm")

    # Derived from the phase costs, and kept out of the dict form.
    base: float = field(Num(">= 0"), 0.0, key=None)
    per_item: float = field(Num(">= 0"), 0.0, key=None)
    prefill_base: float = field(Num("> 0"), 0.004)
    prefill_per_token: float = field(Num("> 0"), 0.00002)
    decode_base: float = field(Num("> 0"), 0.002)
    decode_per_token: float = field(Num("> 0"), 0.0001)
    kv_capacity: int = field(Int(">= 1"), 8192)
    prompt_dist: TokenDist = field(Nested(TokenDist, wrap=True), TokenDist())
    output_dist: TokenDist = field(
        Nested(TokenDist, wrap=True), TokenDist(kind="constant", mean=64.0)
    )
    preempt: bool = field(Bool(), False)

    def _check(self) -> None:
        e_prompt = self.prompt_dist.expectation()
        e_out = self.output_dist.expectation()
        # Affine equivalent of the expected per-request cost at batch size
        # B: one shared prefill pass plus E[out] decode iterations —
        # d(B) = (prefill_base + E[out]*decode_base)
        #        + (prefill_per_token*E[prompt] + E[out]*decode_per_token)*B.
        object.__setattr__(
            self, "base", self.prefill_base + e_out * self.decode_base
        )
        object.__setattr__(
            self,
            "per_item",
            self.prefill_per_token * e_prompt + e_out * self.decode_per_token,
        )

    # -- token-phase costs --------------------------------------------------

    def prefill_duration(self, prompt_tokens: int) -> float:
        """Duration of one prefill iteration over ``prompt_tokens`` total."""
        return self.prefill_base + self.prefill_per_token * prompt_tokens

    def decode_duration(self, batch_size: int) -> float:
        """Duration of one decode iteration at running batch ``batch_size``."""
        return self.decode_base + self.decode_per_token * batch_size

    def request_estimate(self, prompt_tokens: int, output_tokens: int, batch_size: int) -> float:
        """Expected service time of one request at a given batch size."""
        b = max(1, min(batch_size, self.max_batch))
        return self.prefill_duration(prompt_tokens) + output_tokens * self.decode_duration(b)


def is_llm_profile_dict(data: Mapping[str, Any]) -> bool:
    """True when a serialized profile dict describes an :class:`LLMProfile`."""
    return data.get("kind") == "llm" or "prefill_base" in data


def profile_class(data: Mapping[str, Any]) -> type[ModelProfile]:
    """The profile flavour a serialized profile dict describes."""
    return LLMProfile if is_llm_profile_dict(data) else ModelProfile


# Default token-level profiles, registered next to the vision models so
# scenario files can reference them by name.  Costs are plausible for a
# single A100-class GPU serving a ~7B model (prefill ~50k tok/s, decode
# ~2ms/iteration floor); the rerank head is a short-output scorer.
LLM_PROFILES = [
    LLMProfile(
        "llm_generate",
        max_batch=8,
        prefill_base=0.004,
        prefill_per_token=0.00002,
        decode_base=0.0025,
        decode_per_token=0.00035,
        kv_capacity=16384,
        prompt_dist=TokenDist(kind="lognormal", mean=256.0, sigma=0.5),
        output_dist=TokenDist(kind="lognormal", mean=96.0, sigma=0.6),
    ),
    LLMProfile(
        "llm_rerank",
        max_batch=16,
        prefill_base=0.003,
        prefill_per_token=0.000012,
        decode_base=0.0018,
        decode_per_token=0.0002,
        kv_capacity=8192,
        prompt_dist=TokenDist(kind="uniform", low=96.0, high=160.0),
        output_dist=TokenDist(kind="constant", mean=4.0),
    ),
    # Retrieval is not token-level: a plain affine profile keeps the RAG
    # DAG mixing fixed-duration and LLM modules in one pipeline.
    ModelProfile("rag_retriever", base=0.012, per_item=0.0030, max_batch=32),
]

for _profile in LLM_PROFILES:
    DEFAULT_PROFILES.register(_profile)


def is_llm_application(app: Application) -> bool:
    """True when any module of ``app`` resolves to an :class:`LLMProfile`."""
    return any(
        m.model in DEFAULT_PROFILES
        and isinstance(DEFAULT_PROFILES.get(m.model), LLMProfile)
        for m in app.spec.modules
    )


@register_application("llm-chat")
def llm_chat() -> Application:
    """Single-stage LLM chat serving (one generate module)."""
    spec = chain("llm-chat", ["llm_generate"])
    return Application(spec=spec, slo=8.0)


@register_application("rag-agentic")
def rag_agentic() -> Application:
    """Agentic RAG DAG: retrieve forks to a rerank->generate path or a
    direct-generate shortcut; a probabilistic router picks the branch per
    request (seeded), exercising kill plans and multi-exit retirement."""
    spec = PipelineSpec(
        name="rag-agentic",
        modules=[
            ModuleSpec(
                "retrieve", "rag_retriever",
                pres=(), subs=("rerank", "generate_direct"),
            ),
            ModuleSpec("rerank", "llm_rerank", pres=("retrieve",), subs=("generate",)),
            ModuleSpec("generate", "llm_generate", pres=("rerank",), subs=()),
            ModuleSpec(
                "generate_direct", "llm_generate",
                pres=("retrieve",), subs=(),
            ),
        ],
    )
    return Application(spec=spec, slo=10.0)
