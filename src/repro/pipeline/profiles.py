"""Offline model profiles.

The paper performs offline profiling per model to obtain execution duration
and throughput at each batch size; every policy then consumes only these
profiled numbers (never the "real" hardware).  We substitute real GPUs with
affine batch-latency profiles ``d(B) = base + per_item * B``, the standard
shape reported for convolutional models on V100/2080Ti-class GPUs (Nexus,
Clipper, Clockwork all profile this way).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..schema import Int, Num, Spec, Str, field


@dataclass(frozen=True)
class ModelProfile(Spec):
    """Profiled batch-latency curve of one DNN model.

    Parameters
    ----------
    name:
        Registered model name (what pipeline specs reference).
    base:
        Fixed per-batch overhead in seconds (kernel launch, pre/post).
    per_item:
        Marginal seconds per batched item.
    max_batch:
        Largest batch size the model (GPU memory) supports.
    """

    _section = "profile"

    name: str = field(Str())
    base: float = field(Num("> 0"))
    per_item: float = field(Num("> 0"))
    max_batch: int = field(Int(">= 1"), 32)

    def _where(self) -> str:
        return f"profile {self.name!r}: "

    def duration(self, batch_size: int) -> float:
        """Profiled execution duration (seconds) for ``batch_size``."""
        if batch_size < 1:
            raise ValueError(f"batch size must be >= 1, got {batch_size}")
        if batch_size > self.max_batch:
            raise ValueError(
                f"batch size {batch_size} exceeds max_batch {self.max_batch} "
                f"for model {self.name!r}"
            )
        return self.base + self.per_item * batch_size

    def throughput(self, batch_size: int) -> float:
        """Requests per second one worker sustains at ``batch_size``."""
        return batch_size / self.duration(batch_size)

    def max_throughput(self) -> float:
        """Throughput at the largest supported batch size."""
        return self.throughput(self.max_batch)

    def feasible_batch(self, budget: float) -> int:
        """Largest batch size whose duration fits within ``budget`` seconds.

        Returns 0 when even a single-request batch does not fit (the module
        cannot meet its share of the SLO at all).
        """
        if budget < self.duration(1):
            return 0
        # The 1e-9 guard keeps floating-point round-off from rejecting a
        # batch size whose duration equals the budget exactly.
        b = int((budget - self.base) / self.per_item + 1e-9)
        return max(1, min(b, self.max_batch))


class ProfileRegistry:
    """Name -> :class:`ModelProfile` lookup used when building clusters."""

    def __init__(self, profiles: list[ModelProfile] | None = None) -> None:
        self._profiles: dict[str, ModelProfile] = {}
        for p in profiles or []:
            self.register(p)

    def register(self, profile: ModelProfile) -> None:
        if profile.name in self._profiles:
            raise ValueError(f"profile {profile.name!r} already registered")
        self._profiles[profile.name] = profile

    def get(self, name: str) -> ModelProfile:
        try:
            return self._profiles[name]
        except KeyError:
            raise KeyError(
                f"no profile registered for model {name!r}; "
                f"known: {sorted(self._profiles)}"
            ) from None

    def __contains__(self, name: str) -> bool:
        return name in self._profiles

    def names(self) -> list[str]:
        return sorted(self._profiles)


# Profiles for the eleven models used by the paper's four applications
# (tm, lv, gm, da).  Numbers are in seconds and chosen to be plausible for
# 2080Ti-class GPUs: detection models are heavier than recognition heads.
DEFAULT_PROFILES = ProfileRegistry(
    [
        ModelProfile("object_detection", base=0.025, per_item=0.0090, max_batch=32),
        ModelProfile("face_recognition", base=0.015, per_item=0.0060, max_batch=32),
        ModelProfile("text_recognition", base=0.018, per_item=0.0070, max_batch=32),
        ModelProfile("person_detection", base=0.024, per_item=0.0085, max_batch=32),
        ModelProfile("expression_recognition", base=0.012, per_item=0.0050, max_batch=32),
        ModelProfile("eye_tracking", base=0.010, per_item=0.0045, max_batch=32),
        ModelProfile("pose_recognition", base=0.016, per_item=0.0065, max_batch=32),
        ModelProfile("kill_count_detection", base=0.013, per_item=0.0055, max_batch=32),
        ModelProfile("alive_player_recognition", base=0.011, per_item=0.0050, max_batch=32),
        ModelProfile("health_value_recognition", base=0.010, per_item=0.0045, max_batch=32),
        ModelProfile("icon_recognition", base=0.009, per_item=0.0040, max_batch=32),
    ]
)
