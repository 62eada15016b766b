"""Table-1 ablation baselines.

Every ablation disables or replaces exactly one of PARD's design choices,
matching the paper's §5.3:

========== =============================================================
PARD-back   considers preceding modules only (L_sub = 0)
PARD-sf     ignores Q and W of subsequent modules (L_sub = sum d_i)
PARD-oc     DAGOR overload control on queueing delay
PARD-split  fixed per-module SLO split
PARD-WCL    dynamic worst-case-latency budget split
PARD-lower  assumes downstream batch wait = 0
PARD-upper  assumes downstream batch wait = sum d_i
PARD-FCFS   drops by arrival order
PARD-HBF    High-Budget-First only
PARD-LBF    Low-Budget-First only (SHEPHERD-like)
PARD-instant adaptive priority without delayed transition
========== =============================================================
"""

from __future__ import annotations

from typing import Callable

from ..core.broker import SubMode
from ..core.policy import BudgetMode, PardPolicy
from ..core.priority import PriorityMode
from ..core.state_planner import WaitMode
from ..interfaces import DropPolicy
from .overload_control import OverloadControlPolicy


def pard(seed: int = 0, lam: float = 0.1, samples: int = 2000) -> PardPolicy:
    """The full PARD policy (paper defaults: lambda = 0.1)."""
    return PardPolicy(lam=lam, samples=samples, seed=seed, name="PARD")


def pard_back(seed: int = 0, **kw) -> PardPolicy:
    """Backward-only estimation (Clockwork / Nexus / Scrooge style)."""
    return PardPolicy(sub_mode=SubMode.NONE, seed=seed, name="PARD-back", **kw)


def pard_sf(seed: int = 0, **kw) -> PardPolicy:
    """Static-forward estimation: downstream durations only (DREAM style)."""
    return PardPolicy(sub_mode=SubMode.DURATIONS, seed=seed, name="PARD-sf", **kw)


def pard_oc(
    seed: int = 0, threshold: float = 0.020, alpha: float = 0.4
) -> OverloadControlPolicy:
    """DAGOR-style overload control."""
    return OverloadControlPolicy(threshold=threshold, alpha=alpha, seed=seed)


def pard_split(seed: int = 0, **kw) -> PardPolicy:
    """Fixed per-module SLO split (Clipper++-style budgets, PARD mechanics)."""
    return PardPolicy(budget_mode=BudgetMode.SPLIT, seed=seed, name="PARD-split", **kw)


def pard_wcl(seed: int = 0, **kw) -> PardPolicy:
    """Dynamic worst-case-latency budget split."""
    return PardPolicy(budget_mode=BudgetMode.WCL, seed=seed, name="PARD-WCL", **kw)


def pard_lower(seed: int = 0, **kw) -> PardPolicy:
    """Assume zero downstream batch wait (under-estimation extreme)."""
    return PardPolicy(wait_mode=WaitMode.LOWER, seed=seed, name="PARD-lower", **kw)


def pard_upper(seed: int = 0, **kw) -> PardPolicy:
    """Assume maximal downstream batch wait (over-estimation extreme)."""
    return PardPolicy(wait_mode=WaitMode.UPPER, seed=seed, name="PARD-upper", **kw)


def pard_fcfs(seed: int = 0, **kw) -> PardPolicy:
    """PARD estimation with arrival-order decisions (no DEPQ)."""
    return PardPolicy(priority_mode=PriorityMode.FCFS, seed=seed, name="PARD-FCFS", **kw)


def pard_hbf(seed: int = 0, **kw) -> PardPolicy:
    """Always High-Budget-First."""
    return PardPolicy(priority_mode=PriorityMode.HBF, seed=seed, name="PARD-HBF", **kw)


def pard_lbf(seed: int = 0, **kw) -> PardPolicy:
    """Always Low-Budget-First (SHEPHERD-like earliest-deadline order)."""
    return PardPolicy(priority_mode=PriorityMode.LBF, seed=seed, name="PARD-LBF", **kw)


def pard_instant(seed: int = 0, **kw) -> PardPolicy:
    """Adaptive priority without the delayed-transition hysteresis."""
    return PardPolicy(
        priority_mode=PriorityMode.INSTANT, seed=seed, name="PARD-instant", **kw
    )


ABLATIONS: dict[str, Callable[..., DropPolicy]] = {
    "PARD": pard,
    "PARD-back": pard_back,
    "PARD-sf": pard_sf,
    "PARD-oc": pard_oc,
    "PARD-split": pard_split,
    "PARD-WCL": pard_wcl,
    "PARD-lower": pard_lower,
    "PARD-upper": pard_upper,
    "PARD-FCFS": pard_fcfs,
    "PARD-HBF": pard_hbf,
    "PARD-LBF": pard_lbf,
    "PARD-instant": pard_instant,
}


def make_ablation(name: str, seed: int = 0) -> DropPolicy:
    """Instantiate an ablation policy by its Table-1 name."""
    try:
        factory = ABLATIONS[name]
    except KeyError:
        raise KeyError(
            f"unknown ablation {name!r}; known: {sorted(ABLATIONS)}"
        ) from None
    return factory(seed=seed)
