"""Byte-exact State Planner estimates, pinned by digest.

The goldens see the planner only through drop decisions, which a change
in the last bits of ``L_sub`` rarely flips.  This case records what every
sync tick computes: after each ``PardPolicy.on_tick`` of the
``diamond_merge.json`` base cell (PARD on a DAG that forks and re-merges
twice), ``sub_estimate`` and the per-path ``path_components`` of every
module, floats by ``repr``.  So a change to how the planner samples its
windows or reads the batch-wait quantile must leave every value below
untouched.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from repro.core.policy import PardPolicy
from repro.experiments.runner import run_scenario
from repro.experiments.scenario import Scenario

EXAMPLES = Path(__file__).resolve().parents[2] / "examples" / "scenarios"


def test_diamond_sync_ticks_pinned(monkeypatch):
    ticks: list[tuple] = []
    on_tick = PardPolicy.on_tick

    def observed(self, now: float) -> None:
        on_tick(self, now)
        planner = self.planner
        ticks.append((now, [
            (mid, planner.sub_estimate(mid), planner.path_components(mid))
            for mid in self.cluster.spec.module_ids
        ]))

    monkeypatch.setattr(PardPolicy, "on_tick", observed)
    base = json.loads((EXAMPLES / "diamond_merge.json").read_text())["base"]
    run_scenario(Scenario.from_dict(base))
    # Four paths from m1 through the two diamonds, four modules each; the
    # run's estimates draw from observed windows and the uniform model.
    assert len(ticks[0][1][0][2]) == 4
    assert len(ticks) == TICKS
    assert hashlib.sha256(repr(ticks).encode()).hexdigest() == DIGEST


#: One sync per simulated second, and the digest of what they computed.
TICKS = 20
DIGEST = "3061752bb0a0095f21ce414d52da7b23c264a697895d544fac565180c735e61b"
