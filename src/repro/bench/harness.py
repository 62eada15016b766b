"""The golden determinism gate for the committed example scenarios.

``check_goldens`` replays the committed example scenario files serially
and byte-compares their ``--save-summaries`` output with the golden files
under ``benchmarks/goldens/``.  A performance "win" that changes results
therefore shows up as a ``"mismatch"``: ``perfbench`` counts every
non-``"ok"`` entry as a failed operation, and
``tests/experiments/test_goldens.py`` pins the same bytes in the test
suite.
"""

from __future__ import annotations

from pathlib import Path

#: Scenario files (under ``examples/scenarios``) with committed golden summaries.
GOLDEN_SCENARIOS = (
    "burst_failure",
    "diamond_merge",
    "fair_share",
    "lam_sweep",
    "llm_serving",
    "shared_cluster",
)


def check_goldens(
    scenarios_dir: str | Path, goldens_dir: str | Path
) -> dict[str, str]:
    """Byte-compare serial summaries of each example scenario vs goldens.

    Returns ``{scenario stem: "ok" | "mismatch" | "missing-golden" |
    "missing-scenario"}``.  Runs serially with no cache — the reference
    execution parallel sweeps must match bitwise.
    """
    from ..experiments.sweep import load_scenario_cells, run_sweep, summaries_text

    scenarios_dir = Path(scenarios_dir)
    goldens_dir = Path(goldens_dir)
    out: dict[str, str] = {}
    for stem in GOLDEN_SCENARIOS:
        scenario_path = scenarios_dir / f"{stem}.json"
        golden_path = goldens_dir / f"{stem}.summaries.json"
        if not scenario_path.is_file():
            out[stem] = "missing-scenario"
            continue
        if not golden_path.is_file():
            out[stem] = "missing-golden"
            continue
        cells = load_scenario_cells(scenario_path)
        results = run_sweep(cells, workers=1, cache_dir=None)
        text = summaries_text(results)
        out[stem] = "ok" if text == golden_path.read_text() else "mismatch"
    return out
