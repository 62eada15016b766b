"""Golden determinism fingerprints for the committed example scenarios.

Every scenario file under ``examples/scenarios/`` has a committed
``--save-summaries`` golden in ``benchmarks/goldens/``.  The simulation
core must reproduce those bytes exactly — serially and through a process
pool — so a performance change that perturbs results can never land
silently.  ``perfbench`` runs the same comparison as its correctness gate
by importing :func:`repro.bench.harness.check_goldens`, the import path
these tests pin.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.bench.harness import GOLDEN_SCENARIOS, check_goldens
from repro.experiments.sweep import load_scenario_cells, run_sweep, summaries_text

REPO = Path(__file__).resolve().parents[2]
SCENARIOS = REPO / "examples" / "scenarios"
GOLDENS = REPO / "benchmarks" / "goldens"


@pytest.mark.parametrize("stem", GOLDEN_SCENARIOS)
def test_serial_summaries_match_committed_golden(stem):
    cells = load_scenario_cells(SCENARIOS / f"{stem}.json")
    results = run_sweep(cells, workers=1, cache_dir=None)
    assert all(r.ok for r in results), [r.error for r in results if not r.ok]
    golden = (GOLDENS / f"{stem}.summaries.json").read_text()
    assert summaries_text(results) == golden


def test_two_proc_pool_matches_serial_bytes():
    """One pool over every golden scenario's cells: parallel == serial."""
    cells = []
    for stem in GOLDEN_SCENARIOS:
        cells.extend(load_scenario_cells(SCENARIOS / f"{stem}.json"))
    assert len(cells) >= 2  # the pool path must actually engage
    serial = run_sweep(cells, workers=1, cache_dir=None)
    parallel = run_sweep(cells, workers=2, cache_dir=None)
    assert summaries_text(parallel) == summaries_text(serial)


def test_check_goldens_flags_divergence(tmp_path):
    """A tampered golden must surface as a mismatch, not pass silently.

    Only ``burst_failure`` is staged (the other stems report
    missing-scenario without running), keeping the test cheap.
    """
    scenarios = tmp_path / "scenarios"
    goldens = tmp_path / "goldens"
    scenarios.mkdir()
    goldens.mkdir()
    stem = "burst_failure"
    (scenarios / f"{stem}.json").write_text(
        (SCENARIOS / f"{stem}.json").read_text()
    )
    tampered = (GOLDENS / f"{stem}.summaries.json").read_text().replace(
        '"good":', '"good_":', 1
    )
    (goldens / f"{stem}.summaries.json").write_text(tampered)
    status = check_goldens(scenarios, goldens)
    assert status[stem] == "mismatch"
    assert all(
        status[s] == "missing-scenario" for s in GOLDEN_SCENARIOS if s != stem
    )


def test_check_goldens_missing_golden(tmp_path):
    status = check_goldens(SCENARIOS, tmp_path)
    assert set(status.values()) == {"missing-golden"}
