"""Pickle form of :class:`MetricsCollector`: columns travel as raw bytes.

Sweep results reach the process pool and the on-disk cell cache by
pickle, so a round trip must rebuild every record exactly, and the
pickle must not grow a class reference per record.
"""

from __future__ import annotations

import pickle
import pickletools

import pytest

from repro.experiments.runner import run_scenario
from repro.experiments.scenario import Scenario
from repro.metrics.analysis import summarize
from repro.metrics.collector import RequestRecord, VisitRecord
from repro.metrics.goodput import goodput_report

BURSTY_TM = {
    "app": {"name": "tm"},
    "trace": {"name": "poisson", "duration": 8, "base_rate": 100,
              "bursts": [{"start": 3.0, "length": 2.0, "factor": 3.0}]},
}

CASES = {
    # PARD drops under the burst: drop reasons and drop modules.
    "tm-burst": (BURSTY_TM, False,
                 lambda c: any(r.drop_reason for r in c.records)),
    # DAG joins: records with several visits.
    "da": ({"app": {"name": "da"},
            "trace": {"name": "poisson", "duration": 4, "base_rate": 30}},
           False, lambda c: any(len(r.visits) > 1 for r in c.records)),
    # Token-level fields and a declared goodput spec.
    "llm-chat": ({"app": {"name": "llm-chat"},
                  "trace": {"name": "poisson", "duration": 4, "base_rate": 10},
                  "workers": 1, "goodput": {"ttft": 1.0, "e2e": 8.0}},
                 False, lambda c: any(r.tokens_out for r in c.records)),
    "lean": (BURSTY_TM, True, lambda c: c.count and not c.records),
}


def _collector(fields: dict, lean: bool = False):
    spec = {"name": "pickle", "policy": "PARD", "workers": 2, "seed": 3,
            **fields}
    return run_scenario(Scenario.from_dict(spec), lean=lean).collector


def _object_builds(obj) -> int:
    """Opcodes that build an object from a class reference."""
    blob = pickle.dumps(obj, pickle.HIGHEST_PROTOCOL)
    return sum(
        op.name in ("NEWOBJ", "NEWOBJ_EX", "REDUCE", "BUILD")
        for op, _, _ in pickletools.genops(blob)
    )


@pytest.mark.parametrize("case", CASES)
def test_round_trip_is_exact(case):
    fields, lean, covers = CASES[case]
    collector = _collector(fields, lean)
    assert covers(collector)
    back = pickle.loads(pickle.dumps(collector, pickle.HIGHEST_PROTOCOL))
    assert back.records == collector.records
    assert all(type(r) is RequestRecord for r in back.records)
    assert all(type(v) is VisitRecord for r in back.records for v in r.visits)
    rest = {k: v for k, v in vars(collector).items() if k != "records"}
    assert {k: v for k, v in vars(back).items() if k != "records"} == rest
    assert summarize(back) == summarize(collector)
    assert goodput_report(back) == goodput_report(collector)


def test_pickle_size_in_objects_does_not_grow_with_records():
    # The long run adds drops and drop reasons the short run never saw,
    # and still pickles the same objects.
    short = _collector({"app": {"name": "tm"},
                        "trace": {"name": "poisson", "duration": 1,
                                  "base_rate": 10}})
    long = _collector(BURSTY_TM)
    assert len(short.records) < 20 and not short.dropped_count
    assert len(long.records) >= 1000
    assert {r.drop_reason for r in long.records} - {None}
    assert _object_builds(short) == _object_builds(long)
