"""Figure 11 + Table 1: ablation study on lv-tweet.

(a) average drop rate and invalid rate of PARD against the eleven
    single-change ablations;
(b) percentage of drops at each module.

Paper headlines: PARD-back/sf/oc suffer 1.1x-3.6x higher drop rates and
2.1x-24x higher invalid rates; split-budget variants 2.6x-2.8x higher
drops; the lower/upper wait-bound extremes hurt in opposite directions;
arrival-order and fixed-priority variants drop 0.5x-2.2x more.
"""

from __future__ import annotations

from repro.experiments import run_scenario, standard_scenario
from repro.metrics import drops_per_module

from .conftest import BENCH_DURATION, BENCH_SEED

ORDER = (
    "PARD",
    "PARD-back",
    "PARD-sf",
    "PARD-oc",
    "PARD-split",
    "PARD-WCL",
    "PARD-upper",
    "PARD-lower",
    "PARD-instant",
    "PARD-HBF",
    "PARD-LBF",
    "PARD-FCFS",
)


def test_fig11_ablations(benchmark):
    def sweep():
        return {
            name: run_scenario(standard_scenario(
                "lv", "tweet", name, seed=BENCH_SEED, duration=BENCH_DURATION
            ))
            for name in ORDER
        }

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)

    print("\nFigure 11a: drop rate / invalid rate per ablation (lv-tweet)")
    print(f"{'ablation':>14s} {'drop':>8s} {'invalid':>8s} {'goodput':>9s}")
    for name in ORDER:
        s = results[name].summary
        print(f"{name:>14s} {s.drop_rate:8.2%} {s.invalid_rate:8.2%} "
              f"{s.goodput:8.1f}/s")

    print("\nFigure 11b: drops at each module")
    for name in ORDER:
        res = results[name]
        shares = drops_per_module(res.collector, res.module_ids)
        row = " ".join(f"{shares[m]:6.1%}" for m in res.module_ids)
        print(f"{name:>14s} [{row}]")

    pard = results["PARD"].summary

    # Bi-directional estimation: backward-only must waste far more GPU time.
    assert results["PARD-back"].summary.invalid_rate > 1.5 * max(
        pard.invalid_rate, 1e-4
    )
    # PARD-back concentrates its drops late; PARD drops early.
    back_shares = drops_per_module(
        results["PARD-back"].collector, results["PARD-back"].module_ids
    )
    pard_shares = drops_per_module(
        results["PARD"].collector, results["PARD"].module_ids
    )
    mids = results["PARD"].module_ids
    early = mids[: len(mids) // 2]
    assert sum(pard_shares[m] for m in early) > sum(back_shares[m] for m in early)
    # The quantile sweet spot beats at least one of the two extremes on
    # goodput, and the extremes err in the documented directions.
    assert (
        pard.goodput >= results["PARD-lower"].summary.goodput - 1.0
        or pard.goodput >= results["PARD-upper"].summary.goodput - 1.0
    )
    assert (
        results["PARD-lower"].summary.invalid_rate
        >= results["PARD-upper"].summary.invalid_rate
    )
    # Adaptive priority beats arrival order and the LBF fixed mode.
    assert pard.drop_rate <= results["PARD-FCFS"].summary.drop_rate + 0.02
    assert pard.drop_rate <= results["PARD-LBF"].summary.drop_rate + 0.02
    # PARD must be at worst marginally behind the best ablation overall.
    best = max(r.summary.goodput for r in results.values())
    assert pard.goodput >= 0.95 * best
