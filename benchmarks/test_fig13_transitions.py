"""Figure 13: load factor and HBF/LBF transitions, PARD vs PARD-instant.

The delayed transition (hysteresis band 1 +/- eps, with eps derived from
workload smoothness) must switch modes substantially less often than the
instant variant while tracking the same load signal.
"""

from __future__ import annotations

from repro.experiments import run_scenario, standard_scenario

from .conftest import BENCH_DURATION, BENCH_SEED


def test_fig13_transition_counts(benchmark):
    def both():
        return tuple(
            run_scenario(standard_scenario(
                "lv", "tweet", name, seed=BENCH_SEED, duration=BENCH_DURATION
            ))
            for name in ("PARD", "PARD-instant")
        )

    pard, instant = benchmark.pedantic(both, rounds=1, iterations=1)

    print("\nFigure 13: priority-mode transitions over the run")
    for label, res in (("PARD", pard), ("PARD-instant", instant)):
        ctrl = res.cluster.policy.priority
        # Ignore the initial mode assignment of each module.
        switches = [t for t in ctrl.transitions if t.time > 0]
        print(f"  {label:13s} transitions={len(switches):3d} "
              f"drop={res.summary.drop_rate:.2%} "
              f"goodput={res.summary.goodput:.1f}/s")
        by_mode = {}
        for t in switches:
            by_mode[t.mode] = by_mode.get(t.mode, 0) + 1
        print(f"                per-mode: {by_mode}")

    pard_ctrl = pard.cluster.policy.priority
    instant_ctrl = instant.cluster.policy.priority

    # Show the m1 load-factor track with mode annotations.
    print("\n  m1 load factor (PARD):")
    track = [(t, mu) for (t, mid, mu) in pard_ctrl.load_history if mid == "m1"]
    for t, mu in track[:: max(1, len(track) // 20)]:
        bar = "#" * int(20 * min(mu, 2.0))
        print(f"    t={t:5.1f}s mu={mu:5.2f} {bar}")

    pard_switches = [t for t in pard_ctrl.transitions if t.time > 0]
    instant_switches = [t for t in instant_ctrl.transitions if t.time > 0]
    # The hysteresis band must suppress flapping.
    assert len(pard_switches) <= len(instant_switches)
    # Both controllers must actually use both modes on this bursty trace.
    assert {t.mode for t in instant_switches} == {"hbf", "lbf"}
    # Epsilon is adaptive: it must be non-zero once the workload fluctuates.
    assert any(t.epsilon > 0 for t in pard_switches + pard_ctrl.transitions)
