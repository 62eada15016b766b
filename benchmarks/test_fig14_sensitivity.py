"""Figure 14: stress testing, SLO / lambda / window-size sensitivity.

(a) goodput vs input request rate with fixed instances — PARD must track
    the optimal goodput (min of rate and capacity) more closely than the
    reactive baselines, which collapse past saturation;
(b) average drop rate across SLO settings 200-600 ms;
(c) drop rate across the quantile lambda (optimum in [0.075, 0.15]);
(d) drop rate across the sliding-window size.
"""

from __future__ import annotations

from repro.experiments import Scenario, run_scenario, standard_scenario
from repro.experiments.runner import ExperimentConfig, build_cluster

from .conftest import BENCH_SEED

STRESS_WORKERS = {"m1": 2, "m2": 2, "m3": 2, "m4": 1, "m5": 2}


def _stress_scenario(rate: float, system: str,
                     duration: float = 30.0) -> Scenario:
    return Scenario(
        app={"name": "lv"},
        trace={"name": "poisson", "base_rate": rate, "duration": duration},
        policy=system,
        workers=dict(STRESS_WORKERS),
        seed=BENCH_SEED,
    )


def test_fig14a_stress(benchmark):
    # Capacity of the fixed pool is ~160 req/s at the bottleneck.
    rates = (100.0, 140.0, 180.0, 220.0, 260.0)
    systems = ("PARD", "Nexus", "Clipper++", "Naive")

    def sweep():
        out = {}
        for rate in rates:
            for s in systems:
                res = run_scenario(_stress_scenario(rate, s))
                out[(rate, s)] = res.summary.goodput
        return out

    goodput = benchmark.pedantic(sweep, rounds=1, iterations=1)

    print("\nFigure 14a: goodput vs input rate (fixed instances)")
    print(f"{'rate':>6s}" + "".join(f"{s:>12s}" for s in systems)
          + f"{'optimal':>10s}")
    capacity = max(goodput[(r, "PARD")] for r in rates)
    for rate in rates:
        optimal = min(rate, capacity)
        row = f"{rate:6.0f}"
        for s in systems:
            row += f"{goodput[(rate, s)]:12.1f}"
        row += f"{optimal:10.1f}"
        print(row)

    # Past saturation PARD must stay closest to the optimal goodput.
    overloaded = [r for r in rates if r > capacity]
    for rate in overloaded:
        opt = min(rate, capacity)
        gap_pard = opt - goodput[(rate, "PARD")]
        gap_nexus = opt - goodput[(rate, "Nexus")]
        gap_naive = opt - goodput[(rate, "Naive")]
        assert gap_pard <= gap_nexus
        assert gap_pard <= gap_naive
    # Goodput must not collapse as load grows (Naive's failure mode).
    assert goodput[(rates[-1], "PARD")] >= 0.8 * capacity


def test_fig14b_slo_sensitivity(benchmark):
    slos = (0.400, 0.500, 0.600)
    systems = ("PARD", "Nexus", "Clipper++")
    # Hold the workload and worker pool fixed across SLO settings (they are
    # calibrated once, at the application's default 500 ms SLO); only the
    # latency objective — and hence every system's batch plan — varies.
    base = standard_scenario("lv", "tweet", seed=BENCH_SEED, duration=40.0)
    rate = ExperimentConfig(base).resolve_base_rate()
    cluster, _ = build_cluster(base)
    workers = {mid: m.n_workers for mid, m in cluster.modules.items()}

    def sweep():
        out = {}
        for slo in slos:
            for s in systems:
                res = run_scenario(standard_scenario(
                    "lv", "tweet", s, seed=BENCH_SEED, duration=40.0,
                    slo=slo, utilization=None, base_rate=rate,
                    workers=dict(workers), scaling=False,
                ))
                out[(slo, s)] = res.summary.drop_rate
        return out

    drops = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print("\nFigure 14b: average drop rate vs SLO (fixed workload)")
    print(f"{'SLO':>7s}" + "".join(f"{s:>12s}" for s in systems))
    for slo in slos:
        row = f"{slo * 1000:5.0f}ms"
        for s in systems:
            row += f"{drops[(slo, s)]:12.2%}"
        print(row)
    # PARD sustains the lowest drop rate at every SLO (paper: 1.9x-5.3x
    # lower; we allow a 10% relative margin for simulator noise).
    for slo in slos:
        assert drops[(slo, "PARD")] <= drops[(slo, "Nexus")] * 1.1
        assert drops[(slo, "PARD")] <= drops[(slo, "Clipper++")] * 1.1


def test_fig14c_lambda_sensitivity(benchmark):
    lams = (0.0, 0.05, 0.1, 0.25, 0.5, 1.0)

    def sweep():
        return {
            lam: run_scenario(standard_scenario(
                "lv", "tweet", {"name": "PARD", "params": {"lam": lam}},
                seed=BENCH_SEED, duration=40.0,
            )).summary.drop_rate
            for lam in lams
        }

    drops = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print("\nFigure 14c: drop rate vs quantile lambda")
    for lam in lams:
        print(f"  lambda={lam:5.2f}  drop={drops[lam]:7.2%}")
    # The paper's default lambda=0.1 must be competitive with the best
    # sampled lambda (their optimum lies in [0.075, 0.15]).
    best = min(drops.values())
    assert drops[0.1] <= best + 0.03


def test_fig14d_window_sensitivity(benchmark):
    windows = (1.0, 3.0, 5.0, 10.0)

    def sweep():
        out = {}
        for trace in ("wiki", "tweet", "azure"):
            for w in windows:
                res = run_scenario(standard_scenario(
                    "lv", trace, seed=BENCH_SEED, duration=40.0,
                    stats_window=w,
                ))
                out[(trace, w)] = res.summary.drop_rate
        return out

    drops = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print("\nFigure 14d: drop rate vs sliding-window size")
    print(f"{'window':>8s}" + "".join(f"{t:>10s}" for t in ("wiki", "tweet", "azure")))
    for w in windows:
        row = f"{w:7.0f}s"
        for trace in ("wiki", "tweet", "azure"):
            row += f"{drops[(trace, w)]:10.2%}"
        print(row)
    # The 5s default must sit close to each trace's own optimum (the paper
    # reports a 3.2%-6.3% relative gap).
    for trace in ("wiki", "tweet", "azure"):
        best = min(drops[(trace, w)] for w in windows)
        assert drops[(trace, 5.0)] <= best + 0.05
