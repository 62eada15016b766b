"""One measurement in a fresh interpreter; prints one JSON line.

``run.py`` starts this file once per timed run so in-process memos and
allocator state never carry from one run to the next, and so the peak
RSS it reports belongs to that run alone.  Modes::

    child.py --root DIR run --workload NAME --seed N [--trace] [--sample-host]
    child.py --root DIR micro --seed N
    child.py --root DIR goldens
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

BENCH_ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = BENCH_ROOT / ".perfbench_work"

GOLDEN_SCENARIOS = (
    "burst_failure",
    "diamond_merge",
    "fair_share",
    "lam_sweep",
    "llm_serving",
    "shared_cluster",
)


def check_goldens(root: Path) -> dict[str, str]:
    """Byte-compare the example scenarios' summaries with the goldens."""
    from repro.bench.harness import check_goldens as compare

    status = compare(root / "examples" / "scenarios", root / "benchmarks" / "goldens")
    # The program's own list may grow; the gate checks these six.
    return {stem: status.get(stem, "missing-scenario") for stem in GOLDEN_SCENARIOS}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", type=Path, default=BENCH_ROOT)
    sub = parser.add_subparsers(dest="mode", required=True)
    run = sub.add_parser("run")
    run.add_argument("--workload", required=True)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--trace", action="store_true")
    run.add_argument("--sample-host", action="store_true")
    micro = sub.add_parser("micro")
    micro.add_argument("--seed", type=int, default=0)
    sub.add_parser("goldens")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(args.root.resolve() / "src"))
    sys.path.insert(0, str(BENCH_ROOT))
    if args.mode == "run":
        from perfbench.workloads import run_once

        out = run_once(args.workload, args.seed, WORK_DIR, trace=args.trace,
                       sample_host=args.sample_host)
    elif args.mode == "micro":
        from perfbench.micro import run_micro

        out = run_micro(args.seed, WORK_DIR)
    else:
        out = check_goldens(args.root.resolve())
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
