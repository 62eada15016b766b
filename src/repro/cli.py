"""Command-line interface.

Examples::

    python -m repro run --app lv --trace tweet --policy PARD --duration 60
    python -m repro compare --app tm --trace azure --duration 45
    python -m repro sweep --apps lv,tm --policies PARD,Naive --workers 4
    python -m repro scenario run --file scenario.json
    python -m repro scenario sweep --file scenario.json --policies PARD,Naive \
        --seeds 0,1,2 --workers 4
    python -m repro list

Timing is not a CLI verb: the benchmark is ``python3 perfbench/run.py``
(see ``perfbench/README.md``).
"""

from __future__ import annotations

import argparse
import sys

from .experiments.configs import (
    SYSTEM_FACTORIES,
    known_policies,
    standard_scenario,
)
from .experiments.runner import (
    ExperimentResult,
    run_multi_scenario,
    run_scenario,
)
from .experiments.scenario import (
    MultiScenario,
    Scenario,
    SweepSpec,
    load_scenario_file,
    scenario_axes,
)
from .experiments.sweep import (
    SweepEvent,
    merge_summaries,
    parse_shard,
    prune_cache,
    run_sweep,
    scenario_cells,
    shard_indices,
    summaries_text,
    summary_table,
    sweep_grid,
)
from .metrics.export import (
    Artifact,
    TableData,
    multi_result_tables,
    render_console,
    scenario_result_tables,
)
from .pipeline.applications import get_application, known_applications
from .pipeline.llm_profiles import is_llm_application
from .policies.ablations import ABLATIONS
from .policies.registry import ADMISSIONS, POLICIES, known_admissions
from .workload.generators import known_traces


def _add_workload_args(p: argparse.ArgumentParser) -> None:
    # Choices come from the registries so everything `repro list` shows is
    # accepted; APPS/TRACES remain the paper's canonical grid.
    p.add_argument("--app", choices=known_applications(), default="lv")
    p.add_argument("--trace", choices=known_traces(), default="tweet")
    p.add_argument("--duration", type=float, default=60.0,
                   help="trace duration in simulated seconds")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--utilization", type=float, default=0.9,
                   help="mean load as a fraction of provisioned capacity")
    p.add_argument("--slo", type=float, default=None,
                   help="override the application SLO (seconds)")
    p.add_argument("--no-scaling", action="store_true",
                   help="disable the reactive worker scaler")


def _scenario(args: argparse.Namespace, policy: str) -> Scenario:
    try:
        return standard_scenario(
            args.app, args.trace, policy, seed=args.seed,
            duration=args.duration, utilization=args.utilization,
            scaling=not args.no_scaling, slo=args.slo,
        )
    except ValueError as exc:
        raise SystemExit(str(exc)) from None


def cmd_run(args: argparse.Namespace) -> int:
    _check_policies([args.policy])
    scenario = _scenario(args, args.policy)
    _print_results(scenario.label(), [run_scenario(scenario)], args.markdown)
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    names = _csv(args.policies) or list(SYSTEM_FACTORIES)
    _check_policies(names)
    results = [run_scenario(_scenario(args, name)) for name in names]
    _print_results(f"{args.app}-{args.trace}-s{args.seed}", results,
                   args.markdown)
    return 0


def _print_results(
    label: str, results: list[ExperimentResult], markdown: bool
) -> None:
    """The console report of single-cluster runs of one workload.

    The tables, then one describe line per policy: result tables key on
    the policy label, and the describe line spells out the knob values
    behind it, so two parameterized variants of one system stay
    distinguishable.
    """
    trace = results[0].trace
    print(f"scenario {label}: trace {trace.name} "
          f"({trace.mean_rate:.0f} req/s mean, {trace.duration:.0f}s)")
    print(render_console(scenario_result_tables(*results), markdown=markdown))
    print()
    for result in results:
        desc = result.cluster.policy.describe()
        name = result.policy_name
        print(desc if desc.startswith(name) else f"{name}: {desc}")


def _csv(text: str) -> list[str]:
    return [item for item in (s.strip() for s in text.split(",")) if item]


def _parse_seeds(text: str) -> list[int]:
    try:
        return [int(s) for s in _csv(text)]
    except ValueError:
        raise SystemExit(
            f"--seeds must be comma-separated integers, got {text!r}"
        ) from None


def _check_policies(policies: list[str]) -> None:
    unknown = [p for p in policies if p not in known_policies()]
    if unknown:
        raise SystemExit(
            f"unknown policies: {', '.join(unknown)}; "
            f"known: {', '.join(known_policies())}"
        )


def cmd_sweep(args: argparse.Namespace) -> int:
    apps = _csv(args.apps)
    traces = _csv(args.traces)
    policies = _csv(args.policies) or list(SYSTEM_FACTORIES)
    seeds = _parse_seeds(args.seeds) or [0]
    if not apps or not traces:
        raise SystemExit("empty sweep grid: --apps and --traces must be non-empty")
    _check_policies(policies)
    try:
        cells = sweep_grid(
            apps, traces, policies, seeds=seeds, duration=args.duration,
            utilization=args.utilization, scaling=not args.no_scaling,
            slo=args.slo,
        )
    except ValueError as exc:
        raise SystemExit(str(exc)) from None
    return _run_cells(cells, args)


def _run_cells(cells, args: argparse.Namespace) -> int:
    """Shared sweep execution/reporting for grid and scenario sweeps."""
    cells = list(cells)
    grid_total = len(cells)
    indices = None
    if getattr(args, "shard", None):
        try:
            shard = parse_shard(args.shard)
        except ValueError as exc:
            raise SystemExit(str(exc)) from None
        indices = shard_indices(grid_total, shard)
        cells = [cells[i] for i in indices]
        if not args.quiet:
            print(f"shard {shard[0]}/{shard[1]}: {len(cells)} of "
                  f"{grid_total} cells", file=sys.stderr)

    def progress(event: SweepEvent) -> None:
        if not args.quiet and event.kind != "start":
            status = {"cached": "cached", "done": "done", "error": "ERROR"}[event.kind]
            # Sharded runs report each cell by its global grid position.
            shown = indices[event.index] if indices is not None else event.index
            label = event.cell.label()
            if event.cell.multi is not None:
                label += f" ({event.cell.policy})"  # not in a shared label
            print(f"[{shown + 1}/{grid_total}] {label}: "
                  f"{status} ({event.elapsed:.1f}s)", file=sys.stderr)

    if getattr(args, "lean", False):
        from dataclasses import replace

        cells = [replace(cell, lean=True) for cell in cells]
    cache_dir = None if args.no_cache else args.cache_dir
    results = run_sweep(
        cells,
        workers=args.workers,
        cache_dir=cache_dir,
        on_event=progress,
    )
    if args.save_summaries:
        from pathlib import Path

        Path(args.save_summaries).write_text(
            summaries_text(results, indices=indices)
        )
    if args.max_cache_mb is not None:
        # Prune against the configured directory even under --no-cache:
        # the budget bounds what is on disk, not what this run wrote.
        freed = prune_cache(args.cache_dir,
                            int(args.max_cache_mb * 1024 * 1024))
        if freed and not args.quiet:
            print(
                f"pruned {freed / (1024 * 1024):.1f} MiB from "
                f"{args.cache_dir}",
                file=sys.stderr,
            )
    print(render_console([summary_table(results)], markdown=args.markdown))
    failures = [r for r in results if not r.ok]
    for r in failures:
        print(f"\n--- {r.cell.label()} failed ---\n{r.error}", file=sys.stderr)
    return 1 if failures else 0


def _load_scenario_raw(path: str) -> Scenario | MultiScenario | SweepSpec:
    """Parse any scenario-file schema (auto-detected), not yet validated."""
    try:
        return load_scenario_file(path)
    except FileNotFoundError:
        raise SystemExit(f"scenario file not found: {path}") from None
    except (ValueError, KeyError, TypeError, OSError) as exc:
        raise SystemExit(f"invalid scenario file {path}: {exc}") from None


def _load_scenario(path: str) -> Scenario | MultiScenario | SweepSpec:
    """Load and validate any scenario-file schema (auto-detected)."""
    scenario = _load_scenario_raw(path)
    try:
        return scenario.validate()
    except (ValueError, KeyError, TypeError) as exc:
        raise SystemExit(f"invalid scenario file {path}: {exc}") from None


def cmd_scenario_run(args: argparse.Namespace) -> int:
    scenario = _load_scenario(args.file)
    if isinstance(scenario, SweepSpec):
        raise SystemExit(
            f"{args.file} declares sweep axes; run it with "
            "`repro scenario sweep --file ...`"
        )
    fmt = args.format
    if isinstance(scenario, MultiScenario):
        result = run_multi_scenario(scenario)
        if fmt in ("csv", "json"):
            _write_result_artifact(scenario, multi_result_tables(result), fmt)
            return 0
        pools = ", ".join(result.pool_ids)
        print(f"shared cluster {scenario.label()}: "
              f"{len(scenario.tenants)} apps over pools [{pools}]")
        print(render_console(multi_result_tables(result),
                             markdown=fmt == "md"))
        return 0
    result = run_scenario(scenario)
    if fmt in ("csv", "json"):
        _write_result_artifact(scenario, scenario_result_tables(result), fmt)
        return 0
    _print_results(scenario.label(), [result], markdown=fmt == "md")
    return 0


def _write_result_artifact(scenario, tables, fmt: str) -> None:
    """Emit one scenario run's tables as a CSV/JSON artifact on stdout."""
    artifact = Artifact(
        name=scenario.label(),
        tables=tuple(tables),
        meta={
            "scenario": scenario.label(),
            "fingerprint": scenario.fingerprint(),
        },
    )
    sys.stdout.write(
        artifact.csv_text() if fmt == "csv" else artifact.json_text()
    )


def cmd_scenario_render(args: argparse.Namespace) -> int:
    scenario = _load_scenario(args.file)
    if isinstance(scenario, SweepSpec):
        raise SystemExit(
            f"{args.file} declares sweep axes; render one concrete "
            "scenario instead"
        )
    from .studies.render import render_timeline

    try:
        artifact = render_timeline(scenario, window=args.window)
    except (ValueError, KeyError) as exc:
        raise SystemExit(str(exc)) from None
    fmt = args.format
    if fmt == "csv":
        text = artifact.csv_text()
    elif fmt == "json":
        text = artifact.json_text()
    else:
        text = artifact.console_text(markdown=(fmt == "md")) + "\n"
    if args.out:
        from pathlib import Path

        Path(args.out).write_text(text)
        print(f"wrote {args.out}", file=sys.stderr)
    else:
        sys.stdout.write(text)
    return 0


def cmd_study_run(args: argparse.Namespace) -> int:
    from .studies import load_study_file, run_study

    try:
        study = load_study_file(args.file)
    except FileNotFoundError:
        raise SystemExit(f"study file not found: {args.file}") from None
    except (ValueError, KeyError, TypeError, OSError) as exc:
        raise SystemExit(f"invalid study file {args.file}: {exc}") from None

    def progress(event: SweepEvent) -> None:
        if not args.quiet and event.kind != "start":
            status = {"cached": "cached", "done": "done",
                      "error": "ERROR"}[event.kind]
            print(f"{event.cell.label()}: {status} ({event.elapsed:.1f}s)",
                  file=sys.stderr)

    cache_dir = None if args.no_cache else args.cache_dir
    try:
        result = run_study(study, workers=args.workers, cache_dir=cache_dir,
                           on_event=progress)
    except (ValueError, KeyError, RuntimeError) as exc:
        raise SystemExit(str(exc)) from None
    print(result.artifact.console_text(markdown=args.markdown))
    print(f"cells: {result.cells_total} total, "
          f"{result.cells_simulated} simulated, "
          f"{result.cells_cached} cached", file=sys.stderr)
    for path in result.artifact.write(args.save_artifacts):
        print(f"wrote {path}", file=sys.stderr)
    return 0


def cmd_scenario_sweep(args: argparse.Namespace) -> int:
    scenario = _load_scenario_raw(args.file)
    policies = _csv(args.policies)
    _check_policies(policies)
    seeds = _parse_seeds(args.seeds)
    # A SweepSpec expands its own declared axes first; --policies/--seeds
    # then multiply every grid member.  Overlapping axes are rejected:
    # the policy/seed axes replace the policy/seed wholesale, which would
    # silently collapse the file's declared variants into duplicates.
    # Expansion and validation happen exactly once, here (SweepSpec.
    # validate() would expand the grid a second time).
    try:
        if isinstance(scenario, SweepSpec):
            declared = [axis for axis, _ in scenario.axes]
            if policies and any(a == "policy" or a.startswith("policy.")
                                for a in declared):
                raise SystemExit(
                    f"{args.file} already sweeps a policy axis; drop "
                    "--policies or move the policy grid into the file's axes"
                )
            if seeds and "seed" in declared:
                raise SystemExit(
                    f"{args.file} already sweeps 'seed'; drop --seeds or "
                    "move the seed grid into the file's axes"
                )
            bases = scenario.expand()
        else:
            bases = [scenario]
        for base in bases:
            base.validate()
    except (ValueError, KeyError, TypeError) as exc:
        raise SystemExit(f"invalid scenario file {args.file}: {exc}") from None
    # An empty flag keeps each scenario's own policy or seed.
    axes = [(axis, values) for axis, values
            in (("policy", policies), ("seed", seeds)) if values]
    grid = [spec for base in bases for spec in scenario_axes(base, axes)]
    return _run_cells(scenario_cells(grid), args)


def cmd_merge(args: argparse.Namespace) -> int:
    from pathlib import Path

    if not args.inputs:
        raise SystemExit(
            "no shard files given: pass the --save-summaries files "
            "written by each `--shard i/N` run"
        )
    texts = []
    for path in args.inputs:
        try:
            texts.append(Path(path).read_text())
        except OSError as exc:
            raise SystemExit(f"cannot read {path}: {exc}") from None
    try:
        merged = merge_summaries(texts)
    except ValueError as exc:
        raise SystemExit(str(exc)) from None
    if args.out:
        Path(args.out).write_text(merged)
        print(f"wrote {args.out}", file=sys.stderr)
    else:
        sys.stdout.write(merged)
    return 0


def cmd_list(args: argparse.Namespace) -> int:
    if args.llm:
        # One row per application with its profile kind: "llm" when any
        # module resolves to a token-cost LLMProfile, "fixed" otherwise.
        rows = []
        for name in known_applications():
            try:
                app = get_application(name)
            except (KeyError, ValueError):
                rows.append((name, "?", None))
                continue
            kind = "llm" if is_llm_application(app) else "fixed"
            rows.append((name, kind, len(app.spec.modules)))
        print(render_console([TableData(
            name="applications",
            columns=("application", "profile_kind", "modules"),
            rows=tuple(rows),
        )]))
    else:
        print("applications:", ", ".join(known_applications()))
    print("traces:      ", ", ".join(known_traces()))
    print("systems:     ", ", ".join(SYSTEM_FACTORIES))
    print("ablations:   ", ", ".join(sorted(ABLATIONS)))
    print("admission:   ", ", ".join(known_admissions()))
    if args.params:
        print("\npolicy parameters:")
        for name in sorted(POLICIES):
            info = POLICIES[name]
            decl = ", ".join(p.describe() for p in info.params) or "(none)"
            print(f"  {name}: {decl}")
        print("\nadmission parameters:")
        for name in sorted(ADMISSIONS):
            info = ADMISSIONS[name]
            decl = ", ".join(p.describe() for p in info.params) or "(none)"
            print(f"  {name}: {decl}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="PARD reproduction: serve inference pipelines under "
                    "drop policies and report goodput metrics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one policy on one workload")
    _add_workload_args(p_run)
    p_run.add_argument("--policy", default="PARD")
    p_run.add_argument("--markdown", action="store_true")
    p_run.set_defaults(fn=cmd_run)

    p_cmp = sub.add_parser("compare", help="compare policies on a workload")
    _add_workload_args(p_cmp)
    p_cmp.add_argument(
        "--policies", default="",
        help="comma-separated policy names (default: the four systems)",
    )
    p_cmp.add_argument("--markdown", action="store_true")
    p_cmp.set_defaults(fn=cmd_compare)

    p_sweep = sub.add_parser(
        "sweep", help="run a grid of workloads across a process pool"
    )
    p_sweep.add_argument("--apps", default="lv",
                         help="comma-separated applications")
    p_sweep.add_argument("--traces", default="tweet",
                         help="comma-separated traces")
    p_sweep.add_argument("--policies", default="",
                         help="comma-separated policies (default: the four systems)")
    p_sweep.add_argument("--seeds", default="0", help="comma-separated seeds")
    p_sweep.add_argument("--duration", type=float, default=60.0,
                         help="trace duration in simulated seconds")
    p_sweep.add_argument("--utilization", type=float, default=0.9)
    p_sweep.add_argument("--slo", type=float, default=None)
    p_sweep.add_argument("--no-scaling", action="store_true")
    _add_sweep_exec_args(p_sweep)
    p_sweep.set_defaults(fn=cmd_sweep)

    p_scn = sub.add_parser(
        "scenario",
        help="run or sweep a declarative scenario file (JSON)",
    )
    scn_sub = p_scn.add_subparsers(dest="scenario_command", required=True)

    p_scn_run = scn_sub.add_parser("run", help="run one scenario in-process")
    p_scn_run.add_argument("--file", required=True,
                           help="path to a scenario JSON file")
    p_scn_run.add_argument(
        "--format", choices=("table", "md", "csv", "json"), default="table",
        help="report format: aligned text tables (default), markdown "
             "tables, or the same tables as a CSV or JSON artifact on "
             "stdout",
    )
    p_scn_run.set_defaults(fn=cmd_scenario_run)

    p_scn_render = scn_sub.add_parser(
        "render",
        help="render a scenario's timeline: declared rate envelope vs "
             "failure schedule vs measured goodput, in fixed windows",
    )
    p_scn_render.add_argument("--file", required=True,
                              help="path to a scenario JSON file")
    p_scn_render.add_argument("--window", type=float, default=1.0,
                              help="timeline bin width in seconds")
    p_scn_render.add_argument(
        "--format", choices=("table", "md", "csv", "json"), default="table",
    )
    p_scn_render.add_argument("--out", default=None, metavar="PATH",
                              help="write here instead of stdout")
    p_scn_render.set_defaults(fn=cmd_scenario_render)

    p_scn_sweep = scn_sub.add_parser(
        "sweep", help="sweep one scenario over policies x seeds"
    )
    p_scn_sweep.add_argument("--file", required=True,
                             help="path to a scenario JSON file")
    p_scn_sweep.add_argument(
        "--policies", default="",
        help="comma-separated policies (default: the scenario's own)",
    )
    p_scn_sweep.add_argument(
        "--seeds", default="",
        help="comma-separated seeds (default: the scenario's own)",
    )
    _add_sweep_exec_args(p_scn_sweep)
    p_scn_sweep.set_defaults(fn=cmd_scenario_sweep)

    p_study = sub.add_parser(
        "study",
        help="run a declarative study file (interference grid, capacity "
             "planner or chaos schedule) and export byte-stable artifacts",
    )
    study_sub = p_study.add_subparsers(dest="study_command", required=True)
    p_study_run = study_sub.add_parser(
        "run", help="run one study and write console + CSV + JSON artifacts"
    )
    p_study_run.add_argument("file", help="path to a study JSON file")
    p_study_run.add_argument("--workers", type=int, default=None,
                             help="process-pool size (default: CPU count)")
    p_study_run.add_argument("--cache-dir", default=".sweep_cache",
                             help="on-disk sweep-cell cache location")
    p_study_run.add_argument("--no-cache", action="store_true",
                             help="always recompute, never read or write "
                                  "the cache")
    p_study_run.add_argument("--quiet", action="store_true",
                             help="suppress per-cell progress on stderr")
    p_study_run.add_argument("--markdown", action="store_true")
    p_study_run.add_argument(
        "--save-artifacts", nargs="?", const="artifacts", default="artifacts",
        metavar="DIR",
        help="directory for the <study>.json/<study>.csv artifacts "
             "(default: artifacts/)",
    )
    p_study_run.set_defaults(fn=cmd_study_run)

    p_merge = sub.add_parser(
        "merge",
        help="merge per-shard --save-summaries files back into the "
             "serial-order summaries file (byte-identical to an unsharded "
             "run)",
    )
    p_merge.add_argument("inputs", nargs="*",
                         help="shard summaries files written by "
                              "`--shard i/N --save-summaries`")
    p_merge.add_argument("-o", "--out", default=None, metavar="PATH",
                         help="output path (default: stdout)")
    p_merge.set_defaults(fn=cmd_merge)

    p_list = sub.add_parser(
        "list", help="list registered applications, traces and policies"
    )
    p_list.add_argument(
        "--params", action="store_true",
        help="also print each policy's declared parameter schema",
    )
    p_list.add_argument(
        "--llm", action="store_true",
        help="show applications as a table with their profile kind "
             "(llm vs fixed-duration)",
    )
    p_list.set_defaults(fn=cmd_list)
    return parser


def _nonnegative_mb(text: str) -> float:
    value = float(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be >= 0")
    return value


def _add_sweep_exec_args(p: argparse.ArgumentParser) -> None:
    """Pool/cache/reporting flags shared by grid and scenario sweeps."""
    p.add_argument("--workers", type=int, default=None,
                   help="process-pool size (default: CPU count)")
    p.add_argument("--cache-dir", default=".sweep_cache",
                   help="on-disk result cache location")
    p.add_argument("--no-cache", action="store_true",
                   help="always recompute, never read or write the cache")
    p.add_argument("--max-cache-mb", type=_nonnegative_mb, default=None,
                   help="prune oldest cache entries beyond this size after "
                        "the sweep")
    p.add_argument("--quiet", action="store_true",
                   help="suppress per-cell progress on stderr")
    p.add_argument("--markdown", action="store_true")
    p.add_argument("--save-summaries", default=None, metavar="PATH",
                   help="write deterministic per-cell summaries as JSON "
                        "(byte-identical across worker counts)")
    p.add_argument("--lean", action="store_true",
                   help="collect summary counters only (no per-request "
                        "records); faster, but per-module drop tables and "
                        "latency analyses are unavailable")
    p.add_argument("--shard", default=None, metavar="I/N",
                   help="run only the i-th of N deterministic grid shards "
                        "(1-based round-robin); --save-summaries then "
                        "writes a shard file for `repro merge`")


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
