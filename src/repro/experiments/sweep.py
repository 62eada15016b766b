"""Parallel experiment sweeps with deterministic seeding and result caching.

The figure-reproduction benchmarks and the ``repro sweep`` CLI run grids of
``(app, trace, policy, seed)`` cells.  Each cell is an independent
simulation, so a sweep is embarrassingly parallel; this module fans cells
out over a :class:`~concurrent.futures.ProcessPoolExecutor` while keeping
three properties the harness relies on:

* **Determinism** — a cell is fully described by its plain-data
  :class:`~repro.experiments.scenario.Scenario` (or
  :class:`~repro.experiments.scenario.MultiScenario`).  The policy is
  constructed *inside* the worker from its spec, seeded with the scenario
  seed, and every random stream in the simulator derives from that seed
  via :class:`~repro.simulation.rng.RngStreams`.  Summaries are therefore
  bitwise-identical whether a cell runs in-process, in a 2-worker pool or
  a 16-worker pool.
* **Caching** — completed cells are stored on disk under a stable
  fingerprint of the cell (the scenario's own fingerprint, the policy
  label, the package version and a digest of the ``repro`` sources).
  Re-running a sweep skips every cell whose fingerprint is already
  cached.  Cells resolving a trace, application or policy registered
  outside the package (code the fingerprint cannot see) are never
  cached.
* **Failure isolation** — a worker exception is captured as a
  :class:`CellResult` with ``error`` set (full traceback text); the pool
  keeps draining the remaining cells rather than hanging or aborting the
  sweep.

Results come back *slim*: summary, metrics collector and module ids, not
the live cluster.  The cluster holds the event heap (closures — not
picklable) and everything the benchmarks consume is in the collector.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import tempfile
import time
import traceback
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Sequence

from ..metrics.analysis import Summary
from ..metrics.collector import MetricsCollector
from ..metrics.export import TableData
from ..metrics.goodput import GoodputReport, goodput_report
from .configs import standard_scenario
from .runner import run_multi_scenario, run_scenario
from .scenario import MultiScenario, Scenario, scenario_axes

#: Fingerprint schema version; bump when the cached payload shape changes.
_CACHE_SCHEMA = 4

_source_digest_cache: str | None = None


def _source_digest() -> str:
    """Digest of the installed ``repro`` sources.

    Folding this into every cell fingerprint means *any* code change —
    not just a version bump — invalidates cached results, so the figure
    benchmarks can never silently report numbers computed by old code.
    """
    global _source_digest_cache
    if _source_digest_cache is None:
        package_root = Path(__file__).resolve().parent.parent
        h = hashlib.sha256()
        for path in sorted(package_root.rglob("*.py")):
            h.update(str(path.relative_to(package_root)).encode("utf-8"))
            h.update(path.read_bytes())
        _source_digest_cache = h.hexdigest()
    return _source_digest_cache


@dataclass(frozen=True)
class SweepCell:
    """One unit of sweep work.

    A declarative :class:`~repro.experiments.scenario.Scenario` — which
    also covers custom pipelines, composed traces and failure schedules —
    or a shared-cluster :class:`~repro.experiments.scenario.MultiScenario`,
    picklable into workers and fingerprintable into the cache.  ``policy``
    is derived from the spec (the label results are reported under).
    """

    scenario: Scenario | None = None
    multi: MultiScenario | None = None
    policy: str = ""
    #: Collect summary counters only (no per-request records).  The
    #: Summary is identical either way; lean results simply cannot serve
    #: record-level analyses, so lean cells cache under their own
    #: fingerprints.
    lean: bool = False

    def __post_init__(self) -> None:
        if (self.scenario is None) == (self.multi is None):
            raise ValueError(
                "a sweep cell needs exactly one of: scenario, multi"
            )
        if self.scenario is not None:
            label = self.scenario.policy.label()
            if self.policy and self.policy != label:
                # A divergent label would fingerprint (and cache) the cell
                # under a policy other than the one that actually runs.
                raise ValueError(
                    f"cell policy {self.policy!r} conflicts with scenario "
                    f"policy {label!r}"
                )
            object.__setattr__(self, "policy", label)
        else:
            # One label covering every tenant's policy (dedup, stable order).
            joined = "+".join(dict.fromkeys(
                t.scenario.policy.label() for t in self.multi.tenants
            ))
            if self.policy and self.policy != joined:
                raise ValueError(
                    f"cell policy {self.policy!r} conflicts with tenant "
                    f"policies {joined!r}"
                )
            object.__setattr__(self, "policy", joined)

    def label(self) -> str:
        if self.scenario is not None:
            return self.scenario.label()
        return self.multi.label()


@dataclass
class CellResult:
    """Outcome of one cell: metrics on success, a traceback on failure."""

    cell: SweepCell
    policy_name: str
    summary: Summary | None
    collector: MetricsCollector | None
    module_ids: list[str]
    elapsed: float
    cached: bool = False
    error: str | None = None
    #: Shared-cluster cells only: per-app summaries keyed by tenant label
    #: (``summary``/``collector`` then hold the aggregate across apps).
    per_app: dict[str, Summary] | None = None
    #: Goodput-under-constraints report; set only when the scenario
    #: declared token-level SLO constraints (aggregate for multi cells).
    goodput: GoodputReport | None = None
    #: Shared-cluster cells: per-app goodput reports for tenants that
    #: declared constraints.
    per_app_goodput: dict[str, GoodputReport] | None = None

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass(frozen=True)
class SweepEvent:
    """Progress notification delivered to ``run_sweep``'s ``on_event``."""

    kind: str  # "start" | "cached" | "done" | "error"
    index: int  # position of the cell in the input sequence
    total: int
    cell: SweepCell
    elapsed: float = 0.0
    error: str | None = None


def sweep_grid(
    apps: Sequence[str],
    traces: Sequence[str],
    policies: Sequence[str],
    seeds: Sequence[int] = (0,),
    **overrides,
) -> list[SweepCell]:
    """The cross product of apps x traces x policies x seeds as cells.

    ``overrides`` are forwarded to :func:`standard_scenario`
    (``duration``, ``utilization``, ``slo``, ``scaling``, ...).
    """
    return scenario_cells(
        spec
        for app in apps
        for trace in traces
        for spec in scenario_axes(
            standard_scenario(app, trace, **overrides),
            [("policy", policies), ("seed", seeds)],
        )
    )


def scenario_cells(
    scenarios: "Iterable[Scenario | MultiScenario]",
) -> list[SweepCell]:
    """Wrap declarative scenarios (either schema) as sweep cells."""
    return [
        SweepCell(multi=s) if isinstance(s, MultiScenario)
        else SweepCell(scenario=s)
        for s in scenarios
    ]


def _references_external_components(
    trace_name: str, app_name: str | None, policy: str
) -> bool:
    """True when the named components resolve outside the ``repro`` package.

    The cell fingerprint covers the cell spec and the ``repro`` sources —
    not third-party code.  A downstream-registered trace, application or
    policy could be edited without changing either, so caching those
    cells would silently serve stale results.
    """
    from ..pipeline.applications import APPLICATIONS
    from ..policies.ablations import ABLATIONS
    from ..policies.registry import SYSTEM_FACTORIES
    from ..workload.generators import TRACES

    factories = [TRACES.get(trace_name)]
    if app_name is not None:
        factories.append(APPLICATIONS.get(app_name))
    factories.append(SYSTEM_FACTORIES.get(policy) or ABLATIONS.get(policy))

    def external(factory) -> bool:
        module = getattr(factory, "__module__", "") or ""
        return module != "repro" and not module.startswith("repro.")

    return any(external(f) for f in factories if f is not None)


def cell_fingerprint(cell: SweepCell) -> str | None:
    """Stable hex digest identifying a cell's result, or ``None``.

    Cells fingerprint whenever every referenced component lives in the
    ``repro`` package — the spec is plain data, including inline
    pipelines and composed traces.  ``None`` means not cacheable: cells
    resolving third-party registrations (whose code the fingerprint
    cannot see) always run.
    """
    from .. import __version__  # deferred: repro/__init__ imports this module

    payload: dict = {"schema": _CACHE_SCHEMA, "version": __version__,
                     "source": _source_digest(), "policy": cell.policy}
    if cell.lean:
        # Lean results hold no records; keep them apart from full results
        # so a record-consuming sweep never gets a lean cache hit.  Only
        # set when lean so pre-existing full-cell fingerprints survive.
        payload["lean"] = True
    if cell.multi is not None:
        for tenant in cell.multi.tenants:
            s = tenant.scenario
            if _references_external_components(s.trace.name, s.app.name,
                                               s.policy.name):
                return None
        payload["multi"] = cell.multi.fingerprint()
    else:
        s = cell.scenario
        if _references_external_components(s.trace.name, s.app.name,
                                           s.policy.name):
            return None
        # The scenario's own digest is already canonical over numeric
        # spelling (int vs float authoring); fold it in rather than the
        # raw dict.
        payload["scenario"] = s.fingerprint()
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class SweepCache:
    """On-disk pickle store of :class:`CellResult` keyed by fingerprint.

    Entries live under a per-source-digest subdirectory.  A source edit
    changes every fingerprint, so entries written by older code can never
    hit again.  Stale buckets are *not* reclaimed eagerly: two checkouts
    sharing one cache dir would otherwise evict each other's results on
    every branch switch.  Reclamation is deferred to :func:`prune_cache`'s
    size budget (``--max-cache-mb``), whose oldest-first eviction drops
    cold buckets once the cache actually outgrows its bound.
    """

    def __init__(self, root: str | os.PathLike) -> None:
        self.root = Path(root) / _source_digest()[:16]

    def _path(self, fingerprint: str) -> Path:
        return self.root / f"{fingerprint}.pkl"

    def load(self, fingerprint: str) -> CellResult | None:
        path = self._path(fingerprint)
        if not path.is_file():
            return None
        try:
            with path.open("rb") as fh:
                result = pickle.load(fh)
        except Exception:
            # A corrupt/truncated entry (killed run) must not poison the
            # sweep; drop it and recompute.
            path.unlink(missing_ok=True)
            return None
        if not isinstance(result, CellResult):
            path.unlink(missing_ok=True)
            return None
        try:
            # Touch on hit so prune_cache's oldest-first eviction is a
            # true LRU: hot entries survive, never-reused ones go first.
            os.utime(path)
        except OSError:
            pass
        result.cached = True
        return result

    def store(self, fingerprint: str, result: CellResult) -> None:
        self.root.mkdir(parents=True, exist_ok=True)
        # A per-writer temp name keeps concurrent sweeps sharing one cache
        # dir from interleaving writes; the rename is atomic vs readers.
        with tempfile.NamedTemporaryFile(
            dir=self.root, suffix=".tmp", delete=False
        ) as fh:
            pickle.dump(result, fh, protocol=pickle.HIGHEST_PROTOCOL)
            tmp = Path(fh.name)
        tmp.replace(self._path(fingerprint))


def prune_cache(cache_dir: str | os.PathLike, max_bytes: int) -> int:
    """Evict oldest cache entries until the cache fits in ``max_bytes``.

    Keeps ``.sweep_cache/`` from growing unboundedly across benchmark runs:
    entries are dropped oldest-first (by mtime) across all source-digest
    buckets, and emptied buckets are removed.  Returns the bytes freed.
    A missing directory is a no-op.
    """
    if max_bytes < 0:
        raise ValueError("max_bytes must be >= 0")
    base = Path(cache_dir)
    if not base.is_dir():
        return 0
    # Orphaned temp files from killed writers never become entries and
    # would otherwise escape the budget forever; a live writer's temp is
    # milliseconds old, so an age cutoff separates the two safely.
    cutoff = time.time() - 600
    for tmp in base.rglob("*.tmp"):
        try:
            if tmp.stat().st_mtime < cutoff:
                tmp.unlink(missing_ok=True)
        except OSError:
            continue
    entries = []
    for path in base.rglob("*.pkl"):
        try:
            stat = path.stat()
        except OSError:
            continue  # concurrently evicted by another sweep
        entries.append((stat.st_mtime, stat.st_size, path))
    entries.sort()
    total = sum(size for _, size, _ in entries)
    freed = 0
    for _, size, path in entries:
        if total <= max_bytes:
            break
        path.unlink(missing_ok=True)
        total -= size
        freed += size
        parent = path.parent
        try:
            if parent != base and not any(parent.iterdir()):
                parent.rmdir()
        except OSError:
            pass  # a concurrent sweep refilled or removed the bucket
    return freed


def execute_cell(cell: SweepCell) -> CellResult:
    """Run one cell to completion, never raising.

    This is the worker entry point — module-level so it pickles — and also
    the serial path, so both executions share one code path and one seeding
    discipline.
    """
    t0 = time.perf_counter()
    try:
        if cell.multi is not None:
            multi = run_multi_scenario(cell.multi, lean=cell.lean)
            from ..metrics.analysis import merge_collectors

            merged = merge_collectors(multi.collectors)
            per_app_goodput = {
                name: report
                for name, report in multi.goodputs.items()
                if report is not None
            }
            return CellResult(
                cell=cell,
                policy_name=cell.policy,
                summary=multi.aggregate,
                collector=merged,
                module_ids=list(multi.pool_ids),
                elapsed=time.perf_counter() - t0,
                per_app=dict(multi.summaries),
                # The aggregate report exists only when every tenant
                # declares the same constraints (merge propagates the spec
                # iff unanimous).
                goodput=goodput_report(merged, duration=multi.multi.duration()),
                per_app_goodput=per_app_goodput or None,
            )
        result = run_scenario(cell.scenario, lean=cell.lean)
        return CellResult(
            cell=cell,
            policy_name=result.policy_name,
            summary=result.summary,
            collector=result.collector,
            module_ids=list(result.module_ids),
            elapsed=time.perf_counter() - t0,
            goodput=result.goodput,
        )
    except Exception:
        return CellResult(
            cell=cell,
            policy_name=cell.policy,
            summary=None,
            collector=None,
            module_ids=[],
            elapsed=time.perf_counter() - t0,
            error=traceback.format_exc(),
        )


def _emit(on_event: Callable[[SweepEvent], None] | None, event: SweepEvent) -> None:
    if on_event is not None:
        on_event(event)


def _result_event(index: int, total: int, result: CellResult) -> SweepEvent:
    return SweepEvent(
        kind="done" if result.ok else "error",
        index=index,
        total=total,
        cell=result.cell,
        elapsed=result.elapsed,
        error=result.error,
    )


def run_sweep(
    cells: Iterable[SweepCell],
    workers: int | None = None,
    cache_dir: str | os.PathLike | None = None,
    on_event: Callable[[SweepEvent], None] | None = None,
) -> list[CellResult]:
    """Execute every cell, in parallel when ``workers > 1``.

    Results are returned in input order.  ``workers=None`` uses the
    machine's CPU count (capped at the number of cells); ``workers<=1``
    runs serially in-process, which is also the reference path parallel
    runs must match bit-for-bit.  When ``cache_dir`` is set, cached cells
    are returned without running and fresh successes are stored back.
    """
    cells = list(cells)
    total = len(cells)
    if total == 0:
        return []
    if workers is None:
        workers = os.cpu_count() or 1
    workers = max(1, min(workers, total))
    cache = SweepCache(cache_dir) if cache_dir is not None else None

    results: list[CellResult | None] = [None] * total
    fingerprints: list[str | None] = [None] * total
    pending: list[int] = []
    for i, cell in enumerate(cells):
        fingerprints[i] = cell_fingerprint(cell) if cache else None
        hit = cache.load(fingerprints[i]) if cache and fingerprints[i] else None
        if hit is None and cache is not None and cell.lean:
            # A cached *full* result satisfies a lean request (its summary
            # is identical and it merely carries extra records); only the
            # reverse direction must miss.
            from dataclasses import replace

            full_fp = cell_fingerprint(replace(cell, lean=False))
            hit = cache.load(full_fp) if full_fp else None
        if hit is not None:
            results[i] = hit
            _emit(on_event, SweepEvent("cached", i, total, cell))
        else:
            pending.append(i)

    if workers == 1 or len(pending) <= 1:
        for i in pending:
            _emit(on_event, SweepEvent("start", i, total, cells[i]))
            result = execute_cell(cells[i])
            results[i] = result
            _emit(on_event, _result_event(i, total, result))
            if cache and fingerprints[i] and result.ok:
                cache.store(fingerprints[i], result)
        return [r for r in results if r is not None]

    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures: dict[Future, int] = {}
        for i in pending:
            _emit(on_event, SweepEvent("start", i, total, cells[i]))
            futures[pool.submit(execute_cell, cells[i])] = i
        not_done = set(futures)
        while not_done:
            done, not_done = wait(not_done, return_when=FIRST_COMPLETED)
            for fut in done:
                i = futures[fut]
                exc = fut.exception()
                if exc is not None:
                    # The worker itself never raises, so this is pool-level
                    # trouble (a killed worker, unpicklable payload).  Record
                    # it on the cell and keep draining the rest.
                    result = CellResult(
                        cell=cells[i],
                        policy_name=cells[i].policy,
                        summary=None,
                        collector=None,
                        module_ids=[],
                        elapsed=0.0,
                        error=f"{type(exc).__name__}: {exc}",
                    )
                else:
                    result = fut.result()
                results[i] = result
                _emit(on_event, _result_event(i, total, result))
                if cache and fingerprints[i] and result.ok:
                    cache.store(fingerprints[i], result)
    return [r for r in results if r is not None]


def parse_shard(text: str) -> tuple[int, int]:
    """Parse an ``i/N`` shard designator into a 1-based ``(i, n)`` pair."""
    head, sep, tail = text.partition("/")
    try:
        index, count = int(head), int(tail)
    except ValueError:
        index, count = 0, 0
    if not sep or count < 1 or not 1 <= index <= count:
        raise ValueError(
            f"shard must be 'i/N' with 1 <= i <= N, got {text!r}"
        )
    return index, count


def shard_indices(total: int, shard: tuple[int, int]) -> list[int]:
    """Global cell indices owned by one shard of an ``(i, n)`` partition.

    Round-robin over the grid order (``k % n == i - 1``): neighbouring
    grid cells usually share cost structure (same app/policy, varying
    seed), so striping balances shards better than contiguous blocks.
    The partition is a pure function of ``(total, shard)`` — every shard
    computes the same split independently, with no coordination.
    """
    index, count = shard
    if not 1 <= index <= count:
        raise ValueError(f"shard index {index} outside 1..{count}")
    return list(range(index - 1, total, count))


def merge_summaries(texts: Iterable[str]) -> str:
    """Merge per-shard ``--save-summaries`` files back into the serial form.

    Each input must be a shard file (entries carry the global ``index``
    written by a sharded run).  The merged output sorts by index,
    validates the partition is complete and non-overlapping, strips the
    shard bookkeeping and re-serializes — producing *byte-identical*
    output to the same grid run serially with ``--save-summaries``.
    """
    entries: list[dict] = []
    for text in texts:
        part = json.loads(text)
        if not isinstance(part, list):
            raise ValueError("merge input is not a summaries file")
        for entry in part:
            if not isinstance(entry, dict):
                raise ValueError(
                    "merge input is not a summaries file: entries must be "
                    f"objects, got {type(entry).__name__}"
                )
            index = entry.get("index")
            if (index is None or isinstance(index, bool)
                    or not isinstance(index, int) or index < 0):
                raise ValueError(
                    "summary entry missing a non-negative integer 'index': "
                    "merge inputs must be shard files written by a "
                    "--shard run"
                )
            entries.append(entry)
    if not entries:
        raise ValueError("merge inputs contain no summary entries")
    entries.sort(key=lambda e: e["index"])
    indices = [e["index"] for e in entries]
    if indices != list(range(len(entries))):
        present = set(indices)
        missing = sorted(set(range(len(entries))) - present)
        dupes = sorted({i for i in indices if indices.count(i) > 1})
        raise ValueError(
            f"shard files do not form a complete partition: "
            f"missing cells {missing}, duplicated cells {dupes}"
        )
    for entry in entries:
        del entry["index"]
    return json.dumps(entries, indent=2, sort_keys=True) + "\n"


def summaries_payload(
    results: Sequence[CellResult],
    indices: Sequence[int] | None = None,
) -> list[dict]:
    """Deterministic JSON form of sweep results (no timings, no cache bits).

    Everything in the payload is a pure function of the cells, so two runs
    of the same grid — serial, 4-proc, cached or fresh — serialize
    byte-identically.  ``repro ... --save-summaries`` writes this for CI to
    diff across worker counts.  ``indices`` (a sharded run's global cell
    positions, parallel to ``results``) stamps each entry with the
    ``index`` key :func:`merge_summaries` reassembles on.
    """
    from dataclasses import asdict

    if indices is not None and len(indices) != len(results):
        raise ValueError(
            f"got {len(results)} results but {len(indices)} shard indices"
        )
    out: list[dict] = []
    for pos, r in enumerate(results):
        entry: dict = {"label": r.cell.label(), "policy": r.policy_name}
        if indices is not None:
            entry["index"] = int(indices[pos])
        if r.ok and r.summary is not None:
            entry["summary"] = asdict(r.summary)
            if r.per_app:
                entry["per_app"] = {
                    app: asdict(s) for app, s in r.per_app.items()
                }
            # Optional keys, present only when constraints were declared —
            # payloads of constraint-free sweeps are byte-identical to
            # those written before goodput existed.
            if r.goodput is not None:
                entry["goodput"] = r.goodput.to_dict()
            if r.per_app_goodput:
                entry["per_app_goodput"] = {
                    app: g.to_dict() for app, g in r.per_app_goodput.items()
                }
        else:
            entry["error"] = (r.error or "").strip().splitlines()[-1:] or ["?"]
        out.append(entry)
    return out


def summaries_text(
    results: Sequence[CellResult],
    indices: Sequence[int] | None = None,
) -> str:
    """The canonical on-disk serialization of :func:`summaries_payload`.

    Single-sourced so ``--save-summaries`` files, the committed golden
    fingerprints and the golden determinism gate
    (:func:`repro.bench.harness.check_goldens`) can never drift apart on
    formatting.  With ``indices`` this writes the shard form
    that :func:`merge_summaries` accepts.
    """
    payload = summaries_payload(results, indices=indices)
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def load_scenario_cells(path: str | os.PathLike) -> list[SweepCell]:
    """Cells for every scenario a file declares (validated, in order).

    Auto-detects the schema like ``repro scenario run/sweep --file``: a
    single :class:`Scenario`, a :class:`MultiScenario` or a
    :class:`SweepSpec` whose axes are expanded here.
    """
    from .scenario import SweepSpec, load_scenario_file

    spec = load_scenario_file(path)
    bases = spec.expand() if isinstance(spec, SweepSpec) else [spec]
    for base in bases:
        base.validate()
    return scenario_cells(bases)


def summary_table(results: Sequence[CellResult]) -> TableData:
    """Sweep results as one console table (see ``render_console``).

    It carries each cell's status and elapsed time, so it is for the
    console only: ``--save-summaries`` writes :func:`summaries_text`.
    The ``policy`` column tells apart shared-cluster cells, whose label
    leaves the policy out.  Shared-cluster cells get one ``- app`` row
    per tenant under the aggregate; a failed cell shows ``ERROR`` (its
    error goes to stderr).
    """
    rows = []
    for r in results:
        cell = (r.cell.label(), r.policy_name)
        if not r.ok or r.summary is None:
            rows.append((*cell, "ERROR", None, None, None, r.elapsed))
            continue
        s = r.summary
        rows.append((*cell, "cached" if r.cached else "ok",
                     s.goodput, s.drop_rate, s.invalid_rate, r.elapsed))
        for app, a in (r.per_app or {}).items():
            rows.append((f"- {app}", None, "app", a.goodput, a.drop_rate,
                         a.invalid_rate, None))
    return TableData(
        name="sweep",
        columns=("cell", "policy", "status", "goodput", "drop_rate",
                 "invalid_rate", "elapsed_s"),
        rows=tuple(rows),
        formats=(None, None, None, ".1f", ".2%", ".2%", ".1f"),
    )
