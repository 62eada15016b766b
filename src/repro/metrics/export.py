"""Exporter layer: every result table as console text, markdown, CSV or JSON.

The genai-perf ``console_exporter`` shape applied to this harness: a result
is a list of :class:`TableData` (plain columns + scalar rows), optionally
wrapped in an :class:`Artifact`, and every output format renders from that
one source.  :func:`render_console` is the only code that prints a table,
so a table is built once and reaches the console, markdown, CSV and JSON
alike.  The CSV and JSON renderers are **byte-stable**: output is a pure
function of the table values — no timestamps, no cache/timing bookkeeping,
floats serialized via their shortest round-trip ``repr`` — so the same
study run serially, in a process pool or from cache exports bit-identical
artifacts, and committed goldens can gate them in CI.

Consumed by the CLI's reports (``repro run``, ``compare``, ``scenario
run``, ``sweep``, ``scenario sweep``, ``list --llm``), by
``repro scenario run --format csv|json`` and by :mod:`repro.studies`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Mapping, Sequence

from .analysis import drops_per_module

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..experiments.runner import ExperimentResult, MultiResult

__all__ = [
    "Artifact",
    "TableData",
    "cell_text",
    "fault_table",
    "goodput_table",
    "multi_result_tables",
    "render_console",
    "render_csv",
    "render_json",
    "scenario_result_tables",
]

_SCALARS = (str, int, float, bool, type(None))


def cell_text(value: Any) -> str:
    """Canonical text form of one cell (CSV cells, unformatted console).

    Floats use ``repr`` — the shortest round-trip spelling, identical
    across processes and platforms — so the text form is as byte-stable
    as the value itself.  ``None`` renders empty, bools lowercase.
    """
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


@dataclass(frozen=True)
class TableData:
    """One named table of scalar cells — the unit every exporter renders.

    ``formats`` optionally carries one :func:`format` spec per column
    (e.g. ``".2f"``, ``".2%"``) applied by the *console* renderer only;
    CSV/JSON always export the raw full-precision values.
    """

    name: str
    columns: tuple[str, ...]
    rows: tuple[tuple, ...] = ()
    formats: tuple = ()

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "columns", tuple(str(c) for c in self.columns)
        )
        if not self.columns:
            raise ValueError(f"table {self.name!r} needs at least one column")
        rows = tuple(tuple(r) for r in self.rows)
        for row in rows:
            if len(row) != len(self.columns):
                raise ValueError(
                    f"table {self.name!r}: row has {len(row)} cells, "
                    f"expected {len(self.columns)}"
                )
            for value in row:
                if not isinstance(value, _SCALARS):
                    raise ValueError(
                        f"table {self.name!r}: cells must be scalars, got "
                        f"{type(value).__name__}"
                    )
        object.__setattr__(self, "rows", rows)
        formats = tuple(self.formats)
        if formats and len(formats) != len(self.columns):
            raise ValueError(
                f"table {self.name!r}: formats must cover every column"
            )
        object.__setattr__(self, "formats", formats)

    def _display_cell(self, value: Any, spec: "str | None") -> str:
        if spec is None or value is None or isinstance(value, str):
            return cell_text(value)
        return format(value, spec)

    def display_rows(self) -> list[list[str]]:
        """Rows as console strings, per-column formats applied."""
        formats = self.formats or (None,) * len(self.columns)
        return [
            [self._display_cell(v, f) for v, f in zip(row, formats)]
            for row in self.rows
        ]


def _csv_cell(value: Any) -> str:
    text = cell_text(value)
    if any(c in text for c in (",", '"', "\n")):
        return '"' + text.replace('"', '""') + '"'
    return text


def _format_table(
    headers: Sequence[str], rows: Sequence[Sequence[str]], markdown: bool
) -> str:
    """Right-aligned text columns, or a markdown table."""
    widths = [max(map(len, column)) for column in zip(headers, *rows)]
    if not markdown:
        return "\n".join(
            "  ".join(c.rjust(w) for c, w in zip(cells, widths)).rstrip()
            for cells in (headers, *rows)
        )

    def line(cells: Sequence[str]) -> str:
        return "| " + " | ".join(c.ljust(w) for c, w in zip(cells, widths)) + " |"

    rule = "|" + "|".join("-" * (w + 2) for w in widths) + "|"
    return "\n".join([line(headers), rule, *map(line, rows)])


def render_console(
    tables: Sequence[TableData], markdown: bool = False
) -> str:
    """All tables as aligned text (or markdown), one titled block each."""
    return "\n\n".join(
        f"{table.name}:\n"
        + _format_table(table.columns, table.display_rows(), markdown)
        for table in tables
    )


def render_csv(tables: Sequence[TableData]) -> str:
    """All tables as CSV blocks, each preceded by a ``# name`` comment."""
    blocks = []
    for table in tables:
        lines = [f"# {table.name}",
                 ",".join(_csv_cell(c) for c in table.columns)]
        lines.extend(
            ",".join(_csv_cell(v) for v in row) for row in table.rows
        )
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"


def render_json(
    tables: Sequence[TableData], meta: "dict | None" = None
) -> str:
    """The canonical JSON artifact: sorted keys, indent 2, one newline.

    The same serialization discipline as sweep ``--save-summaries`` files,
    so artifact files diff bitwise across worker counts and against
    committed goldens.
    """
    payload = {
        "meta": dict(meta or {}),
        "tables": {
            t.name: {
                "columns": list(t.columns),
                "rows": [list(row) for row in t.rows],
            }
            for t in tables
        },
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


@dataclass(frozen=True)
class Artifact:
    """A named bundle of tables plus metadata, exportable in every format."""

    name: str
    tables: tuple[TableData, ...]
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "tables", tuple(self.tables))
        if not self.name:
            raise ValueError("an artifact needs a name")

    def console_text(self, markdown: bool = False) -> str:
        return render_console(self.tables, markdown=markdown)

    def csv_text(self) -> str:
        return render_csv(self.tables)

    def json_text(self) -> str:
        return render_json(self.tables, self.meta)

    def write(self, directory: "str | Path") -> list[Path]:
        """Write ``<name>.json`` and ``<name>.csv`` under ``directory``."""
        out = Path(directory)
        out.mkdir(parents=True, exist_ok=True)
        paths = []
        for suffix, text in ((".json", self.json_text()),
                             (".csv", self.csv_text())):
            path = out / f"{self.name}{suffix}"
            path.write_text(text)
            paths.append(path)
        return paths


_SUMMARY_COLUMNS = ("goodput", "drop_rate", "invalid_rate", "good", "total")
_SUMMARY_FORMATS = (".2f", ".2%", ".2%", None, None)


def _summary_cells(summary) -> tuple:
    return (summary.goodput, summary.drop_rate, summary.invalid_rate,
            summary.good, summary.total)


def _summary_table(name: str, key: str, summaries: Mapping) -> TableData:
    """One :class:`~repro.metrics.analysis.Summary` row per label."""
    return TableData(
        name=name,
        columns=(key, *_SUMMARY_COLUMNS),
        rows=tuple((label, *_summary_cells(s)) for label, s in summaries.items()),
        formats=(None, *_SUMMARY_FORMATS),
    )


def _drop_table(
    name: str, key: str, module_ids: Sequence[str], collectors: Mapping
) -> TableData:
    """Share of each label's explicit drops at each module (or pool)."""
    rows = []
    for label, collector in collectors.items():
        shares = drops_per_module(collector, module_ids)
        rows.append((label, *(shares[m] for m in module_ids)))
    return TableData(
        name=name,
        columns=(key, *module_ids),
        rows=tuple(rows),
        formats=(None, *(".2%",) * len(module_ids)),
    )


def goodput_table(reports: Mapping) -> TableData:
    """Goodput under the declared constraints, one row per label.

    ``reports`` maps a policy or app label to its
    :class:`~repro.metrics.goodput.GoodputReport`.  Every ``*_met`` column
    is shown; a constraint a row does not declare counts every completion
    as meeting it.
    """
    rows = []
    for label, r in reports.items():
        rows.append((label, r.good, r.completed, r.total, r.good_fraction,
                     r.goodput, r.tokens_out, r.ttft_met, r.tpot_met,
                     r.e2e_met))
    return TableData(
        name="goodput",
        columns=("name", "good", "completed", "total", "good_fraction",
                 "goodput", "tokens_out", "ttft_met", "tpot_met", "e2e_met"),
        rows=tuple(rows),
        formats=(None, None, None, None, ".2%", ".2f", None, None, None,
                 None),
    )


def fault_table(records) -> TableData:
    """The fault timeline as one table.

    ``records`` are the injector's
    :class:`~repro.simulation.failures.FaultRecord` list.
    """
    return TableData(
        name="faults",
        columns=("time", "kind", "target", "count", "factor"),
        rows=tuple(
            (r.time, r.kind, r.target, r.count, r.factor) for r in records
        ),
        formats=(".2f", None, None, None, None),
    )


def scenario_result_tables(*results: "ExperimentResult") -> list[TableData]:
    """The single-cluster report, one row per result in each table.

    ``repro scenario run`` passes one result and ``repro compare`` one per
    policy, all on the same app.  The fault timelines are concatenated in
    result order.
    """
    tables = [
        _summary_table("summary", "policy",
                       {r.policy_name: r.summary for r in results}),
        _drop_table("module_drops", "policy", results[0].module_ids,
                    {r.policy_name: r.collector for r in results}),
    ]
    reports = {r.policy_name: r.goodput for r in results
               if r.goodput is not None}
    if reports:
        tables.append(goodput_table(reports))
    records = [record for r in results for record in r.fault_records]
    if records:
        tables.append(fault_table(records))
    return tables


def multi_result_tables(result: "MultiResult") -> list[TableData]:
    """The shared-cluster (multi-tenant) report."""
    tables = [
        _summary_table("per_app", "app", result.summaries),
        _drop_table("per_app_drops", "app", result.pool_ids,
                    result.collectors),
    ]
    reports = {k: v for k, v in result.goodputs.items() if v is not None}
    if reports:
        tables.append(goodput_table(reports))
    tables.append(TableData(
        name="aggregate",
        columns=_SUMMARY_COLUMNS,
        rows=(_summary_cells(result.aggregate),),
        formats=_SUMMARY_FORMATS,
    ))
    if result.fault_records:
        tables.append(fault_table(result.fault_records))
    return tables
