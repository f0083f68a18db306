"""Plain-text report generation for the table/figure experiments.

The benchmark harness prints, for every experiment, the same kind of rows the
paper's tables contain (algorithm, model features, measured rounds) plus the
reference shapes from :mod:`repro.analysis.complexity`.  Keeping the
formatting in one place makes the benchmark modules short and the output
uniform, and lets EXPERIMENTS.md embed the exact text the harness produces.

Reports can also be built straight from persisted artifacts without
re-running anything: :func:`results_from_store` loads the static runs of an
:class:`~repro.store.ExperimentStore` (optionally one named collection) and
:func:`table_from_store` renders them as an :class:`ExperimentTable` -- the
post-hoc analysis path over a store filled by sweeps or CI jobs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence


@dataclass
class TableRow:
    """One row of an experiment table."""

    label: str
    values: Dict[str, object] = field(default_factory=dict)


@dataclass
class ExperimentTable:
    """A named table with ordered columns and rows."""

    title: str
    columns: List[str]
    rows: List[TableRow] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def add_row(self, label: str, **values: object) -> None:
        """Append a row; values are looked up by column name when rendering."""
        self.rows.append(TableRow(label=label, values=dict(values)))

    def add_note(self, note: str) -> None:
        """Append a free-form note rendered under the table."""
        self.notes.append(note)

    def render(self) -> str:
        """Render the table as aligned plain text."""
        headers = ["algorithm"] + self.columns
        body: List[List[str]] = []
        for row in self.rows:
            rendered = [row.label]
            for column in self.columns:
                value = row.values.get(column, "")
                rendered.append(_format_value(value))
            body.append(rendered)
        widths = [
            max(len(headers[i]), *(len(r[i]) for r in body)) if body else len(headers[i])
            for i in range(len(headers))
        ]
        lines = [self.title, "=" * len(self.title)]
        lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
        lines.append("  ".join("-" * widths[i] for i in range(len(headers))))
        for rendered in body:
            lines.append("  ".join(rendered[i].ljust(widths[i]) for i in range(len(rendered))))
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)

    def as_dicts(self) -> List[Dict[str, object]]:
        """Rows as dictionaries (label under the key ``algorithm``)."""
        result = []
        for row in self.rows:
            entry: Dict[str, object] = {"algorithm": row.label}
            entry.update(row.values)
            result.append(entry)
        return result


def _format_value(value: object) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        return f"{value:.2f}"
    if isinstance(value, int):
        return f"{value:,}"
    return str(value)


def comparison_summary(rows: Mapping[str, float]) -> List[str]:
    """Human-readable 'who wins by what factor' lines from ``{label: rounds}``."""
    ordered = sorted(rows.items(), key=lambda item: item[1])
    if not ordered:
        return []
    best_label, best_value = ordered[0]
    lines = [f"fastest: {best_label} ({best_value:,.0f} rounds)"]
    for label, value in ordered[1:]:
        if best_value > 0:
            lines.append(f"{label}: {value / best_value:.1f}x slower ({value:,.0f} rounds)")
    return lines


def render_report(tables: Sequence[ExperimentTable]) -> str:
    """Concatenate several tables into one report string."""
    return "\n\n".join(table.render() for table in tables)


# --------------------------------------------------------------------- #
# Loading reports from a persisted artifact store.
# --------------------------------------------------------------------- #


def results_from_store(store, keys: Optional[Iterable[str]] = None,
                       manifest: Optional[str] = None) -> List[Any]:
    """Load stored static runs as :class:`~repro.api.executor.RunResult` objects.

    ``store`` is an :class:`~repro.store.ExperimentStore` or a path to one.
    By default every ``"run"``-kind entry is loaded (in creation order);
    ``keys`` restricts to explicit content addresses, ``manifest`` to the
    members of one named collection (e.g. ``"sweep-clustering"``).  Dynamic
    (``"epochs"``) entries are skipped -- load those with
    :meth:`~repro.store.ExperimentStore.load_epochs`.
    """
    from ..store import resolve_store

    store = resolve_store(store)
    if manifest is not None:
        if keys is not None:
            raise ValueError("pass either keys or manifest, not both")
        keys = store.read_manifest(manifest).get("keys", [])
    if keys is None:
        keys = [entry["key"] for entry in store.entries() if entry["kind"] == "run"]
    results = []
    for key in keys:
        if store.manifest(key)["kind"] != "run":
            continue
        results.append(store.load_result(key))
    return results


def table_from_store(store, keys: Optional[Iterable[str]] = None,
                     manifest: Optional[str] = None,
                     title: Optional[str] = None) -> ExperimentTable:
    """An :class:`ExperimentTable` built directly from stored artifacts.

    One row per stored static run: algorithm label, deployment, seed, total
    rounds, check status and recorded wall-clock time.  Combine with
    ``manifest="sweep-<name>"`` to render exactly the cells of one sweep,
    without re-executing anything::

        from repro.analysis.reporting import table_from_store
        print(table_from_store("results-store", manifest="sweep-clustering").render())
    """
    results = results_from_store(store, keys=keys, manifest=manifest)
    table = ExperimentTable(
        title=title or (f"stored results: {manifest}" if manifest else "stored results"),
        columns=["deployment", "seed", "rounds", "checks ok", "time [ms]"],
    )
    for result in results:
        table.add_row(
            result.spec.algorithm.name,
            deployment=result.spec.deployment.kind,
            seed=result.seed,
            rounds=result.rounds.get("total", 0),
            **{
                "checks ok": "yes" if result.all_checks_pass() else "NO",
                "time [ms]": result.elapsed * 1000.0,
            },
        )
    if not results:
        table.add_note("store holds no matching static runs")
    return table
