"""Shared helpers for the experiment benchmarks.

Each ``bench_e*.py`` module reproduces one experiment from DESIGN.md's
index: a ``run_experiment()`` returning rows, a table printer, a
pytest-benchmark hook, and a ``__main__`` entry so the table can be
produced with ``python benchmarks/bench_eN_*.py`` directly.

Besides the printed table, every bench emits a machine-readable
``BENCH_<name>.json`` (see :func:`write_bench_json`) so the perf
trajectory can be tracked across PRs and by CI artifacts.
"""

from __future__ import annotations

import json
import math
import os
from pathlib import Path
from typing import Any, Sequence

from repro.algebra import Operator
from repro.observability.metrics import percentile as _nearest_rank_percentile

#: where BENCH_<name>.json files land; override with BENCH_RESULTS_DIR
RESULTS_DIR = Path(
    os.environ.get("BENCH_RESULTS_DIR", Path(__file__).parent / "results")
)


class Rows(Operator):
    """Replays fixed binding rows: the input of an operator microbenchmark."""

    def __init__(self, rows):
        super().__init__()
        self.rows = rows

    def _produce(self):
        yield from self.rows


def print_table(title: str, headers: Sequence[str], rows: Sequence[Sequence[Any]]) -> str:
    """Format and print an experiment table; returns the text."""
    widths = [len(str(h)) for h in headers]
    rendered_rows = []
    for row in rows:
        rendered = [_cell(value) for value in row]
        rendered_rows.append(rendered)
        for i, cell in enumerate(rendered):
            widths[i] = max(widths[i], len(cell))
    lines = [f"\n== {title} =="]
    lines.append("  ".join(str(h).ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * widths[i] for i in range(len(headers))))
    for rendered in rendered_rows:
        lines.append(
            "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(rendered))
        )
    text = "\n".join(lines)
    print(text)
    return text


def _cell(value: Any) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 100:
            return f"{value:.0f}"
        if abs(value) >= 1:
            return f"{value:.2f}"
        return f"{value:.4f}"
    return str(value)


def percentile(values: list[float], fraction: float) -> float:
    """Nearest-rank percentile (canonical implementation lives in
    :func:`repro.observability.metrics.percentile`; re-exported here so
    benchmarks keep their historical import path)."""
    return _nearest_rank_percentile(values, fraction)


class BenchStats:
    """Accumulates every query's ``EngineStats`` across one experiment.

    Benches keep one module-level instance, ``reset()`` it at the top of
    ``run_experiment()``, ``absorb()`` each ``QueryResult`` (or bare
    ``EngineStats``), and pass the instance to
    ``write_bench_json(stats=...)`` — so every ``BENCH_*.json`` carries
    the counter union behind its headline numbers.  Benches that run no
    engine queries still pass their (all-zero) instance for a uniform
    artifact schema.
    """

    def __init__(self) -> None:
        from repro.core.engine import EngineStats

        self._make = EngineStats
        self.stats = EngineStats()

    def reset(self) -> None:
        self.stats = self._make()

    def absorb(self, result: Any) -> Any:
        """Fold in a ``QueryResult`` or ``EngineStats``; returns it."""
        self.stats.absorb(getattr(result, "stats", result))
        return result

    def as_dict(self) -> dict[str, int]:
        return self.stats.as_dict()


def write_bench_json(
    name: str,
    headers: Sequence[str],
    rows: Sequence[Sequence[Any]],
    headline: dict[str, Any] | None = None,
    extra_tables: dict[str, tuple[Sequence[str], Sequence[Sequence[Any]]]]
    | None = None,
    stats: Any = None,
) -> Path:
    """Emit ``BENCH_<name>.json`` next to the printed table.

    The payload carries the raw table (as header-keyed row dicts) plus a
    ``headline`` dict of the experiment's key metrics, so cross-PR
    tooling can diff numbers without re-parsing tables.  Experiments
    with several tables pass the secondary ones via ``extra_tables``
    (table name -> (headers, rows)).  ``stats`` is an optional
    ``EngineStats`` (anything with ``as_dict()``); its counters land
    under an ``engine_stats`` key so artifact diffs can see the call
    profile behind the headline numbers.
    """
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path = RESULTS_DIR / f"BENCH_{name}.json"
    payload = {
        "bench": name,
        "headers": list(headers),
        "rows": _row_dicts(headers, rows),
        "headline": {k: _jsonable(v) for k, v in (headline or {}).items()},
    }
    if stats is not None:
        payload["engine_stats"] = _stats_union(stats.as_dict())
    if extra_tables:
        payload["tables"] = {
            table: {"headers": list(t_headers), "rows": _row_dicts(t_headers, t_rows)}
            for table, (t_headers, t_rows) in extra_tables.items()
        }
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"[bench] wrote {path}")
    return path


def _stats_union(counters: dict[str, Any]) -> dict[str, Any]:
    """Zero-fill ``counters`` to the full ``EngineStats`` counter union.

    Every ``BENCH_*.json`` then carries the same ``engine_stats`` key
    set regardless of which counters a given bench exercised — so
    cross-PR diff tooling never sees keys appear and vanish when new
    counter groups are added.  The union is derived from
    ``EngineStats().as_dict()``, so it tracks new groups (per-column
    transfer, scatter-gather routing, CDC maintenance) automatically:
    a bench that never syncs a change feed still emits every
    ``cdc_counters()`` key as zero.
    """
    from repro.core.engine import EngineStats

    union = {name: 0 for name in EngineStats().as_dict()}
    union.update(counters)
    return {k: _jsonable(v) for k, v in union.items()}


def _row_dicts(
    headers: Sequence[str], rows: Sequence[Sequence[Any]]
) -> list[dict[str, Any]]:
    return [
        {str(header): _jsonable(value) for header, value in zip(headers, row)}
        for row in rows
    ]


def _jsonable(value: Any) -> Any:
    if isinstance(value, (str, int, bool)) or value is None:
        return value
    if isinstance(value, float):
        return value if math.isfinite(value) else str(value)
    return str(value)
