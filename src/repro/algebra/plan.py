"""Plan wrapper: execution entry point, explain, and cardinality stats."""

from __future__ import annotations

from typing import Any, Iterator

from repro.algebra.operators import Operator
from repro.algebra.tuples import BindingTuple


class Plan:
    """A complete physical plan rooted at one operator."""

    def __init__(self, root: Operator, output_var: str | None = None):
        self.root = root
        self.output_var = output_var

    def execute(self) -> list[BindingTuple]:
        """Run the plan to completion and return all tuples."""
        self.root.reset_counters()
        return list(self.root)

    def results(self) -> list[Any]:
        """Run the plan and return output values.

        With an ``output_var``, the bound values; otherwise the tuples.
        """
        rows = self.execute()
        if self.output_var is None:
            return rows
        return [row[self.output_var] for row in rows if self.output_var in row]

    def stream(self) -> Iterator[BindingTuple]:
        self.root.reset_counters()
        return iter(self.root)

    def explain(self, analyze: bool = False) -> str:
        """The plan as indented text.

        ``analyze=True`` annotates every operator with its measured
        ``rows_out``/``rows_in`` and (when a clock was bound via
        :meth:`bind_analyze` before execution) inclusive virtual time.
        """
        return self.root.explain(analyze=analyze)

    def bind_analyze(self, clock) -> None:
        """Attach a virtual clock so execution times every operator."""
        self.root.bind_analyze(clock)

    def operator_stats(self) -> list[tuple[str, int]]:
        """(description, rows produced) per operator, top-down."""
        return [(op.describe(), op.rows_out) for op in self.root.walk()]

    def analyze_stats(self) -> list[tuple[str, dict]]:
        """(description, analyze annotations) per operator, top-down."""
        return [(op.describe(), op.analyze_stats()) for op in self.root.walk()]

    def __repr__(self) -> str:
        return f"Plan(root={self.root.describe()})"
