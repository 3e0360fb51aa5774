"""The leaf operator through which wrapper fetches enter a plan."""

from __future__ import annotations

from typing import Any, Callable, Iterable, Iterator

from repro.algebra.operators import Operator
from repro.algebra.tuples import BindingTuple


class CallbackScan(Operator):
    """Binds items produced by a zero-argument callable at execution time.

    This is the seam between the algebra and the wrapper layer: the engine
    installs a callback that performs the (simulated) remote fetch when —
    and only when — the plan actually runs.
    """

    def __init__(self, var: str, fetch: Callable[[], Iterable[Any]], label: str = ""):
        super().__init__()
        self.var = var
        self.fetch = fetch
        self.label = label

    def _produce(self) -> Iterator[BindingTuple]:
        for item in self.fetch():
            yield BindingTuple({self.var: item})

    def describe(self) -> str:
        return f"CallbackScan(${self.var}, {self.label or 'callback'})"
