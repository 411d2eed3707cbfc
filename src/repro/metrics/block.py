"""The shared base of the repo's counter blocks.

Every counter block -- hot path, data plane, selection, misbehavior,
sharding, resilience -- is a dataclass of numeric fields with the same
four operations, defined once here.  The module imports nothing from
the rest of the package, so the crypto and overlay layers can use the
blocks without an import cycle.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Dict


@dataclass
class CounterBlock:
    """Base for a dataclass whose fields are all counters."""

    def reset(self) -> None:
        """Restore every field's default (benchmarks call this between
        phases)."""
        for f in fields(self):
            setattr(self, f.name, f.default)

    def snapshot(self) -> Dict[str, float]:
        """A plain-dict copy, for reports and BENCH_*.json files."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def merge(self, delta: Dict[str, float]) -> None:
        """Fold a worker process's counter delta into this instance.

        The crypto pool's snapshot-and-merge protocol: each worker
        snapshots its counters before and after a task and ships back
        the difference, which the parent merges here so offloaded work
        stays visible.  Unknown names are an error -- a typo'd key would
        silently drop work from the books.
        """
        names = {f.name for f in fields(self)}
        for name, value in delta.items():
            if name not in names:
                raise ValueError(
                    f"unknown {type(self).__name__} counter: {name!r}"
                )
            setattr(self, name, getattr(self, name) + value)

    def delta_since(self, before: Dict[str, float]) -> Dict[str, float]:
        """Counter growth since a :meth:`snapshot` (storm windows)."""
        return {
            name: value - before.get(name, 0)
            for name, value in self.snapshot().items()
        }
