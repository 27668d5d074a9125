"""Span recording at the layer boundaries of ``lomnitz``.

The benchmark wraps the public functions of each module at the names
through which other modules, and the benchmark itself, call them: for
example ``lomnitz.cli.solve_relaxation`` or ``lomnitz.laplace.creep_psi``.
Each call then records a span (name, start, end, parent) in memory.  The
library itself is not modified.  Every span's name is ``<layer>.<function>``,
where the layer is the defining module; the benchmark adds root spans
``op.<kind>`` around each workload operation and ``probe.<label>`` around
each fixed layer probe, so all spans of one operation share its root.
"""

from __future__ import annotations

import contextlib
import importlib
import time
from array import array
from pathlib import Path

import numpy as np

LAYERS = ("special_functions", "operators", "creep", "relaxation", "laplace", "cli")

# module -> the names wrapped in that module's namespace.  The package-level
# names are the ones the benchmark calls; the others are the names each
# module imported from another layer (plus two functions a module calls
# internally, so that their cost shows as a child span of their caller).
BOUNDARIES = {
    "lomnitz": (
        "check_laplace_identity", "compliance", "creep_psi", "creep_rate", "gamma",
        "laplace_of_sampled", "log_ml", "mittag_leffler", "oracle_solve",
        "solve_relaxation", "verify_eigenfunction", "verify_power_law_property",
        "weights",
    ),
    "lomnitz.cli": (
        "run", "check_laplace_identity", "creep_psi", "gamma", "solve_relaxation",
        "verify_eigenfunction", "verify_power_law_property",
    ),
    "lomnitz.laplace": ("creep_psi", "laplace_of_sampled"),
    "lomnitz.relaxation": ("gamma", "weights"),
    "lomnitz.creep": ("gamma",),
    "lomnitz.operators": ("_ml_arrays", "_rgamma", "gamma", "log_ml"),
}


def span_name(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


class Tracer:
    """In-memory span store; spans are appended in start order."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, t0: float) -> None:
        self.end[idx] = time.perf_counter()
        self.start[idx] = t0
        self._stack.pop()

    @contextlib.contextmanager
    def root(self, name: str):
        """A span opened by the benchmark itself (an operation or a probe)."""
        idx = self._open(name)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._close(idx, t0)

    def wrap(self, fn):
        name = span_name(fn)
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer._open(name)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(idx, t0)

        traced.__wrapped__ = fn
        return traced

    def table(self) -> "SpanTable":
        return SpanTable(self)

    def write(self, path: Path) -> None:
        np.savez_compressed(
            path, names=np.array(self.names), name_id=np.asarray(self.name_id),
            parent=np.asarray(self.parent), start=np.asarray(self.start),
            end=np.asarray(self.end),
        )


@contextlib.contextmanager
def patched(make_wrapper):
    """Replace every boundary name with ``make_wrapper(original)``; restore on exit."""
    saved = []
    try:
        for module_name, attrs in BOUNDARIES.items():
            module = importlib.import_module(module_name)
            for attr in attrs:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, make_wrapper(original))
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


class SpanTable:
    """Array view of a tracer's spans with self times and roots."""

    def __init__(self, tracer: Tracer):
        self.names = list(tracer.names)
        self.name_id = np.asarray(tracer.name_id, dtype=np.int64)
        self.parent = np.asarray(tracer.parent, dtype=np.int64)
        self.dur = np.asarray(tracer.end) - np.asarray(tracer.start)
        n = self.dur.size
        has_parent = self.parent >= 0
        child_sum = np.bincount(self.parent[has_parent], weights=self.dur[has_parent],
                                minlength=n)
        # self time: the span minus the part of it its child spans cover
        self.self_time = self.dur - child_sum
        root = np.where(has_parent, self.parent, np.arange(n))
        while True:  # pointer jumping until every span points at its root
            nxt = root[root]
            if np.array_equal(nxt, root):
                break
            root = nxt
        self.root = root
        layer_of = np.array([nm.split(".", 1)[0] for nm in self.names] or [""])
        self.layer = layer_of[self.name_id] if n else np.array([], dtype=str)

    def _ids(self, name: str) -> np.ndarray:
        return self.name_id == (self.names.index(name) if name in self.names else -1)

    def select(self, name: str, root: str | None = None) -> np.ndarray:
        """Mask of spans called ``name``, optionally under roots called ``root``."""
        mask = self._ids(name)
        if root is not None:
            mask &= self._ids(root)[self.root]
        return mask

    def layer_busy(self, layer: str) -> float:
        return float(self.self_time[self.layer == layer].sum())

    def layer_calls(self, layer: str) -> int:
        """Calls entering ``layer`` from another layer or from the benchmark."""
        mine = self.layer == layer
        has_parent = self.parent >= 0
        outside = np.ones_like(mine)
        outside[has_parent] = self.layer[self.parent[has_parent]] != layer
        return int(np.count_nonzero(mine & outside))
