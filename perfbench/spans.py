"""Spans around calls into the tumorhs layers, recorded from the benchmark.

A Tracer replaces module attributes (for example ``solver.step_density``)
with timing wrappers.  The package looks these names up at call time, so the
wrappers also see calls made from inside the package: ``solver.run`` calling
``step_density``, or ``config.build_setup`` calling ``solver.run`` for the
prerelaxed warmup.  Each span has a name, a start, an end and the index of the
span that was open when it began.  Spans live in flat arrays until the run
ends and are written out once.

An optional probe runs after the wrapped call returns, inside a span of its
own ("perfbench.probe"), so the time it costs shows as tracing overhead
rather than as self time of the layer that called it.
"""

from __future__ import annotations

import time
from array import array
from contextlib import contextmanager

import numpy as np

PROBE = "perfbench.probe"


class Tracer:
    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self._restore: list = []
        self._probe_id = self.intern(PROBE)

    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self.stack[-1])
        self.start.append(0.0)
        self.end.append(0.0)
        self.stack.append(idx)
        return idx

    @contextmanager
    def span(self, name: str):
        idx = self._open(self.intern(name))
        self.start[idx] = time.perf_counter()
        try:
            yield idx
        finally:
            self.end[idx] = time.perf_counter()
            self.stack.pop()

    def wrap(self, module, attr: str, probe=None) -> None:
        """Time every call of module.attr; probe(span, args, kwargs, result)."""
        orig = getattr(module, attr)
        nid = self.intern(f"{module.__name__.rsplit('.', 1)[-1]}.{attr}")
        clock, stack, start, end = time.perf_counter, self.stack, self.start, self.end
        open_, probe_id = self._open, self._probe_id

        def traced(*args, **kwargs):
            idx = open_(nid)
            t0 = clock()
            try:
                result = orig(*args, **kwargs)
            finally:
                end[idx] = clock()
                start[idx] = t0
                stack.pop()
            if probe is not None:
                pidx = open_(probe_id)
                t1 = clock()
                try:
                    probe(idx, args, kwargs, result)
                finally:
                    end[pidx] = clock()
                    start[pidx] = t1
                    stack.pop()
            return result

        traced.__wrapped__ = orig
        self.replace(module, attr, traced)

    def replace(self, module, attr: str, new) -> None:
        """Set module.attr to new until restore()."""
        self._restore.append((module, attr, getattr(module, attr)))
        setattr(module, attr, new)

    def restore(self) -> None:
        while self._restore:
            module, attr, orig = self._restore.pop()
            setattr(module, attr, orig)

    # ------------------------------------------------------------------
    # analysis
    # ------------------------------------------------------------------

    def arrays(self) -> dict:
        return {"name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
                "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
                "start": np.frombuffer(self.start, dtype=np.float64).copy(),
                "end": np.frombuffer(self.end, dtype=np.float64).copy()}

    def self_times(self) -> np.ndarray:
        """Duration of each span minus the time its direct children cover."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        child = np.zeros_like(dur)
        has_parent = a["parent"] >= 0
        np.add.at(child, a["parent"][has_parent], dur[has_parent])
        return dur - child

    def inside(self, idx: int, layer_prefix: str) -> bool:
        """Whether an ancestor of span idx has a name starting with the prefix."""
        par = self.parent[idx]
        while par >= 0:
            if self.names[self.name_id[par]].startswith(layer_prefix):
                return True
            par = self.parent[par]
        return False

    def within(self, layer_prefix: str) -> np.ndarray:
        """Mask of spans that have an ancestor whose name starts with the prefix."""
        a = self.arrays()
        hit = np.array([n.startswith(layer_prefix) for n in self.names])[a["name_id"]]
        inside = np.zeros(len(hit), dtype=bool)
        # parents always precede their children, so one forward pass suffices
        for i, par in enumerate(a["parent"]):
            if par >= 0:
                inside[i] = inside[par] or hit[par]
        return inside

    def save(self, path) -> None:
        a = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), **a)
