"""In-memory span tracer around named cohcp functions.

The tracer replaces each named function by a wrapper in every ``cohcp``
module namespace that binds it (``evaluate_terms`` is bound in ``core``,
``decompose`` and ``norms``), so calls made from inside the package are
recorded as well as calls made by the benchmark.  Nothing under ``src/``
changes: the original functions are put back by :meth:`Tracer.restore`.

A span records its name, start, end, parent span and the operation it
belongs to.  Spans stay in memory until :meth:`Tracer.write` is called at
the end of a run.  Wrappers record nothing while ``active`` is false, so
the benchmark's correctness checks are not traced.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from dataclasses import dataclass, field

PACKAGE = "cohcp"
MODULES = ("core", "coherence", "conditions", "norms", "decompose",
           "simulate", "htns", "cli")


@dataclass
class Span:
    id: int
    parent: int | None
    op: int | None
    name: str
    start_ns: int
    end_ns: int = 0
    attrs: dict | None = None

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


@dataclass
class LayerStats:
    """Totals of one traced function over a set of spans."""

    calls: int = 0
    self_ns: int = 0
    total_ns: int = 0
    attrs: list = field(default_factory=list)


class Tracer:
    """Wraps ``module.function`` names of the cohcp package with spans.

    ``probes`` maps a name to ``probe(args, kwargs, result) -> dict``; the
    dict is stored on the span, so counts are taken where the work happens.
    """

    def __init__(self, names, probes=None):
        self.names = tuple(names)
        self.probes = dict(probes or {})
        self.spans: list[Span] = []
        self.active = False
        self.op: int | None = None
        self._stack: list[int] = []
        self._patched: list = []

    def install(self) -> None:
        modules = [importlib.import_module(PACKAGE)] + [
            importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES]
        for name in self.names:
            home, func = name.split(".")
            original = getattr(importlib.import_module(f"{PACKAGE}.{home}"), func)
            wrapper = self._wrap(name, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def restore(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def _wrap(self, name: str, fn):
        probe = self.probes.get(name)
        clock = time.perf_counter_ns
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = Span(id=len(spans), parent=stack[-1] if stack else None,
                        op=self.op, name=name, start_ns=clock())
            spans.append(span)
            stack.append(span.id)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end_ns = clock()
                stack.pop()
            if probe is not None:
                span.attrs = probe(args, kwargs, result)
            return result

        return traced

    def layer_stats(self) -> dict:
        """Per-name calls, self time (duration minus direct children) and
        total time over all recorded spans."""
        child_ns = [0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child_ns[span.parent] += span.duration_ns
        stats = {name: LayerStats() for name in self.names}
        for span in self.spans:
            st = stats[span.name]
            st.calls += 1
            st.total_ns += span.duration_ns
            st.self_ns += span.duration_ns - child_ns[span.id]
            if span.attrs is not None:
                st.attrs.append(span.attrs)
        return stats

    def write(self, path) -> None:
        """Write every span as one JSON line; times are ns from the first span."""
        origin = self.spans[0].start_ns if self.spans else 0
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s.id, "parent": s.parent, "op": s.op, "name": s.name,
                    "start_ns": s.start_ns - origin, "end_ns": s.end_ns - origin,
                    "attrs": s.attrs}) + "\n")
