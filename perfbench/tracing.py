"""Span recorder that traces the package from outside.

The traced pass replaces public functions at the module attributes where
their callers look them up (``slide_stats.nn_distances`` is what
``slide_numbers`` calls, ``harness.generate`` is what the replicate loop
calls), records one span per call and puts the originals back when the op
ends.  Untraced ops therefore run the package exactly as shipped.

A span is ``[name, start, end, parent, op, work]``: ``parent`` is the index
of the enclosing span (-1 at the top), ``op`` the id of the op that caused
it, ``work`` an optional size (points generated, distances extracted, bytes
read).  Spans stay in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator

# (module, attribute, span name, work(args, result) -> int or None)
Target = tuple[Any, str, str, "Callable[[tuple, Any], int] | None"]


class Tracer:
    """Collects spans for the ops run inside :meth:`tracing`."""

    def __init__(self, targets: list[Target]) -> None:
        self.targets = targets
        self.spans: list[list] = []
        self._stack: list[int] = []

    @contextmanager
    def tracing(self, op: int) -> Iterator[None]:
        """Install the wrappers for one op and restore the originals after."""
        saved = []
        try:
            for module, attr, name, work in self.targets:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(original, name, work, op))
            yield
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def _wrap(self, fn: Callable, name: str, work, op: int) -> Callable:
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1, op, 0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = time.perf_counter()
            if work is not None:
                span[5] = work(args, result)
            return result

        return traced

    def per_op(self) -> dict[int, dict[str, dict[str, float]]]:
        """Per op and span name: inclusive and self seconds, calls, work.

        Self time is a span's duration minus that of its direct children.
        Calls run on one thread, so children never overlap and their summed
        duration is the part of the parent's interval they cover.
        """
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict[int, dict[str, dict[str, float]]] = defaultdict(
            lambda: defaultdict(lambda: {"s": 0.0, "self_s": 0.0, "calls": 0, "work": 0})
        )
        for index, (name, start, end, _, op, work) in enumerate(self.spans):
            entry = out[op][name]
            entry["s"] += end - start
            entry["self_s"] += end - start - covered[index]
            entry["calls"] += 1
            entry["work"] += work
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        fields = ["name", "start", "end", "parent", "op", "work"]
        path.write_text(json.dumps({"fields": fields, "spans": self.spans}))
