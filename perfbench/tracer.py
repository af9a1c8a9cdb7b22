"""In-memory span tracer that wraps pamlab's public functions from outside.

A wrapped function records one span per call: name, start, end, parent
span and op id.  Spans stay in memory until the run ends.  Self time is a
span's duration minus the part of it that its child spans cover.

The tracer changes nothing under ``src/``.  It rebinds each traced function
under every name a pamlab module holds it by, because callers that did
``from .solver import integrate`` look the function up in their own module.
Methods are wrapped on their class.  ``remove`` restores every binding.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Optional

CountFn = Callable[[tuple, object], dict]


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    op: int


class Tracer:
    """Collects spans and counters for the calls made while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict = defaultdict(float)
        self.op = 0
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    # --- recording -----------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent,
                               self.op))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()

    def traced(self, fn: Callable, name: str, count: Optional[CountFn] = None):
        """``fn`` wrapped so that each call records a span named ``name``.

        ``count(args, result)`` returns counter increments for the call.
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if count is not None:
                for key, n in count(args, result).items():
                    tracer.counts[key] += n
            return result

        return wrapper

    def run_op(self, op: int, fn: Callable):
        """Run ``fn()`` as op ``op`` under a root span named ``op``."""
        self.op = op
        idx = self._open("op")
        try:
            return fn()
        finally:
            self._close(idx)

    # --- installing wrappers -------------------------------------------------

    def wrap_function(self, module, attr: str, name: str,
                      count: Optional[CountFn] = None) -> None:
        """Wrap ``module.attr`` under every name pamlab modules bind it to."""
        orig = getattr(module, attr, None)
        if orig is None:
            print(f"perfbench: {name} not found, not traced", file=sys.stderr)
            return
        wrapper = self.traced(orig, name, count)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("pamlab"):
                continue
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, wrapper)
                    self._undo.append((mod, key, orig))

    def wrap_method(self, cls, attr: str, name: str,
                    count: Optional[CountFn] = None) -> None:
        """Wrap a method on its class, so every instance sees the wrapper."""
        orig = cls.__dict__.get(attr)
        if orig is None:
            print(f"perfbench: {name} not found, not traced", file=sys.stderr)
            return
        setattr(cls, attr, self.traced(orig, name, count))
        self._undo.append((cls, attr, orig))

    def remove(self) -> None:
        """Restore every binding the wrappers replaced."""
        while self._undo:
            owner, key, orig = self._undo.pop()
            setattr(owner, key, orig)

    # --- results -------------------------------------------------------------

    def write_jsonl(self, path, workload: str) -> None:
        with open(path, "a", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "workload": workload, "id": i, "name": s.name,
                    "start": s.start, "end": s.end, "parent": s.parent,
                    "op": s.op}) + "\n")


def _covered(intervals: list) -> float:
    """Total length of the union of (start, end) intervals."""
    total = 0.0
    reach = -math.inf
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def self_times(spans: list) -> dict:
    """Summed self time per span name: duration minus child coverage."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out: dict = defaultdict(float)
    for i, s in enumerate(spans):
        inside = [(max(c.start, s.start), min(c.end, s.end))
                  for c in children[i] if c.end > s.start and c.start < s.end]
        out[s.name] += (s.end - s.start) - _covered(inside)
    return dict(out)
