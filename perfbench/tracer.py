"""In-memory span tracer that wraps module-level bindings from outside.

A span is recorded around every call of a wrapped function: its name,
start, end, the enclosing span and the workload-run id set by the
caller.  Spans stay in memory until the caller writes them out.  A
`from .x import f` binding is a separate name in every importing
module, so callers list each (module, name) pair they want traced;
`installed` swaps the wrappers in and always restores the originals.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import importlib
from dataclasses import dataclass
from time import perf_counter
from typing import Callable


@dataclass(frozen=True)
class Binding:
    """A module-level name to wrap and the span name its calls record.

    annotate, when given, maps the call's return value to a dict stored
    with the span (solver iteration counts, bytes written, ...).
    """

    module: str
    attr: str
    span: str
    annotate: Callable | None = None


class Tracer:
    """Span store; single-threaded, parent spans come from a call stack."""

    def __init__(self):
        self.names: list = []
        self.starts: list = []
        self.ends: list = []
        self.parents: list = []
        self.runs: list = []
        self.attrs: dict = {}
        self.run_id = ""
        self._stack: list = []

    def __len__(self) -> int:
        return len(self.names)

    def wrap(self, fn: Callable, name: str,
             annotate: Callable | None = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.names)
            self.names.append(name)
            self.parents.append(self._stack[-1] if self._stack else -1)
            self.runs.append(self.run_id)
            self.starts.append(0.0)
            self.ends.append(0.0)
            self._stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self.starts[idx] = start
                self.ends[idx] = end
            if annotate is not None:
                self.attrs[idx] = annotate(result)
            return result

        return traced

    def add(self, name: str, start: float, end: float, parent: int = -1,
            run_id: str = "") -> int:
        """Record a finished span directly; returns its index."""
        self.names.append(name)
        self.starts.append(start)
        self.ends.append(end)
        self.parents.append(parent)
        self.runs.append(run_id)
        return len(self.names) - 1

    def self_times(self) -> list:
        """Per span: its duration minus the time its children cover."""
        children: dict = {}
        for idx, parent in enumerate(self.parents):
            if parent >= 0:
                children.setdefault(parent, []).append(idx)
        out = [end - start for start, end in zip(self.starts, self.ends)]
        for parent, kids in children.items():
            lo, hi = self.starts[parent], self.ends[parent]
            pieces = sorted((max(lo, self.starts[k]), min(hi, self.ends[k]))
                            for k in kids)
            covered = 0.0
            cur_start = cur_end = None
            for start, end in pieces:
                if end <= start:
                    continue
                if cur_end is None or start > cur_end:
                    if cur_end is not None:
                        covered += cur_end - cur_start
                    cur_start, cur_end = start, end
                else:
                    cur_end = max(cur_end, end)
            if cur_end is not None:
                covered += cur_end - cur_start
            out[parent] -= covered
        return out

    def write(self, path) -> None:
        """Write every span as one CSV row to a gzip file."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("index,parent,name,start,end,run_id,attrs\n")
            for idx, name in enumerate(self.names):
                attrs = self.attrs.get(idx)
                attr_text = ";".join(f"{k}={v}" for k, v in attrs.items()) \
                    if attrs else ""
                fh.write(f"{idx},{self.parents[idx]},{name},"
                         f"{self.starts[idx]!r},{self.ends[idx]!r},"
                         f"{self.runs[idx]},{attr_text}\n")


@contextlib.contextmanager
def installed(tracer: Tracer, bindings):
    """Replace each binding with a traced wrapper for the block's duration."""
    saved = []
    try:
        for b in bindings:
            module = importlib.import_module(b.module)
            original = getattr(module, b.attr)
            if not callable(original):
                raise TypeError(f"{b.module}.{b.attr} is not callable")
            saved.append((module, b.attr, original))
            setattr(module, b.attr, tracer.wrap(original, b.span, b.annotate))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
