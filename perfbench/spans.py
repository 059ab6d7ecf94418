"""In-memory spans around the program's public functions.

A Recorder replaces a function in the module namespace where its caller
looks it up, so the program itself is unchanged, and restores every
original on close(). Each call adds one span: name, start, end, parent
index, and optional fields read from the call's arguments and result.
With keep=True a span also holds the arguments and the result, which is
how the workloads capture outputs for the oracles.
"""

from __future__ import annotations

import time
from collections import defaultdict


class Recorder:
    def __init__(self, keep: bool = False):
        self.keep = keep
        self.spans: list = []
        self._open: list = []
        self._patched: list = []

    def wrap(self, module, attr: str, name: str, fields=None) -> None:
        """Record every call of module.attr as a span called name;
        fields(args, kwargs, result) returns a dict of counts."""
        inner = getattr(module, attr)
        spans, stack, keep = self.spans, self._open, self.keep
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            span = {"name": name, "parent": stack[-1] if stack else -1}
            stack.append(len(spans))
            spans.append(span)
            span["start"] = clock()
            try:
                result = inner(*args, **kwargs)
            finally:
                span["end"] = clock()
                stack.pop()
            if fields is not None:
                span["fields"] = fields(args, kwargs, result)
            if keep:
                span["call"] = (args, kwargs, result)
            return result

        setattr(module, attr, wrapper)
        self._patched.append((module, attr, inner))

    def close(self) -> None:
        for module, attr, inner in reversed(self._patched):
            setattr(module, attr, inner)
        self._patched.clear()

    def calls(self, name: str) -> list:
        """(args, kwargs, result) of every kept call of name, in order."""
        return [s["call"] for s in self.spans if s["name"] == name]

    def summary(self) -> dict:
        """{name: {"self_s", "calls", field sums}} over all spans. Self
        time is a span's duration less the durations of its children."""
        child_time = defaultdict(float)
        for s in self.spans:
            if s["parent"] >= 0:
                child_time[s["parent"]] += s["end"] - s["start"]
        out: dict = defaultdict(lambda: defaultdict(float))
        for i, s in enumerate(self.spans):
            row = out[s["name"]]
            row["self_s"] += s["end"] - s["start"] - child_time[i]
            row["calls"] += 1
            for key, value in s.get("fields", {}).items():
                row[key] += value
        return {name: dict(row) for name, row in out.items()}
