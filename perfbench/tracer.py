"""Span recording around calls into hdsf's public functions.

The tracer replaces a public name in the *calling* module's namespace
(``falsify.simulate`` is the name ``falsify.run_trial`` looks up), so the
library itself is not edited and the untraced path runs the original
functions.  Spans are kept in memory and written out once, after the
measured run.

Each span is ``[name, start, end, parent, repeat, post, child_post, info]``:
``parent`` is the index of the enclosing span, ``repeat`` identifies the
benchmark call (one campaign or one conformance check) the span belongs to,
and ``post`` is the time the tracer spent after ``end`` computing ``info``.
A parent's self time excludes its children's ``post``, so per-layer times do
not count the tracer's own bookkeeping.
"""

from __future__ import annotations

import json
from time import perf_counter

import numpy as np

NAME, START, END, PARENT, REPEAT, POST, CHILD_POST, INFO = range(8)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.repeat = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object, object]] = []

    def wrap(self, module, attr: str, info=None) -> None:
        """Trace ``module.attr``; ``info(args, result)`` annotates each span."""
        original = getattr(module, attr)
        name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            span = [name, 0.0, 0.0, parent, self.repeat, 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                stack.pop()
            if info is not None:
                span[INFO] = info(args, result)
                span[POST] = perf_counter() - span[END]
            if parent is not None:
                spans[parent][CHILD_POST] += span[POST] + span[CHILD_POST]
            return result

        self._patched.append((module, attr, original, traced))

    def install(self) -> None:
        for module, attr, _, traced in self._patched:
            setattr(module, attr, traced)

    def uninstall(self) -> None:
        for module, attr, original, _ in self._patched:
            setattr(module, attr, original)

    def write(self, path, header: dict) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s[NAME], "start": s[START], "end": s[END],
                    "parent": s[PARENT], "repeat": s[REPEAT], "info": s[INFO],
                }) + "\n")


def stationary_tail(trace) -> int:
    """Samples at the end of ``trace`` whose state and mode equal the
    previous sample's."""
    data = np.column_stack(list(trace.signals.values()))
    changed = np.flatnonzero(np.any(data[1:] != data[:-1], axis=1))
    last = int(changed[-1]) + 1 if len(changed) else 0
    if trace.events:
        # the sample after an event's sample carries the new mode
        last = max(last, min(int(round(trace.events[-1].time / trace.dt)) + 1,
                             len(trace) - 1))
    return len(trace) - 1 - last


class Layers:
    """Per-layer figures derived from a tracer's spans."""

    def __init__(self, tracer: Tracer, repeats: int):
        self.repeats = repeats
        self.spans = tracer.spans
        self.children: dict[int, list[int]] = {}
        for i, s in enumerate(self.spans):
            if s[PARENT] is not None:
                self.children.setdefault(s[PARENT], []).append(i)

    def named(self, name: str, *, timed: bool = True) -> list[int]:
        return [i for i, s in enumerate(self.spans)
                if s[NAME] == name and (not timed or s[REPEAT] is not None)]

    def net(self, i: int) -> float:
        s = self.spans[i]
        return s[END] - s[START] - s[CHILD_POST]

    def self_time(self, i: int) -> float:
        s = self.spans[i]
        covered = sum(self.spans[c][END] - self.spans[c][START] + self.spans[c][POST]
                      for c in self.children.get(i, ()))
        return s[END] - s[START] - covered

    def total(self, ids, key=None) -> float:
        return sum((key or self.net)(i) for i in ids)

    def info_sum(self, ids, field: str) -> float:
        return sum(self.spans[i][INFO][field] for i in ids)

    def per_repeat(self, value: float) -> float:
        return value / self.repeats


def ratio(a: float, b: float) -> float:
    return a / b if b else 0.0
