"""Spans around the program's public calls, kept in memory until the run ends.

A span records a name, its start and end on ``time.perf_counter``, the span
that was open when it started (its parent) and the dataset it belongs to.
Spans are recorded by temporarily replacing functions in a module or class
namespace with wrappers, so the program runs its own code path unchanged; the
wrappers are removed again when the ``instrument`` block ends.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from time import perf_counter
from typing import Callable, Mapping


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into Tracer.spans
    dataset: str
    phase: str  # "setup" or "run"


class Tracer:
    """Collects spans when ``timed``, and the results of the calls named in ``keep``.

    With ``timed=False`` a wrapper only passes the call through and stores its
    result, which is how the untraced run hands the program's outputs to the
    checks.
    """

    def __init__(self, timed: bool, keep: frozenset[str] = frozenset()):
        self.timed = timed
        self.keep = keep
        self.spans: list[Span] = []
        self.results: dict[str, list] = {}
        self.dataset = ""
        self.phase = "run"
        self._open: list[int] = []

    def call(self, name: str, fn: Callable, *args, **kwargs):
        if not self.timed:
            result = fn(*args, **kwargs)
        else:
            result = self._timed_call(name, fn, args, kwargs)
        if name in self.keep:
            self.results.setdefault(name, []).append(result)
        return result

    def _timed_call(self, name: str, fn: Callable, args, kwargs):
        parent = self._open[-1] if self._open else None
        span = Span(name, perf_counter(), 0.0, parent, self.dataset, self.phase)
        self._open.append(len(self.spans))
        self.spans.append(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = perf_counter()
            self._open.pop()
        return result

    @contextmanager
    def instrument(self, target, names: Mapping[str, str]):
        """Route ``target.<attr>`` through a span named ``names[attr]``.

        ``target`` is a module or a class; a classmethod is wrapped bound and
        its descriptor restored afterwards.
        """
        saved = {attr: vars(target)[attr] for attr in names}
        try:
            for attr, span_name in names.items():
                setattr(target, attr, self.wrap(span_name, getattr(target, attr)))
            yield self
        finally:
            for attr, raw in saved.items():
                setattr(target, attr, raw)

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` routed through ``call`` under the span name ``name``."""
        def wrapper(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return wrapper

    def take(self, name: str) -> list:
        """Results kept under ``name`` since the last take, oldest first."""
        return self.results.pop(name, [])

    def self_times(self) -> list[float]:
        """Per span: its duration minus the time its direct children cover."""
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.end - s.start
        return own

    def write(self, path) -> None:
        selfs = self.self_times()
        doc = [dict(asdict(s), self=t) for s, t in zip(self.spans, selfs)]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": doc}, fh)
            fh.write("\n")
