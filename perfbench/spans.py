"""In-memory span recorder and the module-attribute patching that feeds it.

A traced run rebinds public ``xlic`` module attributes (for example
``xlic.harness.train``) to wrappers that record a span around each call,
and restores the original objects afterwards. Nothing inside ``xlic``
knows it is being traced; spans exist only at the boundaries between
modules, which are the layers the benchmark reports.

A span has a name ``<layer>.<operation>``, a start and end from
``time.perf_counter``, the id of the span that was open when it began,
optional attributes (sizes, orders, return codes) and the process's peak
RSS when it ended. Self time is the duration minus the part of the
interval that child spans cover.
"""

from __future__ import annotations

import functools
import resource
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)
    peak_rss_mb: float = 0.0

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans of one single-threaded run in memory."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        parent = self._open[-1] if self._open else None
        s = Span(len(self.spans), parent, name, time.perf_counter(), attrs=attrs)
        self.spans.append(s)
        self._open.append(s.id)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            s.peak_rss_mb = peak_rss_mb()
            self._open.pop()

    def wrap(self, fn, name: str, attrs=None):
        """``fn`` recording a span per call.

        A call that raises records the exception's type name as ``raised``.
        ``attrs(result, *args, **kwargs)`` may return a dict stored on the
        span after the call returns; it runs outside the timed interval.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as s:
                try:
                    result = fn(*args, **kwargs)
                except Exception as exc:
                    s.attrs["raised"] = type(exc).__name__
                    raise
            if attrs is not None:
                s.attrs.update(attrs(result, *args, **kwargs))
            return result

        return traced


@contextmanager
def patched(tracer: Tracer, targets):
    """Rebind each ``(module, attr, span_name, attrs)`` target while active.

    The original attribute values are restored on exit, also when the body
    raises.
    """
    saved = []
    try:
        for module, attr, name, attrs in targets:
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(original, name, attrs))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = {}
    for s in spans:
        covered = 0.0
        reach = s.start
        for start, end in sorted(children[s.id]):
            start, end = max(start, reach), min(end, s.end)
            if end > start:
                covered += end - start
                reach = end
        out[s.id] = s.duration - covered
    return out

