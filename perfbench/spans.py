"""In-memory span recorder for the traced benchmark run.

A :class:`Tracer` replaces public functions of the ``repro`` package *at the
module or class attribute their caller resolves* with wrappers that record
one span per call: layer name, start, end, parent span and iteration id.
Nothing inside ``src/repro`` is edited; :meth:`Tracer.uninstall` restores
every original attribute.

Spans are kept in a list while the run lasts and written out once, at the
end, by :meth:`Tracer.dump`.  :func:`self_times` turns them into per-layer
self time: a span's duration minus the part of its interval that its direct
child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import defaultdict


class Tracer:
    """Records nested spans around wrapped callables."""

    def __init__(self) -> None:
        #: ``(name, start, end, parent_index, iteration)``; ``end`` is None
        #: while the span is open, ``parent_index`` is -1 for a root span.
        self.spans: list[list] = []
        #: Named counts recorded at the same boundaries as the spans.
        self.counts: dict[str, int] = defaultdict(int)
        self.iteration = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------
    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.iteration])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {self.spans[index][0]!r} closed out of order")

    @contextlib.contextmanager
    def span(self, name: str):
        """Context manager form of :meth:`open` / :meth:`close`."""
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    # -- wrapping ------------------------------------------------------------
    def wrap(self, owner: object, attribute: str, layer: str, *, count=None) -> None:
        """Replace ``owner.attribute`` by a span-recording wrapper.

        ``count`` optionally maps ``(args, kwargs, result)`` to a dict of
        counts added to :attr:`counts` after each call.
        """
        original = owner.__dict__[attribute] if isinstance(owner, type) else getattr(owner, attribute)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            index = tracer.open(layer)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.close(index)
            if count is not None:
                for key, value in count(args, kwargs, result).items():
                    tracer.counts[key] += value
            return result

        setattr(owner, attribute, wrapper)
        self._patches.append((owner, attribute, original))

    def uninstall(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    def dump(self, path) -> None:
        """Write the recorded spans as JSON (called once, when the run ends)."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"fields": ["name", "start", "end", "parent", "iteration"],
                       "spans": self.spans}, handle)


def self_times(spans) -> dict[str, float]:
    """Per-layer self time of a finished span list.

    A span's self time is its duration minus the union of the intervals its
    direct children cover (clipped to the span), so the self times of all
    spans sum to the total duration of the root spans.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent, _iteration in spans:
        if parent >= 0:
            children[parent].append((start, end))
    totals: dict[str, float] = defaultdict(float)
    for index, (name, start, end, _parent, _iteration) in enumerate(spans):
        covered = 0.0
        cursor = start
        for child_start, child_end in sorted(children.get(index, ())):
            child_start = max(child_start, cursor)
            child_end = min(child_end, end)
            if child_end > child_start:
                covered += child_end - child_start
                cursor = child_end
        totals[name] += (end - start) - covered
    return dict(totals)


def root_total(spans) -> float:
    """Summed duration of the root spans (the traced wall time)."""
    return sum(end - start for _name, start, end, parent, _it in spans if parent < 0)
