"""Outside-in tracing: spans recorded by wrappers around public functions.

A span has a name, a start and end (perf_counter seconds), the index of the
span that was open when it began (its parent), and a key naming the unit of
work it belongs to (a training step, an encoded cloud, or a phase). Spans
are kept in memory and written once, when the benchmark ends.

`Patches` swaps an attribute for a wrapper and puts the original back;
`Tracer.wrap` uses it to time a function at the name its caller looks up.
"""

from __future__ import annotations

import functools
import json
from dataclasses import asdict, dataclass
from pathlib import Path
from time import perf_counter

NO_PARENT = -1


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    key: str


class Patches:
    """Attribute replacements that are undone in reverse order."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def replace(self, owner, attr: str, make_wrapper) -> None:
        # a class attribute is read from __dict__ so that a method stays a
        # plain function and is restored as exactly the object it was
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make_wrapper(original))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()


class Tracer:
    """Spans of one process, nested by a stack of open spans."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._dissolved: set[int] = set()

    def open(self, name: str, key: str | None = None) -> int:
        parent = self._open[-1] if self._open else NO_PARENT
        if key is None:
            key = self.spans[parent].key if parent != NO_PARENT else ""
        self.spans.append(Span(name, perf_counter(), float("nan"), parent, key))
        self._open.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, index: int) -> None:
        if not self._open or self._open[-1] != index:
            raise RuntimeError(f"span {self.spans[index].name} closed out of order")
        self._open.pop()
        self.spans[index].end = perf_counter()

    def dissolve(self, index: int) -> None:
        """Close a span and hand its children to its parent, as if it had
        never been opened."""
        self.close(index)
        self._dissolved.add(index)
        parent = self.spans[index].parent
        for span in self.spans[index + 1 :]:
            if span.parent == index:
                span.parent = parent

    def call(self, name: str, fn, args=(), kwargs=None, key: str | None = None):
        """fn(*args, **kwargs) inside a span called `name`."""
        index = self.open(name, key)
        try:
            return fn(*args, **(kwargs or {}))
        finally:
            self.close(index)

    def wrap(self, patches: Patches, owner, attr: str, name: str) -> None:
        """Time every call of owner.attr as a span called `name`."""

        def make_wrapper(original):
            @functools.wraps(original)
            def traced(*args, **kwargs):
                return self.call(name, original, args, kwargs)

            return traced

        patches.replace(owner, attr, make_wrapper)

    def finished(self) -> list[Span]:
        """Closed spans, dissolved ones left out; parent indices refer to
        the returned list."""
        if self._open:
            raise RuntimeError("spans still open")
        keep = [i for i in range(len(self.spans)) if i not in self._dissolved]
        new_index = {old: new for new, old in enumerate(keep)}
        new_index[NO_PARENT] = NO_PARENT
        out = []
        for old in keep:
            span = self.spans[old]
            out.append(Span(span.name, span.start, span.end, new_index[span.parent], span.key))
        return out


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        children.setdefault(span.parent, []).append(span)
    result = []
    for index, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for child in sorted(children.get(index, []), key=lambda s: s.start):
            lo = max(child.start, reach)
            hi = min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result.append((span.end - span.start) - covered)
    return result


def write_spans(path: str | Path, spans: list[Span]) -> None:
    Path(path).write_text(json.dumps([asdict(s) for s in spans]) + "\n")
