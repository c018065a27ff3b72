"""In-memory spans for the traced benchmark pass.

A span records one call into a layer of the package: its name, the
layer (the ``offloadq`` module the function lives in), start and end on
the monotonic clock, the span that was open when it started, and the id
of the workload run it belongs to.  Spans are kept in memory and written
out once the run ends.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field


@dataclass
class Span:
    span_id: int
    parent: int | None
    trace_id: str
    name: str
    layer: str
    start: float
    end: float = float("nan")
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_json_dict(self) -> dict:
        return {
            "id": self.span_id,
            "parent": self.parent,
            "trace_id": self.trace_id,
            "name": self.name,
            "layer": self.layer,
            "start": self.start,
            "end": self.end,
            **({"attrs": self.attrs} if self.attrs else {}),
        }


class Tracer:
    """Records nested spans; ``span`` is a context manager yielding the Span."""

    enabled = True

    def __init__(self, trace_id: str):
        self.trace_id = trace_id
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, layer: str, **attrs):
        sp = Span(
            span_id=len(self.spans),
            parent=self._open[-1] if self._open else None,
            trace_id=self.trace_id,
            name=name,
            layer=layer,
            start=time.perf_counter(),
            attrs=attrs,
        )
        self.spans.append(sp)
        self._open.append(sp.span_id)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._open.pop()

    def named(self, name: str) -> list[Span]:
        return [sp for sp in self.spans if sp.name == name]

    def self_times(self) -> dict[str, float]:
        """Per layer: span durations minus the part their child spans cover.

        Spans nest strictly (a child closes before its parent), so the
        children of one span never overlap and their durations add up.
        """
        covered = [0.0] * len(self.spans)
        for sp in self.spans:
            if sp.parent is not None:
                covered[sp.parent] += sp.duration
        out: dict[str, float] = {}
        for sp in self.spans:
            out[sp.layer] = out.get(sp.layer, 0.0) + sp.duration - covered[sp.span_id]
        return out


class NoTracer:
    """Tracing off: spans cost one ``nullcontext`` and record nothing."""

    enabled = False

    def span(self, name: str, layer: str, **attrs):
        return nullcontext()
