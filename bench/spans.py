"""In-memory span recorder for the traced benchmark run.

A span is one call across a layer boundary: its name (``<layer>.<call>``),
start and end on the tracer's clock (``ScaledClock.now`` in the benchmark,
which stops while the machine's speed is sampled), the id of the span open
when it began, and any attributes the caller attaches (a level, a slice kind, a
count).  Spans are kept in a list and written out once, when the run ends.

The program's source is not edited: ``Tracer.wrap`` replaces a function on
the module or class the caller looks it up in (``plre.ensemble.nmf_gkl`` is
the name ``build_plre`` calls), and ``Tracer.unwrap`` puts every original
back.  The program is single-threaded under the benchmark's settings, so one
stack of open spans is enough.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional


class Tracer:
    def __init__(self, now: Callable[[], float] = time.perf_counter) -> None:
        self.now = now
        self.spans: List[dict] = []
        self._open: List[int] = []
        self._patches: List[tuple] = []

    @contextmanager
    def span(self, name: str) -> Iterator[dict]:
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "start": self.now(),
            "end": None,
        }
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = self.now()
            self._open.pop()

    def wrap(
        self,
        owner,
        attr: str,
        name: str,
        describe: Optional[Callable[[tuple, dict, object], Dict]] = None,
    ) -> None:
        """Record a span around every call of ``owner.attr``.

        ``describe(args, kwargs, result)`` returns attributes to attach to
        the span once the call has returned.
        """
        original = getattr(owner, attr)
        # What the class or module itself holds (a classmethod stays one).
        raw = vars(owner)[attr]

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                result = original(*args, **kwargs)
                if describe is not None:
                    rec.update(describe(args, kwargs, result))
                return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, raw))

    def unwrap(self) -> None:
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)


def duration(span: dict) -> float:
    return span["end"] - span["start"]


class SpanIndex:
    """Read-side helpers over one finished list of spans."""

    def __init__(self, spans: List[dict]):
        self.spans = spans
        self.children: Dict[int, List[dict]] = {}
        for s in spans:
            if s["parent"] is not None:
                self.children.setdefault(s["parent"], []).append(s)

    def self_time(self, span: dict) -> float:
        """Duration minus the part covered by child spans (children of one
        span never overlap: the traced code is sequential)."""
        kids = self.children.get(span["id"], ())
        return duration(span) - sum(duration(c) for c in kids)

    def root(self, span: dict) -> dict:
        while span["parent"] is not None:
            span = self.spans[span["parent"]]
        return span

    def named(self, name: str, stage: Optional[str] = None) -> List[dict]:
        return [
            s
            for s in self.spans
            if s["name"] == name
            and (stage is None or self.root(s)["name"] == stage)
        ]

    def layer_self_times(self) -> Dict[str, float]:
        """Self time summed per layer, the layer being the name's prefix."""
        out: Dict[str, float] = {}
        for s in self.spans:
            layer = s["name"].split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + self.self_time(s)
        return out
