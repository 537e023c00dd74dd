"""Outside-in tracer: wraps a layer's public entry points with spans.

A span records (id, name, start, end, parent, op).  Spans are kept in memory
and written as JSONL when the run ends.  Calls that are too frequent for a
span each (the oracle's gain calls) are kept as an aggregate count and time;
that time is charged to the innermost open span, so its self time excludes
it.  A hook whose target no longer exists is recorded as absent.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional

# span record fields; a list per span keeps the per-call cost low
_ID, _NAME, _START, _END, _PARENT, _OP, _AGG = range(7)


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[list] = []
        self.counts: Counter = Counter()
        self.agg_s: Dict[str, float] = defaultdict(float)
        self.absent: List[str] = []
        self.op: Optional[int] = None
        self._stack: List[int] = []
        self._patches: List[tuple] = []

    # -- spans -------------------------------------------------------------

    def _open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([sid, name, self.clock(), None, parent, self.op, 0.0])
        self._stack.append(sid)
        return sid

    def _close(self, sid: int) -> None:
        self.spans[sid][_END] = self.clock()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """Context manager recording one span around a block."""
        sid = self._open(name)
        try:
            yield
        finally:
            self._close(sid)

    # -- hooks -------------------------------------------------------------

    def _patch(self, owner, attr: str, make) -> bool:
        original = getattr(owner, attr, None)
        if original is None:
            self.absent.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return False
        own = attr in vars(owner)
        setattr(owner, attr, make(original))
        self._patches.append((owner, attr, original, own))
        return True

    def wrap(self, owner, attr: str, name: str, measure=None) -> bool:
        """Replace ``owner.attr`` by a wrapper that records a span named
        ``name``.  ``measure(args, kwargs, result)`` may return counts, added
        to ``counts`` as ``name.key``."""

        def make(fn):
            def wrapper(*args, **kwargs):
                sid = self._open(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self._close(sid)
                if measure is not None:
                    for key, val in measure(args, kwargs, result).items():
                        self.counts[f"{name}.{key}"] += val
                return result

            return wrapper

        return self._patch(owner, attr, make)

    def count(self, owner, attr: str, name: str) -> bool:
        """Count calls of ``owner.attr`` under ``name`` without timing them."""

        def make(fn):
            def wrapper(*args, **kwargs):
                self.counts[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        return self._patch(owner, attr, make)

    def aggregate(self, owner, attr: str, name: str) -> bool:
        """Count and time calls of ``owner.attr`` in aggregate only."""
        clock = self.clock

        def make(fn):
            def wrapper(*args, **kwargs):
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = clock() - t0
                    self.counts[name + ".calls"] += 1
                    self.agg_s[name] += dt
                    if self._stack:
                        self.spans[self._stack[-1]][_AGG] += dt

            return wrapper

        return self._patch(owner, attr, make)

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._patches:
            owner, attr, original, own = self._patches.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    # -- results -----------------------------------------------------------

    def totals(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds.  Self
        time is the span's duration minus its child spans and the aggregate
        calls made directly inside it."""
        child_s = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec[_PARENT] is not None:
                child_s[rec[_PARENT]] += rec[_END] - rec[_START]
        out: Dict[str, Dict[str, float]] = {}
        for rec in self.spans:
            dur = rec[_END] - rec[_START]
            row = out.setdefault(rec[_NAME], {"calls": 0, "s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["s"] += dur
            row["self_s"] += dur - child_s[rec[_ID]] - rec[_AGG]
        return out

    def write_jsonl(self, path: str) -> None:
        """One line per span, then one line with counts and absent hooks."""
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "id": rec[_ID],
                            "name": rec[_NAME],
                            "start": rec[_START],
                            "end": rec[_END],
                            "parent": rec[_PARENT],
                            "op": rec[_OP],
                        }
                    )
                    + "\n"
                )
            fh.write(
                json.dumps(
                    {
                        "counts": dict(sorted(self.counts.items())),
                        "aggregate_s": dict(sorted(self.agg_s.items())),
                        "absent_hooks": self.absent,
                    }
                )
                + "\n"
            )
