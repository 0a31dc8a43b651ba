"""In-memory span recorder for the traced benchmark run.

Spans are recorded only from the benchmark's own files: :meth:`Tracer.wrap`
swaps a module or class attribute for a wrapper that opens a span around
each call, and :meth:`Tracer.restore` puts every original back. Nothing in
the program under test changes.

Each span keeps its name, start, end (``perf_counter_ns``), parent and a
small attribute dict. Spans stay in memory until :meth:`Tracer.write_chrome`
exports them as Chrome trace-event JSON, which Perfetto opens.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional

_INHERITED = object()


@dataclass
class Span:
    id: int
    name: str
    parent: Optional[int]
    thread: int
    start_ns: int
    end_ns: int = 0
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


class Tracer:
    """Collects nested spans per thread; see the module docstring."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: List[tuple] = []

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str, **attrs) -> Iterator[Span]:
        stack = self._stack()
        parent = stack[-1].id if stack else None
        with self._lock:
            sp = Span(len(self.spans), name, parent, threading.get_ident(),
                      time.perf_counter_ns(), attrs=attrs)
            self.spans.append(sp)
        stack.append(sp)
        try:
            yield sp
        finally:
            sp.end_ns = time.perf_counter_ns()
            stack.pop()

    def wrap(self, owner: Any, attr: str, name: str,
             on_call: Optional[Callable[..., Dict[str, Any]]] = None) -> None:
        """Replace ``owner.attr`` with a spanned wrapper until :meth:`restore`.

        ``on_call(args, kwargs, result)`` may return extra attributes for
        the span (e.g. bytes touched), computed after the timed call.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def spanned(*args, **kwargs):
            with self.span(name) as sp:
                result = original(*args, **kwargs)
            if on_call is not None:
                sp.attrs.update(on_call(args, kwargs, result))
            return result

        # Put back exactly what the owner's own dict held; an inherited
        # method (absent from the dict) is restored by deleting the wrapper.
        self._patches.append((owner, attr, vars(owner).get(attr, _INHERITED)))
        setattr(owner, attr, spanned)

    def restore(self) -> None:
        while self._patches:
            owner, attr, saved = self._patches.pop()
            if saved is _INHERITED:
                delattr(owner, attr)
            else:
                setattr(owner, attr, saved)

    # -- analysis -------------------------------------------------------------
    def children(self) -> Dict[Optional[int], List[Span]]:
        kids: Dict[Optional[int], List[Span]] = {}
        for sp in self.spans:
            kids.setdefault(sp.parent, []).append(sp)
        return kids

    def self_ns(self) -> Dict[int, int]:
        """Span id -> its duration minus the part its children cover."""
        kids = self.children()
        out = {}
        for sp in self.spans:
            covered = 0
            cursor = sp.start_ns
            for child in sorted(kids.get(sp.id, ()), key=lambda c: c.start_ns):
                lo = max(child.start_ns, cursor, sp.start_ns)
                hi = min(child.end_ns, sp.end_ns)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            out[sp.id] = sp.duration_ns - covered
        return out

    def named(self, name: str, **match) -> List[Span]:
        return [sp for sp in self.spans if sp.name == name and all(
            sp.attrs.get(k) == v for k, v in match.items())]

    def ancestor_attr(self, sp: Span, key: str) -> Any:
        """The nearest value of attribute *key* on *sp* or its ancestors."""
        node: Optional[Span] = sp
        while node is not None:
            if key in node.attrs:
                return node.attrs[key]
            node = self.spans[node.parent] if node.parent is not None else None
        return None

    # -- export ---------------------------------------------------------------
    def write_chrome(self, path: str) -> None:
        """Write all spans as Chrome trace-event JSON (complete events)."""
        pid = os.getpid()
        tids: Dict[int, int] = {}
        events = []
        for sp in self.spans:
            tid = tids.setdefault(sp.thread, len(tids) + 1)
            args = {"span_id": sp.id, "parent_id": sp.parent}
            args.update({k: v for k, v in sp.attrs.items()
                         if isinstance(v, (int, float, str, bool))})
            events.append({
                "name": sp.name, "ph": "X", "pid": pid, "tid": tid,
                "ts": sp.start_ns / 1000.0,
                "dur": sp.duration_ns / 1000.0,
                "args": args,
            })
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
