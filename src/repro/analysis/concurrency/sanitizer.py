"""Runtime lock-order sanitizer (``REPRO_SANITIZE=1``).

The dynamic half of the concurrency suite: thin instrumented wrappers
around the runtime's locks record per-thread acquisition sequences into a
bounded ring buffer, maintain a process-wide lock-order graph
(:class:`~repro.analysis.concurrency.order.LockOrderGraph`), and detect
inversions *online* — the first acquisition that would close a cycle
raises :class:`repro.errors.LockOrderError` naming both stacks (the
current one and the recorded stack of the opposing edge) before the
thread ever blocks on the inner lock, so the test suite reports a
lock-order bug instead of hanging on the deadlock it would cause.

Design points, mirroring the static analyzer's model
(:mod:`repro.analysis.concurrency.static`):

* Ordering is tracked per *lock class* (the ``name`` string, e.g.
  ``sweep.persist:flock``), not per instance — the 16 shard flocks of
  every cache directory share one node, exactly like lockdep classes.
* Re-entrant re-acquisition of the *same instance* (RLock semantics) adds
  no edge; distinct instances of the same class add no self-edge either
  (shard locks are never nested by design, and a class-level self-cycle
  cannot be told apart from benign reentrance without instance-level
  order, which would explode the graph).
* ``note_acquire``/``note_release`` are module functions so non-object
  locks — the ``fcntl.flock`` shard files in ``sweep/persist.py`` — hook
  into the same graph.
* Everything is gated per call on :func:`repro.config.sanitize_enabled`,
  so the wrappers can be installed unconditionally and cost one env read
  when the sanitizer is off.

With ``REPRO_SANITIZE_ARTIFACT=<path>`` set, every participating process
merges its graph into a single JSON artifact at exit (flock-serialized,
atomic replace), so fork-pool workers and the parent land in one file the
CI uploads per PR.
"""

from __future__ import annotations

import atexit
import fcntl
import itertools
import json
import os
import threading
import traceback
from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from repro.analysis.concurrency.order import LockOrderGraph
from repro.config import sanitize_artifact_path, sanitize_enabled
from repro.errors import LockOrderError


#: Ring-buffer capacity for raw acquire/release events.
RING_SIZE = 4096

#: Stack frames kept per recorded site (innermost last, sanitizer frames
#: stripped) — enough to localize the acquisition without megabyte dumps.
STACK_DEPTH = 12

_graph = LockOrderGraph()
_graph_lock = threading.Lock()  # plain and private: never sanitized
_events: Deque[Tuple[int, int, int, str, str]] = deque(maxlen=RING_SIZE)
_seq = itertools.count()
_tls = threading.local()
_atexit_installed = False


def _held_stack() -> List[Tuple[str, object]]:
    held = getattr(_tls, "held", None)
    if held is None:
        held = _tls.held = []
    return held


def _format_stack() -> str:
    frames = traceback.extract_stack()
    here = os.path.dirname(__file__)
    frames = [f for f in frames if os.path.dirname(f.filename) != here]
    return "".join(traceback.format_list(frames[-STACK_DEPTH:]))


def _ensure_atexit() -> None:
    global _atexit_installed
    if not _atexit_installed and sanitize_artifact_path():
        _atexit_installed = True
        atexit.register(dump_artifact)


def note_acquire(name: str, token: Optional[object] = None) -> None:
    """Record that the current thread is about to acquire lock *name*.

    *token* identifies the lock instance (defaults to the class name, which
    makes all unnamed holders of *name* one reentrancy domain — correct for
    the single flock pseudo-lock). Raises :class:`LockOrderError` if the
    acquisition would close a cycle in the order graph; the offending edge
    is recorded first so the dumped artifact shows the inversion.
    """
    if not sanitize_enabled():
        return
    held = _held_stack()
    tok = token if token is not None else name
    reentrant = any(t == tok for _, t in held)
    if not reentrant and held:
        stack: Optional[str] = None
        holder_names: List[str] = []
        for holder, _ in held:
            if holder != name and holder not in holder_names:
                holder_names.append(holder)
        with _graph_lock:
            for holder in holder_names:
                if _graph.has_edge(holder, name):
                    _graph.add_edge(holder, name)  # bump the count
                    continue
                if stack is None:
                    stack = _format_stack()
                site = {"stack": stack, "thread": threading.get_ident(),
                        "pid": os.getpid()}
                reverse = _graph.path(name, holder)
                _graph.add_edge(holder, name, site)
                if reverse is not None:
                    raise _cycle_error(holder, name, reverse, stack)
    held.append((name, tok))
    _events.append((next(_seq), os.getpid(), threading.get_ident(),
                    "acquire", name))
    _ensure_atexit()


def note_release(name: str, token: Optional[object] = None) -> None:
    """Record release of lock *name* (no-op if it was never recorded)."""
    if not sanitize_enabled():
        return
    held = _held_stack()
    tok = token if token is not None else name
    for i in range(len(held) - 1, -1, -1):
        if held[i][1] == tok:
            del held[i]
            break
    _events.append((next(_seq), os.getpid(), threading.get_ident(),
                    "release", name))


def _cycle_error(holder: str, name: str, reverse_path: List[str],
                 current_stack: str) -> LockOrderError:
    cycle = [holder] + reverse_path  # holder -> name -> ... -> holder
    recorded_stack = ""
    recorded_at = ""
    for src, dst in zip(reverse_path, reverse_path[1:]):
        for site in _graph.edge_sites(src, dst):
            if site.get("stack"):
                recorded_stack = str(site["stack"])
                recorded_at = (f"{src} -> {dst} (thread "
                               f"{site.get('thread')}, pid "
                               f"{site.get('pid')})")
                break
        if recorded_stack:
            break
    message = (
        f"lock-order inversion: acquiring {name!r} while holding "
        f"{holder!r}, but the opposite order "
        f"{' -> '.join(reverse_path)} is already recorded "
        f"(cycle: {' -> '.join(cycle)})\n"
        f"--- current acquisition stack ({holder} -> {name}) ---\n"
        f"{current_stack}"
        f"--- previously recorded stack ({recorded_at or 'no site'}) ---\n"
        f"{recorded_stack or '<no stack recorded>'}")
    return LockOrderError(message, cycle=tuple(cycle),
                          stacks=(current_stack, recorded_stack))


class SanitizedLock:
    """A lock wrapper feeding the order graph; transparent when disabled.

    Wraps an ``RLock`` by default; pass ``inner=threading.Lock()`` for
    non-reentrant semantics. The order check runs *before* the inner
    acquire so an inversion raises instead of deadlocking.
    """

    __slots__ = ("name", "_inner")

    def __init__(self, name: str, inner: Optional[object] = None) -> None:
        self.name = name
        self._inner = inner if inner is not None else threading.RLock()

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        note_acquire(self.name, token=id(self))
        ok = self._inner.acquire(blocking, timeout)  # type: ignore[attr-defined]
        if not ok:
            note_release(self.name, token=id(self))
        return ok

    def release(self) -> None:
        self._inner.release()  # type: ignore[attr-defined]
        note_release(self.name, token=id(self))

    def __enter__(self) -> "SanitizedLock":
        self.acquire()
        return self

    def __exit__(self, *exc: object) -> None:
        self.release()

    def __repr__(self) -> str:
        return f"SanitizedLock({self.name!r})"


# -- introspection and lifecycle -----------------------------------------------

def current_graph() -> LockOrderGraph:
    """A snapshot copy of this process's lock-order graph."""
    with _graph_lock:
        return LockOrderGraph().merge(_graph)


def recent_events(limit: Optional[int] = None) \
        -> List[Tuple[int, int, int, str, str]]:
    """The newest ring-buffer events: (seq, pid, thread, op, lock)."""
    events = list(_events)
    return events[-limit:] if limit else events


def reset(ring_size: Optional[int] = None) -> None:
    """Drop all recorded state (tests); optionally resize the ring."""
    global _events
    with _graph_lock:
        _graph.clear()
    _events = deque(maxlen=ring_size or RING_SIZE)
    _tls.held = []


def reset_after_fork() -> None:
    """Called from pool-worker initializers: the child keeps the parent's
    order graph (still-valid observations) but drops the event ring and
    the inherited held-stack, which describe the parent's threads."""
    _events.clear()
    _tls.held = []


def dump_artifact(path: Optional[str] = None) -> Optional[str]:
    """Merge this process's graph into the JSON artifact; return its path.

    The merge is serialized across processes via ``flock`` on a sidecar
    (pool workers and the parent all dump at exit) and published with an
    atomic replace, so a reader never observes a partial artifact. No-op
    when no path is configured.
    """
    path = path or sanitize_artifact_path()
    if not path:
        return None
    with _graph_lock:
        mine = LockOrderGraph().merge(_graph)
    mine.meta = {"format_note": "lock-order graph, see docs/analysis.md"}
    lock_path = path + ".lock"
    fd = os.open(lock_path, os.O_CREAT | os.O_RDWR, 0o644)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX)
        merged = mine
        if os.path.exists(path):
            try:
                with open(path, "r") as fh:
                    merged = LockOrderGraph.from_json(json.load(fh))
                merged.merge(mine)
                merged.meta = mine.meta
            except (ValueError, OSError):
                merged = mine  # corrupt artifact: rewrite from scratch
        tmp = f"{path}.tmp.{os.getpid()}"
        with open(tmp, "w") as fh:
            json.dump(merged.to_json(), fh, indent=2, sort_keys=True)
        os.replace(tmp, path)
    finally:
        os.close(fd)
    return path
