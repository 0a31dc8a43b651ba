"""Static lock-discipline analysis: the ``REPRO-C`` lint family.

Builds a whole-program lock-acquisition graph over the concurrent layers
(``sweep/``, ``serve/``, ``faults/``) from stdlib ``ast`` alone and checks
it against the discipline the runtime relies on (docs/sweeps.md,
docs/serving.md):

=============  ==============================================================
REPRO-C001     potential lock-order inversion: a cycle in the whole-program
               lock-acquisition graph (lockdep's invariant, applied
               lexically)
REPRO-C002     blocking call (``time.sleep``, file I/O, ``fcntl.flock``)
               while holding a lock — stalls every thread contending the
               lock
REPRO-C003     blocking call in an ``async def`` body — stalls the whole
               event loop (serve/ is loop-confined by design)
REPRO-C004     fork / pool dispatch while holding a lock — a forked child
               inherits the held lock's state and can deadlock on it
=============  ==============================================================

Lock identification is lexical: a ``with`` (or ``async with``) whose
context expression's terminal name looks lock-ish (``lock``, ``stripe``,
``mutex``, ``semaphore``), a subscript into such a table
(``self._locks[shard]``), an alias assigned from either, a call to a
method that itself acquires locks (``with self._shard_lock(s):`` — the
callee's transitively-acquired set counts as held in the body), or a
direct ``fcntl.flock`` call (held for the remainder of its lexical block).
Lock ids are stable strings, ``<module>:<qualifier>`` — e.g.
``sweep.persist:flock`` or ``sweep.cache:GraphCache._lock`` — chosen to
match the names the runtime sanitizer uses, so the static graph and the
runtime artifact are directly comparable.

The analysis is interprocedural over a conservative call resolution
(``self.m()`` within the class, bare names within the module,
``mod.f()`` across analyzed modules) with a fixpoint over
transitively-acquired lock sets. Unresolvable calls are ignored — this is
a *potential*-inversion detector with no false-negative guarantee, the
runtime sanitizer is the dynamic backstop.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, Iterator, List, Mapping, NamedTuple, Optional, \
    Sequence, Set, Tuple

from repro.analysis.concurrency.order import LockOrderGraph

#: Package-relative path prefixes the concurrency rules cover.
SCOPE_PREFIXES = ("sweep/", "serve/", "faults/")

#: Call targets that block the calling thread (C002 under a lock, C003 in
#: an async body). ``open``/``os.open`` cover file I/O; pool dispatch is
#: handled separately (C004) so each finding names one discipline.
BLOCKING_CALLS = {
    "time.sleep", "fcntl.flock", "open", "os.open", "os.fdopen",
    "tempfile.mkstemp", "tempfile.NamedTemporaryFile", "shutil.rmtree",
    "subprocess.run", "subprocess.Popen", "subprocess.check_call",
    "subprocess.check_output", "socket.create_connection",
}

#: Terminal attribute names that block regardless of receiver (pathlib-style
#: whole-file I/O).
BLOCKING_ATTRS = {"read_text", "write_text", "read_bytes", "write_bytes"}

#: Pool/fork entry points (C004 when called under a lock; C003 in async).
FORK_CALLS = {"os.fork", "multiprocessing.Pool", "multiprocessing.Process",
              "multiprocessing.get_context", "ProcessPoolExecutor",
              "concurrent.futures.ProcessPoolExecutor"}

#: Dispatch/teardown methods that block or fork when the receiver is a pool.
POOL_DISPATCH_ATTRS = {"apply", "apply_async", "map", "map_async", "imap",
                       "imap_unordered", "starmap", "starmap_async", "join"}

_LOCKISH_RE = re.compile(r"(?i)(?<![a-z])(?:lock|stripe|mutex|semaphore)s?"
                         r"(?![a-z])")


class CFinding(NamedTuple):
    """A concurrency finding; field order matches ``LintFinding``'s init."""

    rule: str
    path: str
    line: int
    symbol: str
    message: str


def in_scope(relpath: str) -> bool:
    return relpath.startswith(SCOPE_PREFIXES)


def _module_of(relpath: str) -> str:
    return relpath[:-3].replace("/", ".") if relpath.endswith(".py") \
        else relpath.replace("/", ".")


def _lockish(name: str) -> bool:
    return bool(_LOCKISH_RE.search(name))


def _dotted(expr: ast.expr) -> str:
    parts: List[str] = []
    node = expr
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


# -- per-function collection ---------------------------------------------------

class _Acq(NamedTuple):
    lock: str
    line: int
    held: Tuple[object, ...]  # lock ids and ("call", module, cls, dotted)


class _CallEv(NamedTuple):
    dotted: str
    recv: str  # dotted minus the terminal attribute ("" for bare names)
    line: int
    held: Tuple[object, ...]


class _FuncInfo:
    def __init__(self, key: Tuple[str, Optional[str], str], relpath: str,
                 name: str, is_async: bool) -> None:
        self.key = key
        self.relpath = relpath
        self.name = name
        self.is_async = is_async
        self.acqs: List[_Acq] = []
        self.calls: List[_CallEv] = []


_FuncTable = Dict[Tuple[str, Optional[str], str], _FuncInfo]


def _key_sort(key: Tuple[str, Optional[str], str]) -> Tuple[str, str, str]:
    return (key[0], key[1] or "", key[2])


def _analyze_function(fn: ast.AST, module: str, cls: Optional[str],
                      relpath: str, out: _FuncTable) -> None:
    assert isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
    key = (module, cls, fn.name)
    info = _FuncInfo(key, relpath, fn.name,
                     isinstance(fn, ast.AsyncFunctionDef))
    if key not in out:  # first definition wins (nested shadows are rare)
        out[key] = info
    aliases: Dict[str, str] = {}
    flock_id = f"{module}:flock"

    def lock_id_of(expr: ast.expr) -> Optional[str]:
        if isinstance(expr, ast.Name):
            if expr.id in aliases:
                return aliases[expr.id]
            if _lockish(expr.id):
                return f"{module}:{expr.id}"
            return None
        if isinstance(expr, ast.Attribute):
            if not _lockish(expr.attr):
                return None
            if isinstance(expr.value, ast.Name) and expr.value.id == "self" \
                    and cls:
                return f"{module}:{cls}.{expr.attr}"
            dotted = _dotted(expr)
            return f"{module}:{dotted}" if dotted else f"{module}:{expr.attr}"
        if isinstance(expr, ast.Subscript):
            return lock_id_of(expr.value)
        if isinstance(expr, ast.Call):
            return lock_id_of(expr.func)
        return None

    def record_calls(expr: ast.expr, held: Tuple[object, ...]) -> List[int]:
        """Record every call inside *expr*; return flock-call line numbers."""
        flock_lines: List[int] = []
        for node in ast.walk(expr):
            if not isinstance(node, ast.Call):
                continue
            dotted = _dotted(node.func)
            if not dotted:
                continue
            recv = dotted.rsplit(".", 1)[0] if "." in dotted else ""
            info.calls.append(_CallEv(dotted, recv, node.lineno, held))
            if dotted == "fcntl.flock":
                flock_lines.append(node.lineno)
        return flock_lines

    def own_exprs(stmt: ast.stmt) -> Iterator[ast.expr]:
        for _, value in ast.iter_fields(stmt):
            if isinstance(value, ast.expr):
                yield value
            elif isinstance(value, list):
                for v in value:
                    if isinstance(v, ast.expr):
                        yield v

    def child_bodies(stmt: ast.stmt) -> Iterator[List[ast.stmt]]:
        for _, value in ast.iter_fields(stmt):
            if isinstance(value, list) and value \
                    and isinstance(value[0], ast.stmt):
                yield value
            elif isinstance(value, list):
                for v in value:
                    if isinstance(v, ast.ExceptHandler):
                        yield v.body
                    elif v.__class__.__name__ == "match_case":
                        yield v.body  # type: ignore[union-attr]

    def note_flocks(lines: List[int], held: List[object]) -> None:
        for line in lines:
            info.acqs.append(_Acq(flock_id, line, tuple(held)))
            if flock_id not in held:
                held.append(flock_id)

    def visit_block(stmts: Sequence[ast.stmt],
                    held_in: Sequence[object]) -> None:
        held: List[object] = list(held_in)
        for stmt in stmts:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                _analyze_function(stmt, module, cls, relpath, out)
                continue
            if isinstance(stmt, ast.ClassDef):
                continue
            if isinstance(stmt, (ast.With, ast.AsyncWith)):
                inner: List[object] = list(held)
                for item in stmt.items:
                    note_flocks(record_calls(item.context_expr, tuple(inner)),
                                inner)
                    lid = lock_id_of(item.context_expr)
                    if lid:
                        info.acqs.append(
                            _Acq(lid, item.context_expr.lineno, tuple(inner)))
                        inner.append(lid)
                        if isinstance(item.context_expr, ast.Call):
                            d = _dotted(item.context_expr.func)
                            if d:
                                inner.append(("call", module, cls, d))
                visit_block(stmt.body, inner)
                continue
            if isinstance(stmt, ast.Assign):
                lid = lock_id_of(stmt.value)
                if lid:
                    for target in stmt.targets:
                        if isinstance(target, ast.Name):
                            aliases[target.id] = lid
            for expr in own_exprs(stmt):
                note_flocks(record_calls(expr, tuple(held)), held)
            for body in child_bodies(stmt):
                visit_block(body, held)

    visit_block(fn.body, ())


def _collect_module(relpath: str, tree: ast.Module, out: _FuncTable) -> None:
    module = _module_of(relpath)

    def walk(body: Sequence[ast.stmt], cls: Optional[str]) -> None:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                _analyze_function(node, module, cls, relpath, out)
            elif isinstance(node, ast.ClassDef):
                walk(node.body, node.name)

    walk(tree.body, None)


# -- interprocedural resolution ------------------------------------------------

def _resolve(funcs: _FuncTable, module: str, cls: Optional[str],
             dotted: str) -> List[Tuple[str, Optional[str], str]]:
    parts = dotted.split(".")
    if parts[0] == "self" and len(parts) == 2 and cls:
        key = (module, cls, parts[1])
        return [key] if key in funcs else []
    if len(parts) == 1:
        key = (module, None, parts[0])
        if key in funcs:
            return [key]
        if cls and (module, cls, parts[0]) in funcs:
            return [(module, cls, parts[0])]
        return []
    # ``mod.f()`` — match an analyzed module by its terminal component.
    recv, name = parts[0], parts[-1]
    return sorted((k for k in funcs
                   if k[1] is None and k[2] == name
                   and (k[0] == recv or k[0].rsplit(".", 1)[-1] == recv)),
                  key=_key_sort)


def _acquired_fixpoint(funcs: _FuncTable) \
        -> Dict[Tuple[str, Optional[str], str], Set[str]]:
    acquired = {key: {a.lock for a in f.acqs} for key, f in funcs.items()}
    resolved: Dict[Tuple[Tuple[str, Optional[str], str], str],
                   List[Tuple[str, Optional[str], str]]] = {}
    for key, f in funcs.items():
        for call in f.calls:
            resolved.setdefault(
                (key, call.dotted),
                _resolve(funcs, key[0], key[1], call.dotted))
    changed = True
    while changed:
        changed = False
        for key, f in funcs.items():
            for call in f.calls:
                for callee in resolved[(key, call.dotted)]:
                    extra = acquired[callee] - acquired[key]
                    if extra:
                        acquired[key] |= extra
                        changed = True
    return acquired


def _expand_held(held: Sequence[object], funcs: _FuncTable,
                 acquired: Dict[Tuple[str, Optional[str], str], Set[str]]) \
        -> List[str]:
    out: List[str] = []
    for entry in held:
        if isinstance(entry, str):
            if entry not in out:
                out.append(entry)
            continue
        _, module, cls, dotted = entry  # type: ignore[misc]
        for callee in _resolve(funcs, module, cls, dotted):
            for lock in sorted(acquired[callee]):
                if lock not in out:
                    out.append(lock)
    return out


# -- the graph and the rules ---------------------------------------------------

def collect_functions(trees: Mapping[str, ast.Module]) -> _FuncTable:
    funcs: _FuncTable = {}
    for relpath in sorted(trees):
        if in_scope(relpath):
            _collect_module(relpath, trees[relpath], funcs)
    return funcs


def build_lock_order_graph(trees: Mapping[str, ast.Module]) -> LockOrderGraph:
    """Whole-program static lock-acquisition graph over the scoped trees."""
    funcs = collect_functions(trees)
    acquired = _acquired_fixpoint(funcs)
    graph = LockOrderGraph()
    for key in sorted(funcs, key=_key_sort):
        f = funcs[key]
        for acq in f.acqs:
            graph.add_node(acq.lock)
            for held in _expand_held(acq.held, funcs, acquired):
                if held != acq.lock:
                    graph.add_edge(held, acq.lock, {
                        "path": f.relpath, "line": acq.line,
                        "function": f.name})
        for call in f.calls:
            for callee in _resolve(funcs, key[0], key[1], call.dotted):
                for lock in sorted(acquired[callee]):
                    for held in _expand_held(call.held, funcs, acquired):
                        if held != lock:
                            graph.add_edge(held, lock, {
                                "path": f.relpath, "line": call.line,
                                "function": f.name,
                                "via": call.dotted})
    return graph


def program_findings(trees: Mapping[str, ast.Module]) -> List[CFinding]:
    """REPRO-C001: cycles in the whole-program lock-acquisition graph."""
    graph = build_lock_order_graph(trees)
    findings: List[CFinding] = []
    for cycle in graph.cycles():
        hops = []
        for i, src in enumerate(cycle):
            dst = cycle[(i + 1) % len(cycle)]
            sites = graph.edge_sites(src, dst)
            at = ""
            if sites:
                site = sites[0]
                at = f" ({site['path']}:{site['line']} in {site['function']})"
            hops.append(f"{src} -> {dst}{at}")
        first = graph.edge_sites(cycle[0], cycle[(1) % len(cycle)])
        path = str(first[0]["path"]) if first else "<program>"
        line = int(first[0]["line"]) if first else 0  # type: ignore[arg-type]
        findings.append(CFinding(
            "REPRO-C001", path, line, " -> ".join(cycle),
            "potential lock-order inversion (cycle in the static "
            "lock-acquisition graph): " + "; ".join(hops)))
    return findings


def file_findings(relpath: str, tree: ast.Module) -> List[CFinding]:
    """Per-file rules REPRO-C002/C003/C004 (C001 needs the whole program)."""
    if not in_scope(relpath):
        return []
    funcs: _FuncTable = {}
    _collect_module(relpath, tree, funcs)
    findings: List[CFinding] = []
    for key in sorted(funcs, key=_key_sort):
        f = funcs[key]
        for call in f.calls:
            blocking = _is_blocking(call)
            forking = _is_forking(call)
            if blocking and call.held:
                findings.append(CFinding(
                    "REPRO-C002", relpath, call.line, f.name,
                    f"blocking call {call.dotted}() while holding "
                    f"{_describe_held(call.held)} — stalls every thread "
                    f"contending the lock"))
            if (blocking or forking) and f.is_async:
                findings.append(CFinding(
                    "REPRO-C003", relpath, call.line, f.name,
                    f"blocking call {call.dotted}() inside async def "
                    f"{f.name} — stalls the event loop (use "
                    f"run_in_executor, docs/serving.md)"))
            if forking and call.held:
                findings.append(CFinding(
                    "REPRO-C004", relpath, call.line, f.name,
                    f"{call.dotted}() forks/dispatches to a worker pool "
                    f"while holding {_describe_held(call.held)} — a forked "
                    f"child inherits the lock state and can deadlock"))
    return findings


def _describe_held(held: Sequence[object]) -> str:
    names = [e if isinstance(e, str) else f"{e[3]}()" for e in held]
    return ", ".join(names)


def _is_blocking(call: _CallEv) -> bool:
    if call.dotted in BLOCKING_CALLS:
        return True
    return call.dotted.rsplit(".", 1)[-1] in BLOCKING_ATTRS


def _is_forking(call: _CallEv) -> bool:
    if call.dotted in FORK_CALLS:
        return True
    last = call.dotted.rsplit(".", 1)[-1]
    return last in POOL_DISPATCH_ATTRS and "pool" in call.recv.lower()
