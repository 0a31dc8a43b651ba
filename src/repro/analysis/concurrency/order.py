"""Lock-order graph shared by the static checker and the runtime sanitizer.

A node is a *lock class* — a stable string id like
``sweep.persist:flock`` — not a lock instance: two threads taking the
flocks of different cache shards still exercise the same ordering
discipline, and deadlock potential lives at the class level
(the classic lockdep observation). A directed edge ``A -> B`` means "B was
acquired while A was held", annotated with a bounded sample of *sites*
(static: file/line/function; runtime: formatted stack + thread + pid) and
an acquisition count.

A cycle in this graph is a potential lock-order inversion: some execution
interleaving can deadlock even if no run has yet. The static analyzer
(:mod:`repro.analysis.concurrency.static`) builds the graph lexically and
reports cycles as ``REPRO-C001``; the sanitizer
(:mod:`repro.analysis.concurrency.sanitizer`) builds it from real
acquisitions and raises :class:`repro.errors.LockOrderError` the moment an
edge would close a cycle.

The JSON form (``format: 1``) is shared so per-process runtime dumps merge
into one artifact and remain diffable against the static graph:

.. code-block:: json

    {"format": 1,
     "nodes": ["a", "b"],
     "edges": [{"src": "a", "dst": "b", "count": 3,
                "sites": [{"stack": "...", "thread": 1, "pid": 2}]}],
     "meta": {}}
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

GRAPH_FORMAT = 1

#: Edge-site samples kept per edge — enough to show both stacks of an
#: inversion without letting a hot shard lock grow the artifact unboundedly.
MAX_SITES_PER_EDGE = 4


class LockOrderGraph:
    """Directed graph of lock-class acquisition order with site samples."""

    def __init__(self) -> None:
        self._nodes: Set[str] = set()
        self._out: Dict[str, Set[str]] = {}
        self._edges: Dict[Tuple[str, str], Dict[str, object]] = {}
        self.meta: Dict[str, object] = {}

    # -- construction ---------------------------------------------------------

    def add_node(self, name: str) -> None:
        self._nodes.add(name)

    def add_edge(self, src: str, dst: str,
                 site: Optional[Dict[str, object]] = None) -> bool:
        """Record ``dst`` acquired while ``src`` held; return True if new."""
        self._nodes.add(src)
        self._nodes.add(dst)
        key = (src, dst)
        rec = self._edges.get(key)
        new = rec is None
        if new:
            rec = {"count": 0, "sites": []}
            self._edges[key] = rec
            self._out.setdefault(src, set()).add(dst)
        rec["count"] = int(rec["count"]) + 1
        sites = rec["sites"]
        assert isinstance(sites, list)
        if site is not None and len(sites) < MAX_SITES_PER_EDGE:
            sites.append(dict(site))
        return new

    def clear(self) -> None:
        self._nodes.clear()
        self._out.clear()
        self._edges.clear()
        self.meta.clear()

    # -- queries --------------------------------------------------------------

    @property
    def nodes(self) -> List[str]:
        return sorted(self._nodes)

    def edges(self) -> List[Tuple[str, str]]:
        return sorted(self._edges)

    def has_edge(self, src: str, dst: str) -> bool:
        return (src, dst) in self._edges

    def edge_sites(self, src: str, dst: str) -> List[Dict[str, object]]:
        rec = self._edges.get((src, dst))
        return list(rec["sites"]) if rec else []  # type: ignore[index]

    def edge_count(self, src: str, dst: str) -> int:
        rec = self._edges.get((src, dst))
        return int(rec["count"]) if rec else 0  # type: ignore[arg-type]

    def path(self, src: str, dst: str) -> Optional[List[str]]:
        """Shortest node path ``src -> ... -> dst`` (BFS), or None."""
        if src not in self._nodes or dst not in self._nodes:
            return None
        if src == dst:
            return [src] if self.has_edge(src, src) else None
        prev: Dict[str, str] = {}
        frontier = [src]
        seen = {src}
        while frontier:
            nxt: List[str] = []
            for node in frontier:
                for succ in sorted(self._out.get(node, ())):
                    if succ in seen:
                        continue
                    prev[succ] = node
                    if succ == dst:
                        out = [dst]
                        while out[-1] != src:
                            out.append(prev[out[-1]])
                        return list(reversed(out))
                    seen.add(succ)
                    nxt.append(succ)
            frontier = nxt
        return None

    def cycles(self) -> List[List[str]]:
        """One representative node cycle per strongly connected component.

        Each entry is an ordered node list ``[a, b, ..., a-implied]`` whose
        consecutive pairs (wrapping) are real edges; deterministic so static
        findings are stable across runs.
        """
        out: List[List[str]] = []
        for scc in self._sccs():
            if len(scc) == 1:
                node = next(iter(scc))
                if self.has_edge(node, node):
                    out.append([node])
                continue
            out.append(self._cycle_within(scc))
        out.sort()
        return out

    def _sccs(self) -> List[Set[str]]:
        """Tarjan's SCC, iterative (graphs are tiny but recursion-free)."""
        index: Dict[str, int] = {}
        low: Dict[str, int] = {}
        on_stack: Set[str] = set()
        stack: List[str] = []
        sccs: List[Set[str]] = []
        counter = [0]

        for root in sorted(self._nodes):
            if root in index:
                continue
            work: List[Tuple[str, int]] = [(root, 0)]
            while work:
                node, i = work.pop()
                if i == 0:
                    index[node] = low[node] = counter[0]
                    counter[0] += 1
                    stack.append(node)
                    on_stack.add(node)
                succs = sorted(self._out.get(node, ()))
                recurse = False
                while i < len(succs):
                    succ = succs[i]
                    i += 1
                    if succ not in index:
                        work.append((node, i))
                        work.append((succ, 0))
                        recurse = True
                        break
                    if succ in on_stack:
                        low[node] = min(low[node], index[succ])
                if recurse:
                    continue
                if low[node] == index[node]:
                    scc: Set[str] = set()
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        scc.add(member)
                        if member == node:
                            break
                    sccs.append(scc)
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
        return sccs

    def _cycle_within(self, scc: Set[str]) -> List[str]:
        """An actual edge cycle through the smallest node of a non-trivial
        SCC (DFS restricted to the component)."""
        start = sorted(scc)[0]
        path = [start]
        seen = {start}
        node = start
        while True:
            advanced = False
            for succ in sorted(self._out.get(node, ())):
                if succ == start and len(path) > 1:
                    return path
                if succ in scc and succ not in seen:
                    path.append(succ)
                    seen.add(succ)
                    node = succ
                    advanced = True
                    break
            if not advanced:
                # Dead branch inside the SCC; back up one step.
                path.pop()
                node = path[-1]

    # -- serialization --------------------------------------------------------

    def to_json(self) -> Dict[str, object]:
        edges = []
        for (src, dst) in sorted(self._edges):
            rec = self._edges[(src, dst)]
            edges.append({"src": src, "dst": dst,
                          "count": rec["count"],
                          "sites": list(rec["sites"])})  # type: ignore[arg-type]
        return {"format": GRAPH_FORMAT, "nodes": self.nodes,
                "edges": edges, "meta": dict(self.meta)}

    @classmethod
    def from_json(cls, data: Dict[str, object]) -> "LockOrderGraph":
        graph = cls()
        if data.get("format") != GRAPH_FORMAT:
            raise ValueError(
                f"unsupported lock-order graph format: {data.get('format')!r}")
        for node in data.get("nodes", ()):  # type: ignore[union-attr]
            graph.add_node(str(node))
        for edge in data.get("edges", ()):  # type: ignore[union-attr]
            src, dst = str(edge["src"]), str(edge["dst"])
            graph._nodes.update((src, dst))
            graph._out.setdefault(src, set()).add(dst)
            graph._edges[(src, dst)] = {
                "count": int(edge.get("count", 1)),
                "sites": [dict(s) for s in edge.get("sites", [])][
                    :MAX_SITES_PER_EDGE],
            }
        graph.meta = dict(data.get("meta", {}))  # type: ignore[arg-type]
        return graph

    def merge(self, other: "LockOrderGraph") -> "LockOrderGraph":
        """Fold *other* into self (counts sum, sites capped); return self."""
        for node in other._nodes:
            self.add_node(node)
        for (src, dst), rec in other._edges.items():
            mine = self._edges.get((src, dst))
            if mine is None:
                mine = {"count": 0, "sites": []}
                self._edges[(src, dst)] = mine
                self._out.setdefault(src, set()).add(dst)
            mine["count"] = int(mine["count"]) + int(rec["count"])
            sites = mine["sites"]
            assert isinstance(sites, list)
            for site in rec["sites"]:  # type: ignore[union-attr]
                if len(sites) >= MAX_SITES_PER_EDGE:
                    break
                sites.append(dict(site))
        return self
