"""Ledger audit: Figure-5-style views of where every memory sweep lives.

The restructuring passes keep a complete provenance trail (``origin`` on
sweeps, ``fused_from``/``fused_into`` on nodes). This module turns it into
human-readable audits:

* :func:`chain_audit` — for one BN layer, the before/after sweep table of
  its CONV-BN-ReLU-CONV neighbourhood: the executable form of the paper's
  Figure 5;
* :func:`sweep_summary` — per-op-kind sweep counts for a whole graph,
  the quantity Figure 7(b) aggregates;
* :func:`fusion_inventory` — every ghost node and its host, the audit the
  property tests verify is closed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import GraphError
from repro.graph.graph import LayerGraph
from repro.graph.node import Node, OpKind
from repro.graph.sweeps import Sweep


@dataclass(frozen=True)
class LedgerRow:
    """One ledger entry, annotated with its hosting node."""

    host: str
    phase: str  # "fwd" | "bwd"
    tag: str
    tensor: str
    direction: str
    grad: bool
    origin: str
    note: str


def _rows_for(node: Node) -> List[LedgerRow]:
    rows = []
    for phase, sweeps in (("fwd", node.fwd_sweeps), ("bwd", node.bwd_sweeps)):
        for s in sweeps:
            rows.append(LedgerRow(
                host=node.name, phase=phase, tag=s.tag, tensor=s.tensor,
                direction=s.direction.value, grad=s.grad,
                origin=s.origin, note=s.note,
            ))
    return rows


def chain_nodes(graph: LayerGraph, bn_name: str) -> List[Node]:
    """The CONV-BN(-ReLU)-CONV neighbourhood of a BN layer, by name.

    Works on baseline graphs (a ``BN`` node) and restructured ones (the
    ``.stats`` / ``.norm`` pair, possibly ghosted). The returned nodes are
    every node that currently hosts work originating from the chain.
    """
    members: List[Node] = []
    candidates = [bn_name, f"{bn_name}.stats", f"{bn_name}.norm"]
    found = [graph.node(c) for c in candidates if graph.has_node(c)]
    if not found:
        raise GraphError(f"no BN layer named {bn_name!r} in {graph.name}")
    members.extend(found)

    # Producer-side conv and the consumer chain, following fusion targets.
    first = found[0]
    producer = graph.producer_of(first.inputs[0])
    if producer is not None and producer.kind is OpKind.CONV:
        members.insert(0, producer)
    hosts = {
        n.attrs.get("fused_into")
        for n in found
        if n.attrs.get("fused_into")
    }
    for host in sorted(h for h in hosts if h):
        node = graph.node(host)
        if node not in members:
            members.append(node)
    return members


def chain_audit(graph: LayerGraph, bn_name: str) -> List[LedgerRow]:
    """All ledger entries currently hosted by *bn_name*'s neighbourhood."""
    rows: List[LedgerRow] = []
    for node in chain_nodes(graph, bn_name):
        rows.extend(_rows_for(node))
    return rows


def sweep_summary(graph: LayerGraph) -> Dict[OpKind, Tuple[int, int]]:
    """Per-kind (forward, backward) sweep counts over the whole graph."""
    out: Dict[OpKind, Tuple[int, int]] = {}
    for node in graph.nodes:
        fwd, bwd = out.get(node.kind, (0, 0))
        out[node.kind] = (fwd + len(node.fwd_sweeps), bwd + len(node.bwd_sweeps))
    return out


@dataclass(frozen=True)
class FusionRecord:
    ghost: str
    ghost_kind: OpKind
    host: str
    host_kind: OpKind


def fusion_inventory(graph: LayerGraph) -> List[FusionRecord]:
    """Every ghost -> host pairing the passes created, in node order."""
    records = []
    for node in graph.nodes:
        host_name = node.attrs.get("fused_into")
        if not host_name:
            continue
        host = graph.node(host_name)
        records.append(FusionRecord(
            ghost=node.name, ghost_kind=node.kind,
            host=host.name, host_kind=host.kind,
        ))
    return records


def render_chain_audit(graph: LayerGraph, bn_name: str) -> str:
    """Plain-text Figure-5 for one BN layer's neighbourhood."""
    from repro.analysis.tables import format_table

    rows = [
        (r.host, r.phase, r.direction + ("'" if r.grad else ""),
         r.tensor, r.tag, r.note or "-")
        for r in chain_audit(graph, bn_name)
    ]
    return format_table(
        ["host node", "pass", "R/W", "tensor", "tag", "note"],
        rows,
        title=f"Sweep ledger around {bn_name!r} ({graph.name})",
    )
