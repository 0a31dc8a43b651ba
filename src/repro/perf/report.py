"""Cost records produced by the simulator and consumed by the analysis layer."""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Callable, Dict, List, Mapping

from repro.graph.node import CONV_LIKE, OpKind


@dataclass(frozen=True)
class PassCost:
    """Cost of one node in one direction (forward or backward)."""

    flops: float = 0.0
    eops: float = 0.0
    dram_bytes: int = 0
    compute_s: float = 0.0
    mem_s: float = 0.0
    overhead_s: float = 0.0

    @property
    def time_s(self) -> float:
        """Roofline time: bound by the slower of compute and memory."""
        return max(self.compute_s, self.mem_s) + self.overhead_s

    @property
    def bound(self) -> str:
        return "memory" if self.mem_s >= self.compute_s else "compute"


@dataclass(frozen=True)
class NodeCost:
    """Forward + backward cost of one node."""

    name: str
    kind: OpKind
    region: str
    fwd: PassCost
    bwd: PassCost
    is_ghost: bool = False

    @property
    def time_s(self) -> float:
        return self.fwd.time_s + self.bwd.time_s

    @property
    def dram_bytes(self) -> int:
        return self.fwd.dram_bytes + self.bwd.dram_bytes


@dataclass
class IterationCost:
    """Cost of one full training iteration of a graph on one machine."""

    model: str
    hardware: str
    scenario: str
    batch: int
    nodes: List[NodeCost] = field(default_factory=list)

    # -- totals ------------------------------------------------------------------
    @property
    def fwd_time_s(self) -> float:
        return sum(n.fwd.time_s for n in self.nodes)

    @property
    def bwd_time_s(self) -> float:
        return sum(n.bwd.time_s for n in self.nodes)

    @property
    def total_time_s(self) -> float:
        return self.fwd_time_s + self.bwd_time_s

    @property
    def dram_bytes(self) -> int:
        return sum(n.dram_bytes for n in self.nodes)

    @property
    def fwd_dram_bytes(self) -> int:
        return sum(n.fwd.dram_bytes for n in self.nodes)

    @property
    def bwd_dram_bytes(self) -> int:
        return sum(n.bwd.dram_bytes for n in self.nodes)

    @property
    def time_per_image_s(self) -> float:
        return self.total_time_s / self.batch

    # -- breakdowns ------------------------------------------------------------
    def time_by_kind(self) -> Dict[OpKind, float]:
        out: Dict[OpKind, float] = {}
        for n in self.nodes:
            out[n.kind] = out.get(n.kind, 0.0) + n.time_s
        return out

    def conv_fc_time_s(self) -> float:
        """Time in CONV/FC nodes (Figure 1/6 grouping).

        Fused BN/ReLU work executed inside convolutions is attributed to
        CONV — the same attribution a wall-clock measurement of the fused
        binary would report.
        """
        return sum(n.time_s for n in self.nodes if n.kind in CONV_LIKE)

    def non_conv_time_s(self) -> float:
        return self.total_time_s - self.conv_fc_time_s()

    def non_conv_share(self) -> float:
        total = self.total_time_s
        return self.non_conv_time_s() / total if total else 0.0

    def dram_bytes_by_kind(self) -> Dict[OpKind, int]:
        out: Dict[OpKind, int] = {}
        for n in self.nodes:
            out[n.kind] = out.get(n.kind, 0) + n.dram_bytes
        return out

    def node(self, name: str) -> NodeCost:
        for n in self.nodes:
            if n.name == name:
                return n
        raise KeyError(name)

    # -- metric summary ----------------------------------------------------
    @property
    def metrics(self) -> Mapping[str, float]:
        """Every :data:`METRICS` column of this cost, read-only.

        Computed on first read and kept, so a warm cost re-walks none of
        its nodes: the cost must not change after that read. The kept
        row is left out of the pickled state, so cache entries and pool
        results are the same bytes whether or not it was read.
        """
        row = self.__dict__.get("_metrics")
        if row is None:
            row = MappingProxyType({name: fn(self)
                                    for name, fn in METRICS.items()})
            self.__dict__["_metrics"] = row
        return row

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state.pop("_metrics", None)
        return state


#: Metric column name -> extractor over a priced cost: the metric columns
#: of the sweep store and of every served result row.
METRICS: Dict[str, Callable[[IterationCost], float]] = {
    "total_time_s": lambda c: c.total_time_s,
    "fwd_time_s": lambda c: c.fwd_time_s,
    "bwd_time_s": lambda c: c.bwd_time_s,
    "time_per_image_s": lambda c: c.time_per_image_s,
    "dram_bytes": lambda c: c.dram_bytes,
    "fwd_dram_bytes": lambda c: c.fwd_dram_bytes,
    "bwd_dram_bytes": lambda c: c.bwd_dram_bytes,
    "non_conv_share": lambda c: c.non_conv_share(),
}


def speedup(baseline: IterationCost, other: IterationCost) -> float:
    """Fractional improvement of *other* over *baseline* (paper's metric).

    The paper reports "performance enhancement" as time reduction:
    25.7% means the restructured iteration takes 25.7% less time.
    """
    return 1.0 - other.total_time_s / baseline.total_time_s
