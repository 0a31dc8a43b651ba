"""sweep_grid: a two-worker SweepSession prices a seeded grid cold, then a
fresh session re-runs it from the disk cache the cold phase wrote.

``graph``, ``passes``, ``perf`` and ``sweep.persist`` do almost all of the
work; there is no HTTP and no numpy kernel. Graphs run from 192 to 806
nodes, so super-linear pass cost shows.
"""

from __future__ import annotations

import contextlib
import pickle
import random
import statistics
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from common import (
    Outcome,
    dir_bytes,
    median,
    remove_dir,
    scratch_dir,
    self_peak_rss_mb,
)
from repro.passes.scenarios import SCENARIO_ORDER
from repro.sweep import (
    GraphCache,
    PersistentCache,
    SweepSession,
    SweepSpec,
    enumerate_cells,
    price_cell,
)
from repro.sweep import cache as sweep_cache
from repro.sweep import runner as sweep_runner

WORKERS = 2

#: The traced run's counters that a correct run never leaves at 0; they are
#: per-layer metrics. The others (disk hits on the graph and scenario tiers,
#: which a warm cost hit skips; in-session cost hits, since each cell is
#: priced once per session; store errors, rejected loads, retries, degraded
#: cells) read 0 today and stay in the report under ``counters``.
COUNTER_METRICS = (
    "sweep.cache.graph_hits", "sweep.cache.graph_misses",
    "sweep.cache.scenario_hits", "sweep.cache.scenario_misses",
    "sweep.cache.cost_disk_hits", "sweep.cache.cost_misses",
)

#: Two tiny cells in two affinity bundles: running them starts the pool
#: at full size without touching any cell of the measured grid.
POOL_WARMUP = SweepSpec(name="pool-warmup", models=("tiny_cnn",),
                        scenarios=("baseline", "bnff"), batches=(2,))


@dataclass(frozen=True)
class Size:
    models: Tuple[str, ...]
    batches: Tuple[int, ...]
    precisions: Tuple[str, ...]
    hardware: Tuple[str, ...]
    min_phases: int
    #: Session starts timed before the phases. The pool's first results wait
    #: for the supervisor's 20 ms poll, so one start lands on one of two
    #: levels; the mean of many is steadier than their median.
    setup_trials: int


FULL = Size(models=("resnet50", "densenet121", "densenet201"),
            batches=(60, 120), precisions=("fp32", "fp16"),
            hardware=("skylake_2s", "volta_v100"), min_phases=3,
            setup_trials=12)
#: Same models (the per-model metric names stay), one cell per scenario.
TINY = Size(models=FULL.models, batches=(2,), precisions=("fp32",),
            hardware=("skylake_2s",), min_phases=1, setup_trials=1)


def grid(seed: int, size: Size) -> SweepSpec:
    """The measured grid; the seed fixes the order of every axis."""
    rng = random.Random(f"sweep_grid:{seed}")

    def shuffled(values: Sequence) -> tuple:
        values = list(values)
        rng.shuffle(values)
        return tuple(values)

    return SweepSpec(
        name=f"sweep_grid-{seed}",
        models=shuffled(size.models),
        scenarios=shuffled(SCENARIO_ORDER),
        batches=shuffled(size.batches),
        precisions=shuffled(size.precisions),
        hardware=shuffled(size.hardware),
    )


def start_session(cache_dir: str, workers: int = WORKERS
                  ) -> Tuple[SweepSession, float]:
    """Session + pool start, timed (the workload's set-up)."""
    t0 = time.perf_counter()
    session = SweepSession(workers=workers, cache_dir=cache_dir)
    if workers > 1:
        session.run(POOL_WARMUP)
    return session, time.perf_counter() - t0


def costs_of(result) -> Dict[str, object]:
    return {row.cell.key(): row.cost for row in result.rows}


def thaw(frozen: Dict[str, bytes]) -> Dict[str, object]:
    return {key: pickle.loads(blob) for key, blob in frozen.items()}


def compare(out: Outcome, what: str, got: Dict[str, object],
            want: Dict[str, object]) -> None:
    """Count every cell whose cost is missing or not bit-identical."""
    bad = [key for key, cost in want.items() if got.get(key) != cost]
    if bad:
        out.fail(f"{what}: {len(bad)} cell(s) differ, e.g. {bad[0]}",
                 count=len(bad))


@dataclass
class Phase:
    setup_s: float
    cold_s: float
    warm_s: float
    cold: Dict[str, object]
    warm: Dict[str, object]
    cold_stats: dict
    warm_stats: dict
    persist: dict
    report: dict
    bytes_written: int


def cold_then_warm(spec: SweepSpec, workers: int = WORKERS,
                   tracer=None) -> Phase:
    """One cold run into an empty cache dir, then a warm-disk re-run."""
    def span(name: str):
        return tracer.span(name) if tracer else contextlib.nullcontext()

    cache_dir = scratch_dir("sweep-")
    try:
        session, setup_s = start_session(cache_dir, workers)
        try:
            t0 = time.perf_counter()
            with span("sweep_grid.cold"):
                cold = session.run(spec)
            cold_s = time.perf_counter() - t0
            cold_stats = session.stats.as_dict()
            report = session.last_report.as_dict()
            persist = session.cache.persist.stats.as_dict()
        finally:
            session.close()
        bytes_written = dir_bytes(cache_dir)
        warm_session = SweepSession(workers=workers, cache_dir=cache_dir)
        try:
            t0 = time.perf_counter()
            with span("sweep_grid.warm"):
                warm = warm_session.run(spec)
            warm_s = time.perf_counter() - t0
            warm_stats = warm_session.stats.as_dict()
            for name, value in warm_session.cache.persist.stats.as_dict(
                    ).items():
                persist[name] += value
        finally:
            warm_session.close()
    finally:
        remove_dir(cache_dir)
    return Phase(setup_s, cold_s, warm_s, costs_of(cold), costs_of(warm),
                 cold_stats, warm_stats, persist, report, bytes_written)


def check_phase(out: Outcome, phase: Phase, n_cells: int) -> None:
    compare(out, "warm-disk vs cold", phase.warm, phase.cold)
    stats = phase.warm_stats
    if stats["cost_disk_hits"] != n_cells or any(
            stats[k] for k in ("graph_misses", "scenario_misses",
                               "cost_misses")):
        out.fail(f"warm-disk phase recomputed work: {stats}")


def run(seed: int, seconds: float, size: Size = FULL) -> Outcome:
    spec = grid(seed, size)
    cells = enumerate_cells(spec)
    n = len(cells)
    out = Outcome()
    phases: List[Phase] = []
    reference_phase: Optional[Phase] = None
    #: Phase 0's cold costs, pickled: kept as live objects they would make
    #: every later phase's garbage collections walk them.
    frozen: Dict[str, bytes] = {}
    broken = 0
    setups = []
    for _ in range(size.setup_trials):
        cache_dir = scratch_dir("setup-")
        try:
            session, setup_s = start_session(cache_dir)
            session.close()
        finally:
            remove_dir(cache_dir)
        setups.append(setup_s)
    deadline = time.perf_counter() + seconds
    while len(phases) < size.min_phases or time.perf_counter() < deadline:
        out.attempted += 2 * n
        try:
            phase = cold_then_warm(spec)
        except Exception as exc:  # a failed phase counts all its cells
            out.fail(f"phase {len(phases)}: {type(exc).__name__}: {exc}",
                     count=2 * n)
            broken += 1
            if broken >= 2:
                break
            continue
        check_phase(out, phase, n)
        if reference_phase is None:
            reference_phase = phase
            frozen = {k: pickle.dumps(v) for k, v in phase.cold.items()}
        else:
            compare(out, f"phase {len(phases)} vs phase 0",
                    phase.cold, thaw(frozen))
        phases.append(phase)
        phase.cold = phase.warm = {}
    if not phases:
        raise RuntimeError(f"every sweep phase failed: {out.errors}")
    peak_rss = self_peak_rss_mb()

    # Independent reference: serial price_cell on a fresh in-process cache.
    cache = GraphCache()
    reference = {cell.key(): price_cell(cell, cache) for cell in cells}
    compare(out, "cold vs in-process price_cell", thaw(frozen), reference)

    cold = median([p.cold_s for p in phases])
    warm = median([p.warm_s for p in phases])
    out.metrics = {
        "setup_s": (statistics.fmean(setups), "s"),
        "peak_rss_mb": (peak_rss, "MiB"),
        "primary_ms": (1000.0 * cold / n, "ms"),
        "secondary_ms": (1000.0 * warm / n, "ms"),
        "throughput_per_s": (n / cold, "1/s"),
    }
    out.report = {
        "cells": n,
        "phases": len(phases),
        "sweep.cold_cells_per_s": n / cold,
        "sweep.warm_disk_cells_per_s": n / warm,
        "setup_s": setups,
        "cold_s": [p.cold_s for p in phases],
        "warm_s": [p.warm_s for p in phases],
        "failure_report": reference_phase.report,
        "cold_cache_stats": reference_phase.cold_stats,
    }
    return out


# -- traced profile -------------------------------------------------------------
#: Stage spans whose self time counts as busy pricing work.
STAGES = ("graph.build", "graph.retype", "passes.apply", "perf.simulate",
          "sweep.persist.load", "sweep.persist.store")


def instrument(tracer) -> None:
    """Span the layer entry points as the sweep modules import them."""
    tracer.wrap(sweep_runner, "price_cell", "sweep.price_cell",
                lambda a, k, r: {"model": a[0].model,
                                 "scenario": a[0].scenario})
    tracer.wrap(sweep_cache, "build_model", "graph.build",
                lambda a, k, r: {"model": a[0], "nodes": len(r.nodes)})
    tracer.wrap(sweep_cache, "retype_graph", "graph.retype")
    tracer.wrap(sweep_cache, "apply_scenario", "passes.apply",
                lambda a, k, r: {"scenario": a[1], "nodes": len(a[0].nodes)})
    tracer.wrap(sweep_runner, "simulate", "perf.simulate")
    tracer.wrap(PersistentCache, "load", "sweep.persist.load",
                lambda a, k, r: {"kind": a[1], "hit": r is not None})
    tracer.wrap(PersistentCache, "store", "sweep.persist.store",
                lambda a, k, r: {"kind": a[1]})


def profile(tracer, seed: int, size: Size = FULL) -> Tuple[dict, Outcome]:
    """Per-layer metrics of the sweep layers (serial, so every span is
    recorded in this process), plus the runner counters of a parallel run."""
    spec = grid(seed, size)
    cells = enumerate_cells(spec)
    n = len(cells)
    out = Outcome(attempted=6 * n)

    parallel = cold_then_warm(spec, WORKERS)
    untraced = cold_then_warm(spec, workers=1)
    instrument(tracer)
    try:
        with tracer.span("sweep_grid.traced") as root:
            traced = cold_then_warm(spec, workers=1, tracer=tracer)
    finally:
        tracer.restore()
    for phase in (parallel, untraced, traced):
        check_phase(out, phase, n)
    # The untraced serial cold run is the in-process reference here.
    compare(out, "parallel vs serial", parallel.cold, untraced.cold)
    compare(out, "traced vs untraced", traced.cold, untraced.cold)

    self_ns = tracer.self_ns()
    spans = [sp for sp in tracer.spans if sp.id >= root.id]
    warm_start = tracer.named("sweep_grid.warm")[-1].start_ns

    def ms(sp) -> float:
        return self_ns[sp.id] / 1e6

    def by(name: str, key: str) -> Dict[str, List]:
        groups: Dict[str, List] = {}
        for sp in spans:
            if sp.name == name:
                label = tracer.ancestor_attr(sp, key)
                groups.setdefault(label, []).append(sp)
        return groups

    metrics: Dict[str, Tuple[float, str]] = {}
    for model, group in sorted(by("graph.build", "model").items()):
        metrics[f"graph.build_ms.{model}"] = (
            median([ms(sp) for sp in group]), "ms")
    for scenario, group in sorted(by("passes.apply", "scenario").items()):
        metrics[f"passes.apply_ms.{scenario}"] = (
            sum(ms(sp) for sp in group) / len(group), "ms")
    for model, group in sorted(by("passes.apply", "model").items()):
        icf = [sp for sp in group if sp.attrs["scenario"] == "bnff_icf"]
        metrics[f"passes.us_per_node.{model}"] = (
            median([1000.0 * ms(sp) / sp.attrs["nodes"] for sp in icf]),
            "us")
    sims = [sp for sp in spans if sp.name == "perf.simulate"]
    metrics["perf.simulate_ms"] = (sum(map(ms, sims)) / len(sims), "ms")
    metrics["perf.simulate_calls"] = (len(sims), "count")

    stats = {k: traced.cold_stats[k] + traced.warm_stats[k]
             for k in traced.cold_stats}
    counters = {f"sweep.cache.{stage}_{kind}": stats[f"{stage}_{kind}"]
                for stage in ("graph", "scenario", "cost")
                for kind in ("hits", "disk_hits", "misses")}
    lookups = stats["cost_hits"] + stats["cost_disk_hits"] + stats["cost_misses"]
    metrics["sweep.cache.cost_disk_hit_ratio"] = (
        stats["cost_disk_hits"] / lookups, "ratio")

    stores = [sp for sp in spans if sp.name == "sweep.persist.store"
              and sp.start_ns < warm_start]
    loads = [sp for sp in spans if sp.name == "sweep.persist.load"
             and sp.start_ns >= warm_start]
    metrics["sweep.persist.store_ms"] = (sum(map(ms, stores)), "ms")
    metrics["sweep.persist.load_ms"] = (sum(map(ms, loads)), "ms")
    metrics["sweep.persist.bytes_written"] = (traced.bytes_written, "bytes")
    counters["sweep.persist.store_errors"] = traced.persist["store_errors"]
    counters["sweep.persist.rejected"] = traced.persist["rejected"]

    cold_busy = sum(ms(sp) for sp in spans
                    if sp.name in STAGES and sp.start_ns < warm_start)
    metrics["sweep.runner.pool_start_ms"] = (1000.0 * parallel.setup_s, "ms")
    metrics["sweep.runner.busy_share"] = (
        cold_busy / (1000.0 * traced.cold_s), "ratio")
    counters["sweep.runner.retries"] = parallel.report["retries"]
    counters["sweep.runner.degraded_cells"] = len(
        parallel.report["degraded_cells"])
    metrics.update((name, (counters[name], "count"))
                   for name in COUNTER_METRICS)
    metrics["trace.overhead.sweep_ms_per_cell"] = (
        1000.0 * (traced.cold_s - untraced.cold_s) / n, "ms")
    out.report = {
        "cells": n,
        "counters": counters,
        "parallel_cold_s": parallel.cold_s,
        "serial_cold_s": {"untraced": untraced.cold_s,
                          "traced": traced.cold_s},
        "serial_warm_s": {"untraced": untraced.warm_s,
                          "traced": traced.warm_s},
    }
    return metrics, out
