"""serve_warm: the cost-query server as a subprocess, every cell of the
query universe priced during set-up, then rounds of a closed loop (one
client, one request at a time) and an open-loop load generator at fixed
offered rates.

``serve.http``, ``serve.wire``, ``serve.service`` and ``serve.client`` do
all the work; ``passes``/``perf`` do none while timing (``priced`` must
stay 0). One-cell requests expose per-connection cost, multi-cell ones
per-cell encode cost.
"""

from __future__ import annotations

import asyncio
import functools
import http.client
import json
import math
import os
import random
import select
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from common import (
    ROOT,
    Outcome,
    child_env,
    children_peak_rss_mb,
    median,
    remove_dir,
    scratch_dir,
    tail,
)
from repro.serve import (
    CostService,
    ServingClient,
    cell_to_json,
    cells_from_json,
    result_to_json,
)
from repro.sweep import GraphCache, SweepSession, SweepSpec, enumerate_cells
from repro.sweep import price_cell

#: Open-loop load-generator threads.
THREADS = 2
#: Offered rates (req/s), ascending; REFERENCE_RATE is where the open-loop
#: p50 and tail are reported.
RATES = (25, 50, 100, 150, 200, 300)
REFERENCE_RATE = 50
#: Length of one open-loop block; the reference rate gets two. The host's
#: speed drifts over seconds, so the run visits the closed loop and every
#: rate in each of several rounds and pools each one's samples, instead
#: of measuring one after another.
BLOCK_S = 1.0
#: Target length of one round: a one-client closed-loop block, then the
#: rate ladder.
ROUND_S = 12.0
#: Closed-loop requests generated per second of block, more than the
#: server answers one at a time; the block ends at its deadline.
CLOSED_PER_S = 2000
#: A rate holds while its load score (tail latency plus backlog growth,
#: see ``RateResult.score_ms``) stays under this limit.
LIMIT_MS = 250.0
#: Offered rates above what the server sustains today; the completed
#: rate at these is its saturation throughput.
OVERLOAD_RATES = (200, 300)
#: Share of requests that ask for 10 to 20 cells instead of one; their
#: sizes cycle through MULTI_CELLS. A chosen value, not one measured from
#: real traffic: one multi-cell request in each 20 keeps p50 a 1-cell
#: figure while every reference-rate block still carries dozens of them.
MULTI_SHARE = 0.05
MULTI_CELLS = range(10, 21)
ZIPF_S = 1.1
SERVER_START_TIMEOUT_S = 60.0


@dataclass(frozen=True)
class Size:
    universe: SweepSpec
    setup_trials: int


#: The query universe of the repo's serving benchmark
#: (benchmarks/test_serving.py): both evaluated models, every scenario,
#: two batches. Which cells are hot is fixed by ``make_requests``, so every
#: seed sees the same mix of densenet121 and resnet50 rows.
FULL = Size(SweepSpec(name="serve_warm", models=("densenet121", "resnet50"),
                      batches=(60, 120)), setup_trials=5)
TINY = Size(SweepSpec(name="serve_warm-tiny", models=("tiny_cnn",),
                      batches=(2, 4)), setup_trials=1)


def on_one_cpu(fn):
    """Run *fn* with the calling thread pinned to one CPU, so the server
    process and the load-generator threads it starts share that CPU too.

    On a shared 2-vCPU VM, a request handed from a process on one vCPU to
    a process on the other waits for that vCPU to wake. When the host was
    busy, that wait took the closed-loop 1-cell p50 from 3.5 to as much as
    6.7 ms, unpinned or with client and server pinned to two different
    CPUs. On one CPU the hand-off is a plain context switch: in the same
    minutes the pinned p50 stayed at 3.5 to 4.0 ms."""
    @functools.wraps(fn)
    def pinned(*args, **kwargs):
        before = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(before)})
        try:
            return fn(*args, **kwargs)
        finally:
            os.sched_setaffinity(0, before)
    return pinned


class Server:
    """``python -m repro.experiments serve`` on an ephemeral port."""

    def __init__(self, cache_dir: str):
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.experiments", "serve",
             "--port", "0", "--pricing-threads", "1",
             "--cache-dir", cache_dir],
            cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True,
        )
        try:
            self.port = self._read_port()
        except BaseException:
            self.stop()
            raise

    def _read_port(self) -> int:
        deadline = time.monotonic() + SERVER_START_TIMEOUT_S
        while time.monotonic() < deadline:
            ready, _, _ = select.select([self.proc.stdout], [], [], 0.5)
            if ready:
                line = self.proc.stdout.readline()
                if not line:
                    break
                if "http://" in line:
                    return int(line.split("http://")[1].split()[0]
                               .rsplit(":", 1)[1])
            elif self.proc.poll() is not None:
                break
        raise RuntimeError("server did not report its port")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def start_server(universe: Sequence) -> Tuple[Server, str, float]:
    """Server start + universe warm-up, timed (the workload's set-up)."""
    cache_dir = scratch_dir("serve-")
    t0 = time.perf_counter()
    server = Server(cache_dir)
    try:
        ServingClient(port=server.port).price_cells(universe)
    except BaseException:
        server.stop()
        remove_dir(cache_dir)
        raise
    return server, cache_dir, time.perf_counter() - t0


def make_requests(seed: int, universe: Sequence, count: int,
                  salt: str) -> List[list]:
    """Seeded zipf draws over the universe; a fixed share of requests, at
    seeded positions, are multi-cell. Which cells are hot is a fixed
    property of the workload, so every seed sees the same cost mix.

    The multi-cell requests go one to each of equal slots of the request
    list, at a seeded place in the slot: a seed that bunched them would
    queue one behind another and move the tail by itself."""
    rng = random.Random(f"serve_warm:{seed}:{salt}")
    ranked = list(universe)
    random.Random("serve_warm:popularity").shuffle(ranked)
    weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(len(ranked))]
    multi = round(MULTI_SHARE * count)
    multi_sizes = [MULTI_CELLS[i % len(MULTI_CELLS)] for i in range(multi)]
    rng.shuffle(multi_sizes)
    sizes = [1] * count
    for i, k in enumerate(multi_sizes):
        sizes[rng.randrange(i * count // multi,
                            (i + 1) * count // multi)] = k
    return [rng.choices(ranked, weights=weights, k=k) for k in sizes]


@dataclass
class Sample:
    due: float
    sent: float
    done: float
    rows: Optional[list]
    error: Optional[str]


def drive(port: int, requests: List[list], rate: float) -> List[Sample]:
    """Open loop: request i is due at start + i/rate; latency is timed
    from the due time, so a stall also charges the requests behind it."""
    n = len(requests)
    samples: List[Optional[Sample]] = [None] * n
    lock = threading.Lock()
    cursor = iter(range(n))
    start = time.perf_counter() + 0.02

    def worker() -> None:
        client = ServingClient(port=port, timeout_s=30.0)
        while True:
            with lock:
                i = next(cursor, None)
            if i is None:
                return
            due = start + i / rate
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            sent = time.perf_counter()
            rows, error = None, None
            try:
                rows = client.price_cells(requests[i])
            except Exception as exc:  # any failure is a failed request
                error = f"{type(exc).__name__}: {exc}"
            samples[i] = Sample(due, sent, time.perf_counter(), rows, error)

    threads = [threading.Thread(target=worker) for _ in range(THREADS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return samples


def closed_loop(port: int, requests: List[list],
                seconds: float) -> List[Sample]:
    """One client sends one request at a time until *seconds* have passed;
    returns the samples of ``requests[:len(samples)]``. Each latency is
    the service time alone, with no queue in front of it, so it follows
    the host's speed in proportion (an open-loop queue amplifies it)."""
    client = ServingClient(port=port, timeout_s=30.0)
    samples: List[Sample] = []
    deadline = time.perf_counter() + seconds
    for cells in requests:
        sent = time.perf_counter()
        if sent >= deadline:
            break
        rows, error = None, None
        try:
            rows = client.price_cells(cells)
        except Exception as exc:  # any failure is a failed request
            error = f"{type(exc).__name__}: {exc}"
        samples.append(Sample(sent, sent, time.perf_counter(), rows, error))
    return samples


def check_samples(out: Outcome, requests: List[list], samples: List[Sample],
                  reference: Dict[str, dict]) -> None:
    """Every response row must equal the in-process result_to_json row.
    The rows are dropped once checked: a load generator that kept every
    response would slow down as its garbage collector walked them."""
    out.attempted += len(samples)
    for cells, sample in zip(requests, samples):
        if sample.error is not None:
            out.fail(sample.error)
        elif len(sample.rows) != len(cells) or any(
                row != reference[cell.key()]
                for cell, row in zip(cells, sample.rows)):
            out.fail(f"wrong rows for {[c.label() for c in cells][:3]}")
        sample.rows = None


@dataclass
class RateResult:
    rate: float
    n: int
    p50_ms: float
    tail_pct: float
    tail_ms: float
    achieved_per_s: float
    late_tail_ms: float
    growth_ms: float
    ok: bool

    @property
    def score_ms(self) -> float:
        """Tail latency, plus how far the last quarter's median latency
        grew past the first quarter's (a growing backlog); infinite if
        any request failed."""
        if not self.ok:
            return math.inf
        return self.tail_ms + max(0.0, self.growth_ms)


def max_rate(results: Dict[int, RateResult]) -> float:
    """The offered rate at which the load score reaches LIMIT_MS,
    interpolated between the last rate that holds and the first that
    does not (from rate 0 at score 0); the top rate's achieved rate if
    every rate holds. Interpolating keeps the figure continuous when a
    rate near the limit flips between holding and not."""
    rate0, score0 = 0.0, 0.0
    for rate in RATES:
        score1 = results[rate].score_ms
        if score1 > LIMIT_MS:
            if math.isinf(score1):
                return rate0
            return rate0 + (rate - rate0) * (LIMIT_MS - score0) / (
                score1 - score0)
        rate0, score0 = rate, score1
    return results[RATES[-1]].achieved_per_s


def summarize(rate: float, blocks: List[List[Sample]]) -> RateResult:
    """One rate's figures over all its blocks: latency percentiles of the
    pooled samples; backlog growth and achieved rate averaged per block."""
    samples = [s for block in blocks for s in block]
    lat = [1000.0 * (s.done - s.due) for s in samples]
    late = [1000.0 * (s.sent - s.due) for s in samples]
    pct, tail_ms = tail(lat)
    growth, achieved = [], []
    for block in blocks:
        block_lat = [1000.0 * (s.done - s.due) for s in block]
        quarter = max(1, len(block) // 4)
        growth.append(median(block_lat[-quarter:])
                      - median(block_lat[:quarter]))
        span_s = max(s.done for s in block) - min(s.due for s in block)
        achieved.append(sum(s.error is None for s in block) / span_s)
    return RateResult(
        rate=rate, n=len(samples), p50_ms=median(lat), tail_pct=pct,
        tail_ms=tail_ms, achieved_per_s=statistics.fmean(achieved),
        late_tail_ms=tail(late)[1], growth_ms=statistics.fmean(growth),
        ok=all(s.error is None for s in samples),
    )


def in_process_reference(universe: Sequence) -> Dict[str, dict]:
    cache = GraphCache()
    return {cell.key(): result_to_json(cell, price_cell(cell, cache))
            for cell in universe}


def stats_delta(before: dict, after: dict) -> Dict[str, int]:
    names = ("warm_hits", "priced", "coalesced", "shed", "errors")
    return {name: after["service"][name] - before["service"][name]
            for name in names}


def check_stats(out: Outcome, delta: Dict[str, int]) -> None:
    for name in ("priced", "shed", "errors"):
        if delta[name]:
            out.fail(f"server {name} {delta[name]} while timing")


def schedule(seconds: float) -> List[Tuple[Optional[int], float]]:
    """(rate, block seconds) in run order, rate None for the one-client
    closed loop: rounds of about ROUND_S that each give every rate one
    BLOCK_S block (the reference rate two) and the closed loop the rest,
    so host drift hits all of them alike."""
    ladder = [(r, 2 * BLOCK_S if r == REFERENCE_RATE else BLOCK_S)
              for r in RATES]
    rounds = max(1, round(seconds / ROUND_S))
    closed_s = max(BLOCK_S, seconds / rounds - sum(s for _, s in ladder))
    return ([(None, closed_s)] + ladder) * rounds


def closed_figures(blocks: List[Tuple[List[Sample], List[list]]]
                   ) -> Dict[str, float]:
    """The one-client closed loop's figures over all its blocks: median
    and tail latency of the 1-cell requests, median latency per cell of
    the multi-cell ones, and the time per cell served over all requests,
    with sample counts."""
    pairs = [(s, cells) for samples, requests in blocks
             for s, cells in zip(samples, requests)]
    one = [1000.0 * (s.done - s.sent) for s, cells in pairs if len(cells) == 1]
    per_cell = [1000.0 * (s.done - s.sent) / len(cells)
                for s, cells in pairs if len(cells) > 1]
    pct, tail_ms = tail(one)
    busy_s = sum(s.done - s.sent for s, _ in pairs)
    return {"p50_ms_1cell": median(one), f"p{pct:g}_ms_1cell": tail_ms,
            "samples_1cell": len(one),
            "p50_ms_per_cell_multi": median(per_cell),
            "samples_multi": len(per_cell),
            "ms_per_cell": 1000.0 * busy_s / sum(len(c) for _, c in pairs),
            "cells": sum(len(c) for _, c in pairs)}


@on_one_cpu
def run(seed: int, seconds: float, size: Size = FULL) -> Outcome:
    universe = enumerate_cells(size.universe)
    reference = in_process_reference(universe)
    out = Outcome()
    setups: List[float] = []
    server = None
    cache_dir = None
    try:
        for _ in range(size.setup_trials):
            if server is not None:
                server.stop()
                remove_dir(cache_dir)
            server, cache_dir, setup_s = start_server(universe)
            setups.append(setup_s)
        client = ServingClient(port=server.port)
        before = client.stats()
        blocks: Dict[int, List[List[Sample]]] = {r: [] for r in RATES}
        closed: List[Tuple[List[Sample], List[list]]] = []
        for i, (rate, block_s) in enumerate(schedule(seconds)):
            if rate is None:
                requests = make_requests(
                    seed, universe, round(CLOSED_PER_S * block_s),
                    salt=f"closed:{i}")
                samples = closed_loop(server.port, requests, block_s)
                requests = requests[:len(samples)]
                closed.append((samples, requests))
            else:
                requests = make_requests(seed, universe,
                                         max(1, round(rate * block_s)),
                                         salt=f"{rate}:{i}")
                samples = drive(server.port, requests, rate)
                blocks[rate].append(samples)
            check_samples(out, requests, samples, reference)
        delta = stats_delta(before, client.stats())
        results = {r: summarize(r, b) for r, b in blocks.items()}
    finally:
        if server is not None:
            server.stop()
            remove_dir(cache_dir)
    peak_rss = children_peak_rss_mb()

    check_stats(out, delta)

    held = max_rate(results)
    saturation = statistics.fmean(
        results[r].achieved_per_s for r in OVERLOAD_RATES)
    ref = results[REFERENCE_RATE]
    unloaded = closed_figures(closed)
    out.metrics = {
        "setup_s": (median(setups), "s"),
        "peak_rss_mb": (peak_rss, "MiB"),
        "primary_ms": (unloaded["p50_ms_1cell"], "ms"),
        "secondary_ms": (unloaded["ms_per_cell"], "ms"),
        "throughput_per_s": (saturation, "1/s"),
    }
    out.report = {
        "universe_cells": len(universe),
        "cpus": sorted(os.sched_getaffinity(0)),
        "serve.closed": unloaded,
        "serve.p50_ms": ref.p50_ms,
        f"serve.p{ref.tail_pct:g}_ms": ref.tail_ms,
        "serve.tail_samples": ref.n,
        "serve.max_qps": held,
        "serve.saturation_qps": saturation,
        "latency_limit_ms": LIMIT_MS,
        "rates": {r: {**vars(res), "score_ms": res.score_ms}
                  for r, res in sorted(results.items())},
        "setup_s": setups,
        "stats_delta": delta,
    }
    return out


# -- traced profile -------------------------------------------------------------
@on_one_cpu
def profile(tracer, seed: int, seconds: float,
            size: Size = FULL) -> Tuple[dict, Outcome]:
    """Per-layer metrics of the serving layers.

    The server is another process, so the same request payloads are
    replayed in-process against the public ``serve.wire`` and
    ``serve.service`` functions; the HTTP round trip is timed by the
    client against the live server, untraced and then traced.
    """
    universe = enumerate_cells(size.universe)
    out = Outcome()
    requests = make_requests(seed, universe,
                             max(1, int(REFERENCE_RATE * seconds)),
                             salt="profile")
    server, cache_dir, _ = start_server(universe)
    try:
        client = ServingClient(port=server.port)
        before = client.stats()
        untraced = drive(server.port, requests, REFERENCE_RATE)
        tracer.wrap(ServingClient, "price_cells", "serve.client.request")
        tracer.wrap(http.client.HTTPConnection, "connect",
                    "serve.client.connect")
        try:
            with tracer.span("serve_warm.http"):
                traced = drive(server.port, requests, REFERENCE_RATE)
        finally:
            tracer.restore()
        delta = stats_delta(before, client.stats())
    finally:
        server.stop()
        remove_dir(cache_dir)
    reference = in_process_reference(universe)
    check_samples(out, requests, untraced, reference)
    check_samples(out, requests, traced, reference)
    check_stats(out, delta)

    session = SweepSession()
    for cell in universe:
        price_cell(cell, session.cache)
    service = CostService(session)
    loop = asyncio.new_event_loop()
    parts: List[Tuple[float, float, float, int, int]] = []
    try:
        with tracer.span("serve_warm.replay"):
            for cells in requests:
                payload = {"cells": [cell_to_json(c) for c in cells]}
                with tracer.span("serve.wire.decode") as dec:
                    decoded = cells_from_json(payload, cache=session.cache)
                with tracer.span("serve.service.price_cells") as look:
                    costs = loop.run_until_complete(
                        service.price_cells(decoded))
                with tracer.span("serve.wire.encode") as enc:
                    rows = [result_to_json(c, cost)
                            for c, cost in zip(decoded, costs)]
                    body = json.dumps({"results": rows,
                                       "count": len(rows)}).encode()
                if rows != [reference[c.key()] for c in cells]:
                    out.fail("in-process replay rows differ")
                parts.append((dec.duration_ns / 1e3, look.duration_ns / 1e3,
                              enc.duration_ns / 1e3, len(cells), len(body)))
    finally:
        loop.close()
        service.close()
        session.close()

    connects = len(tracer.named("serve.client.connect"))
    untraced_p50 = median([1000.0 * (s.done - s.due) for s in untraced])
    traced_p50 = median([1000.0 * (s.done - s.due) for s in traced])
    metrics = {
        "serve.wire.decode_us": (median([p[0] for p in parts]), "us"),
        "serve.wire.encode_us_per_cell": (
            median([p[2] / p[3] for p in parts]), "us"),
        "serve.wire.response_bytes_per_cell": (
            sum(p[4] for p in parts) / sum(p[3] for p in parts), "bytes"),
        "serve.service.warm_lookup_us": (median([p[1] for p in parts]), "us"),
        "serve.http.overhead_us": (median([
            1e6 * (s.done - s.sent) - (p[0] + p[1] + p[2])
            for s, p in zip(untraced, parts)]), "us"),
        "serve.client.connections_per_request": (
            connects / len(requests), "ratio"),
        "serve.gen_late_ms": (
            tail([1000.0 * (s.sent - s.due) for s in untraced])[1], "ms"),
        "trace.overhead.serve_p50_ms": (traced_p50 - untraced_p50, "ms"),
    }
    # The other /stats counters read 0 on a warm server (check_stats fails
    # the run if priced, shed or errors is not 0), so they stay in the report.
    metrics["serve.service.warm_hits"] = (delta["warm_hits"], "count")
    out.attempted += len(parts)
    out.report = {"requests": len(requests), "stats_delta": delta,
                  "p50_ms": {"untraced": untraced_p50, "traced": traced_p50}}
    return metrics, out
