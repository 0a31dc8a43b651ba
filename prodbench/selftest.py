"""Fast tiny-size smoke of the benchmark itself.

    python3 prodbench/selftest.py

For each workload it checks that the reported metric names and units match
BENCHMARK.json (untraced and traced), that a deliberately perturbed result
trips the workload's correctness check (and that a served request that
raises counts as failed), and that every span's self time
lies between zero and its duration. Exits non-zero on the first failure.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402

common.pin_production_env()

import run  # noqa: E402
import serve_warm  # noqa: E402
import sweep_grid  # noqa: E402
import train_step  # noqa: E402
from spans import Tracer  # noqa: E402

from repro.sweep import PersistentCache  # noqa: E402
from repro.train import GraphExecutor  # noqa: E402

TINY = {"sweep_grid": sweep_grid.TINY, "serve_warm": serve_warm.TINY,
        "train_step": train_step.TINY}
SECONDS = 2.0


def check(condition: bool, what: str) -> None:
    if not condition:
        raise SystemExit(f"FAIL: {what}")
    print(f"ok   {what}", flush=True)


def result_of(workload: str, trace: int) -> dict:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = run.main(["--workload", workload, "--seed", "7",
                         "--seconds", str(SECONDS), "--trace", str(trace)],
                        sizes=TINY)
    check(code == 0, f"{workload} trace={trace} exits 0")
    return json.loads(buffer.getvalue().strip().splitlines()[-1])


def check_names(workload: str, trace: int) -> None:
    result = result_of(workload, trace)
    declared = run.declared_metrics(bool(trace))
    reported = {name: m["unit"] for name, m in result["metrics"].items()}
    check(reported == declared,
          f"{workload} trace={trace}: metric names and units match "
          f"BENCHMARK.json")
    check(result["correct"] and result["failed"] == 0
          and result["attempted"] >= 1,
          f"{workload} trace={trace}: correct, nothing failed")
    if trace:
        path = os.path.join(common.RUN_DIR, f"trace-{workload}-7.json")
        with open(path) as fh:
            events = json.load(fh)["traceEvents"]
        check(events and all(e["ph"] == "X" and e["dur"] >= 0
                             for e in events),
              f"{workload}: trace file holds complete events")


@contextlib.contextmanager
def patched(owner, attr, make):
    original = getattr(owner, attr)
    setattr(owner, attr, make(original))
    try:
        yield
    finally:
        setattr(owner, attr, original)


def perturbed_cost(cost):
    """The same cost with one node's forward time nudged by one ulp-ish."""
    import dataclasses

    node = cost.nodes[0]
    fwd = dataclasses.replace(node.fwd, compute_s=node.fwd.compute_s * (
        1 + 1e-12) + 1e-300)
    nodes = [dataclasses.replace(node, fwd=fwd)] + list(cost.nodes[1:])
    return dataclasses.replace(cost, nodes=nodes)


def check_perturbations() -> None:
    # A disk entry that loads but holds a different cost.
    def bad_load(original):
        def load(self, kind, key):
            obj = original(self, kind, key)
            return perturbed_cost(obj) if kind == "cost" and obj else obj
        return load

    with patched(PersistentCache, "load", bad_load):
        out = sweep_grid.run(7, 0.0, sweep_grid.TINY)
    check(not out.correct and out.failed > 0,
          "sweep_grid: a perturbed warm-disk cost is caught")

    # A response row that differs from the in-process result.
    def bad_rows(original):
        def price_cells(self, cells, retries=0):
            rows = original(self, cells, retries)
            if len(cells) == 1:
                rows[0]["metrics"]["total_time_s"] *= 1 + 1e-9
            return rows
        return price_cells

    with patched(serve_warm.ServingClient, "price_cells", bad_rows):
        out = serve_warm.run(7, SECONDS, serve_warm.TINY)
    check(not out.correct and out.failed > 0,
          "serve_warm: a perturbed response row is caught")

    # A reply the client cannot read (a 200 body without "results").
    def bad_reply(original):
        def price_cells(self, cells, retries=0):
            rows = original(self, cells, retries)
            if len(cells) == 1:
                raise KeyError("results")
            return rows
        return price_cells

    with patched(serve_warm.ServingClient, "price_cells", bad_reply):
        out = serve_warm.run(7, SECONDS, serve_warm.TINY)
    check(not out.correct and out.failed > 0,
          "serve_warm: a request that raises counts as failed")

    # A bnff_icf loss that drifts from baseline's at step 0 (the second
    # forward call of a run is bnff_icf's first).
    def bad_forward(original):
        calls = []

        def forward(self, images, labels):
            calls.append(1)
            loss = original(self, images, labels)
            return loss * (1 + 1e-3) if len(calls) == 2 else loss
        return forward

    with patched(GraphExecutor, "forward", bad_forward):
        out = train_step.run(7, 0.0, train_step.TINY)
    check(not out.correct and out.failed > 0,
          "train_step: a perturbed step-0 loss is caught")


def check_self_times() -> None:
    tracer = Tracer()
    for profile in (lambda: sweep_grid.profile(tracer, 7, sweep_grid.TINY),
                    lambda: serve_warm.profile(tracer, 7, 1.0,
                                               serve_warm.TINY),
                    lambda: train_step.profile(tracer, 7, train_step.TINY)):
        profile()
    self_ns = tracer.self_ns()
    check(tracer.spans and all(0 <= self_ns[sp.id] <= sp.duration_ns
                               for sp in tracer.spans),
          f"every span's self time is within [0, duration] "
          f"({len(tracer.spans)} spans)")


def main() -> int:
    for workload in run.WORKLOADS:
        check_names(workload, 0)
    check_names(run.WORKLOADS[0], 1)
    check_perturbations()
    check_self_times()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
