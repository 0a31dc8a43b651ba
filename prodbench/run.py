"""Production-configuration benchmark of the whole system.

    python3 prodbench/run.py --workload sweep_grid --seed 1 --seconds 20 --trace 0

Runs one workload (``sweep_grid``, ``serve_warm`` or ``train_step``) with
the test-only switches off, checks every output against an independent
in-process reference, prints a detail report and then, as the last line,
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics of the workload. ``--trace 1``
is the separate traced run: it profiles every layer (the sweep, serving and
training pipelines, with spans recorded from this directory's files only),
reports the per-layer metrics and tracing overhead, and writes a Chrome
trace-event file that Perfetto opens. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402

WORKLOADS = ("sweep_grid", "serve_warm", "train_step")


def declared_metrics(trace: bool) -> dict:
    """name -> unit of the metrics BENCHMARK.json declares for this mode."""
    with open(os.path.join(common.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def traced_profile(seed: int, seconds: float, sizes: dict, trace_path: str
                   ) -> common.Outcome:
    """Every layer's per-layer metrics from one traced pass over all three
    pipelines; the spans are written to *trace_path*."""
    from spans import Tracer

    import serve_warm
    import sweep_grid
    import train_step

    tracer = Tracer()
    total = common.Outcome()
    parts = [
        ("sweep_grid", lambda: sweep_grid.profile(
            tracer, seed, sizes["sweep_grid"])),
        ("serve_warm", lambda: serve_warm.profile(
            tracer, seed, max(1.0, seconds / 4), sizes["serve_warm"])),
        ("train_step", lambda: train_step.profile(
            tracer, seed, sizes["train_step"])),
    ]
    for name, profile in parts:
        metrics, outcome = profile()
        total.metrics.update(metrics)
        total.attempted += outcome.attempted
        total.failed += outcome.failed
        total.errors += [f"{name}: {e}" for e in outcome.errors]
        total.report[name] = outcome.report
    tracer.write_chrome(trace_path)
    total.report["trace_file"] = os.path.relpath(trace_path, common.ROOT)
    total.report["spans"] = len(tracer.spans)
    return total


def main(argv=None, sizes: dict | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(common.SRC, "repro")):
        print(f"error: no program source at {common.SRC}", file=sys.stderr)
        return 2
    common.pin_production_env()
    config = common.production_config()
    sizes = sizes or {}
    sizes = {name: sizes.get(name) or importlib.import_module(name).FULL
             for name in WORKLOADS}

    if args.trace:
        trace_path = os.path.join(
            common.RUN_DIR, f"trace-{args.workload}-{args.seed}.json")
        outcome = traced_profile(args.seed, args.seconds, sizes, trace_path)
    else:
        module = importlib.import_module(args.workload)
        outcome = module.run(args.seed, args.seconds, sizes[args.workload])

    declared = declared_metrics(bool(args.trace))
    reported = {name: unit for name, (_, unit) in outcome.metrics.items()}
    if reported != declared:
        raise RuntimeError(
            f"metrics differ from BENCHMARK.json: reported only "
            f"{sorted(set(reported.items()) - set(declared.items()))}, "
            f"declared only "
            f"{sorted(set(declared.items()) - set(reported.items()))}")

    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "config": config,
        "failed_share": outcome.failed / max(outcome.attempted, 1),
        "errors": outcome.errors,
        "report": outcome.report,
    }, indent=1, default=str))
    print(outcome.result_line(), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
