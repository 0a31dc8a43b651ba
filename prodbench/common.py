"""Shared plumbing: the production configuration, paths, statistics and
the result record every workload returns."""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Scratch space for cache dirs and traces, inside the checkout (gitignored).
RUN_DIR = os.path.join(ROOT, ".prodbench_run")

# The benchmark measures the program in its own checkout, never an
# installed copy.
if SRC not in sys.path:
    sys.path.insert(0, SRC)

#: Test-only switches that must be off in production (tests/conftest.py
#: turns the first two on for the tier-1 session).
CHECK_SWITCHES = ("REPRO_VERIFY_GRAPHS", "REPRO_SANITIZE",
                  "REPRO_SANITIZE_ARTIFACT", "REPRO_FAULT_PLAN")


#: BLAS thread pools pinned to one thread, like the kernel layer's own
#: ``REPRO_KERNEL_THREADS`` default: on a small shared host, a second
#: spinning BLAS thread made step times swing with the neighbours' load.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                "MKL_NUM_THREADS": "1"}


def pin_production_env() -> None:
    """Clear the test-only switches and pin the BLAS thread count for this
    process and its children; call before numpy is imported."""
    for name in CHECK_SWITCHES:
        os.environ.pop(name, None)
    os.environ.update(BLAS_THREADS)


def child_env() -> Dict[str, str]:
    """Environment for a program subprocess: production config, this src."""
    env = {k: v for k, v in os.environ.items() if k not in CHECK_SWITCHES}
    env.update(BLAS_THREADS)
    env["PYTHONPATH"] = SRC
    return env


def production_config() -> Dict[str, Any]:
    """Check that the switches are off and describe the configuration."""
    import numpy

    from repro import config
    from repro.kernels.tune import detect_local_llc_bytes

    switches = {
        "REPRO_VERIFY_GRAPHS": config.verify_graphs_enabled(),
        "REPRO_SANITIZE": config.sanitize_enabled(),
        "REPRO_SANITIZE_ARTIFACT": config.sanitize_artifact_path(),
        "REPRO_FAULT_PLAN": os.environ.get(config.FAULT_PLAN_ENV),
    }
    on = [name for name, value in switches.items() if value]
    if on:
        raise RuntimeError(f"test-only switches still on: {on}")
    return {
        **switches,
        "REPRO_KERNEL_THREADS": config.kernel_threads(),
        **{name: os.environ.get(name) for name in BLAS_THREADS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "llc_bytes": detect_local_llc_bytes(),
        "git_sha": git_sha(),
    }


def git_sha() -> str | None:
    """HEAD of the checkout, read from ``.git`` without running git
    (a benchmark checkout usually has no ``.git`` at all)."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                sha, _, name = line.strip().partition(" ")
                if name == ref:
                    return sha
    except OSError:
        pass
    return None


def scratch_dir(prefix: str) -> str:
    os.makedirs(RUN_DIR, exist_ok=True)
    return tempfile.mkdtemp(prefix=prefix, dir=RUN_DIR)


def remove_dir(path: str) -> None:
    shutil.rmtree(path, ignore_errors=True)


def dir_bytes(path: str) -> int:
    total = 0
    for base, _, files in os.walk(path):
        for name in files:
            total += os.path.getsize(os.path.join(base, name))
    return total


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def children_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


# -- statistics ---------------------------------------------------------------
def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def tail(values: Sequence[float]) -> Tuple[float, float]:
    """(percentile, value): the highest of p99.9/p99/p98/p95/p90/p75/p50
    with at least ten samples beyond it, nearest-rank."""
    ordered = sorted(values)
    n = len(ordered)
    for pct in (99.9, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0):
        rank = math.ceil(pct / 100.0 * n)
        if n - rank >= 10:
            return pct, float(ordered[rank - 1])
    return 50.0, median(ordered)


# -- results ------------------------------------------------------------------
@dataclass
class Outcome:
    """What one workload run measured and whether its outputs were right.

    ``metrics`` maps name -> (value, unit); ``errors`` holds one message
    per failed operation or failed check; ``report`` is free-form detail
    printed before the result line.
    """

    metrics: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    report: Dict[str, Any] = field(default_factory=dict)

    def fail(self, message: str, count: int = 1) -> None:
        self.failed += count
        if len(self.errors) < 20:
            self.errors.append(message)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.errors

    def result_line(self) -> str:
        return json.dumps({
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in self.metrics.items()},
        })
