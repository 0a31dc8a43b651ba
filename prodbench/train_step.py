"""train_step: seeded SGD steps through ``train.Trainer``/``GraphExecutor``
on the baseline and bnff_icf graphs of one tiny model, same batches for
both.

``kernels``, ``nn`` and ``train`` do all the work; ``sweep``/``serve`` do
none. Baseline reaches the kernels through ``BatchNorm2d`` and the blocked
kernels, bnff_icf through the fused kernels.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from common import Outcome, median, self_peak_rss_mb
from repro.config import FUSED_EQUIV_RTOL
from repro.kernels import blocked
from repro.kernels.tune import local_hardware_spec
from repro.models.registry import build_model
from repro.passes.scenarios import apply_scenario
from repro.perf.simulator import simulate
from repro.train import SGD, GraphExecutor, SyntheticClassification, Trainer
from repro.train import executor as train_executor

SCENARIOS = ("baseline", "bnff_icf")


@dataclass(frozen=True)
class Size:
    model: str
    batch: int
    image: Tuple[int, int, int]
    growth: int
    setup_trials: int
    min_steps: int
    profile_steps: int


#: BN inputs from 0.12 to 2 MiB (the stem's is the largest).
FULL = Size("tiny_densenet", batch=32, image=(3, 64, 64), growth=8,
            setup_trials=25, min_steps=5, profile_steps=5)
TINY = Size("tiny_densenet", batch=4, image=(3, 16, 16), growth=4,
            setup_trials=1, min_steps=2, profile_steps=3)


def build(size: Size, seed: int) -> Tuple[Dict[str, Trainer], dict, float]:
    """Graphs, executors and trainers for both scenarios, timed (set-up)."""
    t0 = time.perf_counter()
    base = build_model(size.model, batch=size.batch, image=size.image,
                       growth=size.growth)
    dataset = SyntheticClassification(image=size.image, seed=seed)
    graphs, trainers = {}, {}
    for scenario in SCENARIOS:
        graphs[scenario], _ = apply_scenario(base, scenario)
        trainers[scenario] = Trainer(GraphExecutor(graphs[scenario], seed=seed),
                                     dataset)
    return trainers, graphs, time.perf_counter() - t0


def step(trainer: Trainer, images, labels) -> Tuple[float, float, float]:
    """One forward+backward+update; (wall seconds, loss, grad norm)."""
    ex = trainer.executor
    t0 = time.perf_counter()
    ex.zero_grad()
    loss = ex.forward(images, labels)
    ex.backward()
    trainer.optimizer.step()
    wall = time.perf_counter() - t0
    grad_norm = math.sqrt(sum(float((p.grad ** 2).sum())
                              for p in ex.parameters() if p.grad is not None))
    return wall, loss, grad_norm


class Steps:
    """Alternating steps of both scenarios on the same seeded batches."""

    def __init__(self, trainers: Dict[str, Trainer], size: Size, seed: int):
        self.trainers = trainers
        self.size = size
        self.rng = random.Random(f"train_step:{seed}")
        self.walls: Dict[str, List[float]] = {s: [] for s in SCENARIOS}
        self.losses: Dict[str, List[float]] = {s: [] for s in SCENARIOS}
        self.count = 0

    def run_one(self, out: Outcome, tracer=None) -> None:
        batch_seed = self.rng.getrandbits(31)
        images, labels = self.trainers[SCENARIOS[0]].dataset.batch(
            self.size.batch, seed=batch_seed)
        # Alternate which scenario goes first, so drift hits both alike.
        order = SCENARIOS if self.count % 2 == 0 else SCENARIOS[::-1]
        for scenario in order:
            out.attempted += 1
            if tracer is None:
                wall, loss, norm = step(self.trainers[scenario], images,
                                        labels)
            else:
                with tracer.span("train.step", scenario=scenario):
                    wall, loss, norm = step(self.trainers[scenario], images,
                                            labels)
            if not (math.isfinite(loss) and math.isfinite(norm)):
                out.fail(f"{scenario} step {self.count}: loss {loss}, "
                         f"grad norm {norm}")
            self.walls[scenario].append(wall)
            self.losses[scenario].append(loss)
        self.count += 1

    def timed(self, scenario: str) -> List[float]:
        """Step walls past the first, which warms scratch pools and the
        kernel tuning cache."""
        return self.walls[scenario][1:]

    def check_equivalence(self, out: Outcome) -> None:
        """bnff_icf's step-0 loss must match baseline's."""
        base, fused = (self.losses[s][0] for s in SCENARIOS)
        if not abs(fused - base) <= FUSED_EQUIV_RTOL * abs(base):
            out.fail(f"step-0 loss: bnff_icf {fused!r} vs baseline {base!r}")


def predicted_ratio(graphs: dict) -> float:
    """Simulated baseline / bnff_icf iteration time on this host's spec."""
    hw = local_hardware_spec()
    times = {s: simulate(graphs[s], hw, scenario=s).total_time_s
             for s in SCENARIOS}
    return times["baseline"] / times["bnff_icf"]


def run(seed: int, seconds: float, size: Size = FULL) -> Outcome:
    out = Outcome()
    setups = []
    for _ in range(size.setup_trials):
        trainers, graphs, setup_s = build(size, seed)
        setups.append(setup_s)
    steps = Steps(trainers, size, seed)
    deadline = time.perf_counter() + seconds
    while steps.count < size.min_steps or time.perf_counter() < deadline:
        steps.run_one(out)
    steps.check_equivalence(out)
    peak_rss = self_peak_rss_mb()

    base = median(steps.timed("baseline"))
    fused = median(steps.timed("bnff_icf"))
    images = size.batch * 2 * (steps.count - 1)
    out.metrics = {
        "setup_s": (median(setups), "s"),
        "peak_rss_mb": (peak_rss, "MiB"),
        "primary_ms": (1000.0 * base, "ms"),
        "secondary_ms": (1000.0 * fused, "ms"),
        "throughput_per_s": (
            images / sum(sum(steps.timed(s)) for s in SCENARIOS), "1/s"),
    }
    out.report = {
        "steps_per_scenario": steps.count,
        "train.step_ms.baseline": 1000.0 * base,
        "train.step_ms.bnff_icf": 1000.0 * fused,
        "train.measured_ratio": base / fused,
        "train.predicted_ratio": predicted_ratio(graphs),
        "setup_s": setups,
        "losses": {s: steps.losses[s][:3] for s in SCENARIOS},
    }
    return out


# -- traced profile -------------------------------------------------------------
#: Kernel op -> the functions that implement it, as their callers import
#: them: ``train.executor`` at module level, ``BatchNorm2d`` from
#: ``repro.kernels.blocked`` at call time.
KERNELS = {
    "stats": [(train_executor, "onepass_stats"),
              (train_executor, "twopass_stats")],
    "normalize": [(blocked, "blocked_normalize_apply")],
    "bn_relu_conv": [(train_executor, "bn_relu_conv_forward"),
                     (train_executor, "bn_relu_conv_backward")],
    "grad_transform": [(train_executor, "bn_input_grad_transform")],
}


def array_bytes(args, kwargs, result) -> Dict[str, int]:
    """Bytes computed from tensor sizes: every array argument counted as
    read once, every array returned as written once."""
    values = list(args) + list(kwargs.values())
    values += list(result) if isinstance(result, tuple) else [result]
    return {"bytes": sum(v.nbytes for v in values
                         if isinstance(v, np.ndarray))}


def profile(tracer, seed: int, size: Size = FULL) -> Tuple[dict, Outcome]:
    out = Outcome()
    trainers, graphs, _ = build(size, seed)
    steps = Steps(trainers, size, seed)
    for _ in range(size.profile_steps):
        steps.run_one(out)
    untraced = {s: median(steps.timed(s)) for s in SCENARIOS}
    for op, targets in KERNELS.items():
        for owner, attr in targets:
            tracer.wrap(owner, attr, f"kernels.{op}", array_bytes)
    tracer.wrap(GraphExecutor, "forward", "train.forward")
    tracer.wrap(GraphExecutor, "backward", "train.backward")
    tracer.wrap(SGD, "step", "train.optimizer")
    traced_steps = Steps(trainers, size, seed)
    try:
        with tracer.span("train_step.traced") as root:
            for _ in range(size.profile_steps):
                traced_steps.run_one(out, tracer)
    finally:
        tracer.restore()
    steps.check_equivalence(out)

    self_ns = tracer.self_ns()
    spans = [sp for sp in tracer.spans if sp.id >= root.id]
    metrics: Dict[str, Tuple[float, str]] = {}
    for op in KERNELS:
        group = [sp for sp in spans if sp.name == f"kernels.{op}"]
        total_ns = sum(sp.duration_ns for sp in group)
        metrics[f"kernels.{op}.ms"] = (
            sum(self_ns[sp.id] for sp in group) / 1e6 / traced_steps.count,
            "ms")
        metrics[f"kernels.{op}.GBps"] = (
            sum(sp.attrs["bytes"] for sp in group) / max(total_ns, 1),
            "GB/s")
    for stage in ("forward", "backward", "optimizer"):
        for scenario in SCENARIOS:
            group = [sp for sp in spans if sp.name == f"train.{stage}"
                     and tracer.ancestor_attr(sp, "scenario") == scenario]
            # Whole-stage time, so the stages add up to the step; the
            # kernels' own share is in the kernels.* self times.
            metrics[f"train.{stage}_ms.{scenario}"] = (
                median([sp.duration_ns / 1e6 for sp in group]), "ms")
    traced = {s: median(traced_steps.timed(s)) for s in SCENARIOS}
    metrics["train.measured_ratio"] = (
        untraced["baseline"] / untraced["bnff_icf"], "ratio")
    metrics["train.predicted_ratio"] = (predicted_ratio(graphs), "ratio")
    metrics["trace.overhead.train_step_ms"] = (
        1000.0 * (sum(traced.values()) - sum(untraced.values())) / 2, "ms")
    out.report = {"step_ms": {
        name: {s: 1000.0 * t for s, t in times.items()}
        for name, times in (("untraced", untraced), ("traced", traced))}}
    return metrics, out
