"""Run one workload in a fresh interpreter: warm up, time operations, optionally trace.

Started by run.py from the root of a checkout, with PYTHONPATH naming that
checkout's src/.  One client drives the program in a closed loop: the next
operation starts when the previous one has returned.  Operations run in
blocks of at least BLOCK_S seconds with the calibration kernel timed after
each block, until the next operation would end past the time budget; at
least one runs.  Peak memory is read after the first operation, before the
first calibration, so that it is the program's alone.  With
tracing on, the budget is split: the first half runs untraced, then the
tracer is installed and the second half runs traced.  The result goes to
--result as JSON; run.py checks the outputs and prints the metrics.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
from time import perf_counter

import calibrate
import workloads
from tracer import COUNTS, Tracer

CONFIG_LOADS = 5        # config loads timed in the traced run
SIMULATE_WARMUP_M = 10_000
SWEEP_WARMUP_TAU_GRID = "--tau-grid=-0.5:0.5:5"
BLOCK_S = 2.0           # least operation time between two calibrations


class CliOp:
    """One ``screenlab.cli.main`` call; its outcome is the hashes of what it wrote."""

    def __init__(self, argv: list[str], out_dir: str):
        self.argv = argv
        self.out_dir = out_dir

    def call(self) -> tuple[bool, str | None]:
        from screenlab import cli

        status = cli.main(self.argv)
        return status == 0, None if status == 0 else f"exit status {status}"

    def outcome(self) -> dict:
        return {"hashes": workloads.hash_artifacts(self.out_dir)}


class TauBarOp:
    """One Monte Carlo ``find_tau_bar``; its outcome is the root and its SE."""

    def __init__(self, config, m: int, seed: int):
        self.config = config
        self.m = m
        self.seed = seed
        self.result = None

    def call(self) -> tuple[bool, str | None]:
        import screenlab

        self.result = None
        try:
            self.result = screenlab.find_tau_bar(self.config, "mc", m=self.m, seed=self.seed)
        except screenlab.ScreeningError as exc:
            return False, f"{type(exc).__name__}: {exc}"
        return True, None

    def outcome(self) -> dict:
        if self.result is None:
            return {}
        return {"value": self.result.value, "standard_error": self.result.standard_error}


def build_ops(inputs: dict, work_dir: str, config):
    """(warm-up operation, timed operation) for a workload's inputs."""
    workload = inputs["workload"]
    out = os.path.join(work_dir, "out")
    if workload == "sweep-baseline":
        def sweep(thetas, out_dir, *extra):
            listed = ",".join(repr(t) for t in thetas)
            return CliOp(["sweep", "--config", workloads.CONFIG, "--out", out_dir,
                          f"--theta={listed}", *extra], out_dir)
        # the warm-up runs every code path of the sweep on one theta and a
        # short tau grid instead of paying for a full operation
        return (sweep(inputs["thetas"][:1], os.path.join(work_dir, "warmup"),
                      SWEEP_WARMUP_TAU_GRID),
                sweep(inputs["thetas"], out))
    if workload == "simulate-1m":
        def simulate(m, out_dir):
            return CliOp(["simulate", "--config", workloads.CONFIG, "--out", out_dir,
                          "--m", str(m), f"--tau={inputs['tau']!r}",
                          "--seed", str(inputs["sim_seed"])], out_dir)
        # the warm-up loads the same code paths without a full 1e6-row pass
        return (simulate(SIMULATE_WARMUP_M, os.path.join(work_dir, "warmup")),
                simulate(inputs["m"], out))
    op = TauBarOp(config, inputs["m"], inputs["mc_seed"])
    return op, op


def run_phase(op, budget: float, phase: str, tracer: Tracer | None = None) -> list[dict]:
    """Operations in a closed loop.  Each record carries the mean of the
    calibration times on either side of its block (the first block has one,
    after it) and the peak resident memory when it returned."""
    records = []
    started = perf_counter()
    before, block = None, []
    while True:
        first_span = len(tracer) if tracer else 0
        t0 = perf_counter()
        ok, error = op.call()
        wall = perf_counter() - t0
        record = {"phase": phase, "wall_s": wall, "ok": ok, "error": error,
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
        if tracer:
            record["spans"] = [first_span, len(tracer)]
        record.update(op.outcome())
        records.append(record)
        block.append(record)
        done = perf_counter() - started + wall + (before or 0.0) > budget
        if done or sum(r["wall_s"] for r in block) >= BLOCK_S:
            after = calibrate.kernel_s()
            for r in block:
                r["calibration_s"] = after if before is None else (before + after) / 2
            before, block = after, []
        if done:
            return records


def layer_metrics(tracer: Tracer, plain: list[dict], traced: list[dict],
                  config_loads: tuple[int, int]) -> tuple[dict, dict]:
    """Per-layer metrics: exact counts from the first traced operation, times as medians."""
    per_op = [tracer.op_metrics(*record["spans"]) for record in traced]
    metrics = {}
    for key in per_op[0][0]:
        values = [m[key] for m, _ in per_op]
        metrics[key] = values[0] if key in COUNTS else statistics.median(values)
    metrics["model.config_load_s"] = statistics.median(
        tracer.durations("model.ModelConfig.from_json_path", *config_loads)
    )
    metrics["trace.overhead_frac"] = (
        statistics.median(r["wall_s"] for r in traced)
        / statistics.median(r["wall_s"] for r in plain) - 1.0
    )
    return metrics, per_op[0][1]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--inputs", required=True, help="workload inputs as JSON")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", required=True, help="directory for artifacts")
    parser.add_argument("--result", required=True, help="path of the result JSON")
    args = parser.parse_args()
    inputs = json.loads(args.inputs)

    import screenlab

    expected = os.path.realpath(os.path.join("src", "screenlab"))
    found = os.path.dirname(os.path.realpath(screenlab.__file__))
    if found != expected:
        print(f"error: imported screenlab from {found}, expected {expected}", file=sys.stderr)
        return 2

    config = screenlab.ModelConfig.from_json_path(workloads.CONFIG)
    warmup, op = build_ops(inputs, args.work, config)
    warmup.call()
    budget = args.seconds / 2 if args.trace else args.seconds
    plain = run_phase(op, budget, "plain")
    result = {"ops": plain}
    if args.trace:
        tracer = Tracer()
        tracer.install()
        for _ in range(CONFIG_LOADS):
            screenlab.ModelConfig.from_json_path(workloads.CONFIG)
        config_loads = (0, len(tracer))
        traced = run_phase(op, budget, "traced", tracer)
        result["ops"] = plain + traced
        result["layers"], result["functions"] = layer_metrics(
            tracer, plain, traced, config_loads
        )
    else:
        result["peak_rss_mb"] = plain[0]["peak_rss_mb"]
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
