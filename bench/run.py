"""The specpoint benchmark: end-to-end metrics, or per-layer metrics from a
traced run, for one workload.

    python3 bench/run.py --workload closure|decompose|sieve --seed N \
        --seconds S --trace 0|1

Closed loop, one client: passes run one after another, each in a fresh
single-threaded process (BLAS pinned to one thread), so every pass meets
cold caches and its own peak memory, as a researcher's script does. All
passes of a run do the same work on the same inputs. Passes start until
the next one would end after --seconds. Before each pass, two processes
only set up, so that set-up time is a median of many samples spread over
the run.

--trace 0 reports wall_s, the timed section of a pass; setup_s,
interpreter start plus imports plus inputs; and peak_rss_mb. Each is the
median over the run's passes (setup_s over all of its processes).
--trace 1 pairs every untraced pass with a traced pass and reports the
per-layer calls, self-time shares and counts of the fastest traced pass, the
tracing overhead against its untraced twin, and the accuracy figures of
the run.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. Any pass that cannot run (no
src/ beside this directory, a crash, a timeout) ends the run with exit
code 1 and no result line.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import BLAS_VARS, SRC

WORKER = Path(__file__).resolve().parent / "worker.py"
WORKLOADS = ("closure", "decompose", "sieve")
# processes that only set up, started before each pass so that set-up
# samples spread over the whole run, as the passes do
SETUP_ONLY_PER_PASS = 2
# a pass still running this long after the run began is killed, so that the
# whole command ends within three minutes
RUN_DEADLINE_S = 170

UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# unit of a per-layer metric, by the last part of its name
LAYER_UNITS = {
    "calls": "count",
    "self_pct": "%",
    "points": "count",
    "evaluations": "count",
    "unconverged": "count",
    "table_bytes": "bytes",
    "nodes": "count",
    "tail_bar": "1",
    "skip_bar": "1",
    "c_eval": "count",
    "hit_ratio": "ratio",
    "spans": "count",
    "self_sum_s": "s",
    "wall_s": "s",
    "untraced_wall_s": "s",
    "overhead_s": "s",
    "unaccounted_s": "s",
    "residual": "1",
    "quad_err": "1",
    "bar_violations": "count",
}


class PassFailed(RuntimeError):
    pass


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def run_pass(workload: str, seed: int, traced: bool, setup_only: bool, deadline: float) -> dict:
    env = dict(os.environ, **{var: "1" for var in BLAS_VARS})
    cmd = [sys.executable, str(WORKER), workload, str(seed), str(int(traced)), str(int(setup_only))]
    started = monotonic()
    try:
        proc = subprocess.run(
            cmd, env=env, capture_output=True, text=True, timeout=max(deadline - started, 1.0)
        )
    except subprocess.TimeoutExpired as exc:
        raise PassFailed(f"a pass was still running {RUN_DEADLINE_S} s into the run") from exc
    if proc.returncode != 0:
        raise PassFailed(f"a pass exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    record["setup_s"] = record["t_ready"] - started
    return record


def accuracy(passes: list[dict]) -> dict:
    """Worst residual and quadrature bar of the run, and the number of
    distinct operations whose residual exceeded the bar they reported.
    A pass without results contributes nothing here: it is counted as
    failed and incorrect instead."""

    def worst(key: str) -> float:
        return max((p["accuracy"][key] for p in passes if p["accuracy"][key] is not None), default=0.0)

    violations = {v for p in passes for v in p["accuracy"]["violations"]}
    return {"residual": worst("residual"), "quad_err": worst("quad_err"), "bar_violations": len(violations)}


def layer_metrics(untraced: list[dict], traced: list[dict]) -> dict:
    """The fastest traced pass's layer figures, and the tracing overhead
    against the untraced pass that ran just before it."""
    i = min(range(len(traced)), key=lambda k: traced[k]["wall_s"])
    wall_s = traced[i]["wall_s"]
    out = {}
    for name, value in traced[i]["layers"].items():
        # self time as a share of the traced wall time: a layer a workload
        # never calls reads 0 there, which is a count of nothing, not a timing
        if name.endswith(".self_s"):
            out[name.removesuffix("self_s") + "self_pct"] = 100.0 * value / wall_s
        else:
            out[name] = value
    out["trace.wall_s"] = wall_s
    out["trace.untraced_wall_s"] = untraced[i]["wall_s"]
    out["trace.overhead_s"] = out["trace.wall_s"] - out["trace.untraced_wall_s"]
    out["trace.unaccounted_s"] = out["trace.wall_s"] - out["trace.self_sum_s"]
    out.update(accuracy(untraced))
    return out


def end_to_end_metrics(untraced: list[dict], setup_s: list[float]) -> dict:
    return {
        "wall_s": statistics.median(p["wall_s"] for p in untraced),
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in untraced),
    }


def unit_of(name: str) -> str:
    return UNITS.get(name) or LAYER_UNITS[name.rsplit(".", 1)[-1]]


def measure(workload: str, seed: int, seconds: float, trace: bool) -> tuple[list, list, list]:
    """(untraced passes, traced passes, set-up samples) of one run."""
    start = monotonic()
    deadline = start + RUN_DEADLINE_S
    setup_s, untraced, traced = [], [], []
    while True:
        unit_start = monotonic()
        setup_s += [
            run_pass(workload, seed, False, True, deadline)["setup_s"]
            for _ in range(SETUP_ONLY_PER_PASS)
        ]
        untraced.append(run_pass(workload, seed, False, False, deadline))
        if trace:
            traced.append(run_pass(workload, seed, True, False, deadline))
        now = monotonic()
        if (now - start) + (now - unit_start) > seconds:
            break
    setup_s += [p["setup_s"] for p in untraced + traced]
    return untraced, traced, setup_s


def provenance(workload: str, seed: int, passes: list[dict]) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        **passes[0]["versions"],
        "params": passes[0]["params"],
        "pass_wall_s": [p["wall_s"] for p in passes],
        "op_seconds": [{op["op"]: op["seconds"] for op in p["ops"]} for p in passes],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    if not (SRC / "specpoint").is_dir():
        print(f"no specpoint sources at {SRC}", file=sys.stderr)
        return 1
    try:
        untraced, traced, setup_s = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except PassFailed as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1

    passes = untraced + traced
    ops = [op for p in passes for op in p["ops"]]
    failed_ops = [op for op in ops if not op["ok"]]
    checks = [c for p in passes for c in p["checks"]]
    failed_checks = [c for c in checks if not c["ok"]]
    if args.trace:
        metrics = layer_metrics(untraced, traced)
    else:
        metrics = end_to_end_metrics(untraced, setup_s)

    print(json.dumps({"provenance": provenance(args.workload, args.seed, untraced)}))
    print(json.dumps({"accuracy": accuracy(untraced)}))
    for op in failed_ops:
        print(f"failed operation: {op['op']}: {op['error']}")
    for c in failed_checks:
        print(f"failed check: {c['check']} (value {c['value']})")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {unit_of(name)}")
    result = {
        "correct": not failed_checks,
        "attempted": len(ops),
        "failed": len(failed_ops),
        "metrics": {name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
