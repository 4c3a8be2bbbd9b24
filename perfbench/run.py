"""Benchmark command for specmesh.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Each workload runs in a child process of its own, one at a time, with the
BLAS thread count fixed in the child's environment. With ``--trace 0`` the
last line of output is a JSON object holding every end-to-end metric of
``BENCHMARK.json``; with ``--trace 1`` it holds every per-layer metric, taken
from a traced child. A traced run starts that child twice with the same seed
and requires the exact counts (units ``count`` and ``MB``) to agree, and the
traced self times to cover at least nine tenths of the timed ops' time.

``--workload all`` runs every workload untraced and then traced, and ends
with a summary of the end-to-end metrics, their bounds, and the tracing
overhead of each workload.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = ROOT / "BENCHMARK.json"
WORKLOADS = ("train_full", "train_toy", "infer_full", "refine_pairs")
BLAS_THREADS = 1  # two threads on two cores spin the second one; see README.md
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
RUN_LIMIT_S = 170.0  # every child of one command ends within this
MIN_ATTRIBUTED = 0.9  # traced self times must cover this share of the ops' time
EXACT_UNITS = ("count", "MB")


class BenchError(Exception):
    """The benchmark could not produce a result."""


def child_env() -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = str(BLAS_THREADS)
    paths = [str(ROOT / "src"), str(HERE)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(workload: str, seed: int, seconds: float, trace: bool, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "workloads.py"), workload, str(seed), str(seconds),
           "1" if trace else "0"]
    try:
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, stdout=subprocess.PIPE,
                              timeout=max(deadline - time.monotonic(), 1.0), check=False)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} did not finish in time") from exc
    lines = proc.stdout.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} child exited with code {proc.returncode}")
    return json.loads(lines[-1])


def measure(spec: dict, workload: str, seed: int, seconds: float, trace: bool,
            deadline: float) -> dict:
    """One benchmark result in the output format, plus the child's context."""
    if trace:
        first = run_child(workload, seed, seconds, True, deadline)
        second = run_child(workload, seed, seconds, True, deadline)
        listed = spec["per_layer"]
        layers = first["layers"]
        mismatched = [m["name"] for m in listed if m["unit"] in EXACT_UNITS
                      and layers.get(m["name"], 0) != second["layers"].get(m["name"], 0)]
        attributed = min(first["layers"]["trace.attributed_share"],
                         second["layers"]["trace.attributed_share"])
        checks_ok = not mismatched and attributed >= MIN_ATTRIBUTED
        child = first
        child["context"]["trace_count_mismatch"] = mismatched
        child["context"]["trace_min_attributed_share"] = attributed
    else:
        child = run_child(workload, seed, seconds, False, deadline)
        listed = spec["end_to_end"]
        layers = child["metrics"]
        checks_ok = True
        missing = [m["name"] for m in listed if m["name"] not in layers]
        if missing:
            raise BenchError(f"{workload} did not report {missing}")
    return {
        "correct": checks_ok and child["failed"] == 0,
        "attempted": child["attempted"],
        "failed": child["failed"],
        "metrics": {m["name"]: {"value": float(layers.get(m["name"], 0.0)), "unit": m["unit"]}
                    for m in listed},
        "context": {**child["context"], "failures": child["failures"]},
    }


def describe(spec: dict, workload: str, result: dict, trace: bool):
    """Human-readable lines: context, then each metric with unit and bound."""
    print(f"workload {workload} trace {int(trace)} correct {result['correct']} "
          f"attempted {result['attempted']} failed {result['failed']}")
    for key, value in result["context"].items():
        print(f"  {key}: {value}")
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    for name, metric in result["metrics"].items():
        extra = ""
        if name in bounds:
            extra = f"  bound {bounds[name]['bound']} ({bounds[name]['better']} is better)"
        print(f"  {name:44s} {metric['value']:.6g} {metric['unit']}{extra}")


def run_all(spec: dict, seed: int, seconds: float) -> int:
    summary = {}
    for workload in WORKLOADS:
        plain = measure(spec, workload, seed, seconds, False, time.monotonic() + RUN_LIMIT_S)
        describe(spec, workload, plain, False)
        traced = measure(spec, workload, seed, seconds, True, time.monotonic() + RUN_LIMIT_S)
        describe(spec, workload, traced, True)
        untraced_rate = plain["metrics"]["ops_per_s"]["value"]
        traced_rate = traced["metrics"]["trace.ops_per_s"]["value"]
        summary[workload] = {
            "correct": plain["correct"] and traced["correct"],
            "metrics": plain["metrics"],
            "tracing_overhead_share": 1.0 - traced_rate / untraced_rate,
        }
    print("summary (end-to-end metrics; bound = allowed worsening as a share of the parent)")
    for workload, row in summary.items():
        cells = ", ".join(f"{name} {m['value']:.4g} {m['unit']}"
                          for name, m in row["metrics"].items())
        print(f"  {workload}: {cells}; tracing overhead "
              f"{100 * row['tracing_overhead_share']:.1f}%; correct {row['correct']}")
    print(json.dumps({"correct": all(r["correct"] for r in summary.values()),
                      "workloads": summary}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "specmesh").is_dir():
        print(f"no specmesh sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    try:
        if args.workload == "all":
            return run_all(spec, args.seed, args.seconds)
        deadline = time.monotonic() + RUN_LIMIT_S
        result = measure(spec, args.workload, args.seed, args.seconds, bool(args.trace),
                         deadline)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    describe(spec, args.workload, result, bool(args.trace))
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
