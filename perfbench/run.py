"""Benchmark of pivotminors: three workloads, end-to-end metrics and a
traced per-layer breakdown.

    python3 perfbench/run.py --workload mine-3p1 --seed 1 --seconds 30 --trace 0

Run it from the repository root; it imports the library from ./src.

Every pass runs in a fresh single-threaded interpreter (worker.py), so the
library's process-wide caches start cold. With --trace 0 the run first
starts the interpreter SETUP_SAMPLES times just to build the inputs, then
makes passes until the next one would end after --seconds (at least one),
and reports the end-to-end metrics of layers.END_TO_END, each the median
over the passes of that pass's figure; a pass's latency percentiles are
Harrell-Davis estimates over its operations. With --trace 1 it makes one untraced and one
traced pass and reports the per-layer metrics of layers.LAYER_METRICS
from the traced one.

The last line of stdout is the result; the line before it is the record:
seed, input sha256, platform, commit and every failed operation with its
exception type and message.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from layers import END_TO_END, LAYER_METRICS, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src" / "pivotminors"
SETUP_SAMPLES = 9
RUN_LIMIT_S = 170.0  # a run must end within 180 s
PASS_BUDGET_S = 150.0


class PassError(RuntimeError):
    pass


def _beta_cf(a: float, b: float, x: float) -> float:
    """Continued fraction of the incomplete beta function (modified Lentz)."""
    tiny = 1e-300
    c, d = 1.0, 1 - (a + b) * x / (a + 1)
    d = 1 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 10000):
        for aa in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                   -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1 + aa * d
            d = 1 / (d if abs(d) > tiny else tiny)
            c = 1 + aa / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1) < 1e-12:
            break
    return h


def _beta_cdf(x: float, a: float, b: float) -> float:
    if x <= 0 or x >= 1:
        return 0.0 if x <= 0 else 1.0
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log(1 - x))
    if x < (a + 1) / (a + b + 2):
        return front * _beta_cf(a, b, x) / a
    return 1 - front * _beta_cf(b, a, 1 - x) / b


def quantile(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: a weighted mean of all
    order statistics, so it moves less with the noise of one operation
    than the sample quantile does when a pass has few operations."""
    xs = sorted(values)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    cdf = [_beta_cdf(i / n, a, b) for i in range(n + 1)]
    return sum((cdf[i + 1] - cdf[i]) * x for i, x in enumerate(xs))


def spawn(args, mode: str, budget: float) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0")
    spawned_at = time.monotonic()
    cmd = [sys.executable, str(HERE / "worker.py"), args.workload,
           str(args.seed), args.scale, mode, repr(spawned_at), str(budget)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=budget + 20)
    except subprocess.TimeoutExpired:
        raise PassError(f"{mode} pass did not finish within {budget + 20:.0f} s")
    if proc.returncode != 0:
        raise PassError(f"{mode} pass exited with {proc.returncode}: "
                        f"{proc.stderr.strip()[-2000:]}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["duration_s"] = time.monotonic() - spawned_at
    if mode != "setup":
        latencies_ms = [1000 * x for x in out.pop("latencies_s")]
        out["operations"] = len(latencies_ms)
        out["p50_ms"] = quantile(latencies_ms, 0.5)
        out["p99_ms"] = quantile(latencies_ms, 0.99)
    return out


def environment() -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                text=True, timeout=30, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    source = hashlib.sha256()
    for path in sorted(SRC.glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "affinity_cores": len(os.sched_getaffinity(0)),
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
    }


def run(args) -> tuple[dict, dict]:
    t_run = time.monotonic()

    def budget() -> float:
        left = RUN_LIMIT_S - (time.monotonic() - t_run) - 20
        if left <= 1:
            raise PassError("no time left in the run for another pass")
        return min(PASS_BUDGET_S, left)

    setups = [] if args.trace else [spawn(args, "setup", 0)
                                    for _ in range(SETUP_SAMPLES)]
    t_passes = time.monotonic()
    passes = [spawn(args, "pass", budget())]
    while not args.trace and (time.monotonic() - t_passes
                              + passes[-1]["duration_s"] <= args.seconds):
        passes.append(spawn(args, "pass", budget()))
    traced = spawn(args, "traced", budget()) if args.trace else None

    every = passes + ([traced] if traced else [])
    digests = {p["inputs_sha256"] for p in every + setups}
    if len(digests) != 1:
        raise PassError("passes of one run built different inputs")
    attempted = sum(p["attempted"] for p in every)
    failed = sum(p["failed"] for p in every)
    if traced:
        layers = dict(traced["layers"],
                      **{"trace.overhead_s": traced["wall_s"] - passes[0]["wall_s"]})
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit, _, _ in LAYER_METRICS}
    else:
        values = {
            "setup_s": statistics.median(p["setup_s"] for p in setups + passes),
            "wall_s": statistics.median(p["wall_s"] for p in passes),
            "latency_p50_ms": statistics.median(p["p50_ms"] for p in passes),
            "latency_p99_ms": statistics.median(p["p99_ms"] for p in passes),
            "ok_ratio": (attempted - failed) / attempted,
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    result = {"correct": all(p["wrong"] == 0 for p in every),
              "attempted": attempted, "failed": failed, "metrics": metrics}
    record = {
        "workload": args.workload, "seed": args.seed, "scale": args.scale,
        "seconds": args.seconds, "traced": bool(args.trace),
        "inputs_sha256": digests.pop(), **environment(),
        "passes": [{key: p[key] for key in ("wall_s", "setup_s", "operations",
                                            "p50_ms", "p99_ms", "peak_rss_mb")}
                   for p in every],
        "failures": [f for p in every for f in p["failures"]],
    }
    return record, result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "toy"), default="full",
                        help="toy: tiny inputs, for the self-test")
    args = parser.parse_args()
    if not (SRC / "__init__.py").is_file():
        print(f"no library source at {SRC}", file=sys.stderr)
        return 2
    try:
        record, result = run(args)
    except PassError as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
