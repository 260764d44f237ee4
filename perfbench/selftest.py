"""Fast self-test of the benchmark at toy size.

    python3 perfbench/selftest.py

Checks that BENCHMARK.json declares exactly the workloads and metrics the
code produces, then runs every workload at toy size (mine to n=6, a
10-graph stream, the cubic graphs up to 8 vertices), untraced and traced,
and checks that each run prints a result with every declared metric and
its unit. Exits 1 and lists the problems when any check fails.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from layers import END_TO_END, LAYER_METRICS, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def declared_problems(bench: dict) -> list[str]:
    problems = []
    if [w["name"] for w in bench["workloads"]] != list(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from layers.WORKLOADS")
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    if e2e != END_TO_END:
        problems.append(f"end_to_end {e2e} differs from layers.END_TO_END")
    layers = [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]]
    if layers != [(n, u, b) for n, u, b, _ in LAYER_METRICS]:
        problems.append("per_layer differs from layers.LAYER_METRICS")
    return problems


def run_problems(bench: dict, workload: str, trace: int) -> list[str]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace),
           "--scale", "toy"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=170)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if result.get("correct") is not True or not result.get("attempted", 0) >= 1:
        problems.append(f"{where}: correct={result.get('correct')}, "
                        f"attempted={result.get('attempted')}")
    declared = bench["per_layer"] if trace else bench["end_to_end"]
    metrics = result.get("metrics", {})
    if set(metrics) != {m["name"] for m in declared}:
        problems.append(f"{where}: metrics {sorted(set(metrics) ^ {m['name'] for m in declared})} "
                        "are not both declared and produced")
    for m in declared:
        got = metrics.get(m["name"])
        if got is None:
            continue
        if got.get("unit") != m["unit"]:
            problems.append(f"{where}: {m['name']} unit {got.get('unit')}, declared {m['unit']}")
        value = got.get("value")
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            problems.append(f"{where}: {m['name']} value {value!r} is not a number")
        elif not trace and value == 0:
            problems.append(f"{where}: end-to-end metric {m['name']} is 0")
    return problems


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = declared_problems(bench)
    for workload in WORKLOADS:
        for trace in (0, 1):
            problems += run_problems(bench, workload, trace)
    for p in problems:
        print(p)
    print("selftest:", "FAILED" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
