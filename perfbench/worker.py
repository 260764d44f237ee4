"""One benchmark pass in a fresh single-threaded interpreter.

run.py starts this script once per pass, so every pass begins with the
library's process-wide caches cold, as a command-line user's run does:

    python3 perfbench/worker.py WORKLOAD SEED SCALE MODE SPAWNED_AT BUDGET_S

MODE is `setup` (build the inputs and stop), `pass` or `traced`.
SPAWNED_AT is time.monotonic() in the parent just before the start, so
setup_s runs from the interpreter's start until the inputs are built.
BUDGET_S bounds the whole timed phase: operations that would start after
it are failed without running. Each operation also has its own deadline,
enforced in this process with signal.setitimer, so a slow operation fails
and the pass goes on.

Prints one JSON object on stdout.
"""

from __future__ import annotations

import hashlib
import json
import resource
import signal
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


class Deadline(BaseException):
    """Raised by SIGALRM; a BaseException, so library code cannot catch it."""


def _alarm(signum, frame):
    raise Deadline


def main(argv: list[str]) -> None:
    workload, seed, scale, mode, spawned_at, budget = argv
    import pivotminors

    from workloads import WORKLOADS

    if not Path(pivotminors.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"pivotminors imported from {pivotminors.__file__}")
    wl = WORKLOADS[workload](int(seed), scale == "toy")
    setup_s = time.monotonic() - float(spawned_at)
    digest = hashlib.sha256("\n".join(wl.inputs).encode()).hexdigest()
    if mode == "setup":
        print(json.dumps({"setup_s": setup_s, "inputs_sha256": digest}))
        return

    tracer = None
    if mode == "traced":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    signal.signal(signal.SIGALRM, _alarm)
    outcomes: list[object] = []
    latencies: list[float] = []
    failures: list[dict] = []

    def fail(i: int, kind: str, error: str, message: str) -> None:
        failures.append({"op": i, "label": wl.ops[i].label, "kind": kind,
                         "error": error, "message": message[:300]})

    t_start = time.perf_counter()
    give_up = t_start + float(budget)
    for i, op in enumerate(wl.ops):
        left = give_up - time.perf_counter()
        if left <= 0:
            outcomes.append(None)
            fail(i, "skipped", "PassBudget", f"the pass ran out of its {budget} s")
            continue
        t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, min(op.deadline_s, left))
        try:
            out = op.run()
        except Deadline:
            out = None
            fail(i, "deadline", "Deadline", f"no result within {min(op.deadline_s, left):.1f} s")
        except Exception as exc:
            out = None
            fail(i, "exception", type(exc).__name__, str(exc))
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        latencies.append(time.perf_counter() - t0)
        outcomes.append(out)
    wall_s = time.perf_counter() - t_start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    layers = None
    if tracer is not None:
        tracer.uninstall()
        layers = tracer.metrics()

    # output checks, outside the timed phase
    wrong = 0
    for i, (op, out) in enumerate(zip(wl.ops, outcomes)):
        if out is None:
            continue
        msg = op.check(out)
        if msg is not None:
            wrong += 1
            outcomes[i] = None
            fail(i, "check", "WrongOutput", msg)
    for i, msg in wl.post_check(outcomes):
        wrong += 1
        fail(i, "check", "WrongOutput", msg)

    print(json.dumps({
        "setup_s": setup_s,
        "wall_s": wall_s,
        "latencies_s": latencies,
        "attempted": len(wl.ops),
        "failed": len({f["op"] for f in failures}),
        "wrong": wrong,
        "failures": failures,
        "peak_rss_mb": peak_rss_mb,
        "inputs_sha256": digest,
        "layers": layers,
    }))


if __name__ == "__main__":
    main(sys.argv[1:])
