"""Time the multi-target containment sweeps that perfbench has no workload for.

    python scripts/sweeps.py big     # one cache: 7 vertices x 8 targets,
                                     # then 8 vertices x 7 (all but 2P2)
    python scripts/sweeps.py cold    # a fresh cache: 5 to 7 vertices x 8

Each run imports the package from the src/ directory next to this
script, so a copy of the script in another checkout times that checkout.
The classes are generated before the clock starts.  Prints one JSON line:
the sweep's seconds, the process's peak RSS, the number of queries and a
digest of their verdicts in order, which must not change with the code.
"""

import hashlib
import json
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from pivotminors import (  # noqa: E402
    PivotMinorCache, contains_pivot_minor, generate_all_graphs, named_graph)

TARGETS = ["C3", "P4", "C4", "paw", "diamond", "2P2", "3P1", "claw"]
SWEEPS = {
    "big": [(7, TARGETS), (8, [t for t in TARGETS if t != "2P2"])],
    "cold": [(n, TARGETS) for n in (5, 6, 7)],
}


def main(name: str) -> None:
    plan = [(generate_all_graphs(n), list(map(named_graph, targets)))
            for n, targets in SWEEPS[name]]
    cache = PivotMinorCache()
    verdicts = []
    start = time.perf_counter()
    for level, targets in plan:
        for h in targets:
            verdicts.extend(contains_pivot_minor(g, h, cache=cache).value
                            for g in level)
    seconds = time.perf_counter() - start
    print(json.dumps({
        "sweep": name,
        "seconds": round(seconds, 3),
        "peak_rss_mb": round(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
        "queries": len(verdicts),
        "digest": hashlib.sha256(" ".join(verdicts).encode()).hexdigest()[:16],
    }))


if __name__ == "__main__":
    main(sys.argv[1])
