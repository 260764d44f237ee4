"""The per-layer metrics of the traced pass and what each should move.

Each entry is (name, unit, better, moves): `moves` names the end-to-end
metric and the workload that a change in this layer metric should show up
in. BENCHMARK.json lists the same names, units and directions; the
self-test checks that the two agree.

Counts and times come from spans recorded around calls into each module's
public functions (see tracer.py); a layer's self time is its span time
minus the time of the traced calls it made. The derived metrics:

- canon.key_cache.hit_ratio: 1 - canonical_form calls / canonical_key calls.
- canon.canonical_form.max_n: the largest graph passed to canonical_form,
  refused ones included; matroids.fundamental_graph.max_n: the largest
  fundamental graph built.
- generate.candidates: canonical_key calls made directly by
  generate_all_graphs; classes_per_candidate: classes generated over that.
- containment.memo.hit_ratio: hits / (hits + misses), and memo.entries:
  verdicts + children + target orbits, both summed over every
  PivotMinorCache the pass touched, read from their public fields.
- containment.pivot_orbit.members: the sizes of all orbits returned.
- obstructions.minimal_ratio, recognizers.contains_ratio and
  canon.find_induced_embedding.found_ratio: useful outcomes (TRUE,
  "contains", an embedding found) over calls.

A ratio whose base is zero reads 0.
"""

from __future__ import annotations

TARGET_SPANS = {  # recognizers.<target> spans and the functions they wrap
    "C3": "recognize_c3", "P4": "recognize_p4", "C4": "recognize_c4",
    "paw": "recognize_paw", "diamond": "recognize_diamond",
    "2P2": "recognize_2p2", "3P1": "recognize_3p1", "claw": "recognize_claw",
}

_PRIMITIVES = "wall_s on mine-3p1 and reduce-cubic"
_MEMO = "wall_s on mine-3p1 and reduce-cubic; peak_rss_mb"
_CANON = ("wall_s on mine-3p1 and reduce-cubic; latency_p99_ms and ok_ratio "
          "on recognize-mix; peak_rss_mb on mine-3p1")
_EMBED = ("latency_p99_ms and wall_s on recognize-mix; "
          "no change on mine-3p1 and reduce-cubic")
_CERTS = "latency_p99_ms, latency_p50_ms and ok_ratio on recognize-mix"
_GENERATE = "wall_s on mine-3p1 only"
_MINING = "wall_s on mine-3p1"
_RECOGNIZE = "wall_s and latency_p99_ms on recognize-mix"
_MATROIDS = "latency_p50_ms on reduce-cubic, a small share"


def _calls_and_self(span: str, moves: str) -> list[tuple[str, str, str, str]]:
    return [(f"{span}.calls", "count", "lower", moves),
            (f"{span}.self_s", "s", "lower", moves)]


LAYER_METRICS: list[tuple[str, str, str, str]] = [
    *_calls_and_self("graphs.pivot", _PRIMITIVES),
    *_calls_and_self("graphs.delete_vertex", _PRIMITIVES),
    *_calls_and_self("graphs.contract_pivot", _PRIMITIVES),
    *_calls_and_self("graphs.induced_subgraph",
                     _PRIMITIVES + "; latency_p50_ms on recognize-mix"),
    *_calls_and_self("io.from_graph6", "wall_s on mine-3p1, memo-key decoding"),
    *_calls_and_self("io.to_graph6", "wall_s on mine-3p1, memo-key encoding"),
    *_calls_and_self("canon.canonical_key", _CANON),
    *_calls_and_self("canon.canonical_form", _CANON),
    ("canon.canonical_form.max_n", "vertices", "lower", _CANON),
    ("canon.key_cache.hit_ratio", "ratio", "higher", _CANON),
    *_calls_and_self("canon.find_induced_embedding", _EMBED),
    ("canon.find_induced_embedding.found_ratio", "ratio", "higher", _EMBED),
    ("generate.generate_all_graphs.self_s", "s", "lower", _GENERATE),
    ("generate.candidates", "count", "lower", _GENERATE),
    ("generate.classes_per_candidate", "ratio", "higher", _GENERATE),
    *_calls_and_self("containment.contains_pivot_minor", _MEMO),
    *_calls_and_self("containment.child_keys", _MEMO),
    *_calls_and_self("containment.target_orbit_keys", _MEMO),
    *_calls_and_self("containment.pivot_orbit", _MEMO),
    ("containment.memo.hit_ratio", "ratio", "higher", _MEMO),
    ("containment.memo.entries", "count", "lower", _MEMO),
    ("containment.pivot_orbit.members", "count", "lower", _MEMO),
    *_calls_and_self("obstructions.is_minimal_obstruction", _MINING),
    ("obstructions.minimal_ratio", "ratio", "higher", _MINING),
    *_calls_and_self("certificates.build_certificate", _CERTS),
    *_calls_and_self("certificates.verify_certificate", _CERTS),
    *_calls_and_self("certificates.find_pivot_minor_sequence", _CERTS),
    *[(f"recognizers.{t}.self_s", "s", "lower", _RECOGNIZE) for t in TARGET_SPANS],
    ("recognizers.contains_ratio", "ratio", "higher", _RECOGNIZE),
    ("matroids.fundamental_graph.self_s", "s", "lower", _MATROIDS),
    ("matroids.is_hamiltonian.self_s", "s", "lower", _MATROIDS),
    ("matroids.fundamental_graph.max_n", "vertices", "lower", _MATROIDS),
    ("trace.overhead_s", "s", "lower",
     "none: traced wall_s minus untraced wall_s of the same run"),
]

WORKLOADS = ("mine-3p1", "recognize-mix", "reduce-cubic")

# the end-to-end metrics every untraced run reports, with their units
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "ok_ratio": "ratio",
    "peak_rss_mb": "MB",
}
