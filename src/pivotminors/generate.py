"""Exhaustive generation of small graphs, one per isomorphism class.

Classes on n vertices are produced by extending every (n-1)-vertex class
representative with a new vertex in all 2^(n-1) ways and deduplicating by
canonical form.  Every n-vertex graph arises this way because deleting its
last vertex lands in some (n-1)-vertex class.
"""

from __future__ import annotations

from collections.abc import Iterable

from .canon import canonical_form
from .graphs import Graph
from .io import to_graph6

GENERATE_MAX_VERTICES = 9

# number of isomorphism classes on n = 0..9 vertices
KNOWN_CLASS_COUNTS = (1, 1, 2, 4, 11, 34, 156, 1044, 12346, 274668)

_CLASSES: dict[int, tuple[Graph, ...]] = {0: (Graph(0),)}


def generate_all_graphs(n: int) -> tuple[Graph, ...]:
    """All isomorphism classes on n vertices as canonical representatives,
    sorted by edge count then canonical key.  Cached per n."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n > GENERATE_MAX_VERTICES:
        raise ValueError(
            f"generation capped at {GENERATE_MAX_VERTICES} vertices, got {n}"
        )
    for k in range(1, n + 1):
        if k not in _CLASSES:
            _CLASSES[k] = tuple(sorted(extend_by_one_vertex(_CLASSES[k - 1]),
                                       key=class_order))
    return _CLASSES[n]


def class_order(g: Graph) -> tuple[int, str]:
    """Sort key of generate_all_graphs: edge count, then graph6."""
    return g.num_edges, to_graph6(g)


def extend_by_one_vertex(parents: Iterable[Graph]) -> set[Graph]:
    """The canonical forms of every graph obtained from one of the parents
    by adding a new last vertex adjacent to any subset of the old ones."""
    seen: set[Graph] = set()
    for parent in parents:
        k = parent.n + 1
        newbit = 1 << (k - 1)
        prows = parent.rows
        for mask in range(newbit):
            rows = tuple(
                prows[v] | newbit if mask >> v & 1 else prows[v]
                for v in range(k - 1)
            ) + (mask,)
            seen.add(canonical_form(Graph._make(k, rows)))
    return seen
