"""Exhaustive generation of small graphs, one per isomorphism class.

Classes on n vertices are produced by canonical augmentation (McKay,
"Isomorph-free exhaustive generation", J. Algorithms 1998): each n-vertex
class is accepted only from its canonical parent, the class left by deleting
its canonical deletion vertex, so no set of all classes seen is needed.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from .canon import canonical_form
from .graphs import Graph, delete_vertex
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


def extend_by_one_vertex(parents: Iterable[Graph]) -> Iterator[Graph]:
    """The canonical forms of the graphs whose canonical parent is one of
    `parents` (canonical forms of distinct classes), each once.

    A child adds a new last vertex adjacent to any subset of a parent's
    vertices.  Its canonical parent is its canonical form F minus the
    highest-positioned vertex of maximum degree.  A child is kept when its
    new vertex has maximum degree and either is the only such vertex or
    that deletion of F gives the parent back.
    """
    for parent in parents:
        k = parent.n + 1
        newbit = 1 << (k - 1)
        prows = parent.rows
        top = max((r.bit_count() for r in prows), default=0)
        at_top = sum(1 << v for v in range(k - 1) if prows[v].bit_count() == top)
        seen: set[Graph] = set()
        for mask in range(newbit):
            d = mask.bit_count()
            if d < top or d == top and mask & at_top:
                continue  # an old vertex outranks the new one in degree
            child = canonical_form(Graph._make(k, tuple(
                prows[v] | newbit if mask >> v & 1 else prows[v]
                for v in range(k - 1)
            ) + (mask,)))
            if child in seen:
                continue
            seen.add(child)
            if d == top or d == top + 1 and mask & at_top:  # a tie at degree d
                i = max(v for v in range(k) if child.rows[v].bit_count() == d)
                if canonical_form(delete_vertex(child, i)) != parent:
                    continue
            yield child
