"""Exhaustive generation of small graphs, one per isomorphism class.

Classes on n vertices are produced by canonical augmentation (McKay,
"Isomorph-free exhaustive generation", J. Algorithms 1998): each n-vertex
class is accepted only from its canonical parent, the class left by deleting
its canonical deletion vertex, so no set of all classes seen is needed.
Each parent's automorphism group, from the twins and repeated leaves of
its labelling search, cuts the extensions tried to one per orbit of
neighbourhood masks, and the same group on the child decides acceptance,
so no tie needs a second labelling.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from .canon import canonical_labelling, cell_keys
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


def extend_by_one_vertex(parents: Iterable[Graph]) -> Iterator[Graph]:
    """The canonical forms of the graphs whose canonical parent is one of
    `parents` (canonical forms of distinct classes), each once.

    A child adds a new last vertex adjacent to a mask of a parent's
    vertices.  Its canonical deletion vertex is the one that its canonical
    labelling places last (perm[-1]), and its canonical parent is what
    deleting that vertex leaves.  For each parent:

    - one mask is tried per orbit of Aut(parent) on masks, the group coming
      from the parent's own labelling; masks in one orbit give the same
      child up to an isomorphism that fixes the new vertex;
    - a child whose new vertex lacks the largest cell key (canon.cell_keys)
      is dropped unlabelled: refinement splits cells in place, so the
      vertex placed last always has it;
    - a labelled child is kept exactly when its new vertex lies in the
      Aut(child)-orbit of perm[-1], so that deleting it leaves the
      canonical parent.

    Two kept children from one parent are then never isomorphic, and a
    class comes only from its canonical parent, so no set of children seen
    is needed.  Children's labelled graphs are not memoised in the form
    cache; only their forms are.
    """
    for parent in parents:
        k = parent.n + 1
        new = k - 1
        newbit = 1 << new
        prows = parent.rows
        top = max((r.bit_count() for r in prows), default=0)
        at_top = sum(1 << v for v in range(new) if prows[v].bit_count() == top)
        images = _mask_images(canonical_labelling(parent)[2], new)
        met = bytearray(newbit)  # masks of orbits tried
        for mask in range(newbit):
            d = mask.bit_count()
            if d < top or d == top and mask & at_top:
                continue  # an old vertex outranks the new one in degree
            if met[mask]:
                continue
            _orbit(mask, images, met)
            rows = tuple(prows[v] | newbit if mask >> v & 1 else prows[v]
                         for v in range(new)) + (mask,)
            keys = cell_keys(rows)
            if keys[new] != max(keys):
                continue
            form, perm, gens = canonical_labelling(Graph._make(k, rows), keys)
            if new in _orbit(perm[-1], gens, bytearray(k)):
                yield form


def _orbit(x: int, tables, met: bytearray) -> list[int]:
    """The orbit of x under the maps given as tables (table[y] is the image
    of y; a permutation tuple is its own table), each member marked in met."""
    met[x] = 1
    orbit = [x]
    for y in orbit:
        for table in tables:
            z = table[y]
            if not met[z]:
                met[z] = 1
                orbit.append(z)
    return orbit


def _mask_images(gens: list[tuple[int, ...]], n: int) -> list[list[int]]:
    """For each permutation p of range(n), the table of p's action on masks:
    table[mask] has bit p[v] set for each bit v of mask."""
    tables = []
    for p in gens:
        table = [0]
        for v in range(n):
            bit = 1 << p[v]
            table += [m | bit for m in table]
        tables.append(table)
    return tables
