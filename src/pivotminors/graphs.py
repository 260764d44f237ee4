"""Small immutable graphs with fast local complementation and edge pivots.

Vertices are the integers 0..n-1 and adjacency is kept as one bitmask row
per vertex, so a pivot is a handful of mask operations instead of nested
loops.  Everything here treats graphs as values: operations return new
Graph objects and never mutate their input.
"""

from __future__ import annotations

from typing import Iterable, Iterator, NamedTuple

MAX_VERTICES = 64


def _bits(mask: int) -> Iterator[int]:
    """Yield the positions of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Graph:
    """An undirected simple graph on vertices 0..n-1.

    Instances are immutable by convention and hashable, so they can be used
    as dict keys and set members.  Rows are bitmasks: bit v of rows[u] is 1
    exactly when uv is an edge.  The diagonal is always 0.
    """

    __slots__ = ("n", "rows", "_hash")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()) -> None:
        if not 0 <= n <= MAX_VERTICES:
            raise ValueError(f"need 0 <= n <= {MAX_VERTICES}, got {n}")
        rows = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        self.n = n
        self.rows = tuple(rows)
        self._hash = None

    @classmethod
    def _make(cls, n: int, rows: tuple[int, ...]) -> "Graph":
        # trusted fast path for internal use: rows must already be symmetric
        g = object.__new__(cls)
        g.n = n
        g.rows = rows
        g._hash = None
        return g

    # -- queries ---------------------------------------------------------

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.rows[u] >> v & 1) if u != v else False

    def degree(self, v: int) -> int:
        return self.rows[v].bit_count()

    def neighbors(self, v: int) -> list[int]:
        return list(_bits(self.rows[v]))

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield edges (u, v) with u < v in lexicographic order."""
        for u in range(self.n):
            for v in _bits(self.rows[u] >> (u + 1) << (u + 1)):
                yield (u, v)

    @property
    def num_edges(self) -> int:
        return sum(r.bit_count() for r in self.rows) // 2

    def degree_sequence(self) -> tuple[int, ...]:
        return tuple(sorted(r.bit_count() for r in self.rows))

    # -- value semantics --------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and self.rows == other.rows
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.n, self.rows))
        return self._hash

    def __repr__(self) -> str:
        return f"Graph({self.n}, {sorted(self.edges())})"


class NeighborhoodSplit(NamedTuple):
    """Partition of V(g) - {u, v} induced by an edge uv.

    private_u: neighbours of u only, private_v: neighbours of v only,
    common: neighbours of both, rest: neighbours of neither.
    """

    private_u: frozenset[int]
    common: frozenset[int]
    private_v: frozenset[int]
    rest: frozenset[int]


def _check_vertex(g: Graph, v: int) -> None:
    if not 0 <= v < g.n:
        raise ValueError(f"vertex {v} out of range for n={g.n}")


def local_complement(g: Graph, u: int) -> Graph:
    """Complement the subgraph induced on the neighbourhood of u."""
    _check_vertex(g, u)
    nb = g.rows[u]
    rows = list(g.rows)
    for v in _bits(nb):
        rows[v] ^= nb & ~(1 << v)
    return Graph._make(g.n, tuple(rows))


def pivot(g: Graph, u: int, v: int) -> Graph:
    """Pivot the edge uv.

    Private neighbours of u, private neighbours of v and common neighbours
    have all edges between distinct groups toggled, and u and v exchange
    their neighbourhoods outside {u, v}.  Equals three nested local
    complementations; raises ValueError when uv is not an edge.
    """
    _check_vertex(g, u)
    _check_vertex(g, v)
    if not g.has_edge(u, v):
        raise ValueError(f"({u}, {v}) is not an edge, cannot pivot")
    bu, bv = 1 << u, 1 << v
    nu, nv = g.rows[u], g.rows[v]
    su = nu & ~nv & ~bv
    sv = nv & ~nu & ~bu
    suv = nu & nv
    rows = list(g.rows)
    for x in _bits(su):
        rows[x] ^= (sv | suv) | bu | bv
    for y in _bits(sv):
        rows[y] ^= (su | suv) | bu | bv
    for z in _bits(suv):
        rows[z] ^= su | sv
    rows[u] = sv | suv | bv
    rows[v] = su | suv | bu
    return Graph._make(g.n, tuple(rows))


def neighborhood_split(g: Graph, u: int, v: int) -> NeighborhoodSplit:
    """Classify every vertex outside {u, v} by its adjacency to u and v."""
    _check_vertex(g, u)
    _check_vertex(g, v)
    if not g.has_edge(u, v):
        raise ValueError(f"({u}, {v}) is not an edge")
    bu, bv = 1 << u, 1 << v
    nu, nv = g.rows[u] & ~bv, g.rows[v] & ~bu
    full = ((1 << g.n) - 1) & ~bu & ~bv
    return NeighborhoodSplit(
        frozenset(_bits(nu & ~nv)),
        frozenset(_bits(nu & nv)),
        frozenset(_bits(nv & ~nu)),
        frozenset(_bits(full & ~nu & ~nv)),
    )


def delete_vertex(g: Graph, v: int) -> Graph:
    """Remove v; higher-numbered vertices slide down by one."""
    _check_vertex(g, v)
    low = (1 << v) - 1
    rows = g.rows[:v] + g.rows[v + 1:]
    return Graph._make(g.n - 1, tuple((r & low) | (r >> 1 & ~low) for r in rows))


def induced_subgraph(g: Graph, vertices: Iterable[int]) -> Graph:
    """Induced subgraph on the given vertices, relabelled 0..k-1 in the
    order listed (a sorted list keeps the original relative order).

    The list 0..n-1 in order returns g itself.  Otherwise each new row is
    read off the set bits of the old row restricted to the kept vertices,
    so the cost is O(k + edges kept) rather than O(k^2).
    """
    vs = list(vertices)
    if vs == list(range(g.n)):
        return g  # valid by construction
    pos = [0] * g.n
    keep = 0
    for j, a in enumerate(vs):
        _check_vertex(g, a)
        bit = 1 << a
        if keep & bit:
            raise ValueError("duplicate vertices")
        keep |= bit
        pos[a] = j
    rows = []
    for a in vs:
        r = g.rows[a] & keep
        m = 0
        while r:
            low = r & -r
            m |= 1 << pos[low.bit_length() - 1]
            r ^= low
        rows.append(m)
    return Graph._make(len(vs), tuple(rows))


def contract_pivot(g: Graph, v: int) -> Graph:
    """Pivot v with its lowest-numbered neighbour, then delete v.

    Isolated vertices are just deleted.  Changing which neighbour is used
    changes the result only up to pivot equivalence, so fixing the lowest
    one keeps the operation deterministic.
    """
    _check_vertex(g, v)
    nb = g.rows[v]
    if nb == 0:
        return delete_vertex(g, v)
    z = (nb & -nb).bit_length() - 1
    return delete_vertex(pivot(g, z, v), v)


def complement(g: Graph) -> Graph:
    full = (1 << g.n) - 1
    rows = tuple((~g.rows[v]) & full & ~(1 << v) for v in range(g.n))
    return Graph._make(g.n, rows)


def disjoint_union(g: Graph, h: Graph) -> Graph:
    """Disjoint union; h's vertices are shifted up by g.n."""
    if g.n + h.n > MAX_VERTICES:
        raise ValueError("union exceeds the vertex cap")
    rows = g.rows + tuple(r << g.n for r in h.rows)
    return Graph._make(g.n + h.n, rows)


def connected_components(g: Graph) -> list[list[int]]:
    """Vertex lists of the connected components, each sorted, ordered by
    smallest member."""
    unseen = (1 << g.n) - 1
    comps = []
    while unseen:
        start = unseen & -unseen
        comp = start
        frontier = start
        while frontier:
            reach = 0
            for v in _bits(frontier):
                reach |= g.rows[v]
            frontier = reach & ~comp
            comp |= frontier
        comps.append(list(_bits(comp)))
        unseen &= ~comp
    return comps


def component_sides(g: Graph) -> list[tuple[int, int]] | None:
    """The two side masks of each connected component, ordered by
    smallest member, which is on the first side; None if an odd cycle
    exists.  Each component is searched layer by layer from its smallest
    vertex, and an edge inside a layer closes an odd cycle."""
    rows = g.rows
    unseen = (1 << g.n) - 1
    comps = []
    while unseen:
        frontier = unseen & -unseen
        sides = [0, 0]
        k = 0
        while frontier:
            sides[k] |= frontier
            unseen ^= frontier
            reach = 0
            for v in _bits(frontier):
                reach |= rows[v]
            if reach & frontier:
                return None
            frontier = reach & unseen
            k ^= 1
        comps.append((sides[0], sides[1]))
    return comps


def bipartition(g: Graph) -> tuple[int, int] | None:
    """Two-colour g; returns the side masks, or None if an odd cycle exists.
    The smallest vertex of each component is on the first side."""
    comps = component_sides(g)
    if comps is None:
        return None
    # the components' masks are disjoint, so their sums are their unions
    return sum(a for a, _ in comps), sum(b for _, b in comps)


def is_bipartite(g: Graph) -> bool:
    return bipartition(g) is not None


def is_connected(g: Graph) -> bool:
    return g.n <= 1 or len(connected_components(g)) == 1
