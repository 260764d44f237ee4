"""Exact pivot-minor containment for small graphs.

A pivot-minor of g is reached by pivoting edges and deleting vertices.
The decision procedure recurses on the reduction: h is a pivot-minor of g
with |g| > |h| exactly when, for some vertex v, h is a pivot-minor of
g - v or of g / v (pivot v with a neighbour, then delete v; any neighbour
gives a pivot-equivalent result).  At |g| == |h| the question degenerates
to pivot equivalence up to isomorphism, settled by enumerating the pivot
orbit of the target once and comparing canonical forms.  So a node on
|h| + 1 vertices canonicalises only the reductions with the degree
sequence of an orbit form (no other can be in the orbit) and stops at the
first in the orbit.  The search runs on canonical forms throughout, so it
does not depend on how the input is labelled.  Above that level it tries
the children of a node richest first, by descending degree sequence, as a
heuristic: a search that answers TRUE stops at its first TRUE child, and
a child that keeps high degrees has the most left to hold the target.  A
search that answers FALSE visits every child whatever the order.

The target's pivot orbit is the only resource limit.  Pivoting an edge
is a principal pivot transform of the adjacency matrix over GF(2), so
every labelled member of the orbit of an n-vertex graph is g * X for an
even vertex set X with A[X] nonsingular: at most 2^(n-1) members.  The
limit, ORBIT_LIMIT = 2^20, therefore binds only on graphs of 22 or more
vertices, which canonical_form refuses anyway; it guards pivot_orbit,
which takes any graph.  Whether the target's orbit fits is decided once,
before the search: INCONCLUSIVE means exactly that it does not.
Otherwise the search is exact and answers TRUE or FALSE; the limit never
shows up as a silent false.
"""

from __future__ import annotations

import enum
from collections import deque
from collections.abc import Iterator

from .canon import cache_insert, canonical_form
from .graphs import Graph, contract_pivot, delete_vertex, pivot

# labelled orbit members of an n-vertex graph number at most 2^(n-1)
# (see the module docstring), so this binds only from 22 vertices on
ORBIT_LIMIT = 1 << 20


class OrbitLimitError(RuntimeError):
    """Raised when a pivot-orbit enumeration exceeds its member limit."""

    def __init__(self, limit: int):
        super().__init__(f"pivot orbit exceeded the limit of {limit} members")
        self.limit = limit


class Verdict(enum.Enum):
    TRUE = "true"
    FALSE = "false"
    INCONCLUSIVE = "inconclusive"

    def __bool__(self) -> bool:
        if self is Verdict.INCONCLUSIVE:
            raise ValueError("inconclusive verdict has no truth value")
        return self is Verdict.TRUE

    @property
    def definite(self) -> bool:
        return self is not Verdict.INCONCLUSIVE


def pivot_orbit(g: Graph) -> dict[Graph, tuple[Graph, int, int] | None]:
    """All labelled graphs reachable from g by pivots (g included), in
    breadth-first discovery order.

    Each member maps to its BFS parent link (parent, u, v), meaning the
    member is pivot(parent, u, v); g itself maps to None.  Raises
    OrbitLimitError once more than ORBIT_LIMIT members appear, g
    included, rather than silently truncating.
    """
    limit = ORBIT_LIMIT
    links: dict[Graph, tuple[Graph, int, int] | None] = {g: None}
    queue = deque([g])
    while queue:
        # each member is queued when it joins, so every count is checked,
        # g's alone too
        if len(links) > limit:
            raise OrbitLimitError(limit)
        cur = queue.popleft()
        for u, v in cur.edges():
            nxt = pivot(cur, u, v)
            if nxt not in links:
                links[nxt] = (cur, u, v)
                queue.append(nxt)
    return links


def _reductions(g: Graph) -> Iterator[Graph]:
    """The labelled one-vertex reductions of g: every deletion, and the
    contract-pivot of every vertex that is not isolated."""
    for v in range(g.n):
        yield delete_vertex(g, v)
        if g.rows[v]:  # an isolated vertex contracts to its deletion
            yield contract_pivot(g, v)


class PivotMinorCache:
    """Shared memo for containment queries.

    Every key and value is a canonical form (see canon.canonical_form).
    verdicts maps (g form, h form) to a bool; children maps a form to the
    forms of all its one-vertex reductions (deletions and contract-pivots),
    richest first (see child_keys), but gets no entry from a node on
    |h| + 1 vertices; target_orbits maps a form to the forms in its pivot
    orbit and their degree sequences, or to None when the orbit has more
    than ORBIT_LIMIT labelled members.  Each table is bounded by
    canon.CACHE_CAP, and a refused insert warns (see canon.cache_insert).
    """

    def __init__(self):
        self.verdicts: dict[tuple[Graph, Graph], bool] = {}
        self.children: dict[Graph, tuple[Graph, ...]] = {}
        self.target_orbits: dict[Graph, tuple[frozenset, frozenset] | None] = {}
        self.hits = 0
        self.misses = 0

    def child_keys(self, g: Graph) -> tuple[Graph, ...]:
        """The reductions of the canonical form g, richest first: by
        degree sequence in descending order, largest first, then by rows.

        The search stops at the first TRUE child, so this order sets how
        much of a TRUE search is explored; it does not depend on the
        target.  A form lists its vertices by ascending degree
        (canon.cell_keys), so its reversed rows give the sequence."""
        kids = self.children.get(g)
        if kids is None:
            forms = {canonical_form(r) for r in _reductions(g)}
            kids = tuple(sorted(forms, key=lambda f: (
                tuple(-r.bit_count() for r in reversed(f.rows)), f.rows)))
            cache_insert(self.children, g, kids)
        return kids

    def target_orbit_keys(
        self, h: Graph
    ) -> tuple[frozenset[Graph], frozenset] | None:
        """The forms in the pivot orbit of the canonical form h and their
        degree sequences, or None when the orbit has more than
        ORBIT_LIMIT labelled members."""
        if h in self.target_orbits:
            return self.target_orbits[h]
        try:
            orbit = pivot_orbit(h)
        except OrbitLimitError:
            cache_insert(self.target_orbits, h, None)
            return None
        forms = frozenset(map(canonical_form, orbit))
        target = forms, frozenset(f.degree_sequence() for f in forms)
        cache_insert(self.target_orbits, h, target)
        return target

    def clear(self) -> None:
        self.verdicts.clear()
        self.children.clear()
        self.target_orbits.clear()
        self.hits = 0
        self.misses = 0


DEFAULT_CACHE = PivotMinorCache()


def contains_pivot_minor(
    g: Graph, h: Graph, *, cache: PivotMinorCache | None = None
) -> Verdict:
    """Does g contain h as a pivot-minor?

    INCONCLUSIVE exactly when h's pivot orbit has more than ORBIT_LIMIT
    labelled members; below that check the search is exact."""
    if cache is None:
        cache = DEFAULT_CACHE
    if h.n == 0:
        return Verdict.TRUE
    if g.n < h.n:
        return Verdict.FALSE
    th = canonical_form(h)
    target = cache.target_orbit_keys(th)
    if target is None:
        return Verdict.INCONCLUSIVE
    orbit, degrees = target
    verdicts = cache.verdicts

    def rec(cur: Graph) -> bool:
        if cur.n == th.n:
            return cur in orbit
        found = verdicts.get((cur, th))
        if found is not None:
            cache.hits += 1
            return found
        cache.misses += 1
        if cur.n == th.n + 1:
            found = any(r.degree_sequence() in degrees
                        and canonical_form(r) in orbit
                        for r in _reductions(cur))
        else:
            found = any(rec(kid) for kid in cache.child_keys(cur))
        cache_insert(verdicts, (cur, th), found)
        return found

    return Verdict.TRUE if rec(canonical_form(g)) else Verdict.FALSE


def pivot_equivalent(g: Graph, h: Graph) -> bool:
    """Is g reachable from h by pivots, up to relabelling?

    Containment at equal order, through DEFAULT_CACHE; raises
    OrbitLimitError when h's orbit has more than ORBIT_LIMIT members."""
    if g.n != h.n:
        return False
    verdict = contains_pivot_minor(g, h)
    if verdict is Verdict.INCONCLUSIVE:
        raise OrbitLimitError(ORBIT_LIMIT)
    return bool(verdict)
