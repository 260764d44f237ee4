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

The target's pivot orbit is the only resource limit.  Whether it fits
under the orbit limit is decided once, before the search: INCONCLUSIVE
means exactly that it does not.  Otherwise the search is exact and
answers TRUE or FALSE; a limit never shows up as a silent false.
"""

from __future__ import annotations

import enum
from collections import deque
from collections.abc import Iterator

from .canon import cache_insert, canonical_form
from .graphs import Graph, contract_pivot, delete_vertex, pivot

DEFAULT_ORBIT_LIMIT = 1 << 20


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


def pivot_orbit(
    g: Graph, *, limit: int = DEFAULT_ORBIT_LIMIT
) -> dict[Graph, tuple[Graph, int, int] | None]:
    """All labelled graphs reachable from g by pivots (g included), in
    breadth-first discovery order.

    Each member maps to its BFS parent link (parent, u, v), meaning the
    member is pivot(parent, u, v); g itself maps to None.  Raises
    OrbitLimitError once more than `limit` members appear, g included,
    rather than silently truncating.
    """
    if limit < 1:
        raise OrbitLimitError(limit)
    links: dict[Graph, tuple[Graph, int, int] | None] = {g: None}
    queue = deque([g])
    while queue:
        cur = queue.popleft()
        for u, v in cur.edges():
            nxt = pivot(cur, u, v)
            if nxt not in links:
                links[nxt] = (cur, u, v)
                if len(links) > limit:
                    raise OrbitLimitError(limit)
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
    |h| + 1 vertices; target_orbits maps a form to its labelled pivot-orbit
    size, the forms in that orbit and their degree sequences, or, when the
    enumeration blew the limit, to the largest limit that failed so a
    later call with a higher limit retries.  Each table is bounded by
    canon.CACHE_CAP, and a refused insert warns (see canon.cache_insert).
    """

    def __init__(self):
        self.verdicts: dict[tuple[Graph, Graph], bool] = {}
        self.children: dict[Graph, tuple[Graph, ...]] = {}
        self.target_orbits: dict[Graph, tuple[int, frozenset, frozenset] | int] = {}
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
        self, h: Graph, limit: int
    ) -> tuple[frozenset[Graph], frozenset] | None:
        """The forms in the pivot orbit of the canonical form h and their
        degree sequences, or None when the orbit has more than limit
        labelled members.  The answer depends on limit alone, not on what
        earlier calls stored."""
        cached = self.target_orbits.get(h)
        if isinstance(cached, tuple):
            size, forms, degrees = cached
            return (forms, degrees) if size <= limit else None
        if cached is not None and limit <= cached:
            return None
        try:
            orbit = pivot_orbit(h, limit=limit)
        except OrbitLimitError:
            cache_insert(self.target_orbits, h, limit)
            return None
        forms = frozenset(map(canonical_form, orbit))
        degrees = frozenset(f.degree_sequence() for f in forms)
        cache_insert(self.target_orbits, h, (len(orbit), forms, degrees))
        return forms, degrees

    def clear(self) -> None:
        self.verdicts.clear()
        self.children.clear()
        self.target_orbits.clear()
        self.hits = 0
        self.misses = 0


DEFAULT_CACHE = PivotMinorCache()


def contains_pivot_minor(
    g: Graph,
    h: Graph,
    *,
    cache: PivotMinorCache | None = None,
    orbit_limit: int = DEFAULT_ORBIT_LIMIT,
) -> Verdict:
    """Does g contain h as a pivot-minor?

    INCONCLUSIVE exactly when h's pivot orbit has more than orbit_limit
    labelled members; below that check the search is exact."""
    if cache is None:
        cache = DEFAULT_CACHE
    if h.n == 0:
        return Verdict.TRUE
    if g.n < h.n:
        return Verdict.FALSE
    th = canonical_form(h)
    target = cache.target_orbit_keys(th, orbit_limit)
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


def pivot_equivalent(
    g: Graph, h: Graph, *, orbit_limit: int = DEFAULT_ORBIT_LIMIT
) -> bool:
    """Is g reachable from h by pivots, up to relabelling?

    Reads h's orbit through DEFAULT_CACHE; raises OrbitLimitError when
    the orbit has more than orbit_limit members."""
    if g.n != h.n:
        return False
    target = DEFAULT_CACHE.target_orbit_keys(canonical_form(h), orbit_limit)
    if target is None:
        raise OrbitLimitError(orbit_limit)
    return canonical_form(g) in target[0]
