"""Exact pivot-minor containment for small graphs.

A pivot-minor of g is reached by pivoting edges and deleting vertices.
The decision procedure recurses on the reduction: h is a pivot-minor of g
with |g| > |h| exactly when, for some vertex v, h is a pivot-minor of
g - v or of g / v (pivot v with a neighbour, then delete v; any neighbour
gives a pivot-equivalent result).  At |g| == |h| the question degenerates
to pivot equivalence up to isomorphism, settled by enumerating the pivot
orbit of the target once and comparing canonical forms.  The search runs
on canonical forms throughout, so it does not depend on how the input is
labelled.

Verdicts are three-valued: resource limits surface as INCONCLUSIVE, never
as a silent false.
"""

from __future__ import annotations

import enum
from collections import deque

from .canon import CACHE_CAP, canonical_form
from .graphs import Graph, contract_pivot, delete_vertex, pivot
from .io import to_graph6

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
    OrbitLimitError once more than `limit` members appear, rather than
    silently truncating.
    """
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


class PivotMinorCache:
    """Shared memo for containment queries.

    Every key and value is a canonical form (see canon.canonical_form).
    verdicts maps (g form, h form) to a bool; children maps a form to the
    forms of all its one-vertex reductions (deletions and contract-pivots),
    in ascending graph6 order; target_orbits maps a form to the set of
    forms in its pivot orbit, or, when the enumeration blew the limit, to
    the largest limit that failed so a later call with a higher limit
    retries.  verdicts and children together hold at most max_entries
    entries, by default canon.CACHE_CAP.
    """

    def __init__(self, max_entries: int | None = None):
        self.max_entries = CACHE_CAP if max_entries is None else max_entries
        self.verdicts: dict[tuple[Graph, Graph], bool] = {}
        self.children: dict[Graph, tuple[Graph, ...]] = {}
        self.target_orbits: dict[Graph, frozenset[Graph] | int] = {}
        self.hits = 0
        self.misses = 0

    def _room(self) -> bool:
        return len(self.verdicts) + len(self.children) < self.max_entries

    def child_keys(self, g: Graph) -> tuple[Graph, ...]:
        """The reductions of the canonical form g, in ascending graph6
        order.  The search stops at the first TRUE child, so this order
        sets how much of it is explored."""
        kids = self.children.get(g)
        if kids is None:
            forms = set()
            for v in range(g.n):
                forms.add(canonical_form(delete_vertex(g, v)))
                forms.add(canonical_form(contract_pivot(g, v)))
            kids = tuple(sorted(forms, key=to_graph6))
            if self._room():
                self.children[g] = kids
        return kids

    def target_orbit_keys(self, h: Graph, limit: int) -> frozenset[Graph] | None:
        """The forms in the pivot orbit of the canonical form h, or None
        when the orbit has more than limit members."""
        cached = self.target_orbits.get(h)
        if isinstance(cached, frozenset):
            return cached
        if isinstance(cached, int) and limit <= cached:
            return None
        try:
            orbit = pivot_orbit(h, limit=limit)
        except OrbitLimitError:
            self.target_orbits[h] = limit
            return None
        forms = frozenset(map(canonical_form, orbit))
        self.target_orbits[h] = forms
        return forms

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
    """Does g contain h as a pivot-minor?"""
    if cache is None:
        cache = DEFAULT_CACHE
    if h.n == 0:
        return Verdict.TRUE
    if g.n < h.n:
        return Verdict.FALSE
    th = canonical_form(h)

    def rec(cur: Graph) -> Verdict:
        if cur.n == th.n:
            orbit = cache.target_orbit_keys(th, orbit_limit)
            if orbit is None:
                return Verdict.INCONCLUSIVE
            return Verdict.TRUE if cur in orbit else Verdict.FALSE
        memo = cache.verdicts.get((cur, th))
        if memo is not None:
            cache.hits += 1
            return Verdict.TRUE if memo else Verdict.FALSE
        cache.misses += 1
        inconclusive = False
        verdict = Verdict.FALSE
        for kid in cache.child_keys(cur):
            memo = cache.verdicts.get((kid, th))
            if memo is not None:
                sub = Verdict.TRUE if memo else Verdict.FALSE
            else:
                sub = rec(kid)
            if sub is Verdict.TRUE:
                verdict = Verdict.TRUE
                break
            if sub is Verdict.INCONCLUSIVE:
                inconclusive = True
        if verdict is not Verdict.TRUE and inconclusive:
            return Verdict.INCONCLUSIVE
        if cache._room():
            cache.verdicts[(cur, th)] = verdict is Verdict.TRUE
        return verdict

    return rec(canonical_form(g))


def pivot_equivalent(
    g: Graph, h: Graph, *, orbit_limit: int = DEFAULT_ORBIT_LIMIT
) -> bool:
    """Is g reachable from h by pivots, up to relabelling?

    Reads h's orbit through DEFAULT_CACHE; raises OrbitLimitError when
    the orbit has more than orbit_limit members."""
    if g.n != h.n:
        return False
    orbit = DEFAULT_CACHE.target_orbit_keys(canonical_form(h), orbit_limit)
    if orbit is None:
        raise OrbitLimitError(orbit_limit)
    return canonical_form(g) in orbit
