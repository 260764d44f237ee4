"""Exact pivot-minor containment for small graphs.

A pivot-minor of g is reached by pivoting edges and deleting vertices.
The decision procedure recurses on the reduction: h is a pivot-minor of g
with |g| > |h| exactly when, for some vertex v, h is a pivot-minor of
g - v or of g / v (pivot v with a neighbour, then delete v; any neighbour
gives a pivot-equivalent result).  _reductions states that rule once: the
search recurses on its graphs, and the certificate peel records its
triples as steps, so a certificate holds exactly the search's reductions.
At |g| == |h| the query compares canonical forms with the target's pivot
orbit, enumerated once, so the recursion sees only nodes above |h|.

The search labels lazily.  The children of a node are the labelled
reductions of its canonical form (PivotMinorCache.child_keys), which no
target cuts, so one stored list serves every target.  A child is
screened by the side rule when the search reaches it, and labelled only
if the rule passes it; its form keys the verdict memo, so the search does
not depend on how the input is labelled.  A graph on |h| + 1 vertices is
not labelled at all: _screened_reductions computes the edge count and
degree sequence of each reduction from its rows, and only those that
match an orbit form (no other can be in the orbit) are built and
canonicalised, stopping at the first in the orbit.  Its verdict depends
only on its class and is not memoised.

Children are tried richest first, by descending degree sequence, as a
heuristic: a search that answers TRUE stops at its first TRUE child, and
a child that keeps high degrees has the most left to hold the target.  A
search that answers FALSE visits every child whatever the order.

A bipartite graph is FALSE unless each component of h is bipartite, with
sides p <= q, and fits into a component of the graph, with sides a <= b:
p <= a and q <= b.  This is exact.  Pivoting an edge of a bipartite graph
swaps its ends between the sides, so every component keeps its vertex set
and side sizes, and a deletion only shrinks a side: a connected
pivot-minor lies in one component, with sides no larger.  The rule
screens every labelled graph, the input too, before it is canonicalised,
so a bipartite input without room is FALSE whatever its order.

Three limits bound a query, and one rule covers them: LIMITS names their
errors, and contains_pivot_minor answers INCONCLUSIVE for each, with a
RuntimeWarning that names the limit and the graph, never a silent false.
Pivoting an edge is a principal pivot transform of the adjacency matrix
over GF(2), so every labelled member of the orbit of an n-vertex graph is
g * X for an even vertex set X with A[X] nonsingular: at most 2^(n-1)
members.  ORBIT_LIMIT = 2^20 therefore binds only on targets of 22 or
more vertices, and it guards pivot_orbit, which takes any graph; whether
the target's orbit fits is decided once, before the search.
SEARCH_BUDGET bounds the search itself: a query may compute that many
verdicts (memo misses), and the next one ends it.  Verdicts of the
subtrees it finished are exact and stay memoised, so the query can be
asked again and goes on from them.  Labelling is bounded by
canon.LABEL_BUDGET, 2^23 units of search nodes and refinement reads (no
gadget or 18-vertex host spends 2,000).  _contains, pivot_orbit and
pivot_equivalent raise the limit's own error instead.
"""

from __future__ import annotations

import enum
import warnings
from collections import deque
from collections.abc import Iterator

from .canon import LabellingBudgetError, cache_insert, canonical_form
from .graphs import (
    Graph, _bits, component_sides, contract_pivot, delete_vertex, pivot)
from .io import to_graph6

# labelled orbit members of an n-vertex graph number at most 2^(n-1)
# (see the module docstring), so this binds only from 22 vertices on
ORBIT_LIMIT = 1 << 20

# memo misses of one query: a FALSE query on an 18-vertex host can take
# thousands, and spending this many takes about 40 s
SEARCH_BUDGET = 1 << 15


class OrbitLimitError(RuntimeError):
    """Raised when a pivot-orbit enumeration exceeds ORBIT_LIMIT members."""

    def __init__(self, limit: int, graph6: str):
        super().__init__(
            f"pivot orbit exceeded ORBIT_LIMIT = {limit} members on {graph6}")
        self.limit = limit
        self.graph6 = graph6


class SearchBudgetError(RuntimeError):
    """Raised when a containment query computes more than SEARCH_BUDGET
    verdicts."""

    def __init__(self, budget: int, graph6: str):
        super().__init__(
            f"containment search spent SEARCH_BUDGET = {budget} memo misses "
            f"on host {graph6}")
        self.budget = budget
        self.graph6 = graph6


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
            raise OrbitLimitError(limit, to_graph6(g))
        cur = queue.popleft()
        for u, v in cur.edges():
            nxt = pivot(cur, u, v)
            if nxt not in links:
                links[nxt] = (cur, u, v)
                queue.append(nxt)
    return links


def _reductions(g: Graph) -> Iterator[tuple[int, int, Graph]]:
    """The labelled one-vertex reductions r of g, as triples (v, z, r):
    each deletion of v (z = -1), then the contract-pivot of v with its
    lowest neighbour z, unless v is isolated."""
    for v in range(g.n):
        yield v, -1, delete_vertex(g, v)
        nb = g.rows[v]
        if nb:
            yield v, (nb & -nb).bit_length() - 1, contract_pivot(g, v)


def _screened_reductions(
    g: Graph, degrees: frozenset, sizes: frozenset
) -> Iterator[Graph]:
    """The reductions of g, in _reductions order, whose edge count is in
    sizes and whose degree sequence is in degrees.

    Both are computed from g's rows, and only a reduction that passes is
    built.  A deletion lowers only v's neighbours.  contract_pivot pivots
    v with its lowest neighbour z, which toggles the edges between z's
    private neighbours su, v's private neighbours sv and their common
    neighbours suv, and exchanges the rows of z and v; deleting v then
    takes the edge to v from su, suv and z, whose degree ends at
    d[v] - 1."""
    rows = g.rows
    d = [r.bit_count() for r in rows]
    m = sum(d) >> 1
    for v in range(g.n):
        nb = rows[v]
        if m - d[v] in sizes:
            degs = d[:]
            for u in _bits(nb):
                degs[u] -= 1
            del degs[v]
            if tuple(sorted(degs)) in degrees:
                yield delete_vertex(g, v)
        if not nb:
            continue
        bv = 1 << v
        bz = nb & -nb
        z = bz.bit_length() - 1
        nz = rows[z]
        su = nz & ~nb & ~bv
        sv = nb & ~nz & ~bz
        suv = nz & nb
        degs = d[:]
        for x in _bits(su):
            degs[x] = (rows[x] ^ (sv | suv | bz)).bit_count()
        for y in _bits(sv):
            degs[y] = (rows[y] ^ (su | suv | bz | bv)).bit_count()
        for w in _bits(suv):
            degs[w] = (rows[w] ^ (su | sv | bv)).bit_count()
        degs[z] = d[v] - 1
        del degs[v]
        if sum(degs) >> 1 in sizes and tuple(sorted(degs)) in degrees:
            yield contract_pivot(g, v)


def _side_sizes(g: Graph) -> list[tuple[int, int]] | None:
    """Each component's side sizes, smaller first; None if not bipartite."""
    comps = component_sides(g)
    return None if comps is None else [
        tuple(sorted((a.bit_count(), b.bit_count()))) for a, b in comps]


class PivotMinorCache:
    """Shared memo for containment queries.

    verdicts maps (g form, h form) to a bool, where forms are canonical
    (see canon.canonical_form).  children maps a form to the labelled
    graphs of all its one-vertex reductions (deletions and
    contract-pivots), richest first (see child_keys); no target cuts
    them, so a list stored by one query serves every later one.
    target_orbits maps a form to the forms in its pivot orbit and their
    degree sequences, or to None when the orbit has more than ORBIT_LIMIT
    labelled members.  Each table is bounded by canon.CACHE_CAP, and a
    refused insert warns (see canon.cache_insert).
    """

    def __init__(self):
        self.verdicts: dict[tuple[Graph, Graph], bool] = {}
        self.children: dict[Graph, tuple[Graph, ...]] = {}
        self.target_orbits: dict[Graph, tuple[frozenset, frozenset] | None] = {}
        self.hits = 0
        self.misses = 0

    def child_keys(self, g: Graph) -> tuple[Graph, ...]:
        """The labelled one-vertex reductions of the canonical form g,
        richest first: by degree sequence in descending order, largest
        first, ties in _reductions order.

        No target cuts the list, so one stored tuple serves every
        target.  The search stops at the first TRUE child, so this order
        sets how much of a TRUE search is explored; it does not depend on
        the target."""
        kids = self.children.get(g)
        if kids is None:
            kids = tuple(sorted((r for _, _, r in _reductions(g)),
                                key=lambda r: r.degree_sequence()[::-1],
                                reverse=True))
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
LIMITS = (LabellingBudgetError, OrbitLimitError, SearchBudgetError)


def contains_pivot_minor(
    g: Graph, h: Graph, *, cache: PivotMinorCache | None = None
) -> Verdict:
    """Does g contain h as a pivot-minor?

    INCONCLUSIVE exactly when the query spends one of LIMITS (ORBIT_LIMIT,
    SEARCH_BUDGET, canon.LABEL_BUDGET), with a warning that names the limit
    and the graph; otherwise the search is exact."""
    try:
        found = _contains(g, h, DEFAULT_CACHE if cache is None else cache)
    except LIMITS as exc:
        warnings.warn(f"inconclusive: {exc}", RuntimeWarning, stacklevel=2)
        return Verdict.INCONCLUSIVE
    return Verdict.TRUE if found else Verdict.FALSE


def _contains(g: Graph, h: Graph, cache: PivotMinorCache) -> bool:
    """contains_pivot_minor's search, which raises the error of the limit
    it hits, one of LIMITS."""
    if h.n == 0:
        return True
    if g.n < h.n:
        return False
    th = canonical_form(h)
    target = cache.target_orbit_keys(th)
    if target is None:
        raise OrbitLimitError(ORBIT_LIMIT, to_graph6(h))
    orbit, degrees = target
    sizes = frozenset(sum(s) >> 1 for s in degrees)
    verdicts = cache.verdicts
    need = _side_sizes(th)
    budget = SEARCH_BUDGET
    stop = cache.misses + budget  # the miss count that spends it

    def room(cur: Graph) -> bool:
        # False when cur is bipartite and has no room for h's components
        have = _side_sizes(cur)
        return have is None or need is not None and all(
            any(p <= a and q <= b for a, b in have) for p, q in need)

    if not room(g):
        return False

    def rec(cur: Graph) -> bool:
        # cur is labelled and has room: every graph is screened before it
        # is labelled, and one on |h| + 1 vertices is settled on its labels
        if cur.n == th.n + 1:
            return any(canonical_form(r) in orbit
                       for r in _screened_reductions(cur, degrees, sizes))
        form = canonical_form(cur)
        found = verdicts.get((form, th))
        if found is not None:
            cache.hits += 1
            return found
        if cache.misses == stop:
            raise SearchBudgetError(budget, to_graph6(g))
        cache.misses += 1
        found = any(rec(r) for r in cache.child_keys(form) if room(r))
        cache_insert(verdicts, (form, th), found)
        return found

    return canonical_form(g) in orbit if g.n == h.n else rec(g)


def pivot_equivalent(g: Graph, h: Graph) -> bool:
    """Is g reachable from h by pivots, up to relabelling?

    Containment at equal order, through DEFAULT_CACHE; raises
    OrbitLimitError when h's orbit has more than ORBIT_LIMIT members."""
    return g.n == h.n and _contains(g, h, DEFAULT_CACHE)
