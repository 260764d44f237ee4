"""Canonical forms, isomorphism testing, and induced-subgraph search.

The canonical form of a graph is a distinguished relabelling: the one with
the lexicographically smallest upper-triangle bit string over all vertex
orders that respect the (degree, sorted neighbour degrees) partition
(cell_keys).  Restricting to such orders is an isomorphism-invariant
pruning, so two graphs get equal forms exactly when they are isomorphic.
The form is the library's class identity: memo tables key on it, and
graph6 (the canonical key) only encodes it for output.

The search is bounded by the work it does, not by the order of its input:
each node costs (level + 1) times its candidate count, the bits it reads
to build their columns, and a search that spends more than LABEL_BUDGET
work units raises LabellingBudgetError, naming its input.  Graphs rich in
twins or in distinct cell keys label cheaply at any order (the 18-vertex
gadgets of 12-vertex cubic graphs in milliseconds); long cycles, whose
vertices share one cell and have no twins, are the costly inputs: C16
takes 54.3 million units, and C17 and longer spend the budget, in about
8 s.

One search finds the form and, on the way, generators of the graph's
automorphism group: a transposition for each pair of interchangeable twins
it skips, and a permutation for each other vertex order that reaches the
minimal encoding.  canonical_labelling returns the form, the order and the
generators; canonical_form and isomorphism use the same search.

find_induced_embedding is a separate backtracking search (Ullmann/VF2
style domains) for an induced copy of a pattern.  It borrows the search's
twin rule: a host vertex that fails at a level takes its twins with it, so
a clique or a multipartite class costs one try per level, not one per
member.

Forms are cached in one table in which every representative maps to
itself, so all relabellings of a class share one Graph object.
canonical_form also memoises its input there; canonical_labelling interns
only the form, for inputs that are not asked for again.  That
table and every containment memo table hold at most CACHE_CAP entries
each (PIVOTMINORS_CACHE_CAP in the environment), a bound enforced by
cache_insert alone: a full table refuses the insert with a RuntimeWarning,
and the result is recomputed when it is asked for again.
"""

from __future__ import annotations

import os
import warnings

from .graphs import Graph, _bits
from .io import to_graph6

# work units of one labelling search; C16 costs 54.3 million
LABEL_BUDGET = 1 << 26

CACHE_CAP = int(os.environ.get("PIVOTMINORS_CACHE_CAP", str(1 << 21)))

_FORMS: dict[Graph, Graph] = {}


class LabellingBudgetError(RuntimeError):
    """Raised when a labelling search spends more than its work budget."""

    def __init__(self, budget: int, graph6: str):
        super().__init__(
            f"labelling search spent LABEL_BUDGET = {budget} work units "
            f"on {graph6}")
        self.budget = budget
        self.graph6 = graph6


def cache_insert(table: dict, key, value) -> None:
    """table[key] = value, unless that would grow table past CACHE_CAP
    entries; then warn and store nothing."""
    if len(table) >= CACHE_CAP and key not in table:
        warnings.warn(
            f"cache full at {CACHE_CAP} entries; results are recomputed "
            "from here on (raise PIVOTMINORS_CACHE_CAP to cache more)",
            RuntimeWarning,
            stacklevel=2,
        )
        return
    table[key] = value


def cell_keys(rows: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Per vertex of the graph with these adjacency rows, the key of its
    cell in the labelling's partition.

    The key stands for (degree, sorted neighbour degrees): it is the degree
    followed by minus the number of neighbours in each degree class, lowest
    degree first.  That sorts and ties exactly as the pair does, and the
    counts come from one AND per degree class instead of a sort per vertex.
    """
    degs = [r.bit_count() for r in rows]
    classes: dict[int, int] = {}
    for v, d in enumerate(degs):
        classes[d] = classes.get(d, 0) | 1 << v
    masks = [classes[d] for d in sorted(classes)]
    return [(d, *[-(r & m).bit_count() for m in masks])
            for d, r in zip(degs, rows)]


def _search(g: Graph, keys: list[tuple[int, ...]] | None = None):
    """The labelling search: (best, twins, leaves).

    best is the last vertex order visited that realizes the minimal
    encoding, best[i] the original vertex placed at position i.  The
    search also meets Aut(g): twins holds a pair (v, v0) for each skipped
    twin, whose transposition is an automorphism, and leaves holds every
    earlier order that reaches the minimal encoding, each one giving the
    automorphism leaf o best^-1.  Together they generate Aut(g), since
    each optimal order is an automorphism of best and the search visits
    all of them but those it skips as twins.  They are stored as found;
    canonical_labelling makes permutations.  keys, when given, is
    cell_keys(g.rows).  Raises LabellingBudgetError once the nodes have
    cost more than LABEL_BUDGET, each (level + 1) times its candidates.
    """
    n = g.n
    rows = g.rows
    twins: list[tuple[int, int]] = []
    leaves: list[list[int]] = []
    if n <= 1:
        return list(range(n)), twins, leaves
    if keys is None:
        keys = cell_keys(rows)
    cells: dict[tuple, list[int]] = {}
    for v in range(n):
        cells.setdefault(keys[v], []).append(v)
    # positions are handed out cell by cell in key order
    cell_of_level = []
    for key in sorted(cells):
        cell_of_level.extend([cells[key]] * len(cells[key]))

    best: list[int] = []  # column values of the best encoding prefix
    best_perm: list[int] = []
    placed: list[int] = []
    fresh = True  # the path improves on the best encoding seen so far
    budget = LABEL_BUDGET
    spent = 0

    def dfs(level: int, used: int) -> None:
        nonlocal fresh, spent
        if level == n:
            # the last order to reach the best encoding is the one returned;
            # isomorphism, and so every certificate's map, is built from it
            if fresh:
                leaves.clear()
                fresh = False
            else:
                leaves.append(best_perm[:])
            best_perm[:] = placed
            return
        cands = []
        for v in cell_of_level[level]:
            if used >> v & 1:
                continue
            rv = rows[v]
            col = 0
            for w in placed:
                col = col << 1 | (rv >> w & 1)
            cands.append((col, v))
        spent += (level + 1) * len(cands)
        if spent > budget:
            raise LabellingBudgetError(budget, to_graph6(g))
        cands.sort()
        tried: list[tuple[int, int]] = []
        for col, v in cands:
            if level < len(best):
                if col > best[level]:
                    break
                if col < best[level]:
                    best[level] = col
                    del best[level + 1:]
                    fresh = True
            else:
                best.append(col)
            # identical subtrees: skip v when a tried candidate with the
            # same column is its interchangeable twin
            skip = False
            for c0, v0 in tried:
                if c0 == col:
                    excl = ~((1 << v) | (1 << v0))
                    if rows[v] & excl == rows[v0] & excl:
                        twins.append((v, v0))
                        skip = True
                        break
            if skip:
                continue
            placed.append(v)
            dfs(level + 1, used | 1 << v)
            placed.pop()
            tried.append((col, v))

    dfs(0, 0)
    return best_perm, twins, leaves


def _intern(g: Graph, perm: list[int]) -> Graph:
    """g relabelled by perm, as the form cache's object for its class."""
    pos = [0] * g.n
    for i, v in enumerate(perm):
        pos[v] = i
    rows = [0] * g.n
    for i, v in enumerate(perm):
        m = 0
        for w in _bits(g.rows[v]):
            m |= 1 << pos[w]
        rows[i] = m
    form = Graph._make(g.n, tuple(rows))
    form = _FORMS.get(form, form)
    cache_insert(_FORMS, form, form)
    return form


def canonical_labelling(
    g: Graph, keys: list[tuple[int, ...]] | None = None
) -> tuple[Graph, tuple[int, ...], list[tuple[int, ...]]]:
    """(form, perm, generators) of one labelling search on g.

    form is canonical_form(g); perm[i] is the vertex of g placed at
    position i of form; each generator p is an automorphism of g, p[v] the
    image of v, and together they generate Aut(g) (none when it is
    trivial).  The form is interned in the form cache, but g itself is not
    memoised, so one-shot inputs do not fill the cache.  keys, when given,
    is cell_keys(g.rows), computed by a caller that screened g with it.
    """
    best, twins, leaves = _search(g, keys)
    gens: dict[tuple[int, ...], None] = {}
    ident = list(range(g.n))
    for v, v0 in twins:
        p = ident[:]
        p[v], p[v0] = v0, v
        gens[tuple(p)] = None
    for leaf in leaves:
        p = ident[:]
        for b, lv in zip(best, leaf):
            p[b] = lv
        gens[tuple(p)] = None
    return _intern(g, best), tuple(best), list(gens)


def canonical_form(g: Graph) -> Graph:
    """The canonically relabelled representative of g's isomorphism class.

    While the cache has room, every call for one class returns the same
    object."""
    form = _FORMS.get(g)
    if form is not None:
        return form
    form = _intern(g, _search(g)[0])
    cache_insert(_FORMS, g, form)
    return form


def canonical_key(g: Graph) -> str:
    """graph6 string of the canonical form; equal keys iff isomorphic."""
    return to_graph6(canonical_form(g))


def _invariants_differ(g: Graph, h: Graph) -> bool:
    return (g.n != h.n or g.num_edges != h.num_edges
            or g.degree_sequence() != h.degree_sequence())


def is_isomorphic(g: Graph, h: Graph) -> bool:
    if _invariants_differ(g, h):
        return False
    return canonical_form(g) == canonical_form(h)


def isomorphism(g: Graph, h: Graph) -> list[int] | None:
    """A bijection phi with phi[v] in h for v in g, or None.

    Composes the canonical permutations of one labelling of each side, so
    correctness follows from the canonical forms being equal.
    """
    if _invariants_differ(g, h):
        return None
    fg, pg, _ = canonical_labelling(g)
    fh, ph, _ = canonical_labelling(h)
    if fg != fh:
        return None
    phi = [0] * g.n
    for i in range(g.n):
        phi[pg[i]] = ph[i]
    return phi


def find_induced_embedding(pattern: Graph, host: Graph) -> list[int] | None:
    """Map pattern vertices injectively into host preserving both edges and
    non-edges; returns phi with phi[p] a host vertex, or None.

    Backtracking over the pattern vertices, most anchored first, with a
    bitmask domain per vertex (Ullmann's refinement, as in VF2): the host
    vertices of at least its degree, minus the used ones, ANDed with the
    row of each placed vertex or with its complement, as the pattern
    adjacency asks.  A branch ends as soon as its domain is empty.  The
    domain's vertices are tried in ascending order, so the embedding
    returned is the first one in that order.

    A candidate that fails takes its host twins out of the domain with it
    (the twin rule of _search): host vertices a and b are twins when
    rows[a] and rows[b] agree off {a, b}, that is, when they have equal
    open or equal closed neighbourhoods.  Swapping a failed candidate c
    with an unused twin is an automorphism of the host that fixes every
    image already placed and keeps every degree, so it maps any extension
    through the twin to one through c; the twin would fail too.  Only
    failing candidates are skipped, so the embedding returned is still the
    first one in ascending order.  Cliques and multipartite classes, whose
    members are all twins, are tried once per level instead of once per
    member.
    """
    k, n = pattern.n, host.n
    if k > n or pattern.num_edges > host.num_edges:
        return None
    # order pattern vertices to place constrained ones early
    order: list[int] = []
    seen = 0
    pdeg = [pattern.degree(v) for v in range(k)]
    while len(order) < k:
        bestv, bestkey = -1, (-1, -1)
        for v in range(k):
            if seen >> v & 1:
                continue
            anchored = (pattern.rows[v] & seen).bit_count()
            key = (anchored, pdeg[v])
            if key > bestkey:
                bestv, bestkey = v, key
        order.append(bestv)
        seen |= 1 << bestv
    hrows = host.rows
    hdeg = [r.bit_count() for r in hrows]
    # each host vertex's twins, itself included: the vertices with its open
    # neighbourhood and those with its closed one
    opened: dict[int, int] = {}
    closed: dict[int, int] = {}
    for c, r in enumerate(hrows):
        opened[r] = opened.get(r, 0) | 1 << c
        closed[r | 1 << c] = closed.get(r | 1 << c, 0) | 1 << c
    twins = [opened[r] | closed[r | 1 << c] for c, r in enumerate(hrows)]
    # per level: the host vertices of high enough degree, and for each
    # earlier level whether the pattern wants an edge to it
    levels = []
    for i, p in enumerate(order):
        start = 0
        for c in range(n):
            if hdeg[c] >= pdeg[p]:
                start |= 1 << c
        links = [(j, pattern.rows[p] >> order[j] & 1) for j in range(i)]
        levels.append((start, links))
    image = [0] * k  # host vertex placed at each level

    def dfs(i: int, used: int) -> bool:
        if i == k:
            return True
        start, links = levels[i]
        dom = start & ~used
        for j, adjacent in links:
            row = hrows[image[j]]
            dom &= row if adjacent else ~row
            if not dom:
                return False
        while dom:
            low = dom & -dom
            c = low.bit_length() - 1
            image[i] = c
            if dfs(i + 1, used | low):
                return True
            dom &= ~twins[c]
        return False

    if not dfs(0, 0):
        return None
    phi = [0] * k
    for i, p in enumerate(order):
        phi[p] = image[i]
    return phi


def has_induced(pattern: Graph, host: Graph) -> bool:
    return find_induced_embedding(pattern, host) is not None
