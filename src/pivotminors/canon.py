"""Canonical forms, isomorphism testing, and induced-subgraph search.

The canonical form of a graph comes from individualisation-refinement
(McKay and Piperno, "Practical graph isomorphism II", J. Symb. Comput.
2014; Junttila and Kaski, bliss, ALENEX 2007).  The vertices start in
cells by their (degree, sorted neighbour degrees) key (cell_keys), in key
order, and refinement splits cells until the vertices of each cell have
equally many neighbours in every cell.  The search tree branches on the
first smallest cell left with more than one vertex, putting each of its
vertices first in turn and refining again; at a leaf every cell is one
vertex, and the adjacency rows relabelled by that order are the leaf's
encoding.  The form is the least encoding over the leaves.  Every step
commutes with relabelling, so two graphs get equal forms exactly when
they are isomorphic.  The form is the library's class identity: memo
tables key on it, and graph6 (the canonical key) only encodes it for
output.  LABELLING numbers this definition for keys stored on disk.

One search finds the form and, on the way, generators of the graph's
automorphism group: a permutation for each leaf whose encoding equals the
best one's, and the twin classes it skips by.  Such a leaf ends the branch
it lies in, the image of one already searched.  Swapping two twins is an
automorphism, so canonical_labelling adds, per twin class, the
transpositions of its least vertex with each other member, which generate
the class's symmetric group.  It returns the form, the order and the
generators; canonical_form and isomorphism use the same search.

The search is bounded by its work, not by the order of its input: each
node costs one unit plus the vertices its refinement reads, and a search
that spends more than LABEL_BUDGET units, some 10 s, raises
LabellingBudgetError, naming its input.  Cycles and cubes label in
milliseconds (C16 costs 1,437 units, C64 73,341); rigid strongly regular
graphs cost most (the Latin-square graph of a random 8 x 8 square, on 64
vertices, about 1.2 million units).

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

# work units of one labelling search; C16 costs 1,437
LABEL_BUDGET = 1 << 23

# version of the canonical forms, saved with keys that outlive a process
LABELLING = 2

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


def _twin_masks(rows: tuple[int, ...]) -> list[int]:
    """Per vertex, its twins, itself included: the vertices with its open
    neighbourhood and those with its closed one."""
    opened: dict[int, int] = {}
    closed: dict[int, int] = {}
    for v, r in enumerate(rows):
        opened[r] = opened.get(r, 0) | 1 << v
        closed[r | 1 << v] = closed.get(r | 1 << v, 0) | 1 << v
    return [opened[r] | closed[r | 1 << v] for v, r in enumerate(rows)]


def _refine(rows, cells: list[int], queue: list[int]) -> tuple[list[int], int]:
    """(cells, reads): the ordered partition cells (vertex masks in position
    order), equitable against each cell not in queue, refined in place
    until it is equitable, and the vertices of the cells tested.  A
    splitter s splits each cell in place by its vertices' neighbours in s,
    fewest first (a one-vertex s by its row, non-neighbours first).  All
    fragments of a waiting cell wait, and all but the first largest of
    another, whose counts follow from the rest (McKay's rule).  Positions
    and sets alone steer each step, so refinement commutes with
    relabelling."""
    n = len(rows)
    waiting = set(queue)
    reads = 0
    for s in queue:  # the queue grows while it is read
        if len(cells) == n:
            break
        if s not in waiting:
            continue  # split since it was queued; its fragments wait
        waiting.discard(s)
        one = not s & (s - 1)
        reach = rows[s.bit_length() - 1]
        for v in () if one else _bits(s):
            reach |= rows[v]
        i = 0
        while i < len(cells):
            c = cells[i]
            i += 1
            if not c & (c - 1) or not c & reach:
                continue
            reads += c.bit_count()
            if one:
                if c & reach == c:
                    continue
                frags = [c & ~reach, c & reach]
            else:
                by: dict[int, int] = {}
                for v in _bits(c):
                    k = (rows[v] & s).bit_count()
                    by[k] = by.get(k, 0) | 1 << v
                if len(by) == 1:
                    continue
                frags = [by[k] for k in sorted(by)]
            cells[i - 1:i] = frags
            i += len(frags) - 1
            if c in waiting:
                waiting.discard(c)
            else:
                sizes = [f.bit_count() for f in frags]
                del frags[sizes.index(max(sizes))]
            queue += frags
            waiting.update(frags)
    return cells, reads


def _encode(rows, cells: list[int]) -> tuple[list[int], tuple[int, ...]]:
    """(perm, rows relabelled by perm) of a discrete partition."""
    perm = [c.bit_length() - 1 for c in cells]
    bit = [0] * len(perm)
    for i, v in enumerate(perm):
        bit[v] = 1 << i
    enc = []
    for v in perm:
        r = rows[v]
        m = 0
        while r:
            low = r & -r
            m |= bit[low.bit_length() - 1]
            r ^= low
        enc.append(m)
    return perm, tuple(enc)


def _search(g: Graph, keys: list[tuple[int, ...]] | None = None):
    """The labelling search of the module docstring: (perm, rows, twin,
    autos).  perm is the first leaf in search order with the least
    encoding, rows that encoding; cells split only in place, so perm[-1]
    lies in the largest cell_keys cell.  twin is _twin_masks(g.rows), by
    which the search skips a child that is the twin of a searched one (()
    when the root partition is discrete, so that Aut(g) is trivial), and
    autos the map best -> leaf for each leaf that repeats the best encoding
    of its time; that leaf ends the search below the node where its path
    leaves the best one's.  Only subtrees that these automorphisms and twin
    swaps map onto searched ones are skipped, so the least encoding is a
    class invariant and together they generate Aut(g).  keys, when given,
    is cell_keys(g.rows).
    """
    n = g.n
    rows = g.rows
    if keys is None:
        keys = cell_keys(rows)
    by: dict[tuple, int] = {}
    for v, key in enumerate(keys):
        by[key] = by.get(key, 0) | 1 << v
    cells = [by[key] for key in sorted(by)]
    autos: list[tuple[int, ...]] = []
    spent = 0
    if len(cells) < n:
        # a cell shares one degree, so its counts in the cell left out
        # follow from its counts in the rest (McKay's rule)
        queue = cells[:]
        sizes = [c.bit_count() for c in queue]
        del queue[sizes.index(max(sizes))]
        cells, spent = _refine(rows, cells, queue)
    if len(cells) == n:
        return (*_encode(rows, cells), (), autos)
    twin = _twin_masks(rows)
    best: list = []  # encoding, perm and path of the best leaf
    path: list[int] = []

    def dfs(cells: list[int]) -> int:
        """Search below this node; the depth to resume at, or n."""
        nonlocal spent
        if len(cells) == n:
            perm, enc = _encode(rows, cells)
            if not best or enc < best[0]:
                best[:] = enc, perm, path[:]
            if enc != best[0] or perm is best[1]:
                return n
            autos.append(tuple(v for _, v in sorted(zip(best[1], perm))))
            d = 0
            while path[d] == best[2][d]:
                d += 1
            return d
        depth = len(path)
        sizes = [c.bit_count() if c & (c - 1) else n + 1 for c in cells]
        t = sizes.index(min(sizes))
        target, head, tail = cells[t], cells[:t], cells[t + 1:]
        tried = 0
        for v in _bits(target):
            if twin[v] & tried:
                continue
            tried |= 1 << v
            child, reads = _refine(
                rows, head + [1 << v, target ^ 1 << v] + tail, [1 << v])
            spent += 1 + reads
            if spent > LABEL_BUDGET:
                raise LabellingBudgetError(LABEL_BUDGET, to_graph6(g))
            path.append(v)
            resume = dfs(child)
            path.pop()
            if resume < depth:
                return resume
        return n

    dfs(cells)
    return best[1], best[0], twin, autos


def _intern(n: int, rows: tuple[int, ...]) -> Graph:
    """The graph with these rows, as the form cache's object for its class."""
    form = Graph._make(n, rows)
    form = _FORMS.get(form, form)
    cache_insert(_FORMS, form, form)
    return form


def canonical_labelling(
    g: Graph, keys: list[tuple[int, ...]] | None = None
) -> tuple[Graph, tuple[int, ...], list[tuple[int, ...]]]:
    """(form, perm, generators) of one labelling search on g.

    form is canonical_form(g); perm[i] is the vertex of g placed at
    position i of form, at the first leaf of the search, children in
    ascending vertex order, that reaches the least encoding.  Each
    generator p is an automorphism of g, p[v] the image of v, and
    together they generate Aut(g) (none when it is trivial): first the
    maps between leaves with equal encodings, then, for each twin class of
    two or more vertices, the transposition of its least vertex with each
    other member.  The form is interned in the form cache, but g itself is
    not memoised, so one-shot inputs do not fill the cache.  keys, when
    given, is cell_keys(g.rows), computed by a caller that screened g
    with it.
    """
    perm, rows, twin, autos = _search(g, keys)
    gens = dict.fromkeys(autos)
    for cls in dict.fromkeys(twin):
        v0 = (cls & -cls).bit_length() - 1
        for v in _bits(cls & (cls - 1)):
            p = list(range(g.n))
            p[v], p[v0] = v0, v
            gens[tuple(p)] = None
    return _intern(g.n, rows), tuple(perm), list(gens)


def canonical_form(g: Graph) -> Graph:
    """The canonically relabelled representative of g's isomorphism class.

    While the cache has room, every call for one class returns the same
    object."""
    form = _FORMS.get(g)
    if form is not None:
        return form
    form = _intern(g.n, _search(g)[1])
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
    twins = _twin_masks(hrows)
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
