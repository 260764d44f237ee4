"""Certifying polynomial-time recognizers for pivot-minor-free classes.

Each recognizer decides whether a graph avoids a fixed target as a
pivot-minor, using the structural characterization of the class rather
than the exponential containment search.  A "contains" verdict always
comes with a certificate: a concrete minimal forbidden induced subgraph
in the input plus a pivot sequence turning that subgraph into the target,
so the claim can be replayed independently.

Obstruction lists used here:
  C3       -> odd cycles (equivalently: free iff bipartite)
  P4, C4   -> P4, C4, dart (free iff every component is a clique-star)
  paw, diamond -> paw, diamond, odd holes (free iff every component is
                  bipartite or complete)
  2P2      -> O1..O9 (free iff at most one component has an edge and that
              component embeds in the prism or W5 or is a complete
              multipartite graph with leaves on singleton classes)
  3P1      -> 3P1, W4, co-BW3
  claw     -> claw, P5, bull, W4, co-BW3

The searched lists live in one table, _OBSTRUCTIONS, and one search,
_search_obstructions, certifies what it finds, each pivot sequence found
once per (obstruction, target) pair.  Odd cycles, and 2P2's two edged
components, are certified by hand; a paw/diamond component with a
triangle is certified by a search for diamond, then paw.

The odd cycle is a shortest one, so it has no chord: the one that the
per-root scan of Itai and Rodeh (SIAM J. Comput. 1978) returns, found with
every root's BFS grown at once over bitsets, so an odd hole on k vertices
costs (k - 1) / 2 layers over all roots, not k breadth-first searches.
"""

from __future__ import annotations

from dataclasses import dataclass

from .canon import cache_insert, canonical_key, find_induced_embedding
from .catalog import named_graph
from .certificates import (
    Certificate,
    DeleteVertex,
    PivotEdge,
    Step,
    build_certificate,
    find_pivot_minor_sequence,
)
from .containment import PivotMinorCache
from .graphs import (
    Graph,
    _bits,
    bipartition,
    connected_components,
    induced_subgraph,
)
from .obstructions import (
    ObstructionSet,
    family_target,
    obstruction_order_bound,
)


@dataclass
class RecognitionResult:
    target: str
    verdict: str  # "free" | "contains" | "free-up-to-truncation"
    method: str
    certificate: Certificate | None = None
    detail: str | None = None

    @property
    def contains(self) -> bool:
        return self.verdict == "contains"

    @property
    def obstruction_name(self) -> str | None:
        return self.certificate.obstruction_name if self.certificate else None


# the induced obstructions each search looks for, in search order
_OBSTRUCTIONS = {key: [(name, named_graph(name)) for name in names.split()]
                 for key, names in (("clique-star", "P4 C4 dart"),
                                    ("triangle", "diamond paw"),
                                    ("2P2", "O1 O2 O3 O7 O9 O4 O5 O6 O8"),
                                    ("3P1", "3P1 W4 co-BW3"),
                                    ("claw", "claw P5 bull W4 co-BW3"))}
# the eight targets, C5 (longer odd holes are shrunk to it), prism and W5
_NAMED = {name: named_graph(name) for name in
          "C3 P4 C4 paw diamond 2P2 3P1 claw C5 prism W5".split()}

# (obstruction, target) -> steps and final bijection carrying the labelled
# obstruction onto the labelled target
_SEQUENCES: dict[tuple[Graph, Graph], tuple[list[Step], list[int]]] = {}


def _sequence(obs: Graph, target: Graph, cache: PivotMinorCache | None = None):
    found = _SEQUENCES.get((obs, target))
    if found is None:
        found = find_pivot_minor_sequence(obs, target, cache=cache)
        assert found is not None, "an obstruction contains its target"
        cache_insert(_SEQUENCES, (obs, target), found)
    return found


def _odd_cycle_steps(k: int, floor: int) -> list[Step]:
    """Shrink the standard-labelled C_k to C_floor, two vertices a round:
    pivot one cycle edge, delete both endpoints, and what remains is the
    next smaller cycle in standard labelling again."""
    steps: list[Step] = []
    while k > floor:
        steps += [PivotEdge(0, 1), DeleteVertex(1), DeleteVertex(0)]
        k -= 2
    return steps


def _shortest_odd_cycle(g: Graph) -> list[int]:
    """Vertices of a shortest odd cycle in cyclic order: the walk of the
    first root, in ascending order, whose BFS meets an edge inside a layer
    at the odd girth, as the scan of one root after another returns it.
    _first_odd_root finds that root with every root's BFS grown at once,
    and only its tree is grown.  Minimality makes the walk a chordless
    cycle, which the caller relies on.  Requires a non-bipartite graph.
    """
    root = _first_odd_root(g)
    if root is None:
        raise ValueError("graph is bipartite, no odd cycle exists")
    rows = g.rows
    best = _odd_walk(rows, root)
    k = len(best)
    assert k % 2 == 1
    # a simple cycle without chords: each vertex sees exactly its two
    # cycle neighbours on the cycle (a chord would yield a shorter odd cycle)
    on_cycle = 0
    for v in best:
        on_cycle |= 1 << v
    assert on_cycle.bit_count() == k, "cycle repeats a vertex"
    for i, v in enumerate(best):
        ends = 1 << best[i - 1] | 1 << best[(i + 1) % k]
        assert rows[v] & on_cycle == ends, "cycle has a chord"
    return best


def _first_odd_root(g: Graph) -> int | None:
    """The lowest root whose BFS has an edge inside layer d, for the least
    such d, or None when the graph is bipartite.  All roots grow at once,
    as bitsets over the roots: front[v] holds the roots with a walk of d
    edges to v (layer 1 is the rows), and an edge uv with r in front[u] &
    front[v] closes an odd walk of length 2d + 1 through r.  Such a walk
    holds an odd cycle no longer than itself, so none closes below the odd
    girth 2d* + 1; at d* it is a shortest odd cycle, on which u and v lie
    at distance d* from r, inside r's BFS layer.  So walks find the same
    roots as BFS layers, without a mask of the vertices reached.  Layer 1
    is settled root by root while layer 2 is built: front[r] is the union
    of r's neighbours' rows, and r lies on a triangle as soon as one of
    them meets rows[r], so the scan stops at the lowest such root.  An odd
    cycle has at most n vertices, so no layer past n // 2 is grown."""
    rows = g.rows
    front = []
    for r in range(g.n):
        row, two = rows[r], 0
        for u in _bits(row):
            if rows[u] & row:
                return r
            two |= rows[u]
        front.append(two)
    edges = list(g.edges())
    for _ in range(2, g.n // 2 + 1):
        inner, reach = 0, [0] * g.n
        for u, v in edges:
            fu, fv = front[u], front[v]
            inner |= fu & fv
            reach[u] |= fv
            reach[v] |= fu
        if inner:
            return (inner & -inner).bit_length() - 1
        front = reach
    return None


def _odd_walk(rows: tuple[int, ...], root: int) -> list[int]:
    """The odd closed walk of root's BFS tree at its first edge inside a
    layer, for a root whose BFS has one.  Layers are in discovery order and
    every vertex's parent is its first discoverer; the edge is the
    lexicographically first uv, u < v, inside the layer, and the walk runs
    from u up the tree to root and down to v.  If the tree paths meet below
    root, at x, they close a shorter odd cycle through x; at the shortest
    length they meet only at root, and the walk is a cycle."""
    parent = [0] * len(rows)
    layer, mask = [root], 1 << root
    seen = mask
    d = 0
    while layer:
        for u in _bits(mask):
            above = rows[u] & mask >> (u + 1) << (u + 1)
            if above:
                pu, pv = [u], [(above & -above).bit_length() - 1]
                for _ in range(d):
                    pu.append(parent[pu[-1]])
                    pv.append(parent[pv[-1]])
                return pu[::-1] + pv[:-1]
        nxt, mask = [], 0
        for u in layer:
            new = rows[u] & ~seen
            seen |= new
            mask |= new
            for w in _bits(new):
                parent[w] = u
                nxt.append(w)
        layer = nxt
        d += 1
    raise AssertionError("root's BFS has no edge inside a layer")


def _search_obstructions(
    g: Graph, obstructions: list[tuple[str | None, Graph]], target: Graph,
    target_name: str, method: str, cache: PivotMinorCache | None = None,
) -> RecognitionResult:
    """Certifies the first obstruction of the list that g induces; "free"
    when g induces none."""
    for name, obs in obstructions:
        emb = find_induced_embedding(obs, g)
        if emb is not None:
            steps, iso = _sequence(obs, target, cache)
            cert = build_certificate(
                g, emb, steps, iso, target, obstruction_name=name
            )
            return RecognitionResult(target_name, "contains", method, cert)
    return RecognitionResult(target_name, "free", method)


# -- C3 ---------------------------------------------------------------------

def recognize_c3(g: Graph) -> RecognitionResult:
    """Free iff bipartite; otherwise a shortest odd cycle certifies."""
    if bipartition(g) is not None:
        return RecognitionResult("C3", "free", "bipartiteness check")
    cycle = _shortest_odd_cycle(g)
    k = len(cycle)
    steps = _odd_cycle_steps(k, 3)
    cert = build_certificate(
        g, cycle, steps, [0, 1, 2], _NAMED["C3"], obstruction_name=f"C{k}"
    )
    return RecognitionResult("C3", "contains", "odd-cycle extraction", cert)


# -- P4 and C4 ----------------------------------------------------------------

def _twin_classes(rows: tuple[int, ...], mask: int, closed: bool) -> bool:
    """Whether mask splits into classes of twins.  With closed, a class is
    a vertex and its neighbours, each seeing the rest of the class: mask
    induces disjoint cliques.  Without, a class is a vertex and its
    non-neighbours, each seeing all of mask outside the class: mask
    induces a complete multipartite graph."""
    todo = mask
    while todo:
        v = (todo & -todo).bit_length() - 1
        nb = rows[v] & mask
        cls = nb | 1 << v if closed else mask & ~nb
        if any(rows[u] & mask != (cls ^ 1 << u if closed else nb)
               for u in _bits(cls)):
            return False
        todo &= ~cls
    return True


def _is_clique_star(rows: tuple[int, ...], comp: int) -> bool:
    """Complete graph, or a clique joined completely to otherwise
    disconnected cliques."""
    universal = sum(1 << v for v in _bits(comp)
                    if rows[v] & comp == comp ^ 1 << v)
    return universal != 0 and _twin_classes(rows, comp & ~universal, True)


def _recognize_via_clique_stars(g: Graph, target_name: str) -> RecognitionResult:
    method = "clique-star decomposition"
    comps = connected_components(g)
    if all(_is_clique_star(g.rows, sum(1 << v for v in c)) for c in comps):
        return RecognitionResult(target_name, "free", method)
    result = _search_obstructions(g, _OBSTRUCTIONS["clique-star"],
                                  _NAMED[target_name], target_name, method)
    assert result.contains, "clique-star test failed but no obstruction found"
    return result


def recognize_p4(g: Graph) -> RecognitionResult:
    """Free iff every component is a clique-star."""
    return _recognize_via_clique_stars(g, "P4")


def recognize_c4(g: Graph) -> RecognitionResult:
    """Same class as P4-freeness; only the certificates differ."""
    return _recognize_via_clique_stars(g, "C4")


# -- paw and diamond ----------------------------------------------------------

def _recognize_via_bipartite_or_complete(
    g: Graph, target_name: str
) -> RecognitionResult:
    method = "bipartite-or-complete decomposition"
    target = _NAMED[target_name]
    for comp in connected_components(g):
        if _twin_classes(g.rows, sum(1 << v for v in comp), True):
            continue  # complete
        sub = induced_subgraph(g, comp)
        if bipartition(sub) is not None:
            continue
        cycle = _shortest_odd_cycle(sub)
        k = len(cycle)
        if k == 3:
            # a connected, non-complete graph with a triangle has an induced
            # diamond or paw: a vertex outside a maximal clique through the
            # triangle, but next to it, misses a clique vertex and sees one
            # (paw) or at least two (diamond), so this search always succeeds
            result = _search_obstructions(g, _OBSTRUCTIONS["triangle"],
                                          target, target_name, method)
            assert result.contains, "a triangle component has no paw or diamond"
            return result
        steps = _odd_cycle_steps(k, 5)
        tail, iso = _sequence(_NAMED["C5"], target)
        cert = build_certificate(
            g, [comp[i] for i in cycle], steps + tail, iso, target,
            obstruction_name=f"C{k}",
        )
        return RecognitionResult(target_name, "contains", method, cert)
    return RecognitionResult(target_name, "free", method)


def recognize_paw(g: Graph) -> RecognitionResult:
    """Free iff every component is bipartite or complete."""
    return _recognize_via_bipartite_or_complete(g, "paw")


def recognize_diamond(g: Graph) -> RecognitionResult:
    """Same class as paw-freeness; only the certificates differ."""
    return _recognize_via_bipartite_or_complete(g, "diamond")


# -- 2P2 ----------------------------------------------------------------------

def _is_leaf_attached_multipartite(rows: tuple[int, ...], comp: int) -> bool:
    """Connected graph with an edge: complete multipartite plus pendant
    leaves on singleton classes.

    Degree-one vertices are exactly the leaves except in P2, where both
    endpoints may be read as the core; that ambiguity is special-cased.
    """
    leaves = sum(1 << v for v in _bits(comp) if rows[v].bit_count() == 1)
    core = comp & ~leaves
    if not core:
        return comp.bit_count() == 2  # every vertex has degree 1: P2
    universal = sum(1 << v for v in _bits(core)
                    if rows[v] & core == core ^ 1 << v)
    return (_twin_classes(rows, core, False)
            and all(rows[leaf] & universal for leaf in _bits(leaves)))


def recognize_2p2(g: Graph) -> RecognitionResult:
    """Free iff at most one component has an edge and that component is an
    induced subgraph of the prism or of W5, or a complete multipartite
    graph with leaves attached to singleton classes."""
    target_name = "2P2"
    # a connected component has an edge exactly when it has two vertices
    # or more
    edged = [c for c in connected_components(g) if len(c) > 1]
    if len(edged) >= 2:
        # an edge of each: its first vertex and that vertex's lowest neighbour
        verts = []
        for c in edged[:2]:
            nb = g.rows[c[0]]
            verts += [c[0], (nb & -nb).bit_length() - 1]
        cert = build_certificate(
            g, verts, [], [0, 1, 2, 3], _NAMED["2P2"],
            obstruction_name="2P2",
        )
        return RecognitionResult(
            target_name, "contains", "component structure", cert,
            detail="two components with edges",
        )
    if not edged:
        return RecognitionResult(
            target_name, "free", "component structure", detail="no edges"
        )
    if len(edged[0]) <= 6:
        sub = induced_subgraph(g, edged[0])
        for host_name in ("prism", "W5"):
            if find_induced_embedding(sub, _NAMED[host_name]) is not None:
                return RecognitionResult(
                    target_name, "free", "component structure",
                    detail=f"edged component embeds in the {host_name}",
                )
    if _is_leaf_attached_multipartite(g.rows, sum(1 << v for v in edged[0])):
        return RecognitionResult(
            target_name, "free", "component structure",
            detail="edged component is leaf-attached complete multipartite",
        )
    result = _search_obstructions(g, _OBSTRUCTIONS["2P2"], _NAMED["2P2"],
                                  target_name, "component structure")
    assert result.contains, "2P2 structure test failed but no O_i found"
    return result


# -- 3P1 and claw -------------------------------------------------------------

def recognize_3p1(g: Graph) -> RecognitionResult:
    """Free iff none of 3P1, W4, co-BW3 appears as an induced subgraph."""
    return _search_obstructions(g, _OBSTRUCTIONS["3P1"], _NAMED["3P1"],
                                "3P1", "forbidden-subgraph search")


def recognize_claw(g: Graph) -> RecognitionResult:
    """Free iff none of claw, P5, bull, W4, co-BW3 appears induced."""
    return _search_obstructions(g, _OBSTRUCTIONS["claw"], _NAMED["claw"],
                                "claw", "forbidden-subgraph search")


# -- bounded families ---------------------------------------------------------

def recognize_bounded(
    g: Graph,
    family: str,
    t: int,
    obstructions: ObstructionSet,
    *,
    allow_truncated: bool = False,
    cache: PivotMinorCache | None = None,
) -> RecognitionResult:
    """Recognize {family target}-pivot-minor-freeness from a mined
    obstruction set, which must have been mined for that target.

    When the set stops below the proved order bound the answer "no
    obstruction found" is only conclusive up to that order; such sweeps
    are refused unless allow_truncated is set, and then yield the verdict
    "free-up-to-truncation" instead of "free".  Certifying a found
    obstruction raises what find_pivot_minor_sequence raises, the error
    of the limit its search hits (containment.LIMITS).
    """
    h = family_target(family, t)
    bound = obstruction_order_bound(family, t)
    target_name = f"{family}[t={t}]"
    if obstructions.target_key != canonical_key(h):
        raise ValueError(f"the obstruction set was mined for "
                         f"{obstructions.target_name}, not for {target_name}")
    complete = obstructions.complete_up_to >= bound
    if not complete and not allow_truncated:
        raise ValueError(
            f"obstruction set stops at n={obstructions.complete_up_to}, below "
            f"the proved bound {bound}; pass allow_truncated to accept a "
            "weaker verdict"
        )
    members = sorted(obstructions.members, key=lambda m: m.n)
    result = _search_obstructions(g, [(None, m) for m in members], h,
                                  target_name, "mined obstruction list", cache)
    if result.contains or complete:
        return result
    return RecognitionResult(
        target_name, "free-up-to-truncation", "mined obstruction list",
        detail=f"no obstruction with at most {obstructions.complete_up_to} "
               f"vertices; the bound is {bound}",
    )


RECOGNIZERS = {
    "C3": recognize_c3,
    "P4": recognize_p4,
    "C4": recognize_c4,
    "paw": recognize_paw,
    "diamond": recognize_diamond,
    "2P2": recognize_2p2,
    "3P1": recognize_3p1,
    "claw": recognize_claw,
    "K1,3": recognize_claw,
}


def recognize(g: Graph, target: str) -> RecognitionResult:
    """Dispatch to the recognizer for one of the eight fixed targets."""
    try:
        fn = RECOGNIZERS[target]
    except KeyError:
        raise ValueError(
            f"no fixed recognizer for {target!r}; available: "
            f"{sorted(RECOGNIZERS)}"
        ) from None
    return fn(g)
