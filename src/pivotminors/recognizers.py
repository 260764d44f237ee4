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
"""

from __future__ import annotations

from dataclasses import dataclass

from .canon import cache_insert, find_induced_embedding
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
    complement,
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
    obstruction_name: str | None = None
    detail: str | None = None

    @property
    def contains(self) -> bool:
        return self.verdict == "contains"


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
    """Vertices of a shortest odd cycle in cyclic order.

    Minimality makes the returned cycle chordless, which the caller relies
    on.  Requires a non-bipartite graph.
    """
    best_len = g.n + 1
    best: list[int] | None = None
    for root in range(g.n):
        if best_len == 3:
            break  # a triangle is as short as odd cycles get
        dist = {root: 0}
        parent = {root: -1}
        layer = [root]
        while layer:
            nxt = []
            for u in layer:
                for w in _bits(g.rows[u]):
                    if w not in dist:
                        dist[w] = dist[u] + 1
                        parent[w] = u
                        nxt.append(w)
            layer = nxt
        for u, v in g.edges():
            if u in dist and v in dist and dist[u] == dist[v]:
                length = dist[u] + dist[v] + 1
                if length < best_len:
                    # walk both tree paths up to the root together
                    pu, pv = [u], [v]
                    for _ in range(dist[u]):
                        pu.append(parent[pu[-1]])
                        pv.append(parent[pv[-1]])
                    cycle = pu[::-1] + pv[:-1]
                    if len(set(cycle)) == len(cycle):
                        best_len = length
                        best = cycle
    if best is None:
        raise ValueError("graph is bipartite, no odd cycle exists")
    assert len(best) % 2 == 1
    # chordless: a chord would yield a shorter odd cycle
    for i in range(len(best)):
        for j in range(i + 2, len(best)):
            if (i, j) != (0, len(best) - 1):
                assert not g.has_edge(best[i], best[j]), "cycle has a chord"
    return best


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
            return RecognitionResult(
                target_name, "contains", method,
                certificate=cert, obstruction_name=name,
            )
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
    return RecognitionResult(
        "C3", "contains", "odd-cycle extraction",
        certificate=cert, obstruction_name=f"C{k}",
    )


# -- P4 and C4 ----------------------------------------------------------------

def _is_clique(g: Graph, members: list[int]) -> bool:
    mask = 0
    for v in members:
        mask |= 1 << v
    return all(g.rows[v] & mask == mask & ~(1 << v) for v in members)


def _is_clique_star(sub: Graph) -> bool:
    """Complete graph, or a clique joined completely to otherwise
    disconnected cliques."""
    n = sub.n
    full = (1 << n) - 1
    universal = [v for v in range(n) if sub.rows[v] == full & ~(1 << v)]
    if not universal:
        return False
    rest = [v for v in range(n) if v not in universal]
    remainder = induced_subgraph(sub, rest)
    return all(
        _is_clique(remainder, comp) for comp in connected_components(remainder)
    )


def _recognize_via_clique_stars(g: Graph, target_name: str) -> RecognitionResult:
    method = "clique-star decomposition"
    comps = connected_components(g)
    if all(_is_clique_star(induced_subgraph(g, c)) for c in comps):
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
        sub = induced_subgraph(g, comp)
        if _is_clique(sub, range(sub.n)) or bipartition(sub) is not None:
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
        return RecognitionResult(
            target_name, "contains", method,
            certificate=cert, obstruction_name=f"C{k}",
        )
    return RecognitionResult(target_name, "free", method)


def recognize_paw(g: Graph) -> RecognitionResult:
    """Free iff every component is bipartite or complete."""
    return _recognize_via_bipartite_or_complete(g, "paw")


def recognize_diamond(g: Graph) -> RecognitionResult:
    """Same class as paw-freeness; only the certificates differ."""
    return _recognize_via_bipartite_or_complete(g, "diamond")


# -- 2P2 ----------------------------------------------------------------------

def _is_leaf_attached_multipartite(sub: Graph) -> bool:
    """Connected graph with an edge: complete multipartite plus pendant
    leaves on singleton classes.

    Degree-one vertices are exactly the leaves except in P2, where both
    endpoints may be read as the core; that ambiguity is special-cased.
    """
    leaves = [v for v in range(sub.n) if sub.degree(v) == 1]
    core = [v for v in range(sub.n) if sub.degree(v) != 1]
    if not core:
        return sub.n == 2  # every vertex has degree 1: the component is P2
    csub = induced_subgraph(sub, core)
    # complete multipartite iff the complement is a union of cliques
    comp = complement(csub)
    if not all(_is_clique(comp, c) for c in connected_components(comp)):
        return False
    cfull = (1 << csub.n) - 1
    universal = {
        core[i] for i in range(csub.n)
        if csub.rows[i] == cfull & ~(1 << i)
    }
    for leaf in leaves:
        nb = sub.rows[leaf].bit_length() - 1
        if nb not in universal:
            return False
    return True


def recognize_2p2(g: Graph) -> RecognitionResult:
    """Free iff at most one component has an edge and that component is an
    induced subgraph of the prism or of W5, or a complete multipartite
    graph with leaves attached to singleton classes."""
    target_name = "2P2"
    comps = connected_components(g)
    edged = [c for c in comps if induced_subgraph(g, c).num_edges > 0]
    if len(edged) >= 2:
        (u1, v1) = next(iter(induced_subgraph(g, edged[0]).edges()))
        (u2, v2) = next(iter(induced_subgraph(g, edged[1]).edges()))
        verts = [edged[0][u1], edged[0][v1], edged[1][u2], edged[1][v2]]
        cert = build_certificate(
            g, verts, [], [0, 1, 2, 3], _NAMED["2P2"],
            obstruction_name="2P2",
        )
        return RecognitionResult(
            target_name, "contains", "component structure",
            certificate=cert, obstruction_name="2P2",
            detail="two components with edges",
        )
    if not edged:
        return RecognitionResult(
            target_name, "free", "component structure", detail="no edges"
        )
    sub = induced_subgraph(g, edged[0])
    if sub.n <= 6:
        for host_name in ("prism", "W5"):
            if find_induced_embedding(sub, _NAMED[host_name]) is not None:
                return RecognitionResult(
                    target_name, "free", "component structure",
                    detail=f"edged component embeds in the {host_name}",
                )
    if _is_leaf_attached_multipartite(sub):
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
    obstruction set.

    When the set stops below the proved order bound the answer "no
    obstruction found" is only conclusive up to that order; such sweeps
    are refused unless allow_truncated is set, and then yield the verdict
    "free-up-to-truncation" instead of "free".
    """
    h = family_target(family, t)
    bound = obstruction_order_bound(family, t)
    target_name = f"{family}[t={t}]"
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
