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
"""

from __future__ import annotations

from dataclasses import dataclass

from .canon import find_induced_embedding
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


# canned pivot sequences between fixed named graphs, found once and reused
_SEQ_CACHE: dict[tuple[str, str], tuple[list[Step], list[int]]] = {}


def canned_sequence(obs_name: str, target_name: str) -> tuple[list[Step], list[int]]:
    """Steps and final bijection carrying the named obstruction onto the
    named target."""
    key = (obs_name, target_name)
    if key not in _SEQ_CACHE:
        found = find_pivot_minor_sequence(named_graph(obs_name),
                                          named_graph(target_name))
        if found is None:
            raise ValueError(f"{target_name} is not a pivot-minor of {obs_name}")
        _SEQ_CACHE[key] = found
    steps, iso = _SEQ_CACHE[key]
    return list(steps), list(iso)


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
                    pu = []
                    x = u
                    while x != -1:
                        pu.append(x)
                        x = parent[x]
                    pv = []
                    x = v
                    while x != -1:
                        pv.append(x)
                        x = parent[x]
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


def _certificate_from_embedding(
    g: Graph, obs_name: str, target: Graph, target_name: str,
    embedding: list[int],
) -> Certificate:
    steps, iso = canned_sequence(obs_name, target_name)
    return build_certificate(
        g, embedding, steps, iso, target, obstruction_name=obs_name
    )


def _search_obstructions(
    g: Graph, names: list[str], target_name: str
) -> RecognitionResult | None:
    target = named_graph(target_name)
    for name in names:
        emb = find_induced_embedding(named_graph(name), g)
        if emb is not None:
            cert = _certificate_from_embedding(g, name, target, target_name, emb)
            return RecognitionResult(
                target=target_name,
                verdict="contains",
                method="forbidden-subgraph search",
                certificate=cert,
                obstruction_name=name,
            )
    return None


# -- C3 ---------------------------------------------------------------------

def recognize_c3(g: Graph) -> RecognitionResult:
    """Free iff bipartite; otherwise a shortest odd cycle certifies."""
    if bipartition(g) is not None:
        return RecognitionResult("C3", "free", "bipartiteness check")
    cycle = _shortest_odd_cycle(g)
    k = len(cycle)
    steps = _odd_cycle_steps(k, 3)
    cert = build_certificate(
        g, cycle, steps, [0, 1, 2], named_graph("C3"), obstruction_name=f"C{k}"
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
    if len(universal) == n:
        return True
    if not universal:
        return False
    rest = [v for v in range(n) if v not in universal]
    remainder = induced_subgraph(sub, rest)
    return all(
        _is_clique(remainder, comp) for comp in connected_components(remainder)
    )


def _recognize_via_clique_stars(g: Graph, target_name: str) -> RecognitionResult:
    comps = connected_components(g)
    if all(_is_clique_star(induced_subgraph(g, c)) for c in comps):
        return RecognitionResult(
            target_name, "free", "clique-star decomposition"
        )
    result = _search_obstructions(g, ["P4", "C4", "dart"], target_name)
    assert result is not None, "clique-star test failed but no obstruction found"
    result.method = "clique-star decomposition"
    return result


def recognize_p4(g: Graph) -> RecognitionResult:
    """Free iff every component is a clique-star."""
    return _recognize_via_clique_stars(g, "P4")


def recognize_c4(g: Graph) -> RecognitionResult:
    """Same class as P4-freeness; only the certificates differ."""
    return _recognize_via_clique_stars(g, "C4")


# -- paw and diamond ----------------------------------------------------------

def _grow_clique(sub: Graph, seed: list[int]) -> list[int]:
    clique = list(seed)
    mask = 0
    for v in clique:
        mask |= 1 << v
    changed = True
    while changed:
        changed = False
        for v in range(sub.n):
            if not mask >> v & 1 and sub.rows[v] & mask == mask:
                clique.append(v)
                mask |= 1 << v
                changed = True
    return clique


def _recognize_via_bipartite_or_complete(
    g: Graph, target_name: str
) -> RecognitionResult:
    target = named_graph(target_name)
    for comp in connected_components(g):
        sub = induced_subgraph(g, comp)
        full = (1 << sub.n) - 1
        if all(sub.rows[v] == full & ~(1 << v) for v in range(sub.n)):
            continue  # complete component
        if bipartition(sub) is not None:
            continue
        cycle = _shortest_odd_cycle(sub)
        k = len(cycle)
        if k >= 5:
            steps = _odd_cycle_steps(k, 5)
            tail, iso = canned_sequence("C5", target_name)
            cert = build_certificate(
                g, [comp[i] for i in cycle], steps + tail, iso, target,
                obstruction_name=f"C{k}",
            )
            return RecognitionResult(
                target_name, "contains", "bipartite-or-complete decomposition",
                certificate=cert, obstruction_name=f"C{k}",
            )
        # a triangle exists: grow it to a maximal clique, then look at a
        # boundary vertex to pin down a paw or a diamond
        clique = _grow_clique(sub, cycle)
        cmask = 0
        for v in clique:
            cmask |= 1 << v
        w = next(
            v for v in range(sub.n)
            if not cmask >> v & 1 and sub.rows[v] & cmask
        )
        inside = sorted(_bits(sub.rows[w] & cmask))
        outside = sorted(_bits(cmask & ~sub.rows[w]))
        if len(inside) >= 2:
            obs_name = "diamond"
            verts = [inside[0], inside[1], w, outside[0]]
        else:
            obs_name = "paw"
            verts = [inside[0], outside[0], outside[1], w]
        steps, iso = canned_sequence(obs_name, target_name)
        cert = build_certificate(
            g, [comp[i] for i in verts], steps, iso, target,
            obstruction_name=obs_name,
        )
        return RecognitionResult(
            target_name, "contains", "bipartite-or-complete decomposition",
            certificate=cert, obstruction_name=obs_name,
        )
    return RecognitionResult(
        target_name, "free", "bipartite-or-complete decomposition"
    )


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


_O_NAMES = ["O1", "O2", "O3", "O7", "O9", "O4", "O5", "O6", "O8"]


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
            g, verts, [], [0, 1, 2, 3], named_graph("2P2"),
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
            if find_induced_embedding(sub, named_graph(host_name)) is not None:
                return RecognitionResult(
                    target_name, "free", "component structure",
                    detail=f"edged component embeds in the {host_name}",
                )
    if _is_leaf_attached_multipartite(sub):
        return RecognitionResult(
            target_name, "free", "component structure",
            detail="edged component is leaf-attached complete multipartite",
        )
    result = _search_obstructions(g, _O_NAMES, target_name)
    assert result is not None, "2P2 structure test failed but no O_i found"
    result.method = "component structure"
    return result


# -- 3P1 and claw -------------------------------------------------------------

def recognize_3p1(g: Graph) -> RecognitionResult:
    """Free iff none of 3P1, W4, co-BW3 appears as an induced subgraph."""
    result = _search_obstructions(g, ["3P1", "W4", "co-BW3"], "3P1")
    if result is not None:
        return result
    return RecognitionResult("3P1", "free", "forbidden-subgraph search")


def recognize_claw(g: Graph) -> RecognitionResult:
    """Free iff none of claw, P5, bull, W4, co-BW3 appears induced."""
    result = _search_obstructions(
        g, ["claw", "P5", "bull", "W4", "co-BW3"], "claw"
    )
    if result is not None:
        return result
    return RecognitionResult("claw", "free", "forbidden-subgraph search")


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
    for member in sorted(obstructions.members, key=lambda m: m.n):
        emb = find_induced_embedding(member, g)
        if emb is not None:
            found = find_pivot_minor_sequence(member, h, cache=cache)
            assert found is not None
            steps, iso = found
            cert = build_certificate(g, emb, steps, iso, h)
            return RecognitionResult(
                target_name, "contains", "mined obstruction list",
                certificate=cert, obstruction_name=None,
            )
    if complete:
        return RecognitionResult(target_name, "free", "mined obstruction list")
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
