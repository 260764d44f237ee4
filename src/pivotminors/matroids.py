"""Fundamental graphs of cycle matroids and the Hamiltonicity reduction.

The fundamental graph of a connected graph G with respect to a spanning
tree T is bipartite: its vertices are the edges of G, and a tree edge e is
joined to a co-tree edge f exactly when e lies on the tree path between
the endpoints of f (equivalently, when exchanging e and f yields another
spanning tree).  For a connected cubic G on n >= 5 vertices, G has a
Hamiltonian cycle if and only if this fundamental graph contains K_{1,n-1}
as a pivot-minor, which turns a desk-size Hamiltonicity instance into a
pivot-minor containment instance.

reduction_roundtrip runs both sides.  The direct side, is_hamiltonian,
refuses graphs above HAMILTON_MAX_VERTICES (12), a limit of time: its
backtracking is exponential in the order.  The containment side has no
order cap.  The gadget of an n-vertex cubic graph has 3n/2 vertices, 18
for n = 12, and labels in under 2,000 of canon.LABEL_BUDGET's units (the
Petersen graph's in about 0.2 ms); a query that spends any of
containment.LIMITS is INCONCLUSIVE, with a warning naming the limit and
the graph, and the report's sides_agree is then None.
"""

from __future__ import annotations

from dataclasses import dataclass

from .canon import canonical_key
from .catalog import star_graph
from .containment import PivotMinorCache, Verdict, contains_pivot_minor
from .graphs import Graph, _bits, connected_components, is_connected
from .io import to_graph6

# backtracking takes time exponential in the order
HAMILTON_MAX_VERTICES = 12


def spanning_tree(g: Graph) -> list[tuple[int, int]]:
    """Breadth-first spanning tree from vertex 0, neighbours in label
    order; deterministic.  Requires a connected graph."""
    if g.n == 0:
        return []
    if not is_connected(g):
        raise ValueError("spanning tree requires a connected graph")
    seen = 1
    tree: list[tuple[int, int]] = []
    frontier = [0]
    while frontier:
        nxt = []
        for u in frontier:
            for w in _bits(g.rows[u]):
                if not seen >> w & 1:
                    seen |= 1 << w
                    tree.append((min(u, w), max(u, w)))
                    nxt.append(w)
        frontier = nxt
    return sorted(tree)


@dataclass
class FundamentalGraph:
    """Bipartite fundamental graph plus the labelling that produced it.

    graph's vertex i stands for edge_labels[i] of the source graph; the
    first len(tree_edges) labels are the tree edges.
    """

    graph: Graph
    edge_labels: tuple[tuple[int, int], ...]
    tree_edges: tuple[tuple[int, int], ...]
    cotree_edges: tuple[tuple[int, int], ...]


def fundamental_graph(g: Graph, tree: list[tuple[int, int]] | None = None) -> FundamentalGraph:
    """Fundamental graph of the cycle matroid of g with respect to tree
    (default: the breadth-first spanning tree)."""
    if tree is None:
        tree = spanning_tree(g)
    tree = sorted((min(u, v), max(u, v)) for u, v in tree)
    all_edges = list(g.edges())
    edge_set = set(all_edges)
    tset = set(tree)
    if not tset <= edge_set:
        raise ValueError("tree uses edges not in the graph")
    if len(tree) != max(g.n - 1, 0) or len(tset) != len(tree):
        raise ValueError("tree has the wrong number of edges")
    if g.n == 0 or not is_connected(Graph(g.n, tree)):
        raise ValueError("tree does not span the graph")
    cotree = [e for e in all_edges if e not in tset]
    labels = tuple(tree) + tuple(cotree)
    t = len(tree)
    edges = []
    for i in range(t):
        # tree edge i lies on the tree path of f exactly when the tree
        # without it separates f's ends
        side = set(connected_components(Graph(g.n, tree[:i] + tree[i + 1:]))[0])
        edges += [(i, t + j) for j, (u, v) in enumerate(cotree)
                  if (u in side) != (v in side)]
    return FundamentalGraph(
        graph=Graph(len(labels), edges),
        edge_labels=labels,
        tree_edges=tuple(tree),
        cotree_edges=tuple(cotree),
    )


def is_hamiltonian(g: Graph) -> tuple[bool, list[int] | None]:
    """Search for a Hamiltonian cycle by backtracking; returns the verdict
    and a witness vertex order when one exists."""
    n = g.n
    if n > HAMILTON_MAX_VERTICES:
        raise ValueError(
            f"hamiltonicity search capped at {HAMILTON_MAX_VERTICES} "
            f"vertices, got {n}"
        )
    if n <= 2:
        return False, None
    if any(g.degree(v) < 2 for v in range(n)):
        return False, None
    path = [0]

    def extend(used: int) -> bool:
        if len(path) == n:
            return bool(g.rows[path[-1]] >> 0 & 1)
        for w in _bits(g.rows[path[-1]] & ~used):
            path.append(w)
            if extend(used | 1 << w):
                return True
            path.pop()
        return False

    if extend(1):
        return True, path[:]
    return False, None


def reduction_roundtrip(
    g: Graph,
    *,
    cache: PivotMinorCache | None = None,
) -> dict:
    """Run both sides of the Hamiltonicity reduction on a cubic graph.

    Builds the fundamental graph, asks the containment oracle for the
    K_{1,n-1} pivot-minor, solves Hamiltonicity directly, and reports
    whether the two sides agree.  Inputs below 5 vertices are outside the
    equivalence guarantee and get flagged, not rejected.
    """
    if g.n == 0 or any(g.degree(v) != 3 for v in range(g.n)) \
            or not is_connected(g):
        raise ValueError("the reduction needs a connected cubic graph")
    notes = []
    if g.n < 5:
        notes.append(
            "n < 5 is outside the proved equivalence; results are reported "
            "but not guaranteed to agree"
        )
    fg = fundamental_graph(g)
    target = star_graph(g.n - 1)
    ham, cycle = is_hamiltonian(g)
    verdict = contains_pivot_minor(fg.graph, target, cache=cache)
    agree = None
    if verdict is not Verdict.INCONCLUSIVE:
        agree = (verdict is Verdict.TRUE) == ham
    return {
        "n": g.n,
        "graph6": to_graph6(g),
        "tree_edges": list(fg.tree_edges),
        "fundamental_graph6": to_graph6(fg.graph),
        "fundamental_key": canonical_key(fg.graph),
        "target": f"K1,{g.n - 1}",
        "hamiltonian": ham,
        "hamiltonian_cycle": cycle,
        "contains_verdict": verdict.value,
        "sides_agree": agree,
        "notes": notes,
    }
