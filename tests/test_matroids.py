"""Fundamental graphs checked against base exchange, plus Hamiltonicity."""

import itertools
import random
import time

import pytest

from pivotminors import (
    Graph,
    PivotMinorCache,
    complete_graph,
    complete_multipartite,
    cycle_graph,
    from_graph6,
    fundamental_graph,
    generate_all_graphs,
    is_bipartite,
    is_connected,
    is_hamiltonian,
    named_graph,
    path_graph,
    reduction_roundtrip,
    spanning_tree,
)
from pivotminors import canon
from pivotminors.matroids import HAMILTON_MAX_VERTICES


def random_connected_graph(rng, n):
    while True:
        g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                      if rng.random() < 0.5])
        if is_connected(g):
            return g


def is_spanning_tree(g, edges):
    if len(edges) != g.n - 1:
        return False
    t = Graph(g.n, edges)
    return is_connected(t)


def test_spanning_tree_shape():
    rng = random.Random(17)
    for _ in range(50):
        g = random_connected_graph(rng, rng.randint(1, 8))
        tree = spanning_tree(g)
        assert is_spanning_tree(g, tree)
        assert set(tree) <= set(g.edges())
    assert spanning_tree(Graph(0)) == []
    with pytest.raises(ValueError):
        spanning_tree(Graph(3, [(0, 1)]))


def test_spanning_tree_is_deterministic():
    g = cycle_graph(5)
    assert spanning_tree(g) == [(0, 1), (0, 4), (1, 2), (3, 4)]


def test_fundamental_graph_small_example():
    # C4 with BFS tree {01, 03, 12}: the one cotree edge 23 closes a
    # cycle through every tree edge, giving a star
    fg = fundamental_graph(cycle_graph(4))
    assert fg.tree_edges == ((0, 1), (0, 3), (1, 2))
    assert fg.cotree_edges == ((2, 3),)
    assert fg.graph == Graph(4, [(0, 3), (1, 3), (2, 3)])
    assert fg.edge_labels == ((0, 1), (0, 3), (1, 2), (2, 3))


def test_fundamental_graph_is_bipartite_by_sides():
    rng = random.Random(18)
    for _ in range(40):
        g = random_connected_graph(rng, rng.randint(2, 8))
        fg = fundamental_graph(g)
        assert is_bipartite(fg.graph)
        t = len(fg.tree_edges)
        for u, v in fg.graph.edges():
            assert (u < t) != (v < t)  # edges only between tree and cotree


def test_fundamental_graph_matches_base_exchange():
    # e ~ f exactly when swapping them yields another spanning tree
    rng = random.Random(19)
    for _ in range(40):
        g = random_connected_graph(rng, rng.randint(2, 7))
        fg = fundamental_graph(g)
        t = len(fg.tree_edges)
        for i, e in enumerate(fg.tree_edges):
            for j, f in enumerate(fg.cotree_edges):
                swapped = [x for x in fg.tree_edges if x != e] + [f]
                assert fg.graph.has_edge(i, t + j) == is_spanning_tree(g, swapped)


def test_fundamental_graph_rejects_bad_trees():
    g = cycle_graph(4)
    with pytest.raises(ValueError):
        fundamental_graph(g, tree=[(0, 2), (0, 1), (0, 3)])  # not an edge
    with pytest.raises(ValueError):
        fundamental_graph(g, tree=[(0, 1)])  # wrong size
    with pytest.raises(ValueError):
        # right size, real edges, but a triangle cannot span K4
        fundamental_graph(complete_graph(4), tree=[(0, 1), (1, 2), (0, 2)])
    with pytest.raises(ValueError):
        fundamental_graph(Graph(0))  # no vertex for a tree to span


def test_fundamental_graph_accepts_explicit_tree():
    g = complete_graph(4)
    fg = fundamental_graph(g, tree=[(0, 3), (1, 3), (2, 3)])
    assert fg.tree_edges == ((0, 3), (1, 3), (2, 3))
    assert fg.graph.n == 6


def test_is_hamiltonian_witnesses():
    for g in (cycle_graph(5), complete_graph(4), named_graph("prism"),
              complete_multipartite([3, 3])):
        ok, cycle = is_hamiltonian(g)
        assert ok
        assert sorted(cycle) == list(range(g.n))
        for i in range(g.n):
            assert g.has_edge(cycle[i], cycle[(i + 1) % g.n])


def test_is_hamiltonian_negatives():
    assert is_hamiltonian(path_graph(5)) == (False, None)
    assert is_hamiltonian(named_graph("claw")) == (False, None)
    assert is_hamiltonian(Graph(2, [(0, 1)])) == (False, None)
    assert is_hamiltonian(Graph(0)) == (False, None)


def petersen_graph():
    # Kneser graph on the 2-subsets of a 5-set
    pairs = list(itertools.combinations(range(5), 2))
    idx = {p: i for i, p in enumerate(pairs)}
    edges = [(idx[a], idx[b]) for a in pairs for b in pairs
             if a < b and not set(a) & set(b)]
    return Graph(10, edges)


def test_petersen_graph_is_not_hamiltonian():
    petersen = petersen_graph()
    assert petersen.degree_sequence() == (3,) * 10
    ok, cycle = is_hamiltonian(petersen)
    assert not ok and cycle is None


def test_is_hamiltonian_order_cap():
    with pytest.raises(ValueError):
        is_hamiltonian(Graph(HAMILTON_MAX_VERTICES + 1))


def test_reduction_roundtrip_input_checks():
    with pytest.raises(ValueError):
        reduction_roundtrip(cycle_graph(5))  # not cubic
    two_k4 = Graph(8, [(u, v) for u in range(4) for v in range(u + 1, 4)]
                   + [(u + 4, v + 4) for u in range(4) for v in range(u + 1, 4)])
    with pytest.raises(ValueError):
        reduction_roundtrip(two_k4)  # cubic but disconnected
    with pytest.raises(ValueError, match="connected cubic graph"):
        reduction_roundtrip(Graph(0))  # vacuously cubic, spans no tree


def test_reduction_roundtrip_k4_is_flagged(cache):
    # below five vertices the equivalence is not guaranteed; the report
    # must say so rather than fail
    report = reduction_roundtrip(complete_graph(4), cache=cache)
    assert report["hamiltonian"] is True
    assert report["notes"]
    assert report["contains_verdict"] in ("true", "false")


def test_reduction_roundtrip_prism(cache):
    report = reduction_roundtrip(named_graph("prism"), cache=cache)
    assert report["n"] == 6
    assert report["target"] == "K1,5"
    assert report["hamiltonian"] is True
    assert report["contains_verdict"] == "true"
    assert report["sides_agree"] is True
    assert len(report["tree_edges"]) == 5
    assert report["notes"] == []


def held_karp_hamiltonian(g):
    """Held-Karp over vertex subsets; independent of is_hamiltonian."""
    # ends[mask]: the vertices where a path from 0 through mask can end
    ends = [0] * (1 << g.n)
    ends[1] = 1
    for mask in range(1, 1 << g.n, 2):
        for v in range(g.n):
            if ends[mask] >> v & 1:
                for w in range(g.n):
                    if g.rows[v] >> w & 1 and not mask >> w & 1:
                        ends[mask | 1 << w] |= 1 << w
    return g.n >= 3 and bool(ends[-1] & g.rows[0])


@pytest.mark.parametrize("g6", ["KhEKAC`CGO_p", "K{CY?SBG?G_F"])
def test_reduction_roundtrip_on_12_vertex_cubic_graphs(g6):
    # the hexagonal prism and the truncated tetrahedron, whose gadgets
    # have 18 vertices
    g = from_graph6(g6)
    assert g.n == 12 and g.degree_sequence() == (3,) * 12
    report = reduction_roundtrip(g, cache=PivotMinorCache())
    assert from_graph6(report["fundamental_graph6"]).n == 18
    assert report["target"] == "K1,11"
    assert report["hamiltonian"] is held_karp_hamiltonian(g) is True
    assert report["sides_agree"] is True
    assert report["notes"] == []


def test_reduction_roundtrip_petersen_is_false(monkeypatch):
    # the reduction's FALSE side at n >= 5: a fresh cache, so the whole
    # 15-vertex query against K1,9 runs here.  The side rule drops every
    # bipartite graph with no room for K1,9 before it is labelled, so the
    # search stores 41 verdicts and runs 141 labelling searches (440 when
    # the rule ran after labelling, 1,823 without it)
    searches = []
    search = canon._search

    def spy(g, *rest):
        searches.append(g)
        return search(g, *rest)

    monkeypatch.setattr(canon, "_search", spy)
    cache = PivotMinorCache()
    start = time.perf_counter()
    report = reduction_roundtrip(petersen_graph(), cache=cache)
    assert time.perf_counter() - start < 30
    assert len(cache.verdicts) <= 45
    assert len(searches) <= 150
    assert report["target"] == "K1,9"
    assert report["contains_verdict"] == "false"
    assert report["hamiltonian"] is False
    assert report["sides_agree"] is True
    assert report["notes"] == []


# every connected cubic graph on 4, 6, 8 and 10 vertices (1 + 2 + 5 + 19),
# in canonical graph6, except the Petersen graph (I?LRCecq?), which the
# test above runs; I?CxuB@w? is the other one that is not Hamiltonian
CUBIC_UP_TO_10 = """
C~ EFz_ ELv_ G?]uf? G@NMf? G@Umf? G@UuV? G@]uEC
I??xuROw? I??ytROw? I?CX]b_w? I?CZLROw? I?ChmROw? I?CilROw? I?CilbGw?
I?CitJOw? I?CitbCw? I?CjdbCq? I?CxuB@w? I?CytB@w? I?CzDFGs? I?CzDRAs?
I?KqlR?oG I?KydF?oG I?LRCegp? I?LRCigo_
""".split()


def test_reduction_roundtrip_agrees_on_cubic_graphs_up_to_10(monkeypatch):
    # a fresh cache per graph, so each query runs whole; a TRUE side stops
    # at its first TRUE child, and trying children richest first keeps the
    # 25 Hamiltonian searches to 108 memo misses in all, one per node
    # explored above |h| + 1 vertices (114 when a node tried the distinct
    # forms of its reductions, ties ordered by rows).  A reduction is
    # labelled only when the search reaches it, so those searches run 130
    # labelling searches from a cold form cache (652 when a node above
    # |h| + 2 labelled every reduction with room).
    # I?CxuB@w? has a bridge, so its gadget's components have sides
    # (3, 4), (3, 4) and (0, 1), none with room for K1,9: the side rule
    # answers at the root, before the host is canonicalised
    assert len(CUBIC_UP_TO_10) == 26
    searches = []
    search = canon._search

    def spy(g, *rest):
        searches.append(g)
        return search(g, *rest)

    monkeypatch.setattr(canon, "_search", spy)
    explored = labelled = 0
    for g6 in CUBIC_UP_TO_10:
        cache = PivotMinorCache()
        searches.clear()
        report = reduction_roundtrip(from_graph6(g6), cache=cache)
        assert report["sides_agree"] is True, g6
        if report["hamiltonian"]:
            explored += cache.misses
            labelled += len(searches)
        if g6 == "I?CxuB@w?":
            assert not cache.verdicts and not cache.children
    assert explored <= 108
    assert labelled <= 150
