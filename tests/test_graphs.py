"""Core graph type and the pivot algebra, checked against brute force."""

import itertools
import random

import pytest

from pivotminors import (
    Graph,
    bipartition,
    complement,
    connected_components,
    contract_pivot,
    delete_vertex,
    disjoint_union,
    generate_all_graphs,
    induced_subgraph,
    is_bipartite,
    is_connected,
    local_complement,
    neighborhood_split,
    pivot,
    pivot_equivalent,
)
from pivotminors.graphs import _bits, component_sides


def all_labeled_graphs(n):
    pairs = list(itertools.combinations(range(n), 2))
    for bits in range(1 << len(pairs)):
        yield Graph(n, [p for i, p in enumerate(pairs) if bits >> i & 1])


def random_graph(rng, n, p=0.5):
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                     if rng.random() < p])


def test_construction_and_queries():
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    assert g.n == 4
    assert g.has_edge(0, 1) and g.has_edge(1, 0)
    assert not g.has_edge(0, 2)
    assert not g.has_edge(1, 1)
    assert g.degree(1) == 2
    assert g.neighbors(1) == [0, 2]
    assert list(g.edges()) == [(0, 1), (1, 2), (2, 3)]
    assert g.num_edges == 3
    assert g.degree_sequence() == (1, 1, 2, 2)


def test_construction_rejects_bad_input():
    with pytest.raises(ValueError):
        Graph(-1)
    with pytest.raises(ValueError):
        Graph(65)
    with pytest.raises(ValueError):
        Graph(3, [(0, 3)])
    with pytest.raises(ValueError):
        Graph(3, [(1, 1)])


def test_value_semantics():
    a = Graph(3, [(0, 1), (1, 2)])
    b = Graph(3, [(1, 2), (0, 1)])
    c = Graph(3, [(0, 1)])
    assert a == b and hash(a) == hash(b)
    assert a != c
    assert a != "not a graph"
    assert len({a, b, c}) == 2


def test_local_complement_is_involution():
    rng = random.Random(1)
    for _ in range(200):
        g = random_graph(rng, rng.randint(1, 8))
        u = rng.randrange(g.n)
        assert local_complement(local_complement(g, u), u) == g


def test_local_complement_fixed_example():
    # LC at the center of a path joins the two ends
    g = Graph(3, [(0, 1), (1, 2)])
    assert local_complement(g, 1) == Graph(3, [(0, 1), (1, 2), (0, 2)])


def test_pivot_requires_an_edge():
    g = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    with pytest.raises(ValueError):
        pivot(g, 0, 2)
    with pytest.raises(ValueError):
        pivot(g, 0, 4)


def test_pivot_equals_triple_local_complement_exhaustive_n4():
    for g in all_labeled_graphs(4):
        for u, v in g.edges():
            expect = local_complement(local_complement(local_complement(g, u), v), u)
            assert pivot(g, u, v) == expect


def test_pivot_equals_triple_local_complement_random():
    rng = random.Random(2)
    for _ in range(500):
        g = random_graph(rng, rng.randint(2, 10))
        edges = list(g.edges())
        if not edges:
            continue
        u, v = rng.choice(edges)
        expect = local_complement(local_complement(local_complement(g, u), v), u)
        assert pivot(g, u, v) == expect


def test_pivot_involution_and_symmetry():
    rng = random.Random(3)
    for _ in range(500):
        g = random_graph(rng, rng.randint(2, 10))
        edges = list(g.edges())
        if not edges:
            continue
        u, v = rng.choice(edges)
        p = pivot(g, u, v)
        assert p.has_edge(u, v)  # the pivoted edge survives
        assert pivot(p, u, v) == g
        assert pivot(g, v, u) == p


def test_neighborhood_split_example():
    g = Graph(6, [(0, 1), (0, 2), (0, 3), (1, 3), (1, 4), (2, 5)])
    s = neighborhood_split(g, 0, 1)
    assert s.private_u == {2}
    assert s.common == {3}
    assert s.private_v == {4}
    assert s.rest == {5}
    with pytest.raises(ValueError):
        neighborhood_split(g, 2, 3)


def test_neighborhood_split_partitions_everything():
    rng = random.Random(4)
    for _ in range(200):
        g = random_graph(rng, rng.randint(2, 9))
        edges = list(g.edges())
        if not edges:
            continue
        u, v = rng.choice(edges)
        s = neighborhood_split(g, u, v)
        parts = [s.private_u, s.common, s.private_v, s.rest]
        union = set().union(*parts)
        assert union == set(range(g.n)) - {u, v}
        assert sum(len(p) for p in parts) == g.n - 2


def test_delete_vertex_relabels():
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    assert delete_vertex(g, 0) == Graph(3, [(0, 1), (1, 2)])
    assert delete_vertex(g, 1) == Graph(3, [(1, 2)])
    with pytest.raises(ValueError):
        delete_vertex(g, 4)
    # the row compaction agrees with the induced-subgraph reference
    rng = random.Random(15)
    for _ in range(300):
        h = random_graph(rng, rng.randint(1, 64), rng.random())
        v = rng.randrange(h.n)
        rest = [u for u in range(h.n) if u != v]
        assert delete_vertex(h, v) == induced_subgraph(h, rest)


def test_induced_subgraph_respects_order():
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    assert induced_subgraph(g, [0, 1, 2]) == Graph(3, [(0, 1), (1, 2)])
    # reversed order relabels the path the other way round
    assert induced_subgraph(g, [2, 1, 0]) == Graph(3, [(0, 1), (1, 2)])
    assert induced_subgraph(g, [1, 3, 2]) == Graph(3, [(0, 2), (1, 2)])
    with pytest.raises(ValueError):
        induced_subgraph(g, [0, 0, 1])


def reference_induced_subgraph(g, vs):
    """The former O(k^2) kernel: one adjacency test per ordered pair."""
    rows = []
    for a in vs:
        m = 0
        for j, b in enumerate(vs):
            if g.has_edge(a, b):
                m |= 1 << j
        rows.append(m)
    return Graph._make(len(vs), tuple(rows))


def test_induced_subgraph_matches_the_pairwise_reference():
    rng = random.Random(16)
    for _ in range(400):
        n = rng.randint(0, 64)
        g = random_graph(rng, n, rng.choice((0.1, 0.5, 0.9)))
        shuffled = list(range(n))
        rng.shuffle(shuffled)
        sub = rng.sample(range(n), rng.randint(0, n))
        for vs in (shuffled, sub, sorted(sub), [], list(range(n))):
            assert induced_subgraph(g, vs) == reference_induced_subgraph(g, vs)
            assert induced_subgraph(g, iter(vs)) == induced_subgraph(g, vs)
        assert induced_subgraph(g, range(n)) is g
    g = random_graph(rng, 10)
    for bad in ([3, 1, 3], [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 0], [10], [2, -1],
                [0, 1, 2, 3, 4, 5, 6, 7, 8, 10]):
        with pytest.raises(ValueError):
            induced_subgraph(g, bad)


def test_contract_pivot_isolated_vertex_is_deletion():
    g = Graph(3, [(0, 1)])
    assert contract_pivot(g, 2) == Graph(2, [(0, 1)])


def test_contract_pivot_neighbor_choice_is_pivot_equivalent():
    # contracting with any neighbour must land in one pivot class
    rng = random.Random(5)
    for _ in range(100):
        g = random_graph(rng, rng.randint(3, 6))
        v = rng.randrange(g.n)
        nbs = g.neighbors(v)
        if len(nbs) < 2:
            continue
        results = [delete_vertex(pivot(g, z, v), v) for z in nbs]
        assert contract_pivot(g, v) == results[0]
        for other in results[1:]:
            assert pivot_equivalent(results[0], other)


def test_complement_involution_and_edge_count():
    rng = random.Random(6)
    for _ in range(100):
        g = random_graph(rng, rng.randint(0, 9))
        c = complement(g)
        assert complement(c) == g
        assert g.num_edges + c.num_edges == g.n * (g.n - 1) // 2


def test_disjoint_union():
    g = Graph(2, [(0, 1)])
    h = Graph(3, [(0, 2)])
    u = disjoint_union(g, h)
    assert u.n == 5
    assert sorted(u.edges()) == [(0, 1), (2, 4)]


def test_connected_components():
    g = Graph(6, [(0, 1), (1, 2), (4, 5)])
    assert connected_components(g) == [[0, 1, 2], [3], [4, 5]]
    assert not is_connected(g)
    assert is_connected(Graph(1))
    assert is_connected(Graph(0))


def test_bipartition_properties():
    rng = random.Random(7)
    for _ in range(200):
        g = random_graph(rng, rng.randint(0, 9))
        sides = bipartition(g)
        if sides is None:
            assert not is_bipartite(g)
            continue
        a, b = sides
        assert a & b == 0
        assert a | b == (1 << g.n) - 1
        for u, v in g.edges():
            assert (a >> u & 1) != (a >> v & 1)


def test_bipartition_odd_cycle_detected():
    c5 = Graph(5, [(i, (i + 1) % 5) for i in range(5)])
    assert bipartition(c5) is None
    c4 = Graph(4, [(i, (i + 1) % 4) for i in range(4)])
    assert bipartition(c4) is not None


def reference_bipartition(g):
    """Depth-first two-colouring from each component's smallest vertex."""
    color = [-1] * g.n
    sides = [0, 0]
    for s in range(g.n):
        if color[s] != -1:
            continue
        color[s] = 0
        sides[0] |= 1 << s
        queue = [s]
        while queue:
            u = queue.pop()
            cu = color[u]
            for w in _bits(g.rows[u]):
                if color[w] == -1:
                    color[w] = 1 - cu
                    sides[1 - cu] |= 1 << w
                    queue.append(w)
                elif color[w] == cu:
                    return None
    return sides[0], sides[1]


def reference_components(g):
    """Component vertex masks, ordered by smallest member."""
    unseen = (1 << g.n) - 1
    comps = []
    while unseen:
        comp = frontier = unseen & -unseen
        while frontier:
            reach = 0
            for v in _bits(frontier):
                reach |= g.rows[v]
            frontier = reach & ~comp
            comp |= frontier
        comps.append(comp)
        unseen &= ~comp
    return comps


def test_component_sides_match_the_depth_first_reference():
    # bipartition folds component_sides, so both must give the reference's
    # masks: the whole sides, and each component's share of them
    def check(g):
        want = reference_bipartition(g)
        assert bipartition(g) == want
        if want is None:
            assert component_sides(g) is None
            return
        a, b = want
        assert component_sides(g) == \
            [(a & c, b & c) for c in reference_components(g)]

    for g in (Graph(0), Graph(1), Graph(4), Graph(5, [(1, 3)]),
              Graph(6, [(0, 5), (5, 2), (2, 4)])):
        check(g)
    assert component_sides(Graph(0)) == [] and bipartition(Graph(0)) == (0, 0)
    assert component_sides(Graph(3, [(1, 2)])) == [(1, 0), (2, 4)]
    for n in range(8):
        for g in generate_all_graphs(n):
            check(g)
    # random bipartite graphs, half of them with one edge inside a side,
    # relabelled, alone and beside isolated vertices
    rng = random.Random(18)
    for _ in range(2000):
        n = rng.randint(2, 24)
        side = [rng.random() < 0.5 for _ in range(n)]
        p = rng.random()
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if side[u] != side[v] and rng.random() < p]
        if rng.random() < 0.5:
            edges.append(tuple(rng.sample(range(n), 2)))
        perm = list(range(n))
        rng.shuffle(perm)
        g = Graph(n, {tuple(sorted((perm[u], perm[v]))) for u, v in edges})
        check(g)
        check(disjoint_union(g, Graph(rng.randint(1, 3))))
        check(disjoint_union(Graph(rng.randint(1, 3)), g))
