"""Certifying recognizers: every branch, every certificate replayed."""

import hashlib
import json
import os
import random
import time

import pytest

from pivotminors import (
    Graph,
    Verdict,
    clique_star,
    complement,
    complete_graph,
    complete_multipartite,
    connected_components,
    contains_pivot_minor,
    cycle_graph,
    disjoint_union,
    generate_all_graphs,
    induced_subgraph,
    is_bipartite,
    is_minimal_obstruction,
    leaf_attached_multipartite,
    mine,
    named_graph,
    path_graph,
    recognize,
    recognize_2p2,
    recognize_3p1,
    recognize_bounded,
    recognize_c3,
    recognize_c4,
    recognize_claw,
    recognize_diamond,
    recognize_p4,
    recognize_paw,
    star_graph,
    verify_certificate,
    wheel_graph,
)
from pivotminors import recognizers

SLOW = os.environ.get("PIVOTMINORS_SLOW") == "1"


def assert_certified(result, g, target):
    assert result.verdict == "contains"
    assert result.certificate is not None
    outcome = verify_certificate(g, result.certificate, target)
    assert outcome.ok, (outcome.step, outcome.reason)


def test_c3_free_on_bipartite():
    for g in (cycle_graph(6), star_graph(4), Graph(3)):
        res = recognize_c3(g)
        assert res.verdict == "free"
        assert res.certificate is None


def test_c3_certifies_odd_cycles():
    for k in (3, 5, 7, 9):
        g = disjoint_union(cycle_graph(k), path_graph(2))
        res = recognize_c3(g)
        assert res.obstruction_name == f"C{k}"
        assert_certified(res, g, named_graph("C3"))


def test_p4_c4_free_on_clique_star_unions():
    g = disjoint_union(clique_star(2, [3, 1]), complete_graph(4))
    for rec in (recognize_p4, recognize_c4):
        assert rec(g).verdict == "free"


def test_p4_c4_certify_each_obstruction():
    hosts = {
        "P4": disjoint_union(path_graph(4), complete_graph(2)),
        "C4": cycle_graph(4),
        "dart": named_graph("dart"),
    }
    for obs_name, g in hosts.items():
        for rec, tname in ((recognize_p4, "P4"), (recognize_c4, "C4")):
            res = rec(g)
            assert res.obstruction_name == obs_name
            assert_certified(res, g, named_graph(tname))


def test_paw_diamond_free_cases():
    g = disjoint_union(complete_graph(4), cycle_graph(6))
    assert recognize_paw(g).verdict == "free"
    assert recognize_diamond(g).verdict == "free"


def test_paw_diamond_certify_odd_holes():
    g = cycle_graph(7)
    for rec, tname in ((recognize_paw, "paw"), (recognize_diamond, "diamond")):
        res = rec(g)
        assert res.obstruction_name == "C7"
        assert_certified(res, g, named_graph(tname))


def test_paw_diamond_certify_clique_boundary():
    # a triangle with a pendant is a paw; K4 plus a 2-attached vertex
    # pins down a diamond
    paw_host = named_graph("paw")
    diamond_host = Graph(5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
                             (4, 0), (4, 1)])
    for rec, tname in ((recognize_paw, "paw"), (recognize_diamond, "diamond")):
        res = rec(paw_host)
        assert res.obstruction_name == "paw"
        assert_certified(res, paw_host, named_graph(tname))
        res = rec(diamond_host)
        assert res.obstruction_name == "diamond"
        assert_certified(res, diamond_host, named_graph(tname))


def test_2p2_free_branches():
    assert recognize_2p2(Graph(5)).verdict == "free"
    assert recognize_2p2(named_graph("prism")).verdict == "free"
    assert recognize_2p2(wheel_graph(5)).verdict == "free"
    assert recognize_2p2(cycle_graph(5)).verdict == "free"
    lam = leaf_attached_multipartite([1, 2, 2], {0: 3})
    res = recognize_2p2(disjoint_union(lam, Graph(2)))
    assert res.verdict == "free"
    assert recognize_2p2(path_graph(2)).verdict == "free"


def test_2p2_two_edged_components():
    g = disjoint_union(path_graph(2), complete_graph(3))
    res = recognize_2p2(g)
    assert res.obstruction_name == "2P2"
    assert_certified(res, g, named_graph("2P2"))


def test_2p2_connected_positives():
    for g in (path_graph(5), cycle_graph(6), cycle_graph(7)):
        res = recognize_2p2(g)
        assert_certified(res, g, named_graph("2P2"))


def test_2p2_every_o_graph_is_certified():
    for i in range(1, 10):
        g = named_graph(f"O{i}")
        res = recognize_2p2(g)
        assert_certified(res, g, named_graph("2P2"))


def test_3p1_branches():
    # independence number at most two keeps a graph 3P1-free
    assert recognize_3p1(complete_multipartite([2, 2])).verdict == "free"
    assert recognize_3p1(complete_graph(5)).verdict == "free"
    for name in ("3P1", "W4", "co-BW3"):
        g = named_graph(name)
        res = recognize_3p1(g)
        assert res.obstruction_name == name
        assert_certified(res, g, Graph(3))


def test_claw_branches():
    assert recognize_claw(cycle_graph(5)).verdict == "free"
    assert recognize_claw(complete_graph(5)).verdict == "free"
    for name in ("claw", "P5", "bull", "W4", "co-BW3"):
        g = named_graph(name)
        res = recognize_claw(g)
        assert res.obstruction_name == name
        assert_certified(res, g, named_graph("claw"))


def test_recognize_dispatch():
    res = recognize(named_graph("C5"), "C3")
    assert res.target == "C3" and res.verdict == "contains"
    assert recognize(named_graph("claw"), "K1,3").verdict == "contains"
    with pytest.raises(ValueError):
        recognize(Graph(2), "C17")


def test_recognizers_match_oracle_to_n5(cache):
    targets = {
        "C3": named_graph("C3"), "P4": named_graph("P4"),
        "C4": named_graph("C4"), "paw": named_graph("paw"),
        "diamond": named_graph("diamond"), "2P2": named_graph("2P2"),
        "3P1": Graph(3), "claw": named_graph("claw"),
    }
    for n in range(0, 6):
        for g in generate_all_graphs(n):
            for name, h in targets.items():
                oracle = bool(contains_pivot_minor(g, h, cache=cache))
                res = recognize(g, name)
                assert res.contains == oracle, (name, n)
                if res.contains:
                    assert verify_certificate(g, res.certificate, h).ok


def test_recognize_bounded_covered(cache):
    obs = mine(Graph(2), 3, cache=cache, target_name="tP1[t=2]")
    free = recognize_bounded(complete_graph(3), "tP1", 2, obs, cache=cache)
    assert free.verdict == "free"
    hit = recognize_bounded(path_graph(3), "tP1", 2, obs, cache=cache)
    assert hit.verdict == "contains"
    outcome = verify_certificate(path_graph(3), hit.certificate, Graph(2))
    assert outcome.ok


def test_recognize_bounded_truncation(cache):
    shallow = mine(Graph(2), 2, cache=cache, target_name="tP1[t=2]")
    with pytest.raises(ValueError):
        recognize_bounded(complete_graph(4), "tP1", 2, shallow, cache=cache)
    res = recognize_bounded(complete_graph(4), "tP1", 2, shallow,
                            allow_truncated=True, cache=cache)
    assert res.verdict == "free-up-to-truncation"
    assert "bound" in res.detail


def test_recognizers_hold_up_at_64_vertices():
    """All eight recognizers, with certificate replay, on graphs up to the
    64-vertex limit: odd holes well past the canonical-form cap, a wheel,
    two disjoint cliques and one seeded G(64, 0.5).  Stated bound: under
    30 s in total (about 0.1 s on a 2-core machine)."""
    rng = random.Random(64)
    gnp = Graph(64, [(u, v) for u in range(64) for v in range(u + 1, 64)
                     if rng.random() < 0.5])
    targets = {name: named_graph(name) for name in
               ("C3", "P4", "C4", "paw", "diamond", "2P2", "3P1", "claw")}
    every = tuple(targets)
    cases = [
        (cycle_graph(17), every),
        (cycle_graph(63), every),
        (wheel_graph(63), every),
        (disjoint_union(complete_graph(32), complete_graph(32)),
         ("C3", "2P2")),
        (gnp, None),
    ]
    start = time.perf_counter()
    for g, contained in cases:
        for name, h in targets.items():
            res = recognize(g, name)
            if contained is not None:
                assert res.contains == (name in contained), (name, g.n)
            if res.contains:
                assert_certified(res, g, h)
    assert time.perf_counter() - start < 30.0


def test_twin_rich_hosts_are_searched_once_per_twin_class():
    """The 3P1 and claw searches on 64-vertex hosts made of twins: two
    disjoint K32 are free of both, and the cocktail party graph K(2^32)
    holds a W4.  Stated bound: under 1 s in total (about 0.05 s on a
    2-core machine; each took seconds when every twin was tried)."""
    two_cliques = disjoint_union(complete_graph(32), complete_graph(32))
    cocktail = complete_multipartite([2] * 32)
    start = time.perf_counter()
    assert recognize(two_cliques, "claw").verdict == "free"
    assert recognize(two_cliques, "3P1").verdict == "free"
    res = recognize(cocktail, "claw")
    elapsed = time.perf_counter() - start
    assert res.obstruction_name == "W4"
    assert_certified(res, cocktail, named_graph("claw"))
    assert elapsed < 1.0


# -- one obstruction search behind the certificates ------------------------

SEARCH_TARGETS = {  # key of recognizers._OBSTRUCTIONS -> targets searched
    "clique-star": ("P4", "C4"),
    "triangle": ("paw", "diamond"),
    "2P2": ("2P2",),
    "3P1": ("3P1",),
    "claw": ("claw",),
}


def test_searched_obstructions_are_minimal(cache):
    assert set(recognizers._OBSTRUCTIONS) == set(SEARCH_TARGETS)
    for key, targets in SEARCH_TARGETS.items():
        for name, obs in recognizers._OBSTRUCTIONS[key]:
            assert obs == named_graph(name)
            for t in targets:
                verdict = is_minimal_obstruction(obs, named_graph(t), cache=cache)
                assert verdict is Verdict.TRUE, (name, t)


def test_recognize_bounded_finds_a_member_sequence_once(monkeypatch, cache):
    obs = mine(Graph(2), 3, cache=cache, target_name="tP1[t=2]")
    calls = []
    search = recognizers.find_pivot_minor_sequence

    def counted(*args, **kwargs):
        calls.append(args)
        return search(*args, **kwargs)

    monkeypatch.setattr(recognizers, "find_pivot_minor_sequence", counted)
    monkeypatch.setattr(recognizers, "_SEQUENCES", {})
    found = []
    for host in (path_graph(3), cycle_graph(4)):
        res = recognize_bounded(host, "tP1", 2, obs, cache=cache)
        assert_certified(res, host, Graph(2))
        found.append(res.certificate.obstruction)
    assert found[0] == found[1]
    assert len(calls) == 1


def test_first_bad_component_picks_the_branch():
    paw, c7 = named_graph("paw"), cycle_graph(7)
    for rec, tname in ((recognize_paw, "paw"), (recognize_diamond, "diamond")):
        for g, expected in ((disjoint_union(c7, paw), "C7"),
                            (disjoint_union(paw, c7), "paw")):
            res = rec(g)
            assert res.obstruction_name == expected, (tname, expected)
            assert_certified(res, g, named_graph(tname))


# -- the odd-cycle kernel against the former per-root scan -----------------

def reference_shortest_odd_cycle(g):
    """The former kernel: a full BFS from every root, then a scan of
    g.edges() for edges inside a layer whose two tree paths are disjoint."""
    best_len = g.n + 1
    best = None
    for root in range(g.n):
        if best_len == 3:
            break
        dist = {root: 0}
        parent = {root: -1}
        layer = [root]
        while layer:
            nxt = []
            for u in layer:
                for w in g.neighbors(u):
                    if w not in dist:
                        dist[w] = dist[u] + 1
                        parent[w] = u
                        nxt.append(w)
            layer = nxt
        for u, v in g.edges():
            if u in dist and v in dist and dist[u] == dist[v]:
                length = dist[u] + dist[v] + 1
                if length < best_len:
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
    return best


def _relabelled(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def _gnp(rng, n, p):
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                     if rng.random() < p])


def _odd_grid(rng, a, b):
    """The a x b grid plus one edge between two cells of the same colour:
    the odd cycles all use that edge, and the grid's many shortest paths
    make the tree paths depend on the order in which each layer was found."""
    edges = [(i * b + j, i * b + j + 1) for i in range(a) for j in range(b - 1)]
    edges += [(i * b + j, i * b + b + j) for i in range(a - 1) for j in range(b)]
    while True:
        u, v = rng.sample(range(a * b), 2)
        if (u // b + u % b - v // b - v % b) % 2 == 0 and abs(u - v) > 1:
            return _relabelled(Graph(a * b, edges + [(u, v)]), rng)


def test_shortest_odd_cycle_matches_the_per_root_scan():
    """The layered search returns the very list of the former kernel: the
    same root, the same edge, the same tree paths."""
    rng = random.Random(16)
    graphs = []
    for n in range(3, 8):
        for g in generate_all_graphs(n):
            if not is_bipartite(g):
                graphs += [_relabelled(g, rng) for _ in range(3)]
    for k in range(5, 64, 2):
        graphs += [cycle_graph(k), _relabelled(cycle_graph(k), rng)]
        graphs += [wheel_graph(k), _relabelled(wheel_graph(k), rng)]
    for a in range(3, 9):
        for b in range(3, 64 // a + 1):
            graphs += [_odd_grid(rng, a, b) for _ in range(3)]
    for n in range(3, 65):
        for p in (0.05, 0.1, 0.5, 0.9):
            g = _gnp(rng, n, p)
            if not is_bipartite(g):
                graphs.append(g)
    # the shortest odd cycle lies in a component after the first, out of
    # reach of every BFS from an earlier root
    graphs += [
        disjoint_union(cycle_graph(8), cycle_graph(5)),
        disjoint_union(path_graph(20), cycle_graph(43)),
        disjoint_union(cycle_graph(9), disjoint_union(cycle_graph(6),
                                                      cycle_graph(5))),
        _relabelled(disjoint_union(star_graph(30), cycle_graph(31)), rng),
    ]
    assert len(graphs) > 3000
    for g in graphs:
        assert recognizers._shortest_odd_cycle(g) == \
            reference_shortest_odd_cycle(g), g
    for g in (Graph(0), cycle_graph(6), _gnp(rng, 40, 0.0), path_graph(64)):
        with pytest.raises(ValueError):
            recognizers._shortest_odd_cycle(g)


def _grown_trees(monkeypatch):
    """Records the root of every single-root tree the kernel grows."""
    roots = []
    grow = recognizers._odd_walk

    def spy(rows, root):
        roots.append(root)
        return grow(rows, root)

    monkeypatch.setattr(recognizers, "_odd_walk", spy)
    return roots


def test_shortest_odd_cycle_lowest_root_wins_a_tie(monkeypatch):
    # vertex 0 closes no odd cycle; two disjoint C7 with interleaved labels
    # reach the odd girth at the same layer, and the cycle through the
    # lowest of their vertices is the one returned
    rng = random.Random(24)
    for _ in range(20):
        labels = list(range(2, 16))
        rng.shuffle(labels)
        a, b = labels[:7], labels[7:]
        edges = [(0, 1)] + [(c[i - 1], c[i]) for c in (a, b) for i in range(7)]
        g = Graph(16, edges)
        roots = _grown_trees(monkeypatch)
        cycle = recognizers._shortest_odd_cycle(g)
        assert cycle == reference_shortest_odd_cycle(g)
        assert min(cycle) == 2 and set(cycle) == set(a if 2 in a else b)
        assert roots == [2]
        monkeypatch.undo()


def test_shortest_odd_cycle_answers_a_triangle_through_root_0(monkeypatch):
    # the triangle scan stops at root 0, so no all-roots layer is built:
    # those layers are the only reader of Graph.edges in the kernel
    def no_layers(self):
        raise AssertionError("an all-roots layer was built")

    rng = random.Random(3)
    for g in (complete_graph(64), wheel_graph(63),
              Graph(40, [(0, 38), (38, 39), (39, 0)]
                    + [(i, i + 1) for i in range(37)]),
              _gnp(rng, 64, 0.9)):
        roots = _grown_trees(monkeypatch)
        monkeypatch.setattr(Graph, "edges", no_layers)
        cycle = recognizers._shortest_odd_cycle(g)
        monkeypatch.undo()
        assert len(cycle) == 3 and 0 in cycle and roots == [0]
        assert cycle == reference_shortest_odd_cycle(g)


def test_shortest_odd_cycle_when_root_0_is_off_the_cycle():
    rng = random.Random(5)
    graphs = []
    for k in (3, 5, 11, 31):
        # root 0 in a bipartite component: a tree, or an even cycle
        graphs += [disjoint_union(path_graph(9), cycle_graph(k)),
                   disjoint_union(star_graph(6), cycle_graph(k)),
                   disjoint_union(cycle_graph(10), cycle_graph(k))]
        # root 0 at the end of a long pendant path off the odd cycle: its
        # tree paths meet at the attachment, so its walk is no cycle
        for length in (1, 4, 20):
            path = [(i, i + 1) for i in range(length)]
            ring = [(length + i, length + (i + 1) % k) for i in range(k)]
            graphs.append(Graph(length + k, path + ring))
        # and on a pendant tree, its other leaves labelled at random
        tree = [(rng.randrange(v), v) for v in range(1, 12)]
        ring = [(11 + i, 11 + (i + 1) % k) for i in range(k)]
        graphs.append(Graph(11 + k, tree + ring))
    for g in graphs:
        cycle = recognizers._shortest_odd_cycle(g)
        assert 0 not in cycle
        assert cycle == reference_shortest_odd_cycle(g), g


def test_shortest_odd_cycle_grows_one_tree_on_c63(monkeypatch):
    # the per-root scan grew one tree per vertex, 63 of them, on C63
    for g in (cycle_graph(63), _relabelled(cycle_graph(63), random.Random(63))):
        roots = _grown_trees(monkeypatch)
        assert len(recognizers._shortest_odd_cycle(g)) == 63
        assert len(roots) == 1
        monkeypatch.undo()


@pytest.mark.skipif(not SLOW, reason="set PIVOTMINORS_SLOW=1 for the sweep")
def test_shortest_odd_cycle_sweep():
    """Every non-bipartite class on 8 vertices, relabelled, and G(n, p)
    for n = 3 ... 64 at 10 seeds, against the former kernel."""
    rng = random.Random(8)
    for g in generate_all_graphs(8):
        if not is_bipartite(g):
            g = _relabelled(g, rng)
            assert recognizers._shortest_odd_cycle(g) == \
                reference_shortest_odd_cycle(g), g
    for seed in range(10):
        rng = random.Random(seed)
        for n in range(3, 65):
            for p in (1.5 / n, 3 / n, 0.1, 0.3, 0.5, 0.9):
                g = _gnp(rng, n, p)
                if not is_bipartite(g):
                    assert recognizers._shortest_odd_cycle(g) == \
                        reference_shortest_odd_cycle(g), g


def test_recognize_bounded_refuses_a_set_mined_for_another_target(cache):
    # a C3 obstruction set says nothing about 2P1: P3 contains 2P1 and K3
    # is an obstruction of C3, but neither may be answered from this set
    obs = mine(named_graph("C3"), 6, cache=cache, target_name="C3")
    for g in (path_graph(3), complete_graph(3)):
        with pytest.raises(ValueError, match=r"C3.*tP1\[t=2\]"):
            recognize_bounded(g, "tP1", 2, obs, cache=cache)


TARGETS = ("C3", "P4", "C4", "paw", "diamond", "2P2", "3P1", "claw")
# sha256 over one line per (class on at most 6 vertices, target): verdict,
# obstruction name and certificate JSON without its "tool" field.  A new
# canonical labelling (ROADMAP item 1) moves it, to be re-pinned on purpose.
RECOGNIZER_DIGEST = (
    "354d45eda580f6bb1ad19ba9e3d09f279d04823e05a8e16fb4cd8d652a802051"
)


@pytest.fixture(scope="module")
def small_results():
    return [(g, t, recognize(g, t))
            for n in range(7) for g in generate_all_graphs(n)
            for t in TARGETS]


def test_recognizer_output_is_pinned(small_results):
    lines = []
    for _, _, res in small_results:
        cert = res.certificate.to_json() if res.certificate else None
        if cert is not None:
            del cert["tool"]
        lines.append(f"{res.verdict}\t{res.obstruction_name}\t"
                     f"{json.dumps(cert, sort_keys=True)}\n")
    digest = hashlib.sha256("".join(lines).encode()).hexdigest()
    assert digest == RECOGNIZER_DIGEST


def test_obstruction_name_is_the_certificates(small_results):
    contains = [res for _, _, res in small_results if res.contains]
    assert contains
    for res in contains:
        assert res.obstruction_name == res.certificate.obstruction_name


# -- the structure tests against their former subgraph versions ------------

def reference_is_clique(g, members):
    mask = 0
    for v in members:
        mask |= 1 << v
    return all(g.rows[v] & mask == mask & ~(1 << v) for v in members)


def reference_is_clique_star(sub):
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
        reference_is_clique(remainder, comp)
        for comp in connected_components(remainder)
    )


def reference_is_leaf_attached_multipartite(sub):
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
    if not all(reference_is_clique(comp, c) for c in connected_components(comp)):
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


def _flip(g, rng):
    """g with one random vertex pair toggled."""
    u, v = sorted(rng.sample(range(g.n), 2))
    return Graph(g.n, set(g.edges()) ^ {(u, v)})


def test_structure_tests_match_their_subgraph_versions():
    """The mask tests on the input's rows answer as the former tests did
    on a copy of each component: every class on at most 8 vertices, and
    relabelled 64-vertex members of the recognize-mix families, each also
    with one vertex pair flipped."""
    rng = random.Random(19)
    graphs = [g for n in range(9) for g in generate_all_graphs(n)]
    large = [clique_star(8, [8] * 7), clique_star(1, [3] * 21),
             clique_star(4, [6] * 10), complete_multipartite([2] * 32),
             complete_multipartite([1] * 52 + [3] * 4),
             complete_multipartite([4] * 16), complete_graph(64),
             leaf_attached_multipartite([1, 1, 1, 3, 5, 7, 9], {0: 20, 2: 17}),
             leaf_attached_multipartite([1] * 8 + [2] * 6, {3: 44}),
             disjoint_union(complete_graph(32), complete_graph(32)),
             disjoint_union(complete_graph(20), complete_graph(44))]
    large += [Graph(64, [(rng.randrange(v), v) for v in range(1, 64)])
              for _ in range(4)]
    for g in large:
        for h in (g, _flip(g, rng), _flip(_flip(g, rng), rng)):
            graphs += [_relabelled(h, rng) for _ in range(3)]
    seen = {}
    for g in graphs:
        for comp in connected_components(g):
            sub = induced_subgraph(g, comp)
            mask = sum(1 << v for v in comp)
            star = recognizers._is_clique_star(g.rows, mask)
            assert star == reference_is_clique_star(sub), (g, comp)
            lam = recognizers._is_leaf_attached_multipartite(g.rows, mask)
            assert lam == reference_is_leaf_attached_multipartite(sub), (g, comp)
            clique = recognizers._twin_classes(g.rows, mask, True)
            assert clique == reference_is_clique(sub, range(sub.n)), (g, comp)
            key = (star, lam, clique, sub.n > 8)
            seen[key] = seen.get(key, 0) + 1
    # every outcome of each test shows up, on large components too
    for large_component in (False, True):
        for i in range(3):
            assert {k[i] for k in seen if k[3] == large_component} == {
                False, True}
