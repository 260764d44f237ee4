"""Certifying recognizers: every branch, every certificate replayed."""

import random
import time

import pytest

from pivotminors import (
    Graph,
    Verdict,
    clique_star,
    complete_graph,
    complete_multipartite,
    contains_pivot_minor,
    cycle_graph,
    disjoint_union,
    generate_all_graphs,
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
    30 s in total (about 3 s on a 2-core machine)."""
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
        found.append(res.certificate.obstruction_graph6)
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
