"""Acceptance sweep: one test per criterion, one pass/fail line each.

Everything here is exact; there are no numeric tolerances anywhere.  The
cold cost is one exhaustive obstruction sweep to 8 vertices; every later
criterion reuses the shared session cache, so the whole file finishes in
a few minutes.
"""

import itertools
import random
import time

import pytest

from pivotminors import (
    Graph,
    canonical_key,
    check_bound,
    complete_graph,
    complete_multipartite,
    connected_components,
    contains_pivot_minor,
    contract_pivot,
    cycle_graph,
    delete_vertex,
    disjoint_union,
    family_c3p1,
    family_k4,
    fundamental_graph,
    generate_all_graphs,
    has_induced,
    induced_subgraph,
    is_bipartite,
    is_connected,
    is_isomorphic,
    is_minimal_obstruction,
    local_complement,
    mine,
    named_graph,
    pivot,
    pivot_equivalent,
    recognize,
    reduction_roundtrip,
    verify_certificate,
    Verdict,
)

TARGETS = {
    "C3": named_graph("C3"),
    "P4": named_graph("P4"),
    "C4": named_graph("C4"),
    "paw": named_graph("paw"),
    "diamond": named_graph("diamond"),
    "2P2": named_graph("2P2"),
    "3P1": Graph(3),
    "claw": named_graph("claw"),
}

# target -> (sweep depth, expected minimal obstructions)
EXPECTED_OBSTRUCTIONS = {
    "3P1": (8, ("3P1", "W4", "co-BW3")),
    "claw": (8, ("claw", "P5", "bull", "W4", "co-BW3")),
    "2P2": (7, ("O1", "O2", "O3", "O4", "O5", "O6", "O7", "O8", "O9")),
    "P4": (7, ("P4", "C4", "dart")),
    "C4": (7, ("P4", "C4", "dart")),
    "C3": (7, ("C3", "C5", "C7")),
    "paw": (7, ("paw", "diamond", "C5", "C7")),
    "diamond": (7, ("paw", "diamond", "C5", "C7")),
}

# filled by criterion 3, read by criterion 4
SWEEP_STATS = {"checked": 0, "mismatches": 0, "positives": 0, "cert_failures": 0}


def all_labeled_graphs(n):
    pairs = list(itertools.combinations(range(n), 2))
    for bits in range(1 << len(pairs)):
        yield Graph(n, [p for i, p in enumerate(pairs) if bits >> i & 1])


def test_criterion_1_obstruction_sets(cache):
    for name, (n_max, expected) in EXPECTED_OBSTRUCTIONS.items():
        obs = mine(TARGETS[name], n_max, target_name=name, cache=cache)
        assert not obs.inconclusive, name
        got = set(obs.member_keys)
        want = {canonical_key(named_graph(s)) for s in expected}
        assert got == want, (name, sorted(got), sorted(want))
        assert obs.complete_up_to == n_max
    print("ACCEPTANCE 1 (obstruction sets): PASS - all 8 sweeps exact")


def test_criterion_2_order_bounds(cache):
    rec = check_bound("tP1", 2, 3, cache=cache)
    assert rec.bound == 3
    assert rec.observed_max_order == 2
    assert rec.covered and rec.bound_respected
    assert "complete" in rec.coverage_statement()

    rec = check_bound("tP1", 3, 8, cache=cache)
    assert rec.bound == 7
    assert rec.observed_max_order == 7  # the bound is tight at t = 3
    assert rec.member_count == 3
    assert rec.covered and rec.bound_respected

    # here the proved bound is out of sweep range: the record must say
    # so instead of claiming completeness
    rec = check_bound("P2+tP1", 1, 5, cache=cache)
    assert rec.bound == 10
    assert not rec.covered
    assert rec.bound_respected
    assert "may be missing" in rec.coverage_statement()
    print("ACCEPTANCE 2 (order bounds): PASS - tight at t=3, honest beyond")


def _sweep(name, n, cache, sample=None):
    h = TARGETS[name]
    level = generate_all_graphs(n)
    if sample is not None and sample < len(level):
        rng = random.Random(0)
        level = [level[i] for i in sorted(rng.sample(range(len(level)), sample))]
    for g in level:
        oracle = contains_pivot_minor(g, h, cache=cache)
        assert oracle.definite, (name, canonical_key(g))
        result = recognize(g, name)
        SWEEP_STATS["checked"] += 1
        if result.contains != bool(oracle):
            SWEEP_STATS["mismatches"] += 1
        if result.contains:
            SWEEP_STATS["positives"] += 1
            if not verify_certificate(g, result.certificate, h).ok:
                SWEEP_STATS["cert_failures"] += 1
    return len(level)


def test_criterion_3_recognizers_match_oracle(cache):
    total = 0
    for name in TARGETS:
        total += _sweep(name, 7, cache)
    for name in ("C3", "P4", "C4", "paw", "diamond", "3P1", "claw"):
        total += _sweep(name, 8, cache)
    total += _sweep("2P2", 8, cache, sample=2000)
    assert SWEEP_STATS["mismatches"] == 0
    assert SWEEP_STATS["checked"] == total
    print(f"ACCEPTANCE 3 (recognizer = oracle): PASS - {total} verdicts, "
          "0 mismatches")


def test_criterion_4_certificates_all_verify(cache):
    if SWEEP_STATS["checked"] == 0:  # criterion 3 was deselected
        for name in TARGETS:
            _sweep(name, 7, cache)
    assert SWEEP_STATS["positives"] > 0
    assert SWEEP_STATS["cert_failures"] == 0
    print(f"ACCEPTANCE 4 (certificates): PASS - "
          f"{SWEEP_STATS['positives']}/{SWEEP_STATS['positives']} verified")


def _is_clique(g, verts):
    return all(g.has_edge(a, b)
               for i, a in enumerate(verts) for b in verts[i + 1:])


def _clique_star_components(g):
    for comp in connected_components(g):
        sub = induced_subgraph(g, comp)
        universal = [v for v in range(sub.n) if sub.degree(v) == sub.n - 1]
        if len(universal) == sub.n:
            continue
        if not universal:
            return False
        rest = [v for v in range(sub.n) if v not in universal]
        rsub = induced_subgraph(sub, rest)
        if not all(_is_clique(rsub, c) for c in connected_components(rsub)):
            return False
    return True


def _star_or_complete_components(g):
    for comp in connected_components(g):
        sub = induced_subgraph(g, comp)
        if all(sub.degree(v) == sub.n - 1 for v in range(sub.n)):
            continue
        degs = sorted(sub.degree(v) for v in range(sub.n))
        if degs != [1] * (sub.n - 1) + [sub.n - 1]:
            return False
    return True


def _adjacent_twins(g):
    out = []
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if g.has_edge(u, v):
                mask = ~((1 << u) | (1 << v))
                if g.rows[u] & mask == g.rows[v] & mask:
                    out.append((u, v))
    return out


def _shift(x, w):
    return x - (x > w)


def _check_pivot_identities(g, u, v):
    p = pivot(g, u, v)
    assert p == local_complement(local_complement(local_complement(g, u), v), u)
    assert p == local_complement(local_complement(local_complement(g, v), u), v)
    assert pivot(p, u, v) == g
    assert pivot(g, v, u) == p
    return p


def test_criterion_5_pivot_algebra_properties():
    # exhaustive over every labeled graph with at most 5 vertices
    for n in range(2, 6):
        for g in all_labeled_graphs(n):
            twins = _adjacent_twins(g)
            bip = is_bipartite(g)
            cs = _clique_star_components(g)
            sc = _star_or_complete_components(g)
            if cs:
                for w in range(n):
                    assert _clique_star_components(delete_vertex(g, w))
                    assert _clique_star_components(contract_pivot(g, w))
            for u, v in g.edges():
                p = _check_pivot_identities(g, u, v)
                for a, b in twins:
                    assert (a, b) in _adjacent_twins(p)
                if bip:
                    assert is_bipartite(p)
                if cs:
                    assert _clique_star_components(p)
                if sc:
                    assert is_isomorphic(p, g)
                for w in range(n):
                    if w in (u, v):
                        continue
                    # deleting elsewhere commutes with the pivot exactly
                    assert delete_vertex(p, w) == \
                        pivot(delete_vertex(g, w), _shift(u, w), _shift(v, w))
                    # contraction elsewhere commutes up to pivots
                    assert pivot_equivalent(contract_pivot(p, w),
                                            contract_pivot(g, w))

    # randomized battery on larger graphs
    rng = random.Random(20)
    cases = 0
    while cases < 10_000:
        n = rng.randint(2, 10)
        g = Graph(n, [(a, b) for a in range(n) for b in range(a + 1, n)
                      if rng.random() < 0.5])
        edges = list(g.edges())
        if not edges:
            continue
        u, v = rng.choice(edges)
        p = _check_pivot_identities(g, u, v)
        others = [w for w in range(n) if w not in (u, v)]
        if others:
            w = rng.choice(others)
            assert delete_vertex(p, w) == \
                pivot(delete_vertex(g, w), _shift(u, w), _shift(v, w))
        if is_bipartite(g):
            assert is_bipartite(p)
        cases += 1

    # randomized adjacent-twin preservation: clone a vertex, then pivot
    for _ in range(500):
        n = rng.randint(2, 9)
        g0 = Graph(n, [(a, b) for a in range(n) for b in range(a + 1, n)
                       if rng.random() < 0.5])
        v = rng.randrange(n)
        clone_edges = list(g0.edges()) + [(u, n) for u in g0.neighbors(v)] + [(v, n)]
        g = Graph(n + 1, clone_edges)
        assert (v, n) in _adjacent_twins(g)
        edges = list(g.edges())
        u, w = rng.choice(edges)
        assert (v, n) in _adjacent_twins(pivot(g, u, w))

    # randomized star/complete invariance on built unions
    for _ in range(300):
        parts = []
        for _ in range(rng.randint(1, 3)):
            k = rng.randint(1, 4)
            parts.append(complete_graph(k) if rng.random() < 0.5
                         else named_graph(f"K1,{max(k, 2)}"))
        g = parts[0]
        for part in parts[1:]:
            if g.n + part.n > 10:
                break
            g = disjoint_union(g, part)
        for u, v in g.edges():
            assert is_isomorphic(pivot(g, u, v), g)

    print("ACCEPTANCE 5 (pivot algebra): PASS - exhaustive to n=5, "
          f"{cases} randomized cases to n=10")


def _is_spanning_tree(g, edges):
    return len(edges) == g.n - 1 and is_connected(Graph(g.n, edges))


def test_criterion_6_hardness_reduction(cache):
    started = time.time()
    k33 = complete_multipartite([3, 3])
    prism = named_graph("prism")
    for g in (k33, prism):
        report = reduction_roundtrip(g, cache=cache)
        assert report["target"] == "K1,5"
        assert len(report["tree_edges"]) == 5
        assert report["hamiltonian"] is True
        assert report["contains_verdict"] == "true"
        assert report["sides_agree"] is True
        assert report["notes"] == []

    # fundamental-cycle adjacency must equal base exchange on every
    # connected graph with at most 5 vertices
    pairs_checked = 0
    for n in range(1, 6):
        for g in generate_all_graphs(n):
            if not is_connected(g):
                continue
            fg = fundamental_graph(g)
            t = len(fg.tree_edges)
            for i, e in enumerate(fg.tree_edges):
                for j, f in enumerate(fg.cotree_edges):
                    swapped = [x for x in fg.tree_edges if x != e] + [f]
                    assert fg.graph.has_edge(i, t + j) == \
                        _is_spanning_tree(g, swapped)
                    pairs_checked += 1

    elapsed = time.time() - started
    assert elapsed < 600
    print(f"ACCEPTANCE 6 (hardness reduction): PASS - both cubic instances "
          f"agree, {pairs_checked} exchange pairs, {elapsed:.1f}s")


def test_criterion_7_infinite_families(cache):
    c3p1 = disjoint_union(named_graph("C3"), Graph(1))
    for k in (3, 5, 7):
        verdict = is_minimal_obstruction(family_c3p1(k), c3p1, cache=cache)
        assert verdict is Verdict.TRUE, k

    k4 = complete_graph(4)
    for member in (family_k4(3, 3, 0), family_k4(3, 3, 1)):
        verdict = is_minimal_obstruction(member, k4, cache=cache)
        assert verdict is Verdict.TRUE
    print("ACCEPTANCE 7 (infinite families): PASS - 5 members confirmed minimal")


def test_criterion_8_component_correspondence():
    # no induced bull, claw or P5 holds exactly when no connected
    # component has three pairwise non-adjacent vertices
    bull, claw, p5 = (named_graph(s) for s in ("bull", "claw", "P5"))
    three = Graph(3)
    checked = 0
    for n in range(0, 8):
        for g in generate_all_graphs(n):
            lhs = not (has_induced(bull, g) or has_induced(claw, g)
                       or has_induced(p5, g))
            rhs = all(not has_induced(three, induced_subgraph(g, comp))
                      for comp in connected_components(g))
            assert lhs == rhs, canonical_key(g)
            checked += 1
    print(f"ACCEPTANCE 8 (component correspondence): PASS - {checked} graphs")
