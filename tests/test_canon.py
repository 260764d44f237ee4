"""Canonical forms: equal keys must mean isomorphic, and nothing else."""

import hashlib
import itertools
import os
import random
import time

import pytest

from pivotminors import (
    Graph,
    canonical_form,
    canonical_key,
    clique_star,
    complete_graph,
    complete_multipartite,
    disjoint_union,
    find_induced_embedding,
    has_induced,
    induced_subgraph,
    is_isomorphic,
    isomorphism,
    named_graph,
    to_graph6,
)
from pivotminors import canon, containment, from_graph6
from pivotminors.canon import LabellingBudgetError
from pivotminors.generate import KNOWN_CLASS_COUNTS, generate_all_graphs
from pivotminors.matroids import fundamental_graph


def all_labeled_graphs(n):
    pairs = list(itertools.combinations(range(n), 2))
    for bits in range(1 << len(pairs)):
        yield Graph(n, [p for i, p in enumerate(pairs) if bits >> i & 1])


def relabel(g, perm):
    return induced_subgraph(g, perm)


def brute_isomorphic(g, h):
    if g.n != h.n:
        return False
    return any(relabel(g, list(p)) == h
               for p in itertools.permutations(range(g.n)))


SLOW = os.environ.get("PIVOTMINORS_SLOW") == "1"


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5, pytest.param(6, marks=(
    pytest.mark.skipif(not SLOW, reason="set PIVOTMINORS_SLOW=1 for n=6")))])
def test_key_contract_exhaustive(n):
    # equal keys exactly for isomorphic graphs, over every labeled graph
    by_key = {}
    for g in all_labeled_graphs(n):
        by_key.setdefault(canonical_key(g), []).append(g)
    assert len(by_key) == KNOWN_CLASS_COUNTS[n]
    for key, members in by_key.items():
        rep = members[0]
        cf = canonical_form(rep)
        assert canonical_key(cf) == key
        assert brute_isomorphic(rep, cf)
        for other in members[1:100]:
            assert brute_isomorphic(rep, other)


def test_key_invariant_under_relabeling():
    rng = random.Random(10)
    for _ in range(200):
        n = rng.randint(1, 9)
        g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                      if rng.random() < 0.5])
        perm = list(range(n))
        rng.shuffle(perm)
        assert canonical_key(relabel(g, perm)) == canonical_key(g)


def test_relabellings_share_one_representative():
    rng = random.Random(11)
    for _ in range(50):
        n = rng.randint(1, 9)
        g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                      if rng.random() < 0.5])
        perm = list(range(n))
        rng.shuffle(perm)
        form = canonical_form(g)
        assert canonical_form(relabel(g, perm)) is form
        assert canonical_form(form) is form


def test_canonical_form_is_idempotent():
    rng = random.Random(11)
    for _ in range(100):
        n = rng.randint(0, 8)
        g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                      if rng.random() < 0.5])
        cf = canonical_form(g)
        assert canonical_form(cf) == cf


def brute_automorphism_count(g):
    """|Aut(g)| by extending partial maps vertex by vertex, keeping only
    those that preserve edges and non-edges so far."""
    def extend(phi, used):
        i = len(phi)
        if i == g.n:
            return 1
        return sum(
            extend(phi + [w], used | 1 << w)
            for w in range(g.n)
            if not used >> w & 1
            and all(g.has_edge(i, j) == g.has_edge(w, phi[j]) for j in range(i))
        )
    return extend([], 0)


def group_closure(gens, n):
    """Every element of the group generated by gens, as tuples."""
    elements = {tuple(range(n))}
    frontier = list(elements)
    for a in frontier:
        for p in gens:
            b = tuple(p[x] for x in a)
            if b not in elements:
                elements.add(b)
                frontier.append(b)
    return elements


def symmetric_test_graphs():
    pairs = list(itertools.combinations(range(5), 2))  # Petersen as Kneser
    petersen = Graph(10, [(pairs.index(a), pairs.index(b)) for a in pairs
                          for b in pairs if a < b and not set(a) & set(b)])
    q3 = Graph(8, [(u, u ^ 1 << b) for u in range(8) for b in range(3)
                   if u < u ^ 1 << b])
    return [named_graph("C8"), q3, named_graph("K3,3"), petersen, Graph(7)]


def test_labelling_returns_the_automorphism_group():
    graphs = [g for n in range(7) for g in generate_all_graphs(n)]
    rng = random.Random(15)
    for g in graphs + symmetric_test_graphs():
        perm = list(range(g.n))
        rng.shuffle(perm)
        g = relabel(g, perm)  # not a form, so the search has work to do
        form, order, gens = canon.canonical_labelling(g)
        assert form is canonical_form(g)
        assert relabel(g, list(order)) == form
        for p in gens:
            assert sorted(p) == list(range(g.n)) and p != tuple(range(g.n))
            assert relabel(g, list(p)) == g  # p preserves edges
        assert len(group_closure(gens, g.n)) == brute_automorphism_count(g)


def test_a_twin_class_gives_one_transposition_per_other_member():
    # 64K1 and K8 are one twin class each, whose search skips twins at every
    # level; K4,4 has two classes of 4 and a leaf map that swaps the sides
    for g, count in ((Graph(64), 63), (complete_graph(8), 7),
                     (complete_multipartite((4, 4)), 7)):
        gens = canon.canonical_labelling(g)[2]
        assert len(gens) == count
        for p in gens:
            assert relabel(g, list(p)) == g
    assert all(sum(a != b for a, b in enumerate(p)) == 2
               for p in canon.canonical_labelling(Graph(64))[2])


# sha256 of the canonical permutations of the graphs below, one line each.
# They set the maps that isomorphism returns and certificates store, so
# recording the group must not move them; a new labelling (ROADMAP item 1)
# re-pins this on purpose.
PERMUTATION_DIGEST = (
    "2ff690c7251495a6af4313296474edb10bf94dc5a65494b520c404009e243f22")


def test_canonical_permutations_are_pinned():
    rng = random.Random(16)
    graphs = [Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                        if rng.random() < 0.5])
              for n in range(1, 10) for _ in range(30)]
    graphs += symmetric_test_graphs()
    text = "".join(",".join(map(str, canon.canonical_labelling(g)[1])) + "\n"
                   for g in graphs)
    assert hashlib.sha256(text.encode()).hexdigest() == PERMUTATION_DIGEST


def random_regular(rng, n, d):
    """A random simple d-regular graph on n vertices, by pairing stubs
    and starting again on a loop or a double edge."""
    while True:
        stubs = [v for v in range(n) for _ in range(d)]
        rng.shuffle(stubs)
        pairs = {tuple(sorted(stubs[i:i + 2])) for i in range(0, len(stubs), 2)}
        if len(pairs) * 2 == len(stubs) and all(u != v for u, v in pairs):
            return Graph(n, sorted(pairs))


def graphs_above_the_exhaustive_range():
    """The reduce-cubic gadgets (the fundamental graphs of every connected
    cubic graph on 4 to 10 vertices and of two on 12) with their one-vertex
    reductions, 18-vertex distance-hereditary graphs, C16, Q4, Petersen,
    7K2, and random 3- and 4-regular graphs on 12 to 20 vertices."""
    from test_containment import grown_by_pendants_and_twins
    from test_matroids import CUBIC_UP_TO_10

    cubic = CUBIC_UP_TO_10 + ["I?LRCecq?", "KhEKAC`CGO_p", "K{CY?SBG?G_F"]
    for g6 in cubic:
        gadget = fundamental_graph(from_graph6(g6)).graph
        yield gadget
        yield from (r for _, _, r in containment._reductions(gadget))
    for seed in (0, 1, 2, 3, 24):
        yield grown_by_pendants_and_twins(random.Random(seed), 18)
    q4 = Graph(16, [(u, u ^ 1 << b) for u in range(16) for b in range(4)
                    if u < u ^ 1 << b])
    yield from (named_graph("C16"), q4, symmetric_test_graphs()[3],
                named_graph("7K2"))
    rng = random.Random(25)
    for d in (3, 4):
        for n in range(12, 21):
            if n * d % 2 == 0:
                yield random_regular(rng, n, d)


def test_forms_and_maps_are_invariant_above_the_exhaustive_range():
    # each graph against three seeded relabellings of itself: one form,
    # shared as one object, and maps that carry edges to edges
    rng = random.Random(26)
    count = 0
    for g in graphs_above_the_exhaustive_range():
        form = canonical_form(g)
        for _ in range(3):
            perm = list(range(g.n))
            rng.shuffle(perm)
            h = relabel(g, perm)
            hform, order, _ = canon.canonical_labelling(h)
            assert hform is form and relabel(h, list(order)) == form
            phi = isomorphism(g, h)
            assert sorted(phi) == list(range(g.n)) and relabel(h, phi) == g
        count += 1
    assert count > 500


def test_labelling_does_not_memoise_its_input(monkeypatch):
    monkeypatch.setattr(canon, "_FORMS", {})
    g = relabel(named_graph("P5"), [3, 0, 4, 1, 2])
    form, _, _ = canon.canonical_labelling(g)
    assert canon._FORMS == {form: form}
    assert canonical_form(g) is form


def test_full_form_cache_warns_and_still_computes(monkeypatch):
    g = named_graph("C5")
    expect = canonical_form(g)
    monkeypatch.setattr(canon, "_FORMS", {})
    monkeypatch.setattr(canon, "CACHE_CAP", 0)
    with pytest.warns(RuntimeWarning, match="PIVOTMINORS_CACHE_CAP"):
        assert canonical_form(g) == expect
    assert not canon._FORMS


def test_canonical_form_order_cap():
    # no order cap: the search is bounded by its work, so graphs above 16
    # vertices label whenever twins or cell keys keep the tree small
    rng = random.Random(22)
    for g in (Graph(64), complete_multipartite([32, 32]),
              clique_star(8, [6, 6, 6, 6]), named_graph("P3+2C5+K1,12")):
        assert g.n > 16
        perm = list(range(g.n))
        rng.shuffle(perm)
        assert canonical_form(relabel(g, perm)) == canonical_form(g)


def test_labelling_budget_names_its_input(monkeypatch):
    # C16 costs 1,437 work units; a budget of 2^10 stops it early
    g = named_graph("C16")
    monkeypatch.setattr(canon, "_FORMS", {})
    monkeypatch.setattr(canon, "LABEL_BUDGET", 1 << 10)
    start = time.perf_counter()
    with pytest.raises(LabellingBudgetError) as err:
        canonical_form(g)
    assert time.perf_counter() - start < 1
    assert err.value.budget == 1 << 10
    assert err.value.graph6 == to_graph6(g)
    assert "LABEL_BUDGET" in str(err.value) and to_graph6(g) in str(err.value)
    assert not canon._FORMS


def test_is_isomorphic_spot_checks():
    assert is_isomorphic(named_graph("C5"), relabel(named_graph("C5"), [2, 0, 3, 1, 4]))
    assert not is_isomorphic(named_graph("C5"), named_graph("P5"))
    assert not is_isomorphic(Graph(3), Graph(4))


def test_isomorphism_returns_a_real_mapping():
    rng = random.Random(12)
    for _ in range(100):
        n = rng.randint(1, 8)
        g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                      if rng.random() < 0.5])
        perm = list(range(n))
        rng.shuffle(perm)
        h = relabel(g, perm)
        phi = isomorphism(g, h)
        assert phi is not None
        assert sorted(phi) == list(range(n))
        for u in range(n):
            for v in range(u + 1, n):
                assert g.has_edge(u, v) == h.has_edge(phi[u], phi[v])
    assert isomorphism(named_graph("C5"), named_graph("P5")) is None
    # both are 2-regular on 6 vertices; only connectivity tells them apart
    assert isomorphism(named_graph("C6"), named_graph("2C3")) is None


# the induced patterns the recognizers search for
RECOGNIZER_PATTERNS = ("P5", "bull", "dart", "W4", "co-BW3",
                       *(f"O{i}" for i in range(1, 10)))


def test_find_induced_embedding_is_exact():
    # the embedding must preserve adjacency and non-adjacency
    rng = random.Random(13)
    patterns = [named_graph(s) for s in ("P3", "P4", "C4", "claw", "paw",
                                         *RECOGNIZER_PATTERNS)]
    for _ in range(200):
        n = rng.randint(4, 9)
        host = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                         if rng.random() < 0.5])
        for pat in patterns:
            emb = find_induced_embedding(pat, host)
            if emb is None:
                continue
            assert len(set(emb)) == pat.n
            assert induced_subgraph(host, emb) == pat


def test_has_induced_matches_brute_force():
    def brute_has_induced(pat, relabellings, host):
        # every vertex subset against every relabelling of the pattern
        return any(
            induced_subgraph(host, list(c)) in relabellings
            for c in itertools.combinations(range(host.n), pat.n)
        )

    pats = [named_graph("P3"), named_graph("C3"), Graph(3)]
    pats += [named_graph(s) for s in RECOGNIZER_PATTERNS]
    relabellings = [
        {relabel(pat, list(p)) for p in itertools.permutations(range(pat.n))}
        for pat in pats
    ]
    # every 5-vertex host, random hosts big enough for the 6- and 7-vertex
    # patterns, and each pattern plus one vertex, shuffled, so that every
    # pattern is also found
    rng = random.Random(14)
    hosts = list(all_labeled_graphs(5))
    for _ in range(150):
        n = rng.randint(6, 8)
        p = rng.choice((0.5, 0.7))
        hosts.append(Graph(n, [(u, v) for u in range(n)
                               for v in range(u + 1, n) if rng.random() < p]))
    for pat in pats:
        extra = [(u, pat.n) for u in range(pat.n) if rng.random() < 0.5]
        grown = Graph(pat.n + 1, list(pat.edges()) + extra)
        perm = list(range(grown.n))
        rng.shuffle(perm)
        hosts.append(relabel(grown, perm))
    for host in hosts:
        for pat, rel in zip(pats, relabellings):
            assert has_induced(pat, host) == brute_has_induced(pat, rel, host)


def embedding_without_twin_rule(pattern, host):
    """find_induced_embedding as it was before the twin rule: the same
    vertex order and domains, every domain vertex tried in turn."""
    k, n = pattern.n, host.n
    if k > n or pattern.num_edges > host.num_edges:
        return None
    order, seen = [], 0
    while len(order) < k:
        free = [v for v in range(k) if not seen >> v & 1]
        # the first vertex of the largest (anchored, degree) key
        best = max(free, key=lambda v: ((pattern.rows[v] & seen).bit_count(),
                                        pattern.degree(v), -v))
        order.append(best)
        seen |= 1 << best
    image = [0] * k

    def dfs(i, used):
        if i == k:
            return True
        p = order[i]
        dom = sum(1 << c for c in range(n)
                  if host.degree(c) >= pattern.degree(p)) & ~used
        for j in range(i):
            row = host.rows[image[j]]
            dom &= row if pattern.has_edge(p, order[j]) else ~row
        for c in range(n):
            if dom >> c & 1:
                image[i] = c
                if dfs(i + 1, used | 1 << c):
                    return True
        return False

    if not dfs(0, 0):
        return None
    phi = [0] * k
    for i, p in enumerate(order):
        phi[p] = image[i]
    return phi


def twin_rich_hosts(rng):
    """Shuffled hosts full of twins: random graphs with true and false
    twins added, complete multipartite graphs, clique-stars and unions of
    two cliques."""
    def shuffled(g):
        perm = list(range(g.n))
        rng.shuffle(perm)
        return relabel(g, perm)

    for _ in range(60):
        n = rng.randint(3, 6)
        g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                      if rng.random() < 0.5])
        for _ in range(rng.randint(1, 5)):
            v = rng.randrange(g.n)
            edges = list(g.edges()) + [(u, g.n) for u in range(g.n)
                                       if g.has_edge(u, v)]
            if rng.random() < 0.5:  # a true twin of v, else a false one
                edges.append((v, g.n))
            g = Graph(g.n + 1, edges)
        yield shuffled(g)
    for _ in range(20):
        sizes = [rng.randint(1, 3) for _ in range(rng.randint(2, 5))]
        yield shuffled(complete_multipartite(sizes))
        yield shuffled(clique_star(rng.randint(1, 3),
                                   [rng.randint(1, 3) for _ in range(3)]))
        yield shuffled(disjoint_union(complete_graph(rng.randint(1, 6)),
                                      complete_graph(rng.randint(1, 6))))


def test_twin_rule_keeps_the_first_embedding():
    # the twin rule skips only candidates that would fail, so the
    # embedding found, not only its existence, is unchanged
    rng = random.Random(15)
    patterns = [named_graph(s) for s in ("C3", "P4", "C4", "paw", "diamond",
                                         "2P2", "3P1", "claw", "C5",
                                         *RECOGNIZER_PATTERNS)]
    found = 0
    for host in twin_rich_hosts(rng):
        for pat in patterns:
            phi = find_induced_embedding(pat, host)
            assert phi == embedding_without_twin_rule(pat, host), (
                pat.rows, host.rows)
            found += phi is not None
    assert found > 100


def test_induced_embedding_of_larger_pattern_fails():
    assert find_induced_embedding(named_graph("C5"), named_graph("C4")) is None
    assert not has_induced(named_graph("claw"), named_graph("C4"))
