"""Canonical forms: equal keys must mean isomorphic, and nothing else."""

import itertools
import random

import pytest

from pivotminors import (
    Graph,
    canonical_form,
    canonical_key,
    find_induced_embedding,
    has_induced,
    induced_subgraph,
    is_isomorphic,
    isomorphism,
    named_graph,
)
from pivotminors import canon
from pivotminors.canon import CANON_MAX_VERTICES
from pivotminors.generate import KNOWN_CLASS_COUNTS


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


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5])
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


def test_full_form_cache_warns_and_still_computes(monkeypatch):
    g = named_graph("C5")
    expect = canonical_form(g)
    monkeypatch.setattr(canon, "_FORMS", {})
    monkeypatch.setattr(canon, "CACHE_CAP", 0)
    with pytest.warns(RuntimeWarning, match="PIVOTMINORS_CACHE_CAP"):
        assert canonical_form(g) == expect
    assert not canon._FORMS


def test_canonical_form_order_cap():
    with pytest.raises(ValueError):
        canonical_form(Graph(CANON_MAX_VERTICES + 1))
    canonical_form(Graph(CANON_MAX_VERTICES))  # at the cap is fine


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


def test_induced_embedding_of_larger_pattern_fails():
    assert find_induced_embedding(named_graph("C5"), named_graph("C4")) is None
    assert not has_induced(named_graph("claw"), named_graph("C4"))
