"""The containment oracle against a definition-level brute force.

The recursive oracle leans on the reduction to g - v and g / v.  The
reference implementation here uses only the definition: breadth-first
closure of a host under single pivots and single deletions, then an
isomorphism test at the target order.  Agreement between the two on every
small case is the load-bearing check of the whole engine.
"""

import itertools
import random

import pytest

from pivotminors import (
    Graph,
    OrbitLimitError,
    PivotMinorCache,
    Verdict,
    canonical_form,
    canonical_key,
    contains_pivot_minor,
    contract_pivot,
    delete_vertex,
    disjoint_union,
    fundamental_graph,
    generate_all_graphs,
    induced_subgraph,
    is_connected,
    is_isomorphic,
    named_graph,
    pivot,
    pivot_equivalent,
    pivot_orbit,
    reduction_roundtrip,
    star_graph,
)
from pivotminors import canon, containment


def definition_closure(g):
    """Every graph reachable from g by pivots and deletions, by sizes."""
    seen = {g}
    queue = [g]
    while queue:
        cur = queue.pop()
        nxt = [pivot(cur, u, v) for u, v in cur.edges()]
        nxt += [delete_vertex(cur, v) for v in range(cur.n)]
        for h in nxt:
            if h not in seen:
                seen.add(h)
                queue.append(h)
    return seen


def definition_contains(g, h):
    return any(x.n == h.n and is_isomorphic(x, h) for x in definition_closure(g))


def test_trivial_cases():
    assert contains_pivot_minor(named_graph("C5"), Graph(0)) is Verdict.TRUE
    assert contains_pivot_minor(Graph(2), named_graph("C5")) is Verdict.FALSE
    assert contains_pivot_minor(named_graph("C5"), named_graph("C5")) is Verdict.TRUE


def test_known_verdicts():
    assert bool(contains_pivot_minor(named_graph("C5"), named_graph("C3")))
    assert not bool(contains_pivot_minor(named_graph("C4"), named_graph("C3")))
    assert bool(contains_pivot_minor(named_graph("C7"), named_graph("C3")))
    assert not bool(contains_pivot_minor(named_graph("K4"), Graph(2)))


def test_oracle_matches_definition_exhaustively(cache):
    # every host class on 5 vertices against every target on 3 and 4
    hosts = generate_all_graphs(5)
    targets = list(generate_all_graphs(3)) + list(generate_all_graphs(4))
    for g in hosts:
        closure = definition_closure(g)
        for h in targets:
            expect = any(x.n == h.n and is_isomorphic(x, h) for x in closure)
            got = contains_pivot_minor(g, h, cache=cache)
            assert got.definite
            assert bool(got) == expect, (canonical_key(g), canonical_key(h))


def test_oracle_matches_definition_random_n6(cache):
    rng = random.Random(14)
    hosts = generate_all_graphs(6)
    targets = list(generate_all_graphs(4))
    for g in rng.sample(list(hosts), 25):
        closure = definition_closure(g)
        for h in targets:
            expect = any(x.n == h.n and is_isomorphic(x, h) for x in closure)
            got = contains_pivot_minor(g, h, cache=cache)
            assert bool(got) == expect


def reference_contains(g, h, memo):
    """The recursion with no last-level screen: every reduction is
    canonicalised at every level, and a graph on |h| vertices is compared
    with the forms of h's pivot orbit.  memo maps (form, target form) to
    a verdict and may be shared between calls."""
    th = canonical_form(h)
    orbit = frozenset(map(canonical_form, pivot_orbit(th)))

    def rec(cur):
        if cur.n == th.n:
            return cur in orbit
        if (cur, th) not in memo:
            kids = {canonical_form(delete_vertex(cur, v)) for v in range(cur.n)}
            kids |= {canonical_form(contract_pivot(cur, v))
                     for v in range(cur.n) if cur.rows[v]}
            memo[cur, th] = any(rec(kid) for kid in kids)
        return memo[cur, th]

    return g.n >= th.n and rec(canonical_form(g))


def test_last_level_screen_is_exact(cache):
    memo = {}
    targets = list(generate_all_graphs(3)) + list(generate_all_graphs(4))
    for g in generate_all_graphs(6) + generate_all_graphs(7):
        for h in targets:
            got = contains_pivot_minor(g, h, cache=cache)
            assert bool(got) == reference_contains(g, h, memo), \
                (canonical_key(g), canonical_key(h))
    cubic = [g for n in (4, 6, 8) for g in generate_all_graphs(n)
             if g.degree_sequence() == (3,) * n and is_connected(g)]
    assert len(cubic) == 8  # K4; K3,3 and the prism; five on 8 vertices
    for g in cubic:
        fg = fundamental_graph(g).graph
        star = star_graph(g.n - 1)
        assert bool(contains_pivot_minor(fg, star, cache=cache)) == \
            reference_contains(fg, star, memo), canonical_key(g)


def test_last_level_canonicalises_only_screened_reductions(monkeypatch):
    # the prism's query is K1,5 in a 9-vertex fundamental graph; every
    # 6-vertex graph canonicalised must match an orbit form's degrees
    star = star_graph(5)
    degrees = {x.degree_sequence() for x in pivot_orbit(star)}
    seen = []

    def spy(g):
        if g.n == star.n:
            seen.append(g.degree_sequence())
        return canonical_form(g)

    monkeypatch.setattr(containment, "canonical_form", spy)
    cache = PivotMinorCache()
    report = reduction_roundtrip(named_graph("prism"), cache=cache)
    assert report["contains_verdict"] == "true"
    assert seen and set(seen) <= degrees
    assert cache.children
    assert all(g.n != star.n + 1 for g in cache.children)


def labelled_reduction_forms(g):
    """The forms of all 2n labelled one-vertex reductions of g: delete v,
    and pivot v with its first neighbour, then delete v (an isolated v
    contracts to its deletion)."""
    forms = set()
    for v in range(g.n):
        forms.add(canonical_form(delete_vertex(g, v)))
        nbrs = g.neighbors(v)
        contracted = pivot(g, v, nbrs[0]) if nbrs else g
        forms.add(canonical_form(delete_vertex(contracted, v)))
    return forms


def test_child_keys_are_the_reductions_richest_first():
    cache = PivotMinorCache()
    for n in range(1, 8):
        for g in generate_all_graphs(n):
            kids = cache.child_keys(g)
            assert len(kids) == len(set(kids))
            assert set(kids) == labelled_reduction_forms(g), canonical_key(g)
            seqs = [tuple(sorted((r.bit_count() for r in k.rows), reverse=True))
                    for k in kids]
            assert all(a >= b for a, b in zip(seqs, seqs[1:])), \
                canonical_key(g)


def test_containment_is_monotone_under_extension(cache):
    # adding a vertex can only add pivot-minors
    rng = random.Random(15)
    for _ in range(50):
        n = rng.randint(3, 6)
        g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                      if rng.random() < 0.5])
        h = named_graph(rng.choice(["C3", "P3", "3P1", "P4"]))
        extended = disjoint_union(g, Graph(1))
        if bool(contains_pivot_minor(g, h, cache=cache)):
            assert bool(contains_pivot_minor(extended, h, cache=cache))


def test_self_containment(cache):
    for g in generate_all_graphs(5)[:20]:
        assert contains_pivot_minor(g, g, cache=cache) is Verdict.TRUE


def test_verdict_semantics():
    assert bool(Verdict.TRUE) is True
    assert bool(Verdict.FALSE) is False
    with pytest.raises(ValueError):
        bool(Verdict.INCONCLUSIVE)
    assert Verdict.TRUE.definite and Verdict.FALSE.definite
    assert not Verdict.INCONCLUSIVE.definite


def test_pivot_orbit_basics(monkeypatch):
    lone = Graph(3)
    assert set(pivot_orbit(lone)) == {lone}
    orbit = pivot_orbit(named_graph("C5"))
    assert named_graph("C5") in orbit
    assert len(orbit) > 1
    # every member but the start is one pivot away from its BFS parent
    assert next(iter(orbit)) == named_graph("C5")
    for member, link in orbit.items():
        if link is None:
            assert member == named_graph("C5")
        else:
            parent, u, v = link
            assert pivot(parent, u, v) == member
    monkeypatch.setattr(containment, "ORBIT_LIMIT", 1)
    with pytest.raises(OrbitLimitError) as err:
        pivot_orbit(named_graph("C5"))
    assert err.value.limit == 1


def test_inconclusive_propagates_without_caching(monkeypatch):
    g = disjoint_union(named_graph("C5"), Graph(1))
    c5 = named_graph("C5")
    cache = PivotMinorCache()
    with monkeypatch.context() as patch:
        patch.setattr(containment, "ORBIT_LIMIT", 1)
        verdict = contains_pivot_minor(g, c5, cache=cache)
    assert verdict is Verdict.INCONCLUSIVE
    assert not cache.verdicts and not cache.children
    # the limit is one constant, so the cache keeps the blown orbit
    assert contains_pivot_minor(g, c5, cache=cache) is Verdict.INCONCLUSIVE
    assert bool(contains_pivot_minor(g, c5, cache=PivotMinorCache()))


def test_cache_cap_zero_still_computes(monkeypatch):
    monkeypatch.setattr(canon, "CACHE_CAP", 0)
    cache = PivotMinorCache()
    with pytest.warns(RuntimeWarning, match="PIVOTMINORS_CACHE_CAP") as seen:
        assert bool(contains_pivot_minor(named_graph("C5"),
                                         named_graph("C3"), cache=cache))
    assert any(w.filename.endswith("containment.py") for w in seen)
    assert not cache.verdicts and not cache.children and not cache.target_orbits


def test_cache_clear():
    cache = PivotMinorCache()
    contains_pivot_minor(named_graph("C5"), named_graph("C3"), cache=cache)
    assert cache.verdicts or cache.children
    cache.clear()
    assert not cache.verdicts and not cache.children and not cache.target_orbits


def test_pivot_equivalence():
    c5 = named_graph("C5")
    assert pivot_equivalent(c5, pivot(c5, 0, 1))
    assert pivot_equivalent(c5, induced_subgraph(c5, [3, 1, 4, 0, 2]))
    assert not pivot_equivalent(named_graph("C3"), Graph(3))
    assert not pivot_equivalent(Graph(2), Graph(3))


def test_pivot_equivalent_names_the_orbit_limit(monkeypatch):
    # a fresh shared cache, so no orbit stored by an earlier test answers
    monkeypatch.setattr(containment, "DEFAULT_CACHE", PivotMinorCache())
    c5 = named_graph("C5")
    monkeypatch.setattr(containment, "ORBIT_LIMIT", 1)
    with pytest.raises(OrbitLimitError) as err:
        pivot_equivalent(c5, pivot(c5, 0, 1))
    assert err.value.limit == 1


def test_pivot_equivalent_classes_share_pivot_minors(cache):
    # pivoting the host never changes any containment verdict
    rng = random.Random(16)
    targets = [named_graph(s) for s in ("C3", "P4", "3P1")]
    for _ in range(60):
        n = rng.randint(3, 7)
        g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                      if rng.random() < 0.5])
        edges = list(g.edges())
        if not edges:
            continue
        u, v = rng.choice(edges)
        p = pivot(g, u, v)
        for h in targets:
            assert bool(contains_pivot_minor(g, h, cache=cache)) == \
                bool(contains_pivot_minor(p, h, cache=cache))


def test_orbit_limit_counts_the_start_member(monkeypatch):
    monkeypatch.setattr(containment, "ORBIT_LIMIT", 0)
    with pytest.raises(OrbitLimitError):
        pivot_orbit(named_graph("K3"))
    assert contains_pivot_minor(named_graph("C5"), named_graph("K3"),
                                cache=PivotMinorCache()) is Verdict.INCONCLUSIVE
    monkeypatch.setattr(containment, "ORBIT_LIMIT", 1)
    assert len(pivot_orbit(Graph(2))) == 1


@pytest.mark.parametrize("name", ["C16", "P16", "W15"])
def test_pivot_orbit_fits_the_gf2_bound_at_the_canon_cap(name):
    # members are g * X for even X with A[X] nonsingular: at most 2^(n-1)
    g = named_graph(name)
    assert g.n == canon.CANON_MAX_VERTICES
    assert len(pivot_orbit(g)) <= 2 ** (g.n - 1) < containment.ORBIT_LIMIT


def test_pivot_orbit_fits_the_gf2_bound_on_every_small_class():
    for n in range(8):
        for g in generate_all_graphs(n):
            assert len(pivot_orbit(g)) <= 2 ** max(n - 1, 0), canonical_key(g)
