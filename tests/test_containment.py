"""The containment oracle against a definition-level brute force.

The recursive oracle leans on the reduction to g - v and g / v.  The
reference implementation here uses only the definition: breadth-first
closure of a host under single pivots and single deletions, then an
isomorphism test at the target order.  Agreement between the two on every
small case is the load-bearing check of the whole engine.
"""

import itertools
import random
import re

import pytest

from pivotminors import (
    DeleteVertex,
    Graph,
    OrbitLimitError,
    PivotEdge,
    PivotMinorCache,
    Verdict,
    apply_sequence,
    canonical_form,
    canonical_key,
    contains_pivot_minor,
    contract_pivot,
    delete_vertex,
    disjoint_union,
    from_graph6,
    fundamental_graph,
    generate_all_graphs,
    induced_subgraph,
    is_bipartite,
    is_connected,
    is_isomorphic,
    named_graph,
    pivot,
    pivot_equivalent,
    pivot_orbit,
    reduction_roundtrip,
    star_graph,
    to_graph6,
)
from pivotminors import canon, containment
from pivotminors.graphs import component_sides
from pivotminors.obstructions import MINE_MAX_VERTICES


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


def test_last_level_screen_is_exact():
    # each query twice: on a cache that stores only what the queries
    # store, and on one whose child_keys held every class on 5 to 7
    # vertices before any query, whose lists each query then reads
    memo = {}
    labelled = {3: PivotMinorCache(), 4: PivotMinorCache()}
    warmed = PivotMinorCache()
    for n in (5, 6, 7):
        for g in generate_all_graphs(n):
            warmed.child_keys(g)

    def check(g, h):
        want = reference_contains(g, h, memo)
        fresh = labelled[h.n] if h.n in labelled else PivotMinorCache()
        for cache in (fresh, warmed):
            assert bool(contains_pivot_minor(g, h, cache=cache)) == want, \
                (canonical_key(g), canonical_key(h))

    targets = list(generate_all_graphs(3)) + list(generate_all_graphs(4))
    for g in generate_all_graphs(6) + generate_all_graphs(7):
        for h in targets:
            check(g, h)
    # a graph on |h| + 1 vertices is settled unlabelled and stores nothing
    assert all(g.n > h_n + 1 for h_n, c in labelled.items() for g in c.children)
    cubic = [g for n in (4, 6, 8) for g in generate_all_graphs(n)
             if g.degree_sequence() == (3,) * n and is_connected(g)]
    assert len(cubic) == 8  # K4; K3,3 and the prism; five on 8 vertices
    for g in cubic:
        check(fundamental_graph(g).graph, star_graph(g.n - 1))


def test_side_rule_is_exact():
    # every bipartite class on up to 8 vertices and every class on 6,
    # against connected and disconnected bipartite targets and two that
    # are not bipartite.  Each target runs on a fresh cache and on one
    # cache shared by all targets in ascending order.  Either way a node
    # above |h| + 1 vertices reads one stored list of labelled reductions
    # and screens each one by the side rule; on the shared cache an
    # earlier target may have stored that list
    memo = {}
    shared = PivotMinorCache()
    hosts = [g for n in range(1, 9) for g in generate_all_graphs(n)
             if n == 6 or is_bipartite(g)]
    names = ["C3", "3P1", "P4", "C4", "paw", "2P2", "claw", "K1,4", "P5",
             "K1,5"]
    for h in map(named_graph, names):
        fresh = PivotMinorCache()
        for g in hosts:
            want = reference_contains(g, h, memo)
            for cache in (fresh, shared):
                assert bool(contains_pivot_minor(g, h, cache=cache)) == want, \
                    (canonical_key(g), canonical_key(h))
    # a bipartite host never holds a target that is not bipartite, so this
    # 16-vertex query ends at its root with no child computed
    host = from_graph6("O????@xA?gG?G?@?PO@S?")
    assert is_bipartite(host)
    cache = PivotMinorCache()
    assert contains_pivot_minor(host, named_graph("C3"),
                                cache=cache) is Verdict.FALSE
    assert not cache.children


def side_sizes(g):
    comps = component_sides(g)
    return None if comps is None else [
        sorted((a.bit_count(), b.bit_count())) for a, b in comps]


def has_room(g, h):
    """Is g not bipartite, or does each component of h fit into one of
    g's by side sizes?  Only such a graph can hold h as a pivot-minor."""
    have, need = side_sizes(g), side_sizes(h)
    return have is None or need is not None and all(
        any(p <= a and q <= b for a, b in have) for p, q in need)


def assert_reductions_richest_first(g, kids):
    # kids holds every labelled reduction of g, by descending degree
    # sequence, ties in _reductions order
    reds = [r for _, _, r in containment._reductions(g)]
    assert len(kids) == len(reds), canonical_key(g)
    seqs = [k.degree_sequence()[::-1] for k in kids]
    assert all(a >= b for a, b in zip(seqs, seqs[1:])), canonical_key(g)
    for seq in set(seqs):
        assert [k for k in kids if k.degree_sequence()[::-1] == seq] == \
            [r for r in reds if r.degree_sequence()[::-1] == seq], \
            canonical_key(g)
    assert {canonical_form(k) for k in kids} == labelled_reduction_forms(g)


def assert_children_complete(cache):
    # a stored tuple holds every labelled reduction of its node, so a
    # later query, for whatever target, reads no list cut to another's
    for g, kids in cache.children.items():
        assert_reductions_richest_first(g, kids)


def test_nothing_without_room_is_canonicalised(monkeypatch):
    # the sweep of test_side_rule_is_exact, each target on a fresh cache
    # and on one shared cache.  The side rule screens every labelled graph
    # before it is canonicalised, at the root and at every level, so a
    # graph on more than |h| vertices reaches canonical_form only if it
    # has room for h
    seen = []

    def spy(g):
        seen.append(g)
        return canonical_form(g)

    monkeypatch.setattr(containment, "canonical_form", spy)
    shared = PivotMinorCache()
    hosts = [g for n in range(1, 9) for g in generate_all_graphs(n)
             if n == 6 or is_bipartite(g)]
    names = ["C3", "3P1", "P4", "C4", "paw", "2P2", "claw", "K1,4", "P5",
             "K1,5"]
    for name in names:
        h = named_graph(name)
        fresh = PivotMinorCache()
        for g in hosts:
            for cache in (fresh, shared):
                contains_pivot_minor(g, h, cache=cache)
        above = [g for g in seen if g.n > h.n]
        assert above, name
        assert all(has_room(g, h) for g in above), name
        seen.clear()
    assert shared.children
    assert_children_complete(shared)


def test_screened_reductions_compute_degrees_from_rows():
    # asked for one degree sequence and its edge count, the screen must
    # yield exactly the reductions that have it, in _reductions order.
    # Each triple (v, z, r) replays to r as the certificate peel records
    # it, and an isolated v has its deletion only
    def check(g):
        triples = list(containment._reductions(g))
        for v, z, r in triples:
            steps = [PivotEdge(z, v)] if z >= 0 else []
            assert apply_sequence(g, steps + [DeleteVertex(v)]) == r
        assert [v for v, z, _ in triples if z >= 0] == \
            [v for v in range(g.n) if g.rows[v]]
        reds = [r for _, _, r in triples]
        for seq in {r.degree_sequence() for r in reds}:
            got = containment._screened_reductions(
                g, frozenset([seq]), frozenset([sum(seq) // 2]))
            assert list(got) == [r for r in reds if r.degree_sequence() == seq], \
                (g, seq)

    for n in range(1, 8):
        for g in generate_all_graphs(n):
            check(g)
    rng = random.Random(17)
    for _ in range(300):
        n = rng.randint(2, 16)
        p = rng.random()
        g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                      if rng.random() < p])
        check(g)
        check(disjoint_union(Graph(rng.randint(1, 3)), g))


def test_last_level_canonicalises_only_screened_reductions(monkeypatch):
    # the prism's query is K1,5 in a 9-vertex fundamental graph.  On a
    # fresh cache a node on 8 vertices settles its labelled reductions:
    # nothing on 7 vertices is canonicalised, and every 6-vertex graph
    # canonicalised has an orbit form's degrees
    star = star_graph(5)
    degrees = {x.degree_sequence() for x in pivot_orbit(star)}
    seen = []

    def spy(g):
        seen.append(g)
        return canonical_form(g)

    monkeypatch.setattr(containment, "canonical_form", spy)
    cache = PivotMinorCache()
    report = reduction_roundtrip(named_graph("prism"), cache=cache)
    assert report["contains_verdict"] == "true"
    last = [g.degree_sequence() for g in seen if g.n == star.n]
    assert last and set(last) <= degrees
    assert not [g for g in seen if g.n == star.n + 1]
    # the 9-vertex root has a reduction with no room for K1,5, which is
    # stored but never labelled: each graph canonicalised above 7
    # vertices, the root and the reductions it reaches, has room
    above = [g for g in seen if g.n > star.n + 1]
    assert above and all(has_room(g, star) for g in above)
    assert_children_complete(cache)
    assert all(g.n > star.n + 1 for g in cache.children)

    # on a warm cache, a node on 8 vertices settles the graphs of the
    # list stored for its form before the query
    fg = canonical_form(fundamental_graph(named_graph("prism")).graph)
    cache = PivotMinorCache()
    for kid in cache.child_keys(fg):
        cache.child_keys(canonical_form(kid))
    stored = {kid for kids in cache.children.values() for kid in kids}
    screened = []
    screen = containment._screened_reductions

    def screen_spy(g, degrees, sizes):
        screened.append(g)
        return screen(g, degrees, sizes)

    monkeypatch.setattr(containment, "_screened_reductions", screen_spy)
    assert contains_pivot_minor(fg, star, cache=cache) is Verdict.TRUE
    assert screened and all(g.n == star.n + 1 and g in stored
                            for g in screened)


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
            assert cache.children[g] is kids
            assert_reductions_richest_first(g, kids)
    # no target cuts a stored list, so it is the same whichever target
    # was queried first
    hosts = generate_all_graphs(6)
    targets = [named_graph(name) for name in ("C3", "P4", "claw", "2P2")]
    stored = []
    for order in (targets, targets[::-1]):
        queried = PivotMinorCache()
        for h in order:
            for g in hosts:
                contains_pivot_minor(g, h, cache=queried)
        stored.append(queried.children)
    assert stored[0] and stored[0] == stored[1]
    assert all(cache.children[g] == kids for g, kids in stored[0].items())


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
    assert err.value.graph6 == to_graph6(named_graph("C5"))


def test_inconclusive_propagates_without_caching(monkeypatch):
    g = disjoint_union(named_graph("C5"), Graph(1))
    c5 = named_graph("C5")
    cache = PivotMinorCache()
    with monkeypatch.context() as patch, \
            pytest.warns(RuntimeWarning, match="ORBIT_LIMIT = 1 "):
        patch.setattr(containment, "ORBIT_LIMIT", 1)
        verdict = contains_pivot_minor(g, c5, cache=cache)
    assert verdict is Verdict.INCONCLUSIVE
    assert not cache.verdicts and not cache.children
    # the limit is one constant, so the cache keeps the blown orbit
    with pytest.warns(RuntimeWarning, match="ORBIT_LIMIT"):
        assert contains_pivot_minor(g, c5, cache=cache) is \
            Verdict.INCONCLUSIVE
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
    assert err.value.graph6 == to_graph6(pivot(c5, 0, 1))


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


def grown_by_pendants_and_twins(rng, n):
    """A connected distance-hereditary graph: from K1, each new vertex is
    a pendant, a true twin or a false twin of an earlier one."""
    rows = [0]
    for w in range(1, n):
        v = rng.randrange(w)
        how = "pendant" if w == 1 else rng.choice(("pendant", "true", "false"))
        nb = {"pendant": 1 << v, "true": rows[v] | 1 << v,
              "false": rows[v]}[how]
        rows.append(nb)
        for u in range(w):
            if nb >> u & 1:
                rows[u] |= 1 << w
    return Graph(n, [(u, w) for w in range(n) for u in range(w)
                     if rows[u] >> w & 1])


def test_spent_search_budget_is_inconclusive_and_keeps_its_verdicts(
        monkeypatch):
    # distance-hereditary graphs are closed under pivot-minors (Bouchet)
    # and C5 is not one, so the answer is FALSE, after a whole search:
    # 2,541 memo misses on a fresh cache, about 1.2 s; the count moves with
    # the labelling, as contract_pivot pivots with the lowest-labelled
    # neighbour.  The side rule cannot cut it, since the host is not
    # bipartite
    host = grown_by_pendants_and_twins(random.Random(24), 18)
    assert is_connected(host) and not is_bipartite(host)
    c5 = named_graph("C5")
    cache = PivotMinorCache()
    monkeypatch.setattr(containment, "SEARCH_BUDGET", 100)
    message = f"SEARCH_BUDGET = 100 memo misses on host {to_graph6(host)}"
    with pytest.warns(RuntimeWarning, match=re.escape(message)):
        verdict = contains_pivot_minor(host, c5, cache=cache)
    assert verdict is Verdict.INCONCLUSIVE
    assert cache.misses == 100
    # the finished subtrees' verdicts stay, all exact; the open path's
    # nodes store none
    kept = len(cache.verdicts)
    assert 0 < kept < 100
    assert not any(cache.verdicts.values())
    monkeypatch.undo()
    assert contains_pivot_minor(host, c5, cache=cache) is Verdict.FALSE
    assert cache.misses - 100 == 2541 - kept


@pytest.mark.parametrize("module, limit, value, graph", [
    (canon, "LABEL_BUDGET", 1 << 10, "C17"),
    (containment, "ORBIT_LIMIT", 1, "P4"),
    (containment, "SEARCH_BUDGET", 0, "C17"),
])
def test_every_spent_limit_is_one_inconclusive_warning(
        monkeypatch, module, limit, value, graph):
    # C17 labels in more than 1,024 units and is a memo miss above P4, and
    # P4's orbit has more than one member.  Each limit names the graph it
    # was spent on: the host, or the target for its orbit
    monkeypatch.setattr(canon, "_FORMS", {})
    monkeypatch.setattr(module, limit, value)
    with pytest.warns(RuntimeWarning) as seen:
        verdict = contains_pivot_minor(named_graph("C17"), named_graph("P4"),
                                       cache=PivotMinorCache())
    assert verdict is Verdict.INCONCLUSIVE
    assert len(seen) == 1
    message = str(seen[0].message)
    assert message.startswith("inconclusive: ") and f"{limit} = {value} " \
        in message and message.endswith(to_graph6(named_graph(graph))), message


def test_orbit_limit_counts_the_start_member(monkeypatch):
    monkeypatch.setattr(containment, "ORBIT_LIMIT", 0)
    with pytest.raises(OrbitLimitError):
        pivot_orbit(named_graph("K3"))
    with pytest.warns(RuntimeWarning, match="ORBIT_LIMIT = 0 "):
        assert contains_pivot_minor(named_graph("C5"), named_graph("K3"),
                                    cache=PivotMinorCache()) is \
            Verdict.INCONCLUSIVE
    monkeypatch.setattr(containment, "ORBIT_LIMIT", 1)
    assert len(pivot_orbit(Graph(2))) == 1


@pytest.mark.parametrize("name", ["C16", "P16", "W15"])
def test_pivot_orbit_fits_the_gf2_bound_at_the_canon_cap(name):
    # members are g * X for even X with A[X] nonsingular: at most 2^(n-1),
    # so every target that mining's cap admits has an orbit that fits
    g = named_graph(name)
    assert g.n == MINE_MAX_VERTICES
    assert len(pivot_orbit(g)) <= 2 ** (g.n - 1) < containment.ORBIT_LIMIT


def test_pivot_orbit_fits_the_gf2_bound_on_every_small_class():
    for n in range(8):
        for g in generate_all_graphs(n):
            assert len(pivot_orbit(g)) <= 2 ** max(n - 1, 0), canonical_key(g)
