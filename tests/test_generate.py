"""Exhaustive one-per-isomorphism-class generation."""

import hashlib
import itertools
import os

import pytest

from pivotminors import (
    Graph,
    canon,
    canonical_form,
    canonical_key,
    generate,
    generate_all_graphs,
    is_bipartite,
    to_graph6,
)
from pivotminors.generate import (
    GENERATE_MAX_VERTICES,
    KNOWN_CLASS_COUNTS,
    extend_by_one_vertex,
)

SLOW = os.environ.get("PIVOTMINORS_SLOW") == "1"


@pytest.mark.parametrize("n", list(range(0, 8)))
def test_class_counts(n):
    assert len(generate_all_graphs(n)) == KNOWN_CLASS_COUNTS[n]


def test_class_count_n8():
    assert len(generate_all_graphs(8)) == KNOWN_CLASS_COUNTS[8]


@pytest.mark.skipif(not SLOW, reason="set PIVOTMINORS_SLOW=1 to sweep n=9")
def test_class_count_n9():
    assert len(generate_all_graphs(9)) == KNOWN_CLASS_COUNTS[9]


def test_representatives_are_canonical_and_distinct():
    for n in range(0, 7):
        reps = generate_all_graphs(n)
        keys = [canonical_key(g) for g in reps]
        assert len(set(keys)) == len(reps)
        for g in reps[:50]:
            assert canonical_form(g) == g


def test_representatives_sorted_by_size_then_key():
    reps = generate_all_graphs(6)
    marks = [(g.num_edges, canonical_key(g)) for g in reps]
    assert marks == sorted(marks)


def test_every_small_graph_is_covered():
    # each 4-vertex labeled graph must hit exactly one representative
    reps = {canonical_key(g) for g in generate_all_graphs(4)}
    pairs = list(itertools.combinations(range(4), 2))
    for bits in range(1 << 6):
        g = Graph(4, [p for i, p in enumerate(pairs) if bits >> i & 1])
        assert canonical_key(g) in reps


def _all_masks_extension(parents):
    """Reference: canonicalise every one-vertex extension of every parent."""
    seen = set()
    for parent in parents:
        k = parent.n + 1
        for mask in range(1 << parent.n):
            edges = [*parent.edges(), *((v, k - 1) for v in range(parent.n)
                                        if mask >> v & 1)]
            seen.add(canonical_form(Graph(k, edges)))
    return seen


def test_extension_matches_all_masks_to_n7():
    for n in range(1, 8):
        got = list(extend_by_one_vertex(generate_all_graphs(n - 1)))
        assert len(got) == len(set(got)) == KNOWN_CLASS_COUNTS[n]
        assert set(got) == _all_masks_extension(generate_all_graphs(n - 1))


# sha256 of the graph6 lines of generate_all_graphs(n), in order, each line
# ending in a newline.  Taken before generation pruned masks by
# automorphism orbits; that change kept the output and its order.  A new
# canonical labelling (ROADMAP item 1) changes every form and re-pins these
# on purpose.
GENERATION_DIGESTS = {
    0: "ce773b87709a04bbcb0ead74fea94b1f20fa4a4d185fc06a24a9bc703dd99613",
    1: "ecf5de1a2ecc66a1876a832804c64f6b5125784e94c82285d9720621c613ab46",
    2: "b7cd2a004ade86133158ffa94292f1d79a1fa154874706bf33b9e841cd3fa4cb",
    3: "1d237c0da1c599bbd8f4cffdf1fd13171099276e9ca335a1e0c819e4be9b2bea",
    4: "540e25859844d83039fbcbdbfe1b32e572e79962d14a4e6bad8c91d944341fd1",
    5: "9c92b891937c81e0304b70c79250de6ffced24dcd43453f73504065b29e19e9e",
    6: "4dbc598e654a5b24d66615d450d3b482878ab2ebb2b97b871c0b1c145a4c80f9",
    7: "c32833d7c3ad058e3ca8288f9b69b1c42d93aa45be08b1650cb1f1a3640f853c",
    8: "cafe0aecc0764c9488803802eb0830038e1b707afd859bab404a22c9b02ca8af",
}


@pytest.mark.parametrize("n", sorted(GENERATION_DIGESTS))
def test_generation_output_is_pinned(n):
    lines = "".join(to_graph6(g) + "\n" for g in generate_all_graphs(n))
    assert hashlib.sha256(lines.encode()).hexdigest() == GENERATION_DIGESTS[n]


def count_searches(monkeypatch):
    """Count labelling searches by order, through canon._search."""
    counts = {}
    search = canon._search

    def spy(g, keys=None):
        counts[g.n] = counts.get(g.n, 0) + 1
        return search(g, keys)

    monkeypatch.setattr(canon, "_search", spy)
    return counts


def test_generation_memoises_only_forms(monkeypatch):
    # labelled candidates stay out of the form cache: after a cold
    # generation every entry maps a form to itself, one per class
    monkeypatch.setattr(canon, "_FORMS", {})
    monkeypatch.setattr(generate, "_CLASSES", {0: (Graph(0),)})
    counts = count_searches(monkeypatch)
    generate_all_graphs(7)
    assert all(key is form for key, form in canon._FORMS.items())
    assert len(canon._FORMS) == sum(KNOWN_CLASS_COUNTS[:8])
    # one search per parent and one per screened mask orbit: 1,509 to
    # n = 7; without the cell-key screen it is 1,849, and trying every
    # mask with a tie check took 3,265
    assert sum(counts.values()) <= 1600


def test_one_search_per_mask_orbit(monkeypatch):
    # Aut(empty graph) is the full symmetric group: the masks fall into
    # one orbit per degree, and each orbit gives one class, a star plus
    # isolated vertices
    counts = count_searches(monkeypatch)
    got = list(extend_by_one_vertex([Graph(6)]))
    assert counts.get(7, 0) <= 7
    stars = [Graph(7, [(6, v) for v in range(d)]) for d in range(7)]
    assert sorted(got, key=to_graph6) == sorted(
        map(canonical_form, stars), key=to_graph6)


def test_extending_a_hereditary_class_finds_all_of_it():
    # mine extends only the free classes one order down; that finds every
    # free class because a hereditary class holds the canonical parent of
    # each of its members.  Bipartite graphs form such a class.
    below = {Graph(0)}
    for n in range(1, 7):
        below = {g for g in extend_by_one_vertex(below) if is_bipartite(g)}
        pairs = list(itertools.combinations(range(n), 2))
        brute = set()
        for bits in range(1 << len(pairs)):
            g = Graph(n, [p for i, p in enumerate(pairs) if bits >> i & 1])
            if is_bipartite(g):
                brute.add(canonical_form(g))
        assert below == brute


def test_order_cap():
    with pytest.raises(ValueError):
        generate_all_graphs(GENERATE_MAX_VERTICES + 1)
    with pytest.raises(ValueError):
        generate_all_graphs(-1)
