"""Exhaustive one-per-isomorphism-class generation."""

import itertools
import os

import pytest

from pivotminors import (
    Graph,
    canonical_form,
    canonical_key,
    generate_all_graphs,
    is_bipartite,
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
