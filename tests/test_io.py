"""graph6 and edge-list serialization, including the strict error paths."""

import random

import pytest

from pivotminors import (
    Graph,
    from_edgelist,
    from_graph6,
    generate_all_graphs,
    parse_graph_text,
    read_graphs,
    to_edgelist,
    to_graph6,
)


def random_graph(rng, n, p=0.5):
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                     if rng.random() < p])


def test_known_graph6_vectors():
    assert to_graph6(Graph(0)) == "?"
    assert to_graph6(Graph(1)) == "@"
    assert to_graph6(Graph(2)) == "A?"
    assert to_graph6(Graph(2, [(0, 1)])) == "A_"
    assert to_graph6(Graph(3, [(0, 1), (1, 2)])) == "Bg"
    assert to_graph6(Graph(3, [(0, 1), (0, 2), (1, 2)])) == "Bw"
    # C5 bits column-major: 101001 100100 -> chr(63+41) chr(63+36)
    assert to_graph6(Graph(5, [(i, (i + 1) % 5) for i in range(5)])) == "Dhc"


def test_graph6_roundtrip():
    rng = random.Random(8)
    for _ in range(300):
        g = random_graph(rng, rng.randint(0, 12))
        assert from_graph6(to_graph6(g)) == g


def graph6_bit_by_bit(g):
    """graph6 the long way: the upper triangle column by column, one bit at
    a time, six bits to a character."""
    n = g.n
    prefix = chr(63 + n) if n <= 62 else "~" + "".join(
        chr(63 + (n >> s & 63)) for s in (12, 6, 0))
    bits = [g.has_edge(i, j) for j in range(1, n) for i in range(j)]
    bits += [False] * (-len(bits) % 6)
    return prefix + "".join(
        chr(63 + sum(b << (5 - k) for k, b in enumerate(bits[i:i + 6])))
        for i in range(0, len(bits), 6))


def test_graph6_matches_the_bit_by_bit_encoding():
    # every class on at most 8 vertices, and random graphs up to the
    # 64-vertex cap, across the '~' size escape at 63
    rng = random.Random(9)
    graphs = [g for n in range(9) for g in generate_all_graphs(n)]
    for n in (*range(65), *[62, 63, 64] * 2):
        graphs += [random_graph(rng, n, p) for p in (0.1, 0.5, 0.9)]
    graphs.append(Graph(64, [(u, v) for u in range(64)
                             for v in range(u + 1, 64)]))
    for g in graphs:
        s = to_graph6(g)
        assert s == graph6_bit_by_bit(g)
        assert from_graph6(s) == g


def test_graph6_large_order_escape():
    for n in (63, 64):
        g = Graph(n, [(0, n - 1), (1, 2)])
        s = to_graph6(g)
        assert s.startswith("~")
        assert from_graph6(s) == g


def test_graph6_order_above_cap_rejected():
    # 65 vertices encodes fine elsewhere but exceeds this library's cap
    s = "~??B" + "?" * ((65 * 64 // 2 + 5) // 6)
    with pytest.raises(ValueError):
        from_graph6(s)


def test_graph6_optional_header():
    assert from_graph6(">>graph6<<Bg") == Graph(3, [(0, 1), (1, 2)])


def test_graph6_rejects_malformed_input():
    with pytest.raises(ValueError):
        from_graph6("")
    with pytest.raises(ValueError):
        from_graph6("B\x19")  # byte below the printable range
    with pytest.raises(ValueError):
        from_graph6("B")  # missing body
    with pytest.raises(ValueError):
        from_graph6("Bgg")  # body too long
    with pytest.raises(ValueError):
        from_graph6("Bh")  # nonzero padding bits


def test_read_graphs_takes_one_graph6_per_line():
    text = "Bg\n\nBw\n"
    graphs = read_graphs(text)
    assert len(graphs) == 2
    assert graphs[1] == Graph(3, [(0, 1), (0, 2), (1, 2)])


def test_read_graphs_takes_an_edge_list_as_one_graph():
    k33 = Graph(6, [(u, v) for u in range(3) for v in range(3, 6)])
    assert read_graphs(to_edgelist(k33)) == [k33]


def test_parse_graph_text_names_the_count_of_several_graphs():
    with pytest.raises(ValueError, match="holds 2"):
        parse_graph_text("Bg\nBw\n")


def test_edgelist_roundtrip():
    rng = random.Random(9)
    for _ in range(100):
        g = random_graph(rng, rng.randint(0, 10))
        assert from_edgelist(to_edgelist(g)) == g


def test_edgelist_format_and_comments():
    g = from_edgelist("# a triangle\n3 3\n0 1\n1 2  # chord line\n0 2\n")
    assert g == Graph(3, [(0, 1), (1, 2), (0, 2)])


def test_edgelist_rejects_malformed_input():
    with pytest.raises(ValueError):
        from_edgelist("")
    with pytest.raises(ValueError):
        from_edgelist("3\n")
    with pytest.raises(ValueError):
        from_edgelist("3 2\n0 1\n")  # promised 2 edges, gave 1
    with pytest.raises(ValueError):
        from_edgelist("3 2\n0 1\n0 1\n")  # duplicate edge
    with pytest.raises(ValueError):
        from_edgelist("3 1\n0 1 2\n")


def test_parse_graph_text_sniffs_format():
    assert parse_graph_text("2 1\n0 1\n") == Graph(2, [(0, 1)])
    assert parse_graph_text("A_") == Graph(2, [(0, 1)])
    # an "n m" header wins even though "A?" is also valid graph6
    assert parse_graph_text("0 0") == Graph(0)


def test_parse_graph_text_rejects_empty_input():
    for text in ("", "  \n\n"):
        with pytest.raises(ValueError, match="empty"):
            parse_graph_text(text)
