"""Reading and writing graphs: graph6 strings and plain edge lists.

graph6 packs the upper triangle of the adjacency matrix in column-major
order, (0,1), (0,2), (1,2), (0,3), ..., six bits per printable byte with
an offset of 63.  The edge-list format is a header line "n m" followed by
m lines "u v" with 0-based endpoints.
"""

from __future__ import annotations

import base64

from .graphs import MAX_VERTICES, Graph

_G6_OPTIONAL_HEADER = ">>graph6<<"
_G6_FROM_BASE64 = bytes.maketrans(
    b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/",
    bytes(range(63, 127)),
)


def _g6_size_prefix(n: int) -> str:
    if n <= 62:
        return chr(n + 63)
    # 63 <= n <= 258047 uses a '~' escape and three size bytes
    return "~" + "".join(chr(63 + (n >> s & 63)) for s in (12, 6, 0))


def to_graph6(g: Graph) -> str:
    """Encode a graph as a graph6 string (no trailing newline)."""
    # column j of the upper triangle is the low j bits of row j, lowest
    # first: format the row with a marker bit above them and reverse it.
    # graph6's body is base64 of those bits, zero-padded, in its own
    # alphabet, so the bytes go through b64encode and one translate.
    rows = g.rows
    bits = "".join([format(rows[j] & ((1 << j) - 1) | 1 << j, "b")[:0:-1]
                    for j in range(1, g.n)])
    nbytes = (len(bits) + 23) // 24 * 3
    packed = int("0" + bits, 2) << (8 * nbytes - len(bits))
    body = base64.b64encode(packed.to_bytes(nbytes, "big"))
    body = body[:(len(bits) + 5) // 6].translate(_G6_FROM_BASE64)
    return _g6_size_prefix(g.n) + body.decode()


def from_graph6(text: str) -> Graph:
    """Decode one graph6 string; strict about padding and length."""
    s = text.strip()
    if s.startswith(_G6_OPTIONAL_HEADER):
        s = s[len(_G6_OPTIONAL_HEADER):]
    if not s:
        raise ValueError("empty graph6 string")
    vals = []
    for ch in s:
        c = ord(ch)
        if not 63 <= c <= 126:
            raise ValueError(f"invalid graph6 byte {ch!r}")
        vals.append(c - 63)
    if vals[0] == 63:  # '~' escape
        if len(vals) < 4 or vals[1] == 63:
            raise ValueError("unsupported graph6 size header")
        n = vals[1] << 12 | vals[2] << 6 | vals[3]
        body = vals[4:]
    else:
        n = vals[0]
        body = vals[1:]
    if n > MAX_VERTICES:
        raise ValueError(f"graph6 order {n} exceeds the cap of {MAX_VERTICES}")
    nbits = n * (n - 1) // 2
    if len(body) != (nbits + 5) // 6:
        raise ValueError(
            f"graph6 body has {len(body)} bytes, expected {(nbits + 5) // 6}"
        )
    rows = [0] * n
    idx = 0
    for j in range(1, n):
        for i in range(j):
            if body[idx // 6] >> (5 - idx % 6) & 1:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
            idx += 1
    # padding bits beyond the triangle must be zero
    while idx < 6 * len(body):
        if body[idx // 6] >> (5 - idx % 6) & 1:
            raise ValueError("nonzero padding bits in graph6 string")
        idx += 1
    return Graph._make(n, tuple(rows))


def to_edgelist(g: Graph) -> str:
    lines = [f"{g.n} {g.num_edges}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def from_edgelist(text: str) -> Graph:
    """Parse the "n m" header plus m edge lines; strict about counts."""
    tokens = []
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            tokens.append(line.split())
    if not tokens:
        raise ValueError("empty edge list")
    header = tokens[0]
    if len(header) != 2:
        raise ValueError(f"bad header {' '.join(header)!r}, expected 'n m'")
    n, m = int(header[0]), int(header[1])
    if len(tokens) - 1 != m:
        raise ValueError(f"header promises {m} edges, found {len(tokens) - 1}")
    edges = []
    for pair in tokens[1:]:
        if len(pair) != 2:
            raise ValueError(f"bad edge line {' '.join(pair)!r}")
        edges.append((int(pair[0]), int(pair[1])))
    if len({frozenset(e) for e in edges}) != len(edges):
        raise ValueError("duplicate edge")
    return Graph(n, edges)


def read_graphs(text: str) -> list[Graph]:
    """Every graph in a text, sniffing the format: an "n m" header means
    one edge list, otherwise one graph6 string per non-empty line."""
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise ValueError("empty graph input")
    first = lines[0].split()
    if len(first) == 2 and all(t.isdigit() for t in first):
        return [from_edgelist(text)]
    return [from_graph6(line) for line in lines]


def parse_graph_text(text: str) -> Graph:
    """The one graph in a text (see read_graphs)."""
    graphs = read_graphs(text)
    if len(graphs) > 1:
        raise ValueError(f"expected one graph, the input holds {len(graphs)}")
    return graphs[0]
