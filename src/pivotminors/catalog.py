"""Named graphs and a tiny name grammar.

A name is a '+'-separated disjoint union of terms; each term is a base
name with an optional repetition count, so "2P2", "C5+P1" and "K1,3" all
parse.  Base names cover paths, cycles, cliques, stars, wheels and the
handful of special small graphs used elsewhere in the package.
"""

from __future__ import annotations

import re

from .graphs import Graph, disjoint_union


def path_graph(k: int) -> Graph:
    if k < 1:
        raise ValueError("paths need at least one vertex")
    return Graph(k, [(i, i + 1) for i in range(k - 1)])


def cycle_graph(k: int) -> Graph:
    if k < 3:
        raise ValueError("cycles need at least three vertices")
    return Graph(k, [(i, (i + 1) % k) for i in range(k)])


def complete_graph(k: int) -> Graph:
    if k < 1:
        raise ValueError("complete graphs need at least one vertex")
    return Graph(k, [(i, j) for i in range(k) for j in range(i + 1, k)])


def complete_multipartite(class_sizes: tuple[int, ...] | list[int]) -> Graph:
    if not class_sizes or any(s < 1 for s in class_sizes):
        raise ValueError("class sizes must be positive")
    n = sum(class_sizes)
    cls = []
    base = 0
    for s in class_sizes:
        cls.append(range(base, base + s))
        base += s
    edges = []
    for i in range(len(cls)):
        for j in range(i + 1, len(cls)):
            edges += [(u, v) for u in cls[i] for v in cls[j]]
    return Graph(n, edges)


def star_graph(t: int) -> Graph:
    """K_{1,t}: vertex 0 joined to t leaves."""
    if t < 1:
        raise ValueError("stars need at least one leaf")
    return Graph(t + 1, [(0, i) for i in range(1, t + 1)])


def wheel_graph(k: int) -> Graph:
    """W_k: a k-cycle 0..k-1 plus a hub (vertex k) joined to every rim
    vertex."""
    if k < 3:
        raise ValueError("wheels need a rim of at least three vertices")
    edges = [(i, (i + 1) % k) for i in range(k)]
    edges += [(i, k) for i in range(k)]
    return Graph(k + 1, edges)


def _paw() -> Graph:
    return Graph(4, [(0, 1), (1, 2), (0, 2), (0, 3)])


def _diamond() -> Graph:
    # K4 minus the edge 23
    return Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])


def _dart() -> Graph:
    # diamond 0123 (01,02,03,12,13) with a pendant 4 on the degree-3 vertex 0
    return Graph(5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (0, 4)])


def _bull() -> Graph:
    return Graph(5, [(0, 1), (1, 2), (0, 2), (0, 3), (1, 4)])


def _gem() -> Graph:
    return Graph(5, [(0, 1), (1, 2), (2, 3), (4, 0), (4, 1), (4, 2), (4, 3)])


def _house() -> Graph:
    return Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (1, 4)])


def _prism() -> Graph:
    return Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5),
                     (0, 3), (1, 4), (2, 5)])


def _bw3() -> Graph:
    # hexagon 0..5 plus vertex 6 joined to the three pairwise non-adjacent
    # rim vertices 0, 2, 4
    edges = [(i, (i + 1) % 6) for i in range(6)]
    edges += [(6, 0), (6, 2), (6, 4)]
    return Graph(7, edges)


def _co_bw3() -> Graph:
    # triangle 012, clique 3456, perfect matching 0-3, 1-4, 2-5
    edges = [(0, 1), (1, 2), (0, 2)]
    edges += [(i, j) for i in (3, 4, 5, 6) for j in (3, 4, 5, 6) if i < j]
    edges += [(0, 3), (1, 4), (2, 5)]
    return Graph(7, edges)


def _o2() -> Graph:
    # 4-cycle 0123 with a pendant 4 on vertex 2
    return Graph(5, [(0, 1), (1, 2), (2, 3), (3, 0), (2, 4)])


def _o3() -> Graph:
    # o2 plus the chord 13
    return Graph(5, [(0, 1), (1, 2), (2, 3), (3, 0), (2, 4), (1, 3)])


def _o4() -> Graph:
    # hexagon 012345 plus the triangle {1, 3, 5}
    edges = [(i, (i + 1) % 6) for i in range(6)]
    edges += [(1, 3), (3, 5), (1, 5)]
    return Graph(6, edges)


def _o5() -> Graph:
    # vertex 0 joined to everything, path 2-3-4-5, vertex 1 pendant on 0
    edges = [(0, i) for i in range(1, 6)]
    edges += [(2, 3), (3, 4), (4, 5)]
    return Graph(6, edges)


def _o6() -> Graph:
    return Graph(6, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 4), (4, 5),
                     (2, 5), (0, 2)])


def _o7() -> Graph:
    # K4 on 0123 plus vertex 4 joined to 2 and 3
    edges = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    edges += [(2, 4), (3, 4)]
    return Graph(5, edges)


def _o8() -> Graph:
    return Graph(6, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 4), (4, 5),
                     (2, 5), (0, 2), (0, 5)])


def _o9() -> Graph:
    # diamond 0123 with chord 12 (03 missing) plus vertex 4 joined to 0, 3
    return Graph(5, [(0, 1), (1, 3), (3, 2), (2, 0), (1, 2), (4, 0), (4, 3)])


_SPECIALS = {
    "paw": _paw,
    "diamond": _diamond,
    "dart": _dart,
    "claw": lambda: star_graph(3),
    "bull": _bull,
    "gem": _gem,
    "house": _house,
    "prism": _prism,
    "bw3": _bw3,
    "co-bw3": _co_bw3,
    "cobw3": _co_bw3,
    "o1": lambda: disjoint_union(path_graph(2), path_graph(2)),
    "o2": _o2,
    "o3": _o3,
    "o4": _o4,
    "o5": _o5,
    "o6": _o6,
    "o7": _o7,
    "o8": _o8,
    "o9": _o9,
}

_TERM_RE = re.compile(r"^(\d*)([A-Za-z][A-Za-z0-9,\-]*)$")


def _base_graph(name: str) -> Graph:
    low = name.lower()
    if low in _SPECIALS:
        return _SPECIALS[low]()
    m = re.fullmatch(r"[kK](\d+(?:,\d+)+)", name)
    if m:
        return complete_multipartite([int(x) for x in m.group(1).split(",")])
    m = re.fullmatch(r"([pPcCkKwW])(\d+)", name)
    if m:
        kind, k = m.group(1).lower(), int(m.group(2))
        if kind == "p":
            return path_graph(k)
        if kind == "c":
            return cycle_graph(k)
        if kind == "k":
            return complete_graph(k)
        return wheel_graph(k)
    raise KeyError(f"unknown graph name {name!r}")


def named_graph(name: str) -> Graph:
    """Build a graph from a name like "C5", "2P2", "K1,3" or "C3+P1"."""
    result: Graph | None = None
    for term in name.replace(" ", "").split("+"):
        m = _TERM_RE.match(term)
        if not m:
            raise KeyError(f"cannot parse graph name {term!r}")
        count = int(m.group(1)) if m.group(1) else 1
        if count < 1:
            raise KeyError(f"bad repetition count in {term!r}")
        base = _base_graph(m.group(2))
        for _ in range(count):
            result = base if result is None else disjoint_union(result, base)
    if result is None:
        raise KeyError(f"cannot parse graph name {name!r}")
    return result


def is_named_graph(name: str) -> bool:
    try:
        named_graph(name)
        return True
    except (KeyError, ValueError):
        return False


def graph_names() -> list[str]:
    """The fixed base names (parameterized families not enumerated)."""
    return sorted(set(_SPECIALS) - {"cobw3"})
