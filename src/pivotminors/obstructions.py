"""Mining minimal forbidden induced subgraphs for pivot-minor containment.

For a fixed target h, the h-pivot-minor-free graphs form a hereditary
class, so its boundary is the set of graphs that contain h as a
pivot-minor while every one-vertex-deleted subgraph does not.  mine()
grows the free class one order at a time, by one-vertex extension, and
collects exactly those graphs among the extensions; membership is settled
by set lookups in the order below, not by containment searches.
check_bound() compares a sweep against the proved order bounds for the
four structured target families.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

from .canon import LABELLING, canonical_form, canonical_key
from .catalog import complete_multipartite, cycle_graph, path_graph, star_graph
from . import containment
from .containment import OrbitLimitError, PivotMinorCache, Verdict, contains_pivot_minor
from .generate import class_order, extend_by_one_vertex
from .graphs import Graph, contract_pivot, delete_vertex, disjoint_union
from .io import from_graph6, to_graph6

# the deepest sweep mine accepts (see mine)
MINE_MAX_VERTICES = 16


@dataclass
class ObstructionSet:
    """Result of a mining sweep: every minimal obstruction with at most
    complete_up_to vertices; mining decides every graph or raises."""

    target_name: str
    target_key: str
    complete_up_to: int
    members: tuple[Graph, ...]
    inconclusive = ()  # not a field: perfbench's mine-3p1 check still reads it

    @property
    def member_keys(self) -> tuple[str, ...]:
        return tuple(canonical_key(g) for g in self.members)

    def max_member_order(self) -> int | None:
        return max((g.n for g in self.members), default=None)


def is_minimal_obstruction(
    g: Graph, h: Graph, *, cache: PivotMinorCache | None = None
) -> Verdict:
    """Does g contain h as a pivot-minor while no g - v does?"""
    verdict = contains_pivot_minor(g, h, cache=cache)
    if verdict is not Verdict.TRUE:
        return verdict
    # h's orbit fitted its limit, but a query below may spend its budget
    for v in range(g.n):
        below = contains_pivot_minor(delete_vertex(g, v), h, cache=cache)
        if below is Verdict.TRUE:
            return Verdict.FALSE
        if below is Verdict.INCONCLUSIVE:
            verdict = below
    return verdict


def mine(
    h: Graph,
    n_max: int,
    *,
    target_name: str | None = None,
    cache: PivotMinorCache | None = None,
) -> ObstructionSet:
    """Every minimal obstruction for h-pivot-minor-freeness with at most
    n_max vertices.

    Grows the h-free class one order at a time.  The free class is
    hereditary, so every free graph and every minimal obstruction on n
    vertices has only free one-vertex deletions, its canonical parent among
    them, and extend_by_one_vertex of the free (n-1)-vertex classes yields
    it.  A candidate with a deletion outside the free class is dropped by a
    set lookup.  At |h| vertices a candidate contains h when it lies in the
    pivot orbit of h; above that, when one of its one-vertex reductions
    does (the recursion of contains_pivot_minor), which the free class of
    the order below settles by lookup.  Members come out in
    generate_all_graphs order, smallest order first.

    n_max is at most MINE_MAX_VERTICES (16), a limit of mining's own:
    the target's orbit is only needed when |h| <= n_max, and an orbit on
    n vertices has at most 2^(n-1) labelled members, so below the limit it
    always fits containment.ORBIT_LIMIT with room to spare; a blown orbit
    raises OrbitLimitError.  Every candidate is labelled, and a labelling
    that spends canon.LABEL_BUDGET raises LabellingBudgetError; C16 labels
    within it.  `cache` serves only the orbit; no containment query is
    made.
    """
    if h.n == 0:
        raise ValueError("the empty target is a pivot-minor of everything")
    if n_max < 0:
        raise ValueError(f"n_max must be at least 0, got n_max = {n_max}")
    if n_max > MINE_MAX_VERTICES:
        raise ValueError(
            f"mining is capped at MINE_MAX_VERTICES = {MINE_MAX_VERTICES} "
            f"vertices, got n_max = {n_max}"
        )
    if cache is None:
        cache = PivotMinorCache()
    th = canonical_form(h)
    if n_max >= th.n:
        target = cache.target_orbit_keys(th)
        if target is None:
            raise OrbitLimitError(containment.ORBIT_LIMIT, to_graph6(h))
        orbit = target[0]
    members: list[Graph] = []
    # the classes not known to contain h
    free: set[Graph] = {Graph(0)}

    for n in range(1, n_max + 1):
        below, free = free, set()
        found: list[Graph] = []
        for g in extend_by_one_vertex(below):
            if n < th.n:
                free.add(g)
                continue
            if any(canonical_form(delete_vertex(g, v)) not in below
                   for v in range(n)):
                continue  # contains h through a deletion, so not minimal
            if n == th.n:
                contains = g in orbit
            else:  # an isolated vertex contracts to its deletion
                contains = any(
                    canonical_form(contract_pivot(g, v)) not in below
                    for v in range(n) if g.rows[v]
                )
            if contains:
                found.append(g)
            else:
                free.add(g)
        members += sorted(found, key=class_order)
    return ObstructionSet(
        target_name=target_name or to_graph6(h),
        target_key=canonical_key(h),
        complete_up_to=n_max,
        members=tuple(members),
    )


# -- persistence -----------------------------------------------------------

def save_obstruction_set(obs: ObstructionSet, directory: str | Path) -> None:
    from . import __version__

    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    lines = "".join(key + "\n" for key in sorted(obs.member_keys))
    (directory / "members.g6").write_text(lines)
    manifest = {
        "target_name": obs.target_name,
        "target_key": obs.target_key,
        "complete_up_to": obs.complete_up_to,
        "member_count": len(obs.members),
        "members_sha256": hashlib.sha256(lines.encode()).hexdigest(),
        "labelling": LABELLING,
        "tool": {"name": "pivotminors", "version": __version__},
    }
    (directory / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")


def load_obstruction_set(directory: str | Path) -> ObstructionSet:
    directory = Path(directory)
    manifest = json.loads((directory / "manifest.json").read_text())
    if not isinstance(manifest, dict):
        raise ValueError("manifest.json must hold a JSON object")
    got = manifest.get("labelling")
    if type(got) is not int or got != LABELLING:
        raise ValueError(f"manifest.json field 'labelling' is {got!r}, not "
                         f"{LABELLING}: the set was keyed by another "
                         "canonical labelling; mine it again")
    for name in ("target_name", "target_key", "members_sha256"):
        if not isinstance(manifest.get(name), str):
            raise ValueError(f"manifest.json field {name!r} is "
                             f"{manifest.get(name)!r}, not a string")
    depth = manifest.get("complete_up_to")
    # True == 1 and 3.0 == 3, so only the type tells them from an order
    if type(depth) is not int or depth < 0:
        raise ValueError(f"manifest.json field 'complete_up_to' is {depth!r}, "
                         "not a non-negative integer")
    lines = (directory / "members.g6").read_text()
    digest = hashlib.sha256(lines.encode()).hexdigest()
    if digest != manifest["members_sha256"]:
        raise ValueError("members.g6 does not match the manifest checksum")
    members = tuple(from_graph6(s) for s in lines.split())
    return ObstructionSet(
        target_name=manifest["target_name"],
        target_key=manifest["target_key"],
        complete_up_to=manifest["complete_up_to"],
        members=members,
    )


def diff_obstruction_sets(a: ObstructionSet, b: ObstructionSet) -> dict:
    """Keys present in one set but not the other, plus metadata mismatches."""
    ka, kb = set(a.member_keys), set(b.member_keys)
    return {
        "target_match": a.target_key == b.target_key,
        "same_depth": a.complete_up_to == b.complete_up_to,
        "only_in_first": sorted(ka - kb),
        "only_in_second": sorted(kb - ka),
    }


# -- structured families and their proved order bounds ---------------------

# family -> (least t, target builder, largest order of a minimal obstruction)
_FAMILIES = {
    "tP1": (1, Graph, lambda t: 2 ** t - 1),
    "P2+tP1": (1, lambda t: disjoint_union(path_graph(2), Graph(t)),
               lambda t: (t + 1) * (2 ** (t + 2) - t - 2)),
    "K1,t": (2, star_graph,
             lambda t: (t * t - 1) * (2 ** (t + 1) - t - 3) + 2 * t + 2),
    "P3+tP1": (1, lambda t: disjoint_union(path_graph(3), Graph(t)),
               lambda t: (t + 1) * (2 ** (t + 3) - t - 4) + 2),
}
BOUND_FAMILIES = tuple(_FAMILIES)


def _family(family: str, t: int):
    """The target builder and order bound of family, for a t it admits."""
    if family not in _FAMILIES:
        raise ValueError(f"unknown family {family!r}, pick one of {BOUND_FAMILIES}")
    least, build, bound = _FAMILIES[family]
    if t < least:
        raise ValueError(f"{family} needs t >= {least}, got t = {t}")
    return build, bound


def family_target(family: str, t: int) -> Graph:
    return _family(family, t)[0](t)


def obstruction_order_bound(family: str, t: int) -> int:
    """Largest possible order of a minimal obstruction for the family."""
    return _family(family, t)[1](t)


@dataclass
class BoundRecord:
    """Outcome of checking a mined sweep against a proved order bound."""

    family: str
    t: int
    bound: int
    n_max: int
    observed_max_order: int | None
    member_count: int
    covered: bool  # n_max reached the bound, so the sweep is exhaustive
    bound_respected: bool
    obstructions: ObstructionSet = field(repr=False)

    def coverage_statement(self) -> str:
        if self.covered:
            return (
                f"sweep to n={self.n_max} covers the proved bound "
                f"{self.bound}; the obstruction set is complete"
            )
        return (
            f"sweep stops at n={self.n_max}, below the proved bound "
            f"{self.bound}; obstructions above n={self.n_max} may be missing"
        )


def check_bound(
    family: str,
    t: int,
    n_max: int,
    *,
    cache: PivotMinorCache | None = None,
) -> BoundRecord:
    """Mine the family target up to n_max and compare with the bound.

    Every graph of the sweep is decided, or mine raises OrbitLimitError
    or LabellingBudgetError.
    """
    h = family_target(family, t)
    bound = obstruction_order_bound(family, t)
    obs = mine(h, n_max, target_name=f"{family}[t={t}]", cache=cache)
    observed = obs.max_member_order()
    return BoundRecord(
        family=family,
        t=t,
        bound=bound,
        n_max=n_max,
        observed_max_order=observed,
        member_count=len(obs.members),
        covered=n_max >= bound,
        bound_respected=observed is None or observed <= bound,
        obstructions=obs,
    )


# -- two infinite families known to stay minimal ----------------------------

def family_k4(a: int, b: int, path_len: int) -> Graph:
    """Two odd cycles C_a and C_b joined by a path with path_len edges;
    path_len 0 means the cycles share one vertex.

    Every member is a minimal obstruction for K4-pivot-minor-freeness.
    """
    if a < 3 or a % 2 == 0 or b < 3 or b % 2 == 0:
        raise ValueError("cycle lengths must be odd and at least 3")
    if path_len < 0:
        raise ValueError("path length must be nonnegative")
    edges = [(i, (i + 1) % a) for i in range(a)]
    if path_len == 0:
        # second cycle reuses vertex a-1
        ring = [a - 1] + list(range(a, a + b - 1))
    else:
        inner = list(range(a, a + path_len - 1))
        chain = [a - 1] + inner + [a + path_len - 1]
        edges += [(chain[i], chain[i + 1]) for i in range(len(chain) - 1)]
        start = a + path_len - 1
        ring = [start] + list(range(start + 1, start + b))
    edges += [(ring[i], ring[(i + 1) % b]) for i in range(b)]
    return Graph(max(max(e) for e in edges) + 1, edges)


def family_c3p1(k: int) -> Graph:
    """C_k plus one isolated vertex, k odd; minimal obstructions for
    (C3+P1)-pivot-minor-freeness."""
    if k < 3 or k % 2 == 0:
        raise ValueError("k must be odd and at least 3")
    return disjoint_union(cycle_graph(k), Graph(1))


# -- constructors for the structure theorems --------------------------------

def clique_star(k: int, leaf_sizes: tuple[int, ...] | list[int] = ()) -> Graph:
    """A clique K_k joined completely to disjoint cliques of the given
    sizes, with no edges between those cliques."""
    if k < 1 or any(s < 1 for s in leaf_sizes):
        raise ValueError("clique sizes must be positive")
    edges = [(i, j) for i in range(k) for j in range(i + 1, k)]
    base = k
    for s in leaf_sizes:
        part = range(base, base + s)
        edges += [(i, j) for i in part for j in part if i < j]
        edges += [(i, j) for i in range(k) for j in part]
        base += s
    return Graph(base, edges)


def leaf_attached_multipartite(
    class_sizes: tuple[int, ...] | list[int],
    leaves: dict[int, int] | None = None,
) -> Graph:
    """A complete multipartite graph with pendant leaves attached to
    singleton classes; leaves maps class index -> leaf count and may only
    name classes of size one."""
    g = complete_multipartite(class_sizes)
    if not leaves:
        return g
    offsets = []
    base = 0
    for s in class_sizes:
        offsets.append(base)
        base += s
    edges = list(g.edges())
    extra = base
    for idx, count in sorted(leaves.items()):
        if class_sizes[idx] != 1:
            raise ValueError(f"class {idx} is not a singleton")
        if count < 0:
            raise ValueError("leaf counts must be nonnegative")
        for _ in range(count):
            edges.append((offsets[idx], extra))
            extra += 1
    return Graph(extra, edges)
