"""The three benchmark workloads: seeded inputs, timed operations and
output checks.

A workload is a list of operations. Each operation is timed on its own and
fails when it raises, passes its deadline, returns an INCONCLUSIVE answer
or returns an output that its check rejects. Checks run after the timed
phase, so they cost the measurement nothing.

Every call into the library goes through the package namespace (`pm.x`)
at call time, so the traced pass sees the wrapped functions.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import pivotminors as pm

HERE = Path(__file__).resolve().parent

TARGETS = ("C3", "P4", "C4", "paw", "diamond", "2P2", "3P1", "claw")


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], str | None]  # a message when the output is wrong
    deadline_s: float


@dataclass
class Workload:
    ops: list[Op]
    inputs: list[str]  # one line per input; their sha256 names the input set
    # untimed checks over all outcomes (None for a failed operation);
    # returns (operation index, message) for each wrong output
    post_check: Callable[[list], list[tuple[int, str]]] = lambda outcomes: []


# -- mine-3p1 ---------------------------------------------------------------

MINE_MEMBERS = ("3P1", "W4", "co-BW3")


def build_mine(seed: int, toy: bool) -> Workload:
    """Generate every class up to nmax, then mine 3P1 to nmax with a fresh
    cache. The seed changes nothing: the sweep is exhaustive."""
    nmax = 6 if toy else 8
    target = pm.named_graph("3P1")
    known = list(pm.KNOWN_CLASS_COUNTS[: nmax + 1])

    def check_counts(counts: list[int]) -> str | None:
        if counts != known:
            return f"class counts {counts}, expected {known}"
        return None

    def check_members(obs) -> str | None:
        if obs.inconclusive:
            return f"{len(obs.inconclusive)} inconclusive graphs"
        expected = {
            pm.canonical_key(g)
            for g in map(pm.named_graph, MINE_MEMBERS)
            if g.n <= nmax
        }
        got = set(obs.member_keys)
        if got != expected:
            return f"members {sorted(got)}, expected {sorted(expected)}"
        return None

    ops = [
        Op(f"generate_all_graphs(n) for n <= {nmax}",
           lambda: [len(pm.generate_all_graphs(n)) for n in range(nmax + 1)],
           check_counts, 100.0),
        Op(f"mine(3P1, {nmax})",
           lambda: pm.mine(target, nmax, target_name="3P1",
                           cache=pm.PivotMinorCache()),
           check_members, 100.0),
    ]
    return Workload(ops, [f"target 3P1 {pm.to_graph6(target)}", f"nmax {nmax}"])


# -- recognize-mix ----------------------------------------------------------

C, F, U = "contains", "free", None  # U: not known from the construction

# verdicts per target, in TARGETS order, that follow from each family's
# structure: an induced obstruction gives "contains", the class
# characterisations in recognizers.py give "free"
EXPECTED = {
    "gnp": (U,) * 8,
    "bipartite": (F, U, U, F, F, U, U, U),
    "tree": (F, C, C, F, F, C, C, C),  # grown from a P5 spine
    "even-cycle": (F, C, C, F, F, C, C, C),
    "odd-cycle": (C,) * 8,
    "wheel": (C,) * 8,
    "two-cliques": (C, F, F, F, F, C, F, F),
    "multipartite": (C, C, C, C, C, F, C, C),
    "clique-star": (C, F, F, C, C, C, C, C),
}

# fixed sizes per family, so each seed costs the same; the seed draws the
# random edges, the labels and the order of the stream
GNP_SIZES = (8, 12, 16, 20, 24, 28, 32, 40, 48, 56, 60, 64)
BIPARTITE_SIDES = ((4, 4), (5, 7), (6, 10), (8, 8), (10, 10), (8, 16),
                   (12, 12), (14, 18), (16, 16), (20, 20), (24, 24), (32, 32))
TREE_SIZES = (8, 10, 12, 16, 20, 24, 32, 40, 48, 56, 60, 64)
EVEN_CYCLES = (8, 10, 12, 14, 16, 20, 24, 30, 36, 44, 52, 64)
# 13 and 15 are the slow certificates; 17 and up pass the canon cap
ODD_CYCLES = (9, 11, 13, 15, 17, 19, 21, 25, 31, 39, 51, 63)
WHEEL_RIMS = (7, 9, 11, 15, 19, 23, 27, 31, 39, 47, 55, 63)
# The slowest operations are full, label-independent embedding searches
# on free inputs. C15, K16+K16 and K2x20 cost seconds each; the ten
# operations on the five K12+K12 and the claw on the two K2x14 cost a few
# hundred ms each and hold latency_p99_ms, so it does not jump between
# unlike operations from seed to seed.
TWO_CLIQUES = ((4, 4), (3, 6), (5, 5), (4, 8), (6, 6), (8, 8), (12, 12),
               (12, 12), (12, 12), (12, 12), (12, 12), (16, 16))
MULTIPARTITE = ((2, 2, 2, 2), (1, 2, 3, 3), (2,) * 6, (3, 3, 3, 3, 4),
                (2,) * 10, (1, 1, 2, 2, 3, 5, 6), (2,) * 14, (2,) * 14,
                (4,) * 8, (3,) * 13, (2,) * 20, (1,) * 52 + (3,) * 4)
CLIQUE_STARS = ((2, (2, 2, 2)), (1, (2, 2, 3, 3)), (3, (2, 3, 4)),
                (2, (3, 3, 3, 3)), (4, (4, 4, 4)), (1, (2,) * 10),
                (5, (5, 5, 5)), (3, (3,) * 9), (8, (8, 8, 8)),
                (4, (6,) * 6), (10, (6,) * 6), (8, (8,) * 7))


def relabel(g: pm.Graph, perm: list[int]) -> pm.Graph:
    return pm.Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def _stream(rng: random.Random) -> list[tuple[str, str, pm.Graph]]:
    """(family, description, graph) for every graph of the full stream."""

    def shuffled(g: pm.Graph) -> pm.Graph:
        perm = list(range(g.n))
        rng.shuffle(perm)
        return relabel(g, perm)

    def gnp(n: int, p: float) -> pm.Graph:
        return pm.Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)
                            if rng.random() < p])

    def bipartite(a: int, b: int) -> pm.Graph:
        edges = [(i, a + j) for i in range(a) for j in range(b)
                 if rng.random() < 0.3]
        return shuffled(pm.Graph(a + b, edges))

    def tree(n: int) -> pm.Graph:
        edges = [(i, i + 1) for i in range(4)]
        edges += [(rng.randrange(v), v) for v in range(5, n)]
        return shuffled(pm.Graph(n, edges))

    out = []
    for p in (0.1, 0.5, 0.9):
        out += [("gnp", f"G({n}, {p})", gnp(n, p)) for n in GNP_SIZES]
    out += [("bipartite", f"B({a}, {b}, 0.3)", bipartite(a, b))
            for a, b in BIPARTITE_SIDES]
    out += [("tree", f"T{n}", tree(n)) for n in TREE_SIZES]
    out += [("even-cycle", f"C{k}", shuffled(pm.cycle_graph(k)))
            for k in EVEN_CYCLES]
    out += [("odd-cycle", f"C{k}", shuffled(pm.cycle_graph(k)))
            for k in ODD_CYCLES]
    out += [("wheel", f"W{k}", shuffled(pm.wheel_graph(k))) for k in WHEEL_RIMS]
    out += [("two-cliques", f"K{a}+K{b}", shuffled(pm.disjoint_union(
        pm.complete_graph(a), pm.complete_graph(b)))) for a, b in TWO_CLIQUES]
    out += [("multipartite", "K(" + ",".join(
        f"{size}^{sizes.count(size)}" for size in sorted(set(sizes))) + ")",
             shuffled(pm.complete_multipartite(sizes))) for sizes in MULTIPARTITE]
    out += [("clique-star", f"S{k}{list(leaves)}",
             shuffled(pm.clique_star(k, leaves))) for k, leaves in CLIQUE_STARS]
    return out


def build_recognize(seed: int, toy: bool) -> Workload:
    """Every graph of a seeded stream through all eight recognizers; a
    'contains' verdict is replayed with verify_certificate in the same
    operation."""
    rng = random.Random(seed)
    stream = _stream(rng)
    if toy:
        stream = [stream[i] for i in range(0, len(stream), len(stream) // 10)][:10]
    rng.shuffle(stream)
    targets = {t: pm.named_graph(t) for t in TARGETS}

    def make(g: pm.Graph, t: str, expected: str | None, what: str) -> Op:
        def run():
            res = pm.recognize(g, t)
            replay = None
            if res.contains:
                replay = pm.verify_certificate(g, res.certificate, targets[t])
            return res.verdict, replay

        def check(outcome) -> str | None:
            verdict, replay = outcome
            if replay is not None and not replay.ok:
                return f"certificate does not replay: {replay.reason}"
            if expected is not None and verdict != expected:
                return f"verdict {verdict}, the family is known to be {expected}"
            return None

        return Op(f"{t} on {what}", run, check, 30.0)

    ops, lines, graphs = [], [], []
    for family, name, g in stream:
        lines.append(f"{family} {name} {pm.to_graph6(g)}")
        for t, expected in zip(TARGETS, EXPECTED[family]):
            ops.append(make(g, t, expected, f"{name} [{family}]"))
            graphs.append((g, t))

    def oracle(outcomes: list) -> list[tuple[int, str]]:
        """Inputs with at most 8 vertices against the exact containment
        search."""
        cache = pm.PivotMinorCache()
        wrong = []
        for i, ((g, t), outcome) in enumerate(zip(graphs, outcomes)):
            if outcome is None or g.n > 8:
                continue
            truth = pm.contains_pivot_minor(g, targets[t], cache=cache)
            if not truth.definite:
                wrong.append((i, "oracle was inconclusive"))
            elif (outcome[0] == "contains") != bool(truth):
                wrong.append((i, f"verdict {outcome[0]}, oracle says {truth.value}"))
        return wrong

    return Workload(ops, lines, oracle)


# -- reduce-cubic -----------------------------------------------------------

def read_cubic(toy: bool) -> list[tuple[str, pm.Graph]]:
    graphs = []
    for line in (HERE / "cubic.txt").read_text().splitlines():
        if line and not line.startswith("#"):
            name, g6 = line.split()
            g = pm.from_graph6(g6)
            if any(g.degree(v) != 3 for v in range(g.n)):
                raise ValueError(f"{name} is not cubic")
            if not toy or g.n <= 8:
                graphs.append((name, g))
    return graphs


def is_hamiltonian_dp(g: pm.Graph) -> bool:
    """Held-Karp over vertex subsets; independent of matroids.is_hamiltonian."""
    n = g.n
    if n < 3:
        return False
    # ends[mask]: the vertices where a path from 0 covering mask can end
    ends = [0] * (1 << n)
    ends[1] = 1
    for mask in range(1, 1 << n, 2):
        e = ends[mask]
        if not e:
            continue
        for v in range(n):
            if e >> v & 1:
                step = g.rows[v] & ~mask
                while step:
                    low = step & -step
                    ends[mask | low] |= low
                    step ^= low
    return bool(ends[(1 << n) - 1] & g.rows[0])


def build_reduce(seed: int, toy: bool) -> Workload:
    """reduction_roundtrip on each connected cubic graph, each with a fresh
    cache.

    The timed graphs keep their stored labelling: the cost of one graph
    changes with its labelling by up to 300x, through the spanning tree
    the reduction picks, so seeded labels would make the seed, not the
    program, set the timing. The seed labels the untimed invariance check
    instead: every graph with at most 8 vertices is run again under a
    seeded permutation and must give the same answers.
    """
    rng = random.Random(seed)
    graphs = read_cubic(toy)

    def make(name: str, g: pm.Graph) -> Op:
        def check(out: dict) -> str | None:
            if out["sides_agree"] is not True:
                return f"sides do not agree: {out['contains_verdict']}"
            if out["hamiltonian"] != is_hamiltonian_dp(g):
                return "Hamiltonicity differs from the Held-Karp check"
            if name == "petersen" and out["hamiltonian"]:
                return "the Petersen graph is not Hamiltonian"
            return None

        return Op(f"reduction_roundtrip({name})",
                  lambda: pm.reduction_roundtrip(g, cache=pm.PivotMinorCache()),
                  check, 60.0)

    perms = {}
    lines = []
    for name, g in graphs:
        lines.append(f"{name} {pm.to_graph6(g)}")
        if g.n <= 8:
            perm = list(range(g.n))
            rng.shuffle(perm)
            perms[name] = perm
            lines.append(f"relabel {name} {perm}")

    def invariance(outcomes: list) -> list[tuple[int, str]]:
        wrong = []
        for i, ((name, g), out) in enumerate(zip(graphs, outcomes)):
            if out is None or name not in perms:
                continue
            again = pm.reduction_roundtrip(relabel(g, perms[name]),
                                           cache=pm.PivotMinorCache())
            for key in ("contains_verdict", "hamiltonian"):
                if again[key] != out[key]:
                    wrong.append((i, f"{key} changes under relabelling"))
        return wrong

    return Workload([make(name, g) for name, g in graphs], lines, invariance)


WORKLOADS = {
    "mine-3p1": build_mine,
    "recognize-mix": build_recognize,
    "reduce-cubic": build_reduce,
}
