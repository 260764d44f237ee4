"""Pivot-minor sequences, search for them, and verifiable certificates.

A sequence is a list of steps applied left to right.  Vertex labels in a
step always refer to the current graph: deleting vertex v slides every
higher label down by one, and later steps use the new labels.

A certificate pins down a containment claim so that a verifier can replay
it with no search: an ordered vertex subset of the input (whose induced
subgraph, taken in that order, is the named obstruction), a step list
turning that induced subgraph into the target, and the final bijection
onto the target, checked edge by edge.  Format version 2 stores the
obstruction labelled, as the graph6 of that induced subgraph in
certificate order, and the target as the graph6 it was issued for, so the
verifier compares labelled graphs and needs no canonical form.  It replays
the steps through apply_sequence, the one definition of the step language
that callers share, and uses nothing from the search.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Iterable, Sequence

from . import containment
from .canon import canonical_form, isomorphism
from .containment import (
    OrbitLimitError,
    PivotMinorCache,
    Verdict,
    contains_pivot_minor,
    pivot_orbit,
)
from .graphs import Graph, delete_vertex, induced_subgraph, pivot
from .io import to_graph6


@dataclass(frozen=True)
class PivotEdge:
    u: int
    v: int


@dataclass(frozen=True)
class DeleteVertex:
    v: int


Step = PivotEdge | DeleteVertex


class SequenceError(ValueError):
    """An inapplicable step; carries the 0-based step index."""

    def __init__(self, index: int, reason: str):
        super().__init__(f"step {index}: {reason}")
        self.index = index
        self.reason = reason


def apply_sequence(g: Graph, steps: Iterable[Step]) -> Graph:
    """Replay steps on g, validating each one."""
    cur = g
    for i, step in enumerate(steps):
        if isinstance(step, PivotEdge):
            if not (0 <= step.u < cur.n and 0 <= step.v < cur.n):
                raise SequenceError(i, f"pivot ({step.u}, {step.v}) out of range")
            if not cur.has_edge(step.u, step.v):
                raise SequenceError(i, f"pivot ({step.u}, {step.v}) is not an edge")
            cur = pivot(cur, step.u, step.v)
        elif isinstance(step, DeleteVertex):
            if not 0 <= step.v < cur.n:
                raise SequenceError(i, f"delete {step.v} out of range")
            cur = delete_vertex(cur, step.v)
        else:
            raise SequenceError(i, f"unknown step {step!r}")
    return cur


def steps_to_json(steps: Iterable[Step]) -> list[dict]:
    out = []
    for step in steps:
        if isinstance(step, PivotEdge):
            out.append({"op": "pivot", "u": step.u, "v": step.v})
        else:
            out.append({"op": "delete", "v": step.v})
    return out


def steps_from_json(data: Sequence[dict]) -> list[Step]:
    steps: list[Step] = []
    for i, obj in enumerate(data):
        if not isinstance(obj, dict):
            raise ValueError(f"step {i}: not an object")
        op = obj.get("op")
        if op == "pivot":
            steps.append(PivotEdge(int(obj["u"]), int(obj["v"])))
        elif op == "delete":
            steps.append(DeleteVertex(int(obj["v"])))
        else:
            raise ValueError(f"step {i}: unknown op {op!r}")
    return steps


def find_pivot_minor_sequence(
    g: Graph,
    h: Graph,
    *,
    cache: PivotMinorCache | None = None,
) -> tuple[list[Step], list[int]] | None:
    """A step list carrying g onto an isomorphic copy of h, plus the final
    bijection (result vertex -> h vertex).

    The peel records exactly the search's reductions: the first triple of
    containment._reductions that still contains h, as DeleteVertex(v),
    after PivotEdge(z, v) for a contract-pivot.

    Returns None when h is not a pivot-minor of g; raises OrbitLimitError
    when h's pivot orbit has more than containment.ORBIT_LIMIT members.
    Replays of the result are validated by the caller's tests rather than
    trusted.
    """
    verdict = contains_pivot_minor(g, h, cache=cache)
    if verdict is Verdict.INCONCLUSIVE:
        raise OrbitLimitError(containment.ORBIT_LIMIT)
    if verdict is Verdict.FALSE:
        return None

    steps: list[Step] = []
    cur = g
    # peel one vertex at a time, preferring plain deletion
    while cur.n > h.n:
        found = next(((v, z, r) for v, z, r in containment._reductions(cur)
                      if contains_pivot_minor(r, h, cache=cache)), None)
        if found is None:
            raise AssertionError("containment held but no reduction worked")
        v, z, cur = found
        if z >= 0:
            steps.append(PivotEdge(z, v))
        steps.append(DeleteVertex(v))

    # same order: walk the pivot orbit of cur to an isomorphic copy of h
    fh = canonical_form(h)
    links = pivot_orbit(cur)
    found = next((x for x in links if canonical_form(x) == fh), None)
    if found is None:
        raise AssertionError("containment held but the orbit missed h")
    path: list[Step] = []
    node = found
    while links[node] is not None:
        prev, u, v = links[node]
        path.append(PivotEdge(u, v))
        node = prev
    steps.extend(reversed(path))
    iso = isomorphism(found, h)
    assert iso is not None
    return steps, iso


CERTIFICATE_VERSION = 2


@dataclass
class Certificate:
    """A replayable witness that a graph contains a target pivot-minor."""

    input_graph6: str
    vertices: tuple[int, ...]
    steps: tuple[Step, ...]
    target_map: tuple[int, ...]
    obstruction_name: str | None
    obstruction_graph6: str
    target_graph6: str

    def to_json(self) -> dict:
        from . import __version__

        return {
            "format": "pivot-minor-certificate",
            "version": CERTIFICATE_VERSION,
            "tool": {"name": "pivotminors", "version": __version__},
            "input": {
                "graph6": self.input_graph6,
                "sha256": hashlib.sha256(self.input_graph6.encode()).hexdigest(),
            },
            "vertices": list(self.vertices),
            "steps": steps_to_json(self.steps),
            "target_map": list(self.target_map),
            "obstruction": {
                "name": self.obstruction_name,
                "graph6": self.obstruction_graph6,
            },
            "target": {"graph6": self.target_graph6},
        }

    def dumps(self) -> str:
        return json.dumps(self.to_json(), indent=2) + "\n"

    @classmethod
    def from_json(cls, data: dict) -> "Certificate":
        if (not isinstance(data, dict)
                or data.get("format") != "pivot-minor-certificate"):
            raise ValueError("not a pivot-minor certificate")
        version = data.get("version")
        if version != CERTIFICATE_VERSION:
            raise ValueError(
                f"certificate format version {version!r} is not supported; "
                f"this reader takes version {CERTIFICATE_VERSION}"
            )
        for name, kind in (("input", dict), ("vertices", list), ("steps", list),
                           ("target_map", list), ("obstruction", dict),
                           ("target", dict)):
            if not isinstance(data.get(name, kind()), kind):
                raise ValueError(f"certificate field {name!r} must be a JSON "
                                 f"{'object' if kind is dict else 'array'}")
        try:
            return cls(
                input_graph6=data["input"]["graph6"],
                vertices=tuple(int(v) for v in data["vertices"]),
                steps=tuple(steps_from_json(data["steps"])),
                target_map=tuple(int(v) for v in data["target_map"]),
                obstruction_name=data.get("obstruction", {}).get("name"),
                obstruction_graph6=data.get("obstruction", {}).get("graph6", ""),
                target_graph6=data.get("target", {}).get("graph6", ""),
            )
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed certificate: {exc!r}") from None

    @classmethod
    def loads(cls, text: str) -> "Certificate":
        return cls.from_json(json.loads(text))


def build_certificate(
    g: Graph,
    vertices: Sequence[int],
    steps: Sequence[Step],
    target_map: Sequence[int],
    target: Graph,
    obstruction_name: str | None = None,
) -> Certificate:
    return Certificate(
        input_graph6=to_graph6(g),
        vertices=tuple(vertices),
        steps=tuple(steps),
        target_map=tuple(target_map),
        obstruction_name=obstruction_name,
        obstruction_graph6=to_graph6(induced_subgraph(g, vertices)),
        target_graph6=to_graph6(target),
    )


@dataclass
class VerificationResult:
    ok: bool
    step: int | None = None
    reason: str | None = None

    def __bool__(self) -> bool:
        return self.ok


def verify_certificate(g: Graph, cert: Certificate, target: Graph) -> VerificationResult:
    """Replay a certificate from scratch and check every claim in it.

    The steps run through apply_sequence, which callers share; nothing
    from the search is used.  Obstruction and target are compared as
    labelled graphs, so nothing here depends on canonical forms.
    """
    def fail(reason: str, step: int | None = None) -> VerificationResult:
        return VerificationResult(False, step, reason)

    if cert.input_graph6 != to_graph6(g):
        return fail("certificate was issued for a different input graph")
    vs = cert.vertices
    if len(set(vs)) != len(vs) or any(not 0 <= v < g.n for v in vs):
        return fail("vertex subset is not a set of input vertices")
    cur = induced_subgraph(g, vs)
    if to_graph6(cur) != cert.obstruction_graph6:
        return fail("induced subgraph does not match the claimed obstruction")
    try:
        cur = apply_sequence(cur, cert.steps)
    except SequenceError as exc:
        return fail(exc.reason, exc.index)
    if cur.n != target.n:
        return fail(f"replay ends with {cur.n} vertices, target has {target.n}")
    phi = cert.target_map
    if sorted(phi) != list(range(target.n)):
        return fail("target map is not a bijection")
    if to_graph6(target) != cert.target_graph6:
        return fail("certificate was issued for a different target")
    for a in range(cur.n):
        for b in range(a + 1, cur.n):
            if cur.has_edge(a, b) != target.has_edge(phi[a], phi[b]):
                return fail(f"map breaks the pair ({a}, {b})")
    return VerificationResult(True)
