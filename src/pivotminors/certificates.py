"""Pivot-minor sequences, search for them, and verifiable certificates.

A sequence is a list of steps applied left to right.  Vertex labels in a
step always refer to the current graph: deleting vertex v slides every
higher label down by one, and later steps use the new labels.

A certificate pins down a containment claim so that a verifier can replay
it with no search: an ordered vertex subset of the input (whose induced
subgraph, taken in that order, is the named obstruction), a step list
turning that induced subgraph into the target, and the final bijection
onto the target, checked edge by edge.  It holds the input, the
obstruction (that induced subgraph, in certificate order) and the target
as labelled graphs, which the verifier compares with ==, so it needs no
canonical form; graph6 is written and read only by to_json and from_json
(format version 2).  The verifier replays the steps through
apply_sequence, the one definition of the step language that callers
share, and uses nothing from the search.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Iterable, Sequence

from . import containment
from .canon import canonical_form, isomorphism
from .containment import PivotMinorCache, pivot_orbit
from .graphs import Graph, delete_vertex, induced_subgraph, pivot
from .io import from_graph6, to_graph6


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


def _json_ints(values: list, field: str) -> tuple[int, ...]:
    for x in values:
        # bool is a subclass of int, and a float or a string is no label
        if type(x) is not int:
            raise ValueError(f"malformed certificate: {field} holds {x!r}, "
                             "not a JSON integer")
    return tuple(values)


def steps_from_json(data: Sequence[dict]) -> list[Step]:
    steps: list[Step] = []
    for i, obj in enumerate(data):
        if not isinstance(obj, dict):
            raise ValueError(f"step {i}: not an object")
        op = obj.get("op")
        if op == "pivot":
            steps.append(PivotEdge(*_json_ints([obj["u"], obj["v"]], f"step {i}")))
        elif op == "delete":
            steps.append(DeleteVertex(*_json_ints([obj["v"]], f"step {i}")))
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

    Returns None when h is not a pivot-minor of g.  Raises the error of
    the limit a query hits, one of containment.LIMITS: OrbitLimitError,
    SearchBudgetError, or LabellingBudgetError when a labelling spends
    canon.LABEL_BUDGET.  Replays of the result are validated by the
    caller's tests rather than trusted.
    """
    if cache is None:
        cache = containment.DEFAULT_CACHE
    if not containment._contains(g, h, cache):
        return None

    steps: list[Step] = []
    cur = g
    # peel one vertex at a time, preferring plain deletion
    while cur.n > h.n:
        found = next(((v, z, r) for v, z, r in containment._reductions(cur)
                      if containment._contains(r, h, cache)), None)
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

    input: Graph
    vertices: tuple[int, ...]
    steps: tuple[Step, ...]
    target_map: tuple[int, ...]
    obstruction_name: str | None
    obstruction: Graph
    target: Graph

    def to_json(self) -> dict:
        from . import __version__

        input_graph6 = to_graph6(self.input)
        return {
            "format": "pivot-minor-certificate",
            "version": CERTIFICATE_VERSION,
            "tool": {"name": "pivotminors", "version": __version__},
            "input": {
                "graph6": input_graph6,
                "sha256": hashlib.sha256(input_graph6.encode()).hexdigest(),
            },
            "vertices": list(self.vertices),
            "steps": steps_to_json(self.steps),
            "target_map": list(self.target_map),
            "obstruction": {
                "name": self.obstruction_name,
                "graph6": to_graph6(self.obstruction),
            },
            "target": {"graph6": to_graph6(self.target)},
        }

    def dumps(self) -> str:
        return json.dumps(self.to_json(), indent=2) + "\n"

    @classmethod
    def from_json(cls, data: dict) -> "Certificate":
        if (not isinstance(data, dict)
                or data.get("format") != "pivot-minor-certificate"):
            raise ValueError("not a pivot-minor certificate")
        version = data.get("version")
        # 2.0 == 2, so only the type tells a float version from this one
        if type(version) is not int or version != CERTIFICATE_VERSION:
            raise ValueError(
                f"certificate format version {version!r} is not supported; "
                f"this reader takes version {CERTIFICATE_VERSION}"
            )
        for name in ("vertices", "steps", "target_map"):
            if not isinstance(data.get(name), list):
                raise ValueError(f"certificate field {name!r} must be a JSON "
                                 "array")
        graphs = {}
        for name in ("input", "obstruction", "target"):
            part = data.get(name)
            text = part.get("graph6") if isinstance(part, dict) else None
            if not isinstance(text, str):
                raise ValueError(f"certificate field {name!r} must be a JSON "
                                 "object with a graph6 string")
            if (name == "input" and part.get("sha256")
                    != hashlib.sha256(text.encode()).hexdigest()):
                raise ValueError("malformed certificate: the input's sha256 "
                                 "does not match its graph6")
            graphs[name] = from_graph6(text)
        name = data["obstruction"].get("name")
        if name is not None and not isinstance(name, str):
            raise ValueError(f"malformed certificate: 'obstruction' name holds "
                             f"{name!r}, not a JSON string or null")
        try:
            return cls(
                vertices=_json_ints(data["vertices"], "'vertices'"),
                steps=tuple(steps_from_json(data["steps"])),
                target_map=_json_ints(data["target_map"], "'target_map'"),
                obstruction_name=name,
                **graphs,
            )
        except KeyError as exc:
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
        input=g,
        vertices=tuple(vertices),
        steps=tuple(steps),
        target_map=tuple(target_map),
        obstruction_name=obstruction_name,
        obstruction=induced_subgraph(g, vertices),
        target=target,
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

    if cert.input != g:
        return fail("certificate was issued for a different input graph")
    vs = cert.vertices
    if len(set(vs)) != len(vs) or any(not 0 <= v < g.n for v in vs):
        return fail("vertex subset is not a set of input vertices")
    cur = induced_subgraph(g, vs)
    if cur != cert.obstruction:
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
    if target != cert.target:
        return fail("certificate was issued for a different target")
    for a in range(cur.n):
        for b in range(a + 1, cur.n):
            if cur.has_edge(a, b) != target.has_edge(phi[a], phi[b]):
                return fail(f"map breaks the pair ({a}, {b})")
    return VerificationResult(True)
