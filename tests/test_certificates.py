"""Step sequences, sequence search, and certificate replay."""

import dataclasses
import hashlib
import json

import pytest

from pivotminors import (
    Certificate,
    DeleteVertex,
    Graph,
    OrbitLimitError,
    PivotEdge,
    PivotMinorCache,
    apply_sequence,
    build_certificate,
    cycle_graph,
    find_pivot_minor_sequence,
    generate_all_graphs,
    induced_subgraph,
    is_isomorphic,
    named_graph,
    recognize,
    verify_certificate,
)
from pivotminors import containment
from pivotminors.certificates import SequenceError, steps_from_json, steps_to_json


def test_apply_sequence_replays():
    c5 = named_graph("C5")
    out = apply_sequence(c5, [PivotEdge(0, 1), DeleteVertex(1), DeleteVertex(0)])
    assert is_isomorphic(out, named_graph("C3"))
    assert apply_sequence(c5, []) == c5


def test_apply_sequence_validates_each_step():
    c4 = named_graph("C4")
    with pytest.raises(SequenceError) as err:
        apply_sequence(c4, [DeleteVertex(0), PivotEdge(0, 2)])
    assert err.value.index == 1
    assert "not an edge" in err.value.reason
    with pytest.raises(SequenceError) as err:
        apply_sequence(c4, [DeleteVertex(9)])
    assert err.value.index == 0
    with pytest.raises(SequenceError):
        apply_sequence(c4, ["bogus"])


def test_steps_json_roundtrip():
    steps = [PivotEdge(0, 3), DeleteVertex(2), DeleteVertex(0)]
    data = steps_to_json(steps)
    assert data[0] == {"op": "pivot", "u": 0, "v": 3}
    assert steps_from_json(data) == steps
    with pytest.raises(ValueError):
        steps_from_json([{"op": "explode"}])


def test_find_sequence_none_when_not_contained(cache):
    assert find_pivot_minor_sequence(named_graph("C4"), named_graph("C3"),
                                     cache=cache) is None


def test_found_sequences_replay_correctly(cache):
    # every claimed sequence must replay onto the target, edge for edge
    targets = [named_graph(s) for s in ("C3", "P4", "3P1", "claw")]
    for g in generate_all_graphs(5):
        for h in targets:
            found = find_pivot_minor_sequence(g, h, cache=cache)
            if found is None:
                continue
            steps, iso = found
            result = apply_sequence(g, steps)
            assert result.n == h.n
            assert sorted(iso) == list(range(h.n))
            for a in range(h.n):
                for b in range(a + 1, h.n):
                    assert result.has_edge(a, b) == h.has_edge(iso[a], iso[b])


def test_sequence_exists_iff_contained(cache):
    hosts = generate_all_graphs(5)
    h = named_graph("C3")
    from pivotminors import contains_pivot_minor

    for g in hosts:
        found = find_pivot_minor_sequence(g, h, cache=cache)
        assert (found is not None) == bool(contains_pivot_minor(g, h, cache=cache))


# sha256 over one line per (class on at most 6 vertices, target): the
# steps and the final map that find_pivot_minor_sequence returns, or null.
# The peel records the search's reductions in containment._reductions
# order, so a change to that order or to the canonical labelling
# (ROADMAP item 1) moves it, to be re-pinned on purpose.
SEQUENCE_DIGEST = (
    "6f74d89d2bf74ccc3d11f886abffd0acb3122140837ec401a7b25077a8b0d143"
)


def test_sequence_output_is_pinned(cache):
    lines = []
    for n in range(7):
        for g in generate_all_graphs(n):
            for t in ("C3", "P4", "claw", "2P2"):
                found = find_pivot_minor_sequence(g, named_graph(t),
                                                  cache=cache)
                if found is not None:
                    steps, iso = found
                    found = [steps_to_json(steps), iso]
                lines.append(json.dumps(found) + "\n")
    digest = hashlib.sha256("".join(lines).encode()).hexdigest()
    assert digest == SEQUENCE_DIGEST


def test_find_sequence_names_the_orbit_limit(monkeypatch):
    monkeypatch.setattr(containment, "ORBIT_LIMIT", 1)
    with pytest.raises(OrbitLimitError) as err:
        find_pivot_minor_sequence(named_graph("C5"), named_graph("P4"),
                                  cache=PivotMinorCache())
    assert err.value.limit == 1


def make_cert(cache):
    # C5 sits inside C5 + K1 on vertices 0..4; shrink it to C3
    g = Graph(6, [(i, (i + 1) % 5) for i in range(5)])
    steps, iso = find_pivot_minor_sequence(named_graph("C5"), named_graph("C3"),
                                           cache=cache)
    return g, build_certificate(g, [0, 1, 2, 3, 4], steps, iso,
                                named_graph("C3"), obstruction_name="C5")


def test_certificate_accepts(cache):
    g, cert = make_cert(cache)
    outcome = verify_certificate(g, cert, named_graph("C3"))
    assert outcome.ok and bool(outcome)
    assert outcome.step is None and outcome.reason is None


def test_certificate_json_roundtrip(cache):
    g, cert = make_cert(cache)
    data = json.loads(cert.dumps())
    assert data["format"] == "pivot-minor-certificate"
    assert data["input"]["graph6"] == cert.input_graph6
    assert data["version"] == 2
    assert data["obstruction"]["graph6"] == cert.obstruction_graph6
    again = Certificate.loads(cert.dumps())
    assert again == cert
    with pytest.raises(ValueError):
        Certificate.from_json({"format": "something-else"})
    # a version 1 blob stored canonical keys, which this reader cannot check
    data["version"] = 1
    with pytest.raises(ValueError, match="version 1"):
        Certificate.from_json(data)


def test_certificate_rejects_wrong_input(cache):
    g, cert = make_cert(cache)
    other = Graph(6, [(0, 1)])
    outcome = verify_certificate(other, cert, named_graph("C3"))
    assert not outcome.ok
    assert "different input" in outcome.reason


def test_certificate_rejects_tampered_vertices(cache):
    g, cert = make_cert(cache)
    bad = Certificate(cert.input_graph6, (0, 1, 2, 3, 5), cert.steps,
                      cert.target_map, cert.obstruction_name,
                      cert.obstruction_graph6, cert.target_graph6)
    outcome = verify_certificate(g, bad, named_graph("C3"))
    assert not outcome.ok
    assert "does not match the claimed obstruction" in outcome.reason


def test_certificate_rejects_tampered_step(cache):
    g, cert = make_cert(cache)
    steps = list(cert.steps)
    # find a pivot step and break it; C5 has no edge at distance 2
    idx = next(i for i, s in enumerate(steps) if isinstance(s, PivotEdge))
    steps[idx] = PivotEdge(0, 2)
    bad = Certificate(cert.input_graph6, cert.vertices, tuple(steps),
                      cert.target_map, cert.obstruction_name,
                      cert.obstruction_graph6, cert.target_graph6)
    outcome = verify_certificate(g, bad, named_graph("C3"))
    assert not outcome.ok
    assert outcome.step == idx


def test_certificate_rejects_tampered_map(cache):
    g, cert = make_cert(cache)
    bad_map = (0, 0, 1)
    bad = Certificate(cert.input_graph6, cert.vertices, cert.steps,
                      bad_map, cert.obstruction_name,
                      cert.obstruction_graph6, cert.target_graph6)
    outcome = verify_certificate(g, bad, named_graph("C3"))
    assert not outcome.ok
    assert "bijection" in outcome.reason


def test_certificate_rejects_wrong_target(cache):
    g, cert = make_cert(cache)
    outcome = verify_certificate(g, cert, named_graph("P3"))
    assert not outcome.ok
    assert "different target" in outcome.reason


def test_verifier_does_not_use_canonical_forms(cache, monkeypatch):
    # the verifier must stay independent of the search code: with the
    # canonical labelling broken, a good certificate still verifies
    from pivotminors import canon

    g, cert = make_cert(cache)

    def broken(*args, **kwargs):
        raise AssertionError("verify_certificate called into canon")

    # every labelling entry point (canonical_form, canonical_labelling and
    # isomorphism) runs canon._search unless the form cache answers, so
    # empty the cache as well as breaking the search and the entry points
    monkeypatch.setattr(canon, "_FORMS", {})
    for name in ("canonical_form", "canonical_labelling", "_search"):
        monkeypatch.setattr(canon, name, broken)
    outcome = verify_certificate(g, cert, named_graph("C3"))
    assert outcome.ok, outcome.reason


@pytest.mark.parametrize("bad, reason", [
    (PivotEdge(0, 9), "out of range"),
    (PivotEdge(1, 1), "not an edge"),
    (PivotEdge(0, 2), "not an edge"),
    (DeleteVertex(4), "out of range"),
    ("bogus", "unknown step"),
])
def test_verifier_names_the_malformed_step(cache, bad, reason):
    # deleting vertex 4 of the C5 leaves the path 0-1-2-3, so the
    # malformed step is the second one
    g, cert = make_cert(cache)
    tampered = dataclasses.replace(cert, steps=(DeleteVertex(4), bad))
    outcome = verify_certificate(g, tampered, named_graph("C3"))
    assert not outcome.ok
    assert outcome.step == 1
    assert reason in outcome.reason


@pytest.mark.parametrize("field, tamper, reason", [
    ("vertices", lambda vs: (7,) + vs[1:],
     "vertex subset is not a set of input vertices"),
    ("steps", lambda steps: steps + (DeleteVertex(0),),
     "replay ends with 3 vertices, target has 4"),
    # 2P2 is the edges 01 and 23, so swapping 1 and 2 is no automorphism
    ("target_map", lambda phi: (phi[0], phi[2], phi[1], phi[3]),
     "map breaks the pair (0, 1)"),
])
def test_verifier_rejects_a_tampered_field(field, tamper, reason):
    # the quick tour's certificate: C7 contains 2P2 on four vertices
    c7, target = cycle_graph(7), named_graph("2P2")
    cert = recognize(c7, "2P2").certificate
    assert verify_certificate(c7, cert, target).ok
    tampered = dataclasses.replace(cert, **{field: tamper(getattr(cert, field))})
    outcome = verify_certificate(c7, tampered, target)
    assert not outcome.ok
    assert outcome.reason == reason
