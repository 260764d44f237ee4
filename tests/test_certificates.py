"""Step sequences, sequence search, and certificate replay."""

import dataclasses
import hashlib
import json
import random
import re

import pytest

from pivotminors import (
    Certificate,
    DeleteVertex,
    Graph,
    OrbitLimitError,
    PivotEdge,
    PivotMinorCache,
    SearchBudgetError,
    apply_sequence,
    build_certificate,
    complete_graph,
    complete_multipartite,
    cycle_graph,
    disjoint_union,
    find_pivot_minor_sequence,
    generate_all_graphs,
    induced_subgraph,
    is_isomorphic,
    named_graph,
    path_graph,
    recognize,
    to_graph6,
    verify_certificate,
    wheel_graph,
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
    "ca50d04b70a55eaae32ecaa9ba6a5516c2cfc9850a4bded028a251c7bb507940"
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


def test_find_sequence_names_the_search_budget(monkeypatch):
    # the orbit fits, so a spent search budget is the limit to name; C7
    # is two vertices above P4, so its root is a memo miss
    monkeypatch.setattr(containment, "SEARCH_BUDGET", 0)
    with pytest.raises(SearchBudgetError) as err:
        find_pivot_minor_sequence(named_graph("C7"), named_graph("P4"),
                                  cache=PivotMinorCache())
    assert err.value.budget == 0
    assert err.value.graph6 == to_graph6(named_graph("C7"))


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
    assert data["input"]["graph6"] == to_graph6(cert.input) == to_graph6(g)
    assert data["version"] == 2
    assert data["obstruction"]["graph6"] == to_graph6(cert.obstruction)
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
    bad = dataclasses.replace(cert, vertices=(0, 1, 2, 3, 5))
    outcome = verify_certificate(g, bad, named_graph("C3"))
    assert not outcome.ok
    assert "does not match the claimed obstruction" in outcome.reason


def test_certificate_rejects_tampered_step(cache):
    g, cert = make_cert(cache)
    steps = list(cert.steps)
    # find a pivot step and break it; C5 has no edge at distance 2
    idx = next(i for i, s in enumerate(steps) if isinstance(s, PivotEdge))
    steps[idx] = PivotEdge(0, 2)
    bad = dataclasses.replace(cert, steps=tuple(steps))
    outcome = verify_certificate(g, bad, named_graph("C3"))
    assert not outcome.ok
    assert outcome.step == idx


def test_certificate_rejects_tampered_map(cache):
    g, cert = make_cert(cache)
    bad_map = (0, 0, 1)
    bad = dataclasses.replace(cert, target_map=bad_map)
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


# -- the JSON boundary ------------------------------------------------------

@pytest.mark.parametrize("kind", ["float", "string", "bool"])
@pytest.mark.parametrize("field", ["vertices", "target_map", "steps"])
def test_loader_refuses_labels_that_are_not_json_integers(field, kind):
    # int() reads 0.5 as 0, "0" as 0 and true as 1, so a loader that
    # coerces lets C7's 2P2 certificate with every vertex moved by a half
    # verify
    c7 = cycle_graph(7)
    data = recognize(c7, "2P2").certificate.to_json()
    bad = {"float": lambda x: x + 0.5, "string": str, "bool": bool}[kind]
    if field == "steps":
        data["steps"] = [{"op": "delete", "v": bad(2)}]
        name = "step 0"
    else:
        data[field] = [bad(x) for x in data[field]]
        name = f"'{field}'"
    with pytest.raises(ValueError, match=f"malformed certificate: {name} holds"):
        Certificate.from_json(data)


@pytest.mark.parametrize("field, value, named", [
    ("version", 2.0, "version 2.0 is not supported"),
    ("version", "2", "version '2' is not supported"),
    ("version", True, "version True is not supported"),
    ("name", ["x"], "'obstruction' name holds ['x']"),
    ("name", 2, "'obstruction' name holds 2"),
    ("name", {"x": 1}, "'obstruction' name holds {'x': 1}"),
], ids=["version-float", "version-string", "version-bool", "name-list",
        "name-int", "name-object"])
def test_loader_refuses_a_version_or_name_of_another_json_type(
        field, value, named):
    # 2.0 == 2, so a loader that compares values reads C7's 2P2
    # certificate with a float version as VALID, and one that stores the
    # name whatever its type hands ["x"] on as the obstruction's name
    data = recognize(cycle_graph(7), "2P2").certificate.to_json()
    honest = data["obstruction"]["name"]
    assert isinstance(honest, str)
    assert Certificate.from_json(data).obstruction_name == honest
    if field == "version":
        data["version"] = value
    else:
        data["obstruction"]["name"] = value
    with pytest.raises(ValueError, match=re.escape(named)):
        Certificate.from_json(data)
    # a null name still loads
    data["version"] = 2
    data["obstruction"]["name"] = None
    assert Certificate.from_json(data).obstruction_name is None


def test_loader_refuses_an_input_that_does_not_match_its_sha256():
    c7 = cycle_graph(7)
    data = recognize(c7, "2P2").certificate.to_json()
    data["input"]["graph6"] = to_graph6(path_graph(7))
    with pytest.raises(ValueError, match="sha256 does not match"):
        Certificate.from_json(data)
    del data["input"]["sha256"]
    with pytest.raises(ValueError, match="sha256 does not match"):
        Certificate.from_json(data)


@pytest.mark.parametrize("field", ["input", "obstruction", "target"])
def test_loader_refuses_a_missing_or_broken_graph6(field):
    data = recognize(cycle_graph(7), "2P2").certificate.to_json()
    del data[field]["graph6"]
    with pytest.raises(ValueError, match=f"'{field}' must be a JSON object "
                       "with a graph6 string"):
        Certificate.from_json(data)
    data[field]["graph6"] = "C~~"  # body one byte too long
    data["input"]["sha256"] = hashlib.sha256(
        data["input"]["graph6"].encode()).hexdigest()
    with pytest.raises(ValueError, match="graph6 body has 2 bytes, expected 1"):
        Certificate.from_json(data)


def large_inputs():
    rng = random.Random(19)
    tree = Graph(64, [(rng.randrange(v), v) for v in range(1, 64)])
    return {"C63": cycle_graph(63), "W63": wheel_graph(63),
            "K(2^32)": complete_multipartite([2] * 32), "T64": tree,
            "2K32": disjoint_union(complete_graph(32), complete_graph(32))}


RECOGNIZER_TARGETS = ("C3", "P4", "C4", "paw", "diamond", "2P2", "3P1", "claw")
# sha256 over one line per (input of large_inputs, target): verdict,
# obstruction name and the certificate's dumps() text without its "tool"
# field, or null.  It pins the JSON of graphs past graph6's one-byte size
# header, which RECOGNIZER_DIGEST (at most 6 vertices) never reaches.
LARGE_CERTIFICATE_DIGEST = (
    "297caf3c1b07f13a80451a12c2d143c1c2c791a07c5c75eb0a834ba29e251c56"
)


@pytest.fixture(scope="module")
def large_results():
    return [(name, g, t, recognize(g, t))
            for name, g in large_inputs().items() for t in RECOGNIZER_TARGETS]


def test_large_certificates_are_pinned(large_results):
    lines = []
    for name, _, t, res in large_results:
        text = "null"
        if res.certificate is not None:
            data = json.loads(res.certificate.dumps())
            del data["tool"]
            text = json.dumps(data, indent=2)
        lines.append(f"{name}\t{t}\t{res.verdict}\t{res.obstruction_name}"
                     f"\t{text}\n")
    digest = hashlib.sha256("".join(lines).encode()).hexdigest()
    assert digest == LARGE_CERTIFICATE_DIGEST


def test_large_certificates_load_back(large_results):
    # graph6 writes an order of 63 or more as '~' and three size bytes
    certs = [(g, res) for _, g, _, res in large_results if res.contains]
    assert len(certs) == 30
    for g, res in certs:
        assert to_graph6(g).startswith("~")
        again = Certificate.loads(res.certificate.dumps())
        assert again == res.certificate
        assert verify_certificate(g, again, named_graph(res.target)).ok


def test_certificates_use_graph6_only_at_the_json_boundary(cache, monkeypatch):
    # building and verifying compare labelled graphs; only to_json and
    # from_json encode or decode graph6
    from pivotminors import certificates

    def broken(*args, **kwargs):
        raise AssertionError("graph6 used outside to_json and from_json")

    for name in ("to_graph6", "from_graph6"):
        monkeypatch.setattr(certificates, name, broken)
    g, cert = make_cert(cache)
    assert verify_certificate(g, cert, named_graph("C3")).ok
    for g in large_inputs().values():
        for t in RECOGNIZER_TARGETS:
            res = recognize(g, t)
            if res.contains:
                outcome = verify_certificate(g, res.certificate, named_graph(t))
                assert outcome.ok, outcome.reason
    with pytest.raises(AssertionError, match="graph6 used"):
        cert.to_json()
