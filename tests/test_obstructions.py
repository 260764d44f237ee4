"""Mining minimal obstructions, persistence, bounds, and family builders."""

import json
import os
import re

import pytest

from pivotminors import (
    Graph,
    PivotMinorCache,
    Verdict,
    canonical_key,
    check_bound,
    clique_star,
    complete_multipartite,
    cycle_graph,
    diff_obstruction_sets,
    disjoint_union,
    family_c3p1,
    family_k4,
    family_target,
    generate_all_graphs,
    is_minimal_obstruction,
    leaf_attached_multipartite,
    load_obstruction_set,
    mine,
    named_graph,
    obstruction_order_bound,
    path_graph,
    save_obstruction_set,
    star_graph,
)
from pivotminors import canon, containment
from pivotminors.obstructions import MINE_MAX_VERTICES


def keys(graphs):
    return {canonical_key(g) for g in graphs}


def test_is_minimal_obstruction(cache):
    p4 = named_graph("P4")
    assert is_minimal_obstruction(named_graph("dart"), p4, cache=cache) is Verdict.TRUE
    # the gem contains P4 but so does the gem minus its apex
    assert is_minimal_obstruction(named_graph("gem"), p4, cache=cache) is Verdict.FALSE
    assert is_minimal_obstruction(named_graph("W4"), Graph(3), cache=cache) is Verdict.TRUE
    assert is_minimal_obstruction(named_graph("C4"), named_graph("C3"),
                                  cache=cache) is Verdict.FALSE


def test_mine_small_sweeps(cache):
    obs = mine(named_graph("C3"), 5, cache=cache)
    assert keys(obs.members) == keys([named_graph("C3"), named_graph("C5")])
    assert obs.complete_up_to == 5
    assert not obs.inconclusive
    assert obs.max_member_order() == 5

    obs = mine(named_graph("2P2"), 5, cache=cache)
    assert keys(obs.members) == keys([named_graph(s)
                                      for s in ("O1", "O2", "O3", "O7", "O9")])


def sweep_every_class(h, n_max, cache):
    """Reference miner: test every isomorphism class on |h|..n_max
    vertices with is_minimal_obstruction, in generate_all_graphs order."""
    members, inconclusive = [], []
    for n in range(h.n, n_max + 1):
        for g in generate_all_graphs(n):
            verdict = is_minimal_obstruction(g, h, cache=cache)
            if verdict is Verdict.TRUE:
                members.append(g)
            elif verdict is Verdict.INCONCLUSIVE:
                inconclusive.append(g)
    return tuple(members), tuple(inconclusive)


@pytest.mark.parametrize("k,n_max", [(1, 7), (2, 7), (3, 7), (4, 7), (5, 6)])
def test_mine_matches_the_sweep_of_every_class(k, n_max, cache):
    for h in generate_all_graphs(k):
        obs = mine(h, n_max)
        assert (obs.members, obs.inconclusive) == \
            sweep_every_class(h, n_max, cache), canonical_key(h)


@pytest.mark.parametrize("name,n_max,count", [("C3", 5, 49), ("P4", 6, 201)])
def test_mine_reports_every_graph_behind_a_blown_orbit(name, n_max, count,
                                                      monkeypatch):
    # a blown target orbit makes every verdict from |h| up depend on the
    # orbit, so none may be dropped or decided; C3's orbit is C3 alone,
    # so only a limit of 0 blows it
    monkeypatch.setattr(containment, "ORBIT_LIMIT", 0)
    h = named_graph(name)
    obs = mine(h, n_max, cache=PivotMinorCache())
    assert obs.members == ()
    assert len(obs.inconclusive) == count
    assert obs.inconclusive == tuple(g for n in range(h.n, n_max + 1)
                                     for g in generate_all_graphs(n))


def test_mine_rejects_empty_target(cache):
    with pytest.raises(ValueError):
        mine(Graph(0), 3, cache=cache)


def test_mine_rejects_a_negative_depth(cache):
    with pytest.raises(ValueError, match="n_max"):
        mine(named_graph("C3"), -1, cache=cache)


def test_mine_names_the_canon_cap(cache):
    # mining has a 16-vertex cap of its own
    assert MINE_MAX_VERTICES == 16
    with pytest.raises(ValueError, match="MINE_MAX_VERTICES = 16 vertices, "
                                         "got n_max = 17"):
        mine(Graph(3), MINE_MAX_VERTICES + 1, cache=cache)


def test_p2_plus_p1_sweep_reaches_its_bound(cache):
    record = check_bound("P2+tP1", 1, 10, cache=cache)
    assert record.bound == 10
    assert record.covered and record.bound_respected
    assert record.inconclusive_count == 0
    assert "complete" in record.coverage_statement()
    # P2+P1, C4 and the diamond, in generate_all_graphs order
    assert record.obstructions.member_keys == ("BG", "C]", "C^")


@pytest.mark.skipif(os.environ.get("PIVOTMINORS_SLOW") != "1",
                    reason="set PIVOTMINORS_SLOW=1 to mine K1,2 to n = 15")
def test_k12_sweep_reaches_its_bound(cache):
    # ROADMAP item 10 asks for this in under 30 s and 500 MB; generation
    # builds one 2^(n-1) mask table per generator of each parent, so it
    # rests on a twin class of k vertices giving k - 1 transpositions
    # (17 s and 65 MB on a 2-core machine)
    record = check_bound("K1,t", 2, 15, cache=cache)
    assert record.bound == 15
    assert record.covered and record.bound_respected
    assert record.inconclusive_count == 0
    assert record.obstructions.member_keys == (canonical_key(path_graph(3)),)


def test_save_load_roundtrip(tmp_path, cache):
    obs = mine(named_graph("C3"), 5, cache=cache, target_name="C3")
    save_obstruction_set(obs, tmp_path / "c3")
    loaded = load_obstruction_set(tmp_path / "c3")
    assert loaded.target_name == "C3"
    assert loaded.target_key == obs.target_key
    assert loaded.complete_up_to == 5
    assert keys(loaded.members) == keys(obs.members)


def test_load_rejects_checksum_mismatch(tmp_path, cache):
    obs = mine(named_graph("C3"), 4, cache=cache)
    save_obstruction_set(obs, tmp_path / "c3")
    members = tmp_path / "c3" / "members.g6"
    members.write_text(members.read_text() + "Bw\n")
    with pytest.raises(ValueError):
        load_obstruction_set(tmp_path / "c3")


def test_saved_manifest_names_its_labelling(tmp_path, cache):
    save_obstruction_set(mine(named_graph("C3"), 4, cache=cache), tmp_path)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["labelling"] == canon.LABELLING == 2


@pytest.mark.parametrize("labelling", [None, 1, 3, 2.0, "2"])
def test_load_refuses_another_labelling(tmp_path, cache, labelling):
    # keys of another labelling name other graphs: the loader refuses them
    # by the manifest's field, not later by a misleading target mismatch
    save_obstruction_set(mine(named_graph("C3"), 4, cache=cache), tmp_path)
    path = tmp_path / "manifest.json"
    manifest = json.loads(path.read_text())
    if labelling is None:
        del manifest["labelling"]
    else:
        manifest["labelling"] = labelling
    path.write_text(json.dumps(manifest))
    with pytest.raises(ValueError, match="field 'labelling' is "
                       + repr(labelling).replace(".", r"\.")):
        load_obstruction_set(tmp_path)


@pytest.mark.parametrize("field, value", [
    ("complete_up_to", "3"), ("complete_up_to", True),
    ("complete_up_to", 3.0), ("complete_up_to", -1),
    ("complete_up_to", None), ("target_name", 7), ("target_name", None),
    ("target_key", ["Bw"]), ("members_sha256", 0)])
def test_load_refuses_a_malformed_field(tmp_path, cache, field, value):
    # None stands for a missing field; each is refused by name at load time,
    # not later where recognize_bounded compares or a lookup fails
    save_obstruction_set(mine(named_graph("C3"), 4, cache=cache), tmp_path)
    path = tmp_path / "manifest.json"
    manifest = json.loads(path.read_text())
    if value is None:
        del manifest[field]
    else:
        manifest[field] = value
    path.write_text(json.dumps(manifest))
    with pytest.raises(ValueError, match=f"field '{field}' is "
                       + re.escape(repr(value))):
        load_obstruction_set(tmp_path)


def test_diff_obstruction_sets(cache):
    a = mine(named_graph("C3"), 5, cache=cache)
    b = mine(named_graph("C3"), 5, cache=cache)
    delta = diff_obstruction_sets(a, b)
    assert delta["target_match"] and delta["same_depth"]
    assert delta["only_in_first"] == [] and delta["only_in_second"] == []

    import dataclasses
    shrunk = dataclasses.replace(b, members=b.members[:1])
    delta = diff_obstruction_sets(a, shrunk)
    assert len(delta["only_in_first"]) == len(a.members) - 1


def test_family_targets():
    assert family_target("tP1", 3) == Graph(3)
    assert family_target("P2+tP1", 2) == disjoint_union(path_graph(2), Graph(2))
    assert family_target("P3+tP1", 1) == disjoint_union(path_graph(3), Graph(1))
    assert family_target("K1,t", 3) == star_graph(3)
    with pytest.raises(ValueError):
        family_target("tP1", 0)
    with pytest.raises(ValueError):
        family_target("K1,t", 1)  # the star bound needs t >= 2
    with pytest.raises(ValueError):
        family_target("Kt", 2)


def test_order_bound_values():
    assert obstruction_order_bound("tP1", 2) == 3
    assert obstruction_order_bound("tP1", 3) == 7
    assert obstruction_order_bound("P2+tP1", 1) == 10
    assert obstruction_order_bound("K1,t", 2) == 15
    assert obstruction_order_bound("K1,t", 3) == 88
    assert obstruction_order_bound("P3+tP1", 1) == 24


def test_family_k4_shapes():
    bowtie = family_k4(3, 3, 0)
    assert bowtie.n == 5 and bowtie.num_edges == 6
    assert bowtie.degree_sequence() == (2, 2, 2, 2, 4)
    linked = family_k4(3, 3, 1)
    assert linked.n == 6 and linked.num_edges == 7
    longer = family_k4(3, 5, 2)
    assert longer.n == 3 + 5 + 2 - 1
    with pytest.raises(ValueError):
        family_k4(4, 3, 0)
    with pytest.raises(ValueError):
        family_k4(3, 3, -1)


def test_family_c3p1_shapes():
    g = family_c3p1(5)
    assert g.n == 6 and g.num_edges == 5
    assert g.degree(5) == 0
    with pytest.raises(ValueError):
        family_c3p1(4)


def test_structure_constructors():
    g = clique_star(2, [1, 3])
    assert g.n == 6
    # 1 core edge + 0 + 3 leaf-clique edges + complete joins 2*1 + 2*3
    assert g.num_edges == 1 + 3 + 2 + 6
    from pivotminors import is_isomorphic

    assert is_isomorphic(complete_multipartite([2, 2]), cycle_graph(4))
    assert complete_multipartite([1, 1, 1]) == cycle_graph(3)

    lam = leaf_attached_multipartite([1, 2], {0: 2})
    assert lam.n == 5
    assert lam.degree_sequence() == (1, 1, 1, 1, 4)
    with pytest.raises(ValueError):
        leaf_attached_multipartite([2, 2], {0: 1})  # class 0 is not singleton
    with pytest.raises(ValueError):
        clique_star(0)
    with pytest.raises(ValueError):
        complete_multipartite([])
