"""Command-line interface: outputs, file handling, and exit codes."""

import json
import warnings

import pytest

from pivotminors import (
    Graph,
    PivotMinorCache,
    canonical_key,
    complete_multipartite,
    named_graph,
    pivot,
    to_edgelist,
    to_graph6,
)
from pivotminors import canon, cli, containment
from pivotminors.cli import EXIT_INCONCLUSIVE, EXIT_OK, EXIT_USAGE, main
from pivotminors.generate import KNOWN_CLASS_COUNTS


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_contains_true(capsys):
    code, out, _ = run(capsys, "contains", "--g", "C5", "--h", "C3")
    assert code == EXIT_OK
    assert out.strip() == "true"


def test_contains_false_json(capsys):
    code, out, _ = run(capsys, "contains", "--g", "C4", "--h", "C3", "--json")
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["verdict"] == "false"
    assert data["inputs"]["g"]["n"] == 4


def assert_contains_inconclusive(capsys, g, h, message):
    # every spent limit reads the same: the verdict on stdout, plain and
    # under --json, one stderr line naming the limit and no warning, exit 2
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "contains", "--g", g, "--h", h)
        assert (code, out, err) == (EXIT_INCONCLUSIVE, "inconclusive\n",
                                    f"inconclusive: {message}\n")
        code, out, err = run(capsys, "contains", "--g", g, "--h", h, "--json")
    assert (code, err) == (EXIT_INCONCLUSIVE, f"inconclusive: {message}\n")
    assert json.loads(out)["verdict"] == "inconclusive"


def test_contains_inconclusive_exit(capsys, monkeypatch):
    # a cold cache, so the target's orbit is enumerated under the limit
    monkeypatch.setattr(containment, "DEFAULT_CACHE", PivotMinorCache())
    monkeypatch.setattr(containment, "ORBIT_LIMIT", 1)
    assert_contains_inconclusive(
        capsys, "C5", "C5", "pivot orbit exceeded ORBIT_LIMIT = 1 members "
        f"on {to_graph6(named_graph('C5'))}")


def test_contains_reports_the_search_budget(capsys, monkeypatch):
    monkeypatch.setattr(containment, "DEFAULT_CACHE", PivotMinorCache())
    monkeypatch.setattr(containment, "SEARCH_BUDGET", 0)
    assert_contains_inconclusive(
        capsys, "C9", "C5", "containment search spent SEARCH_BUDGET = 0 "
        f"memo misses on host {to_graph6(named_graph('C9'))}")


def test_contains_reports_the_labelling_budget(capsys, monkeypatch):
    monkeypatch.setattr(containment, "DEFAULT_CACHE", PivotMinorCache())
    monkeypatch.setattr(canon, "_FORMS", {})
    monkeypatch.setattr(canon, "LABEL_BUDGET", 1 << 10)
    assert_contains_inconclusive(
        capsys, "C17", "C3", "labelling search spent LABEL_BUDGET = 1024 "
        f"work units on {to_graph6(named_graph('C17'))}")


@pytest.mark.parametrize("command", ["orbit", "contains", "sequence"])
def test_no_subcommand_takes_an_orbit_limit(capsys, command):
    graphs = (["--in", "C5"] if command == "orbit"
              else ["--g", "C5", "--h", "C3"])
    code, out, err = run(capsys, command, *graphs, "--limit", "1")
    assert code == EXIT_USAGE
    assert out == ""
    assert "--limit" in err


def test_pivot_command(capsys):
    code, out, _ = run(capsys, "pivot", "--in", "C4", "--edge", "0,1")
    assert code == EXIT_OK
    assert out.strip() == to_graph6(pivot(named_graph("C4"), 0, 1))


def test_pivot_non_edge_is_usage_error(capsys):
    code, _, err = run(capsys, "pivot", "--in", "C4", "--edge", "0,2")
    assert code == EXIT_USAGE
    assert "error:" in err


def test_pivot_bad_edge_syntax(capsys):
    code, _, err = run(capsys, "pivot", "--in", "C4", "--edge", "zero,one")
    assert code == EXIT_USAGE
    assert "u,v" in err


def test_orbit_json(capsys):
    code, out, _ = run(capsys, "orbit", "--in", "C5", "--json")
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["orbit_size"] >= 2
    assert canonical_key(named_graph("C5")) in data["classes"]


def test_orbit_refuses_a_graph_above_the_cap_before_enumerating(
        capsys, monkeypatch):
    # W16 has 9,261 labelled orbit members, and listing their classes
    # labels every one: the command keeps its own 16-vertex cap and must
    # refuse the 17-vertex wheel without enumerating the orbit
    def refuse(g):
        raise AssertionError("pivot_orbit called")

    monkeypatch.setattr(cli, "pivot_orbit", refuse)
    code, out, err = run(capsys, "orbit", "--in", "W16")
    assert code == EXIT_USAGE == 1
    assert out == ""
    assert "orbit listing is capped at 16 vertices, got 17" in err, err


def test_graph_arguments_accept_files_and_literals(tmp_path, capsys):
    p = tmp_path / "g.g6"
    p.write_text(to_graph6(named_graph("C5")) + "\n")
    code, out, _ = run(capsys, "contains", "--g", str(p), "--h", "g6:Bw")
    assert code == EXIT_OK
    assert out.strip() == "true"


def test_unknown_graph_argument(capsys):
    code, _, err = run(capsys, "contains", "--g", "nosuchgraph", "--h", "C3")
    assert code == EXIT_USAGE
    assert "g6:" in err


def test_sequence_command(capsys):
    code, out, _ = run(capsys, "sequence", "--g", "C5", "--h", "C3")
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["steps"]
    assert sorted(data["target_map"]) == [0, 1, 2]


def test_sequence_none(capsys):
    code, out, _ = run(capsys, "sequence", "--g", "C4", "--h", "C3")
    assert code == EXIT_OK
    assert out.strip() == "none"


def test_gen_counts(capsys):
    code, out, _ = run(capsys, "gen", "--n", "5")
    assert code == EXIT_OK
    assert len(out.strip().splitlines()) == KNOWN_CLASS_COUNTS[5]


def test_convert_roundtrip(tmp_path, capsys):
    code, out, _ = run(capsys, "convert", "--in", "g6:Bg", "--to", "edges")
    assert code == EXIT_OK
    assert out.splitlines()[0] == "3 2"
    p = tmp_path / "g.edges"
    p.write_text(out)
    code, out, _ = run(capsys, "convert", "--in", str(p), "--to", "g6")
    assert code == EXIT_OK
    assert out.strip() == "Bg"


def test_mine_and_stored_comparison(tmp_path, capsys):
    out_dir = tmp_path / "c3"
    code, out, err = run(capsys, "mine", "--h", "C3", "--nmax", "5",
                         "--out", str(out_dir))
    assert code == EXIT_OK
    assert "saved" in err
    assert len(out.strip().splitlines()) == 2  # C3 and C5

    # a second run must agree with what was stored
    code, _, err = run(capsys, "mine", "--h", "C3", "--nmax", "5",
                       "--out", str(out_dir))
    assert code == EXIT_OK
    assert "matches stored results" in err

    # tampering with the stored members must be caught
    members = out_dir / "members.g6"
    members.write_text("Bw\n")
    code, _, err = run(capsys, "mine", "--h", "C3", "--nmax", "5",
                       "--out", str(out_dir))
    assert code == EXIT_USAGE
    assert "checksum" in err


def test_mine_at_another_depth_differs_from_stored(tmp_path, capsys):
    # C3's members to n = 6 are those to n = 5, but the sets are not the same
    out_dir = tmp_path / "c3"
    run(capsys, "mine", "--h", "C3", "--nmax", "5", "--out", str(out_dir))
    code, _, err = run(capsys, "mine", "--h", "C3", "--nmax", "6",
                       "--out", str(out_dir))
    assert code == EXIT_USAGE
    assert "differ" in err and '"same_depth": false' in err


def test_check_bound_covered(capsys):
    code, out, _ = run(capsys, "check-bound", "--family", "tP1", "--t", "2",
                       "--nmax", "3", "--json")
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["covered"] is True
    assert data["bound"] == 3
    assert data["observed_max_order"] == 2


def test_check_bound_p2_plus_p1_to_its_bound(capsys):
    code, out, _ = run(capsys, "check-bound", "--family", "P2+tP1", "--t", "1",
                       "--nmax", "10", "--json")
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["covered"] is True and data["bound_respected"] is True
    assert data["bound"] == 10
    assert data["member_count"] == 3


def test_check_bound_uncovered_is_flagged(capsys):
    code, out, _ = run(capsys, "check-bound", "--family", "tP1", "--t", "3",
                       "--nmax", "4")
    assert code == EXIT_INCONCLUSIVE
    assert "may be missing" in out


def test_family_commands(capsys):
    code, out, _ = run(capsys, "family", "--name", "k4", "--odd", "3,3",
                       "--path-len", "0")
    assert code == EXIT_OK
    from pivotminors import family_k4

    assert out.strip() == to_graph6(family_k4(3, 3, 0))
    code, out, _ = run(capsys, "family", "--name", "c3p1", "--k", "5")
    assert code == EXIT_OK
    code, _, err = run(capsys, "family", "--name", "k4")
    assert code == EXIT_USAGE


def test_recognize_and_verify_roundtrip(tmp_path, capsys):
    cert_path = tmp_path / "cert.json"
    code, out, _ = run(capsys, "recognize", "--target", "C3", "--in", "C5",
                       "--emit-cert", str(cert_path))
    assert code == EXIT_OK
    assert out.startswith("contains")
    assert "C5" in out

    code, out, _ = run(capsys, "verify", "--in", "C5",
                       "--cert", str(cert_path), "--h", "C3")
    assert code == EXIT_OK
    assert out.strip() == "VALID"

    # break one step and make sure the verifier names the broken index
    data = json.loads(cert_path.read_text())
    pivots = [i for i, s in enumerate(data["steps"]) if s["op"] == "pivot"]
    data["steps"][pivots[0]] = {"op": "pivot", "u": 0, "v": 2}
    cert_path.write_text(json.dumps(data))
    code, out, _ = run(capsys, "verify", "--in", "C5",
                       "--cert", str(cert_path), "--h", "C3")
    assert code == EXIT_USAGE
    assert f"INVALID at step {pivots[0]}" in out


def test_recognize_json_free(capsys):
    code, out, _ = run(capsys, "recognize", "--target", "2P2", "--in",
                       "prism", "--json")
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["verdict"] == "free"
    assert data["certificate"] is None


def test_recognize_bounded_family_targets(capsys):
    code, out, _ = run(capsys, "recognize", "--target", "2P1", "--in", "K3",
                       "--nmax", "3")
    assert code == EXIT_OK
    assert out.startswith("free")

    # a sweep below the bound is refused unless explicitly allowed
    code, _, err = run(capsys, "recognize", "--target", "2P1", "--in", "K3",
                       "--nmax", "2")
    assert code == EXIT_USAGE
    assert "allow_truncated" in err

    code, out, _ = run(capsys, "recognize", "--target", "2P1", "--in", "K3",
                       "--nmax", "2", "--allow-truncated")
    assert code == EXIT_INCONCLUSIVE
    assert out.startswith("free-up-to-truncation")


def test_recognize_bounded_mines_to_the_bound_by_default(capsys):
    # the proved bound for P2+1P1 is 10, so no --nmax is needed
    code, out, _ = run(capsys, "recognize", "--target", "P2+1P1", "--in", "C4")
    assert code == EXIT_OK
    assert out.startswith("contains")
    code, out, _ = run(capsys, "recognize", "--target", "P2+1P1", "--in", "K3")
    assert code == EXIT_OK
    assert out.startswith("free")


def test_recognize_unknown_target(capsys):
    code, _, err = run(capsys, "recognize", "--target", "Q7", "--in", "C5")
    assert code == EXIT_USAGE


@pytest.mark.parametrize("name,parsed", [
    ("4P1", ("tP1", 4)), ("P2+2P1", ("P2+tP1", 2)), ("P3+1P1", ("P3+tP1", 1)),
    ("K1,4", ("K1,t", 4)), ("P2 + 12P1", ("P2+tP1", 12)),
    ("Q7", None), ("3P2", None), ("tP1", None),
])
def test_family_target_names(name, parsed):
    # each bounded family's name with the count in place of t
    assert cli._parse_family_target(name) == parsed


@pytest.mark.parametrize("argv,graph6", [
    (["mine", "--h", "C3", "--nmax", "4"], "Bw"),
    (["check-bound", "--family", "tP1", "--t", "2", "--nmax", "3"], "A?"),
    (["recognize", "--target", "2P1", "--in", "P3", "--nmax", "3"], "A?"),
], ids=["mine", "check-bound", "recognize"])
def test_a_blown_orbit_in_mining_is_one_inconclusive_line(
        capsys, monkeypatch, argv, graph6):
    # P3 contains 2P1, so recognize must not answer free on an empty list
    monkeypatch.setattr(containment, "DEFAULT_CACHE", PivotMinorCache())
    monkeypatch.setattr(containment, "ORBIT_LIMIT", 0)
    assert run(capsys, *argv) == (
        EXIT_INCONCLUSIVE, "",
        f"inconclusive: pivot orbit exceeded ORBIT_LIMIT = 0 members on "
        f"{graph6}\n")


def test_reduce_multi_line_file(tmp_path, capsys):
    lines = [to_graph6(complete_multipartite([3, 3])),
             to_graph6(named_graph("prism"))]
    p = tmp_path / "cubic.g6"
    p.write_text("\n".join(lines) + "\n")
    report_path = tmp_path / "report.json"
    code, out, _ = run(capsys, "reduce", "--in", str(p),
                       "--report", str(report_path))
    assert code == EXIT_OK
    data = json.loads(out)
    assert len(data["reports"]) == 2
    assert all(r["sides_agree"] for r in data["reports"])
    assert json.loads(report_path.read_text()) == {"reports": data["reports"]}


def test_reduce_reads_its_argument_as_every_other_command_does(
        tmp_path, monkeypatch, capsys):
    # a name comes before a file of that name, as in load_graph_arg
    monkeypatch.chdir(tmp_path)
    (tmp_path / "K3,3").write_text("I?LRCecq?\n")  # the Petersen graph
    code, out, err = run(capsys, "reduce", "--in", "K3,3")
    assert code == EXIT_OK, err
    (report,) = json.loads(out)["reports"]
    assert report["n"] == 6 and report["sides_agree"] is True
    assert run(capsys, "convert", "--in", "K3,3", "--to", "g6") == \
        (EXIT_OK, "EFz_\n", "")


def test_reduce_reports_a_spent_search_budget_in_one_line(
        monkeypatch, capsys):
    # the Petersen graph's gadget is a FALSE query, so five memo misses
    # cannot settle it; the report stays, with no verdict to compare
    monkeypatch.setattr(containment, "DEFAULT_CACHE", PivotMinorCache())
    monkeypatch.setattr(containment, "SEARCH_BUDGET", 5)
    code, out, err = run(capsys, "reduce", "--in", "g6:I?LRCecq?")
    assert code == EXIT_INCONCLUSIVE
    (report,) = json.loads(out)["reports"]
    assert report["sides_agree"] is None
    assert report["contains_verdict"] == "inconclusive"
    assert err.count("\n") == 1, err
    assert err.startswith("inconclusive: containment search spent "
                          "SEARCH_BUDGET = 5 memo misses on host "), err


def test_mine_reports_a_full_cache_in_one_line(monkeypatch, capsys):
    # every refused insert warns the same message, from several callers
    monkeypatch.setattr(canon, "_FORMS", {})
    monkeypatch.setattr(canon, "CACHE_CAP", 100)
    code, out, err = run(capsys, "mine", "--h", "C3", "--nmax", "6")
    assert code == EXIT_OK
    assert out
    assert err.count("\n") == 1, err
    assert err.startswith("cache full at 100 entries; "), err


def test_reduce_disagreement_fails(monkeypatch, capsys):
    # at n >= 5 a disagreement contradicts the proved equivalence; below
    # it the report's note stands and the exit code stays 0
    def disagreeing(n):
        return lambda g: {"n": n, "sides_agree": False, "notes": []}

    monkeypatch.setattr(cli, "reduction_roundtrip", disagreeing(6))
    code, _, err = run(capsys, "reduce", "--in", "K3,3")
    assert code == EXIT_USAGE
    assert "disagree" in err
    monkeypatch.setattr(cli, "reduction_roundtrip", disagreeing(4))
    code, _, _ = run(capsys, "reduce", "--in", "K4")
    assert code == EXIT_OK


def test_missing_subcommand_is_usage_error(capsys):
    code, _, err = run(capsys, "definitely-not-a-command")
    assert code == EXIT_USAGE
    code, _, err = run(capsys)
    assert code == EXIT_USAGE


def test_version_flag(capsys):
    import pytest

    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


@pytest.mark.parametrize("break_it, named", [
    (lambda c: {**c, "obstruction": None}, "'obstruction'"),
    (lambda c: {**c, "input": None}, "'input'"),
    (lambda c: {**c, "vertices": None}, "'vertices'"),
    (lambda c: {**c, "steps": [5] + c["steps"]}, "step 0"),
    (lambda c: [c], "not a pivot-minor certificate"),
    (lambda c: {**c, "vertices": [None] + c["vertices"][1:]},
     "malformed certificate"),
], ids=["obstruction-null", "input-null", "vertices-null", "step-not-object",
        "top-level-list", "vertex-null"])
def test_verify_names_the_malformed_certificate_field(tmp_path, capsys,
                                                      break_it, named):
    cert_path = tmp_path / "cert.json"
    run(capsys, "recognize", "--target", "claw", "--in", "claw",
        "--emit-cert", str(cert_path))
    cert_path.write_text(json.dumps(break_it(json.loads(cert_path.read_text()))))
    code, _, err = run(capsys, "verify", "--in", "claw",
                       "--cert", str(cert_path), "--h", "claw")
    assert code == EXIT_USAGE
    assert err.startswith("error:") and named in err, err


def test_verify_refuses_labels_that_are_not_json_integers(tmp_path, capsys):
    # int() reads these labels as the original ones, so a loader that
    # coerces prints VALID for C7's 2P2 certificate moved by a half
    cert_path = tmp_path / "cert.json"
    run(capsys, "recognize", "--target", "2P2", "--in", "C7",
        "--emit-cert", str(cert_path))
    data = json.loads(cert_path.read_text())
    data["vertices"] = [v + 0.5 for v in data["vertices"]]
    data["target_map"] = [str(x) for x in data["target_map"]]
    cert_path.write_text(json.dumps(data))
    code, out, err = run(capsys, "verify", "--in", "C7",
                         "--cert", str(cert_path), "--h", "2P2")
    assert code == EXIT_USAGE == 1
    assert "VALID" not in out
    assert "'vertices' holds 0.5, not a JSON integer" in err, err


def test_verify_refuses_a_float_version(tmp_path, capsys):
    # 2.0 == 2, so a loader that compares values prints VALID for C7's
    # 2P2 certificate with a float version
    cert_path = tmp_path / "cert.json"
    run(capsys, "recognize", "--target", "2P2", "--in", "C7",
        "--emit-cert", str(cert_path))
    data = json.loads(cert_path.read_text())
    data["version"] = 2.0
    cert_path.write_text(json.dumps(data))
    code, out, err = run(capsys, "verify", "--in", "C7",
                         "--cert", str(cert_path), "--h", "2P2")
    assert code == EXIT_USAGE == 1
    assert "VALID" not in out
    assert "version 2.0 is not supported" in err, err


def test_contains_answers_a_bipartite_host_without_room_above_the_cap(
        capsys, monkeypatch):
    # C64 is bipartite and C3 is not, so the side rule answers before the
    # host is canonicalised; P4's sides (2, 2) fit into C64's (32, 32), so
    # that query labels the host, which spends a low labelling budget here
    # (C64 costs 73,341 units)
    monkeypatch.setattr(canon, "_FORMS", {})
    monkeypatch.setattr(canon, "LABEL_BUDGET", 1 << 16)
    code, out, err = run(capsys, "contains", "--g", "C64", "--h", "C3")
    assert (code, out, err) == (EXIT_OK, "false\n", "")
    code, out, err = run(capsys, "contains", "--g", "C64", "--h", "P4")
    assert code == EXIT_INCONCLUSIVE == 2
    assert out == "inconclusive\n"
    assert err.startswith("inconclusive: labelling search spent "
                          "LABEL_BUDGET = 65536 work units on "
                          + to_graph6(named_graph("C64"))), err


def test_recognize_rejects_a_list_manifest(tmp_path, capsys):
    out_dir = tmp_path / "obs"
    run(capsys, "mine", "--h", "2P1", "--nmax", "3", "--out", str(out_dir))
    (out_dir / "manifest.json").write_text("[]\n")
    code, _, err = run(capsys, "recognize", "--target", "2P1", "--in", "K3",
                       "--obstructions", str(out_dir))
    assert code == EXIT_USAGE
    assert err.startswith("error:") and "manifest.json" in err, err


def test_recognize_refuses_a_set_saved_without_a_labelling(tmp_path, capsys):
    # a set saved before the field existed: its keys may name other graphs
    out_dir = tmp_path / "obs"
    run(capsys, "mine", "--h", "2P1", "--nmax", "3", "--out", str(out_dir))
    manifest = json.loads((out_dir / "manifest.json").read_text())
    del manifest["labelling"]
    (out_dir / "manifest.json").write_text(json.dumps(manifest))
    code, out, err = run(capsys, "recognize", "--target", "2P1", "--in", "K3",
                         "--obstructions", str(out_dir))
    assert (code, out) == (EXIT_USAGE, "")
    assert "field 'labelling' is None" in err and "mined for" not in err, err


def test_recognize_refuses_a_string_depth(tmp_path, capsys):
    # the depth is compared with the proved bound: a string there once
    # ended in a TypeError and a traceback
    out_dir = tmp_path / "obs"
    run(capsys, "mine", "--h", "2P1", "--nmax", "3", "--out", str(out_dir))
    manifest = json.loads((out_dir / "manifest.json").read_text())
    manifest["complete_up_to"] = "3"
    (out_dir / "manifest.json").write_text(json.dumps(manifest))
    code, out, err = run(capsys, "recognize", "--target", "2P1", "--in", "C4",
                         "--obstructions", str(out_dir))
    assert (code, out) == (EXIT_USAGE, "")
    assert err == ("error: manifest.json field 'complete_up_to' is '3', not "
                   "a non-negative integer\n"), err


def test_recognize_refuses_an_obstruction_set_for_another_target(
        tmp_path, capsys):
    out_dir = tmp_path / "c3"
    code, _, _ = run(capsys, "mine", "--h", "C3", "--nmax", "6",
                     "--out", str(out_dir))
    assert code == EXIT_OK
    # P3 contains 2P1 and C3 is an obstruction of C3; a C3 set answers
    # neither query about 2P1
    for host in ("P3", "C3"):
        code, out, err = run(capsys, "recognize", "--in", host, "--target",
                             "2P1", "--obstructions", str(out_dir))
        assert code == EXIT_USAGE
        assert out == ""
        assert "C3" in err and "tP1[t=2]" in err


@pytest.mark.parametrize("flags", [
    ("--nmax", "4"), ("--allow-truncated",), ("--obstructions", "missing"),
])
def test_recognize_fixed_target_refuses_bounded_flags(capsys, flags):
    code, out, err = run(capsys, "recognize", "--target", "3P1", "--in",
                         "C5", *flags)
    assert code == EXIT_USAGE
    assert out == ""
    assert "fixed recognizer" in err


def test_empty_graph_input_is_a_usage_error(tmp_path, capsys):
    empty = tmp_path / "empty.txt"
    empty.write_text("")
    for spec in ("g6:", str(empty)):
        code, out, err = run(capsys, "convert", "--in", spec, "--to", "edges")
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("error:")


def test_mine_negative_depth_is_a_usage_error(capsys):
    code, out, err = run(capsys, "mine", "--h", "C3", "--nmax", "-1",
                         "--json")
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("error:") and "n_max" in err, err


def test_contains_orbit_limit_counts_the_start_member(capsys, monkeypatch):
    # a cold cache, so the target's orbit is enumerated under the limit
    monkeypatch.setattr(containment, "DEFAULT_CACHE", PivotMinorCache())
    monkeypatch.setattr(containment, "ORBIT_LIMIT", 0)
    code, out, _ = run(capsys, "contains", "--g", "C5", "--h", "C3")
    assert code == EXIT_INCONCLUSIVE
    assert out.strip() == "inconclusive"


def test_a_file_of_two_graphs_is_not_one_graph(tmp_path, capsys):
    two = tmp_path / "two.g6"
    two.write_text(f"{to_graph6(named_graph('C5'))}\n"
                   f"{to_graph6(named_graph('C4'))}\n")
    code, out, err = run(capsys, "contains", "--g", str(two), "--h", "C3")
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("error:") and "holds 2" in err, err


def test_reduce_reads_an_edge_list_file(tmp_path, capsys):
    k33 = tmp_path / "k33.txt"
    k33.write_text(to_edgelist(complete_multipartite([3, 3])))
    code, out, err = run(capsys, "reduce", "--in", str(k33))
    assert code == EXIT_OK, err
    (report,) = json.loads(out)["reports"]
    assert report["n"] == 6 and report["sides_agree"] is True
