"""Command-line interface.

Graphs are given as literal graph6 strings prefixed with "g6:", named
graphs ("C5", "2P2", "K1,3") or file paths (graph6 or "n m" edge lists,
sniffed), tried in that order.  Exit codes: 0 for definite results, 2
for inconclusive or truncation-limited results, 1 for usage errors and
failed verifications.  A spent resource limit (containment.LIMITS) is
inconclusive: exit 2, with "inconclusive: " and the limit's message as
one stderr line, as every warning is; contains also prints the verdict
"inconclusive" on stdout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import re
import sys
import warnings
from pathlib import Path

from . import __version__
from .canon import canonical_key
from .catalog import named_graph
from .certificates import Certificate, find_pivot_minor_sequence, steps_to_json, verify_certificate
from .containment import LIMITS, contains_pivot_minor, pivot_orbit
from .generate import generate_all_graphs
from .graphs import Graph, pivot
from .io import read_graphs, to_edgelist, to_graph6
from .matroids import reduction_roundtrip
from .obstructions import (
    BOUND_FAMILIES,
    check_bound,
    diff_obstruction_sets,
    family_c3p1,
    family_k4,
    family_target,
    load_obstruction_set,
    mine,
    obstruction_order_bound,
    save_obstruction_set,
)
from .recognizers import RECOGNIZERS, recognize, recognize_bounded

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INCONCLUSIVE = 2

# listing an orbit labels each of its up to 2^(n-1) labelled members
ORBIT_MAX_VERTICES = 16


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        raise UsageError(message)


def load_graphs_arg(spec: str) -> list[Graph]:
    """Resolve a graph argument: a g6: literal, then a name, then a file,
    which may hold several graphs (see io.read_graphs)."""
    if spec.startswith("g6:"):
        return read_graphs(spec[3:])
    try:
        return [named_graph(spec)]
    except (KeyError, ValueError):
        if not Path(spec).exists():
            raise UsageError(f"{spec!r} is neither a known graph name nor an "
                             "existing file; prefix literals with g6:") from None
    return read_graphs(Path(spec).read_text())


def load_graph_arg(spec: str) -> Graph:
    """The one graph of a graph argument (see load_graphs_arg)."""
    graphs = load_graphs_arg(spec)
    if len(graphs) > 1:
        raise UsageError(f"expected one graph, {spec!r} holds {len(graphs)}")
    return graphs[0]


def _graph_meta(g: Graph) -> dict:
    s = to_graph6(g)
    return {"graph6": s, "n": g.n, "m": g.num_edges,
            "sha256": hashlib.sha256(s.encode()).hexdigest()}


def _emit_json(payload: dict) -> None:
    payload = {"tool": {"name": "pivotminors", "version": __version__}, **payload}
    print(json.dumps(payload, indent=2))


def _cmd_pivot(args) -> int:
    g = load_graph_arg(args.input)
    try:
        u, v = (int(x) for x in args.edge.split(","))
    except ValueError:
        raise UsageError("--edge expects 'u,v'") from None
    result = pivot(g, u, v)
    print(to_graph6(result))
    return EXIT_OK


def _cmd_orbit(args) -> int:
    g = load_graph_arg(args.input)
    if g.n > ORBIT_MAX_VERTICES:
        raise UsageError(f"orbit listing is capped at {ORBIT_MAX_VERTICES} "
                         f"vertices, got {g.n}")
    orbit = pivot_orbit(g)
    keys = sorted({canonical_key(x) for x in orbit})
    if args.json:
        _emit_json({
            "input": _graph_meta(g),
            "orbit_size": len(orbit),
            "classes": keys,
        })
    else:
        print(f"orbit size (labelled): {len(orbit)}")
        print(f"isomorphism classes: {len(keys)}")
        for k in keys:
            print(k)
    return EXIT_OK


def _cmd_contains(args) -> int:
    g = load_graph_arg(args.g)
    h = load_graph_arg(args.h)
    verdict = contains_pivot_minor(g, h)
    if args.json:
        _emit_json({
            "inputs": {"g": _graph_meta(g), "h": _graph_meta(h)},
            "verdict": verdict.value,
        })
    else:
        print(verdict.value)
    return EXIT_OK if verdict.definite else EXIT_INCONCLUSIVE


def _cmd_sequence(args) -> int:
    g = load_graph_arg(args.g)
    h = load_graph_arg(args.h)
    found = find_pivot_minor_sequence(g, h)
    if found is None:
        print("none")
        return EXIT_OK
    steps, iso = found
    _emit_json({
        "inputs": {"g": _graph_meta(g), "h": _graph_meta(h)},
        "steps": steps_to_json(steps),
        "target_map": iso,
    })
    return EXIT_OK


def _cmd_mine(args) -> int:
    h = load_graph_arg(args.h)
    obs = mine(h, args.nmax, target_name=args.h)
    keys = sorted(obs.member_keys)
    if args.out:
        out = Path(args.out)
        if (out / "manifest.json").exists():
            stored = load_obstruction_set(out)
            delta = diff_obstruction_sets(stored, obs)
            if (delta["only_in_first"] or delta["only_in_second"]
                    or not delta["target_match"] or not delta["same_depth"]):
                print("stored results differ from this run:", file=sys.stderr)
                print(json.dumps(delta, indent=2), file=sys.stderr)
                return EXIT_USAGE
            print(f"matches stored results in {out}", file=sys.stderr)
        else:
            save_obstruction_set(obs, out)
            print(f"saved to {out}", file=sys.stderr)
    if args.json:
        _emit_json({
            "target": _graph_meta(h),
            "complete_up_to": obs.complete_up_to,
            "members": keys,
            "inconclusive": sorted(canonical_key(x) for x in obs.inconclusive),
        })
    else:
        for k in keys:
            print(k)
        if obs.inconclusive:
            print(f"inconclusive members: {len(obs.inconclusive)}", file=sys.stderr)
    return EXIT_INCONCLUSIVE if obs.inconclusive else EXIT_OK


def _cmd_check_bound(args) -> int:
    record = check_bound(args.family, args.t, args.nmax)
    payload = {
        "family": record.family,
        "t": record.t,
        "bound": record.bound,
        "n_max": record.n_max,
        "observed_max_order": record.observed_max_order,
        "member_count": record.member_count,
        "covered": record.covered,
        "bound_respected": record.bound_respected,
        "statement": record.coverage_statement(),
    }
    if args.json:
        _emit_json(payload)
    else:
        print(payload["statement"])
        print(f"members: {record.member_count}, "
              f"largest: {record.observed_max_order}")
    return EXIT_OK if record.covered else EXIT_INCONCLUSIVE


def _cmd_family(args) -> int:
    if args.name == "k4":
        if args.odd is None:
            raise UsageError("family k4 needs --odd a,b and --path-len")
        try:
            a, b = (int(x) for x in args.odd.split(","))
        except ValueError:
            raise UsageError("--odd expects 'a,b'") from None
        g = family_k4(a, b, args.path_len)
    elif args.name == "c3p1":
        if args.k is None:
            raise UsageError("family c3p1 needs --k")
        g = family_c3p1(args.k)
    else:
        raise UsageError(f"unknown family {args.name!r}, pick k4 or c3p1")
    print(to_graph6(g))
    return EXIT_OK


_FAMILY_TARGET_RES = [
    (re.compile(r"^(\d+)P1$"), "tP1"),
    (re.compile(r"^P2\+(\d+)P1$"), "P2+tP1"),
    (re.compile(r"^P3\+(\d+)P1$"), "P3+tP1"),
    (re.compile(r"^K1,(\d+)$"), "K1,t"),
]


def _parse_family_target(name: str) -> tuple[str, int] | None:
    for regex, family in _FAMILY_TARGET_RES:
        m = regex.match(name.replace(" ", ""))
        if m:
            return family, int(m.group(1))
    return None


def _recognize_bounded_from_args(args, g: Graph):
    parsed = _parse_family_target(args.target)
    if parsed is None:
        raise UsageError(
            f"--target must be one of {sorted(RECOGNIZERS)} or a bounded "
            "family target like 4P1, P2+2P1, P3+1P1, K1,4"
        )
    family, t = parsed
    bound = obstruction_order_bound(family, t)
    if args.obstructions:
        obs = load_obstruction_set(args.obstructions)
    else:
        # mining to the bound takes under a second up to n = 10
        n_max = args.nmax if args.nmax is not None else (
            bound if bound <= 10 else 8)
        obs = mine(family_target(family, t), n_max,
                   target_name=f"{family}[t={t}]")
    return recognize_bounded(
        g, family, t, obs, allow_truncated=args.allow_truncated
    )


def _cmd_recognize(args) -> int:
    g = load_graph_arg(args.input)
    if args.target in RECOGNIZERS:
        if args.obstructions or args.nmax is not None or args.allow_truncated:
            raise UsageError(
                f"{args.target} has a fixed recognizer; --obstructions, --nmax "
                "and --allow-truncated apply to bounded family targets only")
        result = recognize(g, args.target)
    else:
        result = _recognize_bounded_from_args(args, g)
    cert_json = result.certificate.to_json() if result.certificate else None
    if args.emit_cert and result.certificate:
        Path(args.emit_cert).write_text(result.certificate.dumps())
    if args.json:
        _emit_json({
            "input": _graph_meta(g),
            "target": result.target,
            "verdict": result.verdict,
            "method": result.method,
            "obstruction": result.obstruction_name,
            "detail": result.detail,
            "certificate": cert_json,
        })
    else:
        line = f"{result.verdict} ({result.method})"
        if result.obstruction_name:
            line += f", obstruction {result.obstruction_name}"
        print(line)
    return EXIT_OK if result.verdict in ("free", "contains") else EXIT_INCONCLUSIVE


def _cmd_verify(args) -> int:
    g = load_graph_arg(args.input)
    h = load_graph_arg(args.h)
    cert = Certificate.loads(Path(args.cert).read_text())
    outcome = verify_certificate(g, cert, h)
    if outcome.ok:
        print("VALID")
        return EXIT_OK
    where = f" at step {outcome.step}" if outcome.step is not None else ""
    print(f"INVALID{where}: {outcome.reason}")
    return EXIT_USAGE


def _cmd_reduce(args) -> int:
    reports = [reduction_roundtrip(g) for g in load_graphs_arg(args.input)]
    payload = {"reports": reports}
    if args.report:
        Path(args.report).write_text(json.dumps(payload, indent=2) + "\n")
    _emit_json(payload)
    if any(r["sides_agree"] is False and r["n"] >= 5 for r in reports):
        print("error: the two sides disagree at n >= 5", file=sys.stderr)
        return EXIT_USAGE
    bad = [r for r in reports if r["sides_agree"] is None]
    return EXIT_INCONCLUSIVE if bad else EXIT_OK


def _cmd_gen(args) -> int:
    for g in generate_all_graphs(args.n):
        print(to_graph6(g))
    return EXIT_OK


def _cmd_convert(args) -> int:
    g = load_graph_arg(args.input)
    if args.to == "g6":
        print(to_graph6(g))
    else:
        sys.stdout.write(to_edgelist(g))
    return EXIT_OK


def build_parser() -> _Parser:
    p = _Parser(prog="pivotminors", description=__doc__)
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("pivot", help="pivot one edge and print the result")
    sp.add_argument("--in", dest="input", required=True)
    sp.add_argument("--edge", required=True, help="edge as 'u,v'")
    sp.set_defaults(fn=_cmd_pivot)

    sp = sub.add_parser("orbit", help="enumerate the pivot orbit")
    sp.add_argument("--in", dest="input", required=True)
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(fn=_cmd_orbit)

    sp = sub.add_parser("contains", help="pivot-minor containment verdict")
    sp.add_argument("--g", required=True, help="host graph")
    sp.add_argument("--h", required=True, help="target graph")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(fn=_cmd_contains)

    sp = sub.add_parser("sequence", help="find an explicit pivot-minor sequence")
    sp.add_argument("--g", required=True)
    sp.add_argument("--h", required=True)
    sp.set_defaults(fn=_cmd_sequence)

    sp = sub.add_parser("mine", help="mine minimal obstructions up to an order")
    sp.add_argument("--h", required=True, help="target graph")
    sp.add_argument("--nmax", type=int, required=True)
    sp.add_argument("--out", help="directory for members.g6 + manifest.json")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(fn=_cmd_mine)

    sp = sub.add_parser("check-bound", help="compare a sweep against a proved bound")
    sp.add_argument("--family", required=True,
                    choices=BOUND_FAMILIES)
    sp.add_argument("--t", type=int, required=True)
    sp.add_argument("--nmax", type=int, required=True)
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(fn=_cmd_check_bound)

    sp = sub.add_parser("family", help="construct family members")
    sp.add_argument("--name", required=True, help="k4 or c3p1")
    sp.add_argument("--odd", help="cycle lengths 'a,b' for k4")
    sp.add_argument("--path-len", type=int, default=0)
    sp.add_argument("--k", type=int, help="cycle length for c3p1")
    sp.set_defaults(fn=_cmd_family)

    sp = sub.add_parser("recognize", help="run a certifying recognizer")
    sp.add_argument("--target", required=True,
                    help="a fixed target (C3, P4, C4, paw, diamond, 2P2, "
                         "3P1, claw) or a bounded family target (4P1, "
                         "P2+2P1, P3+1P1, K1,4)")
    sp.add_argument("--in", dest="input", required=True)
    sp.add_argument("--emit-cert", help="write the certificate JSON here")
    sp.add_argument("--obstructions",
                    help="directory with a mined obstruction set "
                         "(bounded family targets only)")
    sp.add_argument("--nmax", type=int,
                    help="mine obstructions up to this order when no "
                         "--obstructions directory is given (default: the "
                         "proved bound if it is at most 10, else 8)")
    sp.add_argument("--allow-truncated", action="store_true",
                    help="accept obstruction sets that stop below the "
                         "proved bound; may yield free-up-to-truncation")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(fn=_cmd_recognize)

    sp = sub.add_parser("verify", help="replay a certificate")
    sp.add_argument("--in", dest="input", required=True)
    sp.add_argument("--cert", required=True)
    sp.add_argument("--h", required=True, help="target graph")
    sp.set_defaults(fn=_cmd_verify)

    sp = sub.add_parser("reduce", help="Hamiltonicity reduction round trip")
    sp.add_argument("--in", dest="input", required=True,
                    help="cubic graph(s): a file may hold one edge list "
                         "or one graph6 per line")
    sp.add_argument("--report", help="write the JSON report here")
    sp.set_defaults(fn=_cmd_reduce)

    sp = sub.add_parser("gen", help="one graph per isomorphism class")
    sp.add_argument("--n", type=int, required=True)
    sp.set_defaults(fn=_cmd_gen)

    sp = sub.add_parser("convert", help="convert between graph formats")
    sp.add_argument("--in", dest="input", required=True)
    sp.add_argument("--to", choices=["g6", "edges"], required=True)
    sp.set_defaults(fn=_cmd_convert)

    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    # each distinct warning message is one stderr line
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("default")
        try:
            args = parser.parse_args(argv)
            return args.fn(args)
        except LIMITS as exc:
            print(f"inconclusive: {exc}", file=sys.stderr)
            return EXIT_INCONCLUSIVE
        except (UsageError, ValueError, KeyError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        finally:
            for message in dict.fromkeys(str(w.message) for w in seen):
                print(message, file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
