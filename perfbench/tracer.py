"""Spans around calls into the library's public functions, recorded from
outside the package.

install() replaces every module binding of each traced function (the
defining module's, the package namespace's and each importing module's,
plus module-level dispatch dicts such as recognizers.RECOGNIZERS) and the
traced PivotMinorCache methods with a wrapper. Each call records a span:
name, parent span, start and end, kept in flat arrays until the pass ends.
metrics() turns the spans into calls and self time per function, a span's
self time being its duration minus the durations of its child spans.
uninstall() puts the original functions back.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array
from functools import wraps

from layers import LAYER_METRICS, TARGET_SPANS

# (span name, module, attribute) of every traced function
TRACED = [
    ("graphs.pivot", "graphs", "pivot"),
    ("graphs.delete_vertex", "graphs", "delete_vertex"),
    ("graphs.contract_pivot", "graphs", "contract_pivot"),
    ("graphs.induced_subgraph", "graphs", "induced_subgraph"),
    ("io.from_graph6", "io", "from_graph6"),
    ("io.to_graph6", "io", "to_graph6"),
    ("canon.canonical_key", "canon", "canonical_key"),
    ("canon.canonical_form", "canon", "canonical_form"),
    ("canon.find_induced_embedding", "canon", "find_induced_embedding"),
    ("generate.generate_all_graphs", "generate", "generate_all_graphs"),
    ("containment.contains_pivot_minor", "containment", "contains_pivot_minor"),
    ("containment.child_keys", "containment", "PivotMinorCache.child_keys"),
    ("containment.target_orbit_keys", "containment",
     "PivotMinorCache.target_orbit_keys"),
    ("containment.pivot_orbit", "containment", "pivot_orbit"),
    ("obstructions.is_minimal_obstruction", "obstructions",
     "is_minimal_obstruction"),
    ("certificates.build_certificate", "certificates", "build_certificate"),
    ("certificates.verify_certificate", "certificates", "verify_certificate"),
    ("certificates.find_pivot_minor_sequence", "certificates",
     "find_pivot_minor_sequence"),
    ("matroids.fundamental_graph", "matroids", "fundamental_graph"),
    ("matroids.is_hamiltonian", "matroids", "is_hamiltonian"),
    *[(f"recognizers.{t}", "recognizers", fn) for t, fn in TARGET_SPANS.items()],
]


class Tracer:
    def __init__(self) -> None:
        self.names = [span for span, _, _ in TRACED]
        self.name_of = array("H")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counts = {"found": 0, "orbit_members": 0, "minimal": 0,
                       "contains": 0, "form_max_n": 0, "fundamental_max_n": 0}
        self.classes: dict[int, int] = {}  # order -> classes generated
        self.caches: dict[int, object] = {}  # every PivotMinorCache touched
        self.cache_stats = (0, 0, 0)  # hits, misses, entries
        self._restore: list[tuple[object, str, object]] = []

    # -- hooks that count what a call did -----------------------------------

    def _hooks(self, span: str):
        from pivotminors import containment

        c = self.counts

        def see_cache(cache) -> None:
            self.caches.setdefault(id(cache), cache)

        def form(args, kwargs):
            c["form_max_n"] = max(c["form_max_n"], args[0].n)

        def contains(args, kwargs):
            see_cache(kwargs.get("cache") or containment.DEFAULT_CACHE)

        def method(args, kwargs):
            see_cache(args[0])

        def found(args, result):
            c["found"] += result is not None

        def orbit(args, result):
            c["orbit_members"] += len(result)

        def minimal(args, result):
            c["minimal"] += result.value == "true"

        def fundamental(args, result):
            c["fundamental_max_n"] = max(c["fundamental_max_n"], result.graph.n)

        def recognized(args, result):
            c["contains"] += result.contains

        def generated(args, result):
            self.classes[args[0]] = len(result)

        before = {"canon.canonical_form": form,
                  "containment.contains_pivot_minor": contains,
                  "containment.child_keys": method,
                  "containment.target_orbit_keys": method}
        after = {"canon.find_induced_embedding": found,
                 "containment.pivot_orbit": orbit,
                 "obstructions.is_minimal_obstruction": minimal,
                 "matroids.fundamental_graph": fundamental,
                 "generate.generate_all_graphs": generated}
        if span.startswith("recognizers."):
            return None, recognized
        return before.get(span), after.get(span)

    def _wrap(self, idx: int, fn, before, after):
        name_of, parent, start, end = self.name_of, self.parent, self.start, self.end
        stack = self.stack
        clock = time.perf_counter

        @wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            i = len(start)
            name_of.append(idx)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    # -- patching -------------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if name == "pivotminors" or name.startswith("pivotminors.")]
        for idx, (span, modname, attr) in enumerate(TRACED):
            mod = importlib.import_module(f"pivotminors.{modname}")
            before, after = self._hooks(span)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[meth]
                self._set(cls, meth, orig, self._wrap(idx, orig, before, after))
                continue
            orig = getattr(mod, attr)
            wrapper = self._wrap(idx, orig, before, after)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        self._set(m, key, orig, wrapper)
                    elif isinstance(value, dict):
                        for k, v in list(value.items()):
                            if v is orig:
                                self._set(value, k, orig, wrapper)

    def _set(self, where, key, orig, new) -> None:
        if isinstance(where, dict):
            where[key] = new
        else:
            setattr(where, key, new)
        self._restore.append((where, key, orig))

    def uninstall(self) -> None:
        for where, key, orig in reversed(self._restore):
            if isinstance(where, dict):
                where[key] = orig
            else:
                setattr(where, key, orig)
        self._restore.clear()
        caches = list(self.caches.values())
        self.cache_stats = (
            sum(c.hits for c in caches),
            sum(c.misses for c in caches),
            sum(len(c.verdicts) + len(c.children) + len(c.target_orbits)
                for c in caches),
        )
        self.caches.clear()

    # -- aggregation ------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric of LAYER_METRICS but trace.overhead_s,
        which needs an untraced pass to compare with."""
        k = len(self.names)
        calls, self_s = [0] * k, [0.0] * k
        name_of, parent, start, end = self.name_of, self.parent, self.start, self.end
        child = [0.0] * len(start)
        key_id = self.names.index("canon.canonical_key")
        gen_id = self.names.index("generate.generate_all_graphs")
        candidates = 0
        # a child span always comes after its parent, so walking backwards
        # finishes every child before its parent is read
        for i in range(len(start) - 1, -1, -1):
            dur = end[i] - start[i]
            name = name_of[i]
            calls[name] += 1
            self_s[name] += dur - child[i]
            p = parent[i]
            if p >= 0:
                child[p] += dur
                if name == key_id and name_of[p] == gen_id:
                    candidates += 1
        values: dict[str, float] = {}
        for j, span in enumerate(self.names):
            values[f"{span}.calls"] = calls[j]
            values[f"{span}.self_s"] = self_s[j]

        def ratio(a: float, b: float) -> float:
            return a / b if b else 0.0

        c = self.counts
        hits, misses, entries = self.cache_stats
        keys = values["canon.canonical_key.calls"]
        classes = sum(n for order, n in self.classes.items() if order > 0)
        values.update({
            "canon.canonical_form.max_n": c["form_max_n"],
            "canon.key_cache.hit_ratio":
                ratio(keys - values["canon.canonical_form.calls"], keys),
            "canon.find_induced_embedding.found_ratio":
                ratio(c["found"], values["canon.find_induced_embedding.calls"]),
            "generate.candidates": candidates,
            "generate.classes_per_candidate": ratio(classes, candidates),
            "containment.memo.hit_ratio": ratio(hits, hits + misses),
            "containment.memo.entries": entries,
            "containment.pivot_orbit.members": c["orbit_members"],
            "obstructions.minimal_ratio":
                ratio(c["minimal"], values["obstructions.is_minimal_obstruction.calls"]),
            "recognizers.contains_ratio": ratio(
                c["contains"],
                sum(values[f"recognizers.{t}.calls"] for t in TARGET_SPANS)),
            "matroids.fundamental_graph.max_n": c["fundamental_max_n"],
        })
        return {name: values[name] for name, _, _, _ in LAYER_METRICS
                if name != "trace.overhead_s"}
