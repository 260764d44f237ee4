"""Mining the minimal forbidden graphs for a pivot-minor ideal.

Excluding a fixed pivot-minor h carves out a downward-closed class,
and the boundary of that class is a finite-or-infinite set of minimal
obstructions: graphs that contain h while none of their one-vertex
deletions do.  The miner grows the class of h-free graphs one vertex at
a time up to a cap, and keeps the extensions that contain h while all of
their deletions stay free.
"""

from pivotminors import (
    canonical_key,
    check_bound,
    cycle_graph,
    family_c3p1,
    family_k4,
    graph_names,
    is_minimal_obstruction,
    mine,
    named_graph,
    to_graph6,
)

_NAMES = list(graph_names()) + ["P4", "C3", "C4", "C5", "C6", "C7", "3P1",
                                "P2+P1"]
names_by_key = {canonical_key(named_graph(s)): s for s in _NAMES}


def describe(key):
    return names_by_key.get(key, key)


obs = mine(cycle_graph(3), 7, target_name="C3")
print("minimal obstructions for excluding C3 (complete up to n=7):")
for key in sorted(obs.member_keys):
    print("  ", describe(key))

obs = mine(named_graph("2P2"), 7, target_name="2P2")
print("for excluding 2P2 there are", len(obs.members), "of them:",
      ", ".join(sorted(describe(k) for k in obs.member_keys)))

# for t disjoint vertices the obstruction orders are provably below
# 2^t - 1, so a sweep that deep is the whole answer
record = check_bound("tP1", 3, 8)
print("excluding 3 isolated vertices:", record.member_count, "obstructions,",
      "largest has", record.observed_max_order, "vertices")
print("  ", record.coverage_statement())

# stopping short of the proved bound is reported honestly
record = check_bound("P2+tP1", 1, 5)
print("excluding P2 + P1 with a shallow sweep:")
print("  ", record.coverage_statement())

# the free class of P2 + P1 stays tiny, so the sweep reaches the bound
record = check_bound("P2+tP1", 1, 10)
print("excluding P2 + P1 swept to its proved bound:",
      ", ".join(describe(k) for k in record.obstructions.member_keys))
print("  ", record.coverage_statement())

# some exclusions have infinitely many obstructions; two constructions
# below are minimal at every size
member = family_c3p1(5)
print("family member on", member.n, "vertices:", to_graph6(member))
target = named_graph("C3+P1")
print("  minimal for C3 + P1:", is_minimal_obstruction(member, target).name)

member = family_k4(3, 3, 1)
print("family member on", member.n, "vertices:", to_graph6(member))
print("  minimal for K4:",
      is_minimal_obstruction(member, named_graph("K4")).name)
