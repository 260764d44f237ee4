"""Edge pivots from first principles.

Pivoting an edge uv rewires the rest of the graph around that edge: the
other vertices split into three camps (neighbors of u only, of v only,
of both), adjacency is toggled between different camps, and u and v
trade their remaining neighbors.  The same map falls out of three local
complementations, u-v-u, and applying it twice gives the graph back.
"""

from pivotminors import (
    Graph,
    canonical_form,
    cycle_graph,
    local_complement,
    named_graph,
    neighborhood_split,
    pivot,
    pivot_equivalent,
    pivot_orbit,
    to_graph6,
)

g = Graph(6, [(0, 1), (0, 2), (0, 3), (1, 3), (1, 4), (2, 5)])
print("host:", to_graph6(g), "edges", sorted(g.edges()))

private_u, common, private_v, rest = neighborhood_split(g, 0, 1)
print("split at edge (0, 1):")
print("  only 0:", sorted(private_u))
print("  both:  ", sorted(common))
print("  only 1:", sorted(private_v))
print("  neither:", sorted(rest))

p = pivot(g, 0, 1)
print("pivoted:", to_graph6(p), "edges", sorted(p.edges()))
print("pivot twice restores the graph:", pivot(p, 0, 1) == g)

triple = local_complement(local_complement(local_complement(g, 0), 1), 0)
print("u-v-u local complementations give the same graph:", triple == p)
triple_vuv = local_complement(local_complement(local_complement(g, 1), 0), 1)
print("v-u-v does too:", triple_vuv == p)

# the orbit of a graph under pivots: every labelled graph reachable by
# edge pivots, and the isomorphism classes among them
c5 = cycle_graph(5)
orbit = pivot_orbit(c5)
print("C5 pivot orbit size (labelled):", len(orbit))
print("C5 pivot orbit isomorphism classes:",
      len({canonical_form(member) for member in orbit}))
for member in orbit:
    print("  ", to_graph6(member), sorted(member.edges()))

print("C5 pivot-equivalent to its relabeling:",
      pivot_equivalent(c5, Graph(5, [(1, 2), (2, 3), (3, 4), (4, 0), (0, 1)])))
print("C5 pivot-equivalent to the bull:",
      pivot_equivalent(c5, named_graph("bull")))
