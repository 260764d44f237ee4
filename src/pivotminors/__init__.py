"""Pivot-minors of small graphs.

Core objects: immutable bitmask Graphs with local complementation and
edge pivots; exact pivot-minor containment with shared memoization;
mining of minimal forbidden induced subgraphs; certifying recognizers for
the fixed target classes; and the fundamental-graph reduction tying
Hamiltonicity of cubic graphs to star pivot-minors.
"""

__version__ = "0.1.0"

from .canon import (
    canonical_form,
    canonical_key,
    find_induced_embedding,
    has_induced,
    is_isomorphic,
    isomorphism,
)
from .catalog import (
    complete_graph,
    complete_multipartite,
    cycle_graph,
    graph_names,
    is_named_graph,
    named_graph,
    path_graph,
    star_graph,
    wheel_graph,
)
from .certificates import (
    Certificate,
    DeleteVertex,
    PivotEdge,
    SequenceError,
    Step,
    VerificationResult,
    apply_sequence,
    build_certificate,
    find_pivot_minor_sequence,
    verify_certificate,
)
from .containment import (
    ORBIT_LIMIT,
    OrbitLimitError,
    PivotMinorCache,
    Verdict,
    contains_pivot_minor,
    pivot_equivalent,
    pivot_orbit,
)
from .generate import KNOWN_CLASS_COUNTS, generate_all_graphs
from .graphs import (
    Graph,
    NeighborhoodSplit,
    bipartition,
    complement,
    connected_components,
    contract_pivot,
    delete_vertex,
    disjoint_union,
    induced_subgraph,
    is_bipartite,
    is_connected,
    local_complement,
    neighborhood_split,
    pivot,
)
from .io import (
    from_edgelist,
    from_graph6,
    parse_graph_text,
    read_graphs,
    to_edgelist,
    to_graph6,
)
from .matroids import (
    FundamentalGraph,
    fundamental_graph,
    is_hamiltonian,
    reduction_roundtrip,
    spanning_tree,
)
from .obstructions import (
    BoundRecord,
    ObstructionSet,
    check_bound,
    clique_star,
    diff_obstruction_sets,
    family_c3p1,
    family_k4,
    family_target,
    is_minimal_obstruction,
    leaf_attached_multipartite,
    load_obstruction_set,
    mine,
    obstruction_order_bound,
    save_obstruction_set,
)
from .recognizers import (
    RECOGNIZERS,
    RecognitionResult,
    recognize,
    recognize_2p2,
    recognize_3p1,
    recognize_bounded,
    recognize_c3,
    recognize_c4,
    recognize_claw,
    recognize_diamond,
    recognize_p4,
    recognize_paw,
)
