"""Vertex-connectivity laboratory.

Exact pairwise/single-source/global/Steiner vertex connectivity and element
connectivity via unit-capacity max flow (fast_apvc and fast_ssvc are
apvc_naive and ssvc under the paper's names, see vclab.solvers), the
paper's sampling-based capped estimator, and the clique-hardness
constructions (filters, isolating gadget, the instances H and J) with
machine-checkable identities.
"""

from .errors import (
    DemandError,
    GraphParseError,
    InconsistencyError,
    QueryError,
    SizeGuardError,
    VclabError,
)
from .flow import (
    ConnectivitySweep,
    CutCertificate,
    FlowNetwork,
    cut_disconnects,
    max_flow,
    paths_disjoint,
    vertex_connectivity,
    vertex_disjoint_paths,
)
from .graphs import (
    EdgeSet,
    Graph,
    LabeledInstance,
    emit_graph,
    emit_labeled,
    gen_gnp,
    gen_planted_4clique,
    parse_edge_pairs,
    parse_graph,
    parse_labeled,
)
from .oracles import (
    brute_4clique,
    brute_4clique_exhaustive,
    brute_edge_universal,
    brute_mixed_cut,
)
from .reductions import (
    FourPartite,
    HardInstance,
    apvc_threshold,
    attach_gadget,
    build_filter_b,
    build_filter_c,
    build_h,
    build_h_hat,
    build_isolating_gadget,
    build_j,
    emit_hard_instance,
    four_partite,
    parse_hard_instance,
    solve_4clique_via_apvc,
    solve_edge_universal_via_steiner,
    steiner_threshold,
)
from .solvers import (
    ConnectivityMatrix,
    DegreeSplit,
    SampleFamily,
    apvc_naive,
    capped_apvc_sampled,
    capped_ssvc_sampled,
    degree_split,
    draw_sample_family,
    fast_apvc,
    fast_ssvc,
    global_vc,
    global_vc_pair,
    ssvc,
    steiner_at_least,
    steiner_vc,
    steiner_vc_pair,
)

__version__ = "0.1.0"
