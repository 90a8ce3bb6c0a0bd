"""Alpha-spectral radii and exact small-order extremal graph search.

The library builds simple graphs and the usual named families, assembles
the convex combination alpha*D + (1-alpha)*A, certifies its largest
eigenvalue, enumerates isomorphism classes, solves edge and spectral
Turan-type problems exhaustively at small order, and machine-checks a
battery of spectral inequalities.
"""

from .graphs import (
    Graph,
    MAX_VERTICES,
    SizeCapError,
    blow_up,
    book,
    complete,
    complete_bipartite,
    components,
    cycle,
    delete_vertex,
    disjoint_union,
    empty_graph,
    generate,
    induced_subgraph,
    is_connected,
    join,
    make_graph,
    matching,
    path,
    remove_edge,
    split,
    split_plus,
    star,
    turan,
    wheel,
)
from .graph6 import decode_graph6, encode_graph6, parse_graph6_lines, write_graph6_lines
from .structure import (
    ForbiddenFamily,
    as_family,
    chromatic_number,
    contains_subgraph,
    forbidden_family,
    is_color_critical,
    is_free,
)
from .spectral import (
    ConvergenceError,
    SpectralResult,
    alpha_matrix,
    check_alpha,
    lambda_alpha,
    lambda_alpha_many,
    spectral_radius,
)
from .enumeration import (
    EnumFilter,
    EnumerationCapError,
    canonical_form,
    count_classes,
    enumerate_graphs,
)
from .extremal import (
    ExtremalRecord,
    NoCandidatesError,
    SequenceDiagnostic,
    pi_sequence,
    spectral_extremal,
    stability_condition_check,
    turan_number,
)
from .verifier import (
    BatteryReport,
    CheckReport,
    check_degree_stability,
    check_edge_count_turan,
    check_graph,
    check_log_inequalities,
    check_turan_bound,
    run_battery,
)

__version__ = "0.1.0"
