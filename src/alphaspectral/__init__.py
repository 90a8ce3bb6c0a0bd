"""Alpha-spectral radii and exact small-order extremal graph search.

The library builds simple graphs and the usual named families, assembles
the convex combination alpha*D + (1-alpha)*A, certifies its largest
eigenvalue, enumerates isomorphism classes, solves edge and spectral
Turan-type problems exhaustively at small order, and machine-checks a
battery of spectral inequalities.

Every name below loads its module on first use (PEP 562), so
`import alphaspectral` loads neither numpy nor any submodule, and a run
pays only for the modules it touches: a spectral search never loads the
verifier.
"""

import importlib

_EXPORTS = {
    "graphs": "Graph MAX_VERTICES SizeCapError blow_up book complete complete_bipartite components cycle "
    "delete_vertex disjoint_union empty_graph generate induced_subgraph is_connected join make_graph "
    "matching path remove_edge split split_plus star turan wheel",
    "graph6": "decode_graph6 encode_graph6 parse_graph6_lines write_graph6_lines",
    "structure": "ForbiddenFamily as_family chromatic_number contains_subgraph forbidden_family is_color_critical "
    "is_free",
    "spectral": "ConvergenceError SpectralResult alpha_matrix check_alpha lambda_alpha spectral_radius",
    "enumeration": "EnumFilter EnumerationCapError canonical_form count_classes enumerate_graphs",
    "extremal": "ExtremalRecord NoCandidatesError SequenceDiagnostic pi_sequence spectral_extremal "
    "stability_condition_check turan_number",
    "verifier": "BatteryReport CheckReport check_degree_stability check_edge_count_turan check_graph "
    "check_log_inequalities check_turan_bound run_battery",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _HOME:
        return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
