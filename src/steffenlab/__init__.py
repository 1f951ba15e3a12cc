"""steffenlab: exact edge-coloring analysis of loopless multigraphs.

The public names are re-exported lazily (PEP 562): `import steffenlab`
loads no submodule, and the first use of `steffenlab.X` imports the
submodule that defines X.  So a CLI command loads only the modules it runs.
"""

from importlib import import_module

# submodule -> the names it re-exports
_EXPORTS = {
    "multigraph": "Multigraph build from_json_obj induced parse parse_any ring serialize "
    "to_json_obj",
    "invariants": "INFINITE_GIRTH CycleSeq DensityWitness ShortCycleViolation "
    "check_short_cycle_properties density girth shortest_cycle steffen_bound subgraph_girth",
    "coloring": "DegreeIdentityReport EdgeColoring MatchingDecomposition chromatic_index "
    "chromatic_index_value degree_identity_check extract_critical is_critical is_k_colorable "
    "near_perfect_matching_decomposition validate_coloring",
    "structure": "CyclePartition Fan RingSubgraph cycle_partition enumerate_cycles "
    "fan_bound_check find_ring_subgraph_with_chi is_ring_graph max_fan verify_cycle_partition",
    "generators": "EnumSpec canonical_form enumerate_with_keys mu_complete mu_cycle "
    "random_multigraph",
    "scan": "ScanConfig ScanSummary run_lemma_suite run_scan",
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names.split()}
_SUBMODULES = (*_EXPORTS, "errors")

__all__ = sorted([*_SOURCE, *_SUBMODULES])

__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _SUBMODULES:
        return import_module(f".{name}", __name__)
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_SOURCE[name]}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
