"""Substitution subshifts, ordered Bratteli diagrams, and Vershik dynamics at
desk scale: language and growth machinery, recognizability of finite windows,
the two substitution <-> diagram constructions, layered symbol codings, and
explicit phase-space windows.

Submodules load on first use: ``adicshift.recognize_window`` imports
``adicshift.recognize`` when it is first read, so a caller pays only for the
layers it touches.
"""

from importlib import import_module

# the public names of each submodule, in the order of its layer
_EXPORTS = {
    "errors": (
        "AlphabetError", "CountExceedsImage", "DecompositionFailure",
        "DiagramError", "DomainError", "GrammarError", "ImproperOrdering",
        "InsufficientGrowth", "NoNesting", "ScaleTooSmall",
        "ShortLettersPresent", "SpanMismatch", "SymbolTooLarge",
        "TooManyPaths", "UnboundedShorts", "WindowTooShort",
    ),
    "words": (
        "FactorLanguage", "LetterClassification", "NestingClass",
        "NoneUpToBounds", "Substitution", "Unbounded", "Word", "as_letters",
        "classify_letters", "expand", "expansion_lengths", "factor_language",
        "incidence_matrix", "nesting_class", "norms", "parse_substitution",
        "periodicity_witness_search", "short_block_bound", "sorted_words",
    ),
    "recognize": (
        "AmbiguityReport", "ChainLevel", "ParseChain", "Tiling",
        "one_word_tilings", "recognize_window",
    ),
    "constructions": (
        "EncodedSystem", "MarkedWord", "MinimalComponent",
        "MPrimitiveDecomposition", "NotMPrimitive", "NotProperUpTo",
        "ProperWitness", "ReturnWordSystem", "derivative_substitution",
        "diagram_via_derivative", "is_m_primitive", "is_proper",
        "minimal_components", "multi_edge_encoding", "nesting_diagram",
        "nesting_matching_rule", "nesting_vocabulary", "return_words",
    ),
    "diagrams": (
        "TOP", "ExtremalPaths", "FinitePath", "Maximal", "OrderedDiagram",
        "PeriodicLabels", "StationaryOrderedDiagram", "enumerate_paths",
        "export_dot", "extremal_paths", "maximal_path", "minimal_path",
        "read_substitution", "stationary_from_substitution", "telescope",
        "validate", "vershik_orbit_coding", "vershik_successor",
    ),
    "phase": (
        "ChainPrefix", "CoreCheck", "LambdaSeed", "core_membership",
        "lambda_seeds", "lambda_window", "m0_window",
    ),
    "symbols": (
        "CompatibleWitness", "EventualPeriod", "JSequenceWindow", "JSymbol",
        "NoneWithinBudget", "agreement_depth", "box_matrix_text",
        "build_j_symbol", "eventually_periodic_check",
        "expansiveness_witness_search", "path_window", "shift_down_path",
        "tower_rank", "window_from_parse",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}

__all__ = sorted([*_EXPORTS, *_MODULE_OF])


def __getattr__(name: str):
    """Import the submodule that defines `name` on first access, and keep
    the value here so later reads skip this hook."""
    if name in _EXPORTS:
        return import_module(f".{name}", __name__)
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
