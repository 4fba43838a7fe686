"""The package namespace: every public name resolves, and submodules load
on first use rather than on `import adicshift`."""

import os
import subprocess
import sys

import pytest

import adicshift

PUBLIC = [
    "AlphabetError", "AmbiguityReport", "ChainLevel", "ChainPrefix",
    "CompatibleWitness", "CoreCheck", "CountExceedsImage",
    "DecompositionFailure", "DiagramError", "DomainError", "EncodedSystem",
    "EventualPeriod", "ExtremalPaths", "FactorLanguage", "FinitePath",
    "GrammarError", "ImproperOrdering", "InsufficientGrowth",
    "JSequenceWindow", "JSymbol", "LambdaSeed", "LetterClassification",
    "MPrimitiveDecomposition", "MarkedWord", "Maximal", "MinimalComponent",
    "NestingClass", "NoNesting", "NoneUpToBounds", "NoneWithinBudget",
    "NotMPrimitive", "NotProperUpTo", "OrderedDiagram", "ParseChain",
    "PeriodicLabels", "ProperWitness", "ReturnWordSystem", "ScaleTooSmall",
    "ShortLettersPresent", "SpanMismatch", "StationaryOrderedDiagram",
    "Substitution", "SymbolTooLarge", "TOP", "Tiling", "TooManyPaths",
    "Unbounded", "UnboundedShorts", "WindowTooShort", "Word",
    "agreement_depth", "as_letters", "box_matrix_text", "build_j_symbol",
    "classify_letters", "constructions", "core_membership",
    "derivative_substitution", "diagram_via_derivative", "diagrams",
    "enumerate_paths", "errors", "eventually_periodic_check", "expand",
    "expansion_lengths", "expansiveness_witness_search", "export_dot",
    "extremal_paths", "factor_language", "incidence_matrix",
    "is_m_primitive", "is_proper", "lambda_seeds",
    "lambda_window", "m0_window", "maximal_path", "minimal_components",
    "minimal_path", "multi_edge_encoding", "nesting_class",
    "nesting_diagram", "nesting_matching_rule", "nesting_vocabulary",
    "norms", "one_word_tilings", "parse_substitution", "path_window",
    "periodicity_witness_search", "phase", "read_substitution", "recognize",
    "recognize_window", "return_words", "shift_down_path",
    "short_block_bound", "sorted_words", "stationary_from_substitution",
    "symbols", "telescope", "tower_rank", "validate", "vershik_orbit_coding",
    "vershik_successor", "window_from_parse", "words",
]


def test_public_names_are_unchanged_and_resolve():
    assert sorted(adicshift.__all__) == PUBLIC
    for name in PUBLIC:
        getattr(adicshift, name)
    for name in ("constructions", "diagrams", "errors", "phase", "recognize",
                 "symbols", "words"):
        assert getattr(adicshift, name) is sys.modules[f"adicshift.{name}"]
    assert set(PUBLIC) <= set(dir(adicshift))


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from adicshift import *", namespace)
    assert set(PUBLIC) <= set(namespace)
    assert namespace["Substitution"] is adicshift.Substitution


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        adicshift.no_such_name
    assert not hasattr(adicshift, "no_such_name")


def test_submodule_imports_keep_working():
    from adicshift import recognize
    from adicshift.diagrams import StationaryOrderedDiagram

    assert recognize.recognize_window is adicshift.recognize_window
    assert StationaryOrderedDiagram is adicshift.StationaryOrderedDiagram


def test_import_loads_no_layer_until_first_use():
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    code = ("import sys, adicshift\n"
            "heavy = ('constructions', 'symbols', 'recognize')\n"
            "assert not any(f'adicshift.{m}' in sys.modules for m in heavy)\n"
            "adicshift.minimal_path\n"
            "assert 'adicshift.diagrams' in sys.modules\n"
            "assert 'adicshift.symbols' not in sys.modules\n")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    subprocess.run([sys.executable, "-c", code], env=env, check=True,
                   timeout=60)
