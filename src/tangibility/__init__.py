"""Corpus model, what-how terminology, hallmark vectors and tangibility
classes for tangible-interface specimens, with corpus analytics, a text
annotation format, and JSON interchange.

Each public name loads its module on first use (PEP 562), so importing the
package, or one of its modules, loads only what that use needs."""

from importlib import import_module

# Eager: importing the submodule of the same name would bind it here in the
# function's place, and analysis and reporting both import that submodule.
from .classify import classify

__version__ = "0.1.0"

# module -> the public names it is the home of, every one but classify: the one
# written list of what the package exports, read by __getattr__, __dir__ and __all__
_HOMES = {
    "analysis": (
        "EmptyCorpusError class_distribution cluster_by_binary_hallmark cluster_by_hallmark"
        " cross_tab distance_matrix distinct_binary_hallmark_count distinct_hallmark_count"
        " role_distribution term_coverage"
    ),
    "classify": "TangibilityClass classify_by_patterns pattern_table",
    "dsl": "export_json import_json parse_corpus serialize_corpus",
    "golden": "load_golden",
    "hallmark": (
        "BinaryHallmark Hallmark SymbolicCountError binarize compute_hallmark hamming_distance"
        " l1_distance"
    ),
    "model": "Application Corpus Count Entity Metric Role Severity Tangibility validate",
    "terms": "UnknownTermError all_terms parse_term term_of",
}
_HOME = {name: module for module, names in _HOMES.items() for name in names.split()}
__all__ = [*sorted({*_HOME, "classify"}), "__version__"]


def __getattr__(name: str) -> object:
    """A public name, imported from its home module on first use and kept here."""
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value  # later lookups find it without this call
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOME})
