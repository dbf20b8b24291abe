"""Corpus model, what-how terminology, hallmark vectors and tangibility
classes for tangible-interface specimens, with corpus analytics, a text
annotation format, and JSON interchange."""

from .analysis import (
    EmptyCorpusError,
    Metric,
    class_distribution,
    cluster_by_binary_hallmark,
    cluster_by_hallmark,
    cross_tab,
    distance_matrix,
    distinct_binary_hallmark_count,
    distinct_hallmark_count,
    role_distribution,
    term_coverage,
)
from .classify import TangibilityClass, classify, classify_by_patterns, pattern_table
from .dsl import export_json, import_json, parse_corpus, serialize_corpus
from .golden import load_golden
from .hallmark import (
    BinaryHallmark,
    Hallmark,
    SymbolicCountError,
    binarize,
    compute_hallmark,
    hamming_distance,
    l1_distance,
)
from .model import (
    Application,
    Corpus,
    Count,
    Entity,
    Role,
    Severity,
    Tangibility,
    validate,
)
from .terms import UnknownTermError, all_terms, parse_term, term_of

__version__ = "0.1.0"

__all__ = [
    "Application",
    "BinaryHallmark",
    "Corpus",
    "Count",
    "EmptyCorpusError",
    "Entity",
    "Hallmark",
    "Metric",
    "Role",
    "Severity",
    "SymbolicCountError",
    "Tangibility",
    "TangibilityClass",
    "UnknownTermError",
    "all_terms",
    "binarize",
    "class_distribution",
    "classify",
    "classify_by_patterns",
    "cluster_by_binary_hallmark",
    "cluster_by_hallmark",
    "compute_hallmark",
    "cross_tab",
    "distance_matrix",
    "distinct_binary_hallmark_count",
    "distinct_hallmark_count",
    "export_json",
    "hamming_distance",
    "import_json",
    "l1_distance",
    "load_golden",
    "parse_corpus",
    "parse_term",
    "pattern_table",
    "role_distribution",
    "serialize_corpus",
    "term_coverage",
    "term_of",
    "validate",
    "__version__",
]
