"""Compactness-score feature selection toolkit.

Unsupervised feature selection for dense matrices: score each feature by
the ratio of its summed k-nearest-neighbor distances to its variance, keep
the lowest-scoring d features, and judge subsets with a seeded k-means
harness (matched accuracy and NMI against reference labels).
"""

from ._version import __version__
from .bench import BenchCell, BenchReport, run_benchmark
from .data import (
    Dataset,
    FeatureScores,
    LabelVector,
    Method,
    SelectionResult,
    validate_dataset,
)
from .errors import (
    CsufsError,
    EmptyMatrix,
    KTooLarge,
    LabelColumnMissing,
    LengthMismatch,
    MalformedCsv,
    NonFiniteEntry,
    ParseError,
    RaggedRows,
    TooFewSamples,
)
from .evaluation import (
    DEFAULT_SEEDS,
    EvalConfig,
    EvalReport,
    SweepCell,
    SweepReport,
    evaluate_selection,
    sweep,
)
from .io import (
    ReportDocument,
    load_csv,
    parse_report,
    read_report,
    serialize_report,
    write_matrix_csv,
    write_report,
    write_sweep_csv,
)
from .kmeans import DEFAULT_CONV_TOL, DEFAULT_MAX_ITER, KMeansResult, kmeans, kmeans_fit
from .metrics import (
    clustering_accuracy,
    contingency_table,
    entropy,
    normalized_mutual_information,
)
from .preprocess import DEFAULT_ZERO_TOL, NormalizedDataset, normalize_samples
from .scoring import (
    DEFAULT_K,
    DEFAULT_VARIANCE_TOL,
    KernelTrace,
    ScoringConfig,
    compactness_score,
    csufs,
    feature_variance,
    knn_distance_sum_naive,
    knn_distance_sum_sorted,
    knn_distance_sums,
    knn_distance_trace,
    score_all_features,
    select_all,
    select_features,
    select_max_variance,
)

__all__ = [
    "__version__",
    "BenchCell",
    "BenchReport",
    "CsufsError",
    "Dataset",
    "DEFAULT_CONV_TOL",
    "DEFAULT_K",
    "DEFAULT_MAX_ITER",
    "DEFAULT_SEEDS",
    "DEFAULT_VARIANCE_TOL",
    "DEFAULT_ZERO_TOL",
    "EmptyMatrix",
    "EvalConfig",
    "EvalReport",
    "FeatureScores",
    "KMeansResult",
    "KTooLarge",
    "KernelTrace",
    "LabelColumnMissing",
    "LabelVector",
    "LengthMismatch",
    "MalformedCsv",
    "Method",
    "NonFiniteEntry",
    "NormalizedDataset",
    "ParseError",
    "RaggedRows",
    "ReportDocument",
    "ScoringConfig",
    "SelectionResult",
    "SweepCell",
    "SweepReport",
    "TooFewSamples",
    "clustering_accuracy",
    "compactness_score",
    "contingency_table",
    "csufs",
    "entropy",
    "evaluate_selection",
    "feature_variance",
    "kmeans",
    "kmeans_fit",
    "knn_distance_sum_naive",
    "knn_distance_sum_sorted",
    "knn_distance_sums",
    "knn_distance_trace",
    "load_csv",
    "normalize_samples",
    "normalized_mutual_information",
    "parse_report",
    "read_report",
    "run_benchmark",
    "score_all_features",
    "select_all",
    "select_features",
    "select_max_variance",
    "serialize_report",
    "sweep",
    "validate_dataset",
    "write_matrix_csv",
    "write_report",
    "write_sweep_csv",
]
